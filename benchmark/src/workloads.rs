//! The four benchmark workloads and how their inputs are made.
//!
//! A workload is a fixed dataset (graph, train/test split and client
//! partition, generated from the workload's own `data_seed`) plus a run
//! configuration. `--seed` is the *run* seed: it feeds `FlConfig::seed`
//! (model init, client sampling, batch shuffles, evaluation negatives,
//! the fault plan). The dataset is not re-drawn per seed because at these
//! sizes the generator's seed changes what is being measured — final AUC
//! swings 0.52–0.79 and round time ±30 % between dataset seeds — so a new
//! dataset seed is a new workload, not another sample of the same one.

use crate::metrics::WORKLOAD_WHY;
use fedda::experiment::{Dataset, Experiment, ExperimentConfig};
use fedda_data::ClientData;
use fedda_fl::{
    AsyncConfig, Compression, FaultConfig, FedAvg, FedDa, FlConfig, FlProtocol, FlSystem,
    StalenessPolicy,
};
use fedda_hgn::{HgnConfig, TrainConfig};

/// Workload names, in reporting order: the ones `BENCHMARK.json` declares.
pub fn names() -> [&'static str; 4] {
    WORKLOAD_WHY.map(|(name, _)| name)
}

/// Worker-pool size and kernel-thread budget of every measured run: the
/// reference box has two cores, and more threads than cores made the same
/// run swing 2.0–2.7 s.
pub const WORKERS: usize = 2;

/// Which round protocol a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Proto {
    /// `FedDa::explore()` — the only workload where mask/activation hooks run.
    DaExplore,
    /// FedAvg over every registered client.
    AvgAll,
    /// FedAvg dispatching `dispatch` of the registered clients per round.
    AvgSample { dispatch: usize },
}

/// Which driver executes the run.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    Sync,
    Async(AsyncConfig),
}

/// One workload's full definition.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    /// Seed of the fixed dataset, split and partition.
    pub data_seed: u64,
    /// Partitions made by the non-IID partitioner.
    pub base_clients: usize,
    /// Registered clients; the base partitions are replicated cyclically.
    pub registered: usize,
    pub model: HgnConfig,
    pub local_epochs: usize,
    pub proto: Proto,
    pub compression: Option<Compression>,
    pub driver: Driver,
    pub faults: Option<FaultConfig>,
    pub rounds: usize,
    pub eval_every: usize,
    pub eval_negatives: usize,
    /// ROC-AUC the `*_to_auc` readings wait for.
    pub target_auc: f64,
}

fn model(hidden_dim: usize, num_heads: usize, num_layers: usize, edge_emb_dim: usize) -> HgnConfig {
    HgnConfig {
        hidden_dim,
        num_heads,
        num_layers,
        edge_emb_dim,
        ..Default::default()
    }
}

/// The workload called `name`, at full or smoke size.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let fleet_faults = FaultConfig {
        dropout: 0.1,
        straggler: 0.2,
        max_staleness: 3,
        staleness: StalenessPolicy::Discount { gamma: 0.9 },
        ..Default::default()
    };
    let fleet = |name, driver, faults| Spec {
        name,
        dataset: Dataset::DblpLike,
        scale: 0.0008,
        data_seed: 1,
        base_clients: 16,
        registered: 2048,
        model: model(32, 4, 2, 32),
        local_epochs: 1,
        proto: Proto::AvgSample { dispatch: 64 },
        compression: Some(Compression::QuantI8),
        driver,
        faults,
        rounds: 12,
        eval_every: 1,
        eval_negatives: 2,
        target_auc: 0.0,
    };
    let mut spec = match name {
        "dblp_fedda" => Spec {
            name: "dblp_fedda",
            dataset: Dataset::DblpLike,
            scale: 0.006,
            data_seed: 1,
            base_clients: 8,
            registered: 8,
            model: model(8, 2, 2, 8),
            local_epochs: 2,
            proto: Proto::DaExplore,
            compression: None,
            driver: Driver::Sync,
            faults: None,
            rounds: 40,
            eval_every: 1,
            eval_negatives: 5,
            target_auc: 0.76,
        },
        "fleet_q8_sync" => Spec {
            target_auc: 0.65,
            ..fleet("fleet_q8_sync", Driver::Sync, None)
        },
        "fleet_q8_async" => Spec {
            target_auc: 0.58,
            ..fleet(
                "fleet_q8_async",
                Driver::Async(AsyncConfig { k: 32, gamma: 0.9 }),
                Some(fleet_faults),
            )
        },
        "amazon_large" => Spec {
            name: "amazon_large",
            dataset: Dataset::AmazonLike,
            scale: 0.25,
            data_seed: 1,
            base_clients: 4,
            registered: 4,
            model: HgnConfig::paper_default(),
            local_epochs: 2,
            proto: Proto::AvgAll,
            compression: None,
            driver: Driver::Sync,
            faults: None,
            rounds: 4,
            eval_every: 2,
            eval_negatives: 5,
            target_auc: 0.74,
        },
        _ => return None,
    };
    if smoke {
        spec.rounds = 2;
        spec.target_auc = 0.0;
        match spec.name {
            "dblp_fedda" => spec.scale = 0.002,
            "amazon_large" => spec.scale = 0.02,
            _ => {
                spec.registered = 128;
                spec.proto = Proto::AvgSample { dispatch: 8 };
                spec.model = model(8, 2, 2, 8);
                if let Driver::Async(cfg) = &mut spec.driver {
                    cfg.k = 4;
                }
            }
        }
    }
    Some(spec)
}

/// Every workload, in reporting order.
pub fn all(smoke: bool) -> Vec<Spec> {
    names()
        .iter()
        .map(|name| spec(name, smoke).expect("every declared workload has a spec"))
        .collect()
}

impl Spec {
    /// The same federation under the lockstep driver without faults — what
    /// the traced replay can reproduce call for call.
    pub fn sync_twin(&self) -> Spec {
        Spec {
            driver: Driver::Sync,
            faults: None,
            ..self.clone()
        }
    }

    pub fn is_async(&self) -> bool {
        matches!(self.driver, Driver::Async(_))
    }

    pub fn train(&self) -> TrainConfig {
        TrainConfig {
            local_epochs: self.local_epochs,
            lr: 5e-3,
            ..Default::default()
        }
    }

    /// The experiment cell that generates and splits the fixed dataset.
    pub fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            dataset: self.dataset,
            scale: self.scale,
            num_clients: self.base_clients,
            rounds: self.rounds,
            runs: 1,
            model: self.model.clone(),
            train: self.train(),
            eval_negatives: self.eval_negatives,
            eval_every: self.eval_every,
            seed: self.data_seed,
            ..Default::default()
        }
    }

    /// The partitioned clients, replicated cyclically to `registered`.
    pub fn clients(&self, exp: &Experiment) -> Vec<ClientData> {
        let base = exp.clients_for_run(0);
        if self.registered == base.len() {
            return base;
        }
        (0..self.registered)
            .map(|i| base[i % base.len()].clone())
            .collect()
    }

    pub fn fl_config(&self, seed: u64, workers: usize) -> FlConfig {
        FlConfig {
            rounds: self.rounds,
            model: self.model.clone(),
            train: self.train(),
            eval_negatives: self.eval_negatives,
            eval_every: self.eval_every,
            // Spread consecutive run seeds over the whole u64 range, as
            // `Experiment` does for its own runs.
            seed: seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            parallel: true,
            workers: Some(workers),
            faults: self.faults.clone(),
            compression: self.compression,
            ..Default::default()
        }
    }

    /// Set-up as a pass times it: dataset generation, split, partition and
    /// `FlSystem::new`.
    pub fn build(&self, seed: u64, workers: usize) -> (Experiment, FlSystem) {
        let exp = Experiment::new(self.experiment_config());
        let clients = self.clients(&exp);
        let split = exp.split();
        let system = FlSystem::new(
            &split.train,
            &split.test,
            clients,
            self.fl_config(seed, workers),
        );
        (exp, system)
    }

    /// A fresh per-run protocol instance.
    pub fn protocol(&self) -> Box<dyn FlProtocol> {
        match self.proto {
            Proto::DaExplore => Box::new(FedDa::explore().protocol()),
            Proto::AvgAll => Box::new(FedAvg::vanilla()),
            Proto::AvgSample { dispatch } => Box::new(FedAvg::with_fractions(
                dispatch as f64 / self.registered as f64,
                1.0,
            )),
        }
    }

    /// `uplink_bytes_total` in closed form, where the workload has one:
    /// every dispatched client reports every scalar at the codec's width.
    pub fn uplink_closed_form(&self, scalars: usize) -> Option<usize> {
        if self.is_async() {
            return None;
        }
        let per_round = match self.proto {
            Proto::DaExplore => return None,
            Proto::AvgAll => self.registered,
            Proto::AvgSample { dispatch } => dispatch,
        };
        let width = match self.compression {
            None => 4,
            Some(Compression::QuantI8) => 1,
            Some(_) => return None,
        };
        Some(self.rounds * per_round * scalars * width)
    }
}
