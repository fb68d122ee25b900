//! Experiment drivers: the configurations and multi-run loops behind every
//! table and figure of the paper, so the bench binaries stay thin.

use fedda_data::{
    amazon_like, dblp_like, partition_iid, partition_non_iid, ClientData, PartitionConfig,
    PresetOptions,
};
use fedda_fl::{
    baselines, AggWeighting, Compression, EventSink, FaultConfig, FedAdam, FedAvg, FedDa, FedDyn,
    FedProx, FlConfig, FlProtocol, FlSystem, GlobalProtocol, PrivacyConfig, RunResult, RuntimeMode,
};
use fedda_hetgraph::split::{split_edges, EdgeSplit};
use fedda_hgn::{EvalResult, HgnConfig, TrainConfig};
use fedda_metrics::MeanStd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which benchmark heterograph to synthesise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Amazon-like: 1 node type, 2 edge types (paper's e-commerce graph).
    AmazonLike,
    /// DBLP-like: 3 node types, 5 edge types (paper's bibliographic graph).
    DblpLike,
}

impl Dataset {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::AmazonLike => "Amazon",
            Dataset::DblpLike => "DBLP",
        }
    }

    /// The paper's test fraction for this dataset (§6.1: Amazon 10%,
    /// DBLP 15%).
    pub fn test_fraction(self) -> f64 {
        match self {
            Dataset::AmazonLike => 0.10,
            Dataset::DblpLike => 0.15,
        }
    }
}

/// Full description of one experiment cell (a dataset × client-count ×
/// framework grid point, repeated over several runs): the grid fields, and
/// the run configuration every federation of the cell is built with — an
/// [`FlConfig`], whose fields' meaning and checks live there.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset preset.
    pub dataset: Dataset,
    /// Size multiplier passed to the generator (1.0 = paper scale).
    pub scale: f64,
    /// Number of clients `M`.
    pub num_clients: usize,
    /// [`FlConfig::rounds`].
    pub rounds: usize,
    /// Independent repetitions (the paper uses 5).
    pub runs: usize,
    /// IID partition instead of the paper's non-IID protocol.
    pub iid: bool,
    /// [`FlConfig::model`].
    pub model: HgnConfig,
    /// [`FlConfig::train`].
    pub train: TrainConfig,
    /// [`FlConfig::eval_negatives`].
    pub eval_negatives: usize,
    /// [`FlConfig::eval_every`].
    pub eval_every: usize,
    /// Base seed: dataset generation and the split use it as is, run `r`
    /// derives its own [`FlConfig::seed`] from it.
    pub seed: u64,
    /// [`FlConfig::workers()`].
    pub workers: Option<usize>,
    /// Which runtime executes the round protocol: lockstep rounds or
    /// buffered-asynchronous aggregation (handed to [`fedda_fl::run`]).
    pub runtime: RuntimeMode,
    /// [`FlConfig::weighting`].
    pub weighting: AggWeighting,
    /// [`FlConfig::privacy`].
    pub privacy: Option<PrivacyConfig>,
    /// [`FlConfig::faults`], applied identically to every framework under
    /// comparison.
    pub faults: Option<FaultConfig>,
    /// [`FlConfig::compression`], applied identically to every framework
    /// under comparison.
    pub compression: Option<Compression>,
}

impl Default for ExperimentConfig {
    /// [`FlConfig::default`] with the experiment layer's own local training
    /// (E = 2, lr = 5e-3), on an 8-client DBLP-like cell of 5 runs.
    fn default() -> Self {
        let fl = FlConfig::default();
        Self {
            dataset: Dataset::DblpLike,
            scale: 0.004,
            num_clients: 8,
            rounds: fl.rounds,
            runs: 5,
            iid: false,
            model: fl.model,
            train: TrainConfig {
                local_epochs: 2,
                lr: 5e-3,
                ..fl.train
            },
            eval_negatives: fl.eval_negatives,
            eval_every: fl.eval_every,
            seed: fl.seed,
            workers: fl.workers,
            runtime: RuntimeMode::Sync,
            weighting: fl.weighting,
            privacy: fl.privacy,
            faults: fl.faults,
            compression: fl.compression,
        }
    }
}

impl ExperimentConfig {
    /// The run configuration of the cell, seeded with the base seed: the one
    /// place its fields become an [`FlConfig`].
    pub(crate) fn fl(&self) -> FlConfig {
        FlConfig {
            rounds: self.rounds,
            model: self.model.clone(),
            train: self.train.clone(),
            eval_negatives: self.eval_negatives,
            eval_every: self.eval_every,
            seed: self.seed,
            parallel: true,
            workers: self.workers,
            privacy: self.privacy,
            weighting: self.weighting,
            faults: self.faults.clone(),
            compression: self.compression,
        }
    }

    /// Reject a cell no run can be built from, before any data is
    /// generated: at least one client and run, a finite, positive scale, a
    /// Simple-HGN [`HgnConfig::validate`] accepts (every experiment builds
    /// one), then whatever [`FlConfig::validate`] refuses.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("clients must be at least 1, got 0".into());
        }
        if self.runs == 0 {
            return Err("runs must be at least 1, got 0".into());
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!(
                "scale must be finite and positive, got {}",
                self.scale
            ));
        }
        self.validate_model()?;
        self.fl().validate()
    }

    /// [`HgnConfig::validate`], under the message [`ExperimentConfig::validate`]
    /// gives it.
    fn validate_model(&self) -> Result<(), String> {
        (self.model.validate()).map_err(|e| format!("invalid model configuration: {e}"))
    }
}

/// A framework under comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Framework {
    /// Centralised training on the full training graph (upper bound).
    Global,
    /// Per-client isolated training (lower bound, averaged).
    Local,
    /// FedAvg, optionally with random client/parameter fractions.
    FedAvg(FedAvg),
    /// FedProx: FedAvg with a μ-proximal term on the local objective.
    FedProx(FedProx),
    /// FedDyn: dynamic regularization with the server `h` correction.
    FedDyn(FedDyn),
    /// FedAdam: server-side adaptive optimisation on the pseudo-gradient.
    FedAdam(FedAdam),
    /// FedDA with a concrete strategy configuration.
    FedDa(FedDa),
}

impl Framework {
    /// Display name matching the paper's tables (delegates to the
    /// protocol's own name; `Local` is not a round protocol and names
    /// itself).
    pub fn name(&self) -> String {
        match self.protocol() {
            Some(p) => p.name(),
            None => "Local".into(),
        }
    }

    /// A fresh per-run [`FlProtocol`] for this framework, or `None` for
    /// `Local` (which has no round structure and runs outside the
    /// engine).
    pub fn protocol(&self) -> Option<Box<dyn FlProtocol>> {
        match self {
            Framework::Global => Some(Box::new(GlobalProtocol::new())),
            Framework::Local => None,
            Framework::FedAvg(f) => Some(Box::new(f.clone())),
            Framework::FedProx(f) => Some(Box::new(f.clone())),
            Framework::FedDyn(f) => Some(Box::new(f.clone())),
            Framework::FedAdam(f) => Some(Box::new(f.clone())),
            Framework::FedDa(f) => Some(Box::new(f.clone())),
        }
    }
}

/// One framework's runs on one experiment cell. Every summary a table or
/// figure prints is a method folding `runs` in run order.
#[derive(Clone, Debug)]
pub struct FrameworkResult {
    /// Framework display name.
    pub name: String,
    /// Each run's result, in run order. A `Local` run, which has no rounds,
    /// holds only its `final_eval`: the mean over its clients' AUC and MRR.
    pub runs: Vec<RunResult>,
}

impl FrameworkResult {
    /// Mean ± std over runs of one per-run value.
    fn over(&self, of_run: impl Fn(&RunResult) -> f64) -> MeanStd {
        MeanStd::of(&self.runs.iter().map(of_run).collect::<Vec<_>>())
    }

    /// Final-round ROC-AUC over runs.
    pub fn final_auc(&self) -> MeanStd {
        self.over(|r| r.final_eval.roc_auc)
    }

    /// Final-round MRR over runs.
    pub fn final_mrr(&self) -> MeanStd {
        self.over(|r| r.final_eval.mrr)
    }

    /// Best-along-training ROC-AUC over runs; a run with no curve (`Local`)
    /// counts its final AUC.
    pub fn best_auc(&self) -> MeanStd {
        self.over(|r| {
            if r.curve.is_empty() {
                r.final_eval.roc_auc
            } else {
                r.best_auc()
            }
        })
    }

    /// Total uplink parameter units over runs (Table 3's measure).
    pub fn uplink_units(&self) -> MeanStd {
        self.over(|r| r.comm.total_uplink_units() as f64)
    }

    /// Total uplink encoded scalars over runs (post-mask, post-compression
    /// entry count; equals the masked scalar count for dense codecs, the
    /// kept count for top-k).
    pub fn uplink_scalars(&self) -> MeanStd {
        self.over(|r| r.comm.total_uplink_scalars() as f64)
    }

    /// Total uplink payload bytes over runs — post-mask, post-compression;
    /// the AUC-vs-bytes frontier's x axis.
    pub fn uplink_bytes(&self) -> MeanStd {
        self.over(|r| r.comm.total_uplink_bytes() as f64)
    }

    /// The true (0-based) round behind each curve position. The evaluation
    /// cadence is shared by every run, so one vector labels all curves;
    /// non-consecutive when `eval_every > 1`, empty for `Local`.
    pub fn eval_rounds(&self) -> Vec<usize> {
        self.runs
            .first()
            .map_or_else(Vec::new, |r| r.curve.iter().map(|e| e.round).collect())
    }

    /// Per-evaluation-point mean AUC across runs (Fig. 5a/5b).
    pub fn auc_mean_curve(&self) -> Vec<f64> {
        let n = self.runs.len() as f64;
        self.auc_points(|aucs| aucs.sum::<f64>() / n)
    }

    /// Per-evaluation-point best AUC across runs (Fig. 2 and 5c/5d's solid
    /// lines).
    pub fn auc_max_curve(&self) -> Vec<f64> {
        self.auc_points(|aucs| aucs.fold(f64::NEG_INFINITY, f64::max))
    }

    /// Per-evaluation-point worst AUC across runs (the dotted lines).
    pub fn auc_min_curve(&self) -> Vec<f64> {
        self.auc_points(|aucs| aucs.fold(f64::INFINITY, f64::min))
    }

    /// `fold` over the runs' AUCs at each curve position the shortest run
    /// reaches.
    fn auc_points(&self, fold: impl Fn(&mut dyn Iterator<Item = f64>) -> f64) -> Vec<f64> {
        let points = self.runs.iter().map(|r| r.curve.len()).min().unwrap_or(0);
        (0..points)
            .map(|t| fold(&mut self.runs.iter().map(|r| r.curve[t].roc_auc)))
            .collect()
    }
}

/// Tweak for the train/test-split RNG stream, XORed onto the experiment
/// seed so the split draws are independent of dataset generation (which
/// consumes the raw seed). Listed in the stream table that
/// `crates/bench/tests/zoo_wiring.rs` keeps collision-free.
pub const SPLIT_STREAM_TWEAK: u64 = 0x5B11;

/// One experiment cell: a generated + split dataset reused across
/// frameworks and runs so comparisons share data.
pub struct Experiment {
    cfg: ExperimentConfig,
    split: EdgeSplit,
}

impl Experiment {
    /// Generate the dataset and the global train/test split.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let opts = PresetOptions {
            scale: cfg.scale,
            seed: cfg.seed,
        };
        let generated = match cfg.dataset {
            Dataset::AmazonLike => amazon_like(&opts),
            Dataset::DblpLike => dblp_like(&opts),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ SPLIT_STREAM_TWEAK);
        let split = split_edges(&generated.graph, cfg.dataset.test_fraction(), &mut rng);
        Self { cfg, split }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The global train/test split.
    pub fn split(&self) -> &EdgeSplit {
        &self.split
    }

    /// Seed of run `r`.
    fn run_seed(&self, run: usize) -> u64 {
        self.cfg
            .seed
            .wrapping_add(1 + run as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Partition clients for run `r`.
    pub fn clients_for_run(&self, run: usize) -> Vec<ClientData> {
        let pcfg = PartitionConfig {
            seed: self.run_seed(run),
            ..PartitionConfig::paper_defaults(
                self.cfg.num_clients,
                self.split.train.schema().num_edge_types(),
                0,
            )
        };
        if self.cfg.iid {
            partition_iid(&self.split.train, &pcfg)
        } else {
            partition_non_iid(&self.split.train, &pcfg)
        }
    }

    /// Build a fresh federation over `clients` (fresh model init from
    /// `seed`; shared global split) under the cell's [`FlConfig`].
    pub fn system_with(&self, clients: Vec<ClientData>, seed: u64) -> FlSystem {
        let cfg = FlConfig {
            seed,
            ..self.cfg.fl()
        };
        FlSystem::new(&self.split.train, &self.split.test, clients, cfg)
    }

    /// The federation of run `r`: its own partition and model init.
    pub fn system_for_run(&self, run: usize) -> FlSystem {
        self.system_with(self.clients_for_run(run), self.run_seed(run))
    }

    /// Run one framework across all configured runs under the configured
    /// runtime and keep every run, streaming every round of every run to `sink`
    /// when one is given (`Local` has no rounds and emits nothing). A model
    /// no Simple-HGN can be built from comes back as an error before any
    /// federation is built; an invalid protocol, runtime, fault, codec or
    /// privacy configuration as the engine's error, before any round runs.
    pub fn run_framework(
        &self,
        framework: &Framework,
        mut sink: Option<&mut dyn EventSink>,
    ) -> Result<FrameworkResult, String> {
        self.cfg.validate_model()?;
        let mut runs = Vec::with_capacity(self.cfg.runs);
        for run in 0..self.cfg.runs {
            let mut system = self.system_for_run(run);
            runs.push(match framework.protocol() {
                None => {
                    let scores = baselines::run_local_only(&system);
                    let final_eval = EvalResult {
                        roc_auc: scores.auc_summary().mean,
                        mrr: scores.mrr_summary().mean,
                    };
                    RunResult {
                        final_eval,
                        ..Default::default()
                    }
                }
                Some(mut protocol) => fedda_fl::run(
                    &self.cfg.runtime,
                    protocol.as_mut(),
                    &mut system,
                    sink.as_deref_mut(),
                )?,
            });
        }
        Ok(FrameworkResult {
            name: framework.name(),
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            dataset: Dataset::AmazonLike,
            scale: 0.002,
            num_clients: 3,
            rounds: 2,
            runs: 2,
            model: HgnConfig {
                hidden_dim: 4,
                num_layers: 1,
                num_heads: 1,
                edge_emb_dim: 4,
                ..Default::default()
            },
            train: TrainConfig {
                local_epochs: 1,
                lr: 5e-3,
                ..Default::default()
            },
            eval_negatives: 2,
            eval_every: 1,
            seed: 7,
            workers: None,
            runtime: RuntimeMode::Sync,
            iid: false,
            weighting: Default::default(),
            privacy: None,
            faults: None,
            compression: None,
        }
    }

    fn run(exp: &Experiment, framework: Framework) -> FrameworkResult {
        exp.run_framework(&framework, None).unwrap()
    }

    fn fedavg(exp: &Experiment) -> FrameworkResult {
        run(exp, Framework::FedAvg(FedAvg::vanilla()))
    }

    #[test]
    fn validate_pins_each_rejection_message() {
        let reject = |edit: fn(&mut ExperimentConfig)| {
            let mut cfg = quick_cfg();
            edit(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert_eq!(quick_cfg().validate(), Ok(()));
        assert_eq!(
            reject(|c| c.num_clients = 0),
            "clients must be at least 1, got 0"
        );
        assert_eq!(reject(|c| c.rounds = 0), "rounds must be at least 1, got 0");
        assert_eq!(reject(|c| c.runs = 0), "runs must be at least 1, got 0");
        assert_eq!(
            reject(|c| c.eval_every = 0),
            "invalid evaluation configuration: eval_every must be at least 1, got 0"
        );
        assert_eq!(
            reject(|c| c.workers = Some(0)),
            "invalid worker configuration: workers must be at least 1, got 0"
        );
        assert_eq!(
            reject(|c| c.scale = 0.0),
            "scale must be finite and positive, got 0"
        );
        assert_eq!(
            reject(|c| c.model.hidden_dim = 0),
            "invalid model configuration: hidden_dim, num_layers and num_heads must be positive"
        );
        assert_eq!(
            reject(|c| c.model.attn_residual = 1.0),
            "invalid model configuration: attn_residual must be in [0,1), got 1"
        );
        assert_eq!(
            reject(|c| c.scale = -1.0),
            "scale must be finite and positive, got -1"
        );
        assert_eq!(
            reject(|c| c.scale = f64::NAN),
            "scale must be finite and positive, got NaN"
        );
        assert_eq!(
            reject(|c| c.scale = f64::INFINITY),
            "scale must be finite and positive, got inf"
        );
        assert_eq!(
            reject(|c| c.eval_negatives = 0),
            "invalid evaluation configuration: eval_negatives must be at least 1, got 0"
        );
    }

    /// A model no Simple-HGN can be built from comes back from
    /// `run_framework` as `validate`'s error — for a round protocol and for
    /// `Local`, which runs no engine — not as a panic in `FlSystem::new`.
    #[test]
    fn an_invalid_model_is_an_error_not_a_panic() {
        let mut cfg = quick_cfg();
        cfg.model.hidden_dim = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("invalid model configuration: "), "{err}");
        let exp = Experiment::new(cfg);
        for fw in [Framework::FedAvg(FedAvg::vanilla()), Framework::Local] {
            assert_eq!(exp.run_framework(&fw, None).unwrap_err(), err);
        }
    }

    /// A run configuration the engine would refuse is refused before any
    /// data is generated, with the engine's own message.
    #[test]
    fn validate_refuses_what_the_engine_refuses() {
        let reject = |edit: fn(&mut ExperimentConfig)| {
            let mut cfg = quick_cfg();
            edit(&mut cfg);
            let err = cfg.validate().unwrap_err();
            let exp = Experiment::new(cfg);
            let engine = exp.run_framework(&Framework::FedAvg(FedAvg::vanilla()), None);
            assert_eq!(engine.unwrap_err(), err);
            err
        };
        assert_eq!(
            reject(|c| {
                c.privacy = Some(PrivacyConfig {
                    clip_norm: 0.0,
                    noise_multiplier: 0.0,
                })
            }),
            "invalid privacy configuration: clip_norm must be positive"
        );
        assert_eq!(
            reject(|c| {
                c.faults = Some(FaultConfig {
                    dropout: 2.0,
                    ..Default::default()
                })
            }),
            "invalid fault configuration: dropout rate must be in [0,1], got 2"
        );
        assert_eq!(
            reject(|c| c.compression = Some(Compression::TopK { frac: 0.9 })),
            "invalid compression configuration: top-k fraction must be in (0, 0.5], got 0.9"
        );
        assert_eq!(
            reject(|c| c.train.local_epochs = 0),
            "invalid training configuration: local_epochs must be at least 1, got 0"
        );
    }

    #[test]
    fn experiment_builds_consistent_systems() {
        let exp = Experiment::new(quick_cfg());
        let s1 = exp.system_for_run(0);
        let s2 = exp.system_for_run(0);
        assert_eq!(s1.global.flatten(), s2.global.flatten());
        let s3 = exp.system_for_run(1);
        assert_ne!(s1.global.flatten(), s3.global.flatten());
        assert_eq!(s1.num_clients(), 3);
    }

    #[test]
    fn run_framework_aggregates_over_runs() {
        let exp = Experiment::new(quick_cfg());
        let res = fedavg(&exp);
        assert_eq!(res.final_auc().n, 2);
        assert_eq!(res.runs.len(), 2);
        assert_eq!(res.auc_mean_curve().len(), 2);
        assert!(res.uplink_units().mean > 0.0);
        assert!(res.uplink_bytes().mean > 0.0);
        assert_eq!(res.name, "FedAvg");
        assert_eq!(res.runs[0].curve.len(), res.eval_rounds().len());
    }

    /// A hand-made run: its AUC curve, final AUC and MRR, and one ledger
    /// round per uplink-unit count.
    fn hand_run(aucs: &[f64], final_auc: f64, mrr: f64, uplink: &[usize]) -> RunResult {
        let curve = aucs.iter().enumerate();
        let mut comm = fedda_fl::CommLog::default();
        for &units in uplink {
            comm.push(fedda_fl::RoundComm {
                active_clients: 1,
                uplink_units: units,
                uplink_scalars: 3 * units,
                uplink_bytes: 12 * units,
                ..Default::default()
            });
        }
        RunResult {
            curve: curve
                .map(|(t, &roc_auc)| fedda_fl::RoundEval {
                    round: 2 * t + 1,
                    roc_auc,
                    mrr: 0.0,
                })
                .collect(),
            comm,
            final_eval: EvalResult {
                roc_auc: final_auc,
                mrr,
            },
            ..Default::default()
        }
    }

    /// Each summary is its definition, folded over `runs` in run order.
    #[test]
    fn folds_match_their_definitions() {
        let runs = vec![
            hand_run(&[0.1, 0.5, 0.7], 0.7, 0.3, &[4, 2]),
            hand_run(&[0.3, 0.4, 0.9], 0.9, 0.5, &[4, 3, 1]),
            hand_run(&[0.2, 0.6, 0.8], 0.8, 0.4, &[]),
        ];
        let res = FrameworkResult {
            name: "hand".into(),
            runs: runs.clone(),
        };
        // Mean ± std of the final values.
        assert_eq!(res.final_auc(), MeanStd::of(&[0.7, 0.9, 0.8]));
        assert_eq!(res.final_auc().fmt_pm(), "0.8000 ± 0.1000");
        assert_eq!(res.final_mrr(), MeanStd::of(&[0.3, 0.5, 0.4]));
        assert_eq!(res.best_auc(), MeanStd::of(&[0.7, 0.9, 0.8]));
        // The curves, and min ≤ mean ≤ max at every position.
        assert_eq!(res.eval_rounds(), vec![1, 3, 5]);
        assert_eq!(res.auc_max_curve(), vec![0.3, 0.6, 0.9]);
        assert_eq!(res.auc_min_curve(), vec![0.1, 0.4, 0.7]);
        let mean = res.auc_mean_curve();
        for (t, want) in [0.2, 0.5, 0.8].into_iter().enumerate() {
            assert!((mean[t] - want).abs() < 1e-12, "{mean:?}");
            assert!(res.auc_min_curve()[t] <= mean[t] && mean[t] <= res.auc_max_curve()[t]);
        }
        // Each uplink total is its ledger's fold.
        let ledger = |of: fn(&fedda_fl::RoundComm) -> usize| {
            let per_run = runs
                .iter()
                .map(|r| r.comm.rounds().iter().map(of).sum::<usize>());
            MeanStd::of(&per_run.map(|v| v as f64).collect::<Vec<_>>())
        };
        assert_eq!(res.uplink_units(), ledger(|c| c.uplink_units));
        assert_eq!(res.uplink_units(), MeanStd::of(&[6.0, 8.0, 0.0]));
        assert_eq!(res.uplink_scalars(), ledger(|c| c.uplink_scalars));
        assert_eq!(res.uplink_bytes(), ledger(|c| c.uplink_bytes));
        // A `Local` run has no curve: its best is its final.
        let local = FrameworkResult {
            name: "Local".into(),
            runs: vec![hand_run(&[], 0.6, 0.2, &[]), hand_run(&[], 0.4, 0.1, &[])],
        };
        assert_eq!(local.best_auc(), local.final_auc());
        assert_eq!(local.final_auc(), MeanStd::of(&[0.6, 0.4]));
        assert!(local.auc_mean_curve().is_empty() && local.eval_rounds().is_empty());
        assert_eq!(local.uplink_bytes(), MeanStd::of(&[0.0, 0.0]));
    }

    #[test]
    fn run_framework_returns_the_engine_error_under_either_runtime() {
        use fedda_fl::AsyncConfig;
        let bad_protocol = Framework::FedAvg(FedAvg::with_fractions(0.0, 1.0));
        let err = Experiment::new(quick_cfg())
            .run_framework(&bad_protocol, None)
            .unwrap_err();
        assert!(err.contains("client_fraction"), "{err}");
        let exp = Experiment::new(ExperimentConfig {
            runtime: RuntimeMode::Async(AsyncConfig { k: 0, gamma: 0.9 }),
            ..quick_cfg()
        });
        assert_eq!(
            exp.run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)
                .unwrap_err(),
            "invalid async runtime configuration: async k must be at least 1"
        );
    }

    #[test]
    fn compression_shrinks_ledgered_bytes_but_not_units() {
        let uncompressed = fedavg(&Experiment::new(quick_cfg()));
        let q8 = fedavg(&Experiment::new(ExperimentConfig {
            compression: Some(Compression::QuantI8),
            ..quick_cfg()
        }));
        // Mask-then-compress: the unit/scalar fan-out is mask-driven and
        // unchanged, the byte charge drops 4× under i8.
        assert_eq!(q8.uplink_units(), uncompressed.uplink_units());
        assert_eq!(q8.uplink_scalars(), uncompressed.uplink_scalars());
        let (q8_bytes, raw_bytes) = (q8.uplink_bytes().mean, uncompressed.uplink_bytes().mean);
        assert!(
            (q8_bytes - raw_bytes / 4.0).abs() < 1e-9,
            "i8 bytes {q8_bytes} vs raw {raw_bytes}"
        );
    }

    #[test]
    fn sparse_eval_cadence_records_compact_curves() {
        let mut cfg = quick_cfg();
        cfg.rounds = 3;
        cfg.eval_every = 2;
        let exp = Experiment::new(cfg);
        let res = fedavg(&exp);
        // Rounds 1 and 2 are evaluated (cadence hit + final round), so the
        // curves hold two non-consecutive rounds as two sequential points,
        // and eval_rounds carries the true round behind each position.
        assert_eq!(res.runs.len(), 2);
        assert_eq!(res.auc_mean_curve().len(), 2);
        assert_eq!(res.final_auc().n, 2);
        assert_eq!(res.eval_rounds(), vec![1, 2]);
    }

    #[test]
    fn dense_cadence_has_consecutive_eval_rounds() {
        let exp = Experiment::new(quick_cfg());
        let res = fedavg(&exp);
        assert_eq!(res.eval_rounds(), vec![0, 1]);
    }

    #[test]
    fn local_framework_has_no_curves() {
        let exp = Experiment::new(quick_cfg());
        let res = run(&exp, Framework::Local);
        for run in &res.runs {
            assert!(run.curve.is_empty() && run.comm.rounds().is_empty());
            assert!(run.activation_trace.is_empty() && run.faults.is_empty());
            assert!(run.final_eval.roc_auc > 0.0 && run.final_eval.mrr > 0.0);
        }
        assert!(res.auc_mean_curve().is_empty());
        assert!(res.eval_rounds().is_empty());
        assert_eq!(res.final_auc().n, 2);
        assert_eq!(res.uplink_units().mean, 0.0);
    }

    #[test]
    fn framework_names_match_paper() {
        assert_eq!(Framework::Global.name(), "Global");
        assert_eq!(Framework::FedAvg(FedAvg::vanilla()).name(), "FedAvg");
        assert_eq!(
            Framework::FedDa(FedDa::restart()).name(),
            "FedDA 1 (Restart)"
        );
        assert_eq!(
            Framework::FedDa(FedDa::explore()).name(),
            "FedDA 2 (Explore)"
        );
        assert_eq!(
            Framework::FedAvg(FedAvg::with_fractions(0.8, 1.0)).name(),
            "FedAvg(C=0.80,D=1.00)"
        );
    }
}
