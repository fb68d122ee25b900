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
use fedda_hgn::{HgnConfig, TrainConfig};
use fedda_metrics::{CurveRecorder, MeanStd};
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
/// framework grid point, repeated over several runs).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Dataset preset.
    pub dataset: Dataset,
    /// Size multiplier passed to the generator (1.0 = paper scale).
    pub scale: f64,
    /// Number of clients `M`.
    pub num_clients: usize,
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Independent repetitions (the paper uses 5).
    pub runs: usize,
    /// IID partition instead of the paper's non-IID protocol.
    pub iid: bool,
    /// Model architecture.
    pub model: HgnConfig,
    /// Local-training hyper-parameters.
    pub train: TrainConfig,
    /// Negatives per positive at evaluation time.
    pub eval_negatives: usize,
    /// Evaluate every `eval_every` rounds (`FlConfig::eval_every`; the
    /// final round is always evaluated).
    pub eval_every: usize,
    /// Base seed; run `r` derives its own sub-seeds.
    pub seed: u64,
    /// Parallel client updates.
    pub parallel: bool,
    /// Worker-pool size for parallel client updates (`FlConfig::workers`;
    /// `None` = the kernel-thread budget, `FEDDA_THREADS`). Results are
    /// identical for any value — this is a resource knob, not a semantic
    /// one.
    pub workers: Option<usize>,
    /// Which runtime executes the round protocol: lockstep rounds or
    /// buffered-asynchronous aggregation (handed to [`fedda_fl::run`]).
    pub runtime: RuntimeMode,
    /// Aggregation weighting (Eq. 5's `p_i`; the paper uses uniform).
    pub weighting: AggWeighting,
    /// Optional client-side differential privacy (clip + Gaussian noise).
    pub privacy: Option<PrivacyConfig>,
    /// Optional deterministic fault injection (dropout / stragglers /
    /// update corruption), applied identically to every framework under
    /// comparison.
    pub faults: Option<FaultConfig>,
    /// Optional uplink compression codec (`FlConfig::compression`),
    /// applied identically to every framework under comparison.
    pub compression: Option<Compression>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            dataset: Dataset::DblpLike,
            scale: 0.004,
            num_clients: 8,
            rounds: 40,
            runs: 5,
            iid: false,
            model: HgnConfig::default(),
            train: TrainConfig {
                local_epochs: 2,
                lr: 5e-3,
                ..Default::default()
            },
            eval_negatives: 5,
            eval_every: 1,
            seed: 0,
            parallel: true,
            workers: None,
            runtime: RuntimeMode::Sync,
            weighting: AggWeighting::Uniform,
            privacy: None,
            faults: None,
            compression: None,
        }
    }
}

impl ExperimentConfig {
    /// Reject grid sizes no run can be built from, before any data is
    /// generated: at least one client, round and run, and a finite,
    /// positive scale.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("clients must be at least 1, got 0".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be at least 1, got 0".into());
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
        if self.eval_negatives == 0 {
            return Err(
                "invalid evaluation configuration: eval_negatives must be at least 1, got 0".into(),
            );
        }
        Ok(())
    }
}

/// A framework under comparison.
#[derive(Clone, Debug)]
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
            Framework::FedDyn(f) => Some(Box::new(f.protocol())),
            Framework::FedAdam(f) => Some(Box::new(f.protocol())),
            Framework::FedDa(f) => Some(Box::new(f.protocol())),
        }
    }
}

/// Aggregated outcome of running one framework `runs` times.
#[derive(Clone, Debug)]
pub struct FrameworkResult {
    /// Framework display name.
    pub name: String,
    /// Final-round ROC-AUC over runs.
    pub final_auc: MeanStd,
    /// Final-round MRR over runs.
    pub final_mrr: MeanStd,
    /// Best-along-training ROC-AUC over runs.
    pub best_auc: MeanStd,
    /// Total uplink parameter units over runs (Table 3's measure).
    pub uplink_units: MeanStd,
    /// Total uplink encoded scalars over runs (post-mask,
    /// post-compression entry count; equals the masked scalar count for
    /// dense codecs, the kept count for top-k).
    pub uplink_scalars: MeanStd,
    /// Total uplink payload bytes over runs — post-mask, post-compression;
    /// the AUC-vs-bytes frontier's x axis.
    pub uplink_bytes: MeanStd,
    /// Per-evaluation-point AUC curves across runs (empty for `Local`).
    /// One point per evaluated round; dense when `eval_every == 1`.
    pub auc_curves: CurveRecorder,
    /// Per-evaluation-point MRR curves across runs (empty for `Local`).
    pub mrr_curves: CurveRecorder,
    /// The true (0-based) round index behind each curve position — the
    /// evaluation cadence is shared by every run, so one vector labels
    /// all curves. Non-consecutive when `eval_every > 1`; empty for
    /// `Local`.
    pub eval_rounds: Vec<usize>,
    /// Each run's full engine result, in run order — what every field
    /// above summarises. Empty for `Local`, which has no rounds.
    pub runs: Vec<RunResult>,
}

impl FrameworkResult {
    /// Summarise a framework's runs: the engine results of a round protocol,
    /// or `local` — the `Local` baseline's per-run `(AUC, MRR)`, each the
    /// mean over its clients; it has no curve and moves no bytes. Exactly
    /// one of the two is non-empty.
    fn new(name: String, runs: Vec<RunResult>, local: &[(f64, f64)]) -> Self {
        let over = |of_run: fn(&RunResult) -> f64, of_local: fn(&(f64, f64)) -> f64| {
            let per_run = runs.iter().map(of_run).chain(local.iter().map(of_local));
            MeanStd::of(&per_run.collect::<Vec<_>>())
        };
        let mut auc_curves = CurveRecorder::new();
        let mut mrr_curves = CurveRecorder::new();
        for (run, result) in runs.iter().enumerate() {
            // Record by evaluation-point position, not round number: with a
            // sparse `eval_every` cadence the evaluated rounds are not
            // consecutive.
            for (t, eval) in result.curve.iter().enumerate() {
                auc_curves.record(run, t, eval.roc_auc);
                mrr_curves.record(run, t, eval.mrr);
            }
        }
        Self {
            name,
            final_auc: over(|r| r.final_eval.roc_auc, |l| l.0),
            final_mrr: over(|r| r.final_eval.mrr, |l| l.1),
            best_auc: over(RunResult::best_auc, |l| l.0),
            uplink_units: over(|r| r.comm.total_uplink_units() as f64, |_| 0.0),
            uplink_scalars: over(|r| r.comm.total_uplink_scalars() as f64, |_| 0.0),
            uplink_bytes: over(|r| r.comm.total_uplink_bytes() as f64, |_| 0.0),
            auc_curves,
            mrr_curves,
            // The cadence is config-driven and identical across runs.
            eval_rounds: runs
                .first()
                .map_or_else(Vec::new, |r| r.curve.iter().map(|e| e.round).collect()),
            runs,
        }
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
            ..Default::default()
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
    /// `seed`; shared global split) — the one place an [`ExperimentConfig`]
    /// becomes an `FlConfig`.
    pub fn system_with(&self, clients: Vec<ClientData>, seed: u64) -> FlSystem {
        let fl_cfg = FlConfig {
            rounds: self.cfg.rounds,
            model: self.cfg.model.clone(),
            train: self.cfg.train.clone(),
            eval_negatives: self.cfg.eval_negatives,
            eval_every: self.cfg.eval_every,
            seed,
            parallel: self.cfg.parallel,
            workers: self.cfg.workers,
            privacy: self.cfg.privacy,
            weighting: self.cfg.weighting,
            faults: self.cfg.faults.clone(),
            compression: self.cfg.compression,
        };
        FlSystem::new(&self.split.train, &self.split.test, clients, fl_cfg)
    }

    /// The federation of run `r`: its own partition and model init.
    pub fn system_for_run(&self, run: usize) -> FlSystem {
        self.system_with(self.clients_for_run(run), self.run_seed(run))
    }

    /// Run one framework across all configured runs under the configured
    /// runtime and summarise, streaming every round of every run to `sink`
    /// when one is given (`Local` has no rounds and emits nothing). An
    /// invalid protocol, runtime, fault, codec or privacy configuration
    /// comes back as the engine's error, before any round runs.
    pub fn run_framework(
        &self,
        framework: &Framework,
        mut sink: Option<&mut dyn EventSink>,
    ) -> Result<FrameworkResult, String> {
        let mut runs = Vec::with_capacity(self.cfg.runs);
        let mut local = Vec::new();
        for run in 0..self.cfg.runs {
            let mut system = self.system_for_run(run);
            match framework.protocol() {
                None => {
                    let scores = baselines::run_local_only(&system);
                    local.push((scores.auc_summary().mean, scores.mrr_summary().mean));
                }
                Some(mut protocol) => runs.push(fedda_fl::run(
                    &self.cfg.runtime,
                    protocol.as_mut(),
                    &mut system,
                    sink.as_deref_mut(),
                )?),
            }
        }
        Ok(FrameworkResult::new(framework.name(), runs, &local))
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
            parallel: true,
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
            reject(|c| c.scale = 0.0),
            "scale must be finite and positive, got 0"
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
        assert_eq!(res.final_auc.n, 2);
        assert_eq!(res.auc_curves.num_runs(), 2);
        assert_eq!(res.auc_curves.num_rounds(), 2);
        assert!(res.uplink_units.mean > 0.0);
        assert!(res.uplink_bytes.mean > 0.0);
        assert_eq!(res.name, "FedAvg");
        // Every run's full result is kept, and the summary is a fold over them.
        assert_eq!(res.runs.len(), 2);
        let units: Vec<f64> = res
            .runs
            .iter()
            .map(|r| r.comm.total_uplink_units() as f64)
            .collect();
        assert_eq!(res.uplink_units, MeanStd::of(&units));
        assert_eq!(res.runs[0].curve.len(), res.eval_rounds.len());
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
        assert_eq!(q8.uplink_units.mean, uncompressed.uplink_units.mean);
        assert_eq!(q8.uplink_scalars.mean, uncompressed.uplink_scalars.mean);
        assert!(
            (q8.uplink_bytes.mean - uncompressed.uplink_bytes.mean / 4.0).abs() < 1e-9,
            "i8 bytes {} vs raw {}",
            q8.uplink_bytes.mean,
            uncompressed.uplink_bytes.mean
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
        // recorder holds two non-consecutive rounds as two sequential points,
        // and eval_rounds carries the true round behind each position.
        assert_eq!(res.auc_curves.num_runs(), 2);
        assert_eq!(res.auc_curves.num_rounds(), 2);
        assert_eq!(res.final_auc.n, 2);
        assert_eq!(res.eval_rounds, vec![1, 2]);
    }

    #[test]
    fn dense_cadence_has_consecutive_eval_rounds() {
        let exp = Experiment::new(quick_cfg());
        let res = fedavg(&exp);
        assert_eq!(res.eval_rounds, vec![0, 1]);
    }

    #[test]
    fn local_framework_has_no_curves() {
        let exp = Experiment::new(quick_cfg());
        let res = run(&exp, Framework::Local);
        assert!(res.runs.is_empty(), "Local has no engine runs to keep");
        assert_eq!(res.auc_curves.num_runs(), 0);
        assert!(res.eval_rounds.is_empty());
        assert_eq!(res.final_auc.n, 2);
        assert_eq!(res.uplink_units.mean, 0.0);
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
