//! The simulated federated system: a server-side global model, `M` clients
//! holding sub-heterographs, and the primitives every protocol (FedAvg,
//! FedDA, ablations) is built from — broadcast, parallel local update,
//! masked aggregation (Eq. 6) and global evaluation.

use crate::comm::{CommLog, RoundComm};
use crate::compress::{Compressed, Compression, Compressor, Delta, UplinkCharge};
use crate::faults::{corrupt_return, Corruption, FaultConfig, FaultObserved};
use crate::protocol::LocalPenalty;
use fedda_data::ClientData;
use fedda_hetgraph::{EdgeIndex, EdgeTypeId, HeteroGraph, LinkExample, LinkSampler};
use fedda_hgn::{
    evaluate, train_local_penalized, EvalResult, GraphView, HgnConfig, LinkPredictor, SimpleHgn,
    TrainConfig,
};
use fedda_tensor::{ParamId, ParamSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// XOR tweak (with `round · 31`) deriving each global evaluation's RNG from
/// `FlConfig::seed`, so evaluation draws are the same for every framework
/// sharing a seed and independent of every protocol stream.
pub const EVAL_STREAM_TWEAK: u64 = 0xEAE5;

/// Per-round multiplier spreading a client's seed over its local rounds
/// (not a stream tweak: it scales the round index, it is not XORed alone).
const CLIENT_ROUND_STRIDE: u64 = 0x9E37_79B9;

/// Client-side update privacy: clip-and-noise in the style of DP-FedAvg
/// (the paper's conclusion flags privacy on top of FedDA as future work —
/// this implements the standard mechanism so that direction is exercised).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyConfig {
    /// L2 clip bound `C` on the whole returned update `θ_i - θ`.
    pub clip_norm: f32,
    /// Gaussian noise multiplier `σ`: each returned scalar gets
    /// `N(0, (σ·C)²)` noise added after clipping.
    pub noise_multiplier: f32,
}

impl PrivacyConfig {
    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.clip_norm <= 0.0 {
            return Err("clip_norm must be positive".into());
        }
        if self.noise_multiplier < 0.0 {
            return Err("noise_multiplier must be non-negative".into());
        }
        Ok(())
    }
}

/// How the server weights client contributions when averaging (Eq. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AggWeighting {
    /// `p_i = 1/|contributors|` — the paper's choice (§5.1.2: the server
    /// has no prior knowledge of local data sizes).
    #[default]
    Uniform,
    /// `p_i ∝` the client's local positive-edge count (classic FedAvg
    /// weighting; requires the server to learn the sizes).
    BySampleCount,
}

/// Configuration shared by every federated run.
#[derive(Clone, Debug)]
pub struct FlConfig {
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Model architecture (identical on server and clients).
    pub model: HgnConfig,
    /// Local-update hyper-parameters (Algorithm 1's `B`, `E`, learning
    /// rate).
    pub train: TrainConfig,
    /// Negatives per positive for evaluation metrics.
    pub eval_negatives: usize,
    /// Evaluate the global model every `eval_every` rounds (the final
    /// round is always evaluated; `1` evaluates every round, which is also
    /// what a `0` is clamped to). Evaluation dominates wall-time on large
    /// federations, so sparse cadences make long runs cheap; the curve in
    /// [`RunResult`] then only holds the evaluated rounds.
    pub eval_every: usize,
    /// Run seed: drives model init, client sampling and evaluation.
    pub seed: u64,
    /// Run client updates on scoped worker threads.
    pub parallel: bool,
    /// Worker-pool size for parallel client updates; `None` is the
    /// kernel-thread budget (`FEDDA_THREADS`, else the machine's available
    /// parallelism), so one number bounds both parallelism layers, and
    /// `Some(n)` sets the pool's size on its own. Never more workers than
    /// tasks. Ignored when `parallel` is `false`. Results are worker-count
    /// independent: client training is a pure function of (client seed,
    /// round, broadcast parameters) and the pool returns results in
    /// dispatch order.
    pub workers: Option<usize>,
    /// Optional clip-and-noise on returned updates.
    pub privacy: Option<PrivacyConfig>,
    /// Aggregation weighting (Eq. 5's `p_i`).
    pub weighting: AggWeighting,
    /// Optional deterministic fault injection (dropout / stragglers /
    /// corruption); `None` leaves every seeded run bit-identical to a
    /// fault-free driver.
    pub faults: Option<FaultConfig>,
    /// Optional uplink compression (mask-then-compress on the worker at
    /// dispatch, decompress at server arrival, ledger charged at compressed
    /// size);
    /// `None` keeps the pre-compression code path bit for bit.
    pub compression: Option<Compression>,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            rounds: 40,
            model: HgnConfig::default(),
            train: TrainConfig::default(),
            eval_negatives: 5,
            eval_every: 1,
            seed: 0,
            parallel: true,
            workers: None,
            privacy: None,
            weighting: AggWeighting::Uniform,
            faults: None,
            compression: None,
        }
    }
}

/// One client's immutable state inside the simulator: a handle on its
/// *shard* — the local data and everything set-up derives from it — plus
/// the one thing that is the client's own, its seed. Clients registered
/// with equal [`ClientData`] hold the same shard (see
/// [`FlSystem::with_model`]), so a federation's memory follows its distinct
/// data, not its registrations. A clone is another handle on the same shard.
#[derive(Clone)]
pub struct Client {
    /// The client's local data (graph + specialised edge types); one
    /// allocation per shard.
    pub data: Arc<ClientData>,
    /// Precomputed message-passing view of the local graph, built once per
    /// shard.
    pub view: Arc<GraphView>,
    /// Training positives: edges of the specialised types only (§6.1 — a
    /// biased client's downstream task covers only what it specialises in).
    /// Built once per shard.
    pub positives: Arc<Vec<LinkExample>>,
    /// Negative-rejection index of `data.graph`, built once per shard at
    /// set-up (a clone shares the index's storage).
    edge_index: EdgeIndex,
    /// Derived from the run seed and the client's index, never from its
    /// shard: replicas of one shard train on different RNG streams.
    seed: u64,
}

impl Client {
    /// A link sampler over the client's local graph, sharing the index
    /// built at set-up (nothing is re-indexed per round).
    pub(crate) fn sampler(&self) -> LinkSampler<'_> {
        LinkSampler::with_index(&self.data.graph, self.edge_index.clone())
    }

    /// Client `seed` of a new shard: the view, the index and the positives
    /// are built here, once for every client that will hold `data`.
    fn first_of_shard(data: ClientData, seed: u64, self_loops: bool) -> Self {
        let view = GraphView::new(&data.graph, self_loops);
        let edge_index = EdgeIndex::new(&data.graph);
        let positives = LinkSampler::with_index(&data.graph, edge_index.clone())
            .positives_of_types(&data.specialized);
        Self {
            data: Arc::new(data),
            view: Arc::new(view),
            positives: Arc::new(positives),
            edge_index,
            seed,
        }
    }
}

/// What a client sends back after a local round.
pub struct ClientReturn {
    /// Client index.
    pub client: usize,
    /// Locally-updated parameters.
    pub params: ParamSet,
    /// Per-unit L2 distance between the updated and broadcast parameters —
    /// the "returned gradient" magnitude FedDA scores contributions with.
    pub unit_delta: Vec<f32>,
}

/// What dispatch asks of one reporting client beyond local training.
pub(crate) struct ReportOrder<'a> {
    /// Corruption the fault plan injects into this report.
    pub corruption: Option<Corruption>,
    /// The unit mask to encode the report under; `None` when the report
    /// travels uncompressed or the run ends before it would arrive.
    pub encode: Option<&'a [bool]>,
}

/// One contribution to a weighted masked aggregation: a client's return,
/// its unit mask, and a scale multiplied into the client's base weight
/// (`1.0` for a fresh report; the [`StalenessPolicy::Discount`]
/// multiplier for a stale one).
///
/// [`StalenessPolicy::Discount`]: crate::faults::StalenessPolicy::Discount
pub struct WeightedReturn<'a> {
    /// The client's returned parameters and deltas.
    pub ret: &'a ClientReturn,
    /// One bool per unit: which units this client contributes.
    pub mask: &'a [bool],
    /// Multiplier on the client's base aggregation weight.
    pub scale: f64,
}

/// Per-round evaluation snapshot of the global model.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundEval {
    /// Round index (0-based).
    pub round: usize,
    /// Global-test ROC-AUC.
    pub roc_auc: f64,
    /// Global-test MRR.
    pub mrr: f64,
}

/// Per-round snapshot of FedDA's activation state (empty for protocols
/// without dynamic activation).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ActivationSnapshot {
    /// Clients active at the start of the round.
    pub active_clients: Vec<usize>,
    /// Mean fraction of parameter units requested per active client.
    pub mask_density: f64,
    /// Clients deactivated during the round.
    pub deactivated: Vec<usize>,
    /// Clients reactivated during the round (Restart counts everyone it
    /// brings back, as does the empty-active-set safety net).
    pub reactivated: Vec<usize>,
    /// Whether a full reset fired this round — either the `Restart`
    /// strategy's threshold, or the empty-active-set safety net (which
    /// restores everyone regardless of strategy).
    pub restarted: bool,
}

/// Result of one full federated run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Per-round global evaluation.
    pub curve: Vec<RoundEval>,
    /// Communication log.
    pub comm: CommLog,
    /// Final-round evaluation.
    pub final_eval: EvalResult,
    /// FedDA's per-round activation trace (empty for FedAvg/baselines).
    pub activation_trace: Vec<ActivationSnapshot>,
    /// Every fault and staleness record the engine observed, in round
    /// order: what the fault plan injected (`FlConfig::faults`), stale
    /// arrivals (K-buffering makes them with no fault plan too), and every
    /// report the server guard rejected — a non-finite one is rejected in
    /// every configuration.
    pub faults: Vec<FaultObserved>,
}

impl RunResult {
    /// Best test AUC along the run.
    pub fn best_auc(&self) -> f64 {
        self.curve
            .iter()
            .map(|e| e.roc_auc)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// First round whose AUC reaches `threshold`. Returns the round index
    /// (not the curve position — the curve is sparse when
    /// `FlConfig::eval_every > 1`).
    pub fn rounds_to_auc(&self, threshold: f64) -> Option<usize> {
        self.curve
            .iter()
            .find(|e| e.roc_auc >= threshold)
            .map(|e| e.round)
    }
}

/// The simulated federation.
pub struct FlSystem {
    /// The shared model architecture (Simple-HGN by default; any
    /// [`LinkPredictor`] via [`FlSystem::with_model`]).
    pub model: Box<dyn LinkPredictor>,
    /// Server-side global parameters.
    pub global: ParamSet,
    /// Clients.
    pub clients: Vec<Client>,
    num_shards: usize,
    cfg: FlConfig,
    eval_graph: HeteroGraph,
    eval_index: EdgeIndex,
    eval_view: GraphView,
    test_positives: Vec<LinkExample>,
}

impl FlSystem {
    /// Assemble a federation.
    ///
    /// * `global_train` — the training split of the global graph; used for
    ///   evaluation-time message passing (the simulator's, not the
    ///   server's, knowledge).
    /// * `global_test` — held-out edges evaluated each round.
    /// * `clients` — output of the partitioner.
    pub fn new(
        global_train: &HeteroGraph,
        global_test: &HeteroGraph,
        clients: Vec<ClientData>,
        cfg: FlConfig,
    ) -> Self {
        assert!(!clients.is_empty(), "FlSystem needs at least one client");
        assert!(cfg.rounds > 0, "FlSystem needs at least one round");
        let mut init_rng = StdRng::seed_from_u64(cfg.seed);
        let (model, global) =
            SimpleHgn::init_params(global_train.schema(), &cfg.model, &mut init_rng);
        Self::with_model(
            global_train,
            global_test,
            clients,
            cfg,
            Box::new(model),
            global,
        )
    }

    /// Assemble a federation around an arbitrary [`LinkPredictor`] and its
    /// freshly-initialised parameters — the seam that lets FedDA drive any
    /// HGN (the paper's §6.1 claim; see `TypedProjection` in
    /// `tests/integration_fedda_vs_fedavg.rs`).
    ///
    /// Clients whose [`ClientData`] compare equal — the same node universe,
    /// the same specialisation, the same per-type edge lists — share one
    /// immutable shard: the data itself, its message-passing view, its
    /// negative-rejection index and its training positives are built for the
    /// first such client and handed to the rest by `Arc`
    /// ([`FlSystem::num_shards`] counts them). Each client keeps its own
    /// seed, so sharing moves no RNG stream and no result bit.
    pub fn with_model(
        global_train: &HeteroGraph,
        global_test: &HeteroGraph,
        registered: Vec<ClientData>,
        cfg: FlConfig,
        model: Box<dyn LinkPredictor>,
        global: ParamSet,
    ) -> Self {
        assert!(!registered.is_empty(), "FlSystem needs at least one client");
        assert!(cfg.rounds > 0, "FlSystem needs at least one round");
        let client_seeds = fedda_data::client_seeds(cfg.seed, registered.len());
        let self_loops = model.uses_self_loops();
        // Shards found so far, as the index of each one's first client,
        // bucketed by what is cheap to read: an all-distinct federation pays
        // one map probe per client and compares edge lists only where the
        // specialisation and every edge count agree.
        let mut firsts: BTreeMap<(Vec<EdgeTypeId>, Vec<usize>), Vec<usize>> = BTreeMap::new();
        let mut num_shards = 0;
        let mut clients: Vec<Client> = Vec::with_capacity(registered.len());
        for (data, seed) in registered.into_iter().zip(client_seeds) {
            let key = (data.specialized.clone(), data.graph.edge_counts());
            let bucket = firsts.entry(key).or_default();
            let client = match bucket.iter().find(|&&first| *clients[first].data == data) {
                Some(&first) => Client {
                    seed,
                    ..clients[first].clone()
                },
                None => {
                    bucket.push(clients.len());
                    num_shards += 1;
                    Client::first_of_shard(data, seed, self_loops)
                }
            };
            clients.push(client);
        }
        let eval_view = GraphView::new(global_train, self_loops);
        let test_sampler = LinkSampler::new(global_test);
        let test_positives = test_sampler.all_positives();
        Self {
            model,
            global,
            clients,
            num_shards,
            cfg,
            eval_index: EdgeIndex::new(global_train),
            eval_graph: global_train.clone(),
            eval_view,
            test_positives,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &FlConfig {
        &self.cfg
    }

    /// Enable or disable fault injection on an assembled federation.
    ///
    /// Faults are read by the driver at the start of each run, so this can
    /// flip between a clean and a chaotic run of the *same* system —
    /// nothing else in the configuration or the seeded state changes.
    pub fn set_faults(&mut self, faults: Option<FaultConfig>) {
        self.cfg.faults = faults;
    }

    /// Enable or disable uplink compression on an assembled federation.
    ///
    /// Like [`FlSystem::set_faults`], the codec is read by the driver at
    /// the start of each run: the same seeded system can run uncompressed
    /// and compressed back to back with nothing else changing — the basis
    /// of the `Identity` bit-identity pins.
    pub fn set_compression(&mut self, compression: Option<Compression>) {
        self.cfg.compression = compression;
    }

    /// Replace the local-training hyper-parameters on an assembled
    /// federation. Client-objective penalties
    /// ([`FlProtocol::local_regularizer`](crate::FlProtocol::local_regularizer))
    /// only bite from the second local gradient step — the first step
    /// starts exactly at the broadcast anchor, where the proximal gradient
    /// vanishes — so studies of FedProx-style protocols want more than one
    /// local epoch/batch per round.
    pub fn set_train(&mut self, train: TrainConfig) {
        self.cfg.train = train;
    }

    /// The global training graph (evaluation-time message passing; also
    /// what the `Global` baseline trains on).
    pub fn eval_graph(&self) -> &HeteroGraph {
        &self.eval_graph
    }

    /// Negative-rejection index of [`FlSystem::eval_graph`], built once at
    /// set-up and shared by every evaluation.
    pub(crate) fn eval_index(&self) -> &EdgeIndex {
        &self.eval_index
    }

    /// What every global evaluation starts from: the per-round RNG
    /// (deterministic, so frameworks sharing a seed are comparable) and a
    /// sampler over the evaluation graph.
    fn eval_inputs(&self, round: usize) -> (StdRng, LinkSampler<'_>) {
        let rng = StdRng::seed_from_u64(
            self.cfg.seed ^ EVAL_STREAM_TWEAK ^ (round as u64).wrapping_mul(31),
        );
        let sampler = LinkSampler::with_index(&self.eval_graph, self.eval_index.clone());
        (rng, sampler)
    }

    /// Number of clients `M`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of distinct shards the clients hold: `M` when every client
    /// registered its own data, the number of distinct [`ClientData`] when
    /// some were replicas. Set-up time and the federation's resident memory
    /// scale with this count, not with [`FlSystem::num_clients`].
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of parameter units `N`.
    pub fn num_units(&self) -> usize {
        self.global.len()
    }

    /// Number of disentangled units `N_d`.
    pub fn num_disentangled_units(&self) -> usize {
        self.global.num_disentangled()
    }

    /// Ids of the disentangled units.
    pub fn disentangled_ids(&self) -> Vec<ParamId> {
        let global = &self.global;
        global
            .ids()
            .filter(|&id| global.meta(id).disentangled)
            .collect()
    }

    /// Scalars per unit (for comm accounting).
    pub fn unit_sizes(&self) -> Vec<usize> {
        self.global.iter().map(|(_, p)| p.len()).collect()
    }

    /// Run local updates on the given clients, starting from the current
    /// global model. Clients run on a [`WorkerPool`] when configured
    /// (`FlConfig::parallel` / `FlConfig::workers`).
    ///
    /// `penalties[j]` (if any) is applied to `active[j]`'s local objective
    /// at every gradient step, anchored at the current broadcast
    /// (`self.global`). An empty slice or all-`None` entries train the plain
    /// objective — no extra RNG draws, no extra float operations.
    ///
    /// # Thread nesting
    ///
    /// Two layers can spawn threads here: the pool's per-client workers,
    /// and the blocked matmul kernels (`fedda_tensor::gemm`) inside each
    /// client's training loop. Letting both fan out would oversubscribe the
    /// machine `clients × kernel-threads` ways, so a multi-worker pool caps
    /// each worker's kernel threads at 1 via
    /// [`fedda_tensor::gemm::with_kernel_threads`] — parallelism comes from
    /// clients, matmuls stay single-threaded. A single-worker pool runs
    /// inline and the kernels keep the full `FEDDA_THREADS` budget instead.
    ///
    /// [`WorkerPool`]: crate::runtime::WorkerPool
    pub fn run_local_round_with(
        &self,
        active: &[usize],
        round: usize,
        penalties: &[Option<LocalPenalty>],
    ) -> Vec<ClientReturn> {
        let (reports, _) = self.run_reports(active, round, penalties, &[], None, None);
        reports.into_iter().map(|(ret, _)| ret).collect()
    }

    /// The engine's form of [`FlSystem::run_local_round_with`]: everything
    /// that is per-report and pure runs inside the client's pool task, on
    /// the worker that trained it and while its parameters are cache-hot —
    /// local training, then the fault plan's corruption (`orders[j]`), then
    /// mask-then-compress under `compressor` for the reports `orders[j]`
    /// asks to encode. Corruption is injected first, so a corrupted report
    /// flows *through* the codec and the server guard judges the
    /// decompressed bytes. An empty `orders` slice trains only.
    ///
    /// A report that comes back encoded carries no `unit_delta`:
    /// [`decode_arrival`](crate::compress::decode_arrival) computes it from
    /// the decompressed parameters before anything reads it.
    ///
    /// `evaluate` names a round whose [`FlSystem::evaluate_global`] is due:
    /// it runs as one more task of the same pool call — it reads the
    /// `self.global` the client tasks clone from and its own RNG stream —
    /// and its result comes back beside the reports.
    pub(crate) fn run_reports(
        &self,
        active: &[usize],
        round: usize,
        penalties: &[Option<LocalPenalty>],
        orders: &[ReportOrder<'_>],
        compressor: Option<&(dyn Compressor + Send + Sync)>,
        evaluate: Option<usize>,
    ) -> (Vec<(ClientReturn, Option<Compressed>)>, Option<EvalResult>) {
        assert!(
            penalties.is_empty() || penalties.len() == active.len(),
            "one penalty slot per active client (or none at all)"
        );
        assert!(
            orders.is_empty() || orders.len() == active.len(),
            "one report order per active client (or none at all)"
        );
        /// One pure task of the pool call.
        enum Task {
            /// The local update and report of `active[pos]`.
            Report(usize),
            /// The global evaluation of a round.
            Evaluate(usize),
        }
        enum Done {
            Report(usize, (ClientReturn, Option<Compressed>)),
            Evaluated(EvalResult),
        }
        // Largest first: the pool pulls tasks in slice order, and a round
        // ends when its slowest task does, so that task must not be the
        // last to start. Local training re-encodes the client's whole
        // graph once per batch of positives, hence the cost estimate; an
        // evaluation is one more encode, over the evaluation view, priced
        // at the positives one of a client's encodes stands for. The sort
        // is stable and reads nothing but the tasks' own inputs, and
        // results go back by position below: dispatch order is invisible.
        let train = &self.cfg.train;
        let examples_per_positive = (1 + train.negatives_per_positive) * train.local_epochs;
        let positives_per_encode = (train.batch_size / examples_per_positive.max(1)).max(1);
        let cost = |task: &Task| match *task {
            Task::Report(pos) => {
                let client = &self.clients[active[pos]];
                client.positives.len() * client.view.num_messages()
            }
            Task::Evaluate(_) => positives_per_encode * self.eval_view.num_messages(),
        };
        let mut tasks: Vec<Task> = (0..active.len()).map(Task::Report).collect();
        tasks.extend(evaluate.map(Task::Evaluate));
        tasks.sort_by_key(|task| std::cmp::Reverse(cost(task)));
        let run_report = |pos: usize| -> (ClientReturn, Option<Compressed>) {
            let i = active[pos];
            let client = &self.clients[i];
            let mut params = self.global.clone();
            let mut rng = StdRng::seed_from_u64(
                client.seed ^ (round as u64).wrapping_mul(CLIENT_ROUND_STRIDE),
            );
            let sampler = client.sampler();
            let penalty = penalties
                .get(pos)
                .and_then(|p| p.as_ref())
                .map(|p| fedda_hgn::Penalty {
                    prox_mu: p.prox_mu,
                    reference: &self.global,
                    linear: p.linear.as_deref(),
                });
            train_local_penalized(
                self.model.as_ref(),
                &mut params,
                &client.view,
                &sampler,
                &client.positives,
                &self.cfg.train,
                penalty.as_ref(),
                &mut rng,
            );
            if let Some(privacy) = self.cfg.privacy {
                apply_privacy(&mut params, &self.global, privacy, &mut rng);
            }
            let order = orders.get(pos);
            let encode = compressor.zip(order.and_then(|o| o.encode));
            let unit_delta = match encode {
                Some(_) => Vec::new(),
                None => params.unit_l2_distances(&self.global),
            };
            let mut ret = ClientReturn {
                client: i,
                params,
                unit_delta,
            };
            if let Some(kind) = order.and_then(|o| o.corruption) {
                corrupt_return(&mut ret, &self.global, kind);
            }
            let report = encode.map(|(codec, mask)| {
                codec.compress(&Delta {
                    updated: &ret.params,
                    reference: &self.global,
                    mask,
                })
            });
            (ret, report)
        };
        let work = |task: &Task| match *task {
            Task::Report(pos) => Done::Report(pos, run_report(pos)),
            Task::Evaluate(round) => Done::Evaluated(self.evaluate_global(round)),
        };
        let mut placed = Vec::with_capacity(active.len());
        let mut evaluated = None;
        for done in crate::runtime::WorkerPool::new(self.workers()).run_ordered(&tasks, work) {
            match done {
                Done::Report(pos, report) => placed.push((pos, report)),
                Done::Evaluated(eval) => evaluated = Some(eval),
            }
        }
        placed.sort_unstable_by_key(|&(pos, _)| pos);
        let reports = placed.into_iter().map(|(_, report)| report).collect();
        (reports, evaluated)
    }

    /// Worker-pool size of this run; the pool itself never runs more workers
    /// than it has tasks.
    fn workers(&self) -> usize {
        match (self.cfg.parallel, self.cfg.workers) {
            (false, _) => 1,
            (true, Some(workers)) => workers,
            (true, None) => fedda_tensor::gemm::configured_threads(),
        }
    }

    /// [`FlSystem::evaluate_global`] for the one evaluation no pool call
    /// carries: the final round's. A multi-worker run still computes it on a
    /// worker thread, not on the server thread. The C allocator keeps a heap
    /// per thread and hands an exited worker's to the next one: the workers'
    /// heaps have held an evaluation tape and kept its pages, the server
    /// thread's never has, and growing it by one tape when the run is all
    /// but over would set the process's peak memory (`dblp_fedda`: 36 MB
    /// against 28 MB). The result is the same bits on any thread.
    pub(crate) fn evaluate_final(&self, round: usize) -> EvalResult {
        if self.workers() < 2 {
            return self.evaluate_global(round);
        }
        std::thread::scope(|s| {
            s.spawn(|| self.evaluate_global(round))
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// Masked federated averaging (Eq. 6): for every unit `k`,
    /// `θ^{t+1}[k]` is the weighted mean of `θ_i[k]` over the contributions
    /// whose mask holds `k`; units no one contributed keep their previous
    /// value.
    ///
    /// Each contribution's base weight (Eq. 5's `p_i`) is multiplied by its
    /// `scale` before the per-unit normalisation, so staleness discounts
    /// compose with the weighting scheme and dropped clients are simply
    /// absent — the division by each unit's surviving weight sum is exactly
    /// the Eq. 6 renormalisation over survivors.
    pub fn aggregate_weighted(&mut self, contributions: &[WeightedReturn<'_>]) {
        let n = self.num_units();
        let weights: Vec<f64> = contributions
            .iter()
            .map(|c| {
                let base = match self.cfg.weighting {
                    AggWeighting::Uniform => 1.0,
                    AggWeighting::BySampleCount => {
                        self.clients[c.ret.client].positives.len().max(1) as f64
                    }
                };
                base * c.scale
            })
            .collect();
        let mut weight_sums = vec![0.0f64; n];
        // Accumulate into one f64 buffer laid out like the parameters, for
        // stable averaging: each scalar still sums in contribution order.
        let mut sums = vec![0.0f64; self.global.num_scalars()];
        for (c, &w) in contributions.iter().zip(&weights) {
            assert_eq!(c.mask.len(), n, "mask length must equal unit count");
            for (id, values) in c.ret.params.iter() {
                if c.mask[id.index()] {
                    weight_sums[id.index()] += w;
                    for (s, &v) in sums[self.global.range(id)].iter_mut().zip(values) {
                        *s += w * f64::from(v);
                    }
                }
            }
        }
        for id in self.global.ids() {
            let weight_sum = weight_sums[id.index()];
            if weight_sum > 0.0 {
                let inv = 1.0 / weight_sum;
                let sums = &sums[self.global.range(id)];
                for (w, &s) in self.global.unit_mut(id).iter_mut().zip(sums) {
                    *w = (s * inv) as f32;
                }
            }
        }
    }

    /// Communication counters of a round from per-report ledger charges,
    /// broadcast and report fan-out decoupled — the shape faults force on a
    /// round: the server broadcasts the full model to every one of
    /// `broadcast_clients` selected clients (the paper's broadcast step),
    /// but `charges` holds one [`UplinkCharge`] per report whose bytes
    /// actually arrived (fresh survivors, rejected-but-received
    /// corruptions, stale arrivals — not dropouts or still-held
    /// stragglers), priced at the compressed size when a [`Compression`]
    /// codec is configured and at [`UplinkCharge::from_mask`] otherwise.
    pub fn round_comm_charges(
        &self,
        broadcast_clients: usize,
        charges: &[UplinkCharge],
    ) -> RoundComm {
        let sizes = self.unit_sizes();
        let n_units = sizes.len();
        let n_scalars: usize = sizes.iter().sum();
        let mut uplink_units = 0usize;
        let mut uplink_scalars = 0usize;
        let mut uplink_bytes = 0usize;
        for c in charges {
            uplink_units += c.units;
            uplink_scalars += c.scalars;
            uplink_bytes += c.bytes;
        }
        RoundComm {
            active_clients: broadcast_clients,
            uplink_units,
            uplink_scalars,
            uplink_bytes,
            downlink_units: broadcast_clients * n_units,
            downlink_scalars: broadcast_clients * n_scalars,
        }
    }

    /// Evaluate the current global model on the global test edges
    /// (message passing over the global training graph). Deterministic per
    /// round so frameworks sharing a seed are comparable.
    pub fn evaluate_global(&self, round: usize) -> EvalResult {
        self.evaluate_params(&self.global, round)
    }

    /// Detailed evaluation of the current global model: per-edge-type AUC
    /// breakdown (the fairness view), Hits@K and average precision.
    pub fn evaluate_global_detailed(&self, round: usize) -> fedda_hgn::DetailedEvalResult {
        let (mut rng, sampler) = self.eval_inputs(round);
        fedda_hgn::evaluate_detailed(
            self.model.as_ref(),
            &self.global,
            &self.eval_view,
            &sampler,
            &self.test_positives,
            self.cfg.eval_negatives,
            &mut rng,
        )
    }

    /// Evaluate an arbitrary parameter set (used by the Local baseline).
    pub fn evaluate_params(&self, params: &ParamSet, round: usize) -> EvalResult {
        let (mut rng, sampler) = self.eval_inputs(round);
        evaluate(
            self.model.as_ref(),
            params,
            &self.eval_view,
            &sampler,
            &self.test_positives,
            self.cfg.eval_negatives,
            &mut rng,
        )
    }

    /// An all-true mask set for `m` clients (vanilla FedAvg's request).
    pub fn full_masks(&self, m: usize) -> Vec<Vec<bool>> {
        vec![vec![true; self.num_units()]; m]
    }

    /// Random unit mask with the given activation fraction (Fig. 2's `D`).
    pub fn random_mask<R: Rng + ?Sized>(&self, fraction: f64, rng: &mut R) -> Vec<bool> {
        let n = self.num_units();
        let keep = ((n as f64) * fraction).round().max(1.0) as usize;
        let mut idx: Vec<usize> = (0..n).collect();
        // partial Fisher–Yates
        for i in 0..keep.min(n) {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut mask = vec![false; n];
        for &k in idx.iter().take(keep.min(n)) {
            mask[k] = true;
        }
        mask
    }
}

/// Clip the whole update `θ_i - θ` to `clip_norm` in L2, then add
/// `N(0, (σ·C)²)` Gaussian noise to every returned scalar (DP-FedAvg's
/// client-side mechanism).
fn apply_privacy<R: rand::Rng + ?Sized>(
    params: &mut ParamSet,
    broadcast: &ParamSet,
    privacy: PrivacyConfig,
    rng: &mut R,
) {
    // Global L2 norm of the update across all units.
    let mut norm_sq = 0.0f64;
    for (&x, &y) in params.values().iter().zip(broadcast.values()) {
        let d = f64::from(x) - f64::from(y);
        norm_sq += d * d;
    }
    let norm = norm_sq.sqrt() as f32;
    let scale = if norm > privacy.clip_norm && norm > 0.0 {
        privacy.clip_norm / norm
    } else {
        1.0
    };
    let noise_std = privacy.noise_multiplier * privacy.clip_norm;
    for (x, &b) in params.values_mut().iter_mut().zip(broadcast.values()) {
        let clipped = b + scale * (*x - b);
        let noise = if noise_std > 0.0 {
            let (n0, _) = fedda_tensor::init::box_muller(rng);
            noise_std * n0
        } else {
            0.0
        };
        *x = clipped + noise;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fedda_data::{dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
    use fedda_hetgraph::split::split_edges;

    pub(crate) fn tiny_system(m: usize, seed: u64) -> FlSystem {
        tiny_system_with(m, seed, |_| {})
    }

    /// [`tiny_system`] with `edit` applied to its configuration.
    pub(crate) fn tiny_system_with(
        m: usize,
        seed: u64,
        edit: impl FnOnce(&mut FlConfig),
    ) -> FlSystem {
        let g = dblp_like(&PresetOptions {
            scale: 0.0015,
            seed,
            ..Default::default()
        })
        .graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let split = split_edges(&g, 0.15, &mut rng);
        let pcfg = PartitionConfig::paper_defaults(m, g.schema().num_edge_types(), seed);
        let clients = partition_non_iid(&split.train, &pcfg);
        let mut cfg = FlConfig {
            rounds: 2,
            model: HgnConfig {
                hidden_dim: 4,
                num_layers: 1,
                num_heads: 2,
                edge_emb_dim: 4,
                ..Default::default()
            },
            train: TrainConfig {
                local_epochs: 1,
                lr: 5e-3,
                ..Default::default()
            },
            eval_negatives: 3,
            eval_every: 1,
            seed,
            parallel: true,
            workers: None,
            privacy: None,
            weighting: AggWeighting::Uniform,
            faults: None,
            compression: None,
        };
        edit(&mut cfg);
        FlSystem::new(&split.train, &split.test, clients, cfg)
    }

    /// Eq. 6 over `returns[j]` under `masks[j]`, every report at scale 1.
    fn aggregate(sys: &mut FlSystem, returns: &[ClientReturn], masks: &[Vec<bool>]) {
        let contributions: Vec<WeightedReturn<'_>> = returns
            .iter()
            .zip(masks)
            .map(|(ret, mask)| WeightedReturn {
                ret,
                mask,
                scale: 1.0,
            })
            .collect();
        sys.aggregate_weighted(&contributions);
    }

    #[test]
    fn system_construction_counts() {
        let sys = tiny_system(4, 1);
        assert_eq!(sys.num_clients(), 4);
        assert!(sys.num_units() > 0);
        // 5 real edge types + self-loop shared unit; 1 layer → ≥5 per-type
        assert!(sys.num_disentangled_units() >= 5);
        assert_eq!(sys.disentangled_ids().len(), sys.num_disentangled_units());
    }

    #[test]
    fn local_round_returns_moved_params() {
        let sys = tiny_system(3, 2);
        let returns = sys.run_local_round_with(&[0, 1, 2], 0, &[]);
        assert_eq!(returns.len(), 3);
        for r in &returns {
            assert!(
                r.unit_delta.iter().any(|&d| d > 0.0),
                "client {} did not move",
                r.client
            );
            assert_eq!(r.unit_delta.len(), sys.num_units());
        }
        // determinism: same round twice gives identical results
        let again = sys.run_local_round_with(&[0, 1, 2], 0, &[]);
        for (a, b) in returns.iter().zip(&again) {
            assert_eq!(a.params.flatten(), b.params.flatten());
        }
    }

    #[test]
    fn parallel_and_serial_rounds_agree() {
        let mut sys = tiny_system(3, 3);
        let par = sys.run_local_round_with(&[0, 1, 2], 1, &[]);
        sys.cfg.parallel = false;
        let ser = sys.run_local_round_with(&[0, 1, 2], 1, &[]);
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.params.flatten(), b.params.flatten());
        }
    }

    /// Largest-first dispatch is invisible: whatever order the pool ran the
    /// tasks in, report `j` belongs to `active[j]`.
    #[test]
    fn reports_come_back_in_active_order() {
        let mut sys = tiny_system(4, 5);
        let cost = |i: usize| sys.clients[i].positives.len() * sys.clients[i].view.num_messages();
        // An order and its reverse: unless every cost ties, one of the two
        // is not already descending, so the sort moves something.
        let orders = [[2, 0, 3, 1], [1, 3, 0, 2]];
        assert!(orders[0].iter().any(|&i| cost(i) != cost(orders[0][0])));
        for workers in [1, 2, 4] {
            sys.cfg.workers = Some(workers);
            for active in &orders {
                let (reports, _) = sys.run_reports(active, 0, &[], &[], None, None);
                let got: Vec<usize> = reports.iter().map(|(ret, _)| ret.client).collect();
                assert_eq!(got, active, "workers={workers}");
            }
        }
    }

    #[test]
    fn aggregate_full_masks_is_plain_average() {
        let mut sys = tiny_system(2, 4);
        let returns = sys.run_local_round_with(&[0, 1], 0, &[]);
        let masks = sys.full_masks(2);
        let expect: Vec<f32> = {
            let a = returns[0].params.flatten();
            let b = returns[1].params.flatten();
            a.iter()
                .zip(&b)
                .map(|(&x, &y)| ((f64::from(x) + f64::from(y)) / 2.0) as f32)
                .collect()
        };
        aggregate(&mut sys, &returns, &masks);
        let got = sys.global.flatten();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_units_keep_old_value_when_uncontributed() {
        let mut sys = tiny_system(2, 5);
        let before = sys.global.flatten();
        let returns = sys.run_local_round_with(&[0, 1], 0, &[]);
        // Mask out unit 0 for everyone.
        let mut masks = sys.full_masks(2);
        masks[0][0] = false;
        masks[1][0] = false;
        aggregate(&mut sys, &returns, &masks);
        let size0 = sys.unit_sizes()[0];
        assert_eq!(&sys.global.flatten()[..size0], &before[..size0]);
    }

    #[test]
    fn round_comm_counts_masked_units() {
        let sys = tiny_system(2, 6);
        let mut masks = sys.full_masks(2);
        let n = sys.num_units();
        masks[1] = vec![false; n];
        masks[1][3] = true;
        let sizes = sys.unit_sizes();
        let charges: Vec<UplinkCharge> = masks
            .iter()
            .map(|m| UplinkCharge::from_mask(m, &sizes))
            .collect();
        let rc = sys.round_comm_charges(2, &charges);
        assert_eq!(rc.active_clients, 2);
        assert_eq!(rc.uplink_units, n + 1);
        assert_eq!(rc.downlink_units, 2 * n);
        assert_eq!(
            rc.uplink_scalars,
            sys.global.num_scalars() + sys.unit_sizes()[3]
        );
    }

    #[test]
    fn random_mask_has_requested_density() {
        let sys = tiny_system(2, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let mask = sys.random_mask(0.5, &mut rng);
        let on = mask.iter().filter(|&&b| b).count();
        let expect = ((sys.num_units() as f64) * 0.5).round() as usize;
        assert_eq!(on, expect);
    }

    #[test]
    fn privacy_clipping_bounds_the_update_norm() {
        let mut sys = tiny_system(2, 9);
        sys.cfg.privacy = Some(PrivacyConfig {
            clip_norm: 0.05,
            noise_multiplier: 0.0,
        });
        let returns = sys.run_local_round_with(&[0, 1], 0, &[]);
        for r in &returns {
            let norm: f32 = r.unit_delta.iter().map(|&d| d * d).sum::<f32>().sqrt();
            assert!(
                norm <= 0.05 + 1e-4,
                "update norm {norm} exceeds the clip bound"
            );
        }
    }

    #[test]
    fn privacy_noise_perturbs_returns() {
        let mut sys = tiny_system(2, 10);
        let clean = sys.run_local_round_with(&[0], 0, &[]);
        sys.cfg.privacy = Some(PrivacyConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.1,
        });
        let noisy = sys.run_local_round_with(&[0], 0, &[]);
        assert_ne!(clean[0].params.flatten(), noisy[0].params.flatten());
        assert!(!noisy[0].params.has_non_finite());
        // And the whole protocol still runs end to end under DP.
        let result = crate::FedDa::explore().run(&mut sys);
        assert!(result.final_eval.roc_auc.is_finite());
    }

    #[test]
    fn sample_count_weighting_biases_toward_larger_clients() {
        let mut sys = tiny_system(2, 11);
        let returns = sys.run_local_round_with(&[0, 1], 0, &[]);
        let masks = sys.full_masks(2);
        let uniform_expect: Vec<f32> = {
            let a = returns[0].params.flatten();
            let b = returns[1].params.flatten();
            a.iter()
                .zip(&b)
                .map(|(&x, &y)| ((f64::from(x) + f64::from(y)) / 2.0) as f32)
                .collect()
        };
        sys.cfg.weighting = AggWeighting::BySampleCount;
        aggregate(&mut sys, &returns, &masks);
        let weighted = sys.global.flatten();
        let sizes: Vec<usize> = sys.clients.iter().map(|c| c.positives.len()).collect();
        if sizes[0] != sizes[1] {
            assert_ne!(weighted, uniform_expect, "weighting had no effect");
        }
        // Weighted mean stays within the per-client envelope.
        let a = returns[0].params.flatten();
        let b = returns[1].params.flatten();
        for ((w, &x), &y) in weighted.iter().zip(&a).zip(&b) {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            assert!(*w >= lo - 1e-5 && *w <= hi + 1e-5);
        }
    }

    #[test]
    fn aggregate_weighted_renormalises_over_survivors() {
        // Dropping one of two clients must leave exactly the survivor's
        // parameters — the per-unit weight-sum division *is* the Eq. 6
        // renormalisation over whoever remains.
        let mut sys = tiny_system(2, 13);
        let returns = sys.run_local_round_with(&[0, 1], 0, &[]);
        let mask = vec![true; sys.num_units()];
        sys.aggregate_weighted(&[WeightedReturn {
            ret: &returns[1],
            mask: &mask,
            scale: 1.0,
        }]);
        let got = sys.global.flatten();
        let expect = returns[1].params.flatten();
        for (g, e) in got.iter().zip(&expect) {
            assert!(
                (g - e).abs() < 1e-6,
                "survivor weight must renormalise to 1"
            );
        }
    }

    #[test]
    fn aggregate_weighted_discount_pulls_toward_fresh_report() {
        let mut sys = tiny_system(2, 14);
        let returns = sys.run_local_round_with(&[0, 1], 0, &[]);
        let mask = vec![true; sys.num_units()];
        // Fresh client 0 at weight 1, stale client 1 discounted to 0.25:
        // result = (θ_0 + 0.25·θ_1) / 1.25.
        sys.aggregate_weighted(&[
            WeightedReturn {
                ret: &returns[0],
                mask: &mask,
                scale: 1.0,
            },
            WeightedReturn {
                ret: &returns[1],
                mask: &mask,
                scale: 0.25,
            },
        ]);
        let got = sys.global.flatten();
        let a = returns[0].params.flatten();
        let b = returns[1].params.flatten();
        for ((g, &x), &y) in got.iter().zip(&a).zip(&b) {
            let e = (f64::from(x) + 0.25 * f64::from(y)) / 1.25;
            assert!((f64::from(*g) - e).abs() < 1e-6);
        }
    }

    #[test]
    fn round_comm_parts_decouples_broadcast_from_uplink() {
        let sys = tiny_system(3, 15);
        let n = sys.num_units();
        // 3 clients broadcast to, only 1 full report arrived.
        let full = UplinkCharge::from_mask(&vec![true; n], &sys.unit_sizes());
        let rc = sys.round_comm_charges(3, &[full]);
        assert_eq!(rc.active_clients, 3);
        assert_eq!(rc.downlink_units, 3 * n);
        assert_eq!(rc.uplink_units, n);
        assert_eq!(rc.uplink_scalars, sys.global.num_scalars());
        // Uncompressed bytes are exactly 4 per f32 scalar.
        assert_eq!(rc.uplink_bytes, 4 * rc.uplink_scalars);
        // Charge-based accounting sums per-report charges verbatim.
        let charged = sys.round_comm_charges(
            3,
            &[
                UplinkCharge {
                    units: 2,
                    scalars: 10,
                    bytes: 20,
                },
                UplinkCharge {
                    units: 1,
                    scalars: 4,
                    bytes: 32,
                },
            ],
        );
        assert_eq!(charged.uplink_units, 3);
        assert_eq!(charged.uplink_scalars, 14);
        assert_eq!(charged.uplink_bytes, 52);
        assert_eq!(charged.downlink_units, 3 * n);
    }

    #[test]
    fn evaluation_is_deterministic_per_round() {
        let sys = tiny_system(2, 8);
        let a = sys.evaluate_global(3);
        let b = sys.evaluate_global(3);
        assert_eq!(a.roc_auc, b.roc_auc);
        assert_eq!(a.mrr, b.mrr);
    }
}
