//! The simulated federated system: a server-side global model, `M` clients
//! holding sub-heterographs, and the primitives every protocol (FedAvg,
//! FedDA, ablations) is built from — broadcast, parallel local update,
//! masked aggregation (Eq. 6) and global evaluation.

use crate::comm::{CommLog, RoundComm};
use crate::compress::{decode_report, Compression, Delta, InFlight, UplinkCharge};
use crate::faults::{corrupt_params, Corruption, FaultConfig, FaultObserved};
use crate::protocol::LocalPenalty;
use crate::runtime::WorkerPool;
use fedda_data::ClientData;
use fedda_hetgraph::{EdgeIndex, EdgeTypeId, HeteroGraph, LinkExample, LinkSampler};
use fedda_hgn::{
    evaluate, EvalResult, GraphView, HgnConfig, LinkPredictor, SimpleHgn, TrainConfig, Workspace,
};
use fedda_tensor::{Graph, ParamId, ParamSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// Validate ranges: both values finite (a NaN multiplier would add no
    /// noise, an infinite clip norm infinite noise), `clip_norm > 0`,
    /// `noise_multiplier ≥ 0`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (clip, noise) = (self.clip_norm, self.noise_multiplier);
        if !clip.is_finite() {
            return Err(format!("clip_norm must be finite, got {clip}"));
        }
        if clip <= 0.0 {
            return Err("clip_norm must be positive".into());
        }
        if !noise.is_finite() {
            return Err(format!("noise_multiplier must be finite, got {noise}"));
        }
        if noise < 0.0 {
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
    /// round is always evaluated; `1` evaluates every round, and `0` is
    /// refused before round 0). Evaluation dominates wall-time on large
    /// federations, so sparse cadences make long runs cheap; the curve in
    /// [`RunResult`] then only holds the evaluated rounds.
    pub eval_every: usize,
    /// Run seed: drives model init, client sampling and evaluation.
    pub seed: u64,
    /// Run client updates on the system's worker threads; `false` is
    /// `workers: Some(1)`.
    pub parallel: bool,
    /// Worker-pool size for parallel client updates, fixed at
    /// [`FlSystem::new`] (`None` is `FEDDA_THREADS`, else the core count).
    /// Never more workers than tasks. Results are worker-count independent:
    /// client training is a pure function of (client seed, round,
    /// broadcast parameters) and the pool returns results in dispatch
    /// order.
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
    /// dispatch, decoded unit by unit where the server reads a report,
    /// ledger charged at compressed size on arrival);
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

impl FlConfig {
    /// What makes a run valid, checked before anything is built from it:
    /// the one list [`run`](crate::run) refuses a configuration by, in this
    /// order — at least one round, the evaluation, training, worker, fault,
    /// compression and privacy configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.rounds == 0 {
            return Err("rounds must be at least 1, got 0".into());
        }
        if self.eval_negatives == 0 {
            return Err(
                "invalid evaluation configuration: eval_negatives must be at least 1, got 0".into(),
            );
        }
        if self.eval_every == 0 {
            return Err(
                "invalid evaluation configuration: eval_every must be at least 1, got 0".into(),
            );
        }
        self.train
            .validate()
            .map_err(|e| format!("invalid training configuration: {e}"))?;
        self.workers()
            .map_err(|e| format!("invalid worker configuration: {e}"))?;
        if let Some(fc) = &self.faults {
            fc.validate()
                .map_err(|e| format!("invalid fault configuration: {e}"))?;
        }
        if let Some(c) = &self.compression {
            c.validate()
                .map_err(|e| format!("invalid compression configuration: {e}"))?;
        }
        if let Some(p) = &self.privacy {
            p.validate()
                .map_err(|e| format!("invalid privacy configuration: {e}"))?;
        }
        Ok(())
    }

    /// Worker-pool size of the run: 1 when `parallel` is `false`, else
    /// `workers`, where `None` is `FEDDA_THREADS`, else the machine's
    /// available parallelism.
    ///
    /// # Errors
    /// `workers: Some(0)`, or a malformed `FEDDA_THREADS` behind
    /// `workers: None` ([`default_workers`](crate::runtime::default_workers)).
    pub(crate) fn workers(&self) -> Result<usize, String> {
        match (self.parallel, self.workers) {
            (_, Some(0)) => Err("workers must be at least 1, got 0".into()),
            (false, _) => Ok(1),
            (true, Some(workers)) => Ok(workers),
            (true, None) => crate::runtime::default_workers(),
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
    /// Locally-updated parameters. Empty for a report that crossed the wire
    /// encoded: its values are what `encoded` reconstructs.
    pub params: ParamSet,
    /// Per-unit L2 distance between the updated and broadcast parameters —
    /// the "returned gradient" magnitude FedDA scores contributions with.
    /// For an encoded report, the distances of its reconstruction.
    pub unit_delta: Vec<f32>,
    /// The encoded report and its dispatch-time reference, for a report
    /// that crossed the wire under a codec; `None` when `params` holds the
    /// values. Everything that reads a report's values — Eq. 6, a
    /// protocol's `post_aggregate` — reads them unit by unit, decoding an
    /// encoded unit over the reference as it goes, so no encoded report
    /// ever holds a parameter set.
    pub encoded: Option<InFlight>,
}

impl ClientReturn {
    /// Unit `id` of the report's values: the stored unit, or for an encoded
    /// report the unit decoded over its reference into `scratch` — by
    /// `to_bits`, what a materialised reconstruction holds there.
    pub(crate) fn unit<'a>(&'a self, id: ParamId, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        match &self.encoded {
            Some(encoded) => encoded.unit(id, scratch),
            None => self.params.unit(id),
        }
    }
}

/// What dispatch asks of one reporting client beyond local training.
pub(crate) struct ReportOrder {
    /// Corruption the fault plan injects into this report.
    pub(crate) corruption: Option<Corruption>,
    /// The unit mask the report travels under, which the codec encodes it
    /// by when `FlConfig::compression` is set; `None` for a report the run
    /// ends before it would arrive: it trains, but nothing of it is handed
    /// back.
    pub(crate) mask: Option<Vec<bool>>,
}

/// One [`FlSystem::run_reports`] call as its report tasks read it: handles
/// on the system's model, clients and configuration, the call's snapshot of
/// `global` — the broadcast every client trains from, the anchor of its
/// penalty and, under a codec, the reference its report is encoded against
/// — and each position's penalty and order.
struct ReportCall {
    model: Arc<dyn LinkPredictor>,
    clients: Arc<[Client]>,
    cfg: Arc<FlConfig>,
    global: Arc<ParamSet>,
    active: Vec<usize>,
    round: usize,
    penalties: Vec<Option<LocalPenalty>>,
    orders: Vec<ReportOrder>,
}

impl ReportCall {
    /// The local update and report of `active[pos]`, in `slot`.
    fn report(&self, pos: usize, slot: &mut Slot) -> ClientReturn {
        let i = self.active[pos];
        let client = &self.clients[i];
        let global = &*self.global;
        let Slot { workspace, params } = slot;
        params.copy_from(global);
        let mut rng = StdRng::seed_from_u64(
            client.seed ^ (self.round as u64).wrapping_mul(CLIENT_ROUND_STRIDE),
        );
        let sampler = client.sampler();
        let penalty =
            self.penalties
                .get(pos)
                .and_then(|p| p.as_ref())
                .map(|p| fedda_hgn::Penalty {
                    prox_mu: p.prox_mu,
                    reference: global,
                    linear: p.linear.as_deref(),
                });
        workspace.train(
            self.model.as_ref(),
            params,
            &client.view,
            &sampler,
            &client.positives,
            &self.cfg.train,
            penalty.as_ref(),
            &mut rng,
        );
        if let Some(privacy) = self.cfg.privacy {
            apply_privacy(params, global, privacy, &mut rng);
        }
        let order = self.orders.get(pos);
        if let Some(kind) = order.and_then(|o| o.corruption) {
            corrupt_params(params, global, kind);
        }
        let mut ret = ClientReturn {
            client: i,
            params: ParamSet::new(),
            unit_delta: Vec::new(),
            encoded: None,
        };
        match (order.map(|o| o.mask.as_deref()), self.cfg.compression) {
            // The run ends before the report would land.
            (Some(None), _) => {}
            (Some(Some(mask)), Some(codec)) => {
                let report = codec.compress(&Delta {
                    updated: params,
                    reference: global,
                    mask,
                });
                ret.unit_delta = decode_report(params, &report, global);
                let reference = Arc::clone(&self.global);
                ret.encoded = Some(InFlight { report, reference });
            }
            _ => {
                ret.unit_delta = params.unit_l2_distances(global);
                ret.params = params.clone();
            }
        }
        ret
    }
}

/// A worker slot's memory, kept for the whole run: the training workspace
/// and the parameter buffer every client the slot serves trains in.
#[derive(Default)]
pub(crate) struct Slot {
    /// Tape, bindings, gradients and Adam moments.
    pub(crate) workspace: Workspace,
    /// The broadcast's copy a client trains, corrupts, encodes and decodes
    /// in; a report that travels uncompressed is copied out of it.
    params: ParamSet,
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
}

/// What every global evaluation reads, built once at set-up: the global
/// training graph (evaluation-time message passing) with its view and
/// negative-rejection index, the test positives, and the run's seed and
/// negatives per positive.
struct EvalSet {
    graph: HeteroGraph,
    index: EdgeIndex,
    view: GraphView,
    test_positives: Vec<LinkExample>,
    seed: u64,
    negatives: usize,
}

impl EvalSet {
    /// A sampler over the evaluation graph, sharing the index built at
    /// set-up.
    fn sampler(&self) -> LinkSampler<'_> {
        LinkSampler::with_index(&self.graph, self.index.clone())
    }

    /// Round `round`'s evaluation RNG: deterministic, so frameworks sharing
    /// a seed are comparable.
    fn rng(&self, round: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ EVAL_STREAM_TWEAK ^ (round as u64).wrapping_mul(31))
    }

    /// Score `params` on the test positives, on the tape `graph`.
    fn evaluate(
        &self,
        model: &dyn LinkPredictor,
        graph: &mut Graph,
        params: &ParamSet,
        round: usize,
    ) -> EvalResult {
        #[cfg(test)]
        tests::EVALUATIONS.with(|n| n.set(n.get() + 1));
        evaluate(
            model,
            graph,
            params,
            &self.view,
            &self.sampler(),
            &self.test_positives,
            self.negatives,
            &mut self.rng(round),
        )
    }
}

/// The simulated federation.
///
/// What a pool task reads it holds by `Arc` — the model, the clients, the
/// configuration, the evaluation inputs and the worker slots — because the
/// pool's threads live as long as the system and outlive every call.
pub struct FlSystem {
    /// The shared model architecture (Simple-HGN by default; any
    /// [`LinkPredictor`] via [`FlSystem::with_model`]).
    pub model: Arc<dyn LinkPredictor>,
    /// Server-side global parameters.
    pub global: ParamSet,
    /// Clients.
    pub clients: Arc<[Client]>,
    cfg: Arc<FlConfig>,
    eval: Arc<EvalSet>,
    /// One [`Slot`] — a [`Workspace`] and a parameter buffer — per worker
    /// slot, one slot per worker of the configured pool
    /// ([`FlConfig::workers()`], 1 where that is an error the engine
    /// refuses), kept for the whole run: slot `s` trains every client and
    /// runs every evaluation the pool's worker `s` is handed, and slot 0
    /// also serves every evaluation and the baselines' training
    /// ([`FlSystem::on_slot0`]). Its memory follows the largest of them,
    /// once.
    slots: Arc<[Mutex<Slot>]>,
    /// The pool every slot's work runs on: slot `s` on its worker `s`, one
    /// thread from the first call until the system drops.
    pool: WorkerPool,
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
    /// first such client and handed to the rest by `Arc`. Each client keeps its own
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
                    Client::first_of_shard(data, seed, self_loops)
                }
            };
            clients.push(client);
        }
        let eval = EvalSet {
            graph: global_train.clone(),
            index: EdgeIndex::new(global_train),
            view: GraphView::new(global_train, self_loops),
            test_positives: LinkSampler::new(global_test).all_positives(),
            seed: cfg.seed,
            negatives: cfg.eval_negatives,
        };
        let workers = cfg.workers().unwrap_or(1);
        Self {
            model: Arc::from(model),
            global,
            clients: clients.into(),
            cfg: Arc::new(cfg),
            eval: Arc::new(eval),
            slots: std::iter::repeat_with(Mutex::default)
                .take(workers)
                .collect(),
            pool: WorkerPool::new(workers),
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &FlConfig {
        &self.cfg
    }

    /// The global training graph (evaluation-time message passing; also
    /// what the `Global` baseline trains on).
    pub(crate) fn eval_graph(&self) -> &HeteroGraph {
        &self.eval.graph
    }

    /// Negative-rejection index of [`FlSystem::eval_graph`], built once at
    /// set-up and shared by every evaluation.
    pub(crate) fn eval_index(&self) -> &EdgeIndex {
        &self.eval.index
    }

    /// Number of clients `M`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
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
    pub(crate) fn disentangled_ids(&self) -> Vec<ParamId> {
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
    /// The pool is the only parallelism: each client's matmuls run on the
    /// worker that trains it. Every return holds its values in `params`.
    ///
    /// [`WorkerPool`]: crate::runtime::WorkerPool
    pub fn run_local_round_with(
        &self,
        active: &[usize],
        round: usize,
        penalties: &[Option<LocalPenalty>],
    ) -> Vec<ClientReturn> {
        self.run_reports(active, round, penalties.to_vec(), Vec::new(), None)
            .0
    }

    /// The engine's form of [`FlSystem::run_local_round_with`]: everything
    /// that is per-report and pure runs inside the client's pool task, on
    /// the worker that trained it and while its parameters are cache-hot —
    /// local training in the worker slot's kept parameter buffer, then the
    /// fault plan's corruption (`orders[j]`), then, under
    /// `FlConfig::compression`, mask-then-compress. Corruption is injected
    /// first, so a corrupted report flows *through* the codec and the server
    /// guard judges the reconstruction. An empty `orders` slice trains only.
    ///
    /// An encoded report comes back as what crosses the wire: its payload,
    /// the dispatch-time reference (one copy of `self.global` per call,
    /// shared by every report) and the `unit_delta` of its reconstruction,
    /// which the task decodes into the slot's buffer only to measure. Any
    /// other report is a copy of the buffer with its `unit_delta`, and one
    /// whose order has no mask comes back empty. So a codec run allocates no
    /// parameter set per client.
    ///
    /// `evaluate` names a round whose [`FlSystem::evaluate_global`] is due:
    /// it runs as one more task of the same pool call — it reads the
    /// call's snapshot of `self.global` that the client tasks copy from,
    /// and its own RNG stream — and its result comes back beside the
    /// reports.
    pub(crate) fn run_reports(
        &self,
        active: &[usize],
        round: usize,
        penalties: Vec<Option<LocalPenalty>>,
        orders: Vec<ReportOrder>,
        evaluate: Option<usize>,
    ) -> (Vec<ClientReturn>, Option<EvalResult>) {
        assert!(
            penalties.is_empty() || penalties.len() == active.len(),
            "one penalty slot per active client (or none at all)"
        );
        assert!(
            orders.is_empty() || orders.len() == active.len(),
            "one report order per active client (or none at all)"
        );
        /// One pure task of the pool call.
        #[derive(Clone, Copy)]
        enum Task {
            /// The local update and report of `active[pos]`.
            Report(usize),
            /// The global evaluation of a round.
            Evaluate(usize),
        }
        enum Done {
            Report(usize, ClientReturn),
            Evaluated(EvalResult),
        }
        // The evaluation first, so it always runs on slot 0 — the slot every
        // evaluation runs in — and only one workspace grows to the
        // evaluation graph's size; then the clients largest first: the pool
        // pulls tasks in slice order, and a round ends when its slowest
        // task does, so that task must not be the last to start. Local
        // training re-encodes the client's whole graph once per batch of
        // positives, hence the cost estimate. The sort is stable and reads
        // nothing but the tasks' own inputs, and results go back by position
        // below: dispatch order is invisible.
        let cost = |&pos: &usize| {
            let client = &self.clients[active[pos]];
            client.positives.len() * client.view.num_messages()
        };
        let mut positions: Vec<usize> = (0..active.len()).collect();
        positions.sort_by_key(|pos| std::cmp::Reverse(cost(pos)));
        let tasks: Vec<Task> = (evaluate.map(Task::Evaluate).into_iter())
            .chain(positions.into_iter().map(Task::Report))
            .collect();
        let call = ReportCall {
            model: Arc::clone(&self.model),
            clients: Arc::clone(&self.clients),
            cfg: Arc::clone(&self.cfg),
            global: Arc::new(self.global.clone()),
            active: active.to_vec(),
            round,
            penalties,
            orders,
        };
        let (eval, slots) = (Arc::clone(&self.eval), Arc::clone(&self.slots));
        let work = move |slot: usize, task: &Task| {
            let slot = &mut *lock(&slots[slot]);
            match *task {
                Task::Report(pos) => Done::Report(pos, call.report(pos, slot)),
                Task::Evaluate(round) => {
                    let graph = slot.workspace.graph();
                    Done::Evaluated(eval.evaluate(call.model.as_ref(), graph, &call.global, round))
                }
            }
        };
        let mut placed = Vec::with_capacity(active.len());
        let mut evaluated = None;
        for done in self.pool.run_slotted(&tasks, work) {
            match done {
                Done::Report(pos, report) => placed.push((pos, report)),
                Done::Evaluated(eval) => evaluated = Some(eval),
            }
        }
        placed.sort_unstable_by_key(|&(pos, _)| pos);
        let reports = placed.into_iter().map(|(_, report)| report).collect();
        (reports, evaluated)
    }

    /// Run `job` in worker slot 0 on the pool's worker 0 — the thread every
    /// slot-0 task runs on, the caller's for a one-worker pool — and return
    /// what it returns. Every evaluation called from the server thread and
    /// the baselines' training run here.
    pub(crate) fn on_slot0<R: Send + 'static>(
        &self,
        job: impl Fn(&mut Slot) -> R + Send + Sync + 'static,
    ) -> R {
        let slots = Arc::clone(&self.slots);
        let mut done = self
            .pool
            .run_slotted(&[()], move |_, _| job(&mut lock(&slots[0])));
        done.swap_remove(0)
    }

    /// The `Global` baseline's round: `self.global` trains on `positives` of
    /// the evaluation graph, through its view and index, in worker slot 0's
    /// workspace.
    pub(crate) fn train_global(&mut self, positives: &Arc<[LinkExample]>, rng: &mut StdRng) {
        let (model, eval) = (Arc::clone(&self.model), Arc::clone(&self.eval));
        let (cfg, positives) = (Arc::clone(&self.cfg), Arc::clone(positives));
        let (global, start) = (std::mem::take(&mut self.global), rng.clone());
        let (trained, end) = self.on_slot0(move |slot| {
            let (mut params, mut rng) = (global.clone(), start.clone());
            slot.workspace.train(
                model.as_ref(),
                &mut params,
                &eval.view,
                &eval.sampler(),
                &positives,
                &cfg.train,
                None,
                &mut rng,
            );
            (params, rng)
        });
        self.global = trained;
        *rng = end;
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
        // stable averaging: each scalar still sums in contribution order. An
        // encoded report is decoded one unit at a time as it is folded.
        let mut sums = vec![0.0f64; self.global.num_scalars()];
        let mut scratch = Vec::new();
        for (c, &w) in contributions.iter().zip(&weights) {
            assert_eq!(c.mask.len(), n, "mask length must equal unit count");
            for id in self.global.ids() {
                if c.mask[id.index()] {
                    weight_sums[id.index()] += w;
                    let values = c.ret.unit(id, &mut scratch);
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
        let (n_units, n_scalars) = (self.num_units(), self.global.num_scalars());
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

    /// The current global model's test ROC-AUC per edge type (the fairness
    /// view), on the inputs [`FlSystem::evaluate_global`] scores.
    pub fn auc_by_edge_type(&self, round: usize) -> fedda_metrics::GroupedMetric {
        let (model, eval, params) = (
            Arc::clone(&self.model),
            Arc::clone(&self.eval),
            self.global.clone(),
        );
        self.on_slot0(move |slot| {
            fedda_hgn::auc_by_edge_type(
                model.as_ref(),
                slot.workspace.graph(),
                &params,
                &eval.view,
                &eval.sampler(),
                &eval.test_positives,
                eval.negatives,
                &mut eval.rng(round),
            )
        })
    }

    /// Evaluate an arbitrary parameter set (used by the Local baseline), in
    /// worker slot 0's workspace.
    pub(crate) fn evaluate_params(&self, params: &ParamSet, round: usize) -> EvalResult {
        let (model, eval, params) = (
            Arc::clone(&self.model),
            Arc::clone(&self.eval),
            params.clone(),
        );
        self.on_slot0(move |slot| {
            eval.evaluate(model.as_ref(), slot.workspace.graph(), &params, round)
        })
    }

    /// An all-true mask set for `m` clients (vanilla FedAvg's request).
    pub(crate) fn full_masks(&self, m: usize) -> Vec<Vec<bool>> {
        vec![vec![true; self.num_units()]; m]
    }

    /// Random unit mask with the given activation fraction (Fig. 2's `D`).
    pub(crate) fn random_mask<R: Rng + ?Sized>(&self, fraction: f64, rng: &mut R) -> Vec<bool> {
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

/// A worker slot's lock. One poisoned by a task that panicked still hands
/// the slot out: every call in it starts from what a fresh one holds — a
/// cleared workspace, a buffer overwritten with the broadcast — so nothing
/// the panic left behind is read.
fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
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
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    thread_local! {
        /// Global evaluations run on this thread.
        pub(super) static EVALUATIONS: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn tiny_system(m: usize, seed: u64) -> FlSystem {
        tiny_system_with(m, seed, |_| {})
    }

    /// [`crate::run`] in lockstep with no sink, on a valid configuration.
    pub(crate) fn run_sync(
        protocol: &mut dyn crate::FlProtocol,
        system: &mut FlSystem,
    ) -> RunResult {
        crate::run(&crate::RuntimeMode::Sync, protocol, system, None).unwrap()
    }

    /// [`tiny_system`] with `edit` applied to its configuration: the
    /// integration suites' federation (`crate::common`) at scale 0.0015,
    /// `m` clients and 2 rounds.
    pub(crate) fn tiny_system_with(
        m: usize,
        seed: u64,
        edit: impl FnOnce(&mut FlConfig),
    ) -> FlSystem {
        let (split, clients) = crate::common::dataset(0.0015, seed, m);
        crate::common::system(&split, clients, seed, |cfg| {
            cfg.rounds = 2;
            edit(cfg);
        })
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
        let par = tiny_system(3, 3).run_local_round_with(&[0, 1, 2], 1, &[]);
        let serial = tiny_system_with(3, 3, |c| c.parallel = false);
        let ser = serial.run_local_round_with(&[0, 1, 2], 1, &[]);
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.params.flatten(), b.params.flatten());
        }
    }

    /// Largest-first dispatch is invisible: whatever order the pool ran the
    /// tasks in, report `j` belongs to `active[j]`.
    #[test]
    fn reports_come_back_in_active_order() {
        let sys = tiny_system(4, 5);
        let cost = |i: usize| sys.clients[i].positives.len() * sys.clients[i].view.num_messages();
        // An order and its reverse: unless every cost ties, one of the two
        // is not already descending, so the sort moves something.
        let orders = [[2, 0, 3, 1], [1, 3, 0, 2]];
        assert!(orders[0].iter().any(|&i| cost(i) != cost(orders[0][0])));
        for workers in [1, 2, 4] {
            let sys = tiny_system_with(4, 5, |c| c.workers = Some(workers));
            for active in &orders {
                let (reports, _) = sys.run_reports(active, 0, Vec::new(), Vec::new(), None);
                let got: Vec<usize> = reports.iter().map(|report| report.client).collect();
                assert_eq!(got, active, "workers={workers}");
            }
        }
    }

    /// The slot count is the configured pool size, fixed at `new`: no call
    /// adds or drops a slot.
    #[test]
    fn worker_slots_are_fixed_at_new() {
        for (parallel, workers, expect) in
            [(true, Some(1), 1), (false, None, 1), (true, Some(3), 3)]
        {
            let sys = tiny_system_with(3, 6, |c| {
                c.parallel = parallel;
                c.workers = workers;
            });
            assert_eq!(sys.slots.len(), expect);
            sys.run_reports(&[0, 1, 2], 0, Vec::new(), Vec::new(), Some(0));
            sys.run_reports(&[0, 1, 2], 0, Vec::new(), Vec::new(), None);
            sys.evaluate_global(0);
            assert_eq!(sys.slots.len(), expect);
        }
    }

    /// With two workers no evaluation runs on the caller — not the
    /// pipelined ones, not the engine's last, not a direct call — and all
    /// of them run on worker 0's thread; with one, all run inline.
    #[test]
    fn every_evaluation_runs_on_worker_0() {
        let here = || EVALUATIONS.with(Cell::get);
        for workers in [1, 2] {
            let mut sys = tiny_system_with(3, 16, |c| {
                c.rounds = 3;
                c.workers = Some(workers);
            });
            let before = here();
            let result = run_sync(&mut crate::FedAvg::vanilla(), &mut sys);
            sys.evaluate_global(0);
            let evaluations = result.curve.len() + 1;
            if workers == 1 {
                assert_eq!(here() - before, evaluations, "inline on the caller");
            } else {
                assert_eq!(here(), before, "none on the caller");
                let on_worker_0 = sys.on_slot0(|_| EVALUATIONS.with(Cell::get));
                assert_eq!(on_worker_0, evaluations);
            }
        }
    }

    #[test]
    fn dropping_the_system_joins_every_worker() {
        /// Counts its thread's exit.
        struct Exit(Arc<AtomicUsize>);
        impl Drop for Exit {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<Exit>> = const { RefCell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let sys = tiny_system_with(3, 17, |c| c.workers = Some(3));
        let exits = Arc::clone(&exited);
        // Item `s` runs on worker `s`: each worker learns to count its exit.
        sys.pool.run_slotted(&[0, 1, 2], move |_, _| {
            EXIT.with(|e| *e.borrow_mut() = Some(Exit(Arc::clone(&exits))));
        });
        sys.evaluate_global(0);
        assert_eq!(exited.load(SeqCst), 0);
        drop(sys);
        assert_eq!(exited.load(SeqCst), 3, "a worker outlived its system");
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
        let sys = tiny_system_with(2, 9, |c| {
            c.privacy = Some(PrivacyConfig {
                clip_norm: 0.05,
                noise_multiplier: 0.0,
            });
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
        let clean = tiny_system(2, 10).run_local_round_with(&[0], 0, &[]);
        let mut sys = tiny_system_with(2, 10, |c| {
            c.privacy = Some(PrivacyConfig {
                clip_norm: 1.0,
                noise_multiplier: 0.1,
            });
        });
        let noisy = sys.run_local_round_with(&[0], 0, &[]);
        assert_ne!(clean[0].params.flatten(), noisy[0].params.flatten());
        assert!(noisy[0].params.values().iter().all(|v| v.is_finite()));
        // And the whole protocol still runs end to end under DP.
        let result = run_sync(&mut crate::FedDa::explore(), &mut sys);
        assert!(result.final_eval.roc_auc.is_finite());
    }

    #[test]
    fn sample_count_weighting_biases_toward_larger_clients() {
        let mut sys = tiny_system_with(2, 11, |c| c.weighting = AggWeighting::BySampleCount);
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
