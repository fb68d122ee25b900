//! The round engine: the one loop every protocol runs on.
//!
//! A federated round has one shape — select clients, build their masks,
//! run the local updates, aggregate what arrived (Eq. 6), account the
//! bytes, update activation state, evaluate — and [`run`] is that shape,
//! in three steps per round on the event-driven [`runtime`](crate::runtime):
//!
//! 1. **dispatch** — the [`FlProtocol`] hooks pick clients and masks, the
//!    fault plan gives each client its verdict, the reporting clients train
//!    (and corrupt, and encode) on the worker pool, and every report that
//!    will ever arrive is scheduled on the virtual-time queue;
//! 2. **admit** — arrivals are popped in `(tick, schedule sequence)` order,
//!    decoded, charged to the ledger, passed through the server-side guard
//!    and weighted by their staleness, until the round is due to flush;
//! 3. **commit** — Eq. 6 over the admitted reports with renormalised
//!    weights, the comm ledger entry, the protocol's `on_faults` and
//!    `post_aggregate` hooks, the activation trace, and the round's closed
//!    record: its [`RoundEvent`] less the evaluation, plus whether one is
//!    due (`FlConfig::eval_every`; the final round always evaluates).
//!
//! `FlConfig::rounds` counts commits: a *round* of the lockstep runtime and
//! a *server version* of the buffered one are the same index, so curves,
//! comm logs and activation traces line up one-to-one.
//!
//! # The evaluation pipeline
//!
//! Scoring the global model after round `t` is a measurement, not a step of
//! Alg. 1 — nothing above reads it back — so it is off the round's critical
//! path: the loop is
//!
//! ```text
//! dispatch(t + 1) ∥ evaluate(t) → publish(t) → admit(t + 1) → commit(t + 1)
//! ```
//!
//! Round `t`'s evaluation is one more task of round `t + 1`'s worker-pool
//! call (`FlSystem::run_reports`); when the pool has joined, the engine
//! pushes the curve point, sets `final_eval` and emits round `t`'s event —
//! still before round `t + 1`'s. The last round's evaluation has no
//! dispatch to ride and runs after its commit (`FlSystem::evaluate_final`).
//! Two facts make this safe: `system.global` is frozen between a commit and
//! the next pool's join (every hook dispatch calls takes `&FlSystem`; only
//! `post_aggregate` and Eq. 6 write it), and `eval_inputs(round)` owns its
//! RNG stream. A one-worker pool runs the same tasks inline on the server
//! thread. A round's `wall_ms` is the time since the previous event was
//! emitted (since the run's start for round 0), so the events' `wall_ms`
//! still sum to the run's wall time.
//!
//! # The arrival policy
//!
//! [`run`] takes the runtime as a [`RuntimeMode`]: synchronous lockstep or
//! FedBuff-style buffered asynchrony. ([`RoundDriver`] and [`AsyncDriver`]
//! are one-line constructors over it, kept for the benchmark package.) The
//! two modes differ in the five decisions tabulated in the crate docs —
//! eligibility, latency, flush trigger, staleness weight, order at flush —
//! each one method of the private [`Policy`], and in nothing else. With no
//! fault plan and `K` at the federation size the two coincide: every
//! report is fresh, arrives in dispatch order and flushes together, so both
//! runtimes produce the same bits
//! (`buffered_with_k_at_federation_size_equals_lockstep`).
//!
//! # Determinism
//!
//! Selection/mask/post-aggregate RNG draws happen in round order, the
//! event queue is totally ordered, client training is a pure function of
//! `(client seed, dispatch round, broadcast)`, and the worker-pool size
//! never changes results: same seed → bit-identical run, at any
//! `FEDDA_THREADS` and any pool size. The seeded behaviour of every
//! protocol under both runtimes is pinned by the `golden_curves` tests.
//!
//! # Accounting
//!
//! Downlink is charged at dispatch (the broadcast happened), uplink when a
//! report *arrives* — at the compressed size under a codec, never for
//! dropouts and never for reports that do not land before the run ends.

use crate::compress::{decode_arrival, Compressor, InFlight, UplinkCharge};
use crate::events::{EventSink, RoundEvent};
use crate::faults::{
    detect_rejection, FaultConfig, FaultEffect, FaultKind, FaultObserved, FaultPlan,
};
use crate::protocol::FlProtocol;
use crate::runtime::{Delivery, Scheduler, Tick};
use crate::system::{
    ActivationSnapshot, ClientReturn, FlSystem, ReportOrder, RoundEval, RunResult, WeightedReturn,
};
use fedda_hgn::EvalResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the buffered-asynchronous aggregation rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Aggregate as soon as `K` admissible reports have buffered
    /// (FedBuff's buffer size). The buffer is also flushed — possibly
    /// short, possibly empty — when the event queue starves, so runs
    /// always terminate in exactly `FlConfig::rounds` aggregations.
    pub k: usize,
    /// Staleness discount base: a report computed `s` versions ago joins
    /// the buffer at weight `γ^s` before the Eq. 6 renormalisation.
    /// `1.0` disables discounting.
    pub gamma: f64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self { k: 2, gamma: 0.9 }
    }
}

impl AsyncConfig {
    /// Validate ranges: `k ≥ 1`, `γ ∈ (0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("async k must be at least 1".into());
        }
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(format!("async gamma must be in (0, 1], got {}", self.gamma));
        }
        Ok(())
    }
}

/// Which runtime executes a run (see `ExperimentConfig` in `fedda-core` and
/// the CLI's `--runtime` flag).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum RuntimeMode {
    /// Synchronous lockstep rounds.
    #[default]
    Sync,
    /// Buffered-asynchronous aggregation.
    Async(AsyncConfig),
}

/// [`run`] under [`RuntimeMode::Sync`] with the sink bound up front.
#[derive(Default)]
pub struct RoundDriver<'a> {
    sink: Option<&'a mut dyn EventSink>,
}

impl<'a> RoundDriver<'a> {
    /// Driver without an event sink.
    pub fn new() -> Self {
        Self { sink: None }
    }

    /// Driver that emits every round's [`RoundEvent`] to `sink`.
    pub fn with_sink(sink: &'a mut dyn EventSink) -> Self {
        Self { sink: Some(sink) }
    }

    /// [`run`] in lockstep mode.
    pub fn run(
        &mut self,
        protocol: &mut dyn FlProtocol,
        system: &mut FlSystem,
    ) -> Result<RunResult, String> {
        let sink = self.sink.as_deref_mut();
        run(&RuntimeMode::Sync, protocol, system, sink)
    }
}

/// [`run`] under [`RuntimeMode::Async`] with the sink bound up front.
pub struct AsyncDriver<'a> {
    mode: RuntimeMode,
    sink: Option<&'a mut dyn EventSink>,
}

impl AsyncDriver<'_> {
    /// Driver without an event sink.
    pub fn new(cfg: AsyncConfig) -> Self {
        let mode = RuntimeMode::Async(cfg);
        Self { mode, sink: None }
    }
}

impl<'a> AsyncDriver<'a> {
    /// Driver that emits one [`RoundEvent`] per aggregation to `sink`.
    pub fn with_sink(cfg: AsyncConfig, sink: &'a mut dyn EventSink) -> Self {
        let mode = RuntimeMode::Async(cfg);
        let sink = Some(sink);
        Self { mode, sink }
    }

    /// [`run`] in buffered mode.
    pub fn run(
        &mut self,
        protocol: &mut dyn FlProtocol,
        system: &mut FlSystem,
    ) -> Result<RunResult, String> {
        run(&self.mode, protocol, system, self.sink.as_deref_mut())
    }
}

/// Where a report or a fault record stands when its round flushes, in
/// field order: the round's own before `held` ones, then by `pos`; equal
/// ranks keep arrival order. A `held` report aggregates but is not among
/// the returns `post_aggregate` is handed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    held: bool,
    pos: usize,
}

/// The arrival policy: the five decisions of the module-level table.
/// Nothing outside these methods looks at the variant.
#[derive(Clone, Copy)]
enum Policy {
    Lockstep,
    Buffered(AsyncConfig),
}

impl Policy {
    /// (1) Eligibility: which of the protocol's selected clients are
    /// dispatched.
    fn eligible(&self, selected: Vec<usize>, in_flight: &[bool]) -> Vec<usize> {
        match self {
            Policy::Lockstep => selected,
            Policy::Buffered(_) => selected.into_iter().filter(|&c| !in_flight[c]).collect(),
        }
    }

    /// (2) Latency: the tick a report dispatched at `round` lands on —
    /// `None` when the run ends first — and what dispatch records about a
    /// straggler (`straggle` is its delay; `None` for a punctual report).
    fn latency(
        &self,
        now: Tick,
        round: usize,
        rounds: usize,
        straggle: Option<usize>,
    ) -> (Option<Tick>, Option<FaultEffect>) {
        match (self, straggle) {
            (Policy::Lockstep, None) => (Some(round as Tick), None),
            (Policy::Lockstep, Some(delay)) => {
                let arrival = Some(round + delay).filter(|&r| r < rounds);
                (
                    arrival.map(|r| r as Tick),
                    Some(FaultEffect::StragglerHeld { arrival }),
                )
            }
            (Policy::Buffered(_), _) => (Some(now + 1 + straggle.unwrap_or(0) as Tick), None),
        }
    }

    /// (3) Flush trigger: whether `round` aggregates now, with `buffered`
    /// reports admitted and the queue's next event at tick `next`. Both
    /// variants flush an empty queue.
    fn flush_due(&self, buffered: usize, next: Option<Tick>, round: usize) -> bool {
        match self {
            Policy::Lockstep => next.map_or(true, |tick| tick > round as Tick),
            Policy::Buffered(cfg) => buffered >= cfg.k || next.is_none(),
        }
    }

    /// (4) Staleness weight: the scale a report `staleness` rounds old
    /// enters Eq. 6 at, `None` to discard it.
    fn stale_weight(&self, staleness: usize, faults: Option<&FaultConfig>) -> Option<f64> {
        match (self, faults) {
            (Policy::Lockstep, Some(fc)) if staleness > 0 => fc.staleness.weight(staleness),
            (Policy::Lockstep, _) => Some(1.0),
            // γ^staleness by repeated product: exact integer exponent, no
            // libm, bit-stable across platforms.
            (Policy::Buffered(cfg), _) => Some((0..staleness).fold(1.0f64, |w, _| w * cfg.gamma)),
        }
    }

    /// (5) Order at flush: the rank of whatever client position `pos` of
    /// its dispatch contributes `staleness` rounds later. Lockstep keeps the
    /// f64 accumulation order of a plain round loop — fresh reports in
    /// position order, held ones after — and the record stream the chaos
    /// harness pins; buffered execution has no position order to restore.
    fn rank(&self, staleness: usize, pos: usize) -> Rank {
        let (held, pos) = match self {
            Policy::Lockstep if staleness == 0 => (false, pos),
            Policy::Lockstep => (true, 0),
            Policy::Buffered(_) => (false, 0),
        };
        Rank { held, pos }
    }
}

/// One round's working state, from dispatch to commit.
struct Round {
    index: usize,
    /// Clients dispatched (and broadcast to) this round.
    active: Vec<usize>,
    mask_density: f64,
    /// Fault and staleness records, in the order they were observed.
    observations: Vec<(Rank, FaultObserved)>,
    /// Admitted reports and their Eq. 6 scale, in arrival order.
    buffer: Vec<(Rank, Delivery, f64)>,
    /// Ledger charges of every report that arrived, admitted or not.
    charges: Vec<UplinkCharge>,
}

impl Round {
    fn observe(&mut self, rank: Rank, client: usize, effect: FaultEffect) {
        let round = self.index;
        self.observations.push((
            rank,
            FaultObserved {
                round,
                client,
                effect,
            },
        ));
    }
}

/// A committed round awaiting publication: its event, complete but for the
/// evaluation — which rides the next round's pool call — and the wall time.
struct Closed {
    event: RoundEvent,
    /// The round's own index when the cadence makes its evaluation due.
    evaluate: Option<usize>,
}

/// Wall-clock laps for [`RoundEvent::wall_ms`] — telemetry only; never
/// feeds selection, masking, aggregation or any logged curve.
struct Stopwatch(Instant);

impl Stopwatch {
    #[expect(
        clippy::disallowed_methods,
        reason = "round wall-time telemetry only; never feeds selection, masking, aggregation or any logged curve"
    )]
    fn start() -> Self {
        Self(Instant::now())
    }

    /// Milliseconds since the previous lap (since the start for the first).
    fn lap_ms(&mut self) -> f64 {
        let lap = self.0.elapsed();
        self.0 += lap;
        lap.as_secs_f64() * 1e3
    }
}

/// The state of one run.
struct Engine<'a> {
    policy: Policy,
    protocol: &'a mut dyn FlProtocol,
    system: &'a mut FlSystem,
    faults: Option<FaultConfig>,
    plan: Option<FaultPlan>,
    compressor: Option<Box<dyn Compressor + Send + Sync>>,
    rounds: usize,
    eval_every: usize,
    rng: StdRng,
    sched: Scheduler<Delivery>,
    in_flight: Vec<bool>,
    result: RunResult,
    /// Laps once per published event.
    stopwatch: Stopwatch,
}

/// The engine's one entry: run `system.config().rounds` rounds of `protocol`
/// under `mode`, streaming one [`RoundEvent`] per round (per server version
/// in buffered mode) to `sink` when one is given.
///
/// The async configuration, the protocol and the system's evaluation,
/// fault, compression and privacy configurations are validated before round
/// 0; an invalid one returns its error without touching the system.
pub fn run(
    mode: &RuntimeMode,
    protocol: &mut dyn FlProtocol,
    system: &mut FlSystem,
    mut sink: Option<&mut (dyn EventSink + '_)>,
) -> Result<RunResult, String> {
    let mut engine = Engine::start(mode, protocol, system, sink.as_deref_mut())?;
    // Pipelined by one evaluation: the previous round's rides this round's
    // pool call, and its event goes out as soon as the pool has joined.
    let mut previous: Option<Closed> = None;
    for index in 0..engine.rounds {
        let evaluate = previous.as_ref().and_then(|closed| closed.evaluate);
        let (mut round, eval) = engine.dispatch(index, evaluate);
        if let Some(closed) = previous.take() {
            engine.publish(closed, eval, sink.as_deref_mut());
        }
        engine.admit(&mut round);
        previous = Some(engine.commit(round));
    }
    // The last round has no next dispatch to ride.
    if let Some(closed) = previous {
        let eval = closed
            .evaluate
            .map(|round| engine.system.evaluate_final(round));
        engine.publish(closed, eval, sink);
    }
    Ok(engine.result)
}

/// The six shorthands (the protocols' `run`, `baselines::run_global`) for
/// tests and examples: lockstep, no sink, a panic naming `label` on `Err`.
#[expect(
    clippy::panic,
    reason = "the documented panic of the six shorthand entry points; fallible callers use run"
)]
pub(crate) fn run_or_panic(
    label: &str,
    protocol: &mut dyn FlProtocol,
    system: &mut FlSystem,
) -> RunResult {
    run(&RuntimeMode::Sync, protocol, system, None)
        .unwrap_or_else(|e| panic!("invalid {label} configuration: {e}"))
}

impl<'a> Engine<'a> {
    /// Validate every configuration of the run, draw the fault plan, call
    /// the protocol's `begin` hook and announce the run to `sink`: the
    /// engine as it stands before round 0.
    fn start(
        mode: &RuntimeMode,
        protocol: &'a mut dyn FlProtocol,
        system: &'a mut FlSystem,
        sink: Option<&mut (dyn EventSink + '_)>,
    ) -> Result<Self, String> {
        let policy = match mode {
            RuntimeMode::Sync => Policy::Lockstep,
            RuntimeMode::Async(cfg) => {
                cfg.validate()
                    .map_err(|e| format!("invalid async runtime configuration: {e}"))?;
                Policy::Buffered(*cfg)
            }
        };
        protocol
            .validate()
            .map_err(|e| format!("invalid {} configuration: {e}", protocol.name()))?;
        let cfg = system.config();
        if cfg.eval_negatives == 0 {
            return Err(
                "invalid evaluation configuration: eval_negatives must be at least 1, got 0".into(),
            );
        }
        let faults = cfg.faults.clone();
        if let Some(fc) = &faults {
            fc.validate()
                .map_err(|e| format!("invalid fault configuration: {e}"))?;
        }
        if let Some(c) = &cfg.compression {
            c.validate()
                .map_err(|e| format!("invalid compression configuration: {e}"))?;
        }
        if let Some(p) = &cfg.privacy {
            p.validate()
                .map_err(|e| format!("invalid privacy configuration: {e}"))?;
        }
        let compressor = cfg.compression.map(|c| c.build());
        let rounds = cfg.rounds;
        let eval_every = cfg.eval_every.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ protocol.seed_tweak());
        // The fault schedule is pre-sampled from its own stream so turning it
        // on never perturbs the protocol/init/eval draws below.
        let plan = faults
            .as_ref()
            .map(|fc| FaultPlan::generate(fc, rounds, system.num_clients(), cfg.seed));
        protocol.begin(system, &mut rng);
        if let Some(sink) = sink {
            sink.begin_run(&protocol.name(), rounds);
        }
        Ok(Engine {
            policy,
            in_flight: vec![false; system.num_clients()],
            protocol,
            system,
            faults,
            plan,
            compressor,
            rounds,
            eval_every,
            rng,
            sched: Scheduler::new(),
            result: RunResult::default(),
            stopwatch: Stopwatch::start(),
        })
    }

    /// Open round `index`: select and mask clients, give each its fault
    /// verdict and its landing tick, run the reporting clients' local
    /// updates on the worker pool — and beside them the evaluation of round
    /// `evaluate`, handed back with the round — and schedule every report
    /// that will ever arrive. Downlink is charged for every dispatched
    /// client.
    fn dispatch(&mut self, index: usize, evaluate: Option<usize>) -> (Round, Option<EvalResult>) {
        let selected = self
            .protocol
            .select_clients(self.system, index, &mut self.rng);
        let active = self.policy.eligible(selected, &self.in_flight);
        let mut masks = self
            .protocol
            .build_masks(self.system, &active, index, &mut self.rng);
        debug_assert_eq!(masks.len(), active.len(), "one mask per dispatched client");
        let mut round = Round {
            index,
            mask_density: mean_mask_density(&masks),
            observations: Vec::new(),
            buffer: Vec::new(),
            charges: Vec::new(),
            active,
        };

        let verdicts: Vec<Option<FaultKind>> = round
            .active
            .iter()
            .map(|&c| self.plan.as_ref().and_then(|p| p.fault_at(index, c)))
            .collect();
        // Where each position's report lands; `None` for a dropout and for
        // a report the run ends before.
        let now = self.sched.now();
        let mut lands: Vec<Option<Tick>> = Vec::with_capacity(verdicts.len());
        for (pos, verdict) in verdicts.iter().enumerate() {
            let straggle = match *verdict {
                Some(FaultKind::Straggler { delay }) => Some(delay),
                _ => None,
            };
            let (tick, effect) = match *verdict {
                Some(FaultKind::Dropout) => (None, Some(FaultEffect::Dropout)),
                _ => self.policy.latency(now, index, self.rounds, straggle),
            };
            lands.push(tick);
            if let Some(effect) = effect {
                round.observe(self.policy.rank(0, pos), round.active[pos], effect);
            }
        }

        // Dropped clients never report, so their local compute is skipped
        // outright; stragglers and corrupted clients still train.
        let reporting: Vec<usize> = (0..verdicts.len())
            .filter(|&pos| verdicts[pos] != Some(FaultKind::Dropout))
            .collect();
        let clients: Vec<usize> = reporting.iter().map(|&pos| round.active[pos]).collect();
        let penalties: Vec<_> = clients
            .iter()
            .map(|&c| self.protocol.local_regularizer(self.system, c, index))
            .collect();
        // Mask-then-compress: the protocol's mask picked the units, the
        // codec prices them. A report that never lands is trained but
        // neither encoded nor charged: its bytes never transfer.
        let orders: Vec<ReportOrder<'_>> = reporting
            .iter()
            .map(|&pos| ReportOrder {
                corruption: match verdicts[pos] {
                    Some(FaultKind::Corruption(kind)) => Some(kind),
                    _ => None,
                },
                encode: lands[pos].map(|_| masks[pos].as_slice()),
            })
            .collect();
        let compressor = self.compressor.as_deref();
        let (reports, eval) = self
            .system
            .run_reports(&clients, index, &penalties, &orders, compressor, evaluate);

        // The dispatch-time broadcast every encoded report of this round
        // decodes against, however many rounds later it arrives.
        let reference = compressor.map(|_| Arc::new(self.system.global.clone()));
        let sizes = self.system.unit_sizes();
        for (pos, (ret, report)) in reporting.into_iter().zip(reports) {
            let Some(tick) = lands[pos] else { continue };
            let mask = std::mem::take(&mut masks[pos]);
            let (charge, payload) = match (report, &reference) {
                (Some(report), Some(reference)) => {
                    let reference = Arc::clone(reference);
                    (report.charge(), Some(InFlight { report, reference }))
                }
                _ => (UplinkCharge::from_mask(&mask, &sizes), None),
            };
            self.in_flight[ret.client] = true;
            // The report carries its compressed payload (and its reference)
            // across however many ticks its latency spans.
            self.sched.schedule_at(
                tick,
                Delivery {
                    client: ret.client,
                    dispatch_pos: pos,
                    dispatch_round: index,
                    ret,
                    mask,
                    charge,
                    payload,
                },
            );
        }
        (round, eval)
    }

    /// Service arrivals until `round` is due to flush. Each report is
    /// decoded and charged at the server arrival point, judged by the
    /// server-side guard, and admitted at its staleness weight. On return,
    /// every encoded report left in the queue has released its
    /// full-precision values (see the [`runtime`](crate::runtime) module
    /// docs): in either policy, a report crosses a round boundary as its
    /// payload and its reference.
    fn admit(&mut self, round: &mut Round) {
        while !self
            .policy
            .flush_due(round.buffer.len(), self.sched.next_tick(), round.index)
        {
            let Some((_, mut d)) = self.sched.pop() else {
                break;
            };
            self.in_flight[d.client] = false;
            // Decompress before any guard or aggregation sees the report —
            // a stale arrival carried its compressed payload (and nothing
            // else of its parameters) across rounds and is rebuilt from its
            // dispatch-time broadcast.
            decode_arrival(&mut d);
            // Uplink is charged at arrival: the bytes crossed the wire
            // before inspection, so rejected and discarded reports pay too.
            round.charges.push(d.charge);
            let staleness = round.index - d.dispatch_round;
            let rank = self.policy.rank(staleness, d.dispatch_pos);
            // The guard applies to every arriving report in every
            // configuration, so a client whose training diverged on its own
            // is caught here too; only the norm bound is the fault plan's.
            let max_norm = self.faults.as_ref().and_then(|fc| fc.max_update_norm);
            let rejection = detect_rejection(&d.ret, max_norm);
            if let Some(effect) = rejection {
                round.observe(rank, d.client, effect);
                continue;
            }
            match self.policy.stale_weight(staleness, self.faults.as_ref()) {
                Some(weight) => {
                    if staleness > 0 {
                        let effect = FaultEffect::StaleApplied { staleness, weight };
                        round.observe(rank, d.client, effect);
                    }
                    round.buffer.push((rank, d, weight));
                }
                None => round.observe(rank, d.client, FaultEffect::StaleDiscarded { staleness }),
            }
        }
        // Whatever is still queued has outlived the round it was dispatched
        // in. An encoded report is rebuilt from its payload when it lands,
        // so it waits as that alone; only the same-round reports above
        // decode into the buffer their worker allocated.
        for d in self.sched.waiting_mut() {
            if d.payload.is_some() {
                d.ret.params.release();
            }
        }
    }

    /// Close `round`: aggregate the admitted reports with renormalised
    /// weights (Eq. 6), account the bytes that actually moved, run the
    /// protocol's fault and post-aggregate hooks and the activation trace.
    /// The round's record comes back for [`Engine::publish`]; from here to
    /// the next pool's join nothing writes `system.global`.
    fn commit(&mut self, round: Round) -> Closed {
        let Round {
            index,
            active,
            mask_density,
            mut observations,
            mut buffer,
            charges,
        } = round;
        // Stable sorts: equal ranks stay in arrival order.
        buffer.sort_by_key(|&(rank, ..)| rank);
        observations.sort_by_key(|&(rank, _)| rank);
        let observations: Vec<FaultObserved> = observations.into_iter().map(|(_, o)| o).collect();

        let contributions: Vec<WeightedReturn<'_>> = buffer
            .iter()
            .map(|(_, d, weight)| WeightedReturn {
                ret: &d.ret,
                mask: &d.mask,
                scale: *weight,
            })
            .collect();
        self.system.aggregate_weighted(&contributions);
        let comm = self.system.round_comm_charges(active.len(), &charges);
        // Protocols that activate no one (the Global baseline) keep an empty
        // comm log — but a round whose only traffic is a stale straggler
        // arrival still moved bytes, so it stays on the ledger even when
        // nobody was selected. The test is on the *charged*
        // (post-compression) traffic: a stale report whose codec compressed
        // it away entirely (top-k with k = 0 everywhere) moved nothing, so
        // it must not resurrect the round — the pre-compression unit-count
        // test would have double-counted such rounds onto the ledger.
        if !active.is_empty() || comm.has_uplink() {
            self.result.comm.push(comm);
        }
        // The fault hook is only called under fault injection. Staleness
        // records caused purely by K-buffering (no faults configured) are
        // still reported in the result.
        if self.faults.is_some() && !observations.is_empty() {
            self.protocol.on_faults(self.system, &observations, index);
        }
        let returns: Vec<ClientReturn> = buffer
            .into_iter()
            .filter(|(rank, ..)| !rank.held)
            .map(|(_, d, _)| d.ret)
            .collect();
        let outcome =
            self.protocol
                .post_aggregate(self.system, &active, &returns, index, &mut self.rng);
        if self.protocol.traces_activation() {
            self.result.activation_trace.push(ActivationSnapshot {
                active_clients: active.clone(),
                mask_density,
                deactivated: outcome.deactivated.clone(),
                reactivated: outcome.reactivated.clone(),
                restarted: outcome.restarted,
            });
        }
        self.result.faults.extend_from_slice(&observations);
        let due = (index + 1) % self.eval_every == 0 || index + 1 == self.rounds;
        Closed {
            event: RoundEvent {
                round: index,
                active_clients: active,
                mask_density,
                comm,
                deactivated: outcome.deactivated,
                reactivated: outcome.reactivated,
                restarted: outcome.restarted,
                faults: observations,
                eval: None,
                wall_ms: 0.0,
            },
            evaluate: due.then_some(index),
        }
    }

    /// Complete a committed round with its evaluation, when one was due —
    /// the curve point, `final_eval` — and emit its event.
    fn publish(
        &mut self,
        closed: Closed,
        eval: Option<EvalResult>,
        sink: Option<&mut (dyn EventSink + '_)>,
    ) {
        let mut event = closed.event;
        if let Some(eval) = eval {
            let point = RoundEval {
                round: event.round,
                roc_auc: eval.roc_auc,
                mrr: eval.mrr,
            };
            self.result.curve.push(point);
            self.result.final_eval = eval;
            event.eval = Some(point);
        }
        event.wall_ms = self.stopwatch.lap_ms();
        if let Some(sink) = sink {
            sink.on_round(&event);
        }
    }
}

/// Mean fraction of requested units per mask; `0.0` for an empty mask set.
fn mean_mask_density(masks: &[Vec<bool>]) -> f64 {
    if masks.is_empty() {
        return 0.0;
    }
    masks
        .iter()
        .map(|m| {
            if m.is_empty() {
                0.0
            } else {
                m.iter().filter(|&&b| b).count() as f64 / m.len() as f64
            }
        })
        .sum::<f64>()
        / masks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MemorySink;
    use crate::system::tests::{tiny_system, tiny_system_with};
    use crate::{Compression, FedAvg, FedDa, PrivacyConfig, StalenessPolicy};

    #[test]
    fn mask_density_handles_edge_cases() {
        assert_eq!(mean_mask_density(&[]), 0.0);
        assert_eq!(mean_mask_density(&[vec![]]), 0.0);
        assert_eq!(
            mean_mask_density(&[vec![true, false], vec![true, true]]),
            0.75
        );
    }

    #[test]
    fn driver_rejects_invalid_protocols_before_touching_the_system() {
        let mut sys = tiny_system(2, 40);
        let before = sys.global.flatten();
        let mut bad = FedAvg {
            client_fraction: 0.0,
            param_fraction: 1.0,
        };
        let err = RoundDriver::new().run(&mut bad, &mut sys).unwrap_err();
        assert!(err.contains("client_fraction"), "unexpected error: {err}");
        assert_eq!(sys.global.flatten(), before, "system must be untouched");
    }

    #[test]
    fn engine_rejects_invalid_privacy_before_touching_the_system() {
        let mut sys = tiny_system_with(2, 42, |cfg| {
            cfg.privacy = Some(PrivacyConfig {
                clip_norm: 0.0,
                noise_multiplier: 0.1,
            })
        });
        let before = sys.global.flatten();
        for mode in [
            RuntimeMode::Sync,
            RuntimeMode::Async(AsyncConfig::default()),
        ] {
            assert_eq!(
                run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap_err(),
                "invalid privacy configuration: clip_norm must be positive"
            );
        }
        assert_eq!(sys.global.flatten(), before, "system must be untouched");
    }

    /// Without the check this is `hgn::trainer::score`'s assertion firing at
    /// the end of round 0 — on a pool worker, with the system already moved.
    #[test]
    fn engine_rejects_zero_eval_negatives_before_touching_the_system() {
        let mut sys = tiny_system_with(2, 43, |cfg| cfg.eval_negatives = 0);
        let before = sys.global.flatten();
        for mode in [
            RuntimeMode::Sync,
            RuntimeMode::Async(AsyncConfig::default()),
        ] {
            assert_eq!(
                run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap_err(),
                "invalid evaluation configuration: eval_negatives must be at least 1, got 0"
            );
        }
        assert_eq!(sys.global.flatten(), before, "system must be untouched");
    }

    #[test]
    fn driver_emits_one_event_per_round() {
        let mut sys = tiny_system(3, 41);
        let mut sink = MemorySink::new();
        let result = RoundDriver::with_sink(&mut sink)
            .run(&mut FedAvg::vanilla(), &mut sys)
            .unwrap();
        let rounds = sys.config().rounds;
        assert_eq!(sink.runs, vec![("FedAvg".to_string(), rounds)]);
        assert_eq!(sink.events.len(), rounds);
        for (i, (event, rc)) in sink.events.iter().zip(result.comm.rounds()).enumerate() {
            assert_eq!(event.round, i);
            assert_eq!(event.active_clients, vec![0, 1, 2]);
            assert_eq!(event.mask_density, 1.0);
            assert_eq!(&event.comm, rc);
            assert!(event.eval.is_some(), "eval_every=1 evaluates every round");
            assert!(event.wall_ms >= 0.0);
        }
    }

    #[test]
    fn async_config_validates_ranges() {
        assert!(AsyncConfig::default().validate().is_ok());
        assert!(AsyncConfig { k: 0, gamma: 0.9 }.validate().is_err());
        assert!(AsyncConfig { k: 2, gamma: 0.0 }.validate().is_err());
        assert!(AsyncConfig { k: 2, gamma: 1.5 }.validate().is_err());
        assert!(AsyncConfig {
            k: 2,
            gamma: f64::NAN
        }
        .validate()
        .is_err());
        assert!(AsyncConfig { k: 1, gamma: 1.0 }.validate().is_ok());
    }

    #[test]
    fn runtime_mode_defaults_to_sync() {
        assert_eq!(RuntimeMode::default(), RuntimeMode::Sync);
    }

    #[test]
    fn async_run_completes_all_versions_and_evaluates() {
        let mut sys = tiny_system(4, 21);
        let mut driver = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 });
        let result = driver.run(&mut FedAvg::vanilla(), &mut sys).unwrap();
        let rounds = sys.config().rounds;
        assert_eq!(
            result.curve.len(),
            rounds,
            "eval_every=1 evaluates every version"
        );
        assert_eq!(result.comm.rounds().len(), rounds);
        assert!(result.final_eval.roc_auc.is_finite());
        // K=2 < wave size 4: the leftovers arrive stale at later versions.
        assert!(
            result
                .faults
                .iter()
                .any(|o| matches!(o.effect, FaultEffect::StaleApplied { .. })),
            "K-buffering must surface staleness records"
        );
    }

    #[test]
    fn async_with_k_at_wave_size_has_no_staleness() {
        let mut sys = tiny_system(3, 22);
        let mut driver = AsyncDriver::new(AsyncConfig { k: 3, gamma: 0.9 });
        let result = driver.run(&mut FedAvg::vanilla(), &mut sys).unwrap();
        assert!(
            result.faults.is_empty(),
            "K == wave size aggregates only fresh reports: {:?}",
            result.faults
        );
        // Every byte both ways: full fresh participation each version.
        for rc in result.comm.rounds() {
            assert_eq!(rc.active_clients, 3);
            assert_eq!(rc.uplink_units, 3 * sys.num_units());
        }
    }

    #[test]
    fn async_rejects_invalid_configs_before_touching_the_system() {
        let mut sys = tiny_system(2, 23);
        let before = sys.global.flatten();
        let mode = RuntimeMode::Async(AsyncConfig { k: 0, gamma: 0.9 });
        assert_eq!(
            run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap_err(),
            "invalid async runtime configuration: async k must be at least 1"
        );
        assert_eq!(sys.global.flatten(), before, "system must be untouched");
    }

    /// Steps the engine by hand and looks into the queue after every
    /// `admit`: an encoded report crosses a round boundary as its payload
    /// alone, an uncompressed one as its parameters.
    #[test]
    fn waiting_encoded_reports_own_no_parameters() {
        let stragglers = FaultConfig {
            straggler: 0.5,
            max_staleness: 2,
            staleness: StalenessPolicy::Discount { gamma: 0.5 },
            ..Default::default()
        };
        let modes = [
            // K below the dispatch size: half of each wave waits.
            (RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 }), None),
            (RuntimeMode::Sync, Some(stragglers)),
        ];
        for (mode, faults) in modes {
            for compression in [Some(Compression::QuantI8), None] {
                let mut sys = tiny_system_with(4, 26, |cfg| {
                    cfg.rounds = 4;
                    cfg.faults = faults.clone();
                    cfg.compression = compression;
                });
                let mut protocol = FedAvg::vanilla();
                let mut engine = Engine::start(&mode, &mut protocol, &mut sys, None).unwrap();
                let mut waited = 0;
                for index in 0..engine.rounds {
                    let (mut round, _) = engine.dispatch(index, None);
                    engine.admit(&mut round);
                    for d in engine.sched.waiting_mut() {
                        waited += 1;
                        assert_eq!(
                            d.ret.params.is_empty(),
                            compression.is_some(),
                            "{mode:?}, {compression:?}, round {index}, client {}",
                            d.client
                        );
                        assert_eq!(d.payload.is_some(), compression.is_some());
                    }
                    engine.commit(round);
                }
                assert!(waited > 0, "{mode:?}: nothing ever waited");
                let applied =
                    |o: &FaultObserved| matches!(o.effect, FaultEffect::StaleApplied { .. });
                assert!(
                    engine.result.faults.iter().any(applied),
                    "{mode:?}: no report that waited was aggregated"
                );
            }
        }
    }

    /// Local training that overflows, and no fault plan: the server guard
    /// still rejects every non-finite report, records each one once, and
    /// Eq. 6 never sees it — the global stays at its finite start.
    #[test]
    fn diverged_reports_are_rejected_without_a_fault_plan() {
        let modes = [
            RuntimeMode::Sync,
            RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 }),
        ];
        for mode in modes {
            let mut sys = tiny_system_with(3, 44, |cfg| {
                cfg.train.lr = 1e30;
                cfg.train.local_epochs = 2;
            });
            let before = sys.global.flatten();
            let result = run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap();
            assert_eq!(
                sys.global.flatten(),
                before,
                "{mode:?}: a report was admitted"
            );
            let rejected: Vec<(usize, usize)> = result
                .faults
                .iter()
                .map(|o| {
                    let effect = FaultEffect::CorruptionRejected { non_finite: true };
                    assert_eq!(o.effect, effect, "{mode:?}");
                    (o.round, o.client)
                })
                .collect();
            let every_report: Vec<(usize, usize)> = (0..sys.config().rounds)
                .flat_map(|round| (0..3).map(move |client| (round, client)))
                .collect();
            assert_eq!(rejected, every_report, "{mode:?}");
            assert!(result.final_eval.roc_auc.is_finite());
        }
    }

    #[test]
    fn async_fedda_traces_activation_per_version() {
        let mut sys = tiny_system(4, 24);
        let mut protocol = FedDa::explore().protocol();
        let result = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.5 })
            .run(&mut protocol, &mut sys)
            .unwrap();
        assert_eq!(result.activation_trace.len(), sys.config().rounds);
        assert!(result.final_eval.roc_auc.is_finite());
    }

    #[test]
    fn async_same_seed_is_bit_identical() {
        let run = || {
            let mut sys = tiny_system(4, 25);
            AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 })
                .run(&mut FedAvg::vanilla(), &mut sys)
                .map(|r| {
                    (
                        r.curve
                            .iter()
                            .map(|e| (e.round, e.roc_auc.to_bits(), e.mrr.to_bits()))
                            .collect::<Vec<_>>(),
                        sys.global
                            .flatten()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                    )
                })
                .unwrap()
        };
        assert_eq!(run(), run());
    }
}
