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
//!    charged to the ledger, passed through the server-side guard and
//!    weighted by their staleness, until the round is due to flush;
//! 3. **commit** — Eq. 6 over the admitted reports with renormalised
//!    weights (an encoded report is decoded unit by unit as it is folded),
//!    the comm ledger entry, the protocol's `on_faults` and
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
//! dispatch to ride and runs after its commit as a pool call of its own
//! (`FlSystem::evaluate_global`) — so every evaluation runs in worker slot
//! 0's workspace, on worker 0's thread. Two facts make this safe: each pool
//! call reads its own snapshot of `system.global`, taken at dispatch while
//! the global is frozen between a commit and the next dispatch (every hook
//! dispatch calls takes `&FlSystem`; only `post_aggregate` and Eq. 6 write
//! it), and each evaluation round owns its RNG stream. A one-worker pool
//! runs the same tasks inline on the server thread. A round's `wall_ms` is
//! the time since the previous event was emitted (since the run's start for
//! round 0), so the events' `wall_ms` still sum to the run's wall time.
//!
//! # The arrival policy
//!
//! [`run`] takes the runtime as a [`RuntimeMode`]: synchronous lockstep or
//! FedBuff-style buffered asynchrony. ([`RoundDriver`] and [`AsyncDriver`]
//! are one-line constructors over it, kept for the benchmark package.) The
//! two modes differ in the five decisions tabulated in the crate docs —
//! eligibility, latency, flush trigger, staleness weight, order at flush —
//! each one private method of [`RuntimeMode`], and in nothing else that
//! moves a bit. With no fault plan and `K` at the federation size the two
//! coincide: every report is fresh, arrives in dispatch order and flushes
//! together, so both runtimes produce the same bits
//! (`buffered_with_k_at_federation_size_equals_lockstep`).
//!
//! # Determinism
//!
//! Selection/mask/post-aggregate RNG draws happen in round order, the
//! event queue is totally ordered, client training is a pure function of
//! `(client seed, dispatch round, broadcast)`, and the worker-pool size
//! never changes results: same seed → bit-identical run at any pool size.
//! The seeded behaviour of every protocol under both runtimes is pinned by
//! the `golden_curves` tests.
//!
//! # Accounting
//!
//! Downlink is charged at dispatch (the broadcast happened), uplink when a
//! report *arrives* — at the compressed size under a codec, never for
//! dropouts and never for reports that do not land before the run ends.

use crate::compress::UplinkCharge;
use crate::events::{EventSink, RoundEvent};
use crate::faults::{
    detect_rejection, discount, FaultConfig, FaultEffect, FaultKind, FaultObserved, FaultPlan,
};
use crate::protocol::FlProtocol;
use crate::runtime::{Delivery, Scheduler, Tick};
use crate::system::{
    ActivationSnapshot, ClientReturn, FlSystem, ReportOrder, RoundEval, RunResult, WeightedReturn,
};
use fedda_hgn::EvalResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
pub struct RoundDriver<'a> {
    sink: Option<&'a mut dyn EventSink>,
}

impl<'a> RoundDriver<'a> {
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
/// Nothing else in the round loop looks at the variant.
impl RuntimeMode {
    /// (1) Eligibility: which of the protocol's selected clients are
    /// dispatched.
    fn eligible(&self, selected: Vec<usize>, in_flight: &[bool]) -> Vec<usize> {
        match self {
            RuntimeMode::Sync => selected,
            RuntimeMode::Async(_) => selected.into_iter().filter(|&c| !in_flight[c]).collect(),
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
            (RuntimeMode::Sync, None) => (Some(round as Tick), None),
            (RuntimeMode::Sync, Some(delay)) => {
                let arrival = Some(round + delay).filter(|&r| r < rounds);
                (
                    arrival.map(|r| r as Tick),
                    Some(FaultEffect::StragglerHeld { arrival }),
                )
            }
            (RuntimeMode::Async(_), _) => (Some(now + 1 + straggle.unwrap_or(0) as Tick), None),
        }
    }

    /// (3) Flush trigger: whether `round` aggregates now, with `buffered`
    /// reports admitted and the queue's next event at tick `next`. Both
    /// variants flush an empty queue.
    fn flush_due(&self, buffered: usize, next: Option<Tick>, round: usize) -> bool {
        match self {
            RuntimeMode::Sync => next.map_or(true, |tick| tick > round as Tick),
            RuntimeMode::Async(cfg) => buffered >= cfg.k || next.is_none(),
        }
    }

    /// (4) Staleness weight: the scale a report `staleness` rounds old
    /// enters Eq. 6 at, `None` to discard it.
    fn stale_weight(&self, staleness: usize, faults: Option<&FaultConfig>) -> Option<f64> {
        match (self, faults) {
            (RuntimeMode::Sync, Some(fc)) if staleness > 0 => fc.staleness.weight(staleness),
            (RuntimeMode::Sync, _) => Some(1.0),
            (RuntimeMode::Async(cfg), _) => Some(discount(cfg.gamma, staleness)),
        }
    }

    /// (5) Order at flush: the rank of whatever client position `pos` of
    /// its dispatch contributes `staleness` rounds later. Lockstep keeps the
    /// f64 accumulation order of a plain round loop — fresh reports in
    /// position order, held ones after — and the record stream the chaos
    /// harness pins; buffered execution has no position order to restore.
    fn rank(&self, staleness: usize, pos: usize) -> Rank {
        let (held, pos) = match self {
            RuntimeMode::Sync if staleness == 0 => (false, pos),
            RuntimeMode::Sync => (true, 0),
            RuntimeMode::Async(_) => (false, 0),
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
    mode: RuntimeMode,
    protocol: &'a mut dyn FlProtocol,
    system: &'a mut FlSystem,
    faults: Option<FaultConfig>,
    plan: Option<FaultPlan>,
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
/// The async configuration, the protocol and the system's configuration
/// ([`FlConfig::validate`](crate::FlConfig::validate)) are validated before
/// round 0; an invalid one returns its error without touching the system.
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
            .map(|round| engine.system.evaluate_global(round));
        engine.publish(closed, eval, sink);
    }
    Ok(engine.result)
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
        if let RuntimeMode::Async(cfg) = mode {
            cfg.validate()
                .map_err(|e| format!("invalid async runtime configuration: {e}"))?;
        }
        protocol
            .validate()
            .map_err(|e| format!("invalid {} configuration: {e}", protocol.name()))?;
        let cfg = system.config();
        cfg.validate()?;
        let faults = cfg.faults.clone();
        let rounds = cfg.rounds;
        let eval_every = cfg.eval_every;
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
            mode: mode.clone(),
            in_flight: vec![false; system.num_clients()],
            protocol,
            system,
            faults,
            plan,
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
        let active = self.mode.eligible(selected, &self.in_flight);
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
        // Where each position's report lands — `None` for a dropout and for
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
                _ => self.mode.latency(now, index, self.rounds, straggle),
            };
            lands.push(tick);
            if let Some(effect) = effect {
                round.observe(self.mode.rank(0, pos), round.active[pos], effect);
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
        let orders: Vec<ReportOrder> = reporting
            .iter()
            .map(|&pos| ReportOrder {
                corruption: match verdicts[pos] {
                    Some(FaultKind::Corruption(kind)) => Some(kind),
                    _ => None,
                },
                mask: lands[pos].map(|_| masks[pos].clone()),
            })
            .collect();
        let (reports, eval) = self
            .system
            .run_reports(&clients, index, penalties, orders, evaluate);

        let sizes = self.system.unit_sizes();
        for (pos, ret) in reporting.into_iter().zip(reports) {
            let Some(tick) = lands[pos] else { continue };
            let mask = std::mem::take(&mut masks[pos]);
            let charge = match &ret.encoded {
                Some(encoded) => encoded.report.charge(),
                None => UplinkCharge::from_mask(&mask, &sizes),
            };
            self.in_flight[ret.client] = true;
            // An encoded report carries its payload and its dispatch-time
            // reference across however many ticks its latency spans.
            self.sched.schedule_at(
                tick,
                Delivery {
                    client: ret.client,
                    dispatch_pos: pos,
                    dispatch_round: index,
                    ret,
                    mask,
                    charge,
                    payload: None,
                },
            );
        }
        (round, eval)
    }

    /// Service arrivals until `round` is due to flush. Each report is
    /// charged at the server arrival point, judged by the server-side guard
    /// on the `unit_delta` its client task measured (of the reconstruction,
    /// for an encoded report), and admitted at its staleness weight.
    fn admit(&mut self, round: &mut Round) {
        while !self
            .mode
            .flush_due(round.buffer.len(), self.sched.next_tick(), round.index)
        {
            let Some((_, d)) = self.sched.pop() else {
                break;
            };
            self.in_flight[d.client] = false;
            // Uplink is charged at arrival: the bytes crossed the wire
            // before inspection, so rejected and discarded reports pay too.
            round.charges.push(d.charge);
            let staleness = round.index - d.dispatch_round;
            let rank = self.mode.rank(staleness, d.dispatch_pos);
            // The guard applies to every arriving report in every
            // configuration, so a client whose training diverged on its own
            // is caught here too; only the norm bound is the fault plan's.
            let max_norm = self.faults.as_ref().and_then(|fc| fc.max_update_norm);
            let rejection = detect_rejection(&d.ret, max_norm);
            if let Some(effect) = rejection {
                round.observe(rank, d.client, effect);
                continue;
            }
            match self.mode.stale_weight(staleness, self.faults.as_ref()) {
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
    use crate::{
        Compression, FedAdam, FedAvg, FedDa, FedDyn, FlConfig, GlobalProtocol, PrivacyConfig,
        StalenessPolicy,
    };
    use std::collections::BTreeMap;

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
        let err = run(&RuntimeMode::Sync, &mut bad, &mut sys, None).unwrap_err();
        assert!(err.contains("client_fraction"), "unexpected error: {err}");
        assert_eq!(sys.global.flatten(), before, "system must be untouched");
    }

    /// Runs the tiny federation with `edit` applied under both runtimes: each
    /// must refuse the configuration with `want` before round 0 and leave the
    /// global model untouched.
    fn assert_rejected(edit: fn(&mut FlConfig), want: &str) {
        let mut sys = tiny_system_with(2, 42, edit);
        let before = sys.global.flatten();
        for mode in [
            RuntimeMode::Sync,
            RuntimeMode::Async(AsyncConfig::default()),
        ] {
            let err = run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap_err();
            assert_eq!(err, want, "{mode:?}");
        }
        assert_eq!(
            sys.global.flatten(),
            before,
            "{want}: system must be untouched"
        );
    }

    fn privacy(clip_norm: f32, noise_multiplier: f32) -> Option<PrivacyConfig> {
        Some(PrivacyConfig {
            clip_norm,
            noise_multiplier,
        })
    }

    #[test]
    fn engine_rejects_invalid_privacy_before_touching_the_system() {
        assert_rejected(
            |c| c.privacy = privacy(0.0, 0.1),
            "invalid privacy configuration: clip_norm must be positive",
        );
    }

    /// A NaN noise multiplier would skip the noise silently; an infinite
    /// clip norm would make the noise infinite and every report rejected.
    #[test]
    fn engine_rejects_non_finite_privacy_before_touching_the_system() {
        assert_rejected(
            |c| c.privacy = privacy(1.0, f32::NAN),
            "invalid privacy configuration: noise_multiplier must be finite, got NaN",
        );
        assert_rejected(
            |c| c.privacy = privacy(f32::INFINITY, 0.1),
            "invalid privacy configuration: clip_norm must be finite, got inf",
        );
    }

    /// Without the check a zero epoch count is `train_local_penalized`'s
    /// assertion firing on a pool worker in round 0.
    #[test]
    fn engine_rejects_invalid_training_before_touching_the_system() {
        let training = |want: &str| format!("invalid training configuration: {want}");
        assert_rejected(
            |c| c.train.local_epochs = 0,
            &training("local_epochs must be at least 1, got 0"),
        );
        assert_rejected(
            |c| c.train.lr = 0.0,
            &training("lr must be finite and positive, got 0"),
        );
        assert_rejected(
            |c| c.train.lr = f32::NAN,
            &training("lr must be finite and positive, got NaN"),
        );
        assert_rejected(
            |c| c.train.grad_clip = -1.0,
            &training("grad_clip must be finite and non-negative, got -1"),
        );
    }

    /// Without the check `WorkerPool::new(0)` silently ran one worker.
    #[test]
    fn engine_rejects_a_zero_worker_pool_before_touching_the_system() {
        let want = "invalid worker configuration: workers must be at least 1, got 0";
        assert_rejected(
            |c| {
                c.parallel = true;
                c.workers = Some(0);
            },
            want,
        );
        assert_rejected(
            |c| {
                c.parallel = false;
                c.workers = Some(0);
            },
            want,
        );
    }

    /// Without the check this is `hgn::trainer::score`'s assertion firing at
    /// the end of round 0 — on a pool worker, with the system already moved.
    #[test]
    fn engine_rejects_zero_eval_negatives_before_touching_the_system() {
        assert_rejected(
            |c| c.eval_negatives = 0,
            "invalid evaluation configuration: eval_negatives must be at least 1, got 0",
        );
    }

    /// Without the check a `0` cadence was silently read as `1`, where the
    /// command line refuses it.
    #[test]
    fn engine_rejects_zero_eval_every_before_touching_the_system() {
        assert_rejected(
            |c| c.eval_every = 0,
            "invalid evaluation configuration: eval_every must be at least 1, got 0",
        );
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
        let mode = RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 });
        let result = run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap();
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
        let mode = RuntimeMode::Async(AsyncConfig { k: 3, gamma: 0.9 });
        let result = run(&mode, &mut FedAvg::vanilla(), &mut sys, None).unwrap();
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

    /// Whether a report holds what crossed the wire and nothing more: an
    /// encoded one its payload and reference but no parameter values, any
    /// other its values and no encoding.
    fn holds_what_crossed(ret: &ClientReturn, codec: Option<Compression>) -> bool {
        match codec {
            Some(_) => ret.encoded.is_some() && ret.params.is_empty(),
            None => ret.encoded.is_none() && !ret.params.is_empty(),
        }
    }

    /// FedDyn — whose `post_aggregate` reads every report's values — with
    /// [`holds_what_crossed`] asserted on each return it is handed.
    struct Probe {
        inner: FedDyn,
        codec: Option<Compression>,
        seen: usize,
    }

    impl FlProtocol for Probe {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn begin(&mut self, system: &FlSystem, rng: &mut StdRng) {
            self.inner.begin(system, rng);
        }

        fn select_clients(
            &mut self,
            system: &FlSystem,
            round: usize,
            rng: &mut StdRng,
        ) -> Vec<usize> {
            self.inner.select_clients(system, round, rng)
        }

        fn local_regularizer(
            &mut self,
            system: &FlSystem,
            client: usize,
            round: usize,
        ) -> Option<crate::LocalPenalty> {
            self.inner.local_regularizer(system, client, round)
        }

        fn post_aggregate(
            &mut self,
            system: &mut FlSystem,
            active: &[usize],
            returns: &[ClientReturn],
            round: usize,
            rng: &mut StdRng,
        ) -> crate::StepOutcome {
            for ret in returns {
                let client = ret.client;
                assert!(
                    holds_what_crossed(ret, self.codec),
                    "round {round}, client {client}"
                );
            }
            self.seen += returns.len();
            self.inner
                .post_aggregate(system, active, returns, round, rng)
        }
    }

    /// Steps the engine by hand: at no point — queued after dispatch, queued
    /// past a flush, admitted into `Round::buffer`, handed to
    /// `post_aggregate` — does an encoded report hold parameter values, under
    /// either runtime, any codec, faults off or on; an uncompressed report
    /// holds its values throughout.
    #[test]
    fn waiting_encoded_reports_own_no_parameters() {
        let faults = FaultConfig {
            dropout: 0.1,
            straggler: 0.3,
            max_staleness: 2,
            corruption: 0.1,
            corruption_kind: crate::faults::Corruption::Garbage { scale: 1e6 },
            staleness: StalenessPolicy::Discount { gamma: 0.5 },
            max_update_norm: Some(1e3),
            ..Default::default()
        };
        let modes = [
            RuntimeMode::Sync,
            // K below the dispatch size: half of each wave waits.
            RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 }),
        ];
        let codecs = [
            None,
            Some(Compression::Identity),
            Some(Compression::QuantI8),
            Some(Compression::QuantF16),
            Some(Compression::TopK { frac: 0.25 }),
        ];
        for mode in modes {
            for faults in [None, Some(faults.clone())] {
                for codec in codecs {
                    let case = format!("{mode:?}, faults {}, {codec:?}", faults.is_some());
                    let mut sys = tiny_system_with(4, 26, |cfg| {
                        cfg.rounds = 4;
                        cfg.faults = faults.clone();
                        cfg.compression = codec;
                    });
                    let mut protocol = Probe {
                        inner: FedDyn::new(0.01),
                        codec,
                        seen: 0,
                    };
                    let mut engine = Engine::start(&mode, &mut protocol, &mut sys, None).unwrap();
                    let (mut waited, mut admitted) = (0, 0);
                    for index in 0..engine.rounds {
                        let (mut round, _) = engine.dispatch(index, None);
                        let queued = |engine: &Engine<'_>| {
                            engine
                                .sched
                                .waiting()
                                .all(|d| d.payload.is_none() && holds_what_crossed(&d.ret, codec))
                        };
                        assert!(queued(&engine), "{case}: dispatched, round {index}");
                        engine.admit(&mut round);
                        assert!(queued(&engine), "{case}: admitted, round {index}");
                        waited += engine.sched.waiting().count();
                        for (_, d, _) in &round.buffer {
                            assert!(holds_what_crossed(&d.ret, codec), "{case}: buffered");
                            admitted += 1;
                        }
                        engine.commit(round);
                    }
                    let applied =
                        |o: &FaultObserved| matches!(o.effect, FaultEffect::StaleApplied { .. });
                    let stale_applied = engine.result.faults.iter().any(applied);
                    drop(engine);
                    assert!(
                        admitted > 0 && protocol.seen > 0,
                        "{case}: nothing aggregated"
                    );
                    if faults.is_some() || mode != RuntimeMode::Sync {
                        assert!(waited > 0, "{case}: nothing ever waited");
                        assert!(
                            stale_applied,
                            "{case}: no report that waited was aggregated"
                        );
                    }
                }
            }
        }
    }

    /// Every encoded report's `unit_delta`, measured in its client task,
    /// is by `to_bits` that of `reconstruct(reference)` against the
    /// dispatch-time reference it carries — the broadcast it was trained
    /// from — under either runtime and every codec, punctual or straggling,
    /// and a corrupted report draws the guard verdict that reconstruction
    /// draws: the large Garbage and both non-finite corruptions are
    /// rejected, the small Garbage is not.
    #[test]
    fn encoded_reports_measure_their_reconstruction_in_their_task() {
        use crate::faults::{Corruption, ScriptedFault};
        let cell = |round, client, kind| ScriptedFault {
            round,
            client,
            kind,
        };
        let corrupt = |c| FaultKind::Corruption(c);
        let faults = FaultConfig {
            max_update_norm: Some(1e3),
            scripted: vec![
                cell(0, 0, FaultKind::Straggler { delay: 1 }),
                cell(0, 1, corrupt(Corruption::NaN)),
                cell(0, 2, corrupt(Corruption::Inf)),
                cell(0, 3, corrupt(Corruption::Garbage { scale: 1e9 })),
                cell(1, 1, FaultKind::Straggler { delay: 2 }),
                cell(1, 3, corrupt(Corruption::Garbage { scale: 2.0 })),
                cell(2, 2, FaultKind::Straggler { delay: 1 }),
            ],
            ..Default::default()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let modes = [
            RuntimeMode::Sync,
            RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 }),
        ];
        let codecs = [
            Compression::Identity,
            Compression::QuantI8,
            Compression::QuantF16,
            Compression::TopK { frac: 0.25 },
        ];
        for mode in modes {
            for codec in codecs {
                let mut sys = tiny_system_with(4, 26, |cfg| {
                    cfg.rounds = 4;
                    cfg.faults = Some(faults.clone());
                    cfg.compression = Some(codec);
                });
                let mut protocol = FedAvg::vanilla();
                let mut engine = Engine::start(&mode, &mut protocol, &mut sys, None).unwrap();
                // The guard verdict each queued report's reconstruction draws.
                let mut expected: BTreeMap<(usize, usize), Option<bool>> = BTreeMap::new();
                let mut rejected = Vec::new();
                for index in 0..engine.rounds {
                    let (mut round, _) = engine.dispatch(index, None);
                    for d in engine.sched.waiting() {
                        if d.dispatch_round != index {
                            continue;
                        }
                        let encoded = d.ret.encoded.as_ref().unwrap();
                        let reference = &encoded.reference;
                        assert_eq!(
                            bits(reference.values()),
                            bits(engine.system.global.values())
                        );
                        let params = encoded.report.reconstruct(reference);
                        let unit_delta = params.unit_l2_distances(reference);
                        let case = format!("{mode:?} {codec:?} round {index} client {}", d.client);
                        assert_eq!(bits(&d.ret.unit_delta), bits(&unit_delta), "{case}");
                        let rebuilt = ClientReturn {
                            client: d.client,
                            params,
                            unit_delta,
                            encoded: None,
                        };
                        let verdict = detect_rejection(&rebuilt, Some(1e3)).map(|effect| {
                            let FaultEffect::CorruptionRejected { non_finite } = effect else {
                                panic!("{case}: {effect:?}");
                            };
                            non_finite
                        });
                        expected.insert((index, d.client), verdict);
                    }
                    let before: Vec<(usize, usize)> = (engine.sched.waiting())
                        .map(|d| (d.dispatch_round, d.client))
                        .collect();
                    engine.admit(&mut round);
                    let after: Vec<(usize, usize)> = (engine.sched.waiting())
                        .map(|d| (d.dispatch_round, d.client))
                        .collect();
                    let mut want: Vec<(usize, bool)> = (before.iter())
                        .filter(|key| !after.contains(key))
                        .filter_map(|key| expected[key].map(|non_finite| (key.1, non_finite)))
                        .collect();
                    let mut got: Vec<(usize, bool)> = (round.observations.iter())
                        .filter_map(|(_, o)| match o.effect {
                            FaultEffect::CorruptionRejected { non_finite } => {
                                Some((o.client, non_finite))
                            }
                            _ => None,
                        })
                        .collect();
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, want, "{mode:?} {codec:?} round {index}");
                    rejected.extend(got);
                    engine.commit(round);
                }
                if mode == RuntimeMode::Sync {
                    // NaN, Inf and the large Garbage are rejected, nothing
                    // else; binary16 overflows the large Garbage to ±inf.
                    let overflows = codec == Compression::QuantF16;
                    let want = [(1, true), (2, true), (3, overflows)];
                    assert_eq!(rejected, want, "{codec:?}");
                }
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
        let mode = RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.5 });
        let result = run(&mode, &mut FedDa::explore(), &mut sys, None).unwrap();
        assert_eq!(result.activation_trace.len(), sys.config().rounds);
        assert!(result.final_eval.roc_auc.is_finite());
    }

    /// `begin` sizes every piece of a protocol's run state afresh, so one
    /// value serves runs one after another: a second run on a fresh system
    /// reproduces the first one's bits.
    #[test]
    fn a_protocol_value_serves_runs_one_after_another() {
        let protocols: [Box<dyn FlProtocol>; 4] = [
            Box::new(FedDa::explore()),
            Box::new(FedDyn::new(0.01)),
            Box::new(FedAdam::default()),
            Box::new(GlobalProtocol::new()),
        ];
        for mut protocol in protocols {
            let mut bits = || {
                let mut sys = tiny_system(3, 45);
                let result = run(&RuntimeMode::Sync, protocol.as_mut(), &mut sys, None).unwrap();
                let curve: Vec<u64> = result.curve.iter().map(|e| e.roc_auc.to_bits()).collect();
                let global: Vec<u32> = sys.global.values().iter().map(|v| v.to_bits()).collect();
                (curve, global, result.activation_trace)
            };
            let first = bits();
            assert_eq!(first, bits());
        }
    }

    #[test]
    fn async_same_seed_is_bit_identical() {
        let run_once = || {
            let mut sys = tiny_system(4, 25);
            let mode = RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 });
            run(&mode, &mut FedAvg::vanilla(), &mut sys, None)
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
        assert_eq!(run_once(), run_once());
    }
}
