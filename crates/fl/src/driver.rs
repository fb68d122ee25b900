//! The shared round loop every protocol runs on — a synchronous facade
//! over the event-driven [`runtime`](crate::runtime).
//!
//! [`RoundDriver::run`] owns the canonical federated round — broadcast to
//! the selected clients, parallel local updates, masked aggregation
//! (Eq. 6), communication accounting, activation tracing, the evaluation
//! cadence (`FlConfig::eval_every`) and structured [`RoundEvent`] emission
//! — while the [`FlProtocol`] hooks decide selection, masks and activation
//! dynamics. FedAvg, both FedDA strategies and the `Global` baseline all
//! execute through this loop; their seeded behaviour is pinned bit-for-bit
//! by the `golden_curves` regression tests.
//!
//! Internally round `r` occupies virtual tick `r`: the scheduler pops
//! `Dispatch(r)` (selection, masks, local training, arrival scheduling),
//! then this round's arrivals — stale straggler reports scheduled in
//! earlier rounds first (they carry older sequence numbers), then the
//! fresh reports — and finally `Seal(r)` (guard checks, Eq. 6 aggregation
//! over the mailbox, accounting, eval). Because every hook fires in the
//! same order, with the same RNG draws and the same f64 accumulation
//! order as the pre-runtime lockstep loop, sync results are bit-identical
//! to it; [`AsyncDriver`](crate::AsyncDriver) reuses the same runtime with
//! multi-tick latencies instead.

use crate::compress::{decode_arrival, Compressor, UplinkCharge};
use crate::dispatch::dispatch_reports;
use crate::events::{EventSink, RoundEvent};
use crate::faults::{
    detect_rejection, FaultConfig, FaultEffect, FaultKind, FaultObserved, FaultPlan,
};
use crate::protocol::FlProtocol;
use crate::runtime::{Delivery, Mailbox, Scheduler, Tick};
use crate::system::{ActivationSnapshot, FlSystem, RoundEval, RunResult, WeightedReturn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Events of the synchronous simulation: each round dispatches, collects
/// arrivals, and seals, all at its own tick.
enum SimEvent {
    /// Start round `round`: selection, masks, local training, scheduling
    /// of report arrivals.
    Dispatch { round: usize },
    /// A client report reaches the server (fresh at its dispatch tick,
    /// stale at `dispatch + delay` for held stragglers).
    Arrival(Delivery),
    /// Close round `round`: drain the mailbox, aggregate, account, eval.
    Seal { round: usize },
}

/// Per-round state carried from `Dispatch` to `Seal`.
struct RoundState {
    round: usize,
    active: Vec<usize>,
    mask_density: f64,
    /// One observation slot per active position, so dispatch-time effects
    /// (dropout, straggler-held) and seal-time effects (guard rejections)
    /// interleave in client-position order — the stream order the chaos
    /// harness pins.
    slots: Vec<Option<FaultObserved>>,
    started: Instant,
}

/// Executes an [`FlProtocol`] over an [`FlSystem`], optionally streaming
/// per-round [`RoundEvent`]s to an [`EventSink`].
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

    /// Run `system.config().rounds` rounds of `protocol`.
    ///
    /// Calls `protocol.validate()` before round 0 and returns its error
    /// without touching the system if the configuration is invalid.
    pub fn run(
        &mut self,
        protocol: &mut dyn FlProtocol,
        system: &mut FlSystem,
    ) -> Result<RunResult, String> {
        protocol
            .validate()
            .map_err(|e| format!("invalid {} configuration: {e}", protocol.name()))?;
        let fault_cfg = system.config().faults.clone();
        if let Some(fc) = &fault_cfg {
            fc.validate()
                .map_err(|e| format!("invalid fault configuration: {e}"))?;
        }
        if let Some(c) = &system.config().compression {
            c.validate()
                .map_err(|e| format!("invalid compression configuration: {e}"))?;
        }
        let compressor = system.config().compression.map(|c| c.build());
        let rounds = system.config().rounds;
        let eval_every = system.config().eval_every.max(1);
        let mut rng = StdRng::seed_from_u64(system.config().seed ^ protocol.seed_tweak());
        // The fault schedule is pre-sampled from its own stream so turning
        // it on never perturbs the protocol/init/eval draws below.
        let plan = fault_cfg
            .as_ref()
            .map(|fc| FaultPlan::generate(fc, rounds, system.num_clients(), system.config().seed));
        protocol.begin(system, &mut rng);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.begin_run(&protocol.name(), rounds);
        }

        // Every Dispatch is scheduled up front, so at any tick it carries
        // the lowest sequence number and pops before that round's arrivals
        // and Seal.
        let mut sched: Scheduler<SimEvent> = Scheduler::new();
        for round in 0..rounds {
            sched.schedule_at(round as Tick, SimEvent::Dispatch { round });
        }
        // Every held straggler report can land in one round at worst, plus
        // a full fresh wave.
        let mut mailbox: Mailbox<Delivery> =
            Mailbox::new(system.num_clients() * rounds.max(1) + system.num_clients());
        let mut state: Option<RoundState> = None;

        let mut result = RunResult::default();
        while let Some((_tick, event)) = sched.pop() {
            match event {
                SimEvent::Dispatch { round } => {
                    let st = dispatch_round(
                        system,
                        protocol,
                        &mut rng,
                        &plan,
                        compressor.as_deref(),
                        round,
                        rounds,
                        &mut sched,
                    );
                    state = Some(st);
                }
                SimEvent::Arrival(mut delivery) => {
                    // Decompress server-side, at the arrival point, before
                    // any guard or aggregation sees the report.
                    decode_arrival(&mut delivery);
                    mailbox.push(delivery);
                }
                SimEvent::Seal { round } => {
                    let st = state
                        .take()
                        // fedda-lint: allow(panic-path, reason = "Dispatch(r) always precedes Seal(r) in the event order above; a missing state is driver-internal corruption")
                        .expect("Seal without a dispatched round");
                    debug_assert_eq!(st.round, round);
                    seal_round(
                        system,
                        protocol,
                        &mut rng,
                        &fault_cfg,
                        st,
                        &mut mailbox,
                        eval_every,
                        rounds,
                        &mut result,
                        self.sink.as_deref_mut(),
                    );
                }
            }
        }
        Ok(result)
    }
}

/// Open round `round`: select and mask clients, run their local updates on
/// the worker pool, apply dispatch-time fault effects, and schedule every
/// report that will ever arrive — fresh ones at this tick, held straggler
/// reports at their arrival tick (reports landing after the run ends are
/// dropped on the floor and never charged).
#[allow(clippy::too_many_arguments)]
fn dispatch_round(
    system: &mut FlSystem,
    protocol: &mut dyn FlProtocol,
    rng: &mut StdRng,
    plan: &Option<FaultPlan>,
    compressor: Option<&(dyn Compressor + Send + Sync)>,
    round: usize,
    rounds: usize,
    sched: &mut Scheduler<SimEvent>,
) -> RoundState {
    // fedda-lint: allow(wall-clock, reason = "round wall-time telemetry only; never feeds selection, masking, aggregation or any logged curve")
    let started = Instant::now();
    let active = protocol.select_clients(system, round, rng);
    let masks = protocol.build_masks(system, &active, round, rng);
    debug_assert_eq!(masks.len(), active.len(), "one mask per active client");
    let mask_density = mean_mask_density(&masks);

    let dispatched = dispatch_reports(
        system,
        protocol,
        plan.as_ref(),
        compressor,
        &active,
        masks,
        round,
        |delay| round + delay >= rounds,
    );

    let mut slots: Vec<Option<FaultObserved>> = Vec::new();
    slots.resize_with(active.len(), || None);
    for (pos, (fault, delivery)) in dispatched.into_iter().enumerate() {
        let client = active[pos];
        let arrival_tick = match fault {
            Some(FaultKind::Dropout) => {
                slots[pos] = Some(FaultObserved {
                    round,
                    client,
                    effect: FaultEffect::Dropout,
                });
                continue;
            }
            Some(FaultKind::Straggler { delay }) => {
                let arrives = round + delay;
                slots[pos] = Some(FaultObserved {
                    round,
                    client,
                    effect: FaultEffect::StragglerHeld {
                        arrival: (arrives < rounds).then_some(arrives),
                    },
                });
                arrives
            }
            Some(FaultKind::Corruption(_)) | None => round,
        };
        // A report that would land after the run ends has no delivery: it
        // is dropped on the floor and its bytes never transfer.
        if let Some(delivery) = delivery {
            sched.schedule_at(arrival_tick as Tick, SimEvent::Arrival(delivery));
        }
    }
    // The Seal outranks (in sequence number) every fresh arrival scheduled
    // above, so it pops last at this tick.
    sched.schedule_at(round as Tick, SimEvent::Seal { round });
    RoundState {
        round,
        active,
        mask_density,
        slots,
        started,
    }
}

/// Close a round: admit the mailbox's deliveries (server-side guard, then
/// the staleness policy for late reports), aggregate the admissible
/// contributions with renormalised weights (Eq. 6), account the bytes that
/// actually moved, run the protocol's fault/post-aggregate hooks and the
/// evaluation cadence, and emit the round's event.
#[allow(clippy::too_many_arguments)]
fn seal_round(
    system: &mut FlSystem,
    protocol: &mut dyn FlProtocol,
    rng: &mut StdRng,
    fault_cfg: &Option<FaultConfig>,
    st: RoundState,
    mailbox: &mut Mailbox<Delivery>,
    eval_every: usize,
    rounds: usize,
    result: &mut RunResult,
    sink: Option<&mut (dyn EventSink + '_)>,
) {
    let RoundState {
        round,
        active,
        mask_density,
        mut slots,
        started,
    } = st;
    // The queue delivers stale arrivals (older sequence numbers) before
    // this round's fresh ones; aggregation order is fresh-then-stale, so
    // split them back apart.
    let (stale_in, fresh): (Vec<Delivery>, Vec<Delivery>) = mailbox
        .drain()
        .into_iter()
        .partition(|d| d.dispatch_round < round);

    let mut observations: Vec<FaultObserved> = Vec::new();
    let mut survivors: Vec<Delivery> = Vec::new();
    let mut charges: Vec<UplinkCharge> = Vec::new();
    for d in fresh {
        charges.push(d.charge);
        // The server-side guard applies to every arriving report, so even
        // un-injected non-finite updates are caught here.
        let rejection = fault_cfg
            .as_ref()
            .and_then(|fc| detect_rejection(&d.ret, fc));
        match rejection {
            Some(effect) => {
                slots[d.dispatch_pos] = Some(FaultObserved {
                    round,
                    client: d.client,
                    effect,
                })
            }
            None => survivors.push(d),
        }
    }
    // This round's stale arrivals: bytes transfer now, and the staleness
    // policy decides whether (and at what weight) they aggregate.
    let mut stale: Vec<(Delivery, f64)> = Vec::new();
    for d in stale_in {
        let staleness = round - d.dispatch_round;
        charges.push(d.charge);
        if let Some(fc) = fault_cfg {
            if let Some(effect) = detect_rejection(&d.ret, fc) {
                observations.push(FaultObserved {
                    round,
                    client: d.client,
                    effect,
                });
                continue;
            }
            match fc.staleness.weight(staleness) {
                Some(weight) => {
                    observations.push(FaultObserved {
                        round,
                        client: d.client,
                        effect: FaultEffect::StaleApplied { staleness, weight },
                    });
                    stale.push((d, weight));
                }
                None => observations.push(FaultObserved {
                    round,
                    client: d.client,
                    effect: FaultEffect::StaleDiscarded { staleness },
                }),
            }
        }
    }
    // Fresh effects in client-position order, then stale arrivals in held
    // order — the pinned observation stream.
    let mut fault_obs: Vec<FaultObserved> = slots.into_iter().flatten().collect();
    fault_obs.append(&mut observations);

    // Fresh survivors first, stale after: the f64 accumulation order of
    // the pre-runtime loop, bit for bit.
    let contributions: Vec<WeightedReturn<'_>> = survivors
        .iter()
        .map(|d| WeightedReturn {
            ret: &d.ret,
            mask: &d.mask,
            scale: 1.0,
        })
        .chain(stale.iter().map(|(d, weight)| WeightedReturn {
            ret: &d.ret,
            mask: &d.mask,
            scale: *weight,
        }))
        .collect();
    system.aggregate_weighted(&contributions);
    let comm = system.round_comm_charges(active.len(), &charges);
    // Protocols that activate no one (the Global baseline) keep an empty
    // comm log — but a round whose only traffic is a stale straggler
    // arrival still moved bytes, so it stays on the ledger even when
    // nobody was selected. The test is on the *charged* (post-compression)
    // traffic: a stale report whose codec compressed it away entirely
    // (top-k with k = 0 everywhere) moved nothing, so it must not
    // resurrect the round — the pre-compression unit-count test would have
    // double-counted such rounds onto the ledger.
    if !active.is_empty() || comm.has_uplink() {
        result.comm.push(comm);
    }
    if !fault_obs.is_empty() {
        protocol.on_faults(system, &fault_obs, round);
    }
    let returns: Vec<crate::system::ClientReturn> = survivors.into_iter().map(|d| d.ret).collect();
    let outcome = protocol.post_aggregate(system, &active, &returns, round, rng);
    if protocol.traces_activation() {
        result.activation_trace.push(ActivationSnapshot {
            active_clients: active.clone(),
            mask_density,
            deactivated: outcome.deactivated.clone(),
            reactivated: outcome.reactivated.clone(),
            restarted: outcome.restarted,
        });
    }
    let eval = if (round + 1) % eval_every == 0 || round + 1 == rounds {
        let eval = system.evaluate_global(round);
        let point = RoundEval {
            round,
            roc_auc: eval.roc_auc,
            mrr: eval.mrr,
        };
        result.curve.push(point);
        result.final_eval = eval;
        Some(point)
    } else {
        None
    };
    if let Some(sink) = sink {
        sink.on_round(&RoundEvent {
            round,
            active_clients: active,
            mask_density,
            comm,
            deactivated: outcome.deactivated,
            reactivated: outcome.reactivated,
            restarted: outcome.restarted,
            faults: fault_obs.clone(),
            eval,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }
    result.faults.extend(fault_obs);
}

/// Mean fraction of requested units per mask; `0.0` for an empty mask set.
pub(crate) fn mean_mask_density(masks: &[Vec<bool>]) -> f64 {
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
    use crate::system::tests::tiny_system;
    use crate::FedAvg;

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
}
