//! Buffered-asynchronous federated execution on the event-driven runtime.
//!
//! [`AsyncDriver`] implements FedBuff-style *buffered asynchronous FL* on
//! top of the same [`runtime`](crate::runtime) primitives the synchronous
//! [`RoundDriver`](crate::RoundDriver) facade uses. The server keeps a
//! monotonically increasing **version** (its aggregation count); every
//! version it dispatches a wave of selected clients and then services
//! report arrivals from the virtual-time event queue until `K` admissible
//! reports have buffered in the bounded [`Mailbox`] — at which point it
//! aggregates (Eq. 6 weight renormalisation over the buffer), advances the
//! version, and dispatches the next wave.
//!
//! Latency is virtual: a healthy or corrupted report arrives one tick
//! after dispatch, a straggler arrives `1 + delay` ticks after dispatch
//! (the delay comes from the fault layer's pre-sampled plan, so the same
//! `FaultConfig` drives both runtimes), and a dropout never arrives.
//! A report that arrives after later aggregations is **stale**: its
//! contribution is discounted by `γ^staleness`, where `staleness` is the
//! number of versions the server advanced since the report was computed.
//! The async runtime applies this γ rule itself — `FaultConfig::staleness`
//! (the sync driver's policy for held straggler reports) is not consulted.
//!
//! Determinism matches the sync facade's contract: selection/mask/
//! post-aggregate RNG draws happen in version order, the event queue is
//! totally ordered by `(tick, schedule sequence)`, client training is a
//! pure function of `(client seed, dispatch version, broadcast)`, and the
//! worker-pool size never changes results. Same seed → bit-identical run,
//! at any `FEDDA_THREADS` and any pool size.
//!
//! Accounting follows the arrival rule the chaos harness pins: downlink is
//! charged at dispatch (the broadcast happened), uplink is charged when a
//! report *arrives* — never for dropouts, and never for reports still in
//! flight when the run ends.

use crate::compress::{decode_arrival, Compressor, UplinkCharge};
use crate::dispatch::dispatch_reports;
use crate::events::{EventSink, RoundEvent};
use crate::faults::{detect_rejection, FaultEffect, FaultKind, FaultObserved, FaultPlan};
use crate::protocol::FlProtocol;
use crate::runtime::{Delivery, Mailbox, Scheduler, Tick};
use crate::system::{ActivationSnapshot, ClientReturn, FlSystem, RoundEval, RunResult};
use crate::WeightedReturn;
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

/// Which driver executes a run (see `ExperimentConfig` in `fedda-core` and
/// the CLI's `--runtime` flag).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum RuntimeMode {
    /// The synchronous lockstep facade ([`RoundDriver`](crate::RoundDriver)).
    #[default]
    Sync,
    /// Buffered-asynchronous aggregation ([`AsyncDriver`]).
    Async(AsyncConfig),
}

/// Per-version accumulators, reset after every aggregation.
struct VersionState {
    /// Clients dispatched at this version (the wave).
    wave: Vec<usize>,
    /// Mean mask density of the wave.
    mask_density: f64,
    /// Structured fault/staleness records observed since the last
    /// aggregation.
    observations: Vec<FaultObserved>,
    /// Ledger charges of the reports that arrived since the last
    /// aggregation (uplink is charged at arrival, at the compressed size).
    charges: Vec<UplinkCharge>,
    /// Wall-clock start of the version (telemetry only).
    started: Instant,
}

impl VersionState {
    fn new() -> Self {
        Self {
            wave: Vec::new(),
            mask_density: 0.0,
            observations: Vec::new(),
            charges: Vec::new(),
            // fedda-lint: allow(wall-clock, reason = "version wall-time telemetry only; never feeds selection, masking, aggregation or any logged curve")
            started: Instant::now(),
        }
    }
}

/// Executes an [`FlProtocol`] under buffered-asynchronous aggregation,
/// optionally streaming one [`RoundEvent`] per server version to an
/// [`EventSink`].
///
/// `FlConfig::rounds` counts aggregations (server versions), so curves,
/// comm logs and activation traces line up one-to-one with the sync
/// driver's rounds; the evaluation cadence (`FlConfig::eval_every`)
/// applies to versions identically.
pub struct AsyncDriver<'a> {
    cfg: AsyncConfig,
    sink: Option<&'a mut dyn EventSink>,
}

impl AsyncDriver<'_> {
    /// Driver without an event sink.
    pub fn new(cfg: AsyncConfig) -> Self {
        Self { cfg, sink: None }
    }
}

impl<'a> AsyncDriver<'a> {
    /// Driver that emits one [`RoundEvent`] per aggregation to `sink`.
    pub fn with_sink(cfg: AsyncConfig, sink: &'a mut dyn EventSink) -> Self {
        Self {
            cfg,
            sink: Some(sink),
        }
    }

    /// Run `system.config().rounds` buffered-asynchronous aggregations of
    /// `protocol`.
    ///
    /// Validates the protocol, the async configuration and the fault
    /// configuration before touching the system.
    pub fn run(
        &mut self,
        protocol: &mut dyn FlProtocol,
        system: &mut FlSystem,
    ) -> Result<RunResult, String> {
        protocol
            .validate()
            .map_err(|e| format!("invalid {} configuration: {e}", protocol.name()))?;
        self.cfg
            .validate()
            .map_err(|e| format!("invalid async runtime configuration: {e}"))?;
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
        let plan = fault_cfg
            .as_ref()
            .map(|fc| FaultPlan::generate(fc, rounds, system.num_clients(), system.config().seed));
        protocol.begin(system, &mut rng);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.begin_run(&protocol.name(), rounds);
        }

        let mut sched: Scheduler<Delivery> = Scheduler::new();
        let mut mailbox: Mailbox<(Delivery, f64)> = Mailbox::new(self.cfg.k);
        let mut in_flight = vec![false; system.num_clients()];
        let mut version = 0usize;
        let mut dispatched = false;
        let mut state = VersionState::new();
        let mut result = RunResult::default();

        while version < rounds {
            if !dispatched {
                dispatch_wave(
                    system,
                    protocol,
                    &mut rng,
                    &plan,
                    compressor.as_deref(),
                    version,
                    &mut sched,
                    &mut in_flight,
                    &mut state,
                );
                dispatched = true;
            }
            if !mailbox.is_full() {
                if let Some((_tick, mut d)) = sched.pop() {
                    in_flight[d.client] = false;
                    // Decompress at the server arrival point — stale
                    // arrivals carried their compressed payload across
                    // versions and decode against their dispatch-time
                    // broadcast.
                    decode_arrival(&mut d);
                    // Uplink is charged at arrival — dropouts and
                    // reports the run outlives are never charged.
                    state.charges.push(d.charge);
                    if let Some(fc) = &fault_cfg {
                        if let Some(effect) = detect_rejection(&d.ret, fc) {
                            state.observations.push(FaultObserved {
                                round: version,
                                client: d.client,
                                effect,
                            });
                            continue;
                        }
                    }
                    let staleness = version - d.dispatch_round;
                    // γ^staleness by repeated product: exact integer
                    // exponent, no libm, bit-stable across platforms.
                    let mut weight = 1.0f64;
                    for _ in 0..staleness {
                        weight *= self.cfg.gamma;
                    }
                    if staleness > 0 {
                        state.observations.push(FaultObserved {
                            round: version,
                            client: d.client,
                            effect: FaultEffect::StaleApplied { staleness, weight },
                        });
                    }
                    mailbox.push((d, weight));
                    continue;
                }
                // Queue starved with fewer than K reports buffered (small
                // federation, mass dropout, or the run's tail): fall
                // through and flush the short — possibly empty — buffer so
                // the run always completes its aggregation count.
            }
            // K admissible reports buffered (or the queue starved):
            // aggregate now.
            aggregate_version(
                system,
                protocol,
                &mut rng,
                &fault_cfg,
                version,
                rounds,
                eval_every,
                &mut mailbox,
                std::mem::replace(&mut state, VersionState::new()),
                &mut result,
                self.sink.as_deref_mut(),
            );
            version += 1;
            dispatched = false;
        }
        Ok(result)
    }
}

/// Dispatch the wave of server version `version`: select clients, skip
/// those still in flight (the async concurrency rule — a client can hold
/// at most one outstanding report), train the reporting ones on the worker
/// pool against the *current* global, and schedule every report's arrival
/// at `now + 1 + straggler delay`. Dropouts are observed at dispatch and
/// never scheduled; downlink is charged for every dispatched client.
#[allow(clippy::too_many_arguments)]
fn dispatch_wave(
    system: &mut FlSystem,
    protocol: &mut dyn FlProtocol,
    rng: &mut StdRng,
    plan: &Option<FaultPlan>,
    compressor: Option<&(dyn Compressor + Send + Sync)>,
    version: usize,
    sched: &mut Scheduler<Delivery>,
    in_flight: &mut [bool],
    state: &mut VersionState,
) {
    let selected = protocol.select_clients(system, version, rng);
    let wave: Vec<usize> = selected.into_iter().filter(|&c| !in_flight[c]).collect();
    let masks = protocol.build_masks(system, &wave, version, rng);
    debug_assert_eq!(masks.len(), wave.len(), "one mask per dispatched client");
    state.mask_density = crate::driver::mean_mask_density(&masks);
    let dispatched = dispatch_reports(
        system,
        protocol,
        plan.as_ref(),
        compressor,
        &wave,
        masks,
        version,
        // A late report is still in flight when the run ends, never lost at
        // dispatch.
        |_| false,
    );
    for (pos, (fault, delivery)) in dispatched.into_iter().enumerate() {
        let client = wave[pos];
        let latency: Tick = match fault {
            Some(FaultKind::Dropout) => {
                state.observations.push(FaultObserved {
                    round: version,
                    client,
                    effect: FaultEffect::Dropout,
                });
                continue;
            }
            Some(FaultKind::Straggler { delay }) => 1 + delay as Tick,
            Some(FaultKind::Corruption(_)) | None => 1,
        };
        // The report carries its compressed payload (and its reference)
        // across however many versions its latency spans.
        if let Some(delivery) = delivery {
            in_flight[client] = true;
            sched.schedule_after(latency, delivery);
        }
    }
    state.wave = wave;
}

/// Aggregate the buffered reports into a new server version: Eq. 6
/// renormalised weighted averaging at weights `γ^staleness`, comm entry
/// for the traffic since the last aggregation, protocol fault and
/// post-aggregate hooks, activation tracing, the evaluation cadence, and
/// the version's [`RoundEvent`].
#[allow(clippy::too_many_arguments)]
fn aggregate_version(
    system: &mut FlSystem,
    protocol: &mut dyn FlProtocol,
    rng: &mut StdRng,
    fault_cfg: &Option<crate::faults::FaultConfig>,
    version: usize,
    rounds: usize,
    eval_every: usize,
    mailbox: &mut Mailbox<(Delivery, f64)>,
    state: VersionState,
    result: &mut RunResult,
    sink: Option<&mut (dyn EventSink + '_)>,
) {
    let VersionState {
        wave,
        mask_density,
        observations,
        charges,
        started,
    } = state;
    let buffered = mailbox.drain();
    let contributions: Vec<WeightedReturn<'_>> = buffered
        .iter()
        .map(|(d, weight)| WeightedReturn {
            ret: &d.ret,
            mask: &d.mask,
            scale: *weight,
        })
        .collect();
    system.aggregate_weighted(&contributions);
    let comm = system.round_comm_charges(wave.len(), &charges);
    // Same ledger rule as the sync facade: versions that neither broadcast
    // nor received any *charged* traffic stay off the log — a stale report
    // the codec compressed away entirely moved no bytes.
    if !wave.is_empty() || comm.has_uplink() {
        result.comm.push(comm);
    }
    // The protocol's fault hook keeps its sync-driver contract: only
    // called under fault injection. Staleness records caused purely by
    // K-buffering (no faults configured) are still reported in the result.
    if fault_cfg.is_some() && !observations.is_empty() {
        protocol.on_faults(system, &observations, version);
    }
    let returns: Vec<ClientReturn> = buffered.into_iter().map(|(d, _)| d.ret).collect();
    let outcome = protocol.post_aggregate(system, &wave, &returns, version, rng);
    if protocol.traces_activation() {
        result.activation_trace.push(ActivationSnapshot {
            active_clients: wave.clone(),
            mask_density,
            deactivated: outcome.deactivated.clone(),
            reactivated: outcome.reactivated.clone(),
            restarted: outcome.restarted,
        });
    }
    let eval = if (version + 1) % eval_every == 0 || version + 1 == rounds {
        let eval = system.evaluate_global(version);
        let point = RoundEval {
            round: version,
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
            round: version,
            active_clients: wave,
            mask_density,
            comm,
            deactivated: outcome.deactivated,
            reactivated: outcome.reactivated,
            restarted: outcome.restarted,
            faults: observations.clone(),
            eval,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }
    result.faults.extend(observations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::tiny_system;
    use crate::{FedAvg, FedDa};

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
        let err = AsyncDriver::new(AsyncConfig { k: 0, gamma: 0.9 })
            .run(&mut FedAvg::vanilla(), &mut sys)
            .unwrap_err();
        assert!(err.contains("async"), "unexpected error: {err}");
        assert_eq!(sys.global.flatten(), before, "system must be untouched");
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
