//! Chaos harness: the protocol engine under deterministic fault injection.
//!
//! Sweeps fault rate × protocol × seed and pins the failure-semantics
//! invariants the driver guarantees:
//!
//! * every run completes all rounds with a finite global model and finite
//!   evaluation scores, however many clients a round loses;
//! * the structured [`FaultObserved`] stream matches the injected
//!   [`FaultPlan`] *exactly* (same cells, same effects, same order) —
//!   reconstructed here independently from the schedule and the per-round
//!   active sets;
//! * the comm log counts only bytes that actually moved: dropouts and
//!   held stragglers transfer nothing, stale arrivals and rejected
//!   corruptions do;
//! * staleness discounting applies exactly `gamma^staleness`;
//! * accuracy degrades gracefully with the fault rate rather than
//!   collapsing;
//! * `faults: None` and an all-zero `FaultConfig` are bit-identical to the
//!   pre-fault engine (the `golden_curves` pins), because the fault stream
//!   is orthogonal to every other RNG stream.
//!
//! Every fault here is drawn from a `--faults`-style rate spec. The tests
//! that pin one exact `(round, client)` cell (a straggler whose stale
//! report lands in an inactive round, under a codec, or after the run; a
//! NaN report) need the test-only `FaultConfig::scripted` overlay, so they
//! live in `src/faults.rs`' tests, on this suite's federation through the
//! same `common` fixture.

mod common;

use fedda_fl::{
    AsyncConfig, Compression, Corruption, FaultConfig, FaultEffect, FaultKind, FaultObserved,
    FaultPlan, FedAdam, FedAvg, FedDa, FedDyn, FedProx, FlConfig, FlProtocol, FlSystem, MemorySink,
    RoundDriver, RunResult, RuntimeMode, StalenessPolicy,
};

const SCALE: f64 = 0.0015;
const M: usize = 5;
const ROUNDS: usize = 5;
const GOLDEN_SEED: u64 = 42;

/// The golden federation of `golden_curves.rs` (the same fixture and
/// constants) at `seed`, with `edit` applied to its configuration.
fn chaos_system(seed: u64, edit: impl FnOnce(&mut FlConfig)) -> FlSystem {
    let (split, clients) = common::dataset(SCALE, seed, M);
    common::system(&split, clients, seed, |cfg| {
        cfg.rounds = ROUNDS;
        edit(cfg);
    })
}

/// Dropouts at `rate` and no other fault.
fn dropouts(rate: f64) -> FaultConfig {
    FaultConfig {
        dropout: rate,
        ..Default::default()
    }
}

/// The mixed fault schedule the sweep injects at headline rate `r`:
/// dropouts at `r`, stragglers and NaN corruption at `r/2` each, stale
/// reports discounted by `0.5^staleness`.
fn mixed_faults(rate: f64) -> FaultConfig {
    FaultConfig {
        dropout: rate,
        straggler: rate / 2.0,
        max_staleness: 2,
        corruption: rate / 2.0,
        corruption_kind: Corruption::NaN,
        staleness: StalenessPolicy::Discount { gamma: 0.5 },
        ..Default::default()
    }
}

/// Number of protocols in the sweep (see [`run_protocol`]).
const PROTOCOLS: usize = 6;

/// Run protocol `which` (0 = FedAvg, 1 = FedDA-Restart, 2 = FedDA-Explore,
/// 3 = FedProx, 4 = FedDyn, 5 = FedAdam) through the shared driver with an
/// event sink attached.
fn run_protocol(which: usize, sys: &mut FlSystem, sink: &mut MemorySink) -> RunResult {
    let mut driver = RoundDriver::with_sink(sink);
    match which {
        0 => driver.run(&mut FedAvg::vanilla(), sys),
        1 => driver.run(&mut FedDa::restart(), sys),
        2 => driver.run(&mut FedDa::explore(), sys),
        3 => driver.run(
            &mut FedProx {
                mu: 0.01,
                client_fraction: 1.0,
            },
            sys,
        ),
        4 => driver.run(&mut FedDyn::new(0.01), sys),
        _ => driver.run(&mut FedAdam::new(0.01), sys),
    }
    .expect("chaos runs use valid configurations")
}

/// Reconstruct, independently of the driver, the exact `FaultObserved`
/// stream the run must have produced: walk the regenerated schedule over
/// the per-round active sets, holding stragglers until their arrival
/// round, mirroring the driver's documented ordering contract (fresh
/// effects in active order, then stale arrivals in held order).
fn expected_observations(
    plan: &FaultPlan,
    fc: &FaultConfig,
    active_per_round: &[Vec<usize>],
) -> Vec<FaultObserved> {
    let rounds = active_per_round.len();
    let mut expected = Vec::new();
    let mut pending: Vec<(usize, usize, usize)> = Vec::new(); // (client, from, arrival)
    for (round, active) in active_per_round.iter().enumerate() {
        for &client in active {
            match plan.fault_at(round, client) {
                Some(FaultKind::Dropout) => expected.push(FaultObserved {
                    round,
                    client,
                    effect: FaultEffect::Dropout,
                }),
                Some(FaultKind::Straggler { delay }) => {
                    let arrives = round + delay;
                    let arrival = (arrives < rounds).then_some(arrives);
                    expected.push(FaultObserved {
                        round,
                        client,
                        effect: FaultEffect::StragglerHeld { arrival },
                    });
                    if let Some(a) = arrival {
                        pending.push((client, round, a));
                    }
                }
                Some(FaultKind::Corruption(Corruption::NaN | Corruption::Inf)) => {
                    expected.push(FaultObserved {
                        round,
                        client,
                        effect: FaultEffect::CorruptionRejected { non_finite: true },
                    })
                }
                // Finite garbage is only caught when a norm bound is set;
                // the sweep injects NaN so this arm stays unvisited there.
                Some(FaultKind::Corruption(Corruption::Garbage { .. })) | None => {}
            }
        }
        let mut still = Vec::new();
        for (client, from, arrival) in pending.drain(..) {
            if arrival != round {
                still.push((client, from, arrival));
                continue;
            }
            let staleness = round - from;
            // The staleness policy written out: a discarded report is never
            // aggregated, a discounted one weighs `gamma` multiplied in once
            // per round late.
            let effect = match fc.staleness {
                StalenessPolicy::Discard => FaultEffect::StaleDiscarded { staleness },
                StalenessPolicy::Discount { gamma } => {
                    let mut weight = 1.0;
                    for _ in 0..staleness {
                        weight *= gamma;
                    }
                    FaultEffect::StaleApplied { staleness, weight }
                }
            };
            expected.push(FaultObserved {
                round,
                client,
                effect,
            });
        }
        pending = still;
    }
    expected
}

/// The invariants every chaos run must satisfy, fault-injected or not.
fn check_chaos_invariants(
    sys: &FlSystem,
    sink: &MemorySink,
    result: &RunResult,
    faults: Option<&FaultConfig>,
    seed: u64,
    label: &str,
) {
    // Completion: every round ran, evaluated (eval_every = 1) and emitted
    // exactly one event.
    assert_eq!(sink.events.len(), ROUNDS, "{label}: one event per round");
    assert_eq!(result.curve.len(), ROUNDS, "{label}: dense curve");
    for (i, event) in sink.events.iter().enumerate() {
        assert_eq!(event.round, i, "{label}: event round index");
    }

    // Finiteness: faults must never push non-finite values into the global
    // model or the evaluation scores.
    assert!(
        sys.global.flatten().iter().all(|v| v.is_finite()),
        "{label}: global model picked up non-finite parameters"
    );
    for eval in &result.curve {
        assert!(
            eval.roc_auc.is_finite() && (0.0..=1.0).contains(&eval.roc_auc),
            "{label}: AUC out of range at round {}: {}",
            eval.round,
            eval.roc_auc
        );
        assert!(
            eval.mrr.is_finite() && (0.0..=1.0).contains(&eval.mrr),
            "{label}: MRR out of range at round {}: {}",
            eval.round,
            eval.mrr
        );
    }

    // The event stream and the run result are two views of the same fault
    // records.
    let streamed: Vec<FaultObserved> = sink
        .events
        .iter()
        .flat_map(|e| e.faults.iter().copied())
        .collect();
    assert_eq!(streamed, result.faults, "{label}: events vs result faults");

    // Events mirror the comm log (rounds with no active clients keep the
    // comm log empty, as for the Global baseline — unless a stale straggler
    // arrival moved bytes, which stays on the ledger). The key is the
    // driver's own ledger condition: any uplink counter non-zero keeps the
    // round logged.
    let mut comm_rounds = result.comm.rounds().iter();
    for (i, event) in sink.events.iter().enumerate() {
        if event.active_clients.is_empty() && !event.comm.has_uplink() {
            assert_eq!(event.comm.uplink_bytes, 0, "{label}: round {i}");
        } else {
            let rc = comm_rounds.next().expect("comm log entry");
            assert_eq!(&event.comm, rc, "{label}: round {i}: event vs comm log");
        }
        // These sweeps run uncompressed: the byte ledger is exactly the
        // historical 4 bytes per masked f32 scalar.
        assert_eq!(
            event.comm.uplink_bytes,
            4 * event.comm.uplink_scalars,
            "{label}: round {i}: uncompressed byte accounting"
        );
    }
    assert!(comm_rounds.next().is_none(), "{label}: extra comm rounds");

    match faults {
        None => assert!(result.faults.is_empty(), "{label}: faultless run"),
        Some(fc) => {
            // The observed stream must match the injected schedule exactly,
            // reconstructed here from the plan and the active sets alone.
            let plan = FaultPlan::generate(fc, ROUNDS, M, seed);
            let active_per_round: Vec<Vec<usize>> = sink
                .events
                .iter()
                .map(|e| e.active_clients.clone())
                .collect();
            let expected = expected_observations(&plan, fc, &active_per_round);
            assert_eq!(
                result.faults, expected,
                "{label}: observed faults vs injected schedule"
            );

            // Staleness discounting is exactly gamma^staleness.
            if let StalenessPolicy::Discount { gamma } = fc.staleness {
                for f in &result.faults {
                    if let FaultEffect::StaleApplied { staleness, weight } = f.effect {
                        assert_eq!(
                            weight,
                            gamma.powi(staleness as i32),
                            "{label}: discount weight"
                        );
                    }
                }
            }

            // Comm counts only transferred bytes. Under full masks (all
            // three protocols here mask per FedDA dynamics or not at all,
            // but FedAvg is always full), uplink per event is bounded by
            // what could possibly arrive.
            let n = sys.num_units();
            for (event, active) in sink.events.iter().zip(&active_per_round) {
                assert!(
                    event.comm.uplink_units <= (active.len() + M) * n,
                    "{label}: uplink exceeds any possible arrival count"
                );
                assert_eq!(
                    event.comm.downlink_units,
                    active.len() * n,
                    "{label}: downlink is one full model per selected client"
                );
            }
        }
    }
}

#[test]
fn chaos_sweep_invariants_hold_across_rates_protocols_and_seeds() {
    let rates = [0.0, 0.3];
    let mut mean_final_auc = [0.0f64; 2];
    let mut saw_faults = false;
    let sweep_size = (PROTOCOLS * 3) as f64;
    for (ri, &rate) in rates.iter().enumerate() {
        for which in 0..PROTOCOLS {
            for seed in [GOLDEN_SEED, 43, 44] {
                let faults = (rate > 0.0).then(|| mixed_faults(rate));
                let mut sys = chaos_system(seed, |cfg| cfg.faults = faults.clone());
                let mut sink = MemorySink::new();
                let result = run_protocol(which, &mut sys, &mut sink);
                let label = format!("rate={rate} protocol={which} seed={seed}");
                check_chaos_invariants(&sys, &sink, &result, faults.as_ref(), seed, &label);
                saw_faults |= !result.faults.is_empty();
                mean_final_auc[ri] += result.final_eval.roc_auc / sweep_size;
            }
        }
    }
    assert!(saw_faults, "rate 0.3 must actually inject faults");
    // Graceful degradation: losing ~60% of reports (mixed faults at the
    // 0.3 headline rate) may cost accuracy but must not collapse it, and
    // must not somehow *help* beyond noise.
    assert!(
        mean_final_auc[1] <= mean_final_auc[0] + 0.02,
        "faults must not improve mean AUC: {} vs {}",
        mean_final_auc[1],
        mean_final_auc[0]
    );
    assert!(
        mean_final_auc[1] >= mean_final_auc[0] - 0.10,
        "AUC collapsed under faults: {} vs {}",
        mean_final_auc[1],
        mean_final_auc[0]
    );
}

#[test]
fn light_faults_keep_every_protocol_within_the_invariants() {
    // The 0.1-rate point of the sweep, split out so failures bisect.
    let faults = mixed_faults(0.1);
    for which in 0..PROTOCOLS {
        for seed in [GOLDEN_SEED, 43, 44] {
            let mut sys = chaos_system(seed, |cfg| cfg.faults = Some(faults.clone()));
            let mut sink = MemorySink::new();
            let result = run_protocol(which, &mut sys, &mut sink);
            let label = format!("rate=0.1 protocol={which} seed={seed}");
            check_chaos_invariants(&sys, &sink, &result, Some(&faults), seed, &label);
        }
    }
}

#[test]
fn dropout_point_three_fedavg_matches_injected_schedule_exactly() {
    // The acceptance pin: dropout 0.3 completes all rounds with finite
    // parameters, and the FaultObserved stream equals the schedule cell
    // for cell (FedAvg selects everyone, so every scheduled cell is hit).
    let fc = dropouts(0.3);
    let mut sys = chaos_system(GOLDEN_SEED, |cfg| cfg.faults = Some(fc.clone()));
    let result = fedda_fl::run(&RuntimeMode::Sync, &mut FedAvg::vanilla(), &mut sys, None).unwrap();
    assert_eq!(result.curve.len(), ROUNDS);
    assert!(sys.global.flatten().iter().all(|v| v.is_finite()));

    let plan = FaultPlan::generate(&fc, ROUNDS, M, GOLDEN_SEED);
    let mut expected = Vec::new();
    for round in 0..ROUNDS {
        for client in 0..M {
            if plan.fault_at(round, client) == Some(FaultKind::Dropout) {
                expected.push(FaultObserved {
                    round,
                    client,
                    effect: FaultEffect::Dropout,
                });
            }
        }
    }
    assert!(
        !expected.is_empty(),
        "rate 0.3 over {} cells must schedule something",
        ROUNDS * M
    );
    assert_eq!(result.faults, expected);
    let scheduled = (0..ROUNDS)
        .flat_map(|round| (0..M).map(move |client| (round, client)))
        .filter(|&(round, client)| plan.fault_at(round, client).is_some())
        .count();
    assert_eq!(scheduled, expected.len());

    // Only the reports that arrived count as uplink; every selected client
    // still cost a broadcast.
    let n = sys.num_units();
    assert_eq!(
        result.comm.total_uplink_units(),
        (ROUNDS * M - expected.len()) * n
    );
    assert_eq!(common::downlink_units(&result), ROUNDS * M * n);
}

#[test]
fn fedavg_uplink_counts_only_arrived_bytes_under_mixed_faults() {
    // With FedAvg (everyone selected, full masks) the comm ledger is
    // exactly: arrivals = fresh survivors + rejected corruptions + stale
    // arrivals; dropouts and held stragglers transfer nothing.
    let fc = mixed_faults(0.3);
    let mut sys = chaos_system(43, |cfg| cfg.faults = Some(fc.clone()));
    let result = fedda_fl::run(&RuntimeMode::Sync, &mut FedAvg::vanilla(), &mut sys, None).unwrap();

    let mut drops = 0usize;
    let mut held = 0usize;
    let mut stale = 0usize;
    for f in &result.faults {
        match f.effect {
            FaultEffect::Dropout => drops += 1,
            FaultEffect::StragglerHeld { .. } => held += 1,
            FaultEffect::StaleApplied { .. } | FaultEffect::StaleDiscarded { .. } => stale += 1,
            FaultEffect::CorruptionRejected { .. } => {}
        }
    }
    let n = sys.num_units();
    assert_eq!(
        result.comm.total_uplink_units(),
        (ROUNDS * M - drops - held + stale) * n,
        "uplink must equal arrived reports × model size"
    );
    assert_eq!(common::downlink_units(&result), ROUNDS * M * n);
}

#[test]
fn new_protocol_uplink_counts_only_arrived_bytes_under_mixed_faults() {
    // Same ledger arithmetic as the FedAvg pin above, for the three ports:
    // FedProx/FedDyn/FedAdam all select everyone with full masks, so
    // arrivals = dispatched − dropouts − held stragglers + stale arrivals.
    for which in 3..PROTOCOLS {
        let fc = mixed_faults(0.3);
        let mut sys = chaos_system(43, |cfg| cfg.faults = Some(fc.clone()));
        let mut sink = MemorySink::new();
        let result = run_protocol(which, &mut sys, &mut sink);

        let mut drops = 0usize;
        let mut held = 0usize;
        let mut stale = 0usize;
        for f in &result.faults {
            match f.effect {
                FaultEffect::Dropout => drops += 1,
                FaultEffect::StragglerHeld { .. } => held += 1,
                FaultEffect::StaleApplied { .. } | FaultEffect::StaleDiscarded { .. } => stale += 1,
                FaultEffect::CorruptionRejected { .. } => {}
            }
        }
        let n = sys.num_units();
        assert_eq!(
            result.comm.total_uplink_units(),
            (ROUNDS * M - drops - held + stale) * n,
            "protocol={which}: uplink must equal arrived reports × model size"
        );
        assert_eq!(
            common::downlink_units(&result),
            ROUNDS * M * n,
            "protocol={which}: downlink"
        );
    }
}

#[test]
fn feddyn_h_state_stays_finite_under_garbage_corruption() {
    // Finite garbage (scale 1e4 on the whole update) feeds FedDyn's
    // server-side correction state. Whether the server rejects it with a
    // norm bound or lets it through, `h` and `∇̂ᵢ` must stay finite — the
    // h update is a bounded linear map of the (finite) admitted deltas.
    // Every round's global model is `avg(θᵢ) − h/α`, and a non-finite entry
    // of `h` never leaves it, so the final global model shows one.
    for max_update_norm in [Some(10.0f32), None] {
        let fc = FaultConfig {
            corruption: 0.5,
            corruption_kind: Corruption::Garbage { scale: 1e4 },
            max_update_norm,
            ..Default::default()
        };
        let mut sys = chaos_system(GOLDEN_SEED, |cfg| cfg.faults = Some(fc));
        let mut protocol = FedDyn::new(0.01);
        let result = fedda_fl::run(&RuntimeMode::Sync, &mut protocol, &mut sys, None)
            .expect("valid FedDyn chaos configuration");
        let label = format!("max_update_norm={max_update_norm:?}");
        assert_eq!(result.curve.len(), ROUNDS, "{label}: all rounds ran");
        assert!(
            sys.global.flatten().iter().all(|v| v.is_finite()),
            "{label}: global model (or the h-state it carries) picked up non-finite values"
        );
        if max_update_norm.is_some() {
            // With the norm bound the garbage is caught and logged.
            assert!(
                result.faults.iter().any(|f| matches!(
                    f.effect,
                    FaultEffect::CorruptionRejected { non_finite: false }
                )),
                "{label}: rate 0.5 must reject some garbage"
            );
        }
    }
}

/// Run protocol `which` under the async runtime (K = 2, γ = 0.9).
fn run_protocol_async(which: usize, sys: &mut FlSystem) -> RunResult {
    let acfg = AsyncConfig { k: 2, gamma: 0.9 };
    match which {
        0 => fedda_fl::run(&RuntimeMode::Async(acfg), &mut FedAvg::vanilla(), sys, None),
        1 => fedda_fl::run(&RuntimeMode::Async(acfg), &mut FedDa::restart(), sys, None),
        2 => fedda_fl::run(&RuntimeMode::Async(acfg), &mut FedDa::explore(), sys, None),
        3 => fedda_fl::run(
            &RuntimeMode::Async(acfg),
            &mut FedProx {
                mu: 0.01,
                client_fraction: 1.0,
            },
            sys,
            None,
        ),
        4 => fedda_fl::run(&RuntimeMode::Async(acfg), &mut FedDyn::new(0.01), sys, None),
        _ => fedda_fl::run(
            &RuntimeMode::Async(acfg),
            &mut FedAdam::new(0.01),
            sys,
            None,
        ),
    }
    .expect("chaos runs use valid configurations")
}

#[test]
fn corruption_is_rejected_after_decompression_across_protocols_and_runtimes() {
    // Compression must not launder corruption into an innocuous update:
    // a NaN report poisons i8's per-unit scale, maps to NaN halves under
    // f16, and outranks every finite magnitude under top-k — so the
    // server's non-finite guard fires on the *decompressed* report exactly
    // as it does uncompressed, in both runtimes, for every protocol.
    let fc = FaultConfig {
        corruption: 0.5,
        corruption_kind: Corruption::NaN,
        ..Default::default()
    };
    for compression in [
        Compression::QuantI8,
        Compression::QuantF16,
        Compression::TopK { frac: 0.5 },
    ] {
        for which in [0usize, 2, 3] {
            // FedAvg, FedDA-Explore, FedProx.
            for runtime in ["sync", "async"] {
                let mut sys = chaos_system(GOLDEN_SEED, |cfg| {
                    cfg.faults = Some(fc.clone());
                    cfg.compression = Some(compression);
                });
                let result = match runtime {
                    "sync" => {
                        let mut sink = MemorySink::new();
                        run_protocol(which, &mut sys, &mut sink)
                    }
                    _ => run_protocol_async(which, &mut sys),
                };
                let label = format!("{} protocol={which} {runtime}", compression.label());
                let rejections = result
                    .faults
                    .iter()
                    .filter(|f| {
                        matches!(
                            f.effect,
                            FaultEffect::CorruptionRejected { non_finite: true }
                        )
                    })
                    .count();
                assert!(
                    rejections > 0,
                    "{label}: rate 0.5 must reject some corrupted reports"
                );
                assert!(
                    sys.global.flatten().iter().all(|v| v.is_finite()),
                    "{label}: corruption leaked through the codec into the global model"
                );
                assert_eq!(result.curve.len(), ROUNDS, "{label}: all rounds ran");
            }
        }
    }
}

#[test]
fn async_full_dropout_under_compression_still_charges_nothing() {
    // Dropouts transfer nothing whatever the codec: the compressed twin of
    // the full-dropout pin below, under i8.
    let fc = dropouts(1.0);
    let mut sys = chaos_system(GOLDEN_SEED, |cfg| {
        cfg.faults = Some(fc);
        cfg.compression = Some(Compression::QuantI8);
    });
    let result = fedda_fl::run(
        &RuntimeMode::Async(AsyncConfig::default()),
        &mut FedAvg::vanilla(),
        &mut sys,
        None,
    )
    .unwrap();
    assert_eq!(result.curve.len(), ROUNDS);
    for rc in result.comm.rounds() {
        assert_eq!(rc.uplink_units, 0, "no report ever arrives");
        assert_eq!(rc.uplink_scalars, 0);
        assert_eq!(rc.uplink_bytes, 0);
    }
    assert_eq!(result.comm.total_uplink_bytes(), 0);
}

#[test]
fn async_full_dropout_charges_downlink_but_never_uplink() {
    // Buffered-async runtime, every report dropped: each version's wave
    // still costs a broadcast, nothing ever arrives, and the starved queue
    // flushes an empty buffer so the run completes all versions.
    let fc = dropouts(1.0);
    let mut sys = chaos_system(GOLDEN_SEED, |cfg| cfg.faults = Some(fc));
    let result = fedda_fl::run(
        &RuntimeMode::Async(AsyncConfig::default()),
        &mut FedAvg::vanilla(),
        &mut sys,
        None,
    )
    .unwrap();
    let n = sys.num_units();
    assert_eq!(result.curve.len(), ROUNDS, "every version still evaluates");
    assert_eq!(result.comm.rounds().len(), ROUNDS);
    for rc in result.comm.rounds() {
        assert_eq!(rc.active_clients, M);
        assert_eq!(rc.uplink_units, 0, "no report ever arrives");
        assert_eq!(rc.downlink_units, M * n);
    }
    assert_eq!(result.comm.total_uplink_units(), 0);
    assert_eq!(common::downlink_units(&result), ROUNDS * M * n);
    assert_eq!(result.faults.len(), ROUNDS * M);
    assert!(result
        .faults
        .iter()
        .all(|f| matches!(f.effect, FaultEffect::Dropout)));
}

#[test]
fn zero_rate_fault_config_is_bit_identical_to_the_golden_pins() {
    // `faults: Some(all-zero)` exercises the faulted driver path but
    // schedules nothing: the run must be the `faults: None` run bit for bit
    // — curve, ledger, activation trace, fault records and final parameters
    // — proving the fault stream is orthogonal to every other RNG stream and
    // the faulted aggregation path is numerically identical. The
    // `faults: None` runs are the ones `golden_curves.rs` pins.
    type Build = fn() -> Box<dyn FlProtocol>;
    let protocols: [(&str, Build); 3] = [
        ("FedAvg", || Box::new(FedAvg::vanilla())),
        ("Explore", || Box::new(FedDa::explore())),
        ("Restart", || Box::new(FedDa::restart())),
    ];
    for (name, build) in protocols {
        let run = |faults: Option<FaultConfig>| {
            let mut sys = chaos_system(GOLDEN_SEED, |cfg| cfg.faults = faults);
            let result =
                fedda_fl::run(&RuntimeMode::Sync, build().as_mut(), &mut sys, None).unwrap();
            common::fingerprint(&result, &sys)
        };
        let plain = run(None);
        assert!(plain.faults.is_empty(), "{name}: faults: None");
        assert_eq!(plain.curve.len(), ROUNDS, "{name}: dense curve");
        assert_eq!(
            run(Some(FaultConfig::default())),
            plain,
            "{name}: zero-rate FaultConfig diverged from faults: None"
        );
        if name == "Restart" {
            // Restart's golden uplink ties this suite's federation to the
            // one `golden_curves.rs` pins.
            let uplink: usize = plain.comm.iter().map(|rc| rc.uplink_units).sum();
            assert_eq!(uplink, 466, "Restart / faults: None: uplink");
        }
    }
}
