//! End-to-end determinism: a short FedDA run must be bit-identical across
//! repeated executions and across worker-pool sizes — one worker running
//! every client inline on the calling thread (what `parallel: false`
//! means), two or four on pool threads. The worker counts are pinned, never
//! left to the `FEDDA_THREADS` default, so the matrix compares the same
//! arms under any environment. This is the guarantee the `clippy.toml`
//! bans (no hash collections, no wall-clock in protocol code) and the
//! bit-identical GEMM kernels exist to protect.

mod common;

use common::Fingerprint;
use fedda_data::{partition_non_iid, ClientData, PartitionConfig};
use fedda_fl::{
    AsyncConfig, AsyncDriver, Compression, Corruption, FaultConfig, FedAdam, FedAvg, FedDa, FedDyn,
    FedProx, FlConfig, FlProtocol, FlSystem, MemorySink, RoundDriver, RuntimeMode, StalenessPolicy,
};

const SCALE: f64 = 0.0012;
const M: usize = 4;
const ROUNDS: usize = 3;
const SEED: u64 = 1234;

/// The test federation with `edit` applied to its configuration.
fn build_system(edit: impl FnOnce(&mut FlConfig)) -> FlSystem {
    let (split, clients) = common::dataset(SCALE, SEED, M);
    common::system(&split, clients, SEED, |cfg| {
        cfg.rounds = ROUNDS;
        edit(cfg);
    })
}

fn run_protocol(make: &dyn Fn() -> Box<dyn FlProtocol>, workers: usize) -> Fingerprint {
    let mut sys = build_system(|cfg| cfg.workers = Some(workers));
    // A fresh protocol instance per run: stateful protocols (FedDA's
    // bandit, FedDyn's h, FedAdam's moments) must not leak state between
    // the arms being compared.
    let mut protocol = make();
    let result = fedda_fl::run(&RuntimeMode::Sync, protocol.as_mut(), &mut sys, None)
        .expect("valid protocol configuration");
    common::fingerprint(&result, &sys)
}

fn assert_invariant_under_execution_strategy(make: &dyn Fn() -> Box<dyn FlProtocol>, name: &str) {
    let reference = run_protocol(make, 1);
    assert_eq!(
        reference.curve.len(),
        ROUNDS,
        "{name}: expected one eval per round"
    );
    for workers in [2, 4] {
        let other = run_protocol(make, workers);
        assert_eq!(
            reference, other,
            "{name}: run diverged under workers={workers}"
        );
    }
}

#[test]
fn fedda_restart_is_bit_identical_across_workers_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedDa::restart()), "FedDA-Restart");
}

#[test]
fn fedda_explore_is_bit_identical_across_workers_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedDa::explore()), "FedDA-Explore");
}

#[test]
fn fedprox_is_bit_identical_across_workers_and_dispatch() {
    assert_invariant_under_execution_strategy(
        &|| {
            Box::new(FedProx {
                mu: 0.1,
                client_fraction: 1.0,
            })
        },
        "FedProx",
    );
}

#[test]
fn feddyn_is_bit_identical_across_workers_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedDyn::new(0.01)), "FedDyn");
}

#[test]
fn fedadam_is_bit_identical_across_workers_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedAdam::new(0.01)), "FedAdam");
}

/// Report order is visible only to a protocol that pairs each report with
/// its own mask: under full masks Eq. 6's `f64` sum of equal-weight `f32`
/// reports is exact, hence order-free. Random per-client unit masks make a
/// report returned at the wrong position aggregate under another client's
/// mask.
#[test]
fn fedavg_random_masks_are_bit_identical_across_workers_and_dispatch() {
    assert_invariant_under_execution_strategy(
        &|| Box::new(FedAvg::with_fractions(1.0, 0.67)),
        "FedAvg-random-masks",
    );
}

#[test]
fn sync_runs_under_compression_are_bit_identical_across_workers_and_threads() {
    // The sync driver encodes and measures each report inside its pool
    // task, in the worker slot's kept buffer, and Eq. 6 decodes it unit by
    // unit — held straggler reports against the broadcast of the round they
    // were dispatched in, corrupted ones through the codec. None of that may
    // depend on which worker ran which client: codec × workers {1, 2, 4}.
    let faults = FaultConfig {
        straggler: 0.3,
        max_staleness: 2,
        corruption: 0.1,
        corruption_kind: Corruption::NaN,
        staleness: StalenessPolicy::Discount { gamma: 0.5 },
        ..Default::default()
    };
    let mut uncompressed = None;
    for compression in [
        None,
        Some(Compression::Identity),
        Some(Compression::QuantI8),
        Some(Compression::TopK { frac: 0.25 }),
    ] {
        let run = |workers: usize| {
            let mut sys = build_system(|cfg| {
                cfg.workers = Some(workers);
                cfg.faults = Some(faults.clone());
                cfg.compression = compression;
            });
            let result = fedda_fl::run(&RuntimeMode::Sync, &mut FedDa::explore(), &mut sys, None)
                .expect("sync compressed run");
            common::fingerprint(&result, &sys)
        };
        let reference = run(1);
        assert!(
            !reference.faults.is_empty(),
            "the fault plan must exercise the held and corrupted paths"
        );
        for workers in [2, 4] {
            assert_eq!(
                reference,
                run(workers),
                "codec {compression:?} diverged under workers={workers}"
            );
        }
        // `ident` is lossless: held and corrupted reports included, it is
        // the run without a codec, bit for bit.
        match compression {
            None => uncompressed = Some(reference),
            Some(Compression::Identity) => assert_eq!(
                Some(reference),
                uncompressed,
                "ident diverged from the uncompressed run"
            ),
            Some(_) => {}
        }
    }
}

#[test]
fn skewed_client_sizes_are_bit_identical_across_workers_and_threads() {
    // `run_reports` hands the pool its clients largest first. With sizes
    // this far apart and out of index order, that order differs from the
    // index order at every pool size — and none of it may show: lockstep
    // and buffered, workers {1, 2, 4}.
    let (split, _) = common::dataset(SCALE, SEED, M);
    let n_types = split.train.schema().num_edge_types();
    let skewed: Vec<ClientData> = [0.1, 0.6, 0.2, 0.9]
        .into_iter()
        .zip(SEED..)
        .flat_map(|(r_a, seed)| {
            let pcfg = PartitionConfig {
                r_a,
                r_b: r_a / 6.0,
                ..PartitionConfig::paper_defaults(1, n_types, seed)
            };
            partition_non_iid(&split.train, &pcfg)
        })
        .collect();
    let edges: Vec<usize> = skewed.iter().map(ClientData::num_edges).collect();
    assert!(
        edges[3] >= 3 * edges[0] && edges[1] >= 3 * edges[0],
        "{edges:?}"
    );
    assert!(edges[0] < edges[1] && edges[1] > edges[2] && edges[2] < edges[3]);
    let run = |buffered: bool, workers: usize| {
        let mut sys = common::system(&split, skewed.clone(), SEED, |cfg| {
            cfg.rounds = ROUNDS;
            cfg.workers = Some(workers);
        });
        let mut protocol = FedDa::explore();
        let result = if buffered {
            fedda_fl::run(
                &RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 }),
                &mut protocol,
                &mut sys,
                None,
            )
        } else {
            fedda_fl::run(&RuntimeMode::Sync, &mut protocol, &mut sys, None)
        }
        .expect("valid protocol configuration");
        common::fingerprint(&result, &sys)
    };
    for buffered in [false, true] {
        let reference = run(buffered, 1);
        assert_eq!(reference.curve.len(), ROUNDS);
        for workers in [2, 4] {
            assert_eq!(
                reference,
                run(buffered, workers),
                "buffered={buffered} diverged under workers={workers}"
            );
        }
    }
}

#[test]
fn pipelined_event_stream_is_bit_identical_across_workers_and_threads() {
    // Round t's evaluation rides round t + 1's pool call and its event is
    // emitted when that pool has joined. Which worker scored it and beside
    // which clients may not show: event t carries evaluation t, events
    // arrive in round order, the final round evaluates whatever the
    // cadence, and the curve is the events' evals — lockstep and buffered,
    // straggler reports crossing rounds, workers {1, 2, 4}, over a round
    // count 3 does not divide.
    const PIPELINE_ROUNDS: usize = 5;
    let faults = FaultConfig {
        straggler: 0.3,
        max_staleness: 2,
        staleness: StalenessPolicy::Discount { gamma: 0.5 },
        ..Default::default()
    };
    for (buffered, eval_every, evaluated) in [
        (false, 1, vec![0, 1, 2, 3, 4]),
        (false, 3, vec![2, 4]),
        (true, 1, vec![0, 1, 2, 3, 4]),
        (true, 3, vec![2, 4]),
    ] {
        let run = |workers: usize| {
            let mut sys = build_system(|cfg| {
                cfg.rounds = PIPELINE_ROUNDS;
                cfg.eval_every = eval_every;
                cfg.workers = Some(workers);
                cfg.faults = Some(faults.clone());
            });
            let mut sink = MemorySink::new();
            let mut protocol = FedDa::explore();
            let result = if buffered {
                AsyncDriver::with_sink(AsyncConfig { k: 2, gamma: 0.9 }, &mut sink)
                    .run(&mut protocol, &mut sys)
            } else {
                RoundDriver::with_sink(&mut sink).run(&mut protocol, &mut sys)
            }
            .expect("valid protocol configuration");
            // Events in round order, event t carrying evaluation t…
            let rounds: Vec<usize> = sink.events.iter().map(|e| e.round).collect();
            assert_eq!(rounds, (0..PIPELINE_ROUNDS).collect::<Vec<_>>());
            let bits = |e: &fedda_fl::RoundEval| (e.round, e.roc_auc.to_bits(), e.mrr.to_bits());
            let carried: Vec<_> = sink
                .events
                .iter()
                .filter_map(|event| event.eval.map(|eval| (event.round, bits(&eval))))
                .collect();
            assert_eq!(
                carried.iter().map(|&(round, _)| round).collect::<Vec<_>>(),
                evaluated,
                "buffered={buffered}, eval_every={eval_every}"
            );
            // …and the curve is exactly what the events carried.
            let curve: Vec<_> = result.curve.iter().map(|e| (e.round, bits(e))).collect();
            assert_eq!(carried, curve);
            (common::fingerprint(&result, &sys), common::events(&sink))
        };
        let reference = run(1);
        for workers in [2, 4] {
            assert_eq!(
                reference,
                run(workers),
                "buffered={buffered}, eval_every={eval_every} diverged under workers={workers}"
            );
        }
    }
}
