//! End-to-end determinism: a short FedDA run must be bit-identical across
//! repeated executions, across the parallel/sequential client dispatch
//! paths and across worker-pool sizes. This is the guarantee the
//! `clippy.toml` bans (no hash collections, no wall-clock in protocol code)
//! and the bit-identical GEMM kernels exist to protect.

use fedda_data::{dblp_like, partition_non_iid, ClientData, PartitionConfig, PresetOptions};
use fedda_fl::{
    AsyncConfig, AsyncDriver, Compression, Corruption, FaultConfig, FedAdam, FedDa, FedDyn,
    FedProx, FlConfig, FlProtocol, FlSystem, MemorySink, RoundDriver, RoundEvent, RunResult,
    RuntimeMode, StalenessPolicy,
};
use fedda_hetgraph::split::split_edges;
use fedda_hetgraph::HeteroGraph;
use fedda_hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: usize = 4;
const ROUNDS: usize = 3;
const SEED: u64 = 1234;

fn build_system(parallel: bool) -> FlSystem {
    build_system_with(parallel, None, None)
}

fn build_system_with(
    parallel: bool,
    workers: Option<usize>,
    faults: Option<FaultConfig>,
) -> FlSystem {
    build_system_over(parallel, workers, faults, |train| {
        let pcfg = PartitionConfig::paper_defaults(M, train.schema().num_edge_types(), SEED);
        partition_non_iid(train, &pcfg)
    })
}

/// The test federation over whatever clients `partition` cuts from the
/// training graph.
fn build_system_over(
    parallel: bool,
    workers: Option<usize>,
    faults: Option<FaultConfig>,
    partition: impl FnOnce(&HeteroGraph) -> Vec<ClientData>,
) -> FlSystem {
    build_system_edited(partition, |cfg| {
        cfg.parallel = parallel;
        cfg.workers = workers;
        cfg.faults = faults;
    })
}

/// The test federation with `edit` applied to its configuration.
fn build_system_edited(
    partition: impl FnOnce(&HeteroGraph) -> Vec<ClientData>,
    edit: impl FnOnce(&mut FlConfig),
) -> FlSystem {
    let g = dblp_like(&PresetOptions {
        scale: 0.0012,
        seed: SEED,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(SEED);
    let split = split_edges(&g, 0.15, &mut rng);
    let clients = partition(&split.train);
    let mut cfg = FlConfig {
        rounds: ROUNDS,
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
        seed: SEED,
        ..Default::default()
    };
    edit(&mut cfg);
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

/// Everything observable about a run, in bit-exact form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    curve: Vec<(usize, u64, u64)>,
    comm: Vec<fedda_fl::RoundComm>,
    activation: Vec<fedda_fl::ActivationSnapshot>,
    final_params: Vec<u32>,
}

fn fingerprint(result: &RunResult, system: &FlSystem) -> Fingerprint {
    Fingerprint {
        curve: result
            .curve
            .iter()
            .map(|e| (e.round, e.roc_auc.to_bits(), e.mrr.to_bits()))
            .collect(),
        comm: result.comm.rounds().to_vec(),
        activation: result.activation_trace.clone(),
        final_params: system
            .global
            .flatten()
            .iter()
            .map(|x| x.to_bits())
            .collect(),
    }
}

/// The event stream in comparable form: wall time, the one field that is
/// not a function of the seed, zeroed; `f64`'s `Debug` round-trips, so equal
/// strings are equal bits.
fn event_stream(sink: &MemorySink) -> Vec<String> {
    let timeless = |e: &RoundEvent| RoundEvent {
        wall_ms: 0.0,
        ..e.clone()
    };
    sink.events
        .iter()
        .map(|e| format!("{:?}", timeless(e)))
        .collect()
}

fn run_protocol(make: &dyn Fn() -> Box<dyn FlProtocol>, parallel: bool) -> Fingerprint {
    let mut sys = build_system(parallel);
    // A fresh protocol instance per run: stateful protocols (FedDA's
    // bandit, FedDyn's h, FedAdam's moments) must not leak state between
    // the arms being compared.
    let mut protocol = make();
    let result = fedda_fl::run(&RuntimeMode::Sync, protocol.as_mut(), &mut sys, None)
        .expect("valid protocol configuration");
    fingerprint(&result, &sys)
}

fn assert_invariant_under_execution_strategy(make: &dyn Fn() -> Box<dyn FlProtocol>, name: &str) {
    let reference = run_protocol(make, true);
    assert_eq!(
        reference.curve.len(),
        ROUNDS,
        "{name}: expected one eval per round"
    );
    for parallel in [false, true] {
        let other = run_protocol(make, parallel);
        assert_eq!(
            reference, other,
            "{name}: run diverged under parallel={parallel}"
        );
    }
}

#[test]
fn fedda_restart_is_bit_identical_across_threads_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedDa::restart()), "FedDA-Restart");
}

#[test]
fn fedda_explore_is_bit_identical_across_threads_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedDa::explore()), "FedDA-Explore");
}

#[test]
fn fedprox_is_bit_identical_across_threads_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedProx::new(0.1)), "FedProx");
}

#[test]
fn feddyn_is_bit_identical_across_threads_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedDyn::new(0.01)), "FedDyn");
}

#[test]
fn fedadam_is_bit_identical_across_threads_and_dispatch() {
    assert_invariant_under_execution_strategy(&|| Box::new(FedAdam::new(0.01)), "FedAdam");
}

#[test]
fn sync_runs_under_compression_are_bit_identical_across_workers_and_threads() {
    // The sync driver encodes each report inside its pool task and decodes
    // it in place at arrival — held straggler reports against the broadcast
    // of the round they were dispatched in, corrupted ones through the
    // codec. None of that may depend on which worker ran which client:
    // codec × workers {1, 2, 4}.
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
            let mut sys = build_system_with(true, Some(workers), Some(faults.clone()));
            sys.set_compression(compression);
            let result = fedda_fl::run(&RuntimeMode::Sync, &mut FedDa::explore(), &mut sys, None)
                .expect("sync compressed run");
            (fingerprint(&result, &sys), result.faults)
        };
        let reference = run(1);
        assert!(
            !reference.1.is_empty(),
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
    let skewed = |train: &HeteroGraph| -> Vec<ClientData> {
        let n_types = train.schema().num_edge_types();
        let clients: Vec<ClientData> = [0.1, 0.6, 0.2, 0.9]
            .into_iter()
            .zip(SEED..)
            .flat_map(|(r_a, seed)| {
                let pcfg = PartitionConfig {
                    r_a,
                    r_b: r_a / 6.0,
                    ..PartitionConfig::paper_defaults(1, n_types, seed)
                };
                partition_non_iid(train, &pcfg)
            })
            .collect();
        let edges: Vec<usize> = clients.iter().map(ClientData::num_edges).collect();
        assert!(
            edges[3] >= 3 * edges[0] && edges[1] >= 3 * edges[0],
            "{edges:?}"
        );
        assert!(edges[0] < edges[1] && edges[1] > edges[2] && edges[2] < edges[3]);
        clients
    };
    let run = |buffered: bool, workers: usize| {
        let mut sys = build_system_over(true, Some(workers), None, skewed);
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
        fingerprint(&result, &sys)
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
    let paper_partition = |train: &HeteroGraph| {
        let pcfg = PartitionConfig::paper_defaults(M, train.schema().num_edge_types(), SEED);
        partition_non_iid(train, &pcfg)
    };
    for (buffered, eval_every, evaluated) in [
        (false, 1, vec![0, 1, 2, 3, 4]),
        (false, 3, vec![2, 4]),
        (true, 1, vec![0, 1, 2, 3, 4]),
        (true, 3, vec![2, 4]),
    ] {
        let run = |workers: usize| {
            let mut sys = build_system_edited(paper_partition, |cfg| {
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
            (fingerprint(&result, &sys), event_stream(&sink))
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
