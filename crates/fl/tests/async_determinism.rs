//! End-to-end determinism of the buffered-asynchronous runtime: a run must
//! be bit-identical across repeated executions, kernel-thread budgets, and
//! worker-pool sizes — the async mirror of `determinism_e2e.rs`.
//!
//! The virtual clock and the `(tick, seq)`-ordered event queue make arrival
//! order a pure function of the seed, never of host scheduling; the worker
//! pool returns results in submission order for any pool size. Varying
//! `FlConfig::workers` and the kernel-thread budget therefore must not move
//! a single bit of the curve, the comm ledger, the activation trace, or the
//! final parameters.

use fedda_data::{dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda_fl::{
    AsyncConfig, AsyncDriver, Compression, Corruption, FaultConfig, FedAdam, FedAvg, FedDa, FedDyn,
    FedProx, FlConfig, FlProtocol, FlSystem, GlobalProtocol, MemorySink, RoundDriver, RoundEvent,
    RunResult, StalenessPolicy,
};
use fedda_hetgraph::split::split_edges;
use fedda_hgn::{HgnConfig, TrainConfig};
use fedda_tensor::gemm::with_kernel_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: usize = 4;
const ROUNDS: usize = 3;
const SEED: u64 = 1234;

fn build_system(workers: Option<usize>, faults: Option<FaultConfig>) -> FlSystem {
    let g = dblp_like(&PresetOptions {
        scale: 0.0012,
        seed: SEED,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(SEED);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(M, g.schema().num_edge_types(), SEED);
    let clients = partition_non_iid(&split.train, &pcfg);
    let cfg = FlConfig {
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
        parallel: true,
        workers,
        faults,
        ..Default::default()
    };
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

/// Stragglers at a rate that forces multi-tick arrivals and staleness
/// discounting through the async buffer.
fn straggly_faults() -> FaultConfig {
    FaultConfig {
        straggler: 0.3,
        max_staleness: 2,
        corruption: 0.1,
        corruption_kind: Corruption::NaN,
        staleness: StalenessPolicy::Discount { gamma: 0.5 },
        ..Default::default()
    }
}

/// Everything observable about a run, in bit-exact form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    curve: Vec<(usize, u64, u64)>,
    comm: Vec<fedda_fl::RoundComm>,
    activation: Vec<fedda_fl::ActivationSnapshot>,
    faults: Vec<fedda_fl::FaultObserved>,
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
        faults: result.faults.clone(),
        final_params: system
            .global
            .flatten()
            .iter()
            .map(|x| x.to_bits())
            .collect(),
    }
}

/// The run's fingerprint and its event stream — wall time, the one field
/// that is not a function of the seed, zeroed; `f64`'s `Debug` round-trips,
/// so equal strings are equal bits.
fn run_async(
    which: usize,
    acfg: AsyncConfig,
    faults: Option<FaultConfig>,
    workers: Option<usize>,
    kernel_threads: usize,
) -> (Fingerprint, Vec<String>) {
    with_kernel_threads(kernel_threads, || {
        let mut sys = build_system(workers, faults);
        let mut sink = MemorySink::new();
        let mut driver = AsyncDriver::with_sink(acfg, &mut sink);
        let result = match which {
            0 => driver.run(&mut FedAvg::vanilla(), &mut sys),
            _ => driver.run(&mut FedDa::explore().protocol(), &mut sys),
        }
        .expect("async determinism runs use valid configurations");
        let timeless = |e: &RoundEvent| RoundEvent {
            wall_ms: 0.0,
            ..e.clone()
        };
        let events = sink.events.iter().map(|e| format!("{:?}", timeless(e)));
        (fingerprint(&result, &sys), events.collect())
    })
}

fn assert_invariant_under_execution_strategy(
    which: usize,
    faults: Option<FaultConfig>,
    name: &str,
) {
    let acfg = AsyncConfig { k: 2, gamma: 0.9 };
    let reference = run_async(which, acfg, faults.clone(), Some(1), 1);
    assert_eq!(
        reference.0.curve.len(),
        ROUNDS,
        "{name}: expected one eval per version"
    );
    assert_eq!(reference.1.len(), ROUNDS, "{name}: one event per version");
    for (workers, threads) in [
        (Some(2), 1),
        (Some(4), 1),
        (Some(1), 4),
        (Some(2), 4),
        (Some(4), 4),
        (None, 4),
    ] {
        let other = run_async(which, acfg, faults.clone(), workers, threads);
        assert_eq!(
            reference, other,
            "{name}: run diverged under workers={workers:?}, kernel_threads={threads}"
        );
    }
}

#[test]
fn async_fedavg_is_bit_identical_across_threads_and_workers() {
    assert_invariant_under_execution_strategy(0, None, "async FedAvg");
}

#[test]
fn async_fedavg_with_stragglers_is_bit_identical_across_threads_and_workers() {
    assert_invariant_under_execution_strategy(
        0,
        Some(straggly_faults()),
        "async FedAvg + stragglers",
    );
}

#[test]
fn async_fedda_explore_is_bit_identical_across_threads_and_workers() {
    assert_invariant_under_execution_strategy(1, None, "async FedDA-Explore");
}

#[test]
fn async_runs_under_compression_are_bit_identical_across_threads_and_workers() {
    // Every codec is deterministic and RNG-free, so a compressed run must
    // be as execution-strategy-independent as an uncompressed one — the
    // lossy codecs included, whose quantization is pure per-scalar
    // arithmetic on values the worker pool returns in submission order.
    let acfg = AsyncConfig { k: 2, gamma: 0.9 };
    for compression in [
        Compression::Identity,
        Compression::QuantI8,
        Compression::TopK { frac: 0.25 },
    ] {
        let run = |workers: Option<usize>, threads: usize| {
            with_kernel_threads(threads, || {
                let mut sys = build_system(workers, Some(straggly_faults()));
                sys.set_compression(Some(compression));
                let result = AsyncDriver::new(acfg)
                    .run(&mut FedDa::explore().protocol(), &mut sys)
                    .expect("async compressed run");
                fingerprint(&result, &sys)
            })
        };
        let reference = run(Some(1), 1);
        for (workers, threads) in [(Some(4), 1), (Some(1), 4), (None, 4)] {
            let other = run(workers, threads);
            assert_eq!(
                reference, other,
                "codec {compression:?} diverged under workers={workers:?}, \
                 kernel_threads={threads}"
            );
        }
    }
}

#[test]
fn identity_compression_with_stragglers_matches_uncompressed_async() {
    // Stale arrivals carry their compressed payload across versions and
    // decode against the *dispatch-time* broadcast; under the lossless
    // codec that whole detour must reproduce the uncompressed trajectory
    // bit for bit, staleness discounting, rejections and all.
    let acfg = AsyncConfig { k: 2, gamma: 0.9 };
    let run = |compression: Option<Compression>| {
        with_kernel_threads(2, || {
            let mut sys = build_system(Some(2), Some(straggly_faults()));
            sys.set_compression(compression);
            let result = AsyncDriver::new(acfg)
                .run(&mut FedAvg::vanilla(), &mut sys)
                .expect("async run");
            fingerprint(&result, &sys)
        })
    };
    assert_eq!(run(None), run(Some(Compression::Identity)));
}

#[test]
fn sync_facade_is_bit_identical_across_worker_pool_sizes() {
    // The sync driver rides the same worker pool: pool size must not move
    // a bit there either (its cross-thread determinism is pinned by
    // `determinism_e2e.rs`; this adds the workers axis).
    let reference = with_kernel_threads(2, || {
        let mut sys = build_system(Some(1), None);
        let result = FedDa::restart().run(&mut sys);
        fingerprint(&result, &sys)
    });
    for workers in [Some(2), Some(4), None] {
        let other = with_kernel_threads(2, || {
            let mut sys = build_system(workers, None);
            let result = FedDa::restart().run(&mut sys);
            fingerprint(&result, &sys)
        });
        assert_eq!(
            reference, other,
            "sync run diverged under workers={workers:?}"
        );
    }
}

#[test]
fn buffered_with_k_at_federation_size_equals_lockstep() {
    // The law the single round engine rests on: with no fault plan and K at
    // the federation size, every report is fresh, arrives in dispatch order
    // and flushes together, so none of the arrival policy's five decisions
    // can tell the runtimes apart — the eight configurations
    // `golden_curves.rs` pins must agree bit for bit, with and without a
    // lossy codec in the report path.
    type Build = fn() -> Box<dyn FlProtocol>;
    let configurations: [(&str, usize, Build); 8] = [
        ("FedAvg", 1, || Box::new(FedAvg::vanilla())),
        ("FedAvg(C=0.5,D=0.5)", 1, || {
            Box::new(FedAvg::with_fractions(0.5, 0.5))
        }),
        ("FedDA Restart", 1, || Box::new(FedDa::restart().protocol())),
        ("FedDA Explore", 1, || Box::new(FedDa::explore().protocol())),
        // Two local epochs, as in the golden pin: the proximal gradient is
        // zero on the first step from the broadcast anchor.
        ("FedProx", 2, || Box::new(FedProx::new(0.1))),
        ("FedDyn", 1, || Box::new(FedDyn::new(0.01).protocol())),
        ("FedAdam", 1, || Box::new(FedAdam::new(0.01).protocol())),
        ("Global", 1, || Box::new(GlobalProtocol::new())),
    ];
    for (name, local_epochs, build) in configurations {
        for compression in [None, Some(Compression::QuantI8)] {
            let run = |buffered: bool| {
                let mut sys = build_system(Some(2), None);
                let mut train = sys.config().train.clone();
                train.local_epochs = local_epochs;
                sys.set_train(train);
                sys.set_compression(compression);
                let mut protocol = build();
                let result = if buffered {
                    AsyncDriver::new(AsyncConfig { k: M, gamma: 0.5 })
                        .run(protocol.as_mut(), &mut sys)
                } else {
                    RoundDriver::new().run(protocol.as_mut(), &mut sys)
                }
                .expect("valid configuration");
                fingerprint(&result, &sys)
            };
            let lockstep = run(false);
            assert!(lockstep.faults.is_empty(), "{name}: no fault plan");
            assert_eq!(
                lockstep,
                run(true),
                "{name}, codec {compression:?}: K = M buffered run diverged from lockstep"
            );
        }
    }
}
