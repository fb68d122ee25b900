//! End-to-end determinism of the buffered-asynchronous runtime: a run must
//! be bit-identical across repeated executions and worker-pool sizes — the
//! async mirror of `determinism_e2e.rs`.
//!
//! The virtual clock and the `(tick, seq)`-ordered event queue make arrival
//! order a pure function of the seed, never of host scheduling; the worker
//! pool returns results in submission order for any pool size. Varying
//! `FlConfig::workers` therefore must not move a single bit of the curve,
//! the comm ledger, the activation trace, or the final parameters.

mod common;

use common::Fingerprint;
use fedda_fl::{
    AsyncConfig, AsyncDriver, Compression, Corruption, FaultConfig, FedAdam, FedAvg, FedDa, FedDyn,
    FedProx, FlConfig, FlProtocol, FlSystem, GlobalProtocol, MemorySink, RuntimeMode,
    StalenessPolicy,
};

const SCALE: f64 = 0.0012;
const M: usize = 4;
const ROUNDS: usize = 3;
const SEED: u64 = 1234;

/// The test federation on `workers` workers under `faults`, with `edit`
/// applied to its configuration.
fn build_system(
    workers: Option<usize>,
    faults: Option<FaultConfig>,
    edit: impl FnOnce(&mut FlConfig),
) -> FlSystem {
    let (split, clients) = common::dataset(SCALE, SEED, M);
    common::system(&split, clients, SEED, |cfg| {
        cfg.rounds = ROUNDS;
        cfg.workers = workers;
        cfg.faults = faults;
        edit(cfg);
    })
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

/// The run's fingerprint and its event stream.
fn run_async(
    which: usize,
    acfg: AsyncConfig,
    faults: Option<FaultConfig>,
    workers: Option<usize>,
) -> (Fingerprint, Vec<String>) {
    let mut sys = build_system(workers, faults, |_| {});
    let mut sink = MemorySink::new();
    let mut driver = AsyncDriver::with_sink(acfg, &mut sink);
    let result = match which {
        0 => driver.run(&mut FedAvg::vanilla(), &mut sys),
        _ => driver.run(&mut FedDa::explore(), &mut sys),
    }
    .expect("async determinism runs use valid configurations");
    (common::fingerprint(&result, &sys), common::events(&sink))
}

fn assert_invariant_under_execution_strategy(
    which: usize,
    faults: Option<FaultConfig>,
    name: &str,
) {
    let acfg = AsyncConfig { k: 2, gamma: 0.9 };
    let reference = run_async(which, acfg, faults.clone(), Some(1));
    assert_eq!(
        reference.0.curve.len(),
        ROUNDS,
        "{name}: expected one eval per version"
    );
    assert_eq!(reference.1.len(), ROUNDS, "{name}: one event per version");
    for workers in [Some(2), Some(4), Some(1), None] {
        let other = run_async(which, acfg, faults.clone(), workers);
        assert_eq!(
            reference, other,
            "{name}: run diverged under workers={workers:?}"
        );
    }
}

#[test]
fn async_fedavg_is_bit_identical_across_workers() {
    assert_invariant_under_execution_strategy(0, None, "async FedAvg");
}

#[test]
fn async_fedavg_with_stragglers_is_bit_identical_across_workers() {
    assert_invariant_under_execution_strategy(
        0,
        Some(straggly_faults()),
        "async FedAvg + stragglers",
    );
}

#[test]
fn async_fedda_explore_is_bit_identical_across_workers() {
    assert_invariant_under_execution_strategy(1, None, "async FedDA-Explore");
}

#[test]
fn async_runs_under_compression_are_bit_identical_across_workers() {
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
        let run = |workers: Option<usize>| {
            let mut sys = build_system(workers, Some(straggly_faults()), |cfg| {
                cfg.compression = Some(compression);
            });
            let result = fedda_fl::run(
                &RuntimeMode::Async(acfg),
                &mut FedDa::explore(),
                &mut sys,
                None,
            )
            .expect("async compressed run");
            common::fingerprint(&result, &sys)
        };
        let reference = run(Some(1));
        for workers in [Some(4), None] {
            let other = run(workers);
            assert_eq!(
                reference, other,
                "codec {compression:?} diverged under workers={workers:?}"
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
        let mut sys = build_system(Some(2), Some(straggly_faults()), |cfg| {
            cfg.compression = compression;
        });
        let result = fedda_fl::run(
            &RuntimeMode::Async(acfg),
            &mut FedAvg::vanilla(),
            &mut sys,
            None,
        )
        .expect("async run");
        common::fingerprint(&result, &sys)
    };
    assert_eq!(run(None), run(Some(Compression::Identity)));
}

#[test]
fn sync_facade_is_bit_identical_across_worker_pool_sizes() {
    // The sync driver rides the same worker pool: pool size must not move
    // a bit there either (its cross-thread determinism is pinned by
    // `determinism_e2e.rs`; this adds the workers axis).
    let run = |workers: Option<usize>| {
        let mut sys = build_system(workers, None, |_| {});
        let result =
            fedda_fl::run(&RuntimeMode::Sync, &mut FedDa::restart(), &mut sys, None).unwrap();
        common::fingerprint(&result, &sys)
    };
    let reference = run(Some(1));
    for workers in [Some(2), Some(4), None] {
        let other = run(workers);
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
        ("FedDA Restart", 1, || Box::new(FedDa::restart())),
        ("FedDA Explore", 1, || Box::new(FedDa::explore())),
        // Two local epochs, as in the golden pin: the proximal gradient is
        // zero on the first step from the broadcast anchor.
        ("FedProx", 2, || {
            Box::new(FedProx {
                mu: 0.1,
                client_fraction: 1.0,
            })
        }),
        ("FedDyn", 1, || Box::new(FedDyn::new(0.01))),
        ("FedAdam", 1, || Box::new(FedAdam::new(0.01))),
        ("Global", 1, || Box::new(GlobalProtocol::new())),
    ];
    for (name, local_epochs, build) in configurations {
        for compression in [None, Some(Compression::QuantI8)] {
            let run = |buffered: bool| {
                let mut sys = build_system(Some(2), None, |cfg| {
                    cfg.train.local_epochs = local_epochs;
                    cfg.compression = compression;
                });
                let mut protocol = build();
                let result = if buffered {
                    fedda_fl::run(
                        &RuntimeMode::Async(AsyncConfig { k: M, gamma: 0.5 }),
                        protocol.as_mut(),
                        &mut sys,
                        None,
                    )
                } else {
                    fedda_fl::run(&RuntimeMode::Sync, protocol.as_mut(), &mut sys, None)
                }
                .expect("valid configuration");
                common::fingerprint(&result, &sys)
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
