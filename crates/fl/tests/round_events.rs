//! Integration coverage for the driver's structured round events and the
//! sparse evaluation cadence: the `RoundEvent` stream must agree with the
//! `CommLog` and the FedDA `ActivationSnapshot` trace (they are three views
//! of the same round), including on the empty-active-set safety net path,
//! and `eval_every > 1` must thin the curve without losing the final round.

use fedda_data::{dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda_fl::{
    baselines, FaultConfig, FaultEffect, FedAvg, FedDa, FlConfig, FlSystem, MaskRule, MemorySink,
    Reactivation, RoundDriver,
};
use fedda_hetgraph::split::split_edges;
use fedda_hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_system(m: usize, seed: u64, rounds: usize, eval_every: usize) -> FlSystem {
    let g = dblp_like(&PresetOptions {
        scale: 0.0015,
        seed,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(m, g.schema().num_edge_types(), seed);
    let clients = partition_non_iid(&split.train, &pcfg);
    let cfg = FlConfig {
        rounds,
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
        eval_every,
        seed,
        parallel: true,
        ..Default::default()
    };
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

/// Events, comm log and activation trace must describe the same rounds.
fn check_events_against_result(
    sink: &MemorySink,
    result: &fedda_fl::RunResult,
    rounds: usize,
    traced: bool,
) {
    assert_eq!(sink.events.len(), rounds, "one event per round");
    let mut comm_rounds = result.comm.rounds().iter();
    for (i, event) in sink.events.iter().enumerate() {
        assert_eq!(event.round, i);
        if event.active_clients.is_empty() && event.comm.uplink_units == 0 {
            // Protocols with no active clients keep an empty comm log —
            // unless a stale straggler report arrived (uplink > 0), which
            // stays on the ledger; their events still carry the (all-zero)
            // counters.
            assert_eq!(event.comm.uplink_units, 0);
            assert_eq!(event.comm.downlink_units, 0);
        } else {
            let rc = comm_rounds.next().expect("comm log entry for the round");
            assert_eq!(&event.comm, rc, "round {i}: event vs comm log");
            assert_eq!(event.active_clients.len(), rc.active_clients);
        }
        if traced {
            let snap = &result.activation_trace[i];
            assert_eq!(event.active_clients, snap.active_clients, "round {i}");
            assert_eq!(event.mask_density, snap.mask_density, "round {i}");
            assert_eq!(event.deactivated, snap.deactivated, "round {i}");
            assert_eq!(event.reactivated, snap.reactivated, "round {i}");
            assert_eq!(event.restarted, snap.restarted, "round {i}");
        } else {
            assert!(event.deactivated.is_empty());
            assert!(event.reactivated.is_empty());
            assert!(!event.restarted);
        }
    }
    assert!(comm_rounds.next().is_none(), "comm log has extra rounds");
    // Totals line up once the per-round entries do; check the sums anyway
    // as that is what dashboards will reconstruct from the stream.
    let up: usize = sink.events.iter().map(|e| e.comm.uplink_units).sum();
    assert_eq!(up, result.comm.total_uplink_units());
    let down: usize = sink.events.iter().map(|e| e.comm.downlink_units).sum();
    assert_eq!(down, result.comm.total_downlink_units());
    // The per-round fault records concatenate to the run's fault log.
    let streamed: Vec<_> = sink
        .events
        .iter()
        .flat_map(|e| e.faults.iter().copied())
        .collect();
    assert_eq!(streamed, result.faults, "event faults vs result faults");
}

#[test]
fn fedda_events_mirror_comm_log_and_activation_trace() {
    let rounds = 5;
    let mut sys = tiny_system(5, 42, rounds, 1);
    let mut sink = MemorySink::new();
    let result = RoundDriver::with_sink(&mut sink)
        .run(&mut FedDa::explore().protocol(), &mut sys)
        .unwrap();
    assert_eq!(sink.runs, vec![("FedDA 2 (Explore)".to_string(), rounds)]);
    assert_eq!(result.activation_trace.len(), rounds);
    check_events_against_result(&sink, &result, rounds, true);
    // Something must actually have been masked/deactivated for this test
    // to exercise the interesting paths.
    assert!(
        sink.events
            .iter()
            .any(|e| !e.deactivated.is_empty() || e.mask_density < 1.0),
        "expected FedDA dynamics to show up in the event stream"
    );
}

#[test]
fn safety_net_restart_is_visible_in_the_event_stream() {
    // α = 1 plus the 0.9-quantile rule deactivates whole cohorts, and the
    // explore cool-down empties the reactivation pool, so the driver's
    // empty-active-set safety net must fire — and the emitted events must
    // report it exactly as the activation trace does.
    let aggressive = FedDa {
        strategy: Reactivation::Explore { beta_e: 0.2 },
        alpha: 1.0,
        mask_rule: MaskRule::GradientQuantile(0.9),
        explore_cooldown: true,
    };
    let m = 4;
    let rounds = 5;
    let mut sys = tiny_system(m, 31, rounds, 1);
    let mut sink = MemorySink::new();
    let result = RoundDriver::with_sink(&mut sink)
        .run(&mut aggressive.protocol(), &mut sys)
        .unwrap();
    check_events_against_result(&sink, &result, rounds, true);
    let fired: Vec<_> = sink.events.iter().filter(|e| e.restarted).collect();
    assert!(!fired.is_empty(), "expected the safety net to fire");
    for event in fired {
        assert_eq!(
            event.reactivated.len(),
            m,
            "the safety-net restore brings everyone back"
        );
    }
}

#[test]
fn faults_emptying_the_round_trip_the_safety_net_every_round() {
    // Dropout rate 1.0: every selected client fails every round, so
    // `on_faults` deactivates the whole cohort and the empty-active-set
    // safety net must fire each round — and the FaultObserved stream, the
    // activation trace and the event stream must tell the same story.
    let m = 4;
    let rounds = 4;
    let mut sys = tiny_system(m, 47, rounds, 1);
    sys.set_faults(Some(FaultConfig::dropout_only(1.0)));
    let mut sink = MemorySink::new();
    let result = RoundDriver::with_sink(&mut sink)
        .run(&mut FedDa::explore().protocol(), &mut sys)
        .unwrap();
    check_events_against_result(&sink, &result, rounds, true);
    let everyone: Vec<usize> = (0..m).collect();
    for (round, event) in sink.events.iter().enumerate() {
        // The previous round's safety net restored everyone…
        assert_eq!(event.active_clients, everyone, "round {round}");
        // …and they all dropped again: one Dropout record per client.
        let failed: Vec<usize> = event.faults.iter().map(|f| f.client).collect();
        assert_eq!(failed, everyone, "round {round}: fault records");
        for f in &event.faults {
            assert_eq!(f.round, round);
            assert_eq!(f.effect, FaultEffect::Dropout);
        }
        // The activation trace is the same collapse seen from the
        // protocol's side: everyone deactivated, the safety-net restart
        // bringing everyone back.
        let snap = &result.activation_trace[round];
        assert_eq!(snap.deactivated, failed, "round {round}: deactivations");
        assert!(snap.restarted, "round {round}: safety net must fire");
        assert_eq!(snap.reactivated.len(), m, "round {round}: full restore");
        // Nobody reported, so no uplink; the broadcast still happened.
        assert_eq!(event.comm.uplink_units, 0);
        assert!(event.comm.downlink_units > 0);
    }
    assert_eq!(result.faults.len(), m * rounds);
    assert!(sys.global.flatten().iter().all(|v| v.is_finite()));
}

#[test]
fn fedavg_events_have_no_activation_dynamics() {
    let rounds = 3;
    let mut sys = tiny_system(3, 7, rounds, 1);
    let mut sink = MemorySink::new();
    let result = RoundDriver::with_sink(&mut sink)
        .run(&mut FedAvg::vanilla(), &mut sys)
        .unwrap();
    assert!(result.activation_trace.is_empty());
    check_events_against_result(&sink, &result, rounds, false);
}

#[test]
fn global_baseline_emits_events_with_empty_comm() {
    let rounds = 3;
    let mut sys = tiny_system(2, 8, rounds, 1);
    let mut sink = MemorySink::new();
    let mut protocol = fedda_fl::GlobalProtocol::new();
    let result = RoundDriver::with_sink(&mut sink)
        .run(&mut protocol, &mut sys)
        .unwrap();
    assert_eq!(result.comm.rounds().len(), 0, "Global never communicates");
    check_events_against_result(&sink, &result, rounds, false);
    for event in &sink.events {
        assert!(event.active_clients.is_empty());
        assert_eq!(event.mask_density, 0.0);
    }
}

#[test]
fn sparse_eval_cadence_thins_the_curve_but_keeps_the_final_round() {
    let rounds = 5;
    let mut sys = tiny_system(3, 13, rounds, 2);
    let mut sink = MemorySink::new();
    let result = RoundDriver::with_sink(&mut sink)
        .run(&mut FedAvg::vanilla(), &mut sys)
        .unwrap();
    // eval_every = 2 over 5 rounds evaluates after rounds 1, 3 and (always)
    // the final round 4.
    let evaluated: Vec<usize> = result.curve.iter().map(|e| e.round).collect();
    assert_eq!(evaluated, vec![1, 3, 4]);
    for (i, event) in sink.events.iter().enumerate() {
        assert_eq!(
            event.eval.is_some(),
            evaluated.contains(&i),
            "round {i}: eval presence"
        );
    }
    assert_eq!(
        result.final_eval.roc_auc,
        result.curve.last().unwrap().roc_auc,
        "final_eval is the last evaluated round"
    );
    // The comm log still covers every round.
    assert_eq!(result.comm.rounds().len(), rounds);
}

#[test]
fn sparse_curves_keep_round_indices_in_rounds_to_auc() {
    let rounds = 6;
    let mut dense_sys = tiny_system(3, 17, rounds, 1);
    let dense = FedAvg::vanilla().run(&mut dense_sys);
    let mut sparse_sys = tiny_system(3, 17, rounds, 3);
    let sparse = FedAvg::vanilla().run(&mut sparse_sys);
    // Evaluation is cadence-independent (same model state, same eval RNG
    // per round), so the sparse curve is a subsequence of the dense one.
    assert_eq!(
        sparse.curve.iter().map(|e| e.round).collect::<Vec<_>>(),
        vec![2, 5]
    );
    for eval in &sparse.curve {
        let dense_eval = dense.curve.iter().find(|e| e.round == eval.round).unwrap();
        assert_eq!(eval.roc_auc.to_bits(), dense_eval.roc_auc.to_bits());
    }
    assert_eq!(sparse.best_auc(), {
        let mut best = f64::NEG_INFINITY;
        for e in &sparse.curve {
            best = best.max(e.roc_auc);
        }
        best
    });
    // rounds_to_auc must return the *round index*, not the curve position:
    // any threshold met by the first sparse point reports round 2, not 0.
    let first = sparse.curve[0].roc_auc;
    assert_eq!(sparse.rounds_to_auc(first), Some(2));
    assert_eq!(sparse.rounds_to_auc(f64::INFINITY), None);
}

/// The `eval_every` law: the cadence picks which rounds are scored and moves
/// nothing else — evaluation is a measurement with its own RNG stream, and
/// no step of the round reads it back.
#[test]
fn eval_every_changes_the_curve_sampling_and_nothing_else() {
    let rounds = 5;
    let run = |eval_every: usize| {
        let mut sys = tiny_system(4, 29, rounds, eval_every);
        let result = FedDa::explore().run(&mut sys);
        let params: Vec<u32> = sys.global.flatten().iter().map(|v| v.to_bits()).collect();
        (result, params)
    };
    let (dense, dense_params) = run(1);
    let (sparse, sparse_params) = run(3);
    assert_eq!(sparse_params, dense_params, "final parameters");
    assert_eq!(sparse.comm.rounds(), dense.comm.rounds(), "comm ledger");
    assert_eq!(sparse.activation_trace, dense.activation_trace);
    assert_eq!(dense.activation_trace.len(), rounds);
    // Every third round, and the final one whatever the cadence.
    let bits = |e: &fedda_fl::RoundEval| (e.round, e.roc_auc.to_bits(), e.mrr.to_bits());
    let sampled: Vec<_> = [2, 4].iter().map(|&r| bits(&dense.curve[r])).collect();
    assert_eq!(sparse.curve.iter().map(bits).collect::<Vec<_>>(), sampled);
    assert_eq!(dense.curve.len(), rounds);
}

#[test]
fn eval_every_zero_is_clamped_to_dense() {
    let rounds = 2;
    let mut sys = tiny_system(2, 19, rounds, 0);
    let result = FedAvg::vanilla().run(&mut sys);
    assert_eq!(result.curve.len(), rounds, "0 behaves like 1 (dense)");
}

#[test]
fn run_global_keeps_its_public_entry_point() {
    // The wrapper and the explicit protocol must be the same computation.
    let rounds = 2;
    let mut a = tiny_system(2, 23, rounds, 1);
    let ra = baselines::run_global(&mut a);
    let mut b = tiny_system(2, 23, rounds, 1);
    let rb = RoundDriver::new()
        .run(&mut fedda_fl::GlobalProtocol::new(), &mut b)
        .unwrap();
    for (x, y) in ra.curve.iter().zip(&rb.curve) {
        assert_eq!(x.roc_auc.to_bits(), y.roc_auc.to_bits());
    }
    assert_eq!(a.global.flatten(), b.global.flatten());
}
