//! The paper's headline claims, as integration tests: FedDA transmits less
//! than FedAvg (RQ2) while staying in the same accuracy range (RQ1), and
//! its activation dynamics behave per Algorithm 1.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
use fedda::fl::{run, FedAvg, FedDa, FlConfig, FlSystem, Reactivation, RuntimeMode};
use fedda::hetgraph::{LinkExample, Schema};
use fedda::hgn::{GraphView, HgnConfig, LinkPredictor, TrainConfig};
use fedda::tensor::{init, Graph, Matrix, ParamId, ParamMeta, ParamSet, TapeBindings, Var};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

fn cfg(dataset: Dataset, clients: usize, rounds: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset,
        scale: 0.002,
        num_clients: clients,
        rounds,
        runs: 1,
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
        eval_every: 1,
        seed,
        workers: None,
        compression: None,
        runtime: Default::default(),
        iid: false,
        weighting: Default::default(),
        privacy: None,
        faults: None,
    }
}

#[test]
fn rq2_fedda_transmits_less_than_fedavg() {
    let exp = Experiment::new(cfg(Dataset::DblpLike, 6, 8, 1));
    let fedavg = exp
        .run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)
        .unwrap();
    let restart = exp
        .run_framework(&Framework::FedDa(FedDa::restart()), None)
        .unwrap();
    let explore = exp
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    assert!(
        restart.uplink_units().mean < fedavg.uplink_units().mean,
        "Restart: {} !< {}",
        restart.uplink_units().mean,
        fedavg.uplink_units().mean
    );
    assert!(
        explore.uplink_units().mean < fedavg.uplink_units().mean,
        "Explore: {} !< {}",
        explore.uplink_units().mean,
        fedavg.uplink_units().mean
    );
}

#[test]
fn rq1_fedda_stays_in_fedavg_accuracy_range() {
    let exp = Experiment::new(cfg(Dataset::AmazonLike, 4, 8, 2));
    let fedavg = exp
        .run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)
        .unwrap();
    let explore = exp
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    // Short runs are noisy; require FedDA to stay within a wide band of
    // FedAvg rather than beat it (the full-scale comparison lives in the
    // table2 bench).
    assert!(
        explore.best_auc().mean > fedavg.best_auc().mean - 0.10,
        "FedDA collapsed: {:.3} vs FedAvg {:.3}",
        explore.best_auc().mean,
        fedavg.best_auc().mean
    );
}

#[test]
fn explore_floor_recovers_within_one_round() {
    // The Explore strategy tops the active set back up to `β_e · M`, but
    // the one-round cool-down on just-deactivated clients can leave a
    // single transient dip; by the following round the cooled-down clients
    // are eligible again and the floor must be restored.
    let exp = Experiment::new(cfg(Dataset::DblpLike, 6, 8, 3));
    let mut fedda = FedDa::explore();
    fedda.strategy = Reactivation::Explore { beta_e: 0.5 };
    let mut system = exp.system_for_run(0);
    let result = run(&RuntimeMode::Sync, &mut fedda, &mut system, None).unwrap();
    let counts: Vec<usize> = result
        .comm
        .rounds()
        .iter()
        .map(|r| r.active_clients)
        .collect();
    for (r, w) in counts.windows(2).enumerate() {
        assert!(w[0] > 0, "round {r} had no active clients");
        if w[0] < 3 {
            assert!(
                w[1] >= 3,
                "floor not restored after the cool-down round: {counts:?}"
            );
        }
    }
}

#[test]
fn restart_resets_masks_to_full_transmission() {
    // A Restart may fire in the same round as a mass deactivation, so the
    // round-start active counts can stay at M throughout; the observable
    // signature is per-client uplink: masking pushes it below N, a restart
    // snaps it back to exactly N.
    let exp = Experiment::new(cfg(Dataset::DblpLike, 6, 10, 4));
    let mut system = exp.system_for_run(0);
    let n = system.num_units() as f64;
    let result = run(&RuntimeMode::Sync, &mut FedDa::restart(), &mut system, None).unwrap();
    let per_client: Vec<f64> = result
        .comm
        .rounds()
        .iter()
        .map(|r| r.uplink_units as f64 / r.active_clients.max(1) as f64)
        .collect();
    let masked_round = per_client.iter().position(|&u| u < n - 0.5);
    assert!(
        masked_round.is_some(),
        "masking never engaged: {per_client:?}"
    );
    let reset_after = per_client[masked_round.unwrap() + 1..]
        .iter()
        .any(|&u| (u - n).abs() < 0.5);
    assert!(
        reset_after,
        "restart never reset the masks back to full transmission: {per_client:?}"
    );
}

#[test]
fn per_client_uplink_shrinks_relative_to_round_zero() {
    let exp = Experiment::new(cfg(Dataset::DblpLike, 4, 6, 5));
    let mut system = exp.system_for_run(0);
    let result = run(&RuntimeMode::Sync, &mut FedDa::explore(), &mut system, None).unwrap();
    let rounds = result.comm.rounds();
    let per_client: Vec<f64> = rounds
        .iter()
        .map(|r| r.uplink_units as f64 / r.active_clients.max(1) as f64)
        .collect();
    assert!(
        per_client.iter().skip(1).any(|&u| u < per_client[0]),
        "parameter masking never engaged: {per_client:?}"
    );
}

/// A link predictor whose layout is not Simple-HGN's: one linear projection
/// per node type (shared units), one DistMult relation vector per edge type
/// (disentangled units), no message passing.
struct TypedProjection {
    dim: usize,
    proj: Vec<ParamId>,
    rel: Vec<ParamId>,
}

impl TypedProjection {
    fn init_params(schema: &Schema, dim: usize, rng: &mut StdRng) -> (Self, ParamSet) {
        let mut ps = ParamSet::new();
        let proj = schema
            .node_type_ids()
            .map(|t| {
                let meta = schema.node_type(t);
                let w = init::xavier_uniform(rng, meta.feat_dim, dim);
                ps.add(format!("proj.{}", meta.name), w)
            })
            .collect();
        let rel = (0..schema.num_edge_types())
            .map(|t| {
                let ones = Matrix::full(1, dim, 1.0);
                ps.add_with_meta(format!("rel.t{t}"), ones, ParamMeta::per_edge_type(t))
            })
            .collect();
        (Self { dim, proj, rel }, ps)
    }
}

impl LinkPredictor for TypedProjection {
    fn encode_nodes(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
        _dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        // Each type's `x·W` placed at its nodes' rows (no bias).
        let per_type = view.type_features.iter().zip(&view.type_global_ids);
        let no_bias = graph.input(Matrix::zeros(1, self.dim));
        let mut parts = Vec::new();
        for ((feats, ids), &w) in per_type.zip(&self.proj) {
            let x = graph.input(feats.clone());
            let w = bindings.leaf(graph, params, w);
            parts.push((x, w, no_bias, ids.clone()));
        }
        graph.project_rows(&parts, view.num_nodes)
    }

    fn score_examples(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        embeddings: Var,
        examples: &[LinkExample],
    ) -> Var {
        let column = |f: fn(&LinkExample) -> u32| Arc::new(examples.iter().map(f).collect());
        let src = graph.gather_rows(embeddings, column(|e| e.src));
        let dst = graph.gather_rows(embeddings, column(|e| e.dst));
        let rel: Vec<Var> = (self.rel.iter())
            .map(|&id| bindings.leaf(graph, params, id))
            .collect();
        let rel = graph.concat_rows(&rel);
        let rel = graph.gather_rows(rel, column(|e| u32::from(e.etype.0)));
        let modulated = graph.mul(src, rel);
        graph.row_dot(modulated, dst)
    }

    fn uses_self_loops(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "typed-projection"
    }
}

#[test]
fn fedda_drives_a_test_local_model_through_with_model() {
    // The paper claims FedDA "can fit any HGN model" (§6.1); swap in a
    // predictor with another parameter layout via the LinkPredictor seam.
    let exp = Experiment::new(cfg(Dataset::DblpLike, 4, 5, 7));
    assert_eq!(exp.system_for_run(0).model.name(), "Simple-HGN");
    let clients = exp.clients_for_run(0);
    let (model, params) =
        TypedProjection::init_params(exp.split().train.schema(), 8, &mut StdRng::seed_from_u64(1));
    let fl_cfg = FlConfig {
        rounds: 5,
        train: TrainConfig {
            local_epochs: 1,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 3,
        seed: 7,
        ..Default::default()
    };
    let mut system = FlSystem::with_model(
        &exp.split().train,
        &exp.split().test,
        clients,
        fl_cfg,
        Box::new(model),
        params,
    );
    assert_eq!(system.model.name(), "typed-projection");
    // The per-relation vectors are disentangled units FedDA can mask.
    assert!(system.num_disentangled_units() >= 5);
    let fedavg_units = 5 * 4 * system.num_units();
    // Each client trains on two of DBLP's five edge types, so three of its
    // relation vectors never move and are masked after round 0; the default
    // α = 0.5 would then deactivate the whole cohort every round and the
    // safety net would restore it in full.
    let mut fedda = FedDa::explore();
    fedda.alpha = 0.2;
    let result = run(&RuntimeMode::Sync, &mut fedda, &mut system, None).unwrap();
    assert_eq!(result.curve.len(), 5);
    assert!(result.final_eval.roc_auc.is_finite());
    assert!(
        result.comm.total_uplink_units() < fedavg_units,
        "FedDA over another model still saves uplink"
    );
    assert!(system.global.values().iter().all(|v| v.is_finite()));
}

#[test]
fn fedavg_partial_variants_match_fig2_accounting() {
    let exp = Experiment::new(cfg(Dataset::DblpLike, 6, 4, 6));
    let full = exp
        .run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)
        .unwrap();
    let c67 = exp
        .run_framework(&Framework::FedAvg(FedAvg::with_fractions(0.67, 1.0)), None)
        .unwrap();
    let d67 = exp
        .run_framework(&Framework::FedAvg(FedAvg::with_fractions(1.0, 0.67)), None)
        .unwrap();
    // C = 0.67 of 6 clients = 4 per round.
    assert!((c67.uplink_units().mean - full.uplink_units().mean * 4.0 / 6.0).abs() < 1e-6);
    // D = 0.67 masks units per client.
    assert!(d67.uplink_units().mean < full.uplink_units().mean);
    assert!(d67.uplink_units().mean > full.uplink_units().mean * 0.5);
}
