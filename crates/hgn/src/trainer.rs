//! Local training and evaluation of a Simple-HGN link predictor.
//!
//! This is the `ClientUpdate` inner loop of Algorithm 1, run for `E`
//! epochs: each epoch pairs every local positive with freshly sampled
//! negatives, shuffles positives and negatives together, and takes one
//! gradient step per batch of `B` examples — `⌈(1 + negatives) ·
//! positives / B⌉` steps, each of which encodes the whole local graph.
//! Evaluation computes the paper's two metrics (ROC-AUC and MRR) on
//! held-out edges.

use crate::predictor::LinkPredictor;
use crate::view::GraphView;
use fedda_hetgraph::{LinkExample, LinkSampler};
use fedda_metrics::{mrr_of_groups, roc_auc, GroupedMetric};
use fedda_tensor::{Adam, Graph, ParamSet, TapeBindings};
use rand::Rng;
use std::sync::Arc;

/// Local-training hyper-parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Local epochs per round (`E` in Algorithm 1).
    pub local_epochs: usize,
    /// Mini-batch size (`B`): examples per gradient step, positives and
    /// their negatives shuffled together, so an epoch takes
    /// `⌈(1 + negatives_per_positive) · positives / B⌉` steps.
    pub batch_size: usize,
    /// Learning rate (paper: 5e-4 with Adam at full scale).
    pub lr: f32,
    /// Negative samples per positive for the training loss.
    pub negatives_per_positive: usize,
    /// Gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            local_epochs: 1,
            batch_size: 4096,
            lr: 1e-2,
            negatives_per_positive: 1,
            grad_clip: 5.0,
        }
    }
}

impl TrainConfig {
    /// Validate ranges: at least one local epoch, a finite positive
    /// learning rate, a finite non-negative gradient clip (0 disables it).
    pub fn validate(&self) -> Result<(), String> {
        if self.local_epochs == 0 {
            return Err("local_epochs must be at least 1, got 0".into());
        }
        let (lr, clip) = (self.lr, self.grad_clip);
        if !(lr.is_finite() && lr > 0.0) {
            return Err(format!("lr must be finite and positive, got {lr}"));
        }
        if !(clip.is_finite() && clip >= 0.0) {
            return Err(format!(
                "grad_clip must be finite and non-negative, got {clip}"
            ));
        }
        Ok(())
    }
}

/// Summary of one local training call.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainStats {
    /// Number of gradient steps taken.
    pub steps: usize,
}

/// A differentiable penalty added to the local objective at every gradient
/// step — the client-side seam federated regularisers (FedProx, FedDyn)
/// plug into.
///
/// The penalised objective is
/// `L(θ) + μ/2·‖θ − θ_ref‖² + ⟨linear, θ⟩`, so each step's gradient gains
/// `μ·(θ − θ_ref) + linear`. The penalty gradient is applied *after* the
/// task gradients accumulate and *before* gradient clipping, so the clip
/// bounds the full (regularised) update direction.
#[derive(Clone, Copy, Debug)]
pub struct Penalty<'a> {
    /// Proximal coefficient `μ ≥ 0` (FedProx's μ, FedDyn's α).
    pub prox_mu: f32,
    /// Anchor `θ_ref` of the proximal term — normally the round's broadcast
    /// parameters. Must have the same unit layout as the trained set.
    pub reference: &'a ParamSet,
    /// Optional linear-term gradient in [`ParamSet::values`] order, added
    /// verbatim to every step's gradient (FedDyn's `−∇̂ᵢ` state).
    pub linear: Option<&'a [f32]>,
}

/// Add the penalty gradient `μ·(θ − θ_ref) + linear` to every accumulated
/// gradient: one pass over the flat value and gradient buffers.
fn apply_penalty_grads(params: &mut ParamSet, penalty: &Penalty<'_>) {
    let reference = penalty.reference.values();
    let (theta, grads) = params.values_and_grads_mut();
    assert_eq!(theta.len(), reference.len(), "penalty reference layout");
    let mu = penalty.prox_mu;
    let prox = grads.iter_mut().zip(theta.iter().zip(reference));
    match penalty.linear {
        Some(linear) => {
            assert_eq!(
                linear.len(),
                theta.len(),
                "linear penalty must be one value per scalar in values order"
            );
            for ((g, (&t, &r)), &lin) in prox.zip(linear) {
                *g += mu * (t - r) + lin;
            }
        }
        // The `+ 0.0` is the absent linear term of the line above: it
        // turns a `-0.0` proximal gradient into `+0.0` exactly as adding a
        // zero linear term would.
        None => {
            for (g, (&t, &r)) in prox {
                *g += mu * (t - r) + 0.0;
            }
        }
    }
}

/// Run `E` local epochs of link-prediction training on one graph, on a
/// fresh [`Workspace`].
///
/// `positives` is the client's local task (a biased client passes only its
/// specialised types, per §6.1); message passing always uses the full local
/// graph `view`. Gradients live only inside the call: `params` comes back
/// holding values only.
pub fn train_local<R: Rng>(
    model: &dyn LinkPredictor,
    params: &mut ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    positives: &[LinkExample],
    config: &TrainConfig,
    rng: &mut R,
) -> TrainStats {
    Workspace::default().train(model, params, view, sampler, positives, config, None, rng)
}

/// The memory one worker trains and evaluates in, kept from call to call:
/// the tape (cleared between steps, never freed), its parameter bindings,
/// the gradient buffer and Adam's moments.
///
/// Every call starts from what a fresh workspace holds — an empty tape,
/// zeroed gradients, zeroed moments at step 0 — so results never depend on
/// what a workspace served before; only its memory carries over. After the
/// largest call it will serve, none of it grows again, and nothing it
/// holds is handed back to the C allocator, which would otherwise trim the
/// freed heap top and fault it back in on the next step (DESIGN §11).
#[derive(Default)]
pub struct Workspace {
    graph: Graph,
    bindings: TapeBindings,
    grads: Vec<f32>,
    adam: Option<Adam>,
}

impl Workspace {
    /// The tape alone, for an [`evaluate`] call: scoring records no
    /// gradients and touches no optimiser state.
    pub fn graph(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// [`train_local`] in this workspace, with an optional [`Penalty`] on
    /// the objective. With `penalty: None` the penalty branch adds no RNG
    /// draws and no float operations.
    #[allow(
        clippy::too_many_arguments,
        reason = "train_local's seven arguments plus the optional penalty"
    )]
    pub fn train<R: Rng>(
        &mut self,
        model: &dyn LinkPredictor,
        params: &mut ParamSet,
        view: &GraphView,
        sampler: &LinkSampler<'_>,
        positives: &[LinkExample],
        config: &TrainConfig,
        penalty: Option<&Penalty<'_>>,
        rng: &mut R,
    ) -> TrainStats {
        assert!(config.local_epochs > 0, "local_epochs must be positive");
        if positives.is_empty() {
            params.release_grads();
            return TrainStats::default();
        }
        let Self {
            graph,
            bindings,
            grads,
            adam,
        } = self;
        params.zero_grads_in(std::mem::take(grads));
        let adam = adam.get_or_insert_with(|| Adam::new(config.lr));
        adam.restart(config.lr, params);
        let mut steps = 0usize;
        for _epoch in 0..config.local_epochs {
            let mut examples =
                sampler.with_negatives(positives, config.negatives_per_positive, rng);
            let batch_size = config.batch_size.max(1);
            for batch in LinkSampler::shuffled_batches(&mut examples, batch_size, rng) {
                graph.clear();
                bindings.clear();
                let train_rng = Some(rng as &mut dyn rand::RngCore);
                let emb = model.encode_nodes(graph, bindings, params, view, train_rng);
                let logits = model.score_examples(graph, bindings, params, emb, batch);
                let targets: Vec<f32> = batch
                    .iter()
                    .map(|e| if e.label { 1.0 } else { 0.0 })
                    .collect();
                let loss = graph.bce_with_logits(logits, Arc::new(targets));
                graph.backward(loss);
                params.zero_grads();
                bindings.accumulate_grads(graph, params);
                if let Some(pen) = penalty {
                    apply_penalty_grads(params, pen);
                }
                if config.grad_clip > 0.0 {
                    params.clip_grad_norm(config.grad_clip);
                }
                adam.step(params);
                steps += 1;
            }
        }
        *grads = params.take_grads();
        TrainStats { steps }
    }
}

/// Link-prediction evaluation result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalResult {
    /// ROC-AUC over positives and sampled negatives.
    pub roc_auc: f64,
    /// Mean reciprocal rank of each positive against its negatives.
    pub mrr: f64,
}

/// What [`evaluate`] and [`auc_by_edge_type`] score: the positives and
/// their sampled negatives, laid out positive-first per ranking query by
/// `with_negatives`, and one logit each. `None` when there is nothing to
/// score.
#[allow(
    clippy::too_many_arguments,
    reason = "evaluate's seven arguments plus the tape"
)]
fn score<R: Rng + ?Sized>(
    model: &dyn LinkPredictor,
    graph: &mut Graph,
    params: &ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    test_positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut R,
) -> Option<(Vec<LinkExample>, Vec<f32>)> {
    assert!(
        negatives_per_positive > 0,
        "need at least one negative per positive"
    );
    if test_positives.is_empty() {
        return None;
    }
    let examples = sampler.with_negatives(test_positives, negatives_per_positive, rng);
    let logits = model.logits_on(graph, params, view, &examples);
    Some((examples, logits))
}

/// Evaluate on held-out positives: each is scored against
/// `negatives_per_positive` type-respecting corruptions.
///
/// Message passing uses `view` (normally the *training* graph — scoring
/// test edges through a graph that contains them leaks labels). The scoring
/// runs on `graph`, cleared first: a caller that evaluates often passes the
/// same tape each time, so its memory is kept.
#[allow(
    clippy::too_many_arguments,
    reason = "the evaluation inputs plus the tape that scores them"
)]
pub fn evaluate<R: Rng + ?Sized>(
    model: &dyn LinkPredictor,
    graph: &mut Graph,
    params: &ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    test_positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut R,
) -> EvalResult {
    let n = negatives_per_positive;
    let Some((examples, logits)) =
        score(model, graph, params, view, sampler, test_positives, n, rng)
    else {
        return EvalResult::default();
    };
    let labels: Vec<bool> = examples.iter().map(|e| e.label).collect();
    EvalResult {
        roc_auc: roc_auc(&logits, &labels),
        // The examples are read in place as ranking queries: the positive,
        // then its negatives.
        mrr: mrr_of_groups(&logits, 1 + n),
    }
}

/// ROC-AUC per edge type (label, value, positive count) over the same
/// scored examples as [`evaluate`], on `graph` as there — the fairness view
/// (does the global model serve rare link types?). A type whose examples
/// are all of one class scores 0.5.
#[allow(
    clippy::too_many_arguments,
    reason = "the evaluation inputs plus the tape that scores them"
)]
pub fn auc_by_edge_type<R: Rng + ?Sized>(
    model: &dyn LinkPredictor,
    graph: &mut Graph,
    params: &ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    test_positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut R,
) -> GroupedMetric {
    let n = negatives_per_positive;
    let Some((examples, logits)) =
        score(model, graph, params, view, sampler, test_positives, n, rng)
    else {
        return GroupedMetric::default();
    };
    // Slice the flat example/logit arrays by type.
    let schema = sampler.graph().schema();
    let mut by_type = Vec::new();
    for t in schema.edge_type_ids() {
        let (mut scores, mut labs) = (Vec::new(), Vec::new());
        for (e, &logit) in examples.iter().zip(&logits) {
            if e.etype == t {
                scores.push(logit);
                labs.push(e.label);
            }
        }
        let n_pos = labs.iter().filter(|&&l| l).count();
        let value = if n_pos > 0 && n_pos < labs.len() {
            roc_auc(&scores, &labs)
        } else {
            0.5
        };
        by_type.push((schema.edge_type(t).name.clone(), value, n_pos));
    }
    GroupedMetric::new(by_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HgnConfig;
    use crate::SimpleHgn;
    use fedda_data::{amazon_like, PresetOptions};
    use fedda_hetgraph::split::split_edges;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let opts = PresetOptions {
            scale: 0.004,
            seed: 3,
        };
        let g = amazon_like(&opts).graph;
        let mut rng = StdRng::seed_from_u64(0);
        let split = split_edges(&g, 0.2, &mut rng);
        let cfg = HgnConfig {
            hidden_dim: 8,
            num_layers: 2,
            num_heads: 2,
            ..Default::default()
        };
        let (model, mut params) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&split.train, cfg.add_self_loops);
        let train_sampler = LinkSampler::new(&split.train);
        let test_sampler = LinkSampler::new(&split.test);
        let positives = train_sampler.all_positives();
        let test_pos = test_sampler.all_positives();

        let g = &mut Graph::new();
        let before = evaluate(
            &model,
            g,
            &params,
            &view,
            &train_sampler,
            &test_pos,
            5,
            &mut rng,
        );
        let tc = TrainConfig {
            local_epochs: 30,
            lr: 5e-3,
            ..Default::default()
        };
        let stats = train_local(
            &model,
            &mut params,
            &view,
            &train_sampler,
            &positives,
            &tc,
            &mut rng,
        );
        assert!(stats.steps >= 30);
        let after = evaluate(
            &model,
            g,
            &params,
            &view,
            &train_sampler,
            &test_pos,
            5,
            &mut rng,
        );
        assert!(
            after.roc_auc > 0.60,
            "trained AUC should clearly beat chance, got {:.3} (before {:.3})",
            after.roc_auc,
            before.roc_auc
        );
        assert!(after.roc_auc > before.roc_auc + 0.03);
        assert!(after.mrr > 0.0 && after.mrr <= 1.0);
    }

    #[test]
    fn empty_positives_are_a_no_op() {
        let opts = PresetOptions {
            scale: 0.002,
            seed: 3,
        };
        let g = amazon_like(&opts).graph;
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = HgnConfig::default();
        let (model, mut params) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&g, cfg.add_self_loops);
        let sampler = LinkSampler::new(&g);
        let before = params.flatten();
        let stats = train_local(
            &model,
            &mut params,
            &view,
            &sampler,
            &[],
            &TrainConfig::default(),
            &mut rng,
        );
        assert_eq!(stats.steps, 0);
        assert_eq!(params.flatten(), before);
        let g = &mut Graph::new();
        let eval = evaluate(&model, g, &params, &view, &sampler, &[], 3, &mut rng);
        assert_eq!(eval, EvalResult::default());
    }

    /// A trained set comes back as values only, under the layout it went in
    /// with: the gradient buffer lives and dies inside the call.
    #[test]
    fn train_local_hands_back_values_only() {
        let g = amazon_like(&PresetOptions {
            scale: 0.002,
            seed: 3,
        })
        .graph;
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            ..Default::default()
        };
        let (model, global) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&g, cfg.add_self_loops);
        let sampler = LinkSampler::new(&g);
        let positives = sampler.all_positives();
        let mut params = global.clone();
        params.zero_grads();
        let stats = train_local(
            &model,
            &mut params,
            &view,
            &sampler,
            &positives,
            &TrainConfig::default(),
            &mut rng,
        );
        assert!(stats.steps > 0);
        assert!(
            params.take_grads().is_empty(),
            "a trained set kept its gradients"
        );
        // Under the global layout: the global values are copied into the
        // set's own memory, not cloned over it.
        let mut probe = params.clone();
        let memory = probe.values().as_ptr();
        probe.copy_from(&global);
        assert_eq!(probe.values().as_ptr(), memory);
        assert_ne!(params.values(), global.values());
    }

    #[test]
    fn detailed_evaluation_breaks_down_by_edge_type() {
        let opts = PresetOptions {
            scale: 0.004,
            seed: 3,
        };
        let g = amazon_like(&opts).graph;
        let mut rng = StdRng::seed_from_u64(0);
        let split = split_edges(&g, 0.2, &mut rng);
        let cfg = HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            ..Default::default()
        };
        let (model, params) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&split.train, cfg.add_self_loops);
        let sampler = LinkSampler::new(&split.train);
        let test_sampler = LinkSampler::new(&split.test);
        let test_pos = test_sampler.all_positives();
        let g = &mut Graph::new();
        let by_type = auc_by_edge_type(&model, g, &params, &view, &sampler, &test_pos, 4, &mut rng);
        assert_eq!(by_type.groups.len(), 2);
        let support: usize = by_type.groups.iter().map(|(_, _, n)| n).sum();
        assert_eq!(support, test_pos.len());
        assert!(by_type.groups.iter().all(|(_, v, _)| v.is_finite()));
        // empty input is safe
        let empty = auc_by_edge_type(&model, g, &params, &view, &sampler, &[], 4, &mut rng);
        assert_eq!(empty, GroupedMetric::default());
    }

    /// Each edge type's value is `roc_auc` over that type's scored examples
    /// — the positives and the negatives drawn for them, re-drawn here from
    /// the same RNG state — or 0.5 when they are of one class, and the
    /// supports sum to the test positives.
    #[test]
    fn auc_by_edge_type_is_roc_auc_over_each_types_examples() {
        let g = amazon_like(&PresetOptions {
            scale: 0.004,
            seed: 5,
        })
        .graph;
        let mut rng = StdRng::seed_from_u64(2);
        let split = split_edges(&g, 0.2, &mut rng);
        let cfg = HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            ..Default::default()
        };
        let (model, params) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&split.train, cfg.add_self_loops);
        let sampler = LinkSampler::new(&split.train);
        let schema = split.train.schema();
        let mut test_pos = LinkSampler::new(&split.test).all_positives();
        // Two cases: every test positive, and only the first edge type's,
        // which leaves the second type with no examples at all.
        let first = schema.edge_type_ids().next().unwrap();
        let only_first: Vec<LinkExample> = (test_pos.iter())
            .filter(|e| e.etype == first)
            .cloned()
            .collect();
        for positives in [std::mem::take(&mut test_pos), only_first] {
            let g = &mut Graph::new();
            let seed = StdRng::seed_from_u64(9);
            let got = auc_by_edge_type(
                &model,
                g,
                &params,
                &view,
                &sampler,
                &positives,
                3,
                &mut seed.clone(),
            );
            let examples = sampler.with_negatives(&positives, 3, &mut seed.clone());
            let logits = model.logits_on(g, &params, &view, &examples);
            assert_eq!(got.groups.len(), schema.num_edge_types());
            for ((name, value, support), t) in got.groups.iter().zip(schema.edge_type_ids()) {
                assert_eq!(name, &schema.edge_type(t).name);
                let (scores, labels): (Vec<f32>, Vec<bool>) = (examples.iter().zip(&logits))
                    .filter(|(e, _)| e.etype == t)
                    .map(|(e, &l)| (l, e.label))
                    .unzip();
                let positives_of_t = labels.iter().filter(|&&l| l).count();
                assert_eq!(*support, positives_of_t);
                let want = if positives_of_t == 0 || positives_of_t == labels.len() {
                    0.5
                } else {
                    roc_auc(&scores, &labels)
                };
                assert_eq!(value.to_bits(), want.to_bits(), "edge type {name}");
            }
            let total: usize = got.groups.iter().map(|(_, _, n)| n).sum();
            assert_eq!(total, positives.len());
        }
    }

    /// One client of [`a_reused_workspace_is_invisible`]: its graph at a
    /// scale, the message-passing view and its training positives.
    fn client(scale: f64) -> (fedda_hetgraph::HeteroGraph, GraphView, Vec<LinkExample>) {
        let opts = PresetOptions { scale, seed: 3 };
        let g = amazon_like(&opts).graph;
        let view = GraphView::new(&g, true);
        let positives = LinkSampler::new(&g).all_positives();
        (g, view, positives)
    }

    /// One workspace trains client A, then a larger client B, then A again,
    /// in batches and in one whole-client step: parameters match fresh
    /// workspaces by `to_bits`, and step counts match. (That the tape stops growing across
    /// this pattern is the tape's own unit test,
    /// `a_cleared_tape_stops_growing_across_clients_and_rounds`.)
    #[test]
    fn a_reused_workspace_is_invisible() {
        let (a, b) = (client(0.002), client(0.004));
        let cfg = HgnConfig {
            hidden_dim: 4,
            num_layers: 2,
            num_heads: 2,
            ..Default::default()
        };
        let (model, init) =
            SimpleHgn::init_params(a.0.schema(), &cfg, &mut StdRng::seed_from_u64(1));
        let tc = TrainConfig {
            local_epochs: 2,
            batch_size: 64,
            ..Default::default()
        };
        let train = |ws: &mut Workspace, c: &(_, GraphView, Vec<LinkExample>), tc: &TrainConfig| {
            let mut params = init.clone();
            let sampler = LinkSampler::new(&c.0);
            let mut rng = StdRng::seed_from_u64(7);
            let stats = ws.train(
                &model,
                &mut params,
                &c.1,
                &sampler,
                &c.2,
                tc,
                None,
                &mut rng,
            );
            let bits: Vec<u32> = params.values().iter().map(|v| v.to_bits()).collect();
            (bits, stats.steps)
        };
        let fresh = |c| train(&mut Workspace::default(), c, &tc);
        let (fresh_a, fresh_b) = (fresh(&a), fresh(&b));
        assert!(fresh_a.1 > 2 && fresh_b.1 > fresh_a.1);
        let mut ws = Workspace::default();
        assert_eq!(train(&mut ws, &a, &tc), fresh_a);
        assert_eq!(train(&mut ws, &b, &tc), fresh_b);
        assert_eq!(train(&mut ws, &a, &tc), fresh_a);

        // The largest step a client takes is one batch of all its examples.
        let whole = TrainConfig {
            local_epochs: 1,
            batch_size: usize::MAX,
            ..tc.clone()
        };
        let fresh_whole = |c| train(&mut Workspace::default(), c, &whole);
        let mut ws = Workspace::default();
        for c in [&a, &b] {
            let whole_step = train(&mut ws, c, &whole);
            assert_eq!(whole_step.1, 1);
            assert_eq!(whole_step, fresh_whole(c));
            assert_eq!(train(&mut ws, c, &tc), fresh(c));
        }
    }

    /// A scalar from the families a reordered pass would betray: signed
    /// zeros, subnormals, and magnitudes over seven decades.
    fn awkward(rng: &mut StdRng) -> f32 {
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            2 => sign * f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            _ => sign * rng.gen_range(0.0f32..1.0) * 10f32.powi(rng.gen_range(-3i32..4)),
        }
    }

    proptest! {
        /// The penalty pass over the flat buffers gives each gradient what
        /// it got when every unit was a matrix of its own — `μ·(θ − θ_ref)
        /// + linear`, the linear term read at a running offset — by
        /// `to_bits`, with and without the linear term, on 1–6 units of
        /// awkward shapes (empty ones included).
        #[test]
        fn penalty_pass_equals_its_per_unit_reference(
            shapes in prop::collection::vec((0usize..4, 1usize..14), 1..7),
            mu in prop_oneof![Just(0.0f32), Just(0.01f32), Just(1.0f32)],
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut units = || -> Vec<Vec<f32>> {
                (shapes.iter())
                    .map(|&(r, c)| (0..r * c).map(|_| awkward(&mut rng)).collect())
                    .collect()
            };
            let (theta, anchor, grads, linear) = (units(), units(), units(), units().concat());
            let set = |values: &[Vec<f32>]| {
                let mut ps = ParamSet::new();
                for (k, (&(r, c), unit)) in shapes.iter().zip(values).enumerate() {
                    ps.add(format!("u{k}"), fedda_tensor::Matrix::from_vec(r, c, unit.clone()));
                }
                ps
            };
            let reference = set(&anchor);
            for linear in [None, Some(linear.as_slice())] {
                let mut ps = set(&theta);
                ps.values_and_grads_mut().1.copy_from_slice(&grads.concat());
                apply_penalty_grads(&mut ps, &Penalty { prox_mu: mu, reference: &reference, linear });
                let mut want = grads.clone();
                let mut offset = 0;
                for ((t, g), r) in theta.iter().zip(&mut want).zip(&anchor) {
                    for i in 0..t.len() {
                        let lin = linear.map_or(0.0, |l| l[offset + i]);
                        g[i] += mu * (t[i] - r[i]) + lin;
                    }
                    offset += t.len();
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&ps.take_grads()), bits(&want.concat()));
            }
        }
    }
}
