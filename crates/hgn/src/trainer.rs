//! Local training and evaluation of a Simple-HGN link predictor.
//!
//! This is the `ClientUpdate` inner loop of Algorithm 1: split the local
//! positives into batches of size `B`, pair each with sampled negatives,
//! and run `E` epochs of gradient steps. Evaluation computes the paper's
//! two metrics (ROC-AUC and MRR) on held-out edges.

use crate::predictor::LinkPredictor;
use crate::view::GraphView;
use fedda_hetgraph::{LinkExample, LinkSampler};
use fedda_metrics::{mrr, roc_auc, RankQuery};
use fedda_tensor::{Adam, Graph, ParamSet, TapeBindings};
use rand::Rng;
use std::sync::Arc;

/// Local-training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Local epochs per round (`E` in Algorithm 1).
    pub local_epochs: usize,
    /// Mini-batch size (`B`); positives per batch before negatives.
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

/// Summary of one local training call.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainStats {
    /// Mean loss over all batches.
    pub mean_loss: f32,
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
pub fn apply_penalty_grads(params: &mut ParamSet, penalty: &Penalty<'_>) {
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

/// Run `E` local epochs of link-prediction training on one graph.
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
    train_local_penalized(model, params, view, sampler, positives, config, None, rng)
}

/// [`train_local`] with an optional [`Penalty`] on the objective.
///
/// With `penalty: None` this is bit-identical to [`train_local`] — the
/// penalty branch adds no RNG draws and no float operations when absent.
#[allow(
    clippy::too_many_arguments,
    reason = "train_local's seven arguments plus the optional penalty"
)]
pub fn train_local_penalized<R: Rng>(
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
    // The training buffers — gradients and Adam moments — are allocated
    // here, after the values and before the first tape, and released
    // together when the call returns. Allocated at the first step instead,
    // they sit above that tape, the C allocator hands the heap top they
    // free back to the kernel, and the next client faults it in again
    // (twice the minor faults on a round of many small clients).
    params.zero_grads();
    let mut adam = Adam::for_params(config.lr, params);
    let mut total_loss = 0.0f64;
    let mut steps = 0usize;
    for _epoch in 0..config.local_epochs {
        let mut examples = sampler.with_negatives(positives, config.negatives_per_positive, rng);
        let batches = LinkSampler::batches(&mut examples, config.batch_size.max(1), rng);
        for batch in &batches {
            let mut graph = Graph::with_capacity(256);
            let mut bindings = TapeBindings::new();
            let dropout = model.dropout_prob() > 0.0;
            let emb = if dropout {
                model.encode_nodes(
                    &mut graph,
                    &mut bindings,
                    params,
                    view,
                    Some(rng as &mut dyn rand::RngCore),
                )
            } else {
                model.encode_nodes(&mut graph, &mut bindings, params, view, None)
            };
            let logits = model.score_examples(&mut graph, &mut bindings, params, emb, batch);
            let targets: Vec<f32> = batch
                .iter()
                .map(|e| if e.label { 1.0 } else { 0.0 })
                .collect();
            let loss = graph.bce_with_logits(logits, Arc::new(targets));
            total_loss += f64::from(graph.value(loss).get(0, 0));
            graph.backward(loss);
            params.zero_grads();
            bindings.accumulate_grads(&graph, params);
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
    params.release_grads();
    TrainStats {
        mean_loss: (total_loss / steps.max(1) as f64) as f32,
        steps,
    }
}

/// Link-prediction evaluation result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalResult {
    /// ROC-AUC over positives and sampled negatives.
    pub roc_auc: f64,
    /// Mean reciprocal rank of each positive against its negatives.
    pub mrr: f64,
    /// Positives evaluated.
    pub num_positives: usize,
}

/// What [`evaluate`] and [`evaluate_detailed`] share: the positives and
/// their sampled negatives, scored, labelled and grouped into ranking
/// queries, plus the overall metrics. `None` when there is nothing to score.
struct Scored {
    examples: Vec<LinkExample>,
    logits: Vec<f32>,
    labels: Vec<bool>,
    queries: Vec<RankQuery>,
    overall: EvalResult,
}

fn score<R: Rng + ?Sized>(
    model: &dyn LinkPredictor,
    params: &ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    test_positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut R,
) -> Option<Scored> {
    assert!(
        negatives_per_positive > 0,
        "need at least one negative per positive"
    );
    if test_positives.is_empty() {
        return None;
    }
    let examples = sampler.with_negatives(test_positives, negatives_per_positive, rng);
    let logits = model.logits(params, view, &examples);
    let labels: Vec<bool> = examples.iter().map(|e| e.label).collect();
    // Examples are laid out positive-first per group by `with_negatives`.
    let group = 1 + negatives_per_positive;
    let queries: Vec<RankQuery> = logits
        .chunks(group)
        .map(|chunk| RankQuery {
            positive: chunk[0],
            negatives: chunk[1..].to_vec(),
        })
        .collect();
    let overall = EvalResult {
        roc_auc: roc_auc(&logits, &labels),
        mrr: mrr(&queries),
        num_positives: test_positives.len(),
    };
    Some(Scored {
        examples,
        logits,
        labels,
        queries,
        overall,
    })
}

/// Evaluate on held-out positives: each is scored against
/// `negatives_per_positive` type-respecting corruptions.
///
/// Message passing uses `view` (normally the *training* graph — scoring
/// test edges through a graph that contains them leaks labels).
pub fn evaluate<R: Rng + ?Sized>(
    model: &dyn LinkPredictor,
    params: &ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    test_positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut R,
) -> EvalResult {
    let n = negatives_per_positive;
    score(model, params, view, sampler, test_positives, n, rng)
        .map(|s| s.overall)
        .unwrap_or_default()
}

/// Extended evaluation: overall metrics plus a per-edge-type breakdown —
/// the fairness view (does the global model serve rare link types?).
#[derive(Clone, Debug, Default)]
pub struct DetailedEvalResult {
    /// Overall metrics.
    pub overall: EvalResult,
    /// Hits@1 over the ranking queries.
    pub hits_at_1: f64,
    /// Hits@3 over the ranking queries.
    pub hits_at_3: f64,
    /// Average precision over all scored examples.
    pub average_precision: f64,
    /// ROC-AUC per edge type (label, value, positive count).
    pub auc_by_edge_type: fedda_metrics::GroupedMetric,
}

/// Evaluate with per-edge-type breakdowns and extra ranking metrics.
pub fn evaluate_detailed<R: Rng + ?Sized>(
    model: &dyn LinkPredictor,
    params: &ParamSet,
    view: &GraphView,
    sampler: &LinkSampler<'_>,
    test_positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut R,
) -> DetailedEvalResult {
    let n = negatives_per_positive;
    let Some(s) = score(model, params, view, sampler, test_positives, n, rng) else {
        return DetailedEvalResult::default();
    };

    // Per-edge-type AUC: slice the flat example/logit arrays by type.
    let schema = sampler.graph().schema();
    let mut by_type = Vec::new();
    for t in schema.edge_type_ids() {
        let (mut scores, mut labs) = (Vec::new(), Vec::new());
        for (e, &logit) in s.examples.iter().zip(&s.logits) {
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

    DetailedEvalResult {
        overall: s.overall,
        hits_at_1: fedda_metrics::hits_at_k(&s.queries, 1),
        hits_at_3: fedda_metrics::hits_at_k(&s.queries, 3),
        average_precision: fedda_metrics::average_precision(&s.logits, &s.labels),
        auc_by_edge_type: fedda_metrics::GroupedMetric::new(by_type),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HgnConfig;
    use crate::SimpleHgn;
    use fedda_data::{amazon_like, PresetOptions};
    use fedda_hetgraph::split::split_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let opts = PresetOptions {
            scale: 0.004,
            seed: 3,
            ..Default::default()
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

        let before = evaluate(
            &model,
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
            ..Default::default()
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
        let eval = evaluate(&model, &params, &view, &sampler, &[], 3, &mut rng);
        assert_eq!(eval.num_positives, 0);
    }

    /// A trained set comes back as values only, under the layout it went in
    /// with: the gradient buffer lives and dies inside the call.
    #[test]
    fn train_local_hands_back_values_only() {
        let g = amazon_like(&PresetOptions {
            scale: 0.002,
            seed: 3,
            ..Default::default()
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
            params.grads().is_empty(),
            "a trained set kept its gradients"
        );
        assert!(params.shares_layout(&global));
        assert_ne!(params.values(), global.values());
    }

    #[test]
    fn detailed_evaluation_breaks_down_by_edge_type() {
        let opts = PresetOptions {
            scale: 0.004,
            seed: 3,
            ..Default::default()
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
        let detail = evaluate_detailed(&model, &params, &view, &sampler, &test_pos, 4, &mut rng);
        assert_eq!(detail.auc_by_edge_type.groups.len(), 2);
        let support: usize = detail
            .auc_by_edge_type
            .groups
            .iter()
            .map(|(_, _, n)| n)
            .sum();
        assert_eq!(support, test_pos.len());
        assert!((0.0..=1.0).contains(&detail.hits_at_1));
        assert!(detail.hits_at_1 <= detail.hits_at_3 + 1e-12);
        assert!((0.0..=1.0).contains(&detail.average_precision));
        assert!(detail.overall.roc_auc.is_finite());
        // empty input is safe
        let empty = evaluate_detailed(&model, &params, &view, &sampler, &[], 4, &mut rng);
        assert_eq!(empty.overall.num_positives, 0);
    }
}
