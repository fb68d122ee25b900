//! Simple-HGN (Lv et al., KDD 2021) — the encoder/decoder the paper
//! federates — implemented on the `fedda-tensor` tape.
//!
//! The encoder is multi-head GAT extended with the three Simple-HGN
//! enhancements the paper describes (§5.1.1):
//!
//! 1. **learnable edge-type embeddings** inside the attention score
//!    (Eq. 2): `α_uv ∝ exp(LeakyReLU(aᵀ[W h_u ‖ W h_v ‖ W_r r_ψ(e)]))`,
//!    decomposed here as `a_src·Wh_u + a_dst·Wh_v + a_edge·W_r r_ψ(e)`:
//!    three small matmuls give one score per node / per edge type, and
//!    the tape's fused `edge_softmax` sums them per edge, applies the
//!    LeakyReLU and normalises per destination (without per-edge
//!    intermediates);
//! 2. **pre-activation residual connections** between layers (Eq. 3): one
//!    tape op per layer, `aggregate_residual_elu`, forms every head's
//!    `Σ_u α_uv · W h_u`, adds the residual `h·W_res` and applies the ELU,
//!    recording only the layer's output;
//! 3. **L2 normalisation** of the final embeddings.
//!
//! On a tape cleared for inference the encoder keeps one layer at a time:
//! at each layer's end it retains only what the next layer reads.
//!
//! The decoder scores node pairs with dot product or DistMult. Edge-type
//! embeddings and DistMult relation vectors are registered as *disentangled*
//! parameter units (`ParamMeta::per_edge_type`), the paper's `[N_d]` set
//! that FedDA's parameter activation masks operate on.

use crate::config::{Decoder, HgnConfig};
use crate::view::GraphView;
use fedda_hetgraph::{LinkExample, Schema};
use fedda_tensor::{init, Graph, Matrix, ParamId, ParamMeta, ParamSet, TapeBindings, Var};
use rand::Rng;
use std::sync::Arc;

/// LeakyReLU negative slope in the attention scores.
const NEGATIVE_SLOPE: f32 = 0.05;

/// Per-head parameter handles of one attention layer.
struct HeadParams {
    w: ParamId,
    a_src: ParamId,
    a_dst: ParamId,
    a_edge: Option<ParamId>,
    w_r: Option<ParamId>,
}

/// Parameter handles of one attention layer.
struct LayerParams {
    heads: Vec<HeadParams>,
    w_res: ParamId,
    /// One edge-type embedding unit per message type (disentangled for real
    /// types, shared for the self-loop pseudo type).
    edge_emb: Vec<ParamId>,
}

/// The Simple-HGN model: architecture + parameter handles.
///
/// The model itself is stateless across calls; all learnable state lives in
/// the [`ParamSet`] created by [`SimpleHgn::init_params`], so the FL layer
/// can clone/broadcast/average parameter sets without touching the model.
pub struct SimpleHgn {
    config: HgnConfig,
    in_proj: Vec<ParamId>,
    in_bias: Vec<ParamId>,
    layers: Vec<LayerParams>,
    dec_rel: Vec<ParamId>,
    dec_scale: ParamId,
    dec_bias: ParamId,
    num_message_types: usize,
}

impl SimpleHgn {
    /// Build the model for a schema and initialise a fresh parameter set.
    ///
    /// All clients must construct the model from the same schema and config
    /// so their parameter sets are structurally identical — this is what
    /// FedAvg's "same initialisation" requirement (§4) means here.
    pub fn init_params<R: Rng + ?Sized>(
        schema: &Schema,
        config: &HgnConfig,
        rng: &mut R,
    ) -> (Self, ParamSet) {
        #[expect(
            clippy::expect_used,
            reason = "constructor contract documented on HgnConfig::validate; a bad config cannot produce a usable model"
        )]
        config.validate().expect("invalid HgnConfig");
        let mut ps = ParamSet::new();
        let d_model = config.out_dim();
        let num_edge_types = schema.num_edge_types();
        let num_message_types = num_edge_types + usize::from(config.add_self_loops);

        let mut in_proj = Vec::with_capacity(schema.num_node_types());
        let mut in_bias = Vec::with_capacity(schema.num_node_types());
        for t in schema.node_type_ids() {
            let meta = schema.node_type(t);
            in_proj.push(ps.add(
                format!("enc.in_proj.{}", meta.name),
                init::xavier_uniform(rng, meta.feat_dim, d_model),
            ));
            in_bias.push(ps.add(
                format!("enc.in_bias.{}", meta.name),
                Matrix::zeros(1, d_model),
            ));
        }

        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let mut heads = Vec::with_capacity(config.num_heads);
            for h in 0..config.num_heads {
                let w = ps.add(
                    format!("l{l}.h{h}.W"),
                    init::xavier_uniform(rng, d_model, config.hidden_dim),
                );
                let a_src = ps.add(
                    format!("l{l}.h{h}.a_src"),
                    init::xavier_uniform(rng, config.hidden_dim, 1),
                );
                let a_dst = ps.add(
                    format!("l{l}.h{h}.a_dst"),
                    init::xavier_uniform(rng, config.hidden_dim, 1),
                );
                let (a_edge, w_r) = if config.edge_type_attention {
                    (
                        Some(ps.add(
                            format!("l{l}.h{h}.a_edge"),
                            init::xavier_uniform(rng, config.edge_emb_dim, 1),
                        )),
                        Some(ps.add(
                            format!("l{l}.h{h}.W_r"),
                            init::xavier_uniform(rng, config.edge_emb_dim, config.edge_emb_dim),
                        )),
                    )
                } else {
                    (None, None)
                };
                heads.push(HeadParams {
                    w,
                    a_src,
                    a_dst,
                    a_edge,
                    w_r,
                });
            }
            let w_res = ps.add(
                format!("l{l}.W_res"),
                init::xavier_uniform(rng, d_model, d_model),
            );
            let mut edge_emb = Vec::new();
            if config.edge_type_attention {
                for t in 0..num_message_types {
                    let meta = if t < num_edge_types {
                        ParamMeta::per_edge_type(t)
                    } else {
                        ParamMeta::shared() // self-loop pseudo type
                    };
                    edge_emb.push(ps.add_with_meta(
                        format!("l{l}.edge_emb.t{t}"),
                        init::xavier_uniform(rng, 1, config.edge_emb_dim),
                        meta,
                    ));
                }
            }
            layers.push(LayerParams {
                heads,
                w_res,
                edge_emb,
            });
        }

        let mut dec_rel = Vec::new();
        if config.decoder == Decoder::DistMult {
            for t in 0..num_edge_types {
                dec_rel.push(ps.add_with_meta(
                    format!("dec.rel.t{t}"),
                    Matrix::full(1, d_model, 1.0),
                    ParamMeta::per_edge_type(t),
                ));
            }
        }
        // Logit calibration: with L2-normalised embeddings the raw decoder
        // output lives in [-1, 1]; a learnable affine map gives BCE useful
        // logit magnitudes.
        let dec_scale = ps.add("dec.scale", Matrix::full(1, 1, 4.0));
        let dec_bias = ps.add("dec.bias", Matrix::zeros(1, 1));

        let model = Self {
            config: config.clone(),
            in_proj,
            in_bias,
            layers,
            dec_rel,
            dec_scale,
            dec_bias,
            num_message_types,
        };
        (model, ps)
    }

    /// The model's configuration.
    pub(crate) fn config(&self) -> &HgnConfig {
        &self.config
    }

    /// Encode all nodes of a graph view into `[num_nodes, out_dim]`
    /// embeddings on the given tape. On a tape cleared for inference only
    /// the last layer's values stay (`Graph::retain`).
    pub(crate) fn encode(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
    ) -> Var {
        assert_eq!(
            view.num_message_types, self.num_message_types,
            "GraphView message types do not match the model (self-loop setting mismatch?)"
        );
        let cfg = &self.config;

        // Input projection per node type, each type's rows placed at its
        // nodes' global ids (every node has exactly one type).
        let mut h = {
            let parts: Vec<_> = (view.type_features.iter().enumerate())
                .map(|(t, feats)| {
                    let x = graph.input(feats);
                    let w = bindings.leaf(graph, params, self.in_proj[t]);
                    let b = bindings.leaf(graph, params, self.in_bias[t]);
                    (x, w, b, view.type_global_ids[t].clone())
                })
                .collect();
            graph.project_rows(&parts, view.num_nodes)
        };

        // Previous layer's per-head attention weights, for the optional
        // attention-residual blending (config.attn_residual).
        let mut prev_alphas: Vec<Var> = Vec::new();
        for layer in &self.layers {
            // Per-message edge-attention term, shared basis across heads:
            // R[t] = edge-type embedding, per head transformed by W_r and
            // projected by a_edge.
            let edge_emb_matrix = if cfg.edge_type_attention {
                let rows: Vec<Var> = layer
                    .edge_emb
                    .iter()
                    .map(|&id| bindings.leaf(graph, params, id))
                    .collect();
                Some(graph.concat_rows(&rows))
            } else {
                None
            };

            let mut hws = Vec::with_capacity(layer.heads.len());
            let mut new_alphas = Vec::with_capacity(layer.heads.len());
            for head in &layer.heads {
                let w = bindings.leaf(graph, params, head.w);
                let hw = graph.matmul(h, w); // [n, hidden]
                let a_src = bindings.leaf(graph, params, head.a_src);
                let a_dst = bindings.leaf(graph, params, head.a_dst);
                let s_src = graph.matmul(hw, a_src); // [n, 1]
                let s_dst = graph.matmul(hw, a_dst); // [n, 1]
                let per_type = match (edge_emb_matrix, head.a_edge, head.w_r) {
                    (Some(emb), Some(a_edge_id), Some(w_r_id)) => {
                        let w_r = bindings.leaf(graph, params, w_r_id);
                        let a_edge = bindings.leaf(graph, params, a_edge_id);
                        let transformed = graph.matmul(emb, w_r); // [T, d_e]
                        Some(graph.matmul(transformed, a_edge)) // [T, 1]
                    }
                    _ => None,
                };
                let mut alpha = graph.edge_softmax(
                    s_src,
                    s_dst,
                    per_type,
                    view.src.clone(),
                    view.etype.clone(),
                    view.segments.clone(),
                    NEGATIVE_SLOPE,
                ); // [E, 1]
                if cfg.attn_residual > 0.0 {
                    if let Some(&prev) = prev_alphas.get(hws.len()) {
                        let fresh = graph.scale(alpha, 1.0 - cfg.attn_residual);
                        let carried = graph.scale(prev, cfg.attn_residual);
                        alpha = graph.add(fresh, carried);
                    }
                }
                new_alphas.push(alpha);
                hws.push(hw);
            }
            // Eq. 3: heads aggregated and concatenated, pre-activation
            // residual, ELU.
            let w_res = bindings.leaf(graph, params, layer.w_res);
            let (src, dst) = (view.src.clone(), view.dst.clone());
            h = graph.aggregate_residual_elu(&hws, &new_alphas, src, dst, h, w_res);
            prev_alphas = new_alphas;
            let carried = if cfg.attn_residual > 0.0 {
                &prev_alphas[..]
            } else {
                &[]
            };
            graph.retain(&[&[h], carried].concat());
        }
        graph.l2_normalize_rows(h, 1e-12)
    }

    /// Score link examples against node embeddings; returns logits `[B, 1]`.
    pub(crate) fn score_links(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        embeddings: Var,
        examples: &[LinkExample],
    ) -> Var {
        assert!(!examples.is_empty(), "score_links: no examples");
        let src: Arc<Vec<u32>> = Arc::new(examples.iter().map(|e| e.src).collect());
        let dst: Arc<Vec<u32>> = Arc::new(examples.iter().map(|e| e.dst).collect());
        let raw = match self.config.decoder {
            Decoder::DotProduct => graph.pair_dot(embeddings, src, dst),
            Decoder::DistMult => {
                let o_src = graph.gather_rows(embeddings, src);
                let o_dst = graph.gather_rows(embeddings, dst);
                let rel_rows: Vec<Var> = self
                    .dec_rel
                    .iter()
                    .map(|&id| bindings.leaf(graph, params, id))
                    .collect();
                let rel = graph.concat_rows(&rel_rows); // [T, d]
                let etypes: Arc<Vec<u32>> =
                    Arc::new(examples.iter().map(|e| e.etype.0 as u32).collect());
                let per_example = graph.gather_rows(rel, etypes); // [B, d]
                let modulated = graph.mul(o_src, per_example);
                graph.row_dot(modulated, o_dst)
            }
        };
        let scale = bindings.leaf(graph, params, self.dec_scale);
        let bias = bindings.leaf(graph, params, self.dec_bias);
        let scaled = graph.matmul(raw, scale); // [B,1] @ [1,1]
        graph.add_row_broadcast(scaled, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkPredictor;
    use fedda_data::{dblp_like, PresetOptions};
    use fedda_hetgraph::LinkSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_setup() -> (SimpleHgn, ParamSet, GraphView, fedda_hetgraph::HeteroGraph) {
        let opts = PresetOptions {
            scale: 0.0015,
            seed: 5,
        };
        let g = dblp_like(&opts).graph;
        let cfg = HgnConfig {
            hidden_dim: 4,
            num_layers: 2,
            num_heads: 2,
            edge_emb_dim: 4,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let (model, params) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&g, cfg.add_self_loops);
        (model, params, view, g)
    }

    #[test]
    fn encode_produces_normalized_embeddings() {
        let (model, params, view, _g) = tiny_setup();
        let mut graph = Graph::new();
        let mut tb = TapeBindings::new();
        let emb = model.encode(&mut graph, &mut tb, &params, &view);
        let (n, d) = (view.num_nodes, model.config().out_dim());
        // The shape, as the view's `Debug` form names it.
        let shape = format!("{:?}", graph.value(emb));
        assert!(shape.starts_with(&format!("MatrixRef({n}x{d})")), "{shape}");
        for row in graph.value(emb).as_slice().chunks(d) {
            let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4, "row norm {norm}");
        }
        assert!(graph.value(emb).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn score_links_shapes_and_grads() {
        let (model, mut params, view, g) = tiny_setup();
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let pos = sampler.all_positives();
        let examples = sampler.with_negatives(&pos[..8.min(pos.len())], 1, &mut rng);
        let mut graph = Graph::new();
        let mut tb = TapeBindings::new();
        let emb = model.encode(&mut graph, &mut tb, &params, &view);
        let logits = model.score_links(&mut graph, &mut tb, &params, emb, &examples);
        // One logit per example, a column.
        let shape = format!("{:?}", graph.value(logits));
        let want = format!("MatrixRef({}x1)", examples.len());
        assert!(shape.starts_with(&want), "{shape}");
        let targets: Vec<f32> = examples
            .iter()
            .map(|e| if e.label { 1.0 } else { 0.0 })
            .collect();
        let loss = graph.bce_with_logits(logits, Arc::new(targets));
        graph.backward(loss);
        params.zero_grads();
        tb.accumulate_grads(&graph, &mut params);
        // Gradients flow into encoder weights and decoder calibration.
        let gnorm: f32 = params.take_grads().iter().map(|g| g * g).sum();
        assert!(gnorm > 0.0, "no gradient reached the parameters");
        assert!(gnorm.is_finite());
        assert!(params.values().iter().all(|v| v.is_finite()));
    }

    /// Examples, targets and a whole training step on `graph`: encode,
    /// score, BCE, backward.
    fn training_step(
        model: &SimpleHgn,
        params: &ParamSet,
        view: &GraphView,
        examples: &[LinkExample],
        graph: &mut Graph,
    ) -> Var {
        let mut tb = TapeBindings::new();
        let emb = model.encode(graph, &mut tb, params, view);
        let logits = model.score_links(graph, &mut tb, params, emb, examples);
        let targets = examples.iter().map(|e| f32::from(u8::from(e.label)));
        let loss = graph.bce_with_logits(logits, Arc::new(targets.collect()));
        graph.backward(loss);
        logits
    }

    /// Eight positives of `g` and one negative each.
    fn examples(g: &fedda_hetgraph::HeteroGraph) -> Vec<LinkExample> {
        let sampler = LinkSampler::new(g);
        let pos = sampler.all_positives();
        sampler.with_negatives(&pos[..8.min(pos.len())], 1, &mut StdRng::seed_from_u64(1))
    }

    /// A training step's tape, node by node: per node type the features,
    /// `W` and `b`, then the projection; per layer the message types'
    /// embeddings and their `concat_rows`, per head `W`, `hw`, `a_src`,
    /// `a_dst`, both scores, `W_r`, `a_edge`, the two type-score products
    /// and `edge_softmax`, then `W_res` and the layer op; the output
    /// normalisation; the decoder's `pair_dot`, scale, bias, product and
    /// sum; the loss. Per layer that is `H + 1` fewer nodes than the
    /// `edge_aggregate` per head, residual `matmul` and epilogue it fuses.
    #[test]
    fn a_training_step_records_the_closed_form_node_count() {
        let (model, params, view, g) = tiny_setup();
        let (t, m) = (g.schema().num_node_types(), view.num_message_types);
        let cfg = model.config();
        let (l, h) = (cfg.num_layers, cfg.num_heads);
        let mut graph = Graph::new();
        training_step(&model, &params, &view, &examples(&g), &mut graph);
        assert_eq!(
            graph.len(),
            3 * t + 1 + l * (m + 1 + 11 * h + 2) + 1 + 5 + 1
        );
    }

    /// `logits_on` clears the tape for inference and keeps one layer at a
    /// time, on a fresh tape and on one that held a training step: its
    /// logits are a training tape's, bit for bit, with and without the
    /// attention residual whose alphas a layer carries to the next.
    #[test]
    fn inference_logits_match_a_training_tape() {
        for attn_residual in [0.0, 0.5] {
            let (model, params, view, g) = tiny_setup();
            let model = SimpleHgn {
                config: HgnConfig {
                    attn_residual,
                    ..model.config.clone()
                },
                ..model
            };
            let examples = examples(&g);
            let mut graph = Graph::new();
            let logits = training_step(&model, &params, &view, &examples, &mut graph);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = bits(graph.value(logits).as_slice());
            assert_eq!(bits(&model.logits(&params, &view, &examples)), want);
            let reused = model.logits_on(&mut graph, &params, &view, &examples);
            assert_eq!(bits(&reused), want, "attn_residual {attn_residual}");
        }
    }

    #[test]
    fn distmult_decoder_registers_disentangled_relations() {
        let opts = PresetOptions {
            scale: 0.0015,
            seed: 5,
        };
        let g = dblp_like(&opts).graph;
        let cfg = HgnConfig {
            decoder: Decoder::DistMult,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let (_, dot) = SimpleHgn::init_params(g.schema(), &HgnConfig::default(), &mut rng);
        let (_, distmult) = SimpleHgn::init_params(g.schema(), &cfg, &mut rng);
        // N_d counts per-type units from both attention and decoder
        assert_eq!(
            distmult.num_disentangled(),
            dot.num_disentangled() + g.schema().num_edge_types()
        );
    }

    #[test]
    fn gat_ablation_has_fewer_params() {
        let opts = PresetOptions {
            scale: 0.0015,
            seed: 5,
        };
        let g = dblp_like(&opts).graph;
        let mut rng = StdRng::seed_from_u64(0);
        let full = HgnConfig::default();
        let (_m1, p1) = SimpleHgn::init_params(g.schema(), &full, &mut rng);
        let (_m2, p2) = SimpleHgn::init_params(g.schema(), &full.gat(), &mut rng);
        assert!(p2.num_scalars() < p1.num_scalars());
        assert_eq!(p2.num_disentangled(), 0, "GAT has no per-type units");
    }

    #[test]
    fn same_seed_same_init() {
        let opts = PresetOptions {
            scale: 0.0015,
            seed: 5,
        };
        let g = dblp_like(&opts).graph;
        let cfg = HgnConfig::default();
        let (_a, pa) = SimpleHgn::init_params(g.schema(), &cfg, &mut StdRng::seed_from_u64(9));
        let (_b, pb) = SimpleHgn::init_params(g.schema(), &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(pa.flatten(), pb.flatten());
    }

    #[test]
    fn attention_residual_changes_deep_layers_only() {
        let opts = PresetOptions {
            scale: 0.0015,
            seed: 5,
        };
        let g = dblp_like(&opts).graph;
        let base = HgnConfig {
            hidden_dim: 4,
            num_layers: 2,
            num_heads: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (model, params) = SimpleHgn::init_params(g.schema(), &base, &mut rng);
        let view = GraphView::new(&g, base.add_self_loops);
        let mut graph = Graph::new();
        let mut tb = TapeBindings::new();
        let plain = model.encode(&mut graph, &mut tb, &params, &view);
        let plain_vals = graph.value(plain).as_slice().to_vec();

        let with_res = SimpleHgn {
            config: HgnConfig {
                attn_residual: 0.5,
                ..base.clone()
            },
            ..model
        };
        let mut graph2 = Graph::new();
        let mut tb2 = TapeBindings::new();
        let blended = with_res.encode(&mut graph2, &mut tb2, &params, &view);
        let blended_vals = graph2.value(blended).as_slice().to_vec();
        assert_ne!(
            plain_vals, blended_vals,
            "residual attention must change layer ≥ 2 outputs"
        );
        assert!(blended_vals.iter().all(|v| v.is_finite()));

        // Attention weights remain a convex combination: still normalised
        // per destination, so embeddings stay bounded after L2 norm.
        for row in blended_vals.chunks(with_res.config().out_dim()) {
            let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4);
        }
    }

    #[test]
    fn single_layer_attention_residual_is_identity() {
        let opts = PresetOptions {
            scale: 0.0015,
            seed: 5,
        };
        let g = dblp_like(&opts).graph;
        let base = HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let (model, params) = SimpleHgn::init_params(g.schema(), &base, &mut rng);
        let view = GraphView::new(&g, base.add_self_loops);
        let mut g1 = Graph::new();
        let mut t1 = TapeBindings::new();
        let plain = model.encode(&mut g1, &mut t1, &params, &view);
        let with_res = SimpleHgn {
            config: HgnConfig {
                attn_residual: 0.5,
                ..base
            },
            ..model
        };
        let mut g2 = Graph::new();
        let mut t2 = TapeBindings::new();
        let blended = with_res.encode(&mut g2, &mut t2, &params, &view);
        // With one layer there is no previous attention to blend with.
        assert_eq!(g1.value(plain).as_slice(), g2.value(blended).as_slice());
    }
}
