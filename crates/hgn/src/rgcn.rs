//! R-GCN (Schlichtkrull et al., 2018) — a second heterograph encoder, used
//! to demonstrate that the FedDA framework "can fit any HGN model" (§6.1).
//!
//! Layer update:
//! `h_v^{(l+1)} = σ( Σ_r Σ_{u ∈ N_r(v)} (1 / c_{v,r}) W_r^{(l)} h_u
//!                 + W_0^{(l)} h_v )`
//! with a per-relation weight matrix `W_r` and mean normalisation
//! `c_{v,r} = |N_r(v)|`.
//!
//! R-GCN is an especially natural fit for FedDA's parameter activation: the
//! *per-relation weight matrices* are exactly the disentangled units — a
//! client that holds no edges of relation `r` contributes nothing to
//! `W_r`, so the server quickly learns to stop requesting it.

use crate::config::Decoder;
use crate::predictor::LinkPredictor;
use crate::view::GraphView;
use fedda_hetgraph::{LinkExample, Schema};
use fedda_tensor::{init, Graph, Matrix, ParamId, ParamMeta, ParamSet, TapeBindings, Var};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// R-GCN hyper-parameters.
#[derive(Clone, Debug)]
pub struct RgcnConfig {
    /// Hidden width of every layer.
    pub hidden_dim: usize,
    /// Number of R-GCN layers.
    pub num_layers: usize,
    /// L2-normalise the final embeddings (keeps the decoder calibration
    /// identical to Simple-HGN's).
    pub l2_normalize: bool,
    /// Link-score decoder.
    pub decoder: Decoder,
}

impl Default for RgcnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 32,
            num_layers: 2,
            l2_normalize: true,
            decoder: Decoder::DotProduct,
        }
    }
}

struct RgcnLayer {
    /// Per-relation weights (disentangled units).
    w_rel: Vec<ParamId>,
    /// Self-connection weight.
    w_self: ParamId,
    /// Bias row.
    bias: ParamId,
}

/// The R-GCN model. Parameter layout, like [`crate::SimpleHgn`]'s, is
/// deterministic given schema + config, so federated averaging is
/// meaningful.
pub struct Rgcn {
    config: RgcnConfig,
    in_proj: Vec<ParamId>,
    layers: Vec<RgcnLayer>,
    dec_rel: Vec<ParamId>,
    dec_scale: ParamId,
    dec_bias: ParamId,
    num_edge_types: usize,
}

impl Rgcn {
    /// Build the model for a schema and initialise a fresh parameter set.
    pub fn init_params<R: Rng + ?Sized>(
        schema: &Schema,
        config: &RgcnConfig,
        rng: &mut R,
    ) -> (Self, ParamSet) {
        assert!(
            config.hidden_dim > 0 && config.num_layers > 0,
            "invalid RgcnConfig"
        );
        let mut ps = ParamSet::new();
        let d = config.hidden_dim;
        let num_edge_types = schema.num_edge_types();

        let in_proj = schema
            .node_type_ids()
            .map(|t| {
                let meta = schema.node_type(t);
                ps.add(
                    format!("rgcn.in_proj.{}", meta.name),
                    init::xavier_uniform(rng, meta.feat_dim, d),
                )
            })
            .collect();

        let layers = (0..config.num_layers)
            .map(|l| {
                let w_rel = (0..num_edge_types)
                    .map(|t| {
                        ps.add_with_meta(
                            format!("rgcn.l{l}.W_rel.t{t}"),
                            init::xavier_uniform(rng, d, d),
                            ParamMeta::per_edge_type(t),
                        )
                    })
                    .collect();
                let w_self = ps.add(format!("rgcn.l{l}.W_self"), init::xavier_uniform(rng, d, d));
                let bias = ps.add(format!("rgcn.l{l}.bias"), Matrix::zeros(1, d));
                RgcnLayer {
                    w_rel,
                    w_self,
                    bias,
                }
            })
            .collect();

        let mut dec_rel = Vec::new();
        if config.decoder == Decoder::DistMult {
            for t in 0..num_edge_types {
                dec_rel.push(ps.add_with_meta(
                    format!("rgcn.dec.rel.t{t}"),
                    Matrix::full(1, d, 1.0),
                    ParamMeta::per_edge_type(t),
                ));
            }
        }
        let dec_scale = ps.add("rgcn.dec.scale", Matrix::full(1, 1, 4.0));
        let dec_bias = ps.add("rgcn.dec.bias", Matrix::zeros(1, 1));

        (
            Self {
                config: config.clone(),
                in_proj,
                layers,
                dec_rel,
                dec_scale,
                dec_bias,
                num_edge_types,
            },
            ps,
        )
    }

    /// The configuration.
    pub fn config(&self) -> &RgcnConfig {
        &self.config
    }

    /// Split the view's flat message arrays into per-relation `(src, dst,
    /// inv_degree)` triples. Self-loop pseudo-edges (type ≥ real types) are
    /// ignored — R-GCN has an explicit self weight instead.
    #[allow(clippy::type_complexity)]
    fn per_relation_edges(&self, view: &GraphView) -> Vec<(Arc<Vec<u32>>, Arc<Vec<u32>>, Matrix)> {
        let mut srcs: Vec<Vec<u32>> = vec![Vec::new(); self.num_edge_types];
        let mut dsts: Vec<Vec<u32>> = vec![Vec::new(); self.num_edge_types];
        for ((&s, &d), &t) in view.src.iter().zip(view.dst.iter()).zip(view.etype.iter()) {
            let t = t as usize;
            if t < self.num_edge_types {
                srcs[t].push(s);
                dsts[t].push(d);
            }
        }
        srcs.into_iter()
            .zip(dsts)
            .map(|(src, dst)| {
                let mut deg = vec![0u32; view.num_nodes];
                for &d in &dst {
                    deg[d as usize] += 1;
                }
                let inv: Vec<f32> = dst
                    .iter()
                    .map(|&d| 1.0 / deg[d as usize].max(1) as f32)
                    .collect();
                (Arc::new(src), Arc::new(dst), Matrix::col_vector(inv))
            })
            .collect()
    }
}

impl LinkPredictor for Rgcn {
    fn encode_nodes(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
        _dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        // Input projection per node type, assembled via scatter-add.
        let mut h = {
            let mut acc: Option<Var> = None;
            for (t, feats) in view.type_features.iter().enumerate() {
                let x = graph.input(feats.clone());
                let w = bindings.leaf(graph, params, self.in_proj[t]);
                let xw = graph.matmul(x, w);
                let scattered =
                    graph.scatter_add_rows(xw, view.type_global_ids[t].clone(), view.num_nodes);
                acc = Some(match acc {
                    Some(a) => graph.add(a, scattered),
                    None => scattered,
                });
            }
            // fedda-lint: allow(panic-path, reason = "Schema guarantees >= 1 node type for any graph that reaches the encoder; the loop above always assigns acc")
            acc.expect("at least one node type")
        };

        let relations = self.per_relation_edges(view);
        for layer in &self.layers {
            let w_self = bindings.leaf(graph, params, layer.w_self);
            let mut out = graph.matmul(h, w_self);
            for (t, (src, dst, inv_deg)) in relations.iter().enumerate() {
                if src.is_empty() {
                    continue;
                }
                let w_r = bindings.leaf(graph, params, layer.w_rel[t]);
                let hw = graph.matmul(h, w_r);
                let inv = graph.input(inv_deg.clone());
                let agg = graph.edge_aggregate(hw, inv, src.clone(), dst.clone(), view.num_nodes);
                out = graph.add(out, agg);
            }
            let bias = bindings.leaf(graph, params, layer.bias);
            let biased = graph.add_row_broadcast(out, bias);
            h = graph.elu(biased, 1.0);
        }

        if self.config.l2_normalize {
            h = graph.l2_normalize_rows(h, 1e-12);
        }
        h
    }

    fn score_examples(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        embeddings: Var,
        examples: &[LinkExample],
    ) -> Var {
        assert!(!examples.is_empty(), "score_examples: no examples");
        let src: Arc<Vec<u32>> = Arc::new(examples.iter().map(|e| e.src).collect());
        let dst: Arc<Vec<u32>> = Arc::new(examples.iter().map(|e| e.dst).collect());
        let o_src = graph.gather_rows(embeddings, src);
        let o_dst = graph.gather_rows(embeddings, dst);
        let raw = match self.config.decoder {
            Decoder::DotProduct => graph.row_dot(o_src, o_dst),
            Decoder::DistMult => {
                let rel_rows: Vec<Var> = self
                    .dec_rel
                    .iter()
                    .map(|&id| bindings.leaf(graph, params, id))
                    .collect();
                let rel = graph.concat_rows(&rel_rows);
                let etypes: Arc<Vec<u32>> =
                    Arc::new(examples.iter().map(|e| e.etype.0 as u32).collect());
                let per_example = graph.gather_rows(rel, etypes);
                let modulated = graph.mul(o_src, per_example);
                graph.row_dot(modulated, o_dst)
            }
        };
        let scale = bindings.leaf(graph, params, self.dec_scale);
        let bias = bindings.leaf(graph, params, self.dec_bias);
        let scaled = graph.matmul(raw, scale);
        graph.add_row_broadcast(scaled, bias)
    }

    fn uses_self_loops(&self) -> bool {
        // R-GCN models the self-connection with an explicit W_self term.
        false
    }

    fn name(&self) -> &'static str {
        "R-GCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedda_data::{dblp_like, PresetOptions};
    use fedda_hetgraph::LinkSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Rgcn, ParamSet, GraphView, fedda_hetgraph::HeteroGraph) {
        let g = dblp_like(&PresetOptions {
            scale: 0.0015,
            seed: 2,
            ..Default::default()
        })
        .graph;
        let cfg = RgcnConfig {
            hidden_dim: 8,
            num_layers: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let (model, params) = Rgcn::init_params(g.schema(), &cfg, &mut rng);
        let view = GraphView::new(&g, model.uses_self_loops());
        (model, params, view, g)
    }

    #[test]
    fn rgcn_registers_per_relation_disentangled_units() {
        let (model, params, _, g) = setup();
        // 2 layers × 5 relations = 10 disentangled W_rel units
        assert_eq!(params.num_disentangled(), 2 * g.schema().num_edge_types());
        assert_eq!(model.num_edge_types, 5);
    }

    #[test]
    fn rgcn_forward_shapes_and_norms() {
        let (model, params, view, _) = setup();
        let mut graph = Graph::new();
        let mut tb = TapeBindings::new();
        let emb = model.encode_nodes(&mut graph, &mut tb, &params, &view, None);
        let (n, d) = graph.shape(emb);
        assert_eq!(n, view.num_nodes);
        assert_eq!(d, model.config().hidden_dim);
        assert!(!graph.value(emb).has_non_finite());
        for row in graph.value(emb).rows_iter() {
            let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4);
        }
    }

    #[test]
    fn rgcn_gradients_flow_through_relation_weights() {
        let (model, mut params, view, g) = setup();
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let pos = sampler.all_positives();
        let examples = sampler.with_negatives(&pos[..8.min(pos.len())], 1, &mut rng);
        let mut graph = Graph::new();
        let mut tb = TapeBindings::new();
        let emb = model.encode_nodes(&mut graph, &mut tb, &params, &view, None);
        let logits = model.score_examples(&mut graph, &mut tb, &params, emb, &examples);
        let targets: Vec<f32> = examples
            .iter()
            .map(|e| if e.label { 1.0 } else { 0.0 })
            .collect();
        let loss = graph.bce_with_logits(logits, Arc::new(targets));
        graph.backward(loss);
        params.zero_grads();
        tb.accumulate_grads(&graph, &mut params);
        // at least one per-relation weight received gradient
        let got_rel_grad = params
            .iter()
            .any(|(_, p)| p.meta().disentangled && p.grad().norm_sq() > 0.0);
        assert!(got_rel_grad, "no gradient reached any W_rel");
        assert!(!params.has_non_finite());
    }

    #[test]
    fn rgcn_mean_normalisation_uses_in_degrees() {
        let (model, _, view, _) = setup();
        let rels = model.per_relation_edges(&view);
        assert_eq!(rels.len(), 5);
        for (src, dst, inv) in &rels {
            assert_eq!(src.len(), dst.len());
            assert_eq!(inv.rows(), dst.len());
            // each inverse degree is in (0, 1]
            assert!(inv.as_slice().iter().all(|&x| x > 0.0 && x <= 1.0));
            // grouping by destination, the inverse degrees of a node's
            // incoming edges sum to 1
            let mut sums = std::collections::BTreeMap::new();
            for (&d, &w) in dst.iter().zip(inv.as_slice()) {
                *sums.entry(d).or_insert(0.0f32) += w;
            }
            for (&node, &s) in &sums {
                assert!((s - 1.0).abs() < 1e-4, "node {node} weights sum to {s}");
            }
        }
    }
}
