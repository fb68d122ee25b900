//! Latent-factor heterograph generator.
//!
//! Real heterographs (Amazon, DBLP) are unavailable offline, so experiments
//! run on synthetic graphs with the same schema and comparable statistics.
//! To make link prediction *learnable* — which the FedDA experiments need,
//! otherwise every framework scores 0.5 AUC and no ordering is visible — we
//! plant structure:
//!
//! 1. every node gets a latent vector `z_v` drawn from one of `k` Gaussian
//!    community centroids of its node type;
//! 2. an edge of type `t` prefers endpoint pairs with high affinity
//!    `z_u · (z_v ∘ r_t)` where `r_t` is a per-edge-type modulation vector
//!    (so different edge types favour different latent subspaces, giving
//!    the per-type signal FedDA's disentangled parameters key on);
//! 3. observed features are a random linear projection of `z_v` plus noise,
//!    so a GNN can recover the latent affinity from features + structure.
//!
//! Edges are sampled by a best-of-`k` candidate rule, which approximates
//! sampling proportional to `exp(affinity)` without quadratic cost.

use fedda_hetgraph::{EdgeList, EdgeTypeId, HeteroGraph, NodeStore, NodeTypeId, Schema};
use fedda_tensor::init;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration of the latent-factor generator.
#[derive(Clone, Debug)]
pub struct LatentGraphConfig {
    /// The heterograph schema to instantiate.
    pub schema: Schema,
    /// Node count per node type (parallel to the schema's node types).
    pub nodes_per_type: Vec<usize>,
    /// Edge count per edge type (parallel to the schema's edge types).
    pub edges_per_type: Vec<usize>,
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Number of latent communities per node type.
    pub communities_per_type: usize,
    /// Standard deviation of node latents around their community centroid.
    pub within_community_std: f32,
    /// Observation noise added to projected features.
    pub feature_noise_std: f32,
    /// Candidates examined per edge draw; higher = stronger planted signal.
    pub candidates_per_edge: usize,
}

impl LatentGraphConfig {
    /// Reasonable defaults for a given schema and sizes.
    pub fn new(schema: Schema, nodes_per_type: Vec<usize>, edges_per_type: Vec<usize>) -> Self {
        assert_eq!(nodes_per_type.len(), schema.num_node_types());
        assert_eq!(edges_per_type.len(), schema.num_edge_types());
        Self {
            schema,
            nodes_per_type,
            edges_per_type,
            latent_dim: 8,
            communities_per_type: 4,
            within_community_std: 0.35,
            feature_noise_std: 0.1,
            candidates_per_edge: 8,
        }
    }
}

/// A generated heterograph together with the ground-truth latents (exposed
/// for tests that verify the planted signal).
pub struct GeneratedGraph {
    /// The generated heterograph.
    pub graph: HeteroGraph,
    /// Latent vector of each global node, row-major `[num_nodes, latent_dim]`.
    pub latents: Vec<f32>,
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Per-edge-type modulation vectors, row-major `[num_edge_types, latent_dim]`.
    pub relation_mods: Vec<f32>,
}

impl GeneratedGraph {
    /// Latent vector of one node.
    pub fn latent_of(&self, v: u32) -> &[f32] {
        &self.latents[v as usize * self.latent_dim..(v as usize + 1) * self.latent_dim]
    }

    /// Planted affinity of a candidate edge `(u, v)` of type `t`.
    pub fn affinity(&self, t: EdgeTypeId, u: u32, v: u32) -> f32 {
        let r = &self.relation_mods[t.index() * self.latent_dim..(t.index() + 1) * self.latent_dim];
        self.latent_of(u)
            .iter()
            .zip(self.latent_of(v))
            .zip(r)
            .map(|((&zu, &zv), &rt)| zu * zv * rt)
            .sum()
    }
}

/// Generate a heterograph from a latent-factor model. Deterministic given
/// the seed.
pub fn generate(config: &LatentGraphConfig, seed: u64) -> GeneratedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = config.schema.clone();
    let d = config.latent_dim;
    let total_nodes: usize = config.nodes_per_type.iter().sum();

    // 1. community centroids, then node latents
    let mut latents = vec![0.0f32; total_nodes * d];
    let mut global = 0usize;
    for (t, &count) in config.nodes_per_type.iter().enumerate() {
        let _ = t;
        let k = config.communities_per_type.max(1);
        let centroids = init::normal(&mut rng, k, d, 0.0, 1.0);
        for _ in 0..count {
            let c = rng.gen_range(0..k);
            for j in 0..d {
                let (n0, _) = init::box_muller(&mut rng);
                latents[global * d + j] = centroids.get(c, j) + config.within_community_std * n0;
            }
            global += 1;
        }
    }

    // 2. per-edge-type modulation vectors: sparse-ish ±1 patterns so types
    //    emphasise different latent coordinates.
    let n_et = schema.num_edge_types();
    let mut relation_mods = vec![0.0f32; n_et * d];
    for t in 0..n_et {
        for j in 0..d {
            relation_mods[t * d + j] = if rng.gen::<f32>() < 0.5 {
                0.0
            } else if rng.gen::<bool>() {
                1.0
            } else {
                -1.0
            };
        }
        // guarantee at least one active coordinate
        // (coordinates are assigned only the literals 0.0/1.0/-1.0 above, so
        // the check is exact by construction)
        if relation_mods[t * d..(t + 1) * d].iter().all(|&x| x == 0.0) {
            relation_mods[t * d + rng.gen_range(0..d)] = 1.0;
        }
    }

    // Precompute global id offsets per node type.
    let mut offsets = Vec::with_capacity(config.nodes_per_type.len());
    let mut acc = 0usize;
    for &c in &config.nodes_per_type {
        offsets.push(acc);
        acc += c;
    }

    let affinity = |t: usize, u: usize, v: usize| -> f32 {
        let r = &relation_mods[t * d..(t + 1) * d];
        latents[u * d..(u + 1) * d]
            .iter()
            .zip(&latents[v * d..(v + 1) * d])
            .zip(r)
            .map(|((&zu, &zv), &rt)| zu * zv * rt)
            .sum()
    };

    // 3. sample edges: uniform src, best-of-k dst by affinity.
    let mut edge_lists = Vec::with_capacity(n_et);
    for t in 0..n_et {
        let meta = schema.edge_type(EdgeTypeId(t as u16));
        let (st, dt) = (meta.src_type.index(), meta.dst_type.index());
        let (sn, dn) = (config.nodes_per_type[st], config.nodes_per_type[dt]);
        let mut list = EdgeList::new();
        if sn == 0 || dn == 0 {
            edge_lists.push(list);
            continue;
        }
        let target = config.edges_per_type[t];
        let k = config.candidates_per_edge.max(1);
        for _ in 0..target {
            let u = offsets[st] + rng.gen_range(0..sn);
            let mut best = offsets[dt] + rng.gen_range(0..dn);
            let mut best_aff = affinity(t, u, best);
            for _ in 1..k {
                let cand = offsets[dt] + rng.gen_range(0..dn);
                if cand == u {
                    continue;
                }
                let a = affinity(t, u, cand);
                if a > best_aff {
                    best = cand;
                    best_aff = a;
                }
            }
            if best == u {
                // avoid degenerate self-edges on same-type relations
                best = offsets[dt] + (best - offsets[dt] + 1) % dn;
            }
            list.push(u as u32, best as u32);
        }
        edge_lists.push(list);
    }

    // 4. observed features: per-type random projection of latents + noise.
    let mut features = Vec::with_capacity(schema.num_node_types());
    for (t, &count) in config.nodes_per_type.iter().enumerate() {
        let fd = schema.node_type(NodeTypeId(t as u16)).feat_dim;
        let proj = init::normal(&mut rng, d, fd, 0.0, 1.0 / (d as f32).sqrt());
        let mut feats = vec![0.0f32; count * fd];
        for i in 0..count {
            let z = &latents[(offsets[t] + i) * d..(offsets[t] + i + 1) * d];
            for c in 0..fd {
                let mut v = 0.0f32;
                for (j, &zj) in z.iter().enumerate() {
                    v += zj * proj.get(j, c);
                }
                let (n0, _) = init::box_muller(&mut rng);
                feats[i * fd + c] = v + config.feature_noise_std * n0;
            }
        }
        features.push(feats);
    }

    let store = Arc::new(NodeStore::new(schema, &config.nodes_per_type, features));
    let graph = HeteroGraph::from_edges(store, edge_lists);
    GeneratedGraph {
        graph,
        latents,
        latent_dim: d,
        relation_mods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> LatentGraphConfig {
        let mut s = Schema::new();
        let a = s.add_node_type("a", 6);
        let b = s.add_node_type("b", 4);
        s.add_edge_type("ab", a, b, false);
        s.add_edge_type("aa", a, a, true);
        LatentGraphConfig::new(s, vec![40, 30], vec![120, 80])
    }

    #[test]
    fn generates_requested_sizes() {
        let g = generate(&small_config(), 11);
        assert_eq!(g.graph.num_nodes(), 70);
        assert_eq!(g.graph.edge_counts(), vec![120, 80]);
        assert_eq!(g.latents.len(), 70 * 8);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = small_config();
        let g1 = generate(&c, 5);
        let g2 = generate(&c, 5);
        assert_eq!(
            g1.graph.edges_of_type(EdgeTypeId(0)),
            g2.graph.edges_of_type(EdgeTypeId(0))
        );
        assert_eq!(g1.latents, g2.latents);
        let g3 = generate(&c, 6);
        assert_ne!(
            g1.graph.edges_of_type(EdgeTypeId(0)),
            g3.graph.edges_of_type(EdgeTypeId(0))
        );
    }

    #[test]
    fn planted_signal_real_edges_beat_random_pairs() {
        let c = small_config();
        let g = generate(&c, 3);
        let mut rng = StdRng::seed_from_u64(99);
        for t in [EdgeTypeId(0), EdgeTypeId(1)] {
            let list = g.graph.edges_of_type(t);
            let pos: f32 =
                list.iter().map(|(u, v)| g.affinity(t, u, v)).sum::<f32>() / list.len() as f32;
            let dst_type = g.graph.schema().edge_type(t).dst_type;
            let dst_nodes = g.graph.nodes().nodes_of_type(dst_type);
            let neg: f32 = list
                .iter()
                .map(|(u, _)| {
                    let v = dst_nodes[rng.gen_range(0..dst_nodes.len())];
                    g.affinity(t, u, v)
                })
                .sum::<f32>()
                / list.len() as f32;
            assert!(
                pos > neg + 0.1,
                "edge type {t:?}: planted signal too weak (pos {pos} vs neg {neg})"
            );
        }
    }

    #[test]
    fn edge_signatures_respected() {
        let g = generate(&small_config(), 7);
        // from_edges would have panicked otherwise, but assert explicitly:
        for (u, v) in g.graph.edges_of_type(EdgeTypeId(0)).iter() {
            assert_eq!(g.graph.nodes().type_of(u).index(), 0);
            assert_eq!(g.graph.nodes().type_of(v).index(), 1);
        }
    }

    #[test]
    fn features_are_finite() {
        let g = generate(&small_config(), 13);
        for t in g.graph.schema().node_type_ids() {
            assert!(g
                .graph
                .nodes()
                .features_of_type(t)
                .iter()
                .all(|x| x.is_finite()));
        }
    }
}
