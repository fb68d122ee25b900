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

/// Latent dimensionality of the planted signal.
const LATENT_DIM: usize = 8;
/// Number of latent communities per node type.
const COMMUNITIES_PER_TYPE: usize = 4;
/// Standard deviation of node latents around their community centroid.
const WITHIN_COMMUNITY_STD: f32 = 0.35;
/// Observation noise added to projected features.
const FEATURE_NOISE_STD: f32 = 0.1;
/// Candidates examined per edge draw; higher = stronger planted signal.
const CANDIDATES_PER_EDGE: usize = 8;

/// What the latent-factor generator instantiates: a schema and its sizes.
/// The signal's shape is fixed by the constants above.
#[derive(Clone, Debug)]
pub struct LatentGraphConfig {
    /// The heterograph schema to instantiate.
    pub(crate) schema: Schema,
    /// Node count per node type (parallel to the schema's node types).
    pub(crate) nodes_per_type: Vec<usize>,
    /// Edge count per edge type (parallel to the schema's edge types).
    pub(crate) edges_per_type: Vec<usize>,
}

impl LatentGraphConfig {
    /// A configuration for a given schema and sizes.
    pub fn new(schema: Schema, nodes_per_type: Vec<usize>, edges_per_type: Vec<usize>) -> Self {
        assert_eq!(nodes_per_type.len(), schema.num_node_types());
        assert_eq!(edges_per_type.len(), schema.num_edge_types());
        Self {
            schema,
            nodes_per_type,
            edges_per_type,
        }
    }
}

/// A generated heterograph.
pub struct GeneratedGraph {
    /// The generated heterograph.
    pub graph: HeteroGraph,
}

/// Planted affinity `Σ_j z_u[j]·z_v[j]·r_t[j]` of a candidate edge `(u, v)`
/// of edge type `t`, over row-major `latents` (`[nodes, d]`) and
/// `relation_mods` (`[edge types, d]`).
fn affinity(latents: &[f32], relation_mods: &[f32], d: usize, t: usize, u: usize, v: usize) -> f32 {
    let r = &relation_mods[t * d..(t + 1) * d];
    latents[u * d..(u + 1) * d]
        .iter()
        .zip(&latents[v * d..(v + 1) * d])
        .zip(r)
        .map(|((&zu, &zv), &rt)| zu * zv * rt)
        .sum()
}

/// Generate a heterograph from a latent-factor model. Deterministic given
/// the seed.
pub fn generate(config: &LatentGraphConfig, seed: u64) -> GeneratedGraph {
    GeneratedGraph {
        graph: planted(config, seed).0,
    }
}

/// [`generate`]'s graph with the signal planted in it: the latent vector of
/// each global node (row-major `[num_nodes, 8]`) and the per-edge-type
/// modulation vectors (row-major `[num_edge_types, 8]`).
fn planted(config: &LatentGraphConfig, seed: u64) -> (HeteroGraph, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = config.schema.clone();
    let d = LATENT_DIM;
    let total_nodes: usize = config.nodes_per_type.iter().sum();

    // 1. community centroids, then node latents
    let mut latents = vec![0.0f32; total_nodes * d];
    let mut global = 0usize;
    for &count in &config.nodes_per_type {
        let centroids = init::normal(&mut rng, COMMUNITIES_PER_TYPE, d, 0.0, 1.0);
        for _ in 0..count {
            let c = rng.gen_range(0..COMMUNITIES_PER_TYPE);
            for j in 0..d {
                let (n0, _) = init::box_muller(&mut rng);
                latents[global * d + j] = centroids.get(c, j) + WITHIN_COMMUNITY_STD * n0;
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
        for _ in 0..target {
            let u = offsets[st] + rng.gen_range(0..sn);
            let mut best = offsets[dt] + rng.gen_range(0..dn);
            let mut best_aff = affinity(&latents, &relation_mods, d, t, u, best);
            for _ in 1..CANDIDATES_PER_EDGE {
                let cand = offsets[dt] + rng.gen_range(0..dn);
                if cand == u {
                    continue;
                }
                let a = affinity(&latents, &relation_mods, d, t, u, cand);
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
                feats[i * fd + c] = v + FEATURE_NOISE_STD * n0;
            }
        }
        features.push(feats);
    }

    let store = Arc::new(NodeStore::new(schema, &config.nodes_per_type, features));
    let graph = HeteroGraph::from_edges(store, edge_lists);
    (graph, latents, relation_mods)
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
        let (graph, latents, _) = planted(&small_config(), 11);
        assert_eq!(graph.num_nodes(), 70);
        assert_eq!(graph.edge_counts(), vec![120, 80]);
        assert_eq!(latents.len(), 70 * LATENT_DIM);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = small_config();
        let g1 = planted(&c, 5);
        let g2 = planted(&c, 5);
        assert_eq!(
            g1.0.edges_of_type(EdgeTypeId(0)),
            g2.0.edges_of_type(EdgeTypeId(0))
        );
        assert_eq!(g1.1, g2.1);
        let g3 = generate(&c, 6).graph;
        assert_ne!(
            g1.0.edges_of_type(EdgeTypeId(0)),
            g3.edges_of_type(EdgeTypeId(0))
        );
    }

    #[test]
    fn planted_signal_real_edges_beat_random_pairs() {
        let c = small_config();
        let (graph, latents, relation_mods) = planted(&c, 3);
        let mut rng = StdRng::seed_from_u64(99);
        let aff = |t: EdgeTypeId, u: u32, v: u32| {
            let (t, u, v) = (usize::from(t.0), u as usize, v as usize);
            affinity(&latents, &relation_mods, LATENT_DIM, t, u, v)
        };
        for t in [EdgeTypeId(0), EdgeTypeId(1)] {
            let list = graph.edges_of_type(t);
            let edges = list.src.iter().zip(&list.dst);
            let pos: f32 = edges.map(|(&u, &v)| aff(t, u, v)).sum::<f32>() / list.len() as f32;
            let dst_type = graph.schema().edge_type(t).dst_type;
            let dst_nodes = graph.nodes().nodes_of_type(dst_type);
            let neg: f32 = list
                .src
                .iter()
                .map(|&u| {
                    let v = dst_nodes[rng.gen_range(0..dst_nodes.len())];
                    aff(t, u, v)
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
        let list = g.graph.edges_of_type(EdgeTypeId(0));
        for (u, v) in list.src.iter().zip(&list.dst) {
            assert!(g.graph.nodes().nodes_of_type(NodeTypeId(0)).contains(u));
            assert!(g.graph.nodes().nodes_of_type(NodeTypeId(1)).contains(v));
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
