//! Federated system synthesis: splitting a global training graph into `M`
//! client sub-heterographs.
//!
//! The paper's non-IID protocol (§6.1): every client first randomly selects
//! the edge types it is *specialised* in and samples a fraction `r_a = 0.3`
//! of those edges from the global graph; for the remaining types it samples
//! a much smaller fraction `r_b = 0.05`. Overlap between clients is allowed
//! (`|E_i ∩ E_j| ≥ 0`). Biased clients train link prediction only on their
//! specialised types; the global test task covers all types.
//!
//! The IID variant gives every client the same expected edge-type
//! distribution by sampling every type at the same rate.

use fedda_hetgraph::{split::sample_edge_fraction, EdgeTypeId, HeteroGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Partitioner configuration.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Number of clients `M`.
    pub num_clients: usize,
    /// Fraction of a specialised type's edges each client samples (`r_a`).
    pub r_a: f64,
    /// Fraction of a non-specialised type's edges each client samples (`r_b`).
    pub r_b: f64,
    /// How many edge types each client specialises in.
    pub specialized_types_per_client: usize,
    /// RNG seed for the partition.
    pub seed: u64,
}

impl PartitionConfig {
    /// Paper defaults: `r_a = 0.3`, `r_b = 0.05`, specialisation breadth
    /// scaled to the schema (at least one type, roughly half the types).
    pub fn paper_defaults(num_clients: usize, num_edge_types: usize, seed: u64) -> Self {
        Self {
            num_clients,
            r_a: 0.30,
            r_b: 0.05,
            specialized_types_per_client: (num_edge_types / 2).max(1),
            seed,
        }
    }
}

/// One client's local data. Equal when the graphs are equal
/// ([`HeteroGraph`]'s `==`) and the specialisations match, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientData {
    /// The client's sub-heterograph (shares the global node universe).
    pub graph: HeteroGraph,
    /// Edge types the client is specialised in — its local downstream task
    /// only predicts links of these types.
    pub specialized: Vec<EdgeTypeId>,
}

impl ClientData {
    /// Total local edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

/// Non-IID partition per the paper's protocol.
pub fn partition_non_iid(global_train: &HeteroGraph, config: &PartitionConfig) -> Vec<ClientData> {
    assert!(config.num_clients > 0, "need at least one client");
    assert!(config.r_a > 0.0 && config.r_a <= 1.0, "r_a out of range");
    assert!(config.r_b >= 0.0 && config.r_b <= 1.0, "r_b out of range");
    let n_types = global_train.schema().num_edge_types();
    let k = config.specialized_types_per_client.clamp(1, n_types);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut clients = Vec::with_capacity(config.num_clients);
    for _ in 0..config.num_clients {
        let mut type_order: Vec<u16> = (0..n_types as u16).collect();
        type_order.shuffle(&mut rng);
        let specialized: Vec<EdgeTypeId> = type_order[..k].iter().map(|&t| EdgeTypeId(t)).collect();
        let mut lists = Vec::with_capacity(n_types);
        for t in 0..n_types {
            let t = EdgeTypeId(t as u16);
            let frac = if specialized.contains(&t) {
                config.r_a
            } else {
                config.r_b
            };
            lists.push(sample_edge_fraction(
                global_train.edges_of_type(t),
                frac,
                &mut rng,
            ));
        }
        let graph = HeteroGraph::from_edges(global_train.nodes().clone(), lists);
        clients.push(ClientData { graph, specialized });
    }
    clients
}

/// IID partition: every client samples every edge type at rate `r_a` and is
/// "specialised" in all types (its local task covers everything).
pub fn partition_iid(global_train: &HeteroGraph, config: &PartitionConfig) -> Vec<ClientData> {
    assert!(config.num_clients > 0, "need at least one client");
    let n_types = global_train.schema().num_edge_types();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let all_types: Vec<EdgeTypeId> = (0..n_types as u16).map(EdgeTypeId).collect();
    let mut clients = Vec::with_capacity(config.num_clients);
    for _ in 0..config.num_clients {
        let mut lists = Vec::with_capacity(n_types);
        for t in &all_types {
            lists.push(sample_edge_fraction(
                global_train.edges_of_type(*t),
                config.r_a,
                &mut rng,
            ));
        }
        let graph = HeteroGraph::from_edges(global_train.nodes().clone(), lists);
        clients.push(ClientData {
            graph,
            specialized: all_types.clone(),
        });
    }
    clients
}

/// Mean pairwise total-variation distance between client edge-type
/// distributions — a scalar measure of how non-IID a partition is
/// (0 = identical distributions, →1 = disjoint supports).
pub fn non_iidness(clients: &[ClientData]) -> f64 {
    if clients.len() < 2 {
        return 0.0;
    }
    let dists: Vec<Vec<f64>> = clients
        .iter()
        .map(|c| c.graph.edge_type_distribution())
        .collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..dists.len() {
        for j in i + 1..dists.len() {
            let tv: f64 = dists[i]
                .iter()
                .zip(&dists[j])
                .map(|(&p, &q)| (p - q).abs())
                .sum::<f64>()
                / 2.0;
            total += tv;
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// XOR tweak [`client_seeds`] applies to the partition seed, so the
/// per-client seeds are independent of the partition's own draws (which
/// consume the raw seed).
pub const CLIENT_SEEDS_STREAM_TWEAK: u64 = 0x9E37_79B9_7F4A_7C15;

/// Sample a client RNG seed stream from a partition seed (one sub-seed per
/// client, stable under reordering of calls).
pub fn client_seeds(base_seed: u64, num_clients: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(base_seed ^ CLIENT_SEEDS_STREAM_TWEAK);
    (0..num_clients).map(|_| rng.gen()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dblp_like, PresetOptions};
    use fedda_hetgraph::EdgeList;
    use std::sync::Arc;

    fn small_global() -> HeteroGraph {
        dblp_like(&PresetOptions {
            scale: 0.002,
            seed: 1,
        })
        .graph
    }

    #[test]
    fn non_iid_partition_shapes() {
        let g = small_global();
        let cfg = PartitionConfig::paper_defaults(8, g.schema().num_edge_types(), 7);
        let clients = partition_non_iid(&g, &cfg);
        assert_eq!(clients.len(), 8);
        for c in &clients {
            assert_eq!(c.specialized.len(), 2); // 5 types / 2
            assert!(c.num_edges() > 0);
            // specialised types should carry visibly more edges than the
            // r_b-sampled ones, relative to global counts
            for &t in &c.specialized {
                let local = c.graph.edges_of_type(t).len() as f64;
                let global = g.edges_of_type(t).len() as f64;
                assert!((local / global - 0.30).abs() < 0.02);
            }
        }
    }

    #[test]
    fn client_data_equality_reads_graph_and_specialisation() {
        let g = small_global();
        let cfg = PartitionConfig::paper_defaults(2, g.schema().num_edge_types(), 7);
        let clients = partition_non_iid(&g, &cfg);
        let base = &clients[0];
        assert_eq!(*base, base.clone());
        assert_ne!(*base, clients[1]);
        let mut other_task = base.clone();
        other_task.specialized.reverse();
        assert_ne!(
            *base, other_task,
            "specialisation order is part of the data"
        );
        // One more edge of a specialised type, taken from the global graph.
        let t = base.specialized[0];
        let (src, dst) = (&g.edges_of_type(t).src, &g.edges_of_type(t).dst);
        let mut lists: Vec<EdgeList> = (base.graph.schema().edge_type_ids())
            .map(|t| base.graph.edges_of_type(t).clone())
            .collect();
        lists[usize::from(t.0)].push(src[0], dst[0]);
        let one_edge = ClientData {
            graph: HeteroGraph::from_edges(Arc::clone(base.graph.nodes()), lists),
            specialized: base.specialized.clone(),
        };
        assert_ne!(*base, one_edge);
    }

    #[test]
    fn non_iid_is_more_biased_than_iid() {
        let g = small_global();
        let cfg = PartitionConfig::paper_defaults(8, g.schema().num_edge_types(), 7);
        let biased = partition_non_iid(&g, &cfg);
        let iid = partition_iid(&g, &cfg);
        let b = non_iidness(&biased);
        let i = non_iidness(&iid);
        assert!(
            b > i + 0.05,
            "non-IID partition ({b:.3}) should be measurably more biased than IID ({i:.3})"
        );
    }

    #[test]
    fn partition_deterministic_by_seed() {
        let g = small_global();
        let cfg = PartitionConfig::paper_defaults(4, g.schema().num_edge_types(), 11);
        let a = partition_non_iid(&g, &cfg);
        let b = partition_non_iid(&g, &cfg);
        // Full edge-list equality, not just counts: same seed must reproduce
        // every client graph edge-for-edge, in the same order.
        let edges = |c: &ClientData| -> Vec<(u16, u32, u32)> {
            c.graph
                .schema()
                .edge_type_ids()
                .flat_map(|t| {
                    let list = c.graph.edges_of_type(t);
                    (list.src.iter().zip(&list.dst)).map(move |(&s, &d)| (t.0, s, d))
                })
                .collect()
        };
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.specialized, cb.specialized);
            assert_eq!(edges(ca), edges(cb));
        }
    }

    #[test]
    fn client_seeds_are_distinct() {
        let seeds = client_seeds(0, 16);
        let unique: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 16);
    }

    #[test]
    fn single_client_non_iidness_is_zero() {
        let g = small_global();
        let cfg = PartitionConfig::paper_defaults(1, g.schema().num_edge_types(), 0);
        let clients = partition_non_iid(&g, &cfg);
        assert_eq!(non_iidness(&clients), 0.0);
    }
}
