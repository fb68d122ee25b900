//! Train/test edge splitting for link prediction.
//!
//! The paper splits the *global* edge set (90/10 for Amazon, 85/15 for
//! DBLP); clients sample their sub-heterographs from the training portion
//! and the global test portion evaluates all edge types.

use crate::graph::{EdgeList, HeteroGraph};
use rand::seq::SliceRandom;
use rand::Rng;

/// A train/test split of a heterograph's edges. Both sides share the node
/// universe of the original graph.
#[derive(Clone, Debug)]
pub struct EdgeSplit {
    /// Graph holding the training edges.
    pub train: HeteroGraph,
    /// Graph holding the held-out test edges.
    pub test: HeteroGraph,
}

/// Split every edge type independently: `test_fraction` of each type's
/// edges go to the test side, the rest to the train side. Per-type
/// stratification keeps rare edge types represented in both sides.
pub fn split_edges<R: Rng + ?Sized>(
    graph: &HeteroGraph,
    test_fraction: f64,
    rng: &mut R,
) -> EdgeSplit {
    assert!(
        (0.0..1.0).contains(&test_fraction),
        "test_fraction must be in [0, 1), got {test_fraction}"
    );
    let schema = graph.schema().clone();
    let mut train_lists = Vec::with_capacity(schema.num_edge_types());
    let mut test_lists = Vec::with_capacity(schema.num_edge_types());
    for t in schema.edge_type_ids() {
        let list = graph.edges_of_type(t);
        let mut order: Vec<usize> = (0..list.len()).collect();
        order.shuffle(rng);
        let n_test = ((list.len() as f64) * test_fraction).round() as usize;
        // Keep at least one training edge per non-empty type.
        let n_test = n_test.min(list.len().saturating_sub(1));
        let mut train = EdgeList::new();
        let mut test = EdgeList::new();
        for (rank, &i) in order.iter().enumerate() {
            if rank < n_test {
                test.push(list.src[i], list.dst[i]);
            } else {
                train.push(list.src[i], list.dst[i]);
            }
        }
        train_lists.push(train);
        test_lists.push(test);
    }
    EdgeSplit {
        train: HeteroGraph::from_edges(graph.nodes().clone(), train_lists),
        test: HeteroGraph::from_edges(graph.nodes().clone(), test_lists),
    }
}

/// Sample (with replacement across calls, without within a call) a fraction
/// of one edge type's edges into a new [`EdgeList`].
pub fn sample_edge_fraction<R: Rng + ?Sized>(
    list: &EdgeList,
    fraction: f64,
    rng: &mut R,
) -> EdgeList {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1], got {fraction}"
    );
    let n = ((list.len() as f64) * fraction).round() as usize;
    let mut order: Vec<usize> = (0..list.len()).collect();
    order.shuffle(rng);
    let mut out = EdgeList::new();
    for &i in order.iter().take(n) {
        out.push(list.src[i], list.dst[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeStore;
    use crate::schema::EdgeTypeId;
    use crate::schema::Schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Per-type edge membership (`O(|E_t|)`): the oracle the split and
    /// sampling tests check against.
    fn contains_edge(graph: &HeteroGraph, t: EdgeTypeId, src: u32, dst: u32) -> bool {
        graph
            .edges_of_type(t)
            .iter()
            .any(|(s, d)| s == src && d == dst)
    }

    fn line_graph(n: usize) -> HeteroGraph {
        let mut s = Schema::new();
        let a = s.add_node_type("a", 1);
        s.add_edge_type("e", a, a, false);
        let store = Arc::new(NodeStore::new(s, &[n], vec![vec![0.0; n]]));
        let mut g = crate::graph::tests::edgeless(store);
        for i in 0..n as u32 - 1 {
            g.edges_of_type_mut(EdgeTypeId(0)).push(i, i + 1);
        }
        g
    }

    #[test]
    fn split_partitions_each_type() {
        let g = line_graph(101); // 100 edges
        let mut rng = StdRng::seed_from_u64(3);
        let split = split_edges(&g, 0.1, &mut rng);
        assert_eq!(split.test.num_edges(), 10);
        assert_eq!(split.train.num_edges(), 90);
        // disjoint
        for (s, d) in split.test.edges_of_type(EdgeTypeId(0)).iter() {
            assert!(!contains_edge(&split.train, EdgeTypeId(0), s, d));
        }
    }

    #[test]
    fn split_keeps_a_training_edge_for_tiny_types() {
        let g = line_graph(2); // a single edge
        let mut rng = StdRng::seed_from_u64(3);
        let split = split_edges(&g, 0.9, &mut rng);
        assert_eq!(split.train.num_edges(), 1);
        assert_eq!(split.test.num_edges(), 0);
    }

    #[test]
    fn sample_edge_fraction_respects_size() {
        let g = line_graph(51);
        let mut rng = StdRng::seed_from_u64(9);
        let sampled = sample_edge_fraction(g.edges_of_type(EdgeTypeId(0)), 0.3, &mut rng);
        assert_eq!(sampled.len(), 15);
        // all sampled edges exist in the original
        for (s, d) in sampled.iter() {
            assert!(contains_edge(&g, EdgeTypeId(0), s, d));
        }
    }

    #[test]
    fn split_is_seed_deterministic() {
        let g = line_graph(40);
        let s1 = split_edges(&g, 0.2, &mut StdRng::seed_from_u64(5));
        let s2 = split_edges(&g, 0.2, &mut StdRng::seed_from_u64(5));
        assert_eq!(
            s1.test.edges_of_type(EdgeTypeId(0)),
            s2.test.edges_of_type(EdgeTypeId(0))
        );
    }
}
