//! Property-based tests for heterograph invariants. The archive fuzzers and
//! the negative sampler's whole-index reference edit or convert what the
//! program cannot reach from outside, so they are unit tests of `io.rs` and
//! `sampling.rs`.

use fedda_hetgraph::{split, EdgeList, EdgeTypeId, HeteroGraph, LinkSampler, NodeStore, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random two-type heterograph with a directed a→b type and a symmetric a–a
/// type.
fn random_graph(na: usize, nb: usize, n_ab: usize, n_aa: usize, seed: u64) -> HeteroGraph {
    let mut s = Schema::new();
    let a = s.add_node_type("a", 2);
    let b = s.add_node_type("b", 2);
    s.add_edge_type("ab", a, b, false);
    s.add_edge_type("aa", a, a, true);
    let store = Arc::new(NodeStore::new(
        s,
        &[na, nb],
        vec![vec![0.0; na * 2], vec![0.0; nb * 2]],
    ));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ab = EdgeList::new();
    for _ in 0..n_ab {
        ab.push(
            rng.gen_range(0..na) as u32,
            (na + rng.gen_range(0..nb)) as u32,
        );
    }
    let mut aa = EdgeList::new();
    for _ in 0..n_aa {
        aa.push(rng.gen_range(0..na) as u32, rng.gen_range(0..na) as u32);
    }
    HeteroGraph::from_edges(store, vec![ab, aa])
}

proptest! {
    #[test]
    fn split_conserves_edge_count(
        na in 2usize..12, nb in 2usize..12,
        n_ab in 0usize..40, n_aa in 0usize..40,
        seed in any::<u64>(), frac in 0.0f64..0.9,
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let split = split::split_edges(&g, frac, &mut StdRng::seed_from_u64(seed ^ 1));
        prop_assert_eq!(split.train.num_edges() + split.test.num_edges(), g.num_edges());
        // splits respect per-type counts too
        for t in 0..2u16 {
            let t = EdgeTypeId(t);
            prop_assert_eq!(
                split.train.edges_of_type(t).len() + split.test.edges_of_type(t).len(),
                g.edges_of_type(t).len()
            );
        }
    }

    #[test]
    fn edge_type_distribution_is_a_distribution(
        na in 2usize..12, nb in 2usize..12,
        n_ab in 1usize..40, n_aa in 0usize..40,
        seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let dist = g.edge_type_distribution();
        let sum: f64 = dist.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn message_edges_count_matches_formula(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 0usize..30, n_aa in 0usize..30,
        seed in any::<u64>(), self_loops in any::<bool>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let me = g.message_edges(self_loops);
        let aa = g.edges_of_type(EdgeTypeId(1));
        let self_edges = aa.src.iter().zip(&aa.dst).filter(|&(s, d)| s == d).count();
        let expected = n_ab + 2 * n_aa - self_edges
            + if self_loops { na + nb } else { 0 };
        prop_assert_eq!(me.src.len(), expected);
        // every message's endpoints are in range
        let n = g.num_nodes() as u32;
        prop_assert!(me.src.iter().all(|&s| s < n));
        prop_assert!(me.dst.iter().all(|&d| d < n));
    }

    #[test]
    fn negatives_always_respect_dst_type(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 1usize..20, seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, 5, seed);
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let pos = sampler.all_positives();
        let all = sampler.with_negatives(&pos, 2, &mut rng);
        for e in all.iter().filter(|e| !e.label) {
            let expect = g.schema().edge_type(e.etype).dst_type;
            prop_assert!(g.nodes().nodes_of_type(expect).contains(&e.dst));
        }
    }

    #[test]
    fn in_degrees_sum_to_message_count(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 0usize..30, n_aa in 0usize..30,
        seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let in_degrees = |add_self_loops| {
            let me = g.message_edges(add_self_loops);
            let mut deg = vec![0usize; g.num_nodes()];
            for &d in &me.dst {
                deg[d as usize] += 1;
            }
            (deg, me.src.len())
        };
        let (plain, messages) = in_degrees(false);
        prop_assert_eq!(plain.iter().sum::<usize>(), messages);
        // A self-loop is one more incoming message at every node.
        let (looped, messages) = in_degrees(true);
        prop_assert_eq!(looped.iter().sum::<usize>(), messages);
        for (l, p) in looped.iter().zip(&plain) {
            prop_assert_eq!(*l, p + 1);
        }
    }
}
