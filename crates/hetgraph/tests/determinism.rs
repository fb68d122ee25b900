//! Same-seed regression tests for the path `clippy.toml`'s `HashMap` /
//! `HashSet` ban protects: link sampling must reproduce its output
//! element-for-element across repeated runs with the same seed. Before the
//! `BTreeSet` conversions it iterated `HashSet`s, which is order-stable
//! only by accident of allocation.

use fedda_hetgraph::{EdgeList, HeteroGraph, LinkSampler, NodeStore, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Two-type graph with a directed a→b type and a symmetric a–a type.
fn demo_graph(seed: u64) -> HeteroGraph {
    let (na, nb) = (14, 9);
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
    for _ in 0..40 {
        ab.push(
            rng.gen_range(0..na) as u32,
            (na + rng.gen_range(0..nb)) as u32,
        );
    }
    let mut aa = EdgeList::new();
    for _ in 0..25 {
        aa.push(rng.gen_range(0..na) as u32, rng.gen_range(0..na) as u32);
    }
    HeteroGraph::from_edges(store, vec![ab, aa])
}

#[test]
fn negative_sampling_is_reproducible_by_seed() {
    let g = demo_graph(11);
    let sampler = LinkSampler::new(&g);
    let positives = sampler.all_positives();
    assert!(!positives.is_empty());
    let draw = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        sampler.with_negatives(&positives, 2, &mut rng)
    };
    let a = draw(3);
    let b = draw(3);
    assert_eq!(a, b, "same seed must reproduce the exact negative set");
    let c = draw(4);
    assert_ne!(a, c, "different seeds should explore different negatives");
}

#[test]
fn batch_shuffling_is_reproducible_by_seed() {
    let g = demo_graph(13);
    let sampler = LinkSampler::new(&g);
    let mut ex_a = sampler.all_positives();
    let mut ex_b = ex_a.clone();
    let batches_a = LinkSampler::batches(&mut ex_a, 8, &mut StdRng::seed_from_u64(21));
    let batches_b = LinkSampler::batches(&mut ex_b, 8, &mut StdRng::seed_from_u64(21));
    assert_eq!(batches_a, batches_b);
}
