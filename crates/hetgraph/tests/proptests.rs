//! Property-based tests for heterograph invariants.

use fedda_hetgraph::io::{EdgeTypeDoc, GraphDoc, IoError, NodeTypeDoc};
use fedda_hetgraph::{
    split, EdgeIndex, EdgeList, EdgeTypeId, HeteroGraph, LinkExample, LinkSampler, NodeStore,
    Schema,
};
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

/// Three edge types over `na` type-a and `nb` type-b nodes — "ab" and "ab2"
/// (both a→b, so they share sources) and a symmetric "aa" — from index
/// pairs taken modulo the node counts; repeated pairs are multi-edges. With
/// `saturate`, a-node 0 is "ab"-adjacent to *every* b-node, so all 32
/// rejection draws for it fail and the unchecked fallback fires.
fn typed_graph(na: usize, nb: usize, pairs: [&[(usize, usize)]; 3], saturate: bool) -> HeteroGraph {
    let mut s = Schema::new();
    let a = s.add_node_type("a", 1);
    let b = s.add_node_type("b", 1);
    s.add_edge_type("ab", a, b, false);
    s.add_edge_type("aa", a, a, true);
    s.add_edge_type("ab2", a, b, false);
    let store = Arc::new(NodeStore::new(
        s,
        &[na, nb],
        vec![vec![0.0; na], vec![0.0; nb]],
    ));
    // type-a nodes are global 0..na, type-b nodes na..na+nb.
    let dst_base = [na, 0, na];
    let dst_count = [nb, na, nb];
    let mut lists = vec![EdgeList::new(), EdgeList::new(), EdgeList::new()];
    for (t, list) in lists.iter_mut().enumerate() {
        for &(src, dst) in pairs[t] {
            list.push((src % na) as u32, (dst_base[t] + dst % dst_count[t]) as u32);
        }
    }
    if saturate {
        for d in 0..nb {
            lists[0].push(0, (na + d) as u32);
        }
    }
    HeteroGraph::from_edges(store, lists)
}

/// The reference for `LinkSampler::with_negatives`: every drawn candidate is
/// looked up in the whole edge index through the public `contains`.
fn reference_with_negatives(
    graph: &HeteroGraph,
    index: &EdgeIndex,
    positives: &[LinkExample],
    negatives_per_positive: usize,
    rng: &mut StdRng,
) -> Vec<LinkExample> {
    let mut out = Vec::new();
    for &p in positives {
        out.push(p);
        let dst_type = graph.schema().edge_type(p.etype).dst_type;
        let candidates = graph.nodes().nodes_of_type(dst_type);
        for _ in 0..negatives_per_positive {
            let accepted = (0..32).find_map(|_| {
                let d = candidates[rng.gen_range(0..candidates.len())];
                (!index.contains(p.etype, p.src, d)).then_some(d)
            });
            let dst = accepted.unwrap_or_else(|| candidates[rng.gen_range(0..candidates.len())]);
            out.push(LinkExample {
                dst,
                label: false,
                ..p
            });
        }
    }
    out
}

/// A count or dimension a hostile archive may claim.
fn claimed_size() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [0, 1, 7, usize::MAX / 2, usize::MAX][i])
}

/// A node type whose feature list matches its claimed `count × feat_dim`
/// when `honest` (and the product is small enough to write down), and is
/// seven values otherwise.
fn node_type_doc() -> impl Strategy<Value = NodeTypeDoc> {
    (claimed_size(), claimed_size(), any::<bool>()).prop_map(|(count, feat_dim, honest)| {
        let len = count.checked_mul(feat_dim).filter(|&n| honest && n <= 49);
        NodeTypeDoc {
            name: "n".to_string(),
            feat_dim,
            count,
            features: vec![0.5; len.unwrap_or(7)],
        }
    })
}

/// An edge type over node-type indices and endpoints that may or may not
/// exist, with `src` / `dst` lists of independent lengths.
fn edge_type_doc() -> impl Strategy<Value = EdgeTypeDoc> {
    let endpoints = || prop::collection::vec(0u32..16, 0..4);
    (
        0usize..4,
        0usize..4,
        any::<bool>(),
        endpoints(),
        endpoints(),
    )
        .prop_map(|(src_type, dst_type, symmetric, src, dst)| EdgeTypeDoc {
            name: "e".to_string(),
            src_type,
            dst_type,
            symmetric,
            src,
            dst,
        })
}

proptest! {
    /// An archive is outside input: whatever it claims, loading it ends in
    /// a graph or in `IoError::Invalid`, never in a panic or an abort.
    #[test]
    fn arbitrary_graph_docs_load_or_are_refused(
        node_types in prop::collection::vec(node_type_doc(), 0..3),
        edge_types in prop::collection::vec(edge_type_doc(), 0..3),
    ) {
        let doc = GraphDoc { version: GraphDoc::VERSION, node_types, edge_types };
        match doc.clone().into_graph() {
            Ok(graph) => prop_assert_eq!(GraphDoc::from_graph(&graph), doc),
            Err(IoError::Invalid(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }

    /// The same one level down, on the archive's bytes: every truncation of
    /// a saved graph's JSON text and every single-byte substitution from
    /// the grammar's own alphabet parses into a graph or is refused.
    #[test]
    fn truncated_and_byte_flipped_archives_load_or_are_refused(
        na in 1usize..4, nb in 1usize..3,
        n_ab in 0usize..4, n_aa in 0usize..3,
        seed in any::<u64>(),
    ) {
        let doc = GraphDoc::from_graph(&random_graph(na, nb, n_ab, n_aa, seed));
        let text = serde_json::to_string(&doc).expect("serialise");
        let load = |bytes: &[u8]| -> Result<(), IoError> {
            // Bytes that are not UTF-8 (a cut or a flip inside a character)
            // never reach the parser: `read_to_string` refuses them first.
            let Ok(text) = std::str::from_utf8(bytes) else { return Ok(()) };
            serde_json::from_str::<GraphDoc>(text)?.into_graph().map(drop)
        };
        let mut bytes = text.into_bytes();
        prop_assert!(load(&bytes).is_ok());
        for end in 0..bytes.len() {
            let _ = load(&bytes[..end]);
        }
        for at in 0..bytes.len() {
            let original = bytes[at];
            for &flip in b"\"\\{[}],:e-.u\0" {
                bytes[at] = flip;
                let _ = load(&bytes);
            }
            bytes[at] = original;
        }
    }

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
        let self_edges = g
            .edges_of_type(EdgeTypeId(1))
            .iter()
            .filter(|&(s, d)| s == d)
            .count();
        let expected = n_ab + 2 * n_aa - self_edges
            + if self_loops { na + nb } else { 0 };
        prop_assert_eq!(me.len(), expected);
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
            prop_assert_eq!(g.nodes().type_of(e.dst), expect);
        }
    }

    /// Rejecting against one source's edges draws what rejecting against the
    /// whole index drew: the same examples from the same RNG draws.
    #[test]
    fn negatives_match_the_whole_index_reference(
        na in 1usize..5, nb in 1usize..5,
        ab in prop::collection::vec((0usize..8, 0usize..8), 0..12),
        aa in prop::collection::vec((0usize..8, 0usize..8), 0..12),
        ab2 in prop::collection::vec((0usize..8, 0usize..8), 0..12),
        saturate in any::<bool>(),
        negatives in 0usize..4,
        seed in any::<u64>(),
    ) {
        let g = typed_graph(na, nb, [&ab, &aa, &ab2], saturate);
        let index = EdgeIndex::new(&g);
        let sampler = LinkSampler::with_index(&g, index.clone());
        // Every edge, then every (edge type, a-node) pair whether or not
        // the node has such an edge: sources with no out-edges are queried.
        let mut positives = sampler.all_positives();
        for etype in g.schema().edge_type_ids() {
            let dst_type = g.schema().edge_type(etype).dst_type;
            let dst = g.nodes().nodes_of_type(dst_type)[0];
            positives.extend((0..na as u32).map(|src| LinkExample { src, dst, etype, label: true }));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let got = sampler.with_negatives(&positives, negatives, &mut rng);
        let expect =
            reference_with_negatives(&g, &index, &positives, negatives, &mut reference_rng);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG states differ");
        // `corrupt_dst` is the one-negative case of the same draw.
        for p in &positives {
            let one = sampler.corrupt_dst(p.etype, p.src, &mut rng);
            let expect = reference_with_negatives(&g, &index, &[*p], 1, &mut reference_rng);
            prop_assert_eq!(one, expect[1].dst);
        }
    }

    #[test]
    fn in_degrees_sum_to_message_count(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 0usize..30, n_aa in 0usize..30,
        seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let me = g.message_edges(true);
        let deg = g.message_in_degrees(true);
        prop_assert_eq!(deg.iter().map(|&d| d as usize).sum::<usize>(), me.len());
    }
}
