//! Link-prediction sampling: positive edge batches and type-respecting
//! negative samples.
//!
//! Negative samples corrupt the destination endpoint of a positive edge with
//! a uniformly random node of the *same node type*, matching the standard
//! protocol for link prediction on heterographs (and the one Simple-HGN's
//! benchmark uses). An optional rejection step avoids sampling an existing
//! edge as a negative.

use crate::graph::{HeteroGraph, NodeId};
use crate::schema::EdgeTypeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// One labelled example for the link-prediction loss/metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkExample {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge type being predicted.
    pub etype: EdgeTypeId,
    /// `true` for a real edge, `false` for a sampled negative.
    pub label: bool,
}

/// The existing edges of one graph as sorted `(etype, src, dst)` triples,
/// with a CSR-style offsets table over `(etype, src)` — the
/// negative-rejection index of a [`LinkSampler`]. Entry `t · nodes + s`
/// of the table is where the run of `(t, s, _)` triples starts, so a
/// source's edges of one type are two loads away. The table holds
/// `edge_types · nodes + 1` `u32`s.
///
/// Immutable and cheap to clone, so a long-lived owner of the graph
/// builds it once and hands it to the short-lived samplers it creates
/// ([`LinkSampler::with_index`]).
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    edges: Arc<[(u16, NodeId, NodeId)]>,
    /// `offsets[t · nodes + s] .. offsets[t · nodes + s + 1]` is the run
    /// of `(t, s, _)` in `edges`.
    offsets: Arc<[u32]>,
    /// Sources per edge type in `offsets`: the graph's node count, or one
    /// past the largest source if an edited edge list holds a larger id.
    nodes: usize,
}

impl EdgeIndex {
    /// Index every edge of `graph`.
    ///
    /// # Panics
    /// Panics if the graph holds `2³²` edges or more.
    pub fn new(graph: &HeteroGraph) -> Self {
        let lists = || (graph.schema().edge_type_ids()).map(|t| (t.0, graph.edges_of_type(t)));
        let num_edges: usize = lists().map(|(_, l)| l.len()).sum();
        assert!(
            u32::try_from(num_edges).is_ok(),
            "an edge index holds fewer than 2^32 edges"
        );
        let max_src = lists().flat_map(|(_, l)| l.src.iter()).max();
        let nodes = graph
            .num_nodes()
            .max(max_src.map_or(0, |&s| s as usize + 1));
        let types = graph.schema().num_edge_types();
        let run = |t: u16, s: NodeId| usize::from(t) * nodes + s as usize;
        // A counting sort by `(etype, src)`: count each run one slot ahead,
        // prefix-sum the counts into run starts, then place every edge at
        // its run's cursor. The cursors end one run ahead, so shifting them
        // back by one slot leaves the run starts again.
        let mut offsets = vec![0u32; types * nodes + 1];
        for (t, list) in lists() {
            for &s in &list.src {
                offsets[run(t, s) + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut edges = vec![(0, 0, 0); num_edges];
        for (t, list) in lists() {
            for (s, d) in list.iter() {
                let cursor = &mut offsets[run(t, s)];
                edges[*cursor as usize] = (t, s, d);
                *cursor += 1;
            }
        }
        offsets.copy_within(..types * nodes, 1);
        offsets[0] = 0;
        // Each run holds one `(etype, src)`: sorting its destinations
        // sorts its triples.
        for w in offsets.windows(2) {
            edges[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Self {
            edges: edges.into(),
            offsets: offsets.into(),
            nodes,
        }
    }

    /// Whether `src → dst` exists as an edge of type `etype`.
    #[cfg(test)]
    fn contains(&self, etype: EdgeTypeId, src: NodeId, dst: NodeId) -> bool {
        self.edges.binary_search(&(etype.0, src, dst)).is_ok()
    }

    /// The `etype` edges leaving `src`: the index's run of `(etype, src, _)`
    /// triples, destinations ascending (a multi-edge repeats). Empty when
    /// `src` has no such edge, including a source past the graph's nodes and
    /// an edge type past its schema.
    fn edges_from(&self, etype: EdgeTypeId, src: NodeId) -> &[(u16, NodeId, NodeId)] {
        let src = src as usize;
        if src >= self.nodes {
            return &[];
        }
        let key = usize::from(etype.0) * self.nodes + src;
        match self.offsets.get(key..key + 2) {
            Some(&[lo, hi]) => &self.edges[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Draws corrupted destinations for the positives of one `(etype, src)`:
/// the destination type's candidate nodes and the source's existing edges,
/// both resolved once.
struct Corruptor<'a> {
    candidates: &'a [NodeId],
    existing: &'a [(u16, NodeId, NodeId)],
}

impl Corruptor<'_> {
    /// One negative destination: a uniformly drawn candidate that is not
    /// already a neighbour, or an unchecked draw after 32 rejections.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        for _ in 0..32 {
            let d = self.candidates[rng.gen_range(0..self.candidates.len())];
            if self.existing.binary_search_by_key(&d, |e| e.2).is_err() {
                return d;
            }
        }
        self.candidates[rng.gen_range(0..self.candidates.len())]
    }
}

/// Draws positive/negative link examples from a heterograph.
pub struct LinkSampler<'g> {
    graph: &'g HeteroGraph,
    /// Existing edges, for negative rejection.
    existing: EdgeIndex,
}

impl<'g> LinkSampler<'g> {
    /// Build a sampler; indexes the graph's edges for negative rejection.
    pub fn new(graph: &'g HeteroGraph) -> Self {
        Self::with_index(graph, EdgeIndex::new(graph))
    }

    /// Build a sampler around an index of `graph` built earlier — what a
    /// caller that samples from the same graph every round should use.
    pub fn with_index(graph: &'g HeteroGraph, existing: EdgeIndex) -> Self {
        Self { graph, existing }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &HeteroGraph {
        self.graph
    }

    /// What corrupting `src`'s `etype` edges needs, looked up once: rejection
    /// then searches that source's edges, not the whole index.
    fn corruptor(&self, etype: EdgeTypeId, src: NodeId) -> Corruptor<'_> {
        let dst_type = self.graph.schema().edge_type(etype).dst_type;
        let candidates = self.graph.nodes().nodes_of_type(dst_type);
        debug_assert!(
            !candidates.is_empty(),
            "no candidate destinations for negatives"
        );
        Corruptor {
            candidates,
            existing: self.existing.edges_from(etype, src),
        }
    }

    /// All positive examples of the graph (every edge of every type).
    pub fn all_positives(&self) -> Vec<LinkExample> {
        let mut out = Vec::with_capacity(self.graph.num_edges());
        for t in self.graph.schema().edge_type_ids() {
            for (s, d) in self.graph.edges_of_type(t).iter() {
                out.push(LinkExample {
                    src: s,
                    dst: d,
                    etype: t,
                    label: true,
                });
            }
        }
        out
    }

    /// Positives restricted to the given edge types (a biased client's
    /// "specialised" downstream task trains only on the types it holds).
    pub fn positives_of_types(&self, types: &[EdgeTypeId]) -> Vec<LinkExample> {
        let mut out = Vec::new();
        for &t in types {
            for (s, d) in self.graph.edges_of_type(t).iter() {
                out.push(LinkExample {
                    src: s,
                    dst: d,
                    etype: t,
                    label: true,
                });
            }
        }
        out
    }

    /// Pair each positive with `negatives_per_positive` corrupted negatives.
    pub fn with_negatives<R: Rng + ?Sized>(
        &self,
        positives: &[LinkExample],
        negatives_per_positive: usize,
        rng: &mut R,
    ) -> Vec<LinkExample> {
        let mut out = Vec::with_capacity(positives.len() * (1 + negatives_per_positive));
        for &p in positives {
            out.push(p);
            let corruptor = self.corruptor(p.etype, p.src);
            for _ in 0..negatives_per_positive {
                out.push(LinkExample {
                    src: p.src,
                    dst: corruptor.draw(rng),
                    etype: p.etype,
                    label: false,
                });
            }
        }
        out
    }

    /// Shuffle examples and yield mini-batches of at most `batch_size`.
    pub fn batches<R: Rng + ?Sized>(
        examples: &mut [LinkExample],
        batch_size: usize,
        rng: &mut R,
    ) -> Vec<Vec<LinkExample>> {
        Self::shuffled_batches(examples, batch_size, rng)
            .map(<[LinkExample]>::to_vec)
            .collect()
    }

    /// [`LinkSampler::batches`] as views into `examples`, shuffled in
    /// place: the same batches from the same draws, without a copy.
    pub fn shuffled_batches<'e, R: Rng + ?Sized>(
        examples: &'e mut [LinkExample],
        batch_size: usize,
        rng: &mut R,
    ) -> std::slice::Chunks<'e, LinkExample> {
        assert!(batch_size > 0, "batch_size must be positive");
        examples.shuffle(rng);
        examples.chunks(batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeList, NodeStore};
    use crate::schema::Schema;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn bipartite() -> HeteroGraph {
        let mut s = Schema::new();
        let a = s.add_node_type("a", 1);
        let b = s.add_node_type("b", 1);
        s.add_edge_type("ab", a, b, false);
        s.add_edge_type("aa", a, a, true);
        let store = Arc::new(NodeStore::new(s, &[4, 6], vec![vec![0.0; 4], vec![0.0; 6]]));
        // type-a: global 0..4, type-b: global 4..10
        let mut ab = EdgeList::new();
        ab.push(0, 4);
        ab.push(1, 5);
        ab.push(2, 6);
        let mut aa = EdgeList::new();
        aa.push(0, 1);
        HeteroGraph::from_edges(store, vec![ab, aa])
    }

    #[test]
    fn corrupt_dst_respects_node_type() {
        let g = bipartite();
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let d = sampler.corruptor(EdgeTypeId(0), 0).draw(&mut rng);
            assert!((4..10).contains(&d), "negative {d} is not a type-b node");
            assert_ne!(d, 4, "existing edge (0,4) must be rejected");
        }
        for _ in 0..50 {
            let d = sampler.corruptor(EdgeTypeId(1), 0).draw(&mut rng);
            assert!((0..4).contains(&d), "negative {d} is not a type-a node");
        }
    }

    #[test]
    fn shared_index_draws_the_same_negatives() {
        let g = bipartite();
        let index = EdgeIndex::new(&g);
        assert!(index.contains(EdgeTypeId(0), 0, 4) && index.contains(EdgeTypeId(1), 0, 1));
        assert!(!index.contains(EdgeTypeId(1), 0, 4) && !index.contains(EdgeTypeId(0), 4, 0));
        let pos = LinkSampler::new(&g).all_positives();
        let fresh = LinkSampler::new(&g).with_negatives(&pos, 5, &mut StdRng::seed_from_u64(7));
        let shared = LinkSampler::with_index(&g, index.clone());
        assert_eq!(
            shared.with_negatives(&pos, 5, &mut StdRng::seed_from_u64(7)),
            fresh
        );
    }

    #[test]
    fn edges_from_is_the_run_of_one_source() {
        // Sorted triples: (0,0,4) (0,1,5) (0,2,6) (1,0,1).
        let index = EdgeIndex::new(&bipartite());
        let dsts = |t: u16, src| -> Vec<NodeId> {
            let run = index.edges_from(EdgeTypeId(t), src);
            assert!(run.iter().all(|&(et, s, _)| (et, s) == (t, src)));
            run.iter().map(|e| e.2).collect()
        };
        assert_eq!(dsts(0, 0), [4], "first key");
        assert_eq!(dsts(0, 2), [6]);
        assert_eq!(dsts(1, 0), [1], "last key");
        assert!(dsts(0, 3).is_empty(), "a source with no out-edges");
        assert!(dsts(1, 1).is_empty(), "past the last key");
        assert!(dsts(2, 0).is_empty(), "past the last edge type");

        let g = bipartite();
        let empty = EdgeIndex::new(&crate::graph::tests::edgeless(g.nodes().clone()));
        assert!(empty.edges_from(EdgeTypeId(0), 0).is_empty());
        assert!(!empty.contains(EdgeTypeId(0), 0, 0));
    }

    #[test]
    fn out_of_range_queries_get_an_empty_run() {
        let g = bipartite();
        let index = EdgeIndex::new(&g);
        let nodes = g.num_nodes() as NodeId;
        for src in [nodes, nodes + 1, NodeId::MAX] {
            for t in [0, 1] {
                assert!(
                    index.edges_from(EdgeTypeId(t), src).is_empty(),
                    "{t}, {src}"
                );
            }
        }
        for t in [2, 3, u16::MAX] {
            for src in [0, nodes - 1, NodeId::MAX] {
                assert!(
                    index.edges_from(EdgeTypeId(t), src).is_empty(),
                    "{t}, {src}"
                );
            }
        }
        // An edited edge list may name a source past the node store: its
        // run is still found, and the ids between are empty runs.
        let mut edited = g.clone();
        edited.edges_of_type_mut(EdgeTypeId(1)).push(nodes + 2, 3);
        let index = EdgeIndex::new(&edited);
        assert_eq!(
            index.edges_from(EdgeTypeId(1), nodes + 2),
            [(1, nodes + 2, 3)]
        );
        assert!(index.edges_from(EdgeTypeId(1), nodes).is_empty());
        assert!(index.edges_from(EdgeTypeId(0), nodes + 3).is_empty());
        assert_eq!(index.edges_from(EdgeTypeId(0), 0), [(0, 0, 4)]);
    }

    /// The comparison-sorted index the counting sort must equal: every
    /// triple sorted, run lengths counted one slot ahead and prefix-summed.
    fn sorted_reference(graph: &HeteroGraph) -> (Vec<(u16, NodeId, NodeId)>, Vec<u32>, usize) {
        let mut edges = Vec::new();
        for t in graph.schema().edge_type_ids() {
            edges.extend(graph.edges_of_type(t).iter().map(|(s, d)| (t.0, s, d)));
        }
        edges.sort_unstable();
        let max_src = edges.iter().map(|&(_, s, _)| s as usize + 1).max();
        let nodes = graph.num_nodes().max(max_src.unwrap_or(0));
        let mut offsets = vec![0u32; graph.schema().num_edge_types() * nodes + 1];
        for &(t, s, _) in &edges {
            offsets[usize::from(t) * nodes + s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        (edges, offsets, nodes)
    }

    /// Random multigraphs over `bipartite`'s schema — repeated edges, an
    /// edge type left empty, sources past the node store — index exactly as
    /// the comparison sort does.
    #[test]
    fn counting_sort_matches_the_sorted_reference() {
        use rand::Rng;
        let base = bipartite();
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..200 {
            let mut g = crate::graph::tests::edgeless(base.nodes().clone());
            let empty = rng.gen_range(0..3u16);
            for t in (0..2).filter(|&t| t != empty) {
                let list = g.edges_of_type_mut(EdgeTypeId(t));
                for _ in 0..rng.gen_range(0..40) {
                    // Ids up to 13 on a 10-node store; a small range makes
                    // repeats common.
                    let (s, d) = (rng.gen_range(0..14), rng.gen_range(0..14));
                    list.push(s, d);
                    if rng.gen_range(0..6) == 0 {
                        list.push(s, d);
                    }
                }
            }
            let index = EdgeIndex::new(&g);
            let (edges, offsets, nodes) = sorted_reference(&g);
            assert_eq!(index.edges.to_vec(), edges, "case {case}: edges");
            assert_eq!(index.offsets.to_vec(), offsets, "case {case}: offsets");
            assert_eq!(index.nodes, nodes, "case {case}: sources");
        }
    }

    #[test]
    fn all_positives_enumerates_every_edge() {
        let g = bipartite();
        let sampler = LinkSampler::new(&g);
        let pos = sampler.all_positives();
        assert_eq!(pos.len(), 4);
        assert!(pos.iter().all(|p| p.label));
    }

    #[test]
    fn positives_of_types_filters() {
        let g = bipartite();
        let sampler = LinkSampler::new(&g);
        let pos = sampler.positives_of_types(&[EdgeTypeId(1)]);
        assert_eq!(pos.len(), 1);
        assert_eq!(pos[0].etype, EdgeTypeId(1));
    }

    #[test]
    fn with_negatives_interleaves_correct_ratio() {
        let g = bipartite();
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let pos = sampler.all_positives();
        let examples = sampler.with_negatives(&pos, 3, &mut rng);
        assert_eq!(examples.len(), 4 * 4);
        let n_pos = examples.iter().filter(|e| e.label).count();
        assert_eq!(n_pos, 4);
    }

    #[test]
    fn batches_cover_all_examples() {
        let g = bipartite();
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let pos = sampler.all_positives();
        let mut examples = sampler.with_negatives(&pos, 1, &mut rng);
        let total = examples.len();
        let batches = LinkSampler::batches(&mut examples, 3, &mut rng);
        assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), total);
        assert!(batches.iter().all(|b| b.len() <= 3));
    }

    /// Four edge types over `na` type-a and `nb` type-b nodes — "ab" and "ab2"
    /// (both a→b, so they share sources), a symmetric "aa" and a "ba" that
    /// never holds an edge — from index pairs taken modulo the node counts;
    /// repeated pairs are multi-edges. With `saturate`, a-node 0 is
    /// "ab"-adjacent to *every* b-node, so all 32 rejection draws for it fail
    /// and the unchecked fallback fires.
    fn typed_graph(
        na: usize,
        nb: usize,
        pairs: [&[(usize, usize)]; 3],
        saturate: bool,
    ) -> HeteroGraph {
        let mut s = Schema::new();
        let a = s.add_node_type("a", 1);
        let b = s.add_node_type("b", 1);
        s.add_edge_type("ab", a, b, false);
        s.add_edge_type("aa", a, a, true);
        s.add_edge_type("ab2", a, b, false);
        s.add_edge_type("ba", b, a, false);
        let store = Arc::new(NodeStore::new(
            s,
            &[na, nb],
            vec![vec![0.0; na], vec![0.0; nb]],
        ));
        // type-a nodes are global 0..na, type-b nodes na..na+nb.
        let dst_base = [na, 0, na];
        let dst_count = [nb, na, nb];
        let mut lists = vec![EdgeList::new(); 4];
        for (t, list) in lists.iter_mut().take(3).enumerate() {
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
    /// looked up in the whole edge index through `contains`.
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
                let dst =
                    accepted.unwrap_or_else(|| candidates[rng.gen_range(0..candidates.len())]);
                out.push(LinkExample {
                    dst,
                    label: false,
                    ..p
                });
            }
        }
        out
    }

    proptest! {
        /// Rejecting against one source's edges draws what rejecting against the
        /// whole index drew: the same examples from the same RNG draws.
        #[test]
        fn negatives_match_the_whole_index_reference(
            na in 1usize..5, nb in 1usize..5,
            ab in prop::collection::vec((0usize..8, 0usize..8), 0..12),
            aa in prop::collection::vec((0usize..8, 0usize..8), 0..12),
            ab2 in prop::collection::vec((0usize..8, 0usize..8), 0..12),
            edits in prop::collection::vec((0u16..3, 0usize..16, 0usize..16), 0..6),
            saturate in any::<bool>(),
            negatives in 0usize..4,
            seed in any::<u64>(),
        ) {
            let mut g = typed_graph(na, nb, [&ab, &aa, &ab2], saturate);
            // Edges added after construction skip `from_edges`' type checks:
            // sources and destinations of either node type, the highest node id
            // as a source, and a repeat of an edge already there. "ba" stays
            // empty.
            let n = na + nb;
            let last = (n - 1) as u32;
            for &(t, src, dst) in &edits {
                g.edges_of_type_mut(EdgeTypeId(t)).push((src % n) as u32, (dst % n) as u32);
            }
            g.edges_of_type_mut(EdgeTypeId(2)).push(last, 0);
            if let Some(&(t, src, dst)) = edits.first() {
                g.edges_of_type_mut(EdgeTypeId(t)).push((src % n) as u32, (dst % n) as u32);
            }
            let index = EdgeIndex::new(&g);
            let sampler = LinkSampler::with_index(&g, index.clone());
            // Every edge, then every (edge type, node) pair whether or not the
            // node has such an edge: sources with no out-edges and sources of
            // the other node type are queried.
            let mut positives = sampler.all_positives();
            for etype in g.schema().edge_type_ids() {
                let dst_type = g.schema().edge_type(etype).dst_type;
                let dst = g.nodes().nodes_of_type(dst_type)[0];
                positives.extend((0..n as u32).map(|src| LinkExample { src, dst, etype, label: true }));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            let got = sampler.with_negatives(&positives, negatives, &mut rng);
            let expect =
                reference_with_negatives(&g, &index, &positives, negatives, &mut reference_rng);
            prop_assert_eq!(got, expect);
            prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG states differ");
        }
    }
}
