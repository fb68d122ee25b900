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

/// The existing edges of one graph as sorted `(etype, src, dst)` triples —
/// the negative-rejection index of a [`LinkSampler`]. Immutable and cheap
/// to clone, so a long-lived owner of the graph builds it once and hands
/// it to the short-lived samplers it creates ([`LinkSampler::with_index`]).
#[derive(Clone, Debug)]
pub struct EdgeIndex(Arc<[(u16, NodeId, NodeId)]>);

impl EdgeIndex {
    /// Index every edge of `graph`.
    pub fn new(graph: &HeteroGraph) -> Self {
        let mut edges = Vec::with_capacity(graph.num_edges());
        for t in graph.schema().edge_type_ids() {
            edges.extend(graph.edges_of_type(t).iter().map(|(s, d)| (t.0, s, d)));
        }
        edges.sort_unstable();
        Self(edges.into())
    }

    /// Whether `src → dst` exists as an edge of type `etype`.
    pub fn contains(&self, etype: EdgeTypeId, src: NodeId, dst: NodeId) -> bool {
        self.0.binary_search(&(etype.0, src, dst)).is_ok()
    }

    /// The `etype` edges leaving `src`: the index's run of `(etype, src, _)`
    /// triples, destinations ascending (a multi-edge repeats). Empty when
    /// `src` has no such edge.
    fn edges_from(&self, etype: EdgeTypeId, src: NodeId) -> &[(u16, NodeId, NodeId)] {
        let key = (etype.0, src);
        let lo = self.0.partition_point(|&(t, s, _)| (t, s) < key);
        let rest = &self.0[lo..];
        // A source has a handful of edges: double a bound past the run's end
        // before bisecting, instead of bisecting the rest of the index.
        let mut bound = 1;
        while bound < rest.len() && (rest[bound].0, rest[bound].1) == key {
            bound *= 2;
        }
        let rest = &rest[..bound.min(rest.len())];
        &rest[..rest.partition_point(|&(t, s, _)| (t, s) == key)]
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

    /// Sample one negative for a positive edge by corrupting its destination
    /// with a random node of the same type. Falls back to an unchecked
    /// corruption after a bounded number of rejections (dense tiny graphs).
    pub fn corrupt_dst<R: Rng + ?Sized>(
        &self,
        etype: EdgeTypeId,
        src: NodeId,
        rng: &mut R,
    ) -> NodeId {
        self.corruptor(etype, src).draw(rng)
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
        assert!(batch_size > 0, "batch_size must be positive");
        examples.shuffle(rng);
        examples.chunks(batch_size).map(|c| c.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeList, NodeStore};
    use crate::schema::Schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
            let d = sampler.corrupt_dst(EdgeTypeId(0), 0, &mut rng);
            assert!((4..10).contains(&d), "negative {d} is not a type-b node");
            assert_ne!(d, 4, "existing edge (0,4) must be rejected");
        }
        for _ in 0..50 {
            let d = sampler.corrupt_dst(EdgeTypeId(1), 0, &mut rng);
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

        let empty = EdgeIndex(Vec::new().into());
        assert!(empty.edges_from(EdgeTypeId(0), 0).is_empty());
        assert!(!empty.contains(EdgeTypeId(0), 0, 0));
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
}
