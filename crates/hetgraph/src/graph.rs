//! The heterograph container: typed nodes with per-type features and typed
//! edge lists, plus the flattened message-passing views the GNN layer
//! consumes.

use crate::schema::{EdgeTypeId, NodeTypeId, Schema};
use std::sync::Arc;

/// Global node index within a [`NodeStore`].
pub type NodeId = u32;

/// Immutable node universe: types and features. Shared (via `Arc`) between
/// the global graph and every client sub-heterograph so node identities stay
/// aligned across the federation without copying features.
#[derive(Debug, PartialEq)]
pub struct NodeStore {
    schema: Schema,
    /// Node type of each global node.
    node_type: Vec<NodeTypeId>,
    /// Row of each node inside its type's feature matrix.
    local_index: Vec<u32>,
    /// Per node type: flat row-major features `[count_t, feat_dim_t]`.
    features: Vec<Vec<f32>>,
    /// Per node type: global ids in local order.
    nodes_of_type: Vec<Vec<NodeId>>,
}

impl NodeStore {
    /// Build a node store from per-type node counts and features.
    ///
    /// `features[t]` must have length `counts[t] * schema.node_type(t).feat_dim`.
    pub fn new(schema: Schema, counts: &[usize], features: Vec<Vec<f32>>) -> Self {
        assert_eq!(
            counts.len(),
            schema.num_node_types(),
            "counts per node type"
        );
        assert_eq!(
            features.len(),
            schema.num_node_types(),
            "features per node type"
        );
        for (t, (&c, f)) in counts.iter().zip(&features).enumerate() {
            let d = schema.node_type(NodeTypeId(t as u16)).feat_dim;
            assert_eq!(f.len(), c * d, "feature length for node type {t}");
        }
        let total: usize = counts.iter().sum();
        let mut node_type = Vec::with_capacity(total);
        let mut local_index = Vec::with_capacity(total);
        let mut nodes_of_type: Vec<Vec<NodeId>> = vec![Vec::new(); counts.len()];
        for (t, &c) in counts.iter().enumerate() {
            for i in 0..c {
                let gid = node_type.len() as NodeId;
                node_type.push(NodeTypeId(t as u16));
                local_index.push(i as u32);
                nodes_of_type[t].push(gid);
            }
        }
        Self {
            schema,
            node_type,
            local_index,
            features,
            nodes_of_type,
        }
    }

    /// The schema this store instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total node count across all types.
    pub fn num_nodes(&self) -> usize {
        self.node_type.len()
    }

    /// Node count of one type.
    pub fn num_nodes_of_type(&self, t: NodeTypeId) -> usize {
        self.nodes_of_type[t.index()].len()
    }

    /// Type of a node.
    pub fn type_of(&self, v: NodeId) -> NodeTypeId {
        self.node_type[v as usize]
    }

    /// Row index of `v` within its type's feature matrix.
    pub fn local_index(&self, v: NodeId) -> u32 {
        self.local_index[v as usize]
    }

    /// Global ids of all nodes of a type, in local order.
    pub fn nodes_of_type(&self, t: NodeTypeId) -> &[NodeId] {
        &self.nodes_of_type[t.index()]
    }

    /// Flat row-major feature matrix of one node type.
    pub fn features_of_type(&self, t: NodeTypeId) -> &[f32] {
        &self.features[t.index()]
    }

    /// Feature vector of a single node.
    pub fn features_of(&self, v: NodeId) -> &[f32] {
        let t = self.type_of(v);
        let d = self.schema.node_type(t).feat_dim;
        let li = self.local_index(v) as usize;
        &self.features[t.index()][li * d..(li + 1) * d]
    }
}

/// A typed edge list: parallel `src`/`dst` arrays for one edge type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeList {
    /// Source endpoints.
    pub src: Vec<NodeId>,
    /// Destination endpoints.
    pub dst: Vec<NodeId>,
}

impl EdgeList {
    /// Empty edge list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Append one edge.
    pub fn push(&mut self, src: NodeId, dst: NodeId) {
        self.src.push(src);
        self.dst.push(dst);
    }

    /// Iterate `(src, dst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.src.iter().copied().zip(self.dst.iter().copied())
    }
}

/// A heterogeneous graph: a shared node universe plus per-edge-type edge
/// lists. Client sub-heterographs are `HeteroGraph`s over the same
/// [`NodeStore`] with different (typically overlapping) edge subsets.
///
/// Two graphs are equal when they hold the same edges, type by type and in
/// the same order, over the same node universe — the same `Arc`, or, failing
/// that, stores of equal content.
#[derive(Clone, Debug)]
pub struct HeteroGraph {
    nodes: Arc<NodeStore>,
    edges: Vec<EdgeList>,
}

impl PartialEq for HeteroGraph {
    fn eq(&self, other: &Self) -> bool {
        // Edge lists first: they are what differs between sub-heterographs
        // of one federation, and the store's content is only read when two
        // graphs were built over separate universes.
        self.edges == other.edges
            && (Arc::ptr_eq(&self.nodes, &other.nodes) || *self.nodes == *other.nodes)
    }
}

impl HeteroGraph {
    /// An edgeless graph over a node universe.
    pub fn new(nodes: Arc<NodeStore>) -> Self {
        let n = nodes.schema().num_edge_types();
        Self {
            nodes,
            edges: vec![EdgeList::new(); n],
        }
    }

    /// Build from explicit per-type edge lists.
    ///
    /// # Panics
    /// Panics if the edge-list count does not match the schema, an endpoint
    /// is out of range, or an endpoint's node type violates the edge type's
    /// signature.
    pub fn from_edges(nodes: Arc<NodeStore>, edges: Vec<EdgeList>) -> Self {
        assert_eq!(
            edges.len(),
            nodes.schema().num_edge_types(),
            "edge list per edge type"
        );
        let n = nodes.num_nodes() as NodeId;
        for (t, list) in edges.iter().enumerate() {
            let et = nodes.schema().edge_type(EdgeTypeId(t as u16));
            for (s, d) in list.iter() {
                assert!(s < n && d < n, "edge endpoint out of range");
                assert_eq!(
                    nodes.type_of(s),
                    et.src_type,
                    "src type mismatch for edge type {t}"
                );
                assert_eq!(
                    nodes.type_of(d),
                    et.dst_type,
                    "dst type mismatch for edge type {t}"
                );
            }
        }
        Self { nodes, edges }
    }

    /// The shared node universe.
    pub fn nodes(&self) -> &Arc<NodeStore> {
        &self.nodes
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.nodes.schema()
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.num_nodes()
    }

    /// Total edge count across types.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }

    /// Edges of one type.
    pub fn edges_of_type(&self, t: EdgeTypeId) -> &EdgeList {
        &self.edges[t.index()]
    }

    /// Mutable edges of one type.
    pub fn edges_of_type_mut(&mut self, t: EdgeTypeId) -> &mut EdgeList {
        &mut self.edges[t.index()]
    }

    /// Per-type edge counts.
    pub fn edge_counts(&self) -> Vec<usize> {
        self.edges.iter().map(|e| e.len()).collect()
    }

    /// The edge-type distribution `P(ψ(e) | e ∈ E)` — the quantity whose
    /// divergence across clients defines the paper's non-IID setting.
    pub fn edge_type_distribution(&self) -> Vec<f64> {
        let total = self.num_edges();
        if total == 0 {
            return vec![0.0; self.edges.len()];
        }
        self.edges
            .iter()
            .map(|e| e.len() as f64 / total as f64)
            .collect()
    }

    /// Graph density `|E| / (|V| * (|V| - 1))` (directed convention).
    pub fn density(&self) -> f64 {
        let n = self.num_nodes() as f64;
        if n < 2.0 {
            return 0.0;
        }
        self.num_edges() as f64 / (n * (n - 1.0))
    }

    /// Build the flattened message-passing view used by GNN layers: edge
    /// arrays `(src, dst, etype)` where symmetric edge types contribute both
    /// directions and, optionally, every node gets a self-loop with a
    /// dedicated pseudo edge type `num_edge_types()`.
    pub fn message_edges(&self, add_self_loops: bool) -> MessageEdges {
        let mut cap = 0;
        for (t, list) in self.edges.iter().enumerate() {
            let sym = self.schema().edge_type(EdgeTypeId(t as u16)).symmetric;
            cap += list.len() * if sym { 2 } else { 1 };
        }
        if add_self_loops {
            cap += self.num_nodes();
        }
        let mut src = Vec::with_capacity(cap);
        let mut dst = Vec::with_capacity(cap);
        let mut etype = Vec::with_capacity(cap);
        for (t, list) in self.edges.iter().enumerate() {
            let sym = self.schema().edge_type(EdgeTypeId(t as u16)).symmetric;
            for (s, d) in list.iter() {
                src.push(s);
                dst.push(d);
                etype.push(t as u32);
                if sym && s != d {
                    src.push(d);
                    dst.push(s);
                    etype.push(t as u32);
                }
            }
        }
        let self_loop_type = self.schema().num_edge_types() as u32;
        if add_self_loops {
            for v in 0..self.num_nodes() as NodeId {
                src.push(v);
                dst.push(v);
                etype.push(self_loop_type);
            }
        }
        MessageEdges {
            src,
            dst,
            etype,
            num_message_types: self_loop_type as usize + usize::from(add_self_loops),
        }
    }

    /// In-degree of each node under the message-passing view (used by tests
    /// and samplers).
    pub fn message_in_degrees(&self, add_self_loops: bool) -> Vec<u32> {
        let me = self.message_edges(add_self_loops);
        let mut deg = vec![0u32; self.num_nodes()];
        for &d in &me.dst {
            deg[d as usize] += 1;
        }
        deg
    }
}

/// Flattened edge arrays for message passing.
#[derive(Clone, Debug)]
pub struct MessageEdges {
    /// Source node of each message.
    pub src: Vec<NodeId>,
    /// Destination node of each message.
    pub dst: Vec<NodeId>,
    /// Edge type of each message (self-loops use `num_edge_types()` as a
    /// pseudo type).
    pub etype: Vec<u32>,
    /// Number of distinct message edge types including the self-loop type.
    pub num_message_types: usize,
}

impl MessageEdges {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when there are no messages.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_store() -> Arc<NodeStore> {
        let mut s = Schema::new();
        let a = s.add_node_type("a", 2);
        let b = s.add_node_type("b", 3);
        s.add_edge_type("a-b", a, b, false);
        s.add_edge_type("a-a", a, a, true);
        // 3 type-a nodes (global 0..3), 2 type-b nodes (global 3..5)
        let feats_a = vec![0.0; 3 * 2];
        let feats_b = vec![0.0; 2 * 3];
        Arc::new(NodeStore::new(s, &[3, 2], vec![feats_a, feats_b]))
    }

    #[test]
    fn node_store_indexing() {
        let ns = tiny_store();
        assert_eq!(ns.num_nodes(), 5);
        assert_eq!(ns.type_of(0), NodeTypeId(0));
        assert_eq!(ns.type_of(4), NodeTypeId(1));
        assert_eq!(ns.local_index(4), 1);
        assert_eq!(ns.nodes_of_type(NodeTypeId(1)), &[3, 4]);
        assert_eq!(ns.features_of(3).len(), 3);
    }

    #[test]
    fn graph_edge_accounting() {
        let ns = tiny_store();
        let mut g = HeteroGraph::new(ns);
        g.edges_of_type_mut(EdgeTypeId(0)).push(0, 3);
        g.edges_of_type_mut(EdgeTypeId(0)).push(1, 4);
        g.edges_of_type_mut(EdgeTypeId(1)).push(0, 2);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_counts(), vec![2, 1]);
        let dist = g.edge_type_distribution();
        assert!((dist[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((dist[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn message_edges_mirror_symmetric_types_and_add_self_loops() {
        let ns = tiny_store();
        let mut g = HeteroGraph::new(ns);
        g.edges_of_type_mut(EdgeTypeId(0)).push(0, 3); // directed
        g.edges_of_type_mut(EdgeTypeId(1)).push(0, 2); // symmetric
        let me = g.message_edges(true);
        // 1 directed + 2 mirrored + 5 self-loops
        assert_eq!(me.len(), 1 + 2 + 5);
        assert_eq!(me.num_message_types, 3);
        // the mirrored copy exists
        assert!(me
            .src
            .iter()
            .zip(&me.dst)
            .zip(&me.etype)
            .any(|((&s, &d), &t)| s == 2 && d == 0 && t == 1));
        // self-loops use the pseudo type
        let loops = me.etype.iter().filter(|&&t| t == 2).count();
        assert_eq!(loops, 5);
    }

    #[test]
    fn symmetric_self_edge_not_double_mirrored() {
        let ns = tiny_store();
        let mut g = HeteroGraph::new(ns);
        g.edges_of_type_mut(EdgeTypeId(1)).push(1, 1);
        let me = g.message_edges(false);
        assert_eq!(me.len(), 1);
    }

    #[test]
    fn equality_is_edges_by_content_and_store_by_pointer_then_content() {
        let ns = tiny_store();
        let mut g = HeteroGraph::new(Arc::clone(&ns));
        g.edges_of_type_mut(EdgeTypeId(0)).push(0, 3);
        g.edges_of_type_mut(EdgeTypeId(1)).push(0, 2);
        assert_eq!(g, g.clone());
        // A separately built store of equal content is the same universe.
        let rebuilt = HeteroGraph::from_edges(tiny_store(), g.edges.clone());
        assert!(!Arc::ptr_eq(g.nodes(), rebuilt.nodes()));
        assert_eq!(g, rebuilt);
        // One more edge, one edge elsewhere, the same edges in another order.
        let mut extra = g.clone();
        extra.edges_of_type_mut(EdgeTypeId(1)).push(1, 2);
        assert_ne!(g, extra);
        let mut moved = g.clone();
        moved.edges_of_type_mut(EdgeTypeId(0)).dst[0] = 4;
        assert_ne!(g, moved);
        let mut reordered = extra.clone();
        reordered.edges_of_type_mut(EdgeTypeId(1)).src.swap(0, 1);
        assert_ne!(extra, reordered);
        // The same edges over a universe with other features.
        let other_store = Arc::new(NodeStore::new(
            ns.schema().clone(),
            &[3, 2],
            vec![vec![1.0; 3 * 2], vec![0.0; 2 * 3]],
        ));
        assert_ne!(g, HeteroGraph::from_edges(other_store, g.edges.clone()));
    }

    #[test]
    fn from_edges_validates_types() {
        let ns = tiny_store();
        let mut lists = vec![EdgeList::new(), EdgeList::new()];
        lists[0].push(0, 3);
        let g = HeteroGraph::from_edges(ns, lists);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "dst type mismatch")]
    fn from_edges_rejects_signature_violation() {
        let ns = tiny_store();
        let mut lists = vec![EdgeList::new(), EdgeList::new()];
        lists[0].push(0, 1); // a-b edge pointing at a type-a node
        let _ = HeteroGraph::from_edges(ns, lists);
    }

    #[test]
    fn degrees_count_incoming_messages() {
        let ns = tiny_store();
        let mut g = HeteroGraph::new(ns);
        g.edges_of_type_mut(EdgeTypeId(0)).push(0, 3);
        g.edges_of_type_mut(EdgeTypeId(0)).push(1, 3);
        let deg = g.message_in_degrees(false);
        assert_eq!(deg[3], 2);
        assert_eq!(deg[0], 0);
        let deg_loops = g.message_in_degrees(true);
        assert_eq!(deg_loops[3], 3);
        assert_eq!(deg_loops[0], 1);
    }

    #[test]
    fn density_of_empty_graph_is_zero() {
        let ns = tiny_store();
        let g = HeteroGraph::new(ns);
        assert_eq!(g.density(), 0.0);
    }
}
