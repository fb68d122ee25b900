//! Precomputed message-passing view of a heterograph.
//!
//! The encoder runs many forward passes over the same topology (every local
//! epoch of every round), so the flattened edge arrays, softmax segments and
//! per-type feature matrices are computed once per client graph and shared
//! via `Arc` with every tape.

use fedda_hetgraph::HeteroGraph;
use fedda_tensor::{Matrix, Segments};
use std::sync::Arc;

/// Immutable, tape-ready view of one heterograph.
pub struct GraphView {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Source node of each message edge.
    pub src: Arc<Vec<u32>>,
    /// Destination node of each message edge.
    pub dst: Arc<Vec<u32>>,
    /// Edge type of each message edge (self-loops use the pseudo type).
    pub(crate) etype: Arc<Vec<u32>>,
    /// Softmax segments: one segment per destination node.
    pub segments: Arc<Segments>,
    /// Number of message edge types (real types + self-loop pseudo type).
    pub(crate) num_message_types: usize,
    /// Per node type: raw feature matrix `[count_t, feat_dim_t]`.
    pub type_features: Vec<Matrix>,
    /// Per node type: global ids of its nodes (row order of
    /// `type_features`).
    pub type_global_ids: Vec<Arc<Vec<u32>>>,
}

impl GraphView {
    /// Build the view for a graph.
    ///
    /// # Panics
    /// Panics if the graph has no message edges (an encoder over an
    /// edgeless graph is degenerate; enable self-loops to avoid this).
    pub fn new(graph: &HeteroGraph, add_self_loops: bool) -> Self {
        let me = graph.message_edges(add_self_loops);
        assert!(!me.is_empty(), "GraphView: graph has no message edges");
        let num_nodes = graph.num_nodes();
        let segments = Arc::new(Segments::new(me.dst.clone(), num_nodes));
        let schema = graph.schema();
        let mut type_features = Vec::with_capacity(schema.num_node_types());
        let mut type_global_ids = Vec::with_capacity(schema.num_node_types());
        for t in schema.node_type_ids() {
            let d = schema.node_type(t).feat_dim;
            let count = graph.nodes().num_nodes_of_type(t);
            type_features.push(Matrix::from_vec(
                count,
                d,
                graph.nodes().features_of_type(t).to_vec(),
            ));
            type_global_ids.push(Arc::new(graph.nodes().nodes_of_type(t).to_vec()));
        }
        Self {
            num_nodes,
            src: Arc::new(me.src),
            dst: Arc::new(me.dst),
            etype: Arc::new(me.etype),
            segments,
            num_message_types: me.num_message_types,
            type_features,
            type_global_ids,
        }
    }

    /// Number of message edges.
    pub fn num_messages(&self) -> usize {
        self.src.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedda_data::{amazon_like, PresetOptions};

    #[test]
    fn view_matches_graph() {
        let g = amazon_like(&PresetOptions {
            scale: 0.01,
            seed: 2,
        })
        .graph;
        let view = GraphView::new(&g, true);
        assert_eq!(view.num_nodes, g.num_nodes());
        assert_eq!(view.type_features.len(), 1);
        assert_eq!(view.num_message_types, 3);
        // symmetric types are mirrored + self loops
        assert!(view.num_messages() > g.num_edges());
        assert_eq!(view.src.len(), view.dst.len());
        assert_eq!(view.src.len(), view.etype.len());
    }

    #[test]
    fn self_loops_can_be_disabled() {
        let g = amazon_like(&PresetOptions {
            scale: 0.01,
            seed: 2,
        })
        .graph;
        let with = GraphView::new(&g, true);
        let without = GraphView::new(&g, false);
        assert_eq!(with.num_messages(), without.num_messages() + g.num_nodes());
        assert_eq!(without.num_message_types, 2);
    }
}
