//! Schema types for heterogeneous graphs: multi-typed nodes and links.
//!
//! Following the paper's formulation (§3), a heterograph
//! `H = {V, E, φ, ψ, X}` associates every node with a node type `φ(v)` and
//! every edge with an edge type `ψ(e)` determined by the types of its two
//! endpoints. The [`Schema`] is the static description of those type
//! universes; a [`crate::HeteroGraph`] instantiates it.

/// Index of a node type within a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeTypeId(pub u16);

/// Index of an edge type within a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeTypeId(pub u16);

impl NodeTypeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeTypeId {
    /// Raw index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static description of one node type.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeTypeMeta {
    /// Human-readable name, e.g. `"author"`.
    pub name: String,
    /// Dimensionality of this type's raw feature vectors (`d_{φ(v)}`).
    pub feat_dim: usize,
}

/// Static description of one edge type, tied to the node types at its two
/// ends. The paper restricts heterographs to at most one edge type per
/// ordered endpoint-type pair; we do not need that restriction and allow
/// several.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeTypeMeta {
    /// Human-readable name, e.g. `"co-purchase"`.
    pub name: String,
    /// Node type of the source endpoint.
    pub src_type: NodeTypeId,
    /// Node type of the destination endpoint.
    pub dst_type: NodeTypeId,
    /// Whether the relation is symmetric (co-view, co-author, …); symmetric
    /// relations get reverse copies when building message-passing edges.
    pub(crate) symmetric: bool,
}

/// The type universe of a heterograph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schema {
    node_types: Vec<NodeTypeMeta>,
    edge_types: Vec<EdgeTypeMeta>,
}

impl Schema {
    /// An empty schema; add types with [`Schema::add_node_type`] and
    /// [`Schema::add_edge_type`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a node type; returns its id.
    pub fn add_node_type(&mut self, name: impl Into<String>, feat_dim: usize) -> NodeTypeId {
        #[expect(
            clippy::expect_used,
            reason = "registration-time capacity bound; >65535 node types is a programming error, not a data condition"
        )]
        let id = NodeTypeId(u16::try_from(self.node_types.len()).expect("too many node types"));
        self.node_types.push(NodeTypeMeta {
            name: name.into(),
            feat_dim,
        });
        id
    }

    /// Register an edge type; returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint type is unknown.
    pub fn add_edge_type(
        &mut self,
        name: impl Into<String>,
        src_type: NodeTypeId,
        dst_type: NodeTypeId,
        symmetric: bool,
    ) -> EdgeTypeId {
        assert!(
            src_type.index() < self.node_types.len(),
            "unknown src node type"
        );
        assert!(
            dst_type.index() < self.node_types.len(),
            "unknown dst node type"
        );
        #[expect(
            clippy::expect_used,
            reason = "registration-time capacity bound; >65535 edge types is a programming error, not a data condition"
        )]
        let id = EdgeTypeId(u16::try_from(self.edge_types.len()).expect("too many edge types"));
        self.edge_types.push(EdgeTypeMeta {
            name: name.into(),
            src_type,
            dst_type,
            symmetric,
        });
        id
    }

    /// Number of node types.
    pub fn num_node_types(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edge types.
    pub fn num_edge_types(&self) -> usize {
        self.edge_types.len()
    }

    /// Metadata of a node type.
    pub fn node_type(&self, id: NodeTypeId) -> &NodeTypeMeta {
        &self.node_types[id.index()]
    }

    /// Metadata of an edge type.
    pub fn edge_type(&self, id: EdgeTypeId) -> &EdgeTypeMeta {
        &self.edge_types[id.index()]
    }

    /// All node type ids.
    pub fn node_type_ids(&self) -> impl Iterator<Item = NodeTypeId> {
        (0..self.node_types.len()).map(|i| NodeTypeId(i as u16))
    }

    /// All edge type ids.
    pub fn edge_type_ids(&self) -> impl Iterator<Item = EdgeTypeId> {
        (0..self.edge_types.len()).map(|i| EdgeTypeId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_clinic_like_schema() {
        let mut s = Schema::new();
        let patient = s.add_node_type("patient", 32);
        let drug = s.add_node_type("drug", 16);
        let prescribes = s.add_edge_type("prescribed", patient, drug, false);
        let knows = s.add_edge_type("interacts", patient, patient, true);
        assert_eq!(s.num_node_types(), 2);
        assert_eq!(s.num_edge_types(), 2);
        assert_eq!(s.node_type(patient).feat_dim, 32);
        assert_eq!(s.edge_type(prescribes).dst_type, drug);
        assert!(s.edge_type(knows).symmetric);
    }

    #[test]
    #[should_panic(expected = "unknown src node type")]
    fn edge_type_requires_known_endpoints() {
        let mut s = Schema::new();
        let a = s.add_node_type("a", 4);
        let _ = s.add_edge_type("bad", NodeTypeId(5), a, false);
    }
}
