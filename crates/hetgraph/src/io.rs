//! Heterograph (de)serialization.
//!
//! A [`GraphDoc`] is a self-contained, JSON-serializable snapshot of a
//! heterograph — schema, per-type node counts and features, and per-type
//! edge lists. It exists so synthesized federations can be saved, shipped
//! between machines, and reloaded bit-identically (the experiment harness
//! uses it to archive the exact graphs behind reported numbers).

use crate::graph::{EdgeList, HeteroGraph, NodeStore};
use crate::schema::{EdgeTypeId, NodeTypeId, Schema};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Serializable node-type description.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeTypeDoc {
    /// Type name.
    pub name: String,
    /// Feature dimensionality.
    pub feat_dim: usize,
    /// Number of nodes of this type.
    pub count: usize,
    /// Row-major features, `count × feat_dim`.
    pub features: Vec<f32>,
}

/// Serializable edge-type description with its edges.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeTypeDoc {
    /// Type name.
    pub name: String,
    /// Source node-type index.
    pub src_type: usize,
    /// Destination node-type index.
    pub dst_type: usize,
    /// Whether the relation is symmetric.
    pub symmetric: bool,
    /// Source endpoints (global node ids).
    pub src: Vec<u32>,
    /// Destination endpoints (global node ids).
    pub dst: Vec<u32>,
}

/// A self-contained heterograph snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphDoc {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Node types in schema order.
    pub node_types: Vec<NodeTypeDoc>,
    /// Edge types (with edges) in schema order.
    pub edge_types: Vec<EdgeTypeDoc>,
}

/// Pull a required field out of a JSON object.
fn req<'a>(
    v: &'a serde_json::Value,
    name: &str,
) -> Result<&'a serde_json::Value, serde_json::Error> {
    v.get(name)
        .ok_or_else(|| serde_json::Error::custom(format!("missing field `{name}`")))
}

// The workspace's `serde` shim has no derive macros, so the document types
// implement the (single-method) trait pair by hand.

impl Serialize for NodeTypeDoc {
    fn to_json_value(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("name".to_string(), self.name.to_json_value()),
            ("feat_dim".to_string(), self.feat_dim.to_json_value()),
            ("count".to_string(), self.count.to_json_value()),
            ("features".to_string(), self.features.to_json_value()),
        ])
    }
}

impl Deserialize for NodeTypeDoc {
    fn from_json_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(Self {
            name: Deserialize::from_json_value(req(v, "name")?)?,
            feat_dim: Deserialize::from_json_value(req(v, "feat_dim")?)?,
            count: Deserialize::from_json_value(req(v, "count")?)?,
            features: Deserialize::from_json_value(req(v, "features")?)?,
        })
    }
}

impl Serialize for EdgeTypeDoc {
    fn to_json_value(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("name".to_string(), self.name.to_json_value()),
            ("src_type".to_string(), self.src_type.to_json_value()),
            ("dst_type".to_string(), self.dst_type.to_json_value()),
            ("symmetric".to_string(), self.symmetric.to_json_value()),
            ("src".to_string(), self.src.to_json_value()),
            ("dst".to_string(), self.dst.to_json_value()),
        ])
    }
}

impl Deserialize for EdgeTypeDoc {
    fn from_json_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(Self {
            name: Deserialize::from_json_value(req(v, "name")?)?,
            src_type: Deserialize::from_json_value(req(v, "src_type")?)?,
            dst_type: Deserialize::from_json_value(req(v, "dst_type")?)?,
            symmetric: Deserialize::from_json_value(req(v, "symmetric")?)?,
            src: Deserialize::from_json_value(req(v, "src")?)?,
            dst: Deserialize::from_json_value(req(v, "dst")?)?,
        })
    }
}

impl Serialize for GraphDoc {
    fn to_json_value(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("version".to_string(), self.version.to_json_value()),
            ("node_types".to_string(), self.node_types.to_json_value()),
            ("edge_types".to_string(), self.edge_types.to_json_value()),
        ])
    }
}

impl Deserialize for GraphDoc {
    fn from_json_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(Self {
            version: Deserialize::from_json_value(req(v, "version")?)?,
            node_types: Deserialize::from_json_value(req(v, "node_types")?)?,
            edge_types: Deserialize::from_json_value(req(v, "edge_types")?)?,
        })
    }
}

/// How many more featureless nodes than edge endpoints a document may
/// declare (see [`GraphDoc::into_graph`]).
const FEATURELESS_SLACK: usize = 1 << 16;

/// Errors from loading a [`GraphDoc`].
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// JSON parse error.
    Json(serde_json::Error),
    /// Structurally invalid document.
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::Invalid(msg) => write!(f, "invalid graph document: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

impl GraphDoc {
    /// Current format version.
    pub const VERSION: u32 = 1;

    /// Snapshot a heterograph.
    pub fn from_graph(graph: &HeteroGraph) -> Self {
        let schema = graph.schema();
        let node_types = schema
            .node_type_ids()
            .map(|t| {
                let meta = schema.node_type(t);
                NodeTypeDoc {
                    name: meta.name.clone(),
                    feat_dim: meta.feat_dim,
                    count: graph.nodes().num_nodes_of_type(t),
                    features: graph.nodes().features_of_type(t).to_vec(),
                }
            })
            .collect();
        let edge_types = schema
            .edge_type_ids()
            .map(|t| {
                let meta = schema.edge_type(t);
                let list = graph.edges_of_type(t);
                EdgeTypeDoc {
                    name: meta.name.clone(),
                    src_type: meta.src_type.index(),
                    dst_type: meta.dst_type.index(),
                    symmetric: meta.symmetric,
                    src: list.src.clone(),
                    dst: list.dst.clone(),
                }
            })
            .collect();
        Self {
            version: Self::VERSION,
            node_types,
            edge_types,
        }
    }

    /// Rebuild the heterograph, or refuse a document whose version, counts,
    /// feature lengths, type indices or endpoints do not add up — the
    /// constructors underneath panic on those, so they are checked here.
    ///
    /// Every node the store is sized for must be backed by the document. A
    /// node of a featured type is backed by its `feat_dim` feature values
    /// (the length check). A node of a featureless type (`feat_dim: 0`) has
    /// no value of its own, so the featureless types together may declare at
    /// most as many nodes as the document lists edge endpoints, plus 65 536
    /// for isolated ones: `feat_dim: 0, count: 4000000000` is a few bytes of
    /// JSON that would otherwise size the node store in gigabytes.
    pub fn into_graph(self) -> Result<HeteroGraph, IoError> {
        if self.version != Self::VERSION {
            return Err(IoError::Invalid(format!(
                "unsupported version {} (expected {})",
                self.version,
                Self::VERSION
            )));
        }
        // Type ids are `u16` and node ids `u32`: a document past either
        // bound is refused here, before anything is sized from its counts.
        let max_types = usize::from(u16::MAX);
        if self.node_types.len() > max_types || self.edge_types.len() > max_types {
            return Err(IoError::Invalid(format!(
                "{} node types and {} edge types (at most {max_types} of each)",
                self.node_types.len(),
                self.edge_types.len()
            )));
        }
        let mut schema = Schema::new();
        let mut counts = Vec::with_capacity(self.node_types.len());
        let mut features = Vec::with_capacity(self.node_types.len());
        let mut total_nodes = 0usize;
        for nt in &self.node_types {
            if nt.count.checked_mul(nt.feat_dim) != Some(nt.features.len()) {
                return Err(IoError::Invalid(format!(
                    "node type '{}': {} feature values for {}x{}",
                    nt.name,
                    nt.features.len(),
                    nt.count,
                    nt.feat_dim
                )));
            }
            // JSON has no NaN, but `1e999` parses to infinity, and one
            // non-finite input poisons every score the model computes.
            if let Some(i) = nt.features.iter().position(|v| !v.is_finite()) {
                return Err(IoError::Invalid(format!(
                    "node type '{}': feature {i} is {} (features must be finite)",
                    nt.name, nt.features[i]
                )));
            }
            total_nodes = total_nodes.saturating_add(nt.count);
            schema.add_node_type(nt.name.clone(), nt.feat_dim);
            counts.push(nt.count);
        }
        if u32::try_from(total_nodes).is_err() {
            return Err(IoError::Invalid(format!(
                "{total_nodes} nodes (node ids are 32-bit, at most {})",
                u32::MAX
            )));
        }
        let featureless: usize = (self.node_types.iter())
            .filter(|nt| nt.feat_dim == 0)
            .map(|nt| nt.count)
            .sum();
        let endpoints = (self.edge_types.iter())
            .map(|et| et.src.len().saturating_add(et.dst.len()))
            .fold(0usize, usize::saturating_add);
        if featureless > endpoints.saturating_add(FEATURELESS_SLACK) {
            return Err(IoError::Invalid(format!(
                "{featureless} featureless nodes for {endpoints} edge endpoints \
                 (at most {FEATURELESS_SLACK} more than the endpoints)"
            )));
        }
        for nt in self.node_types {
            features.push(nt.features);
        }
        let n_node_types = counts.len();
        let mut lists = Vec::with_capacity(self.edge_types.len());
        for et in &self.edge_types {
            if et.src_type >= n_node_types || et.dst_type >= n_node_types {
                return Err(IoError::Invalid(format!(
                    "edge type '{}': endpoint type out of range",
                    et.name
                )));
            }
            if et.src.len() != et.dst.len() {
                return Err(IoError::Invalid(format!(
                    "edge type '{}': src/dst length mismatch",
                    et.name
                )));
            }
            schema.add_edge_type(
                et.name.clone(),
                NodeTypeId(et.src_type as u16),
                NodeTypeId(et.dst_type as u16),
                et.symmetric,
            );
            lists.push(EdgeList {
                src: et.src.clone(),
                dst: et.dst.clone(),
            });
        }
        let store = Arc::new(NodeStore::new(schema, &counts, features));
        // Range/type validation:
        let n = store.num_nodes() as u32;
        for (t, list) in lists.iter().enumerate() {
            for (s, d) in list.iter() {
                if s >= n || d >= n {
                    return Err(IoError::Invalid(format!(
                        "edge type {t}: endpoint out of range"
                    )));
                }
                let meta = store.schema().edge_type(EdgeTypeId(t as u16));
                if store.type_of(s) != meta.src_type || store.type_of(d) != meta.dst_type {
                    return Err(IoError::Invalid(format!(
                        "edge type {t}: endpoint node-type mismatch"
                    )));
                }
            }
        }
        Ok(HeteroGraph::from_edges(store, lists))
    }
}

/// Save a heterograph as pretty-printed JSON.
pub fn save_json(graph: &HeteroGraph, path: &Path) -> Result<(), IoError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let doc = GraphDoc::from_graph(graph);
    let file = std::fs::File::create(path)?;
    serde_json::to_writer(std::io::BufWriter::new(file), &doc)?;
    Ok(())
}

/// Load a heterograph from JSON.
pub fn load_json(path: &Path) -> Result<HeteroGraph, IoError> {
    let file = std::fs::File::open(path)?;
    let doc: GraphDoc = serde_json::from_reader(std::io::BufReader::new(file))?;
    doc.into_graph()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> HeteroGraph {
        let mut schema = Schema::new();
        let a = schema.add_node_type("a", 2);
        let b = schema.add_node_type("b", 1);
        schema.add_edge_type("ab", a, b, false);
        schema.add_edge_type("aa", a, a, true);
        let store = Arc::new(NodeStore::new(
            schema,
            &[3, 2],
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![7.0, 8.0]],
        ));
        let mut ab = EdgeList::new();
        ab.push(0, 3);
        ab.push(2, 4);
        let mut aa = EdgeList::new();
        aa.push(0, 1);
        HeteroGraph::from_edges(store, vec![ab, aa])
    }

    #[test]
    fn doc_roundtrip_preserves_everything() {
        let g = sample_graph();
        let doc = GraphDoc::from_graph(&g);
        let restored = doc.clone().into_graph().unwrap();
        assert_eq!(GraphDoc::from_graph(&restored), doc);
        assert_eq!(restored.num_nodes(), g.num_nodes());
        assert_eq!(restored.edge_counts(), g.edge_counts());
        assert_eq!(restored.nodes().features_of(1), g.nodes().features_of(1));
        assert_eq!(
            restored.schema().edge_type(EdgeTypeId(1)).symmetric,
            g.schema().edge_type(EdgeTypeId(1)).symmetric
        );
    }

    #[test]
    fn file_roundtrip() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join("fedda_hetgraph_io_test");
        let path = dir.join("graph.json");
        save_json(&g, &path).unwrap();
        let loaded = load_json(&path).unwrap();
        assert_eq!(GraphDoc::from_graph(&loaded), GraphDoc::from_graph(&g));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_documents_rejected() {
        let g = sample_graph();
        let mut doc = GraphDoc::from_graph(&g);
        doc.version = 99;
        assert!(matches!(doc.into_graph(), Err(IoError::Invalid(_))));

        let mut doc = GraphDoc::from_graph(&g);
        doc.node_types[0].features.pop();
        assert!(matches!(doc.into_graph(), Err(IoError::Invalid(_))));

        let mut doc = GraphDoc::from_graph(&g);
        doc.edge_types[0].src.push(999);
        doc.edge_types[0].dst.push(3);
        assert!(doc.into_graph().is_err());

        let mut doc = GraphDoc::from_graph(&g);
        doc.edge_types[0].src.push(0);
        assert!(matches!(doc.into_graph(), Err(IoError::Invalid(_))));
    }

    fn featureless(count: usize, feat_dim: usize) -> GraphDoc {
        GraphDoc {
            version: GraphDoc::VERSION,
            node_types: vec![NodeTypeDoc {
                name: "a".to_string(),
                feat_dim,
                count,
                features: Vec::new(),
            }],
            edge_types: Vec::new(),
        }
    }

    fn invalid_message(doc: GraphDoc) -> String {
        match doc.into_graph() {
            Err(IoError::Invalid(msg)) => msg,
            other => panic!("expected IoError::Invalid, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn node_count_beyond_node_ids_rejected_before_allocating() {
        // 4·10¹² featureless nodes: the length check passes (0 == 0) and
        // the node store would ask for terabytes.
        let msg = invalid_message(featureless(4_000_000_000_000, 0));
        assert!(msg.contains("4000000000000 nodes"), "{msg}");
        // The bound is on the sum, not on each type.
        let mut doc = featureless(u32::MAX as usize, 0);
        doc.node_types.push(doc.node_types[0].clone());
        assert!(invalid_message(doc).contains("8589934590 nodes"));
    }

    #[test]
    fn featureless_nodes_beyond_their_edges_rejected_before_allocating() {
        // Under the 32-bit id bound, yet no byte of the document backs them.
        let msg = invalid_message(featureless(4_000_000_000, 0));
        assert!(msg.contains("4000000000 featureless nodes"), "{msg}");
        // Isolated featureless nodes load up to the slack, and every edge
        // endpoint the document lists backs one more.
        assert!(featureless(FEATURELESS_SLACK, 0).into_graph().is_ok());
        invalid_message(featureless(FEATURELESS_SLACK + 1, 0));
        let mut doc = featureless(FEATURELESS_SLACK + 2, 0);
        doc.edge_types.push(EdgeTypeDoc {
            name: "aa".to_string(),
            src_type: 0,
            dst_type: 0,
            symmetric: false,
            src: vec![0],
            dst: vec![1],
        });
        assert!(doc.into_graph().is_ok());
        // Featured nodes are backed by their values and count for nothing.
        let mut doc = featureless(FEATURELESS_SLACK, 0);
        doc.node_types.push(NodeTypeDoc {
            name: "b".to_string(),
            feat_dim: 1,
            count: 3,
            features: vec![0.5; 3],
        });
        assert!(doc.into_graph().is_ok());
    }

    #[test]
    fn non_finite_features_rejected_before_building_the_store() {
        let mut doc = GraphDoc::from_graph(&sample_graph());
        doc.node_types[1].features[1] = f32::NEG_INFINITY;
        let msg = invalid_message(doc.clone());
        assert!(msg.contains("node type 'b': feature 1 is -inf"), "{msg}");
        doc.node_types[1].features[0] = f32::NAN;
        let msg = invalid_message(doc);
        assert!(msg.contains("node type 'b': feature 0 is NaN"), "{msg}");
        // The text form: `1e999` overflows to infinity on the way in.
        let json = r#"{"version":1,"node_types":[{"name":"a","feat_dim":2,"count":1,
            "features":[1e999,-1e999]}],"edge_types":[]}"#;
        let doc: GraphDoc = serde_json::from_str(json).unwrap();
        assert!(invalid_message(doc).contains("node type 'a': feature 0 is inf"));
    }

    #[test]
    fn wrapping_feature_size_rejected() {
        // 4 · 2⁶² wraps to 0 in 64 bits, which an empty feature list matches.
        let msg = invalid_message(featureless(4, 1 << (usize::BITS - 2)));
        assert!(msg.contains("0 feature values for 4x"), "{msg}");
        invalid_message(featureless(usize::MAX, usize::MAX));
    }

    #[test]
    fn more_types_than_type_ids_rejected() {
        let mut doc = featureless(0, 0);
        doc.node_types = vec![doc.node_types[0].clone(); usize::from(u16::MAX) + 1];
        assert!(invalid_message(doc).contains("65536 node types"));

        let mut doc = featureless(1, 0);
        let loop_type = EdgeTypeDoc {
            name: "aa".to_string(),
            src_type: 0,
            dst_type: 0,
            symmetric: false,
            src: Vec::new(),
            dst: Vec::new(),
        };
        doc.edge_types = vec![loop_type; usize::from(u16::MAX) + 1];
        assert!(invalid_message(doc).contains("65536 edge types"));
    }

    #[test]
    fn wrong_endpoint_type_rejected() {
        let g = sample_graph();
        let mut doc = GraphDoc::from_graph(&g);
        // ab edge pointing at a type-a node
        doc.edge_types[0].src.push(0);
        doc.edge_types[0].dst.push(1);
        assert!(doc.into_graph().is_err());
    }
}
