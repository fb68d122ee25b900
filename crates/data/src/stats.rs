//! Dataset statistics — the numbers Table 1 of the paper reports, computed
//! from any [`HeteroGraph`].

use fedda_hetgraph::HeteroGraph;

/// Summary statistics of a heterograph (Table 1 columns).
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Dataset label.
    pub name: String,
    /// Total node count.
    pub num_nodes: usize,
    /// Number of node types.
    pub num_node_types: usize,
    /// Total edge count.
    pub num_edges: usize,
    /// Number of edge types.
    pub num_edge_types: usize,
    /// Density `|E| / (|V| (|V|-1))`, in percent (paper convention).
    pub density_pct: f64,
    /// Per-edge-type edge counts.
    pub edges_per_type: Vec<usize>,
}

impl DatasetStats {
    /// Compute the statistics of a graph.
    pub fn compute(name: impl Into<String>, graph: &HeteroGraph) -> Self {
        Self {
            name: name.into(),
            num_nodes: graph.num_nodes(),
            num_node_types: graph.schema().num_node_types(),
            num_edges: graph.num_edges(),
            num_edge_types: graph.schema().num_edge_types(),
            density_pct: graph.density() * 100.0,
            edges_per_type: graph.edge_counts(),
        }
    }

    /// Render one row in the paper's Table 1 layout.
    pub fn table_row(&self) -> String {
        format!(
            "{:<10} {:>9} {:>11} {:>11} {:>11} {:>9.2}%",
            self.name,
            self.num_nodes,
            self.num_node_types,
            self.num_edges,
            self.num_edge_types,
            self.density_pct
        )
    }

    /// Header matching [`DatasetStats::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<10} {:>9} {:>11} {:>11} {:>11} {:>10}",
            "Dataset", "#Nodes", "#NodeTypes", "#Edges", "#EdgeTypes", "Density"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{amazon_like, PresetOptions};

    #[test]
    fn stats_reflect_generated_graph() {
        let g = amazon_like(&PresetOptions {
            scale: 0.01,
            seed: 4,
        })
        .graph;
        let s = DatasetStats::compute("Amazon", &g);
        assert_eq!(s.num_nodes, g.num_nodes());
        assert_eq!(s.num_node_types, 1);
        assert_eq!(s.num_edge_types, 2);
        assert_eq!(s.edges_per_type.iter().sum::<usize>(), s.num_edges);
        assert!(s.density_pct > 0.0);
    }

    #[test]
    fn table_row_is_aligned_with_header() {
        let g = amazon_like(&PresetOptions {
            scale: 0.01,
            seed: 4,
        })
        .graph;
        let s = DatasetStats::compute("Amazon", &g);
        let header = DatasetStats::table_header();
        let row = s.table_row();
        assert!(header.starts_with("Dataset"));
        assert!(row.starts_with("Amazon"));
    }
}
