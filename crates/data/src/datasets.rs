//! Dataset presets mirroring the paper's two benchmarks (Table 1).
//!
//! | Dataset | #Nodes  | #Node types | #Edges    | #Edge types |
//! |---------|---------|-------------|-----------|-------------|
//! | Amazon  | 10,099  | 1           | 148,659   | 2           |
//! | DBLP    | 114,145 | 3           | 7,566,543 | 5           |
//!
//! The presets reproduce the schemas exactly and scale the sizes by a
//! `scale` factor so CPU-only experiments stay tractable; `scale = 1.0`
//! regenerates paper-sized graphs. Every node type has `FEAT_DIM` = 32
//! features, a reduced width (the paper's 1156-d / 300-d features are
//! projections of much lower-rank signal anyway).

use crate::latent::{generate, GeneratedGraph, LatentGraphConfig};
use fedda_hetgraph::Schema;

/// Observed feature dimensionality of every node type.
const FEAT_DIM: usize = 32;

/// Size knobs shared by the presets.
#[derive(Clone, Debug)]
pub struct PresetOptions {
    /// Multiplier on node and edge counts (1.0 = paper size).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PresetOptions {
    fn default() -> Self {
        Self {
            scale: 0.05,
            seed: 0,
        }
    }
}

fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// Amazon-like heterograph: a single `product` node type with symmetric
/// `co-view` and `co-purchase` relations (schema of the GATNE electronics
/// subset used by Simple-HGN and the paper).
pub fn amazon_like(opts: &PresetOptions) -> GeneratedGraph {
    let mut schema = Schema::new();
    let product = schema.add_node_type("product", FEAT_DIM);
    schema.add_edge_type("co-view", product, product, true);
    schema.add_edge_type("co-purchase", product, product, true);
    let nodes = scaled(10_099, opts.scale, 60);
    // Paper totals 148,659 edges over the two types; GATNE's electronics
    // subset is co-view-heavy, roughly 2:1.
    let e_view = scaled(99_106, opts.scale, 300);
    let e_purchase = scaled(49_553, opts.scale, 150);
    let cfg = LatentGraphConfig::new(schema, vec![nodes], vec![e_view, e_purchase]);
    generate(&cfg, opts.seed)
}

/// DBLP-like heterograph: `author`, `phrase`, `year` node types with five
/// relations (co-author, author–phrase, author–year, phrase–phrase,
/// phrase–year), matching the HNE-derived ICDE subgraph the paper uses
/// (3 node types, 5 edge types).
pub fn dblp_like(opts: &PresetOptions) -> GeneratedGraph {
    let mut schema = Schema::new();
    let author = schema.add_node_type("author", FEAT_DIM);
    let phrase = schema.add_node_type("phrase", FEAT_DIM);
    let year = schema.add_node_type("year", FEAT_DIM);
    schema.add_edge_type("co-author", author, author, true);
    schema.add_edge_type("author-phrase", author, phrase, false);
    schema.add_edge_type("author-year", author, year, false);
    schema.add_edge_type("phrase-phrase", phrase, phrase, true);
    schema.add_edge_type("phrase-year", phrase, year, false);
    // Node mix: authors and phrases dominate; years are few. We scale the
    // 114,145 total with a fixed mix and clamp years to a sane minimum.
    let authors = scaled(60_000, opts.scale, 40);
    let phrases = scaled(54_000, opts.scale, 40);
    let years = scaled(145, opts.scale, 10).min(60);
    // Edge mix summing to 7,566,543 at scale 1.0 (co-occurrence relations
    // dominate real DBLP-style graphs).
    let edges = [
        scaled(1_500_000, opts.scale, 200), // co-author
        scaled(2_800_000, opts.scale, 300), // author-phrase
        scaled(566_543, opts.scale, 120),   // author-year
        scaled(2_100_000, opts.scale, 250), // phrase-phrase
        scaled(600_000, opts.scale, 120),   // phrase-year
    ];
    let cfg = LatentGraphConfig::new(schema, vec![authors, phrases, years], edges.to_vec());
    generate(&cfg, opts.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedda_hetgraph::{EdgeTypeId, NodeTypeId};

    #[test]
    fn amazon_schema_matches_paper() {
        let opts = PresetOptions {
            scale: 0.01,
            ..Default::default()
        };
        let g = amazon_like(&opts).graph;
        assert_eq!(g.schema().num_node_types(), 1);
        assert_eq!(g.schema().num_edge_types(), 2);
        assert_eq!(g.schema().edge_type(EdgeTypeId(1)).name, "co-purchase");
        assert!(g.num_nodes() >= 60);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn dblp_schema_matches_paper() {
        let opts = PresetOptions {
            scale: 0.002,
            ..Default::default()
        };
        let g = dblp_like(&opts).graph;
        assert_eq!(g.schema().num_node_types(), 3);
        assert_eq!(g.schema().num_edge_types(), 5);
        assert_eq!(g.schema().node_type(NodeTypeId(0)).name, "author");
        assert_eq!(g.schema().edge_type(EdgeTypeId(0)).name, "co-author");
    }

    #[test]
    fn scale_one_matches_paper_counts() {
        // Don't generate at scale 1 (too big for a unit test); check the
        // arithmetic instead.
        assert_eq!(scaled(10_099, 1.0, 60), 10_099);
        assert_eq!(
            99_106 + 49_553,
            148_659,
            "Amazon edge mix must sum to the paper total"
        );
        assert_eq!(
            1_500_000 + 2_800_000 + 566_543 + 2_100_000 + 600_000,
            7_566_543,
            "DBLP edge mix must sum to the paper total"
        );
    }

    #[test]
    fn presets_are_seed_deterministic() {
        let opts = PresetOptions {
            scale: 0.005,
            seed: 42,
        };
        let a = amazon_like(&opts).graph;
        let b = amazon_like(&opts).graph;
        assert_eq!(a.edge_counts(), b.edge_counts());
        assert_eq!(
            a.edges_of_type(EdgeTypeId(0)),
            b.edges_of_type(EdgeTypeId(0))
        );
    }
}
