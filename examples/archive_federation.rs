//! Archive and reload a synthesized federation.
//!
//! Reproducibility workflow: generate a global heterograph, snapshot it and
//! every client's sub-heterograph to JSON (`fedda_hetgraph::io`), reload
//! them bit-identically, and verify a model evaluated on the original and
//! the reloaded data produces identical metrics.
//!
//! Run with: `cargo run -p fedda --release --example archive_federation`

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::float_cmp
)]

use fedda::data::{amazon_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda::hetgraph::io::{self, GraphDoc};
use fedda::hetgraph::{split::split_edges, LinkSampler};
use fedda::hgn::{evaluate, GraphView, HgnConfig, SimpleHgn};
use fedda::tensor::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("fedda_archive_demo");
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Synthesize and split.
    let generated = amazon_like(&PresetOptions {
        scale: 0.004,
        seed: 9,
    });
    let mut rng = StdRng::seed_from_u64(1);
    let split = split_edges(&generated.graph, 0.10, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(4, 2, 5);
    let clients = partition_non_iid(&split.train, &pcfg);

    // 2. Archive everything.
    io::save_json(&split.train, &dir.join("global_train.json"))?;
    io::save_json(&split.test, &dir.join("global_test.json"))?;
    for (i, c) in clients.iter().enumerate() {
        io::save_json(&c.graph, &dir.join(format!("client_{i}.json")))?;
    }
    let archived: Vec<_> = std::fs::read_dir(&dir)?.collect();
    println!("archived {} graphs to {}", archived.len(), dir.display());

    // 3. Reload and verify bit-identity.
    let train2 = io::load_json(&dir.join("global_train.json"))?;
    assert_eq!(
        GraphDoc::from_graph(&train2),
        GraphDoc::from_graph(&split.train),
        "reloaded train graph differs"
    );
    for (i, c) in clients.iter().enumerate() {
        let g = io::load_json(&dir.join(format!("client_{i}.json")))?;
        assert_eq!(GraphDoc::from_graph(&g), GraphDoc::from_graph(&c.graph));
    }
    println!("reloaded graphs are bit-identical");

    // 4. Metrics computed on original vs reloaded data agree exactly.
    let cfg = HgnConfig {
        hidden_dim: 8,
        num_layers: 1,
        num_heads: 2,
        ..Default::default()
    };
    let (model, params) =
        SimpleHgn::init_params(split.train.schema(), &cfg, &mut StdRng::seed_from_u64(2));
    let test2 = io::load_json(&dir.join("global_test.json"))?;
    let eval = |train: &fedda::hetgraph::HeteroGraph, test: &fedda::hetgraph::HeteroGraph| {
        let view = GraphView::new(train, cfg.add_self_loops);
        let sampler = LinkSampler::new(train);
        let test_pos = LinkSampler::new(test).all_positives();
        let mut rng = StdRng::seed_from_u64(3);
        let g = &mut Graph::new();
        evaluate(&model, g, &params, &view, &sampler, &test_pos, 5, &mut rng)
    };
    let original = eval(&split.train, &split.test);
    let reloaded = eval(&train2, &test2);
    assert_eq!(original.roc_auc.to_bits(), reloaded.roc_auc.to_bits());
    assert_eq!(original.mrr.to_bits(), reloaded.mrr.to_bits());
    println!(
        "evaluation identical on both copies: AUC {:.4}, MRR {:.4}",
        original.roc_auc, original.mrr
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
