//! Table 1 — dataset statistics.
//!
//! Regenerates the paper's Table 1 for the synthetic Amazon-like and
//! DBLP-like heterographs at the requested scale, alongside the paper's
//! original numbers for reference.

use crate::{maybe_write_json, Failure, Options};
use fedda::data::{amazon_like, dblp_like, DatasetStats, PresetOptions};
use serde_json::json;

fn stats_to_json(stats: &DatasetStats, edge_type_names: &[String]) -> serde_json::Value {
    json!({
        "name": stats.name,
        "num_nodes": stats.num_nodes,
        "num_node_types": stats.num_node_types,
        "num_edges": stats.num_edges,
        "num_edge_types": stats.num_edge_types,
        "density_pct": stats.density_pct,
        "edges_per_type": edge_type_names
            .iter()
            .zip(&stats.edges_per_type)
            .map(|(n, c)| json!({"edge_type": n.as_str(), "count": *c}))
            .collect::<Vec<_>>(),
    })
}

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let scale: f64 = opts.get("scale")?.unwrap_or(0.01);
    let seed: u64 = opts.get("seed")?.unwrap_or(0);

    println!("Table 1: Statistics of the datasets (synthetic, scale = {scale})\n");
    println!("{}", DatasetStats::table_header());
    let amazon = amazon_like(&PresetOptions { scale, seed }).graph;
    println!("{}", DatasetStats::compute("Amazon", &amazon).table_row());
    let dblp = dblp_like(&PresetOptions { scale, seed }).graph;
    println!("{}", DatasetStats::compute("DBLP", &dblp).table_row());

    println!("\nPaper's original (scale = 1.0):");
    println!("{}", DatasetStats::table_header());
    println!(
        "{:<10} {:>9} {:>11} {:>11} {:>11} {:>9.2}%",
        "Amazon", 10_099, 1, 148_659, 2, 0.15
    );
    println!(
        "{:<10} {:>9} {:>11} {:>11} {:>11} {:>9.2}%",
        "DBLP", 114_145, 3, 7_566_543, 5, 0.58
    );

    let mut json_blobs = Vec::new();
    println!("\nPer-edge-type counts (synthetic):");
    for (name, g) in [("Amazon", &amazon), ("DBLP", &dblp)] {
        let counts = g.edge_counts();
        let names: Vec<String> = g
            .schema()
            .edge_type_ids()
            .map(|t| g.schema().edge_type(t).name.clone())
            .collect();
        let detail: Vec<String> = names
            .iter()
            .zip(&counts)
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        println!("  {name}: {}", detail.join(", "));
        json_blobs.push(json!({
            "experiment": format!("table1_{name}"),
            "meta": json!({"dataset": name, "scale": scale, "seed": seed}),
            "stats": stats_to_json(&DatasetStats::compute(name, g), &names),
        }));
    }

    maybe_write_json(&opts, &json!(json_blobs))
}
