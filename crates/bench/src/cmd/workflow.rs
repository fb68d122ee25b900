//! The archive-and-train workflow: `generate`, `stats`, `partition`,
//! `train` and `efficiency`. All of them are deterministic given `--seed`.

use crate::{base_config, parse_framework, Failure, Options};
use fedda::data::{
    amazon_like, dblp_like, non_iidness, partition_iid, partition_non_iid, DatasetStats,
    PartitionConfig, PresetOptions,
};
use fedda::experiment::{Dataset, Experiment, ExperimentConfig};
use fedda::fl::analysis::{explore_ratio_bound, restart_period, restart_ratio, EfficiencyInputs};
use fedda::hetgraph::io;
use fedda::hetgraph::split::split_edges;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

fn parse_dataset(opts: &Options) -> Result<Dataset, Failure> {
    match opts.get_str("dataset").unwrap_or("dblp") {
        d if d.eq_ignore_ascii_case("amazon") => Ok(Dataset::AmazonLike),
        d if d.eq_ignore_ascii_case("dblp") => Ok(Dataset::DblpLike),
        other => Err(format!("unknown dataset '{other}' (expected amazon|dblp)").into()),
    }
}

pub fn generate(opts: Options) -> Result<(), Failure> {
    let dataset = parse_dataset(&opts)?;
    let out = opts.get_str("out").ok_or("--out <path> is required")?;
    let preset = PresetOptions {
        scale: opts.get("scale")?.unwrap_or(0.005),
        seed: opts.get("seed")?.unwrap_or(0),
        ..Default::default()
    };
    // The generators floor every node type at a handful of nodes, so a
    // scale `train` rejects would otherwise write that floor graph.
    ExperimentConfig {
        scale: preset.scale,
        ..Default::default()
    }
    .validate()?;
    let generated = match dataset {
        Dataset::AmazonLike => amazon_like(&preset),
        Dataset::DblpLike => dblp_like(&preset),
    };
    io::save_json(&generated.graph, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges, {} edge types)",
        out,
        generated.graph.num_nodes(),
        generated.graph.num_edges(),
        generated.graph.schema().num_edge_types()
    );
    Ok(())
}

pub fn stats(opts: Options) -> Result<(), Failure> {
    let path = opts.get_str("graph").ok_or("--graph <path> is required")?;
    let graph = io::load_json(Path::new(path)).map_err(|e| e.to_string())?;
    println!("{}", DatasetStats::table_header());
    println!("{}", DatasetStats::compute(path, &graph).table_row());
    println!("\nPer-edge-type counts:");
    for t in graph.schema().edge_type_ids() {
        println!(
            "  {:<16} {:>8}",
            graph.schema().edge_type(t).name,
            graph.edges_of_type(t).len()
        );
    }
    Ok(())
}

pub fn partition(opts: Options) -> Result<(), Failure> {
    let path = opts.get_str("graph").ok_or("--graph <path> is required")?;
    let out_dir = opts
        .get_str("out-dir")
        .ok_or("--out-dir <dir> is required")?;
    let clients = opts.get("clients")?.unwrap_or(8usize);
    let seed: u64 = opts.get("seed")?.unwrap_or(0);
    let test_fraction: f64 = opts.get("test-fraction")?.unwrap_or(0.1);
    let iid = match opts.get_str("mode") {
        None | Some("biased") => false,
        Some("iid") => true,
        Some(other) => return Err(format!("unknown mode '{other}' (expected iid|biased)").into()),
    };
    ExperimentConfig {
        num_clients: clients,
        ..Default::default()
    }
    .validate()?;
    if !(0.0..1.0).contains(&test_fraction) {
        return Err(format!("test-fraction must be in [0, 1), got {test_fraction}").into());
    }

    let graph = io::load_json(Path::new(path)).map_err(|e| e.to_string())?;
    if graph.schema().num_edge_types() == 0 {
        return Err(format!("{path} has no edge types to partition").into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let split = split_edges(&graph, test_fraction, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(clients, graph.schema().num_edge_types(), seed);
    let parts = if iid {
        partition_iid(&split.train, &pcfg)
    } else {
        partition_non_iid(&split.train, &pcfg)
    };
    let dir = Path::new(out_dir);
    io::save_json(&split.train, &dir.join("global_train.json")).map_err(|e| e.to_string())?;
    io::save_json(&split.test, &dir.join("global_test.json")).map_err(|e| e.to_string())?;
    for (i, c) in parts.iter().enumerate() {
        io::save_json(&c.graph, &dir.join(format!("client_{i}.json")))
            .map_err(|e| e.to_string())?;
    }
    println!(
        "wrote global train/test + {} client graphs to {} (non-IIDness {:.3})",
        parts.len(),
        out_dir,
        non_iidness(&parts)
    );
    Ok(())
}

pub fn train(opts: Options) -> Result<(), Failure> {
    let dataset = parse_dataset(&opts)?;
    let framework = parse_framework(opts.get_str("framework").unwrap_or("fedda-explore"), &opts)?;
    let cfg = base_config(dataset, &opts)?;
    println!(
        "training {} on {} (M={}, {} runs x {} rounds, scale {})",
        framework.name(),
        dataset.name(),
        cfg.num_clients,
        cfg.runs,
        cfg.rounds,
        cfg.scale
    );
    let exp = Experiment::new(cfg);
    let res = opts.run_framework(&exp, &framework)?;
    println!("final ROC-AUC : {}", res.final_auc.fmt_pm());
    println!("final MRR     : {}", res.final_mrr.fmt_pm());
    println!("best ROC-AUC  : {}", res.best_auc.fmt_pm());
    println!("uplink units  : {:.0}", res.uplink_units.mean);
    println!("uplink bytes  : {:.0}", res.uplink_bytes.mean);
    Ok(())
}

pub fn efficiency(opts: Options) -> Result<(), Failure> {
    let inputs = EfficiencyInputs {
        m: opts.get("m")?.unwrap_or(16),
        n: opts.get("n")?.unwrap_or(65),
        n_d: opts.get("nd")?.unwrap_or(20),
        r_c: opts.get("rc")?.unwrap_or(0.8),
        r_p: opts.get("rp")?.unwrap_or(0.5),
    };
    inputs.validate()?;
    println!(
        "M={} N={} N_d={} r_c={} r_p={}",
        inputs.m, inputs.n, inputs.n_d, inputs.r_c, inputs.r_p
    );
    for beta_r in [0.2, 0.4, 0.6, 0.8] {
        println!(
            "Restart beta_r={beta_r}: t0={} rounds, cost = {:.1}% of FedAvg",
            restart_period(inputs.r_c, beta_r),
            restart_ratio(&inputs, beta_r) * 100.0
        );
    }
    for beta_e in [0.33, 0.5, 0.667, 0.83] {
        println!(
            "Explore beta_e={beta_e}: cost ≤ {:.1}% of FedAvg",
            explore_ratio_bound(&inputs, beta_e) * 100.0
        );
    }
    Ok(())
}
