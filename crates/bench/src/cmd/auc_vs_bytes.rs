//! The accuracy-vs-communication frontier under uplink compression: every
//! protocol × codec cell reports the final ROC-AUC next to the *ledgered*
//! cumulative uplink bytes, so the table shows what each compression ratio
//! actually buys — and what it costs in accuracy. Degradation is reported,
//! never hidden: the ΔAUC column is the drop (or gain) against the same
//! protocol's uncompressed run.
//!
//! The codec sweep is fixed (none, ident, f16, q8, topk:0.25, topk:0.1);
//! `--compress` is therefore rejected here — it would silently contradict
//! the sweep. All other shared flags (`--rounds`, `--runs`, `--faults`,
//! `--runtime async`, …) apply to every cell uniformly.

use crate::{base_config, maybe_write_json, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::{Compression, FedAvg, FedDa};
use fedda::table::TextTable;
use serde_json::json;

/// The codec sweep, densest first: `None` is the uncompressed baseline,
/// `ident` must match it byte-for-byte, then the lossy codecs in order of
/// shrinking effective wire size per masked scalar (f16 = 2 B, topk:0.25 =
/// 8 B × 0.25 ≤ 2 B, q8 = 1 B, topk:0.1 = 0.8 B).
fn codecs(quick: bool) -> Vec<Option<Compression>> {
    let mut list = vec![
        None,
        Some(Compression::Identity),
        Some(Compression::QuantF16),
        Some(Compression::TopK { frac: 0.25 }),
        Some(Compression::QuantI8),
    ];
    if !quick {
        list.push(Some(Compression::TopK { frac: 0.1 }));
    }
    list
}

pub fn run(opts: Options) -> Result<(), Failure> {
    if opts.has("compress") {
        let msg = "auc_vs_bytes sweeps every codec itself; drop --compress";
        return Err(Failure::Usage(msg.into()));
    }
    let dataset = match opts.get_str("dataset").unwrap_or("dblp") {
        d if d.eq_ignore_ascii_case("amazon") => Dataset::AmazonLike,
        _ => Dataset::DblpLike,
    };
    let frameworks = if opts.quick {
        vec![
            Framework::FedAvg(FedAvg::vanilla()),
            Framework::FedDa(FedDa::explore()),
        ]
    } else {
        vec![
            Framework::FedAvg(FedAvg::vanilla()),
            Framework::FedDa(FedDa::restart()),
            Framework::FedDa(FedDa::explore()),
        ]
    };

    let mut table = TextTable::new(&[
        "Framework",
        "Codec",
        "AUC",
        "dAUC",
        "Uplink B",
        "Ratio",
        "Scalars",
    ]);
    let mut json_blobs = Vec::new();
    for framework in &frameworks {
        let mut baseline_auc = f64::NAN;
        let mut baseline_bytes = f64::NAN;
        let mut prev_bytes = f64::INFINITY;
        for codec in codecs(opts.quick) {
            let mut cfg = base_config(dataset, &opts)?;
            cfg.compression = codec;
            let exp = Experiment::new(cfg);
            let label = codec.map_or_else(|| "none".to_string(), |c| c.label());
            eprintln!(
                "running {} / {label} ({} runs x {} rounds)...",
                framework.name(),
                exp.config().runs,
                exp.config().rounds
            );
            let res = opts.run_framework(&exp, framework)?;
            if codec.is_none() {
                baseline_auc = res.final_auc.mean;
                baseline_bytes = res.uplink_bytes.mean;
            }
            let ratio = res.uplink_bytes.mean / baseline_bytes;
            // The frontier must be a frontier: under a fixed mask schedule
            // a denser codec never ledgers fewer bytes than a sparser one
            // (ident == none exactly). Only FedAvg's masks are
            // trajectory-independent; FedDA's dynamic activation reacts to
            // the lossy updates, so its masked volume may drift between
            // codecs — that drift is reported via the Ratio column, not
            // asserted away.
            if matches!(framework, Framework::FedAvg(_)) {
                assert!(
                    res.uplink_bytes.mean <= prev_bytes + 1e-9,
                    "{} / {label}: ledgered bytes rose along the sweep ({} > {prev_bytes})",
                    framework.name(),
                    res.uplink_bytes.mean
                );
            }
            prev_bytes = res.uplink_bytes.mean;
            table.row(&[
                res.name.clone(),
                label.clone(),
                res.final_auc.fmt_pm(),
                format!("{:+.4}", res.final_auc.mean - baseline_auc),
                format!("{:.0}", res.uplink_bytes.mean),
                format!("{:.3}", ratio),
                format!("{:.0}", res.uplink_scalars.mean),
            ]);
            json_blobs.push(json!({
                "framework": res.name, "codec": label,
                "final_auc": res.final_auc.mean, "final_auc_std": res.final_auc.std,
                "delta_auc": res.final_auc.mean - baseline_auc,
                "uplink_bytes": res.uplink_bytes.mean,
                "bytes_ratio": ratio,
                "uplink_scalars": res.uplink_scalars.mean,
                "uplink_units": res.uplink_units.mean,
            }));
        }
    }
    println!(
        "AUC vs ledgered uplink bytes ({}, mask-then-compress)\n",
        dataset.name()
    );
    println!("{}", table.render());
    println!(
        "(Uplink B is the comm ledger's cumulative compressed payload bytes,\n charged at arrival. 'ident' must match 'none' exactly; lossy codecs\n trade the dAUC column for the Ratio column. FedAvg's bytes shrink\n monotonically along the sweep by construction; FedDA's dynamic masks\n react to the lossy updates, so its Ratio can drift off the nominal\n codec ratio — that drift is part of the result.)"
    );

    maybe_write_json(&opts, &json!(json_blobs))
}
