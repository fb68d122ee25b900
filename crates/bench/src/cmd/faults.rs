//! Degradation under faults — how gracefully each protocol loses accuracy
//! (and how its communication bill shifts) as the client dropout rate
//! rises, with stragglers and corruption riding along at half the rate.
//!
//! The interesting comparison is FedDA vs FedAvg: FedDA's activation
//! machinery treats a faulted client as deactivated and re-admits it
//! through Restart/Explore, so real failures exercise exactly the dynamics
//! the paper motivates with simulated masks.
//!
//! Each row injects `drop=r, straggle=r/2 (delay ≤ 2, discount γ=0.5),
//! corrupt=r/2 (NaN)`, so `--faults` is rejected here — it would silently
//! contradict the sweep; pass it to any *other* experiment subcommand to run its
//! table under a custom fault mix instead.

use crate::table::TextTable;
use crate::{base_config, maybe_write_json, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::{Corruption, FaultConfig, FedAvg, FedDa, StalenessPolicy};
use serde_json::json;

/// The mixed fault schedule at headline dropout rate `r`.
fn mix(rate: f64) -> Option<FaultConfig> {
    if rate == 0.0 {
        return None;
    }
    Some(FaultConfig {
        dropout: rate,
        straggler: rate / 2.0,
        max_staleness: 2,
        corruption: rate / 2.0,
        corruption_kind: Corruption::NaN,
        staleness: StalenessPolicy::Discount { gamma: 0.5 },
        ..Default::default()
    })
}

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let rates: Vec<f64> = match opts.get::<usize>("rate-steps")? {
        Some(n) => (0..n)
            .map(|i| 0.4 * i as f64 / (n - 1).max(1) as f64)
            .collect(),
        None => vec![0.0, 0.1, 0.2, 0.3],
    };
    let frameworks = [
        Framework::FedAvg(FedAvg::vanilla()),
        Framework::FedDa(FedDa::restart()),
        Framework::FedDa(FedDa::explore()),
    ];
    let mut json_blobs = Vec::new();
    let mut table = TextTable::new(&["Fault rate", "Framework", "AUC", "MRR", "Uplink", "Faults"]);
    for &rate in &rates {
        let mut cfg = base_config(Dataset::DblpLike, &opts)?;
        cfg.faults = mix(rate);
        let exp = Experiment::new(cfg);
        eprintln!(
            "running fault rate {rate:.2} ({} runs x {} rounds)...",
            exp.config().runs,
            exp.config().rounds
        );
        for framework in &frameworks {
            let res = opts.run_framework(&exp, framework)?;
            // Run 0 is the representative for the fault count (the schedule
            // is per-seed, so counts vary across runs).
            let faults = res.runs.first().map_or(0, |r| r.faults.len());
            table.row(&[
                format!("{rate:.2}"),
                res.name.clone(),
                res.final_auc().fmt_pm(),
                res.final_mrr().fmt_pm(),
                format!("{:.0}", res.uplink_units().mean),
                faults.to_string(),
            ]);
            json_blobs.push(json!({
                "rate": rate, "framework": res.name,
                "final_auc": res.final_auc().mean, "final_auc_std": res.final_auc().std,
                "final_mrr": res.final_mrr().mean,
                "uplink_units": res.uplink_units().mean,
                "fault_events_run0": faults,
            }));
        }
    }
    println!("Degradation under faults (DBLP-like, mixed dropout/straggler/corruption)\n");
    println!("{}", table.render());
    println!(
        "(Dropout rate r also injects stragglers at r/2 with gamma=0.5 staleness\n discounting and NaN corruption at r/2; corrupted updates are rejected by\n the server's non-finite check. AUC should degrade gracefully, not collapse.)"
    );

    maybe_write_json(&opts, &json!(json_blobs))
}
