//! Figure 6 — hyper-parameter studies on DBLP-like with 16 clients:
//! (a) `β_r` for the Restart strategy, (b) `α` for the Explore strategy,
//! (c) `β_e` for the Explore strategy. Prints mean test-AUC curves per
//! setting plus the final/best summary.

use crate::{base_config, maybe_write_json, render_curve, report, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::{FedDa, Reactivation};
use serde_json::json;

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let mut cfg = base_config(Dataset::DblpLike, &opts)?;
    cfg.num_clients = opts.get("clients")?.unwrap_or(16);
    let exp = Experiment::new(cfg);
    let mut json_blobs = Vec::new();

    println!(
        "== Fig. 6: hyper-parameter studies ({} clients, {} runs x {} rounds) ==\n",
        exp.config().num_clients,
        exp.config().runs,
        exp.config().rounds
    );

    println!("-- (a) beta_r for Restart (alpha = 0.5) --");
    for beta_r in [0.2, 0.4, 0.6, 0.8] {
        let mut fedda = FedDa::restart();
        fedda.strategy = Reactivation::Restart { beta_r };
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda))?;
        println!(
            "{}",
            render_curve(
                &format!("beta_r={beta_r}"),
                &res.eval_rounds(),
                &res.auc_mean_curve()
            )
        );
        println!(
            "  final={} best={} uplink={:.0}\n",
            res.final_auc().fmt_pm(),
            res.best_auc().fmt_pm(),
            res.uplink_units().mean
        );
        json_blobs.push(json!({"panel": "a", "beta_r": beta_r,
            "data": report::framework_to_json(&res)}));
    }

    println!("-- (b) alpha for Explore (beta_e = 0.667) --");
    for alpha in [0.25, 0.5, 0.75] {
        let mut fedda = FedDa::explore();
        fedda.alpha = alpha;
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda))?;
        println!(
            "{}",
            render_curve(
                &format!("alpha={alpha}"),
                &res.eval_rounds(),
                &res.auc_mean_curve()
            )
        );
        println!(
            "  final={} best={} uplink={:.0}\n",
            res.final_auc().fmt_pm(),
            res.best_auc().fmt_pm(),
            res.uplink_units().mean
        );
        json_blobs.push(json!({"panel": "b", "alpha": alpha,
            "data": report::framework_to_json(&res)}));
    }

    println!("-- (c) beta_e for Explore (alpha = 0.5) --");
    for beta_e in [0.33, 0.5, 0.667, 0.83] {
        let mut fedda = FedDa::explore();
        fedda.strategy = Reactivation::Explore { beta_e };
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda))?;
        println!(
            "{}",
            render_curve(
                &format!("beta_e={beta_e}"),
                &res.eval_rounds(),
                &res.auc_mean_curve()
            )
        );
        println!(
            "  final={} best={} uplink={:.0}\n",
            res.final_auc().fmt_pm(),
            res.best_auc().fmt_pm(),
            res.uplink_units().mean
        );
        json_blobs.push(json!({"panel": "c", "beta_e": beta_e,
            "data": report::framework_to_json(&res)}));
    }

    maybe_write_json(&opts, &json!(json_blobs))
}
