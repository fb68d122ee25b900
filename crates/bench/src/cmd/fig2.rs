//! Figure 2 — the motivating study: FedAvg with random client activation
//! rate `C` (panels a–b) and random parameter activation rate `D`
//! (panels c–d), on IID vs non-IID client splits.
//!
//! For each setting we print the per-round best (solid) and worst (dotted)
//! test ROC-AUC over the repeated runs, exactly the curves the paper plots.

use crate::{base_config, maybe_write_json, render_curve, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::FedAvg;
use fedda::report;
use serde_json::json;

pub fn run(opts: Options) -> Result<(), Failure> {
    let mut results_json = Vec::new();

    // The paper's preliminary study runs a small DBLP subgraph with six
    // clients; C and D take {1.0, 0.8, 0.67} ≈ {6/6, 5/6, 4/6}.
    let fractions = [1.0, 0.8, 0.67];
    for iid in [true, false] {
        let label = if iid { "IID" } else { "Non-IID" };
        let mut cfg = base_config(Dataset::DblpLike, &opts)?;
        cfg.num_clients = opts.get("clients")?.unwrap_or(6);
        cfg.iid = iid;
        let exp = Experiment::new(cfg);

        println!(
            "== Fig. 2{} — client activation rate C ({label} link types) ==",
            if iid { "(a)" } else { "(b)" }
        );
        for &c in &fractions {
            let fw = Framework::FedAvg(FedAvg::with_fractions(c, 1.0));
            let res = opts.run_framework(&exp, &fw)?;
            println!(
                "{}",
                render_curve(
                    &format!("C={c:.2} best"),
                    &res.eval_rounds,
                    &res.auc_curves.max_curve()
                )
            );
            println!(
                "{}",
                render_curve(
                    &format!("C={c:.2} worst"),
                    &res.eval_rounds,
                    &res.auc_curves.min_curve()
                )
            );
            results_json.push((format!("fig2_C_{label}_{c}"), res));
        }

        println!(
            "== Fig. 2{} — parameter activation rate D ({label} link types) ==",
            if iid { "(c)" } else { "(d)" }
        );
        for &d in &fractions {
            let fw = Framework::FedAvg(FedAvg::with_fractions(1.0, d));
            let res = opts.run_framework(&exp, &fw)?;
            println!(
                "{}",
                render_curve(
                    &format!("D={d:.2} best"),
                    &res.eval_rounds,
                    &res.auc_curves.max_curve()
                )
            );
            println!(
                "{}",
                render_curve(
                    &format!("D={d:.2} worst"),
                    &res.eval_rounds,
                    &res.auc_curves.min_curve()
                )
            );
            results_json.push((format!("fig2_D_{label}_{d}"), res));
        }
    }

    // Observations 1 & 2 summary: spread between best and worst final AUC.
    println!("== Summary: best/worst spread at the final round ==");
    for (name, res) in &results_json {
        let best = res.auc_curves.max_curve().last().copied().unwrap_or(0.0);
        let worst = res.auc_curves.min_curve().last().copied().unwrap_or(0.0);
        println!(
            "{name:<28} best={best:.4} worst={worst:.4} spread={:.4}",
            best - worst
        );
    }

    maybe_write_json(
        &opts,
        &json!({
            "experiment": "fig2",
            "results": results_json
                .iter()
                .map(|(k, r)| json!({"setting": k, "data": report::framework_to_json(r)}))
                .collect::<Vec<_>>(),
        }),
    )
}
