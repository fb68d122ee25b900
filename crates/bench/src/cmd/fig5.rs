//! Figure 5 — convergence curves with 16 clients: mean-of-runs curves for
//! Global / FedAvg / FedDA-Restart / FedDA-Explore (panels a–b) and
//! best/worst envelopes for the FL frameworks (panels c–d), on both
//! datasets. Also prints the RQ3 rounds-to-threshold comparison.

use crate::{base_config, maybe_write_json, render_curve, report, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::{FedAvg, FedDa};
use serde_json::json;

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let mut json_blobs = Vec::new();

    for dataset in [Dataset::DblpLike, Dataset::AmazonLike] {
        let mut cfg = base_config(dataset, &opts)?;
        cfg.num_clients = opts.get("clients")?.unwrap_or(16);
        let exp = Experiment::new(cfg);
        println!(
            "== Fig. 5: {} convergence, M={} ({} runs x {} rounds) ==\n",
            dataset.name(),
            exp.config().num_clients,
            exp.config().runs,
            exp.config().rounds
        );
        let frameworks = [
            Framework::Global,
            Framework::FedAvg(FedAvg::vanilla()),
            Framework::FedDa(FedDa::restart()),
            Framework::FedDa(FedDa::explore()),
        ];
        let mut results = Vec::new();
        for fw in &frameworks {
            let res = opts.run_framework(&exp, fw)?;
            println!(
                "{}",
                render_curve(
                    &format!("{} (mean)", res.name),
                    &res.eval_rounds(),
                    &res.auc_mean_curve()
                )
            );
            results.push(res);
        }
        let mut chart = crate::plot::AsciiChart::new(64, 14);
        for res in &results {
            chart.series(res.name.clone(), &res.auc_mean_curve());
        }
        println!("{}", chart.render());
        println!("-- best/worst envelopes (Fig. 5c/5d style) --");
        for res in &results[1..] {
            println!(
                "{}",
                render_curve(
                    &format!("{} best", res.name),
                    &res.eval_rounds(),
                    &res.auc_max_curve()
                )
            );
            println!(
                "{}",
                render_curve(
                    &format!("{} worst", res.name),
                    &res.eval_rounds(),
                    &res.auc_min_curve()
                )
            );
        }

        // RQ3: rounds needed to reach FedAvg's final mean AUC.
        let fedavg_final = results[1].auc_mean_curve().last().copied().unwrap_or(0.5);
        println!("-- rounds to reach FedAvg's final mean AUC ({fedavg_final:.4}) --");
        for res in &results[1..] {
            // The true round of the first evaluation point that reaches it
            // (positions and rounds differ when the eval cadence is sparse).
            let mut points = res.eval_rounds().into_iter().zip(res.auc_mean_curve());
            match points.find(|&(_, auc)| auc >= fedavg_final) {
                Some((r, _)) => println!("{:<20} round {}", res.name, r),
                None => println!("{:<20} not reached", res.name),
            }
        }
        println!();
        json_blobs.push(report::experiment_to_json(
            &format!("fig5_{}", dataset.name()),
            json!({"dataset": dataset.name(), "clients": exp.config().num_clients}),
            &results,
        ));
    }

    maybe_write_json(&opts, &json!(json_blobs))
}
