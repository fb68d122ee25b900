//! Table 2 — link prediction results (ROC-AUC and MRR, mean ± std over
//! runs) for the full protocol zoo — Global / Local / FedAvg / FedProx /
//! FedDyn / FedAdam / FedDA-Restart / FedDA-Explore — on DBLP-like
//! (M ∈ {4, 8, 16}) and Amazon-like (M ∈ {8, 16}) federations, situating
//! FedDA against the standard non-IID baselines. `--dataset dblp|amazon`
//! runs one dataset only. The
//! FedProx/FedDyn/FedAdam hyper-parameter knobs (`--mu`, `--alpha`,
//! `--server-lr`, `--beta1`, `--beta2`, `--adam-eps`) apply here too.

use crate::{base_config, maybe_write_json, parse_framework, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::{FedAvg, FedDa};
use fedda::report;
use fedda::table::TextTable;
use serde_json::json;

pub fn run(opts: Options) -> Result<(), Failure> {
    let which = opts.get_str("dataset").map(str::to_string);
    let mut json_blobs = Vec::new();
    let frameworks = [
        Framework::Global,
        Framework::Local,
        Framework::FedAvg(FedAvg::vanilla()),
        // The hyper-parameters of the three ports come from the shared knob
        // flags (protocol defaults when omitted); an invalid one ends the
        // run here, before any data is generated.
        parse_framework("fedprox", &opts)?,
        parse_framework("feddyn", &opts)?,
        parse_framework("fedadam", &opts)?,
        Framework::FedDa(FedDa::restart()),
        Framework::FedDa(FedDa::explore()),
    ];

    let grid: &[(Dataset, &[usize])] = &[
        (Dataset::DblpLike, &[4, 8, 16]),
        (Dataset::AmazonLike, &[8, 16]),
    ];

    for &(dataset, client_counts) in grid {
        if let Some(w) = &which {
            let keep = match dataset {
                Dataset::DblpLike => w.eq_ignore_ascii_case("dblp"),
                Dataset::AmazonLike => w.eq_ignore_ascii_case("amazon"),
            };
            if !keep {
                continue;
            }
        }
        for &m in client_counts {
            let mut cfg = base_config(dataset, &opts)?;
            cfg.num_clients = m;
            let exp = Experiment::new(cfg);
            println!(
                "== Table 2: {} with M={} clients ({} runs, {} rounds, scale {}) ==",
                dataset.name(),
                m,
                exp.config().runs,
                exp.config().rounds,
                exp.config().scale
            );
            let mut table =
                TextTable::new(&["Framework", "ROC-AUC", "MRR", "Best AUC", "Uplink units"]);
            let mut results = Vec::new();
            for fw in &frameworks {
                let res = opts.run_framework(&exp, fw)?;
                table.row(&[
                    res.name.clone(),
                    res.final_auc.fmt_pm(),
                    res.final_mrr.fmt_pm(),
                    res.best_auc.fmt_pm(),
                    format!("{:.0}", res.uplink_units.mean),
                ]);
                results.push(res);
            }
            println!("{}", table.render());
            json_blobs.push(report::experiment_to_json(
                &format!("table2_{}_M{}", dataset.name(), m),
                json!({"dataset": dataset.name(), "clients": m,
                       "rounds": exp.config().rounds, "runs": exp.config().runs,
                       "scale": exp.config().scale}),
                &results,
            ));
        }
    }

    maybe_write_json(&opts, &json!(json_blobs))
}
