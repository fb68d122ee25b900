//! Fairness analysis (beyond the paper): per-edge-type test ROC-AUC of the
//! final global model under each framework. In the non-IID setting, rare
//! or weakly-represented link types are exactly where naive averaging
//! hurts; this subcommand reports the per-type breakdown, the macro/weighted
//! means and the max−min fairness gap.

use crate::table::TextTable;
use crate::{base_config, maybe_write_json, Failure, Options};
use fedda::experiment::{Dataset, Experiment};
use fedda::fl::{FedAvg, FedDa, FlProtocol};
use serde_json::json;

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let mut cfg = base_config(Dataset::DblpLike, &opts)?;
    cfg.runs = 1; // one representative run; the breakdown is the point
    let exp = Experiment::new(cfg);

    println!(
        "== Per-edge-type fairness, DBLP-like, M={} ({} rounds) ==\n",
        exp.config().num_clients,
        exp.config().rounds
    );

    let schema = exp.split().test.schema();
    let mut header = vec!["Framework".to_string()];
    header.extend(
        schema
            .edge_type_ids()
            .map(|t| schema.edge_type(t).name.clone()),
    );
    header.extend(["macro".into(), "weighted".into(), "gap".into()]);
    let mut table = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut json_blobs = Vec::new();
    let protocols: [Box<dyn FlProtocol>; 3] = [
        Box::new(FedAvg::vanilla()),
        Box::new(FedDa::restart()),
        Box::new(FedDa::explore()),
    ];
    for mut protocol in protocols {
        // The breakdown needs the trained system itself, not a run summary.
        let mut system = exp.system_for_run(0);
        opts.run_on(&exp, protocol.as_mut(), &mut system)?;
        let by_type = system.auc_by_edge_type(exp.config().rounds);
        let name = protocol.name();
        let mut row = vec![name.clone()];
        row.extend((by_type.groups.iter()).map(|(_, v, n)| format!("{v:.4} (n={n})")));
        row.push(format!("{:.4}", by_type.macro_mean()));
        row.push(format!("{:.4}", by_type.weighted_mean()));
        row.push(format!("{:.4}", by_type.gap()));
        table.row(&row);
        json_blobs.push(json!({
            "framework": name,
            "auc_by_edge_type": (by_type.groups.iter())
                .map(|(t, v, n)| json!({"edge_type": t.as_str(), "auc": *v, "n": *n}))
                .collect::<Vec<_>>(),
            "macro_mean": by_type.macro_mean(),
            "weighted_mean": by_type.weighted_mean(),
            "gap": by_type.gap(),
        }));
    }
    println!("{}", table.render());
    println!(
        "gap = max − min per-type AUC; a smaller gap means the global model\n\
         serves rare link types as well as dominant ones."
    );

    maybe_write_json(&opts, &json!(json_blobs))
}
