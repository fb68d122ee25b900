//! Non-IIDness sweep (beyond the paper): how FedDA's advantage over FedAvg
//! moves with the *strength* of the local bias. The paper fixes
//! `r_a = 0.3, r_b = 0.05`; sweeping `r_b` from `r_a` (IID-like) down to
//! near zero (extreme specialisation) traces the regime where dynamic
//! activation pays off.

use crate::table::TextTable;
use crate::{base_config, maybe_write_json, Failure, Options};
use fedda::data::{non_iidness, partition_non_iid, PartitionConfig};
use fedda::experiment::{Dataset, Experiment};
use fedda::fl::{FedAvg, FedDa};
use serde_json::json;

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let exp = Experiment::new(base_config(Dataset::DblpLike, &opts)?);
    let cfg = exp.config();

    println!(
        "== Non-IIDness sweep: DBLP-like, M={}, {} rounds, r_a = 0.30 ==\n",
        cfg.num_clients, cfg.rounds
    );
    let mut json_blobs = Vec::new();
    let mut table = TextTable::new(&[
        "r_b",
        "non-IIDness",
        "FedAvg best AUC",
        "FedDA best AUC",
        "gain",
        "uplink ratio",
    ]);
    for r_b in [0.30, 0.15, 0.05, 0.01] {
        let pcfg = PartitionConfig {
            num_clients: cfg.num_clients,
            r_a: 0.30,
            r_b,
            specialized_types_per_client: 2,
            seed: cfg.seed,
        };
        // The sweep's own partition of the experiment's split; everything
        // else about the federation is the experiment's.
        let clients = partition_non_iid(&exp.split().train, &pcfg);
        let bias = non_iidness(&clients);
        let mut sys_avg = exp.system_with(clients.clone(), cfg.seed);
        let fedavg = opts.run_on(&exp, &mut FedAvg::vanilla(), &mut sys_avg)?;
        let mut sys_da = exp.system_with(clients, cfg.seed);
        let fedda = opts.run_on(&exp, &mut FedDa::explore(), &mut sys_da)?;
        let uplink_ratio =
            fedda.comm.total_uplink_units() as f64 / fedavg.comm.total_uplink_units().max(1) as f64;
        table.row(&[
            format!("{r_b:.2}"),
            format!("{bias:.3}"),
            format!("{:.4}", fedavg.best_auc()),
            format!("{:.4}", fedda.best_auc()),
            format!("{:+.4}", fedda.best_auc() - fedavg.best_auc()),
            format!("{uplink_ratio:.2}"),
        ]);
        json_blobs.push(json!({
            "r_b": r_b, "non_iidness": bias,
            "fedavg_best_auc": fedavg.best_auc(),
            "fedda_best_auc": fedda.best_auc(),
            "uplink_ratio": uplink_ratio,
        }));
    }
    println!("{}", table.render());
    println!(
        "Reading: as r_b shrinks the federation grows more biased (non-IIDness\n\
         column) and dynamic activation's savings and relative accuracy matter\n\
         more — the regime the paper targets."
    );

    maybe_write_json(&opts, &json!(json_blobs))
}
