//! Eqs. 8–11 — the closed-form communication-efficiency model, validated
//! against the simulator: we run FedDA, estimate `r_c` and `r_p` from the
//! observed rounds, feed them to the analytic formulas, and compare the
//! predicted uplink against the measured one.

use crate::{base_config, maybe_write_json, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework};
use fedda::fl::{analysis, FedDa, Reactivation};
use fedda::table::TextTable;
use serde_json::json;

pub fn run(opts: Options) -> Result<(), Failure> {
    let mut cfg = base_config(Dataset::DblpLike, &opts)?;
    cfg.runs = 1; // one run is enough to fit the analytic model
    let exp = Experiment::new(cfg);
    let system = exp.system_for_run(0);
    let m = system.num_clients();
    let n = system.num_units();
    let n_d = system.num_disentangled_units();

    println!("== Analytic communication model (Eqs. 8-11) vs simulation ==");
    println!("M = {m}, N = {n} units, N_d = {n_d} disentangled units\n");

    let mut json_blobs = Vec::new();
    let mut table = TextTable::new(&[
        "Strategy",
        "r_c (obs)",
        "r_p (obs)",
        "Measured uplink",
        "Predicted",
        "Pred/Meas",
        "FedAvg ratio",
    ]);

    for (label, fedda) in [
        ("Restart b=0.4", FedDa::restart()),
        ("Explore b=0.667", FedDa::explore()),
    ] {
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda.clone()))?;
        let rounds = res.auc_curves.num_rounds();
        let measured = res.uplink_units.mean;
        let fedavg_total = (rounds * m * n) as f64;

        // Estimate r_c: mean ratio of consecutive active-client counts in
        // shrinking phases; estimate r_p: mean masked fraction per active
        // client after round 0 — both from the measured run's own ledger.
        let comm = res.runs[0].comm.rounds();
        let mut rc_samples = Vec::new();
        let mut rp_samples = Vec::new();
        for w in comm.windows(2) {
            if w[1].active_clients <= w[0].active_clients && w[0].active_clients > 0 {
                rc_samples.push(w[1].active_clients as f64 / w[0].active_clients as f64);
            }
        }
        for rc_round in comm.iter().skip(1) {
            if rc_round.active_clients > 0 {
                let per_client = rc_round.uplink_units as f64 / rc_round.active_clients as f64;
                let masked_units = (n as f64 - per_client).max(0.0);
                rp_samples.push((masked_units / n_d as f64).min(1.0));
            }
        }
        let r_c = mean(&rc_samples).unwrap_or(1.0).clamp(0.01, 1.0);
        let r_p = mean(&rp_samples).unwrap_or(0.0).clamp(0.0, 1.0);

        let inputs = analysis::EfficiencyInputs {
            m,
            n,
            n_d,
            r_c,
            r_p,
        };
        let predicted = match fedda.strategy {
            Reactivation::Restart { beta_r } => {
                let t0 = analysis::restart_period(r_c, beta_r).min(rounds.max(1));
                let cycles = (rounds as f64 / t0 as f64).max(1.0);
                analysis::restart_expected_units(&inputs, t0) * cycles
            }
            Reactivation::Explore { beta_e } => {
                // First round is full-cost; later rounds bounded by Eq. 11.
                let per_round_bound =
                    analysis::explore_ratio_bound(&inputs, beta_e) * (m * n) as f64;
                (m * n) as f64 + per_round_bound * (rounds.saturating_sub(1)) as f64
            }
        };
        table.row(&[
            label.into(),
            format!("{r_c:.3}"),
            format!("{r_p:.3}"),
            format!("{measured:.0}"),
            format!("{predicted:.0}"),
            format!("{:.2}", predicted / measured.max(1.0)),
            format!("{:.2}", measured / fedavg_total),
        ]);
        json_blobs.push(json!({
            "strategy": label,
            "r_c": r_c, "r_p": r_p,
            "measured_uplink": measured, "predicted_uplink": predicted,
            "fedavg_uplink": fedavg_total,
        }));
    }
    println!("{}", table.render());
    println!(
        "Prediction within ~2x of measurement validates the Eqs. 8-11 model;\n\
         the FedAvg ratio column is the paper's headline savings."
    );

    maybe_write_json(&opts, &json!(json_blobs))
}

fn mean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}
