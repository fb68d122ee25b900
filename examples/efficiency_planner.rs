//! Efficiency planner — use the paper's closed-form communication model
//! (Eqs. 8–11) to size a FedDA deployment *before* running it: given a
//! federation (M clients, N parameter units, N_d disentangled) and
//! estimates of the retention ratio `r_c` / masking ratio `r_p`, print the
//! expected communication bill of both strategies across a β sweep.
//!
//! Run with: `cargo run -p fedda --release --example efficiency_planner`

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::float_cmp
)]

use fedda::fl::analysis::{
    explore_ratio_bound, restart_expected_units, restart_period, restart_ratio, EfficiencyInputs,
};

fn main() -> Result<(), String> {
    // A paper-sized deployment: Simple-HGN has ~65 named parameter tensors,
    // ~20 of which are per-edge-type (disentangled); 16 hospitals.
    let inputs = EfficiencyInputs {
        m: 16,
        n: 65,
        n_d: 20,
        r_c: 0.8,
        r_p: 0.5,
    };
    inputs.validate()?;
    println!(
        "Deployment: M={} clients, N={} units (N_d={} disentangled), r_c={}, r_p={}\n",
        inputs.m, inputs.n, inputs.n_d, inputs.r_c, inputs.r_p
    );

    println!("Restart strategy (Eqs. 8-9):");
    println!(
        "{:>8} {:>10} {:>16} {:>14}",
        "beta_r", "t0 rounds", "E[units]/cycle", "vs FedAvg"
    );
    for beta_r in [0.2, 0.4, 0.6, 0.8] {
        let t0 = restart_period(inputs.r_c, beta_r);
        let expected = restart_expected_units(&inputs, t0);
        let ratio = restart_ratio(&inputs, beta_r);
        println!(
            "{beta_r:>8.2} {t0:>10} {expected:>16.0} {ratio:>13.1}%",
            ratio = ratio * 100.0
        );
    }

    println!("\nExplore strategy (Eq. 11 upper bound):");
    println!("{:>8} {:>16}", "beta_e", "bound vs FedAvg");
    for beta_e in [0.33, 0.5, 0.667, 0.83] {
        let bound = explore_ratio_bound(&inputs, beta_e);
        println!("{beta_e:>8.3} {bound:>15.1}%", bound = bound * 100.0);
    }

    println!("\nSensitivity: how the Explore bound moves with masking depth r_p (beta_e = 0.667):");
    for r_p in [0.2, 0.4, 0.6, 0.8] {
        let inp = EfficiencyInputs { r_p, ..inputs };
        println!(
            "  r_p = {r_p:.1}  →  ≤ {:.1}% of FedAvg traffic",
            explore_ratio_bound(&inp, 0.667) * 100.0
        );
    }
    println!(
        "\nReading: β controls how aggressively clients stay deactivated; smaller β\n\
         saves more traffic but (per the paper's Fig. 6) risks final accuracy —\n\
         the paper lands on β_r = 0.4 and β_e = 0.667 as the sweet spots."
    );
    Ok(())
}
