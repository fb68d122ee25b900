//! Closed-form communication-efficiency model (paper §5.4.3, Eqs. 8–11).
//!
//! Given the expected per-round client-retention ratio `r_c` and the
//! expected fraction of deactivated disentangled parameters `r_p`, the
//! paper derives the expected number of communicated parameters for both
//! strategies and bounds the ratio against vanilla FedAvg (`t_0 · M · N`).
//!
//! The paper's model counts parameter *units*; the ledger
//! ([`CommLog`](crate::CommLog)) additionally measures wire *bytes*, which
//! depend on the uplink codec. The byte closed form of one full report is
//! the oracle `tests/efficiency_bytes.rs` holds the ledger to.

// Invariant D5 (DESIGN.md §6): byte accounting never truncates silently.
#![warn(clippy::cast_possible_truncation)]

/// Inputs of the analytic model.
#[derive(Clone, Copy, Debug)]
pub struct EfficiencyInputs {
    /// Number of clients `M`.
    pub m: usize,
    /// Total parameter units `N`.
    pub n: usize,
    /// Disentangled parameter units `N_d`.
    pub n_d: usize,
    /// Expected fraction of clients *remaining* after each round (`r_c`).
    pub r_c: f64,
    /// Expected fraction of disentangled parameters deactivated per
    /// remaining client (`r_p`).
    pub r_p: f64,
}

impl EfficiencyInputs {
    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_d > self.n {
            return Err("n_d cannot exceed n".into());
        }
        if !(0.0..=1.0).contains(&self.r_c) || !(0.0..=1.0).contains(&self.r_p) {
            return Err("r_c and r_p must be in [0, 1]".into());
        }
        if self.m == 0 || self.n == 0 {
            return Err("m and n must be positive".into());
        }
        Ok(())
    }
}

/// Expected rounds before a `Restart` reset: the smallest `t_0` with
/// `r_c^{t_0} < β_r`, i.e. `t_0 = ceil(log_{r_c} β_r)` (Eq. 8's side
/// condition `t_0 ≥ log_{r_c} β_r`).
#[expect(
    clippy::cast_possible_truncation,
    reason = "a round count: the ceiling of a positive ratio, at least 1; `as` saturates at usize::MAX, which already means never"
)]
pub fn restart_period(r_c: f64, beta_r: f64) -> usize {
    assert!((0.0..1.0).contains(&beta_r), "beta_r in (0,1)");
    if r_c >= 1.0 {
        return usize::MAX; // never shrinks, never restarts
    }
    if r_c <= 0.0 {
        return 1;
    }
    (beta_r.ln() / r_c.ln()).ceil().max(1.0) as usize
}

/// The precondition of every bound here: `inp` passes
/// [`EfficiencyInputs::validate`]. An invalid input is a caller bug, not
/// runtime data, so it panics with `invalid inputs: <reason>`.
fn check(inp: &EfficiencyInputs) {
    #[expect(
        clippy::expect_used,
        reason = "documented precondition; EfficiencyInputs::validate errors are caller bugs, not runtime data"
    )]
    inp.validate().expect("invalid inputs");
}

/// Eq. 8: expected communicated parameter units over one `Restart` cycle of
/// `t_0` rounds.
///
/// `E[#cp] = M·N · (1 - r_c^{t_0+1}) / (1 - r_c)
///          - M·N_d · (r_c·r_p - (r_c·r_p)^{t_0+1}) / (1 - r_c·r_p)`.
pub fn restart_expected_units(inp: &EfficiencyInputs, t0: usize) -> f64 {
    check(inp);
    let (m, n, n_d) = (inp.m as f64, inp.n as f64, inp.n_d as f64);
    let rc = inp.r_c;
    let rcrp = inp.r_c * inp.r_p;
    let geom = |r: f64, from_pow: i32, to_pow: i32| -> f64 {
        // sum_{k=from}^{to} r^k, handling r = 1
        if (r - 1.0).abs() < 1e-12 {
            f64::from(to_pow - from_pow + 1)
        } else {
            (r.powi(from_pow) - r.powi(to_pow.saturating_add(1))) / (1.0 - r)
        }
    };
    // Saturating conversion: t0 beyond i32::MAX rounds means the geometric
    // sums have long since converged, so the cap is exact in f64 anyway.
    let t0 = i32::try_from(t0).unwrap_or(i32::MAX);
    // (1 - rc^{t0+1}) / (1 - rc) = sum_{k=0}^{t0} rc^k
    let clients_term = m * n * geom(rc, 0, t0);
    // (rcrp - rcrp^{t0+1}) / (1 - rcrp) = sum_{k=1}^{t0} rcrp^k
    let savings_term = if t0 >= 1 {
        m * n_d * geom(rcrp, 1, t0)
    } else {
        0.0
    };
    clients_term - savings_term
}

/// Eq. 9: expected ratio of `Restart` communication to vanilla FedAvg over
/// the same `t_0` rounds (`t_0 · M · N` units).
pub fn restart_ratio(inp: &EfficiencyInputs, beta_r: f64) -> f64 {
    let t0 = restart_period(inp.r_c, beta_r);
    let t0 = t0.min(10_000); // guard the r_c = 1 degenerate case
    restart_expected_units(inp, t0) / (t0 as f64 * inp.m as f64 * inp.n as f64)
}

/// Eq. 11: upper bound on the `Explore` strategy's per-round communication
/// ratio against FedAvg (valid from the second round on):
/// `E[#cp] / (M·N) ≤ β_e - β_e · r_c · r_p · N_d / N`.
pub fn explore_ratio_bound(inp: &EfficiencyInputs, beta_e: f64) -> f64 {
    check(inp);
    assert!((0.0..1.0).contains(&beta_e), "beta_e in (0,1)");
    beta_e - beta_e * inp.r_c * inp.r_p * (inp.n_d as f64 / inp.n as f64)
}

/// Eq. 10: expected per-round communicated units for `Explore`, given the
/// fraction `gamma` of active clients that were already active before the
/// last round and their (deeper) deactivation fraction `r_p_hat ≥ r_p` —
/// the expectation the tests hold Eq. 11's bound above.
#[cfg(test)]
fn explore_expected_units(inp: &EfficiencyInputs, beta_e: f64, gamma: f64, r_p_hat: f64) -> f64 {
    check(inp);
    assert!((0.0..=1.0).contains(&gamma), "gamma in [0,1]");
    assert!(r_p_hat >= inp.r_p - 1e-9, "r_p_hat must be ≥ r_p");
    let (m, n, n_d) = (inp.m as f64, inp.n as f64, inp.n_d as f64);
    // Veterans that stay: masked at r_p; veterans-of-veterans masked at
    // r_p_hat; fresh reactivated clients transmit everything.
    m * beta_e * inp.r_c * gamma * (n - inp.r_p * n_d)
        + m * beta_e * inp.r_c * (1.0 - gamma) * (n - r_p_hat * n_d)
        + m * n * beta_e * (1.0 - inp.r_c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inputs() -> EfficiencyInputs {
        EfficiencyInputs {
            m: 16,
            n: 65,
            n_d: 20,
            r_c: 0.8,
            r_p: 0.5,
        }
    }

    #[test]
    fn restart_period_matches_log() {
        // 0.8^4 = 0.4096 ≥ 0.4, 0.8^5 = 0.328 < 0.4 → ceil(log_0.8 0.4) = 5
        assert_eq!(restart_period(0.8, 0.4), 5);
        assert_eq!(restart_period(1.0, 0.4), usize::MAX);
        assert_eq!(restart_period(0.0, 0.4), 1);
    }

    #[test]
    fn restart_expected_units_below_fedavg() {
        let inp = inputs();
        let t0 = restart_period(inp.r_c, 0.4);
        let e = restart_expected_units(&inp, t0);
        let fedavg = (t0 as f64 + 0.0) * inp.m as f64 * inp.n as f64;
        assert!(e < fedavg, "{e} !< {fedavg}");
        assert!(e > 0.0);
    }

    #[test]
    fn restart_ratio_below_one_when_shrinking() {
        let ratio = restart_ratio(&inputs(), 0.4);
        assert!(ratio < 1.0, "ratio {ratio}");
        assert!(ratio > 0.0);
    }

    #[test]
    fn no_shrink_no_savings() {
        let mut inp = inputs();
        inp.r_c = 1.0;
        inp.r_p = 0.0;
        // with r_c = 1 and r_p = 0 the per-cycle cost equals FedAvg's
        let e = restart_expected_units(&inp, 10);
        // sum_{k=0}^{10} of M*N = 11 M N (the paper's formula counts t0+1
        // broadcasts per cycle including the restart round)
        assert!((e - 11.0 * 16.0 * 65.0).abs() < 1e-6);
    }

    #[test]
    fn explore_bound_dominates_expectation() {
        let inp = inputs();
        let beta_e = 0.667;
        let bound = explore_ratio_bound(&inp, beta_e) * inp.m as f64 * inp.n as f64;
        for gamma in [0.0, 0.3, 0.7, 1.0] {
            for r_p_hat in [inp.r_p, 0.7, 0.9] {
                let e = explore_expected_units(&inp, beta_e, gamma, r_p_hat);
                assert!(
                    e <= bound + 1e-6,
                    "gamma={gamma}, r_p_hat={r_p_hat}: {e} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn explore_bound_decreases_with_masking() {
        let mut inp = inputs();
        let weak = explore_ratio_bound(&inp, 0.667);
        inp.r_p = 0.9;
        let strong = explore_ratio_bound(&inp, 0.667);
        assert!(strong < weak);
    }

    #[test]
    fn validation_errors() {
        let mut inp = inputs();
        inp.n_d = 100;
        assert!(inp.validate().is_err());
        let mut inp = inputs();
        inp.r_c = 1.5;
        assert!(inp.validate().is_err());
    }

    fn inputs_strategy() -> impl Strategy<Value = EfficiencyInputs> {
        (2usize..64, 10usize..200, 0.05f64..0.99, 0.0f64..0.99).prop_flat_map(|(m, n, r_c, r_p)| {
            (1usize..=n / 2).prop_map(move |n_d| EfficiencyInputs {
                m,
                n,
                n_d,
                r_c,
                r_p,
            })
        })
    }

    proptest! {
        #[test]
        fn explore_expectation_below_bound(
            inp in inputs_strategy(), beta_e in 0.05f64..0.95,
            gamma in 0.0f64..1.0, extra in 0.0f64..1.0,
        ) {
            let r_p_hat = inp.r_p + (1.0 - inp.r_p) * extra;
            let e = explore_expected_units(&inp, beta_e, gamma, r_p_hat);
            let bound = explore_ratio_bound(&inp, beta_e) * (inp.m * inp.n) as f64;
            prop_assert!(e <= bound + 1e-6, "{e} > {bound}");
            prop_assert!(e >= 0.0);
        }
    }
}
