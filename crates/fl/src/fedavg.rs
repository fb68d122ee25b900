//! FedAvg (McMahan et al., 2017) over the simulated federation, with the
//! random client-fraction (`C`) and parameter-fraction (`D`) knobs of the
//! paper's motivating study (§4, Fig. 2).
//!
//! `C = D = 1` is vanilla FedAvg: every round broadcasts the global model
//! to all clients, runs `E` local epochs everywhere, and averages all
//! returned parameters uniformly (Eqs. 4–5, `p_i = 1/M`).
//!
//! FedAvg is stateless between rounds: selection is a seeded shuffle, masks
//! are either full or random at density `D`, and there is no
//! post-aggregation bookkeeping.

use crate::protocol::{check_client_fraction, sample_client_fraction, FlProtocol};
use crate::system::FlSystem;
use rand::rngs::StdRng;

/// FedAvg: its configuration, and (having no run state) nothing else.
#[derive(Clone, Debug, PartialEq)]
pub struct FedAvg {
    /// Fraction of clients randomly activated each round (Fig. 2's `C`).
    pub client_fraction: f64,
    /// Fraction of parameter units randomly gathered from each activated
    /// client each round (Fig. 2's `D`).
    pub param_fraction: f64,
}

impl Default for FedAvg {
    fn default() -> Self {
        Self {
            client_fraction: 1.0,
            param_fraction: 1.0,
        }
    }
}

impl FedAvg {
    /// Vanilla FedAvg.
    pub fn vanilla() -> Self {
        Self::default()
    }

    /// FedAvg with random partial activation. Out-of-range fractions are
    /// reported by [`validate`](FlProtocol::validate) (which the driver
    /// calls before round 0), not panicked on here.
    pub fn with_fractions(client_fraction: f64, param_fraction: f64) -> Self {
        Self {
            client_fraction,
            param_fraction,
        }
    }
}

impl FlProtocol for FedAvg {
    fn name(&self) -> String {
        if self.client_fraction >= 1.0 && self.param_fraction >= 1.0 {
            "FedAvg".into()
        } else {
            format!(
                "FedAvg(C={:.2},D={:.2})",
                self.client_fraction, self.param_fraction
            )
        }
    }

    fn validate(&self) -> Result<(), String> {
        check_client_fraction(self.client_fraction)?;
        if !(self.param_fraction > 0.0 && self.param_fraction <= 1.0) {
            return Err(format!(
                "param_fraction must be in (0,1], got {}",
                self.param_fraction
            ));
        }
        Ok(())
    }

    fn seed_tweak(&self) -> u64 {
        0xFEDA_A0A0
    }

    fn select_clients(&mut self, system: &FlSystem, _round: usize, rng: &mut StdRng) -> Vec<usize> {
        sample_client_fraction(system.num_clients(), self.client_fraction, rng)
    }

    fn build_masks(
        &mut self,
        system: &FlSystem,
        active: &[usize],
        _round: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<bool>> {
        if self.param_fraction >= 1.0 {
            system.full_masks(active.len())
        } else {
            (0..active.len())
                .map(|_| system.random_mask(self.param_fraction, rng))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::{run_sync, tiny_system, tiny_system_with};

    #[test]
    fn vanilla_fedavg_transmits_everything() {
        let mut sys = tiny_system(3, 11);
        let result = run_sync(&mut FedAvg::vanilla(), &mut sys);
        let rounds = sys.config().rounds;
        assert_eq!(result.curve.len(), rounds);
        assert_eq!(
            result.comm.total_uplink_units(),
            rounds * 3 * sys.num_units()
        );
        let activations: usize = result.comm.rounds().iter().map(|r| r.active_clients).sum();
        assert_eq!(activations, rounds * 3);
        assert!(result.final_eval.roc_auc > 0.0);
    }

    #[test]
    fn client_fraction_reduces_activations() {
        let mut sys = tiny_system(4, 12);
        let result = run_sync(&mut FedAvg::with_fractions(0.5, 1.0), &mut sys);
        let rounds = sys.config().rounds;
        let activations: usize = result.comm.rounds().iter().map(|r| r.active_clients).sum();
        assert_eq!(activations, rounds * 2);
        assert_eq!(
            result.comm.total_uplink_units(),
            rounds * 2 * sys.num_units()
        );
    }

    #[test]
    fn param_fraction_reduces_uplink_not_downlink() {
        let mut sys = tiny_system(2, 13);
        let result = run_sync(&mut FedAvg::with_fractions(1.0, 0.5), &mut sys);
        let rounds = sys.config().rounds;
        let full = rounds * 2 * sys.num_units();
        assert!(result.comm.total_uplink_units() < full);
        let downlink: usize = result.comm.rounds().iter().map(|r| r.downlink_units).sum();
        assert_eq!(downlink, full);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let mut s1 = tiny_system(3, 14);
        let mut s2 = tiny_system(3, 14);
        let r1 = run_sync(&mut FedAvg::vanilla(), &mut s1);
        let r2 = run_sync(&mut FedAvg::vanilla(), &mut s2);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc, b.roc_auc);
        }
        assert_eq!(s1.global.flatten(), s2.global.flatten());
    }

    #[test]
    fn out_of_range_fractions_fail_validation() {
        assert!(FedAvg::with_fractions(0.0, 1.0).validate().is_err());
        assert!(FedAvg::with_fractions(1.0, 0.0).validate().is_err());
        assert!(FedAvg::with_fractions(1.5, 1.0).validate().is_err());
        assert!(FedAvg::with_fractions(1.0, f64::NAN).validate().is_err());
        assert!(FedAvg::with_fractions(0.5, 0.5).validate().is_ok());
    }

    #[test]
    #[should_panic(
        expected = "invalid FedAvg(C=0.00,D=1.00) configuration: client_fraction must be in (0,1], got 0"
    )]
    fn zero_client_fraction_rejected_before_round_zero() {
        let mut sys = tiny_system(2, 15);
        let _ = run_sync(&mut FedAvg::with_fractions(0.0, 1.0), &mut sys);
    }

    #[test]
    fn names_match_paper() {
        use crate::protocol::FlProtocol;
        assert_eq!(FedAvg::vanilla().name(), "FedAvg");
        assert_eq!(
            FedAvg::with_fractions(0.8, 1.0).name(),
            "FedAvg(C=0.80,D=1.00)"
        );
    }

    #[test]
    fn fedavg_survives_full_dropout_rounds() {
        // FedAvg has no activation machinery, so dropout rate 1.0 means
        // every round aggregates nothing: the global model must simply
        // stand still and the run must complete with zero uplink.
        let mut sys = tiny_system_with(3, 16, |cfg| {
            cfg.faults = Some(crate::faults::FaultConfig {
                dropout: 1.0,
                ..Default::default()
            });
        });
        let before = sys.global.flatten();
        let result = run_sync(&mut FedAvg::vanilla(), &mut sys);
        assert_eq!(result.curve.len(), sys.config().rounds);
        assert_eq!(sys.global.flatten(), before, "no survivor, no movement");
        assert_eq!(result.comm.total_uplink_units(), 0);
        // Downlink still paid: the broadcast happens before anyone fails.
        assert!(result.comm.rounds().iter().all(|r| r.downlink_units > 0));
        assert_eq!(result.faults.len(), 3 * sys.config().rounds);
    }

    #[test]
    fn fedavg_zero_rate_fault_config_matches_faultless_run() {
        // An all-zero FaultConfig schedules nothing, so the run must be
        // bit-identical to `faults: None` — the fault stream is orthogonal
        // to every other RNG stream.
        let mut plain = tiny_system(3, 17);
        let r_plain = run_sync(&mut FedAvg::vanilla(), &mut plain);
        let mut faulty = tiny_system_with(3, 17, |cfg| {
            cfg.faults = Some(crate::faults::FaultConfig::default());
        });
        let r_faulty = run_sync(&mut FedAvg::vanilla(), &mut faulty);
        assert!(r_faulty.faults.is_empty());
        for (a, b) in r_plain.curve.iter().zip(&r_faulty.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
            assert_eq!(a.mrr.to_bits(), b.mrr.to_bits());
        }
        let (pa, pb) = (plain.global.flatten(), faulty.global.flatten());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
