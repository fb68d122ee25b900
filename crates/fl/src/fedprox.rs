//! FedProx (Li et al., MLSys 2020): FedAvg with a μ-proximal term on the
//! local objective.
//!
//! Each selected client minimises `L_i(θ) + μ/2·‖θ − θ^t‖²`, where `θ^t`
//! is the round's broadcast. The proximal term bounds local drift on
//! non-IID data — exactly the heterogeneity regime of the paper's Table 1
//! — without any server-side state. FedProx is therefore stateless
//! between rounds and the config struct implements [`FlProtocol`]
//! directly, like [`FedAvg`](crate::FedAvg): selection is a seeded
//! shuffle, masks are full, and the only addition over FedAvg is the
//! [`local_regularizer`](FlProtocol::local_regularizer) hook returning a
//! constant proximal penalty.
//!
//! `μ = 0` degenerates to FedAvg's objective (but keeps FedProx's own RNG
//! stream tweak, so curves are comparable-by-seed, not bit-identical).

use crate::engine::run_or_panic;
use crate::protocol::{check_client_fraction, sample_client_fraction, FlProtocol, LocalPenalty};
use crate::system::{FlSystem, RunResult};
use rand::rngs::StdRng;

/// FedProx protocol configuration (and, being stateless, the
/// [`FlProtocol`] implementation itself).
#[derive(Clone, Debug)]
pub struct FedProx {
    /// Proximal coefficient μ on `½‖θ − θ^t‖²` (paper sweeps 1e-3…1;
    /// `0` recovers the FedAvg objective).
    pub mu: f64,
    /// Fraction of clients randomly activated each round.
    pub client_fraction: f64,
}

impl Default for FedProx {
    fn default() -> Self {
        Self {
            mu: 0.01,
            client_fraction: 1.0,
        }
    }
}

impl FedProx {
    /// FedProx with the given proximal coefficient and full participation.
    pub fn new(mu: f64) -> Self {
        Self {
            mu,
            client_fraction: 1.0,
        }
    }

    /// Run `cfg.rounds` lockstep rounds on the engine.
    ///
    /// # Panics
    ///
    /// On an invalid configuration (see [`validate`](FlProtocol::validate));
    /// use [`run`](crate::run) to handle the error.
    pub fn run(&self, system: &mut FlSystem) -> RunResult {
        run_or_panic("FedProx", &mut self.clone(), system)
    }
}

/// The FedProx proximal penalty value `μ/2·‖θ − θ_ref‖²` (f64
/// accumulation). Pure helper shared with the property tests: zero exactly
/// at the reference point and linear in μ.
pub fn proximal_term(theta: &[f32], reference: &[f32], mu: f64) -> f64 {
    let sq: f64 = theta
        .iter()
        .zip(reference)
        .map(|(&t, &r)| {
            let d = f64::from(t) - f64::from(r);
            d * d
        })
        .sum();
    0.5 * mu * sq
}

impl FlProtocol for FedProx {
    fn name(&self) -> String {
        format!("FedProx(mu={})", self.mu)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.mu.is_finite() && self.mu >= 0.0) {
            return Err(format!(
                "mu must be finite and non-negative, got {}",
                self.mu
            ));
        }
        check_client_fraction(self.client_fraction)
    }

    fn seed_tweak(&self) -> u64 {
        0xFED9_0B0C
    }

    fn select_clients(&mut self, system: &FlSystem, _round: usize, rng: &mut StdRng) -> Vec<usize> {
        sample_client_fraction(system.num_clients(), self.client_fraction, rng)
    }

    fn local_regularizer(
        &mut self,
        _system: &FlSystem,
        _client: usize,
        _round: usize,
    ) -> Option<LocalPenalty> {
        (self.mu > 0.0).then_some(LocalPenalty {
            prox_mu: self.mu as f32,
            linear: None,
        })
    }

    fn build_masks(
        &mut self,
        system: &FlSystem,
        active: &[usize],
        _round: usize,
        _rng: &mut StdRng,
    ) -> Vec<Vec<bool>> {
        system.full_masks(active.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::tiny_system;

    #[test]
    fn fedprox_trains_and_transmits_everything() {
        let mut sys = tiny_system(3, 21);
        let result = FedProx::new(0.01).run(&mut sys);
        let rounds = sys.config().rounds;
        assert_eq!(result.curve.len(), rounds);
        assert_eq!(
            result.comm.total_uplink_units(),
            rounds * 3 * sys.num_units()
        );
        assert!(result.final_eval.roc_auc > 0.0);
        assert!(!sys.global.has_non_finite());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let mut s1 = tiny_system(3, 22);
        let mut s2 = tiny_system(3, 22);
        let r1 = FedProx::new(0.05).run(&mut s1);
        let r2 = FedProx::new(0.05).run(&mut s2);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
        }
        assert_eq!(s1.global.flatten(), s2.global.flatten());
    }

    #[test]
    fn mu_changes_the_trajectory() {
        // The proximal term must actually reach the local objective: a
        // large μ pins clients near the broadcast and produces different
        // parameters than μ = 0 under the same seed. The penalty gradient
        // is zero at the broadcast anchor, so this needs ≥ 2 local steps
        // per round (the first step starts exactly at the anchor).
        let two_epochs = fedda_hgn::TrainConfig {
            local_epochs: 2,
            lr: 5e-3,
            ..Default::default()
        };
        let mut free = tiny_system(3, 23);
        free.set_train(two_epochs.clone());
        let mut pinned = tiny_system(3, 23);
        pinned.set_train(two_epochs);
        let _ = FedProx::new(0.0).run(&mut free);
        let _ = FedProx::new(10.0).run(&mut pinned);
        assert_ne!(free.global.flatten(), pinned.global.flatten());
    }

    #[test]
    fn validation_pins_rejection_messages() {
        assert_eq!(
            FedProx::new(-0.1).validate().unwrap_err(),
            "mu must be finite and non-negative, got -0.1"
        );
        assert_eq!(
            FedProx::new(f64::NAN).validate().unwrap_err(),
            "mu must be finite and non-negative, got NaN"
        );
        let bad_fraction = FedProx {
            mu: 0.01,
            client_fraction: 0.0,
        };
        assert_eq!(
            bad_fraction.validate().unwrap_err(),
            "client_fraction must be in (0,1], got 0"
        );
        assert!(FedProx::new(0.0).validate().is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FedProx::new(0.01).name(), "FedProx(mu=0.01)");
    }

    #[test]
    fn proximal_term_is_zero_at_reference() {
        let theta = [0.5f32, -1.25, 3.0];
        assert_eq!(proximal_term(&theta, &theta, 0.7), 0.0);
        let reference = [0.0f32, 0.0, 0.0];
        let expected = 0.5 * 0.7 * (0.25 + 1.5625 + 9.0);
        assert!((proximal_term(&theta, &reference, 0.7) - expected).abs() < 1e-12);
    }
}
