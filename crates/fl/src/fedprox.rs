//! FedProx (Li et al., MLSys 2020): FedAvg with a μ-proximal term on the
//! local objective.
//!
//! Each selected client minimises `L_i(θ) + μ/2·‖θ − θ^t‖²`, where `θ^t`
//! is the round's broadcast. The proximal term bounds local drift on
//! non-IID data — exactly the heterogeneity regime of the paper's Table 1
//! — without any server-side state. FedProx is therefore stateless
//! between rounds, like [`FedAvg`](crate::FedAvg): selection is a seeded
//! shuffle, masks are full, and the only addition over FedAvg is the
//! [`local_regularizer`](FlProtocol::local_regularizer) hook returning a
//! constant proximal penalty.
//!
//! `μ = 0` is FedAvg: with full participation (`client_fraction = 1`) the
//! run is bit-identical to [`FedAvg::vanilla`](crate::FedAvg::vanilla)'s,
//! because the cohort is every client whichever order the seed tweak
//! shuffles them in. With partial participation FedProx's own seed tweak
//! draws a different cohort, so the two runs differ.

use crate::protocol::{check_client_fraction, sample_client_fraction, FlProtocol, LocalPenalty};
use crate::system::FlSystem;
use rand::rngs::StdRng;

/// FedProx: its configuration, and (having no run state) nothing else.
#[derive(Clone, Debug, PartialEq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::{run_sync, tiny_system, tiny_system_with};

    #[test]
    fn fedprox_trains_and_transmits_everything() {
        let mut sys = tiny_system(3, 21);
        let result = run_sync(
            &mut FedProx {
                mu: 0.01,
                client_fraction: 1.0,
            },
            &mut sys,
        );
        let rounds = sys.config().rounds;
        assert_eq!(result.curve.len(), rounds);
        assert_eq!(
            result.comm.total_uplink_units(),
            rounds * 3 * sys.num_units()
        );
        assert!(result.final_eval.roc_auc > 0.0);
        assert!(sys.global.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn seeded_runs_reproduce() {
        let mut s1 = tiny_system(3, 22);
        let mut s2 = tiny_system(3, 22);
        let r1 = run_sync(
            &mut FedProx {
                mu: 0.05,
                client_fraction: 1.0,
            },
            &mut s1,
        );
        let r2 = run_sync(
            &mut FedProx {
                mu: 0.05,
                client_fraction: 1.0,
            },
            &mut s2,
        );
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
        let mut free = tiny_system_with(3, 23, |cfg| cfg.train.local_epochs = 2);
        let mut pinned = tiny_system_with(3, 23, |cfg| cfg.train.local_epochs = 2);
        let _ = run_sync(
            &mut FedProx {
                mu: 0.0,
                client_fraction: 1.0,
            },
            &mut free,
        );
        let _ = run_sync(
            &mut FedProx {
                mu: 10.0,
                client_fraction: 1.0,
            },
            &mut pinned,
        );
        assert_ne!(free.global.flatten(), pinned.global.flatten());
    }

    #[test]
    fn validation_pins_rejection_messages() {
        assert_eq!(
            FedProx {
                mu: -0.1,
                client_fraction: 1.0
            }
            .validate()
            .unwrap_err(),
            "mu must be finite and non-negative, got -0.1"
        );
        assert_eq!(
            FedProx {
                mu: f64::NAN,
                client_fraction: 1.0
            }
            .validate()
            .unwrap_err(),
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
        assert!(FedProx {
            mu: 0.0,
            client_fraction: 1.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            FedProx {
                mu: 0.01,
                client_fraction: 1.0
            }
            .name(),
            "FedProx(mu=0.01)"
        );
    }
}
