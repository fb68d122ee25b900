//! FedOpt (Reddi et al., ICLR 2021): server-side adaptive optimisation —
//! here the FedAdam member of the family.
//!
//! Clients run plain FedAvg-style local training; the server treats the
//! aggregated model movement as a pseudo-gradient
//! `Δ^t = avg(θᵢ) − θ^t` and applies one bias-corrected Adam step to the
//! global parameters in
//! [`post_aggregate`](crate::FlProtocol::post_aggregate):
//!
//! ```text
//! m ← β₁·m + (1−β₁)·Δ       v ← β₂·v + (1−β₂)·Δ²
//! θ^{t+1} = θ^t + η_s · m̂ / (√v̂ + ε)
//! ```
//!
//! with `m̂ = m/(1−β₁^t)`, `v̂ = v/(1−β₂^t)`. The bias-correction powers
//! are maintained by repeated multiplication (like the async driver's
//! `γ^staleness`), so the update is a pure function of the round history —
//! no `powf`, bit-stable across platforms. The run state sits beside the
//! hyper-parameters in [`FedAdam`] (sized by `begin`): the f64 moment
//! vectors and the broadcast stash `θ^t` cloned at selection time. On empty rounds
//! (total dropout) `Δ = 0`: the moments decay and the server still steps
//! deterministically on the decayed momentum.

use crate::protocol::{check_client_fraction, sample_client_fraction, FlProtocol, StepOutcome};
use crate::system::{ClientReturn, FlSystem};
use rand::rngs::StdRng;

/// FedAdam (the FedOpt paper's server-side Adam): its hyper-parameters
/// and its per-run state (sized by `begin`, so one value serves one
/// [`run`](crate::run) at a time).
#[derive(Clone, Debug, PartialEq)]
pub struct FedAdam {
    /// Server learning rate `η_s` on the pseudo-gradient.
    pub server_lr: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Adaptivity floor ε (the FedOpt paper uses a much larger ε than
    /// client-side Adam — `1e-3` by default here).
    pub epsilon: f64,
    /// Fraction of clients randomly activated each round.
    pub client_fraction: f64,
    /// First moment, `ParamSet::values` order.
    m: Vec<f64>,
    /// Second moment.
    v: Vec<f64>,
    /// Running β₁^t (repeated product — no `powf`).
    beta1_pow: f64,
    /// Running β₂^t.
    beta2_pow: f64,
    /// Broadcast parameters `θ^t` stashed at selection time.
    broadcast: Vec<f32>,
}

impl Default for FedAdam {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl FedAdam {
    /// FedAdam with the given server learning rate and the paper's default
    /// moments (β₁ = 0.9, β₂ = 0.99, ε = 1e-3), full participation.
    pub fn new(server_lr: f64) -> Self {
        Self {
            server_lr,
            beta1: 0.9,
            beta2: 0.99,
            epsilon: 1e-3,
            client_fraction: 1.0,
            m: Vec::new(),
            v: Vec::new(),
            beta1_pow: 1.0,
            beta2_pow: 1.0,
            broadcast: Vec::new(),
        }
    }
}

/// One bias-corrected scalar Adam update on a pseudo-gradient `delta`:
/// returns the updated `(m, v, step)` where `step` is the parameter
/// increment `lr·m̂/(√v̂ + ε)`. `bias1`/`bias2` are the correction
/// denominators `1 − β₁^t` / `1 − β₂^t` of the *current* step. Pure helper
/// — the protocol applies exactly this function per scalar, and the
/// property tests check it against an independent reference.
#[allow(
    clippy::too_many_arguments,
    reason = "the scalar Adam recurrence: moments, step, four hyper-parameters and two bias terms, each a plain f64"
)]
fn adam_update(
    m: f64,
    v: f64,
    delta: f64,
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    bias1: f64,
    bias2: f64,
) -> (f64, f64, f64) {
    let m_next = beta1 * m + (1.0 - beta1) * delta;
    let v_next = beta2 * v + (1.0 - beta2) * delta * delta;
    let m_hat = m_next / bias1;
    let v_hat = v_next / bias2;
    (m_next, v_next, lr * m_hat / (v_hat.sqrt() + epsilon))
}

impl FlProtocol for FedAdam {
    fn name(&self) -> String {
        format!("FedAdam(lr={})", self.server_lr)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.server_lr.is_finite() && self.server_lr > 0.0) {
            return Err(format!(
                "server_lr must be finite and positive, got {}",
                self.server_lr
            ));
        }
        if !(self.beta1 >= 0.0 && self.beta1 < 1.0) {
            return Err(format!("beta1 must be in [0,1), got {}", self.beta1));
        }
        if !(self.beta2 >= 0.0 && self.beta2 < 1.0) {
            return Err(format!("beta2 must be in [0,1), got {}", self.beta2));
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(format!(
                "epsilon must be finite and positive, got {}",
                self.epsilon
            ));
        }
        check_client_fraction(self.client_fraction)
    }

    fn seed_tweak(&self) -> u64 {
        0xFED0_ADA3
    }

    fn begin(&mut self, system: &FlSystem, _rng: &mut StdRng) {
        let n = system.global.num_scalars();
        self.m = vec![0.0; n];
        self.v = vec![0.0; n];
        self.beta1_pow = 1.0;
        self.beta2_pow = 1.0;
        self.broadcast = system.global.flatten();
    }

    fn select_clients(&mut self, system: &FlSystem, _round: usize, rng: &mut StdRng) -> Vec<usize> {
        self.broadcast.copy_from_slice(system.global.values());
        sample_client_fraction(system.num_clients(), self.client_fraction, rng)
    }

    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        _active: &[usize],
        _returns: &[ClientReturn],
        _round: usize,
        _rng: &mut StdRng,
    ) -> StepOutcome {
        self.beta1_pow *= self.beta1;
        self.beta2_pow *= self.beta2;
        let (bias1, bias2) = (1.0 - self.beta1_pow, 1.0 - self.beta2_pow);
        for (k, theta) in system.global.values_mut().iter_mut().enumerate() {
            // Pseudo-gradient: the aggregated model movement this round.
            let delta = f64::from(*theta) - f64::from(self.broadcast[k]);
            let (m, v, step) = adam_update(
                self.m[k],
                self.v[k],
                delta,
                self.server_lr,
                self.beta1,
                self.beta2,
                self.epsilon,
                bias1,
                bias2,
            );
            self.m[k] = m;
            self.v[k] = v;
            *theta = (f64::from(self.broadcast[k]) + step) as f32;
        }
        StepOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::{run_sync, tiny_system};
    use proptest::prelude::*;

    #[test]
    fn fedadam_trains_and_stays_finite() {
        let mut sys = tiny_system(3, 41);
        let result = run_sync(&mut FedAdam::default(), &mut sys);
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
        let mut s1 = tiny_system(3, 42);
        let mut s2 = tiny_system(3, 42);
        let r1 = run_sync(&mut FedAdam::default(), &mut s1);
        let r2 = run_sync(&mut FedAdam::default(), &mut s2);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
        }
        assert_eq!(s1.global.flatten(), s2.global.flatten());
    }

    #[test]
    fn moments_track_the_pseudo_gradient() {
        let mut sys = tiny_system(2, 43);
        let mut proto = FedAdam::default();
        crate::run(&crate::RuntimeMode::Sync, &mut proto, &mut sys, None).expect("valid config");
        let (m, v) = (&proto.m, &proto.v);
        assert!(m.iter().all(|x| x.is_finite()));
        assert!(v.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!(
            m.iter().any(|&x| x != 0.0),
            "first moment must move when clients train"
        );
    }

    #[test]
    fn validation_pins_rejection_messages() {
        assert_eq!(
            FedAdam::new(0.0).validate().unwrap_err(),
            "server_lr must be finite and positive, got 0"
        );
        let bad = FedAdam {
            beta1: 1.0,
            ..FedAdam::default()
        };
        assert_eq!(bad.validate().unwrap_err(), "beta1 must be in [0,1), got 1");
        let bad = FedAdam {
            beta2: f64::NAN,
            ..FedAdam::default()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            "beta2 must be in [0,1), got NaN"
        );
        let bad = FedAdam {
            epsilon: 0.0,
            ..FedAdam::default()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            "epsilon must be finite and positive, got 0"
        );
        let bad = FedAdam {
            epsilon: f64::INFINITY,
            ..FedAdam::default()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            "epsilon must be finite and positive, got inf"
        );
        assert!(FedAdam::default().validate().is_ok());
    }

    #[test]
    #[should_panic(
        expected = "invalid FedAdam(lr=0) configuration: server_lr must be finite and positive, got 0"
    )]
    fn zero_server_lr_rejected_before_round_zero() {
        let mut sys = tiny_system(2, 44);
        let _ = run_sync(&mut FedAdam::new(0.0), &mut sys);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FedAdam::new(0.01).name(), "FedAdam(lr=0.01)");
    }

    proptest! {
        #[test]
        fn adam_moments_stay_finite_and_match_the_scalar_reference(
            deltas in prop::collection::vec(-1e3f64..1e3, 1..50),
            lr in 1e-4f64..1.0,
            beta1 in 0.0f64..0.999,
            beta2 in 0.0f64..0.999,
            epsilon in 1e-8f64..1e-2,
        ) {
            // Drive one scalar coordinate through T rounds of adam_update and
            // check the moments against the closed-form EMA (powi-based bias
            // correction), staying finite throughout.
            let mut m = 0.0f64;
            let mut v = 0.0f64;
            for (t, &delta) in deltas.iter().enumerate() {
                let steps = (t + 1) as i32;
                let bias1 = 1.0 - beta1.powi(steps);
                let bias2 = 1.0 - beta2.powi(steps);
                let (m_next, v_next, step) =
                    adam_update(m, v, delta, lr, beta1, beta2, epsilon, bias1, bias2);
                // Reference EMA recursion, computed independently.
                let m_ref = beta1 * m + (1.0 - beta1) * delta;
                let v_ref = beta2 * v + (1.0 - beta2) * delta * delta;
                prop_assert_eq!(m_next.to_bits(), m_ref.to_bits());
                prop_assert_eq!(v_next.to_bits(), v_ref.to_bits());
                let step_ref = lr * (m_ref / bias1) / ((v_ref / bias2).sqrt() + epsilon);
                prop_assert_eq!(step.to_bits(), step_ref.to_bits());
                prop_assert!(m_next.is_finite() && v_next.is_finite() && step.is_finite());
                prop_assert!(v_next >= 0.0, "second moment went negative: {v_next}");
                // The bias-corrected step is bounded by lr·|m̂|/ε.
                prop_assert!(step.abs() <= lr * (m_ref / bias1).abs() / epsilon + 1e-12);
                m = m_next;
                v = v_next;
            }
        }
    }
}
