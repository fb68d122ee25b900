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
//! no `powf`, bit-stable across platforms. State lives in
//! [`FedAdamProtocol`] (one instance per run): the f64 moment vectors and
//! the broadcast stash `θ^t` cloned at selection time. On empty rounds
//! (total dropout) `Δ = 0`: the moments decay and the server still steps
//! deterministically on the decayed momentum.

use crate::engine::run_or_panic;
use crate::protocol::{check_client_fraction, sample_client_fraction, FlProtocol, StepOutcome};
use crate::system::{ClientReturn, FlSystem, RunResult};
use rand::rngs::StdRng;

/// FedAdam hyper-parameters (the FedOpt paper's server-side Adam). Build
/// per-run protocol state with [`FedAdam::protocol`].
#[derive(Clone, Debug)]
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
}

impl Default for FedAdam {
    fn default() -> Self {
        Self {
            server_lr: 0.01,
            beta1: 0.9,
            beta2: 0.99,
            epsilon: 1e-3,
            client_fraction: 1.0,
        }
    }
}

impl FedAdam {
    /// FedAdam with the given server learning rate and the paper's default
    /// moments (β₁ = 0.9, β₂ = 0.99, ε = 1e-3), full participation.
    pub fn new(server_lr: f64) -> Self {
        Self {
            server_lr,
            ..Self::default()
        }
    }

    /// Validate hyper-parameters.
    pub fn validate(&self) -> Result<(), String> {
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

    /// A fresh per-run [`FlProtocol`] state machine for these
    /// hyper-parameters.
    pub fn protocol(&self) -> FedAdamProtocol {
        FedAdamProtocol {
            cfg: self.clone(),
            m: Vec::new(),
            v: Vec::new(),
            beta1_pow: 1.0,
            beta2_pow: 1.0,
            broadcast: Vec::new(),
        }
    }

    /// Run `cfg.rounds` lockstep rounds on the engine.
    ///
    /// # Panics
    ///
    /// On an invalid configuration (see [`FedAdam::validate`]); use
    /// [`run`](crate::run) to handle the error.
    pub fn run(&self, system: &mut FlSystem) -> RunResult {
        run_or_panic("FedAdam", &mut self.protocol(), system)
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
pub fn adam_update(
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

/// Per-run FedAdam state machine (see [`FedAdam::protocol`]).
#[derive(Clone, Debug)]
pub struct FedAdamProtocol {
    cfg: FedAdam,
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

impl FedAdamProtocol {
    /// The server moment vectors `(m, v)` — exposed for the chaos
    /// harness's finiteness checks.
    pub fn moments(&self) -> (&[f64], &[f64]) {
        (&self.m, &self.v)
    }
}

impl FlProtocol for FedAdamProtocol {
    fn name(&self) -> String {
        format!("FedAdam(lr={})", self.cfg.server_lr)
    }

    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
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
        sample_client_fraction(system.num_clients(), self.cfg.client_fraction, rng)
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

    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        _active: &[usize],
        _returns: &[ClientReturn],
        _round: usize,
        _rng: &mut StdRng,
    ) -> StepOutcome {
        let cfg = &self.cfg;
        self.beta1_pow *= cfg.beta1;
        self.beta2_pow *= cfg.beta2;
        let (bias1, bias2) = (1.0 - self.beta1_pow, 1.0 - self.beta2_pow);
        for (k, theta) in system.global.values_mut().iter_mut().enumerate() {
            // Pseudo-gradient: the aggregated model movement this round.
            let delta = f64::from(*theta) - f64::from(self.broadcast[k]);
            let (m, v, step) = adam_update(
                self.m[k],
                self.v[k],
                delta,
                cfg.server_lr,
                cfg.beta1,
                cfg.beta2,
                cfg.epsilon,
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
    use crate::system::tests::tiny_system;

    #[test]
    fn fedadam_trains_and_stays_finite() {
        let mut sys = tiny_system(3, 41);
        let result = FedAdam::default().run(&mut sys);
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
        let mut s1 = tiny_system(3, 42);
        let mut s2 = tiny_system(3, 42);
        let r1 = FedAdam::default().run(&mut s1);
        let r2 = FedAdam::default().run(&mut s2);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
        }
        assert_eq!(s1.global.flatten(), s2.global.flatten());
    }

    #[test]
    fn moments_track_the_pseudo_gradient() {
        let mut sys = tiny_system(2, 43);
        let mut proto = FedAdam::default().protocol();
        crate::run(&crate::RuntimeMode::Sync, &mut proto, &mut sys, None).expect("valid config");
        let (m, v) = proto.moments();
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
    #[should_panic(expected = "invalid FedAdam configuration")]
    fn zero_server_lr_rejected_before_round_zero() {
        let mut sys = tiny_system(2, 44);
        let _ = FedAdam::new(0.0).run(&mut sys);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FedAdam::new(0.01).protocol().name(), "FedAdam(lr=0.01)");
    }
}
