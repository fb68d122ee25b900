//! FedDyn (Acar et al., ICLR 2021): dynamic regularization for federated
//! learning.
//!
//! Each selected client `i` minimises the dynamically-regularised local
//! objective
//!
//! ```text
//! L_i(θ) − ⟨∇̂ᵢ, θ⟩ + α/2·‖θ − θ^t‖²
//! ```
//!
//! where `∇̂ᵢ` is the client's accumulated first-order state and `θ^t` is
//! the round's broadcast, so every gradient step gains
//! `−∇̂ᵢ + α·(θ − θ^t)` — delivered through the
//! [`local_regularizer`](FlProtocol::local_regularizer) hook as a
//! [`LocalPenalty`] with `prox_mu = α` and `linear = −∇̂ᵢ`. After local
//! training the client state telescopes, `∇̂ᵢ ← ∇̂ᵢ − α·(θᵢ − θ^t)`, and
//! the server maintains the correction
//!
//! ```text
//! h ← h − (α/M)·Σ_{i∈P} (θᵢ − θ^t),      θ^{t+1} = avg(θᵢ) − h/α
//! ```
//!
//! (`M` = total client count), which at the fixed point cancels the
//! client-drift bias that plain averaging leaves on non-IID data.
//!
//! State lives in [`FedDynProtocol`] (one instance per run, built by
//! [`FedDyn::protocol`]): per-client `∇̂ᵢ` (`M × |θ|` f32), the server `h`
//! (f64, in `ParamSet::values` order), and the broadcast stash `θ^t`
//! copied at selection time. Under faults only *arrived, admitted fresh*
//! reports update `∇̂ᵢ` and `h` — dropped or rejected clients keep their
//! state, and stale straggler arrivals contribute to averaging but not to
//! the correction (their delta is against an older broadcast).

use crate::engine::run_or_panic;
use crate::protocol::{
    check_client_fraction, sample_client_fraction, FlProtocol, LocalPenalty, StepOutcome,
};
use crate::system::{ClientReturn, FlSystem, RunResult};
use rand::rngs::StdRng;

/// FedDyn hyper-parameters. Build per-run protocol state with
/// [`FedDyn::protocol`].
#[derive(Clone, Debug)]
pub struct FedDyn {
    /// Regularisation strength α (the exemplar implementation's default is
    /// `0.01`; must be strictly positive — the server correction divides
    /// by α).
    pub alpha: f64,
    /// Fraction of clients randomly activated each round.
    pub client_fraction: f64,
}

impl Default for FedDyn {
    fn default() -> Self {
        Self {
            alpha: 0.01,
            client_fraction: 1.0,
        }
    }
}

impl FedDyn {
    /// FedDyn with the given α and full participation.
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha,
            client_fraction: 1.0,
        }
    }

    /// Validate hyper-parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!(
                "alpha must be finite and positive, got {}",
                self.alpha
            ));
        }
        check_client_fraction(self.client_fraction)
    }

    /// A fresh per-run [`FlProtocol`] state machine for these
    /// hyper-parameters (state is sized in `begin`, so one instance serves
    /// exactly one driver run).
    pub fn protocol(&self) -> FedDynProtocol {
        FedDynProtocol {
            cfg: self.clone(),
            h: Vec::new(),
            prev_grads: Vec::new(),
            broadcast: Vec::new(),
        }
    }

    /// Run `cfg.rounds` lockstep rounds on the engine.
    ///
    /// # Panics
    ///
    /// On an invalid configuration (see [`FedDyn::validate`]); use
    /// [`run`](crate::run) to handle the error.
    pub fn run(&self, system: &mut FlSystem) -> RunResult {
        run_or_panic("FedDyn", &mut self.protocol(), system)
    }
}

/// One server `h`-state update:
/// `h[k] ← h[k] − (α/m)·delta_sum[k]`, where `delta_sum` is
/// `Σ_{i∈P}(θᵢ − θ^t)` over the round's admitted participants and `m` is
/// the total client count. Pure helper shared with the property tests —
/// applied round after round, `h` telescopes to `−(α/m)·Σ` of every delta
/// ever admitted.
pub fn update_h(h: &mut [f64], delta_sum: &[f64], alpha: f64, num_clients: usize) {
    debug_assert_eq!(h.len(), delta_sum.len());
    let scale = alpha / (num_clients.max(1) as f64);
    for (hk, &d) in h.iter_mut().zip(delta_sum) {
        *hk -= scale * d;
    }
}

/// Per-run FedDyn state machine (see [`FedDyn::protocol`]).
#[derive(Clone, Debug)]
pub struct FedDynProtocol {
    cfg: FedDyn,
    /// Server correction `h`, `ParamSet::values` order, f64 for stable
    /// accumulation across rounds.
    h: Vec<f64>,
    /// Per-client first-order state `∇̂ᵢ` (zero-initialised, like the
    /// exemplar's `prev_grads`).
    prev_grads: Vec<Vec<f32>>,
    /// Broadcast parameters `θ^t` stashed at selection time — the anchor
    /// for this round's client deltas.
    broadcast: Vec<f32>,
}

impl FedDynProtocol {
    /// The server correction state (values order) — exposed for the chaos
    /// harness's finiteness checks.
    pub fn h_state(&self) -> &[f64] {
        &self.h
    }
}

impl FlProtocol for FedDynProtocol {
    fn name(&self) -> String {
        format!("FedDyn(alpha={})", self.cfg.alpha)
    }

    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
    }

    fn seed_tweak(&self) -> u64 {
        0xFEDD_1509
    }

    fn begin(&mut self, system: &FlSystem, _rng: &mut StdRng) {
        let n = system.global.num_scalars();
        self.h = vec![0.0; n];
        self.prev_grads = vec![vec![0.0; n]; system.num_clients()];
        self.broadcast = system.global.flatten();
    }

    fn select_clients(&mut self, system: &FlSystem, _round: usize, rng: &mut StdRng) -> Vec<usize> {
        // Stash the anchor before anyone trains: post_aggregate's deltas
        // and the client penalties are all against this broadcast.
        self.broadcast.copy_from_slice(system.global.values());
        sample_client_fraction(system.num_clients(), self.cfg.client_fraction, rng)
    }

    fn local_regularizer(
        &mut self,
        _system: &FlSystem,
        client: usize,
        _round: usize,
    ) -> Option<LocalPenalty> {
        // Gradient contribution −∇̂ᵢ + α(θ − θ^t).
        let linear: Vec<f32> = self.prev_grads[client].iter().map(|&g| -g).collect();
        Some(LocalPenalty {
            prox_mu: self.cfg.alpha as f32,
            linear: Some(linear),
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

    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        _active: &[usize],
        returns: &[ClientReturn],
        _round: usize,
        _rng: &mut StdRng,
    ) -> StepOutcome {
        let n = self.h.len();
        let alpha = self.cfg.alpha;
        let mut delta_sum = vec![0.0f64; n];
        for ret in returns {
            let theta = ret.params.values();
            debug_assert_eq!(theta.len(), n);
            let state = &mut self.prev_grads[ret.client];
            for k in 0..n {
                let d = f64::from(theta[k]) - f64::from(self.broadcast[k]);
                delta_sum[k] += d;
                // ∇̂ᵢ ← ∇̂ᵢ − α(θᵢ − θ^t): the state absorbs this round's
                // regularised drift.
                state[k] -= (alpha * d) as f32;
            }
        }
        update_h(&mut self.h, &delta_sum, alpha, system.num_clients());
        // θ^{t+1} = avg(θᵢ) − h/α; the average is already in system.global
        // (the driver aggregated before this hook).
        for (t, &hk) in system.global.values_mut().iter_mut().zip(&self.h) {
            *t = (f64::from(*t) - hk / alpha) as f32;
        }
        StepOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::tiny_system;

    #[test]
    fn feddyn_trains_and_stays_finite() {
        let mut sys = tiny_system(3, 31);
        let result = FedDyn::new(0.01).run(&mut sys);
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
        let mut s1 = tiny_system(3, 32);
        let mut s2 = tiny_system(3, 32);
        let r1 = FedDyn::new(0.01).run(&mut s1);
        let r2 = FedDyn::new(0.01).run(&mut s2);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
        }
        assert_eq!(s1.global.flatten(), s2.global.flatten());
    }

    #[test]
    fn h_state_moves_and_stays_finite() {
        let mut sys = tiny_system(2, 33);
        let mut proto = FedDyn::new(0.5).protocol();
        crate::run(&crate::RuntimeMode::Sync, &mut proto, &mut sys, None).expect("valid config");
        assert!(proto.h_state().iter().all(|h| h.is_finite()));
        assert!(
            proto.h_state().iter().any(|&h| h != 0.0),
            "h must move when clients train"
        );
    }

    #[test]
    fn validation_pins_rejection_messages() {
        assert_eq!(
            FedDyn::new(0.0).validate().unwrap_err(),
            "alpha must be finite and positive, got 0"
        );
        assert_eq!(
            FedDyn::new(-1.0).validate().unwrap_err(),
            "alpha must be finite and positive, got -1"
        );
        assert_eq!(
            FedDyn::new(f64::INFINITY).validate().unwrap_err(),
            "alpha must be finite and positive, got inf"
        );
        let bad_fraction = FedDyn {
            alpha: 0.01,
            client_fraction: 1.5,
        };
        assert_eq!(
            bad_fraction.validate().unwrap_err(),
            "client_fraction must be in (0,1], got 1.5"
        );
        assert!(FedDyn::new(0.01).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid FedDyn configuration")]
    fn zero_alpha_rejected_before_round_zero() {
        let mut sys = tiny_system(2, 34);
        let _ = FedDyn::new(0.0).run(&mut sys);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FedDyn::new(0.01).protocol().name(), "FedDyn(alpha=0.01)");
    }
}
