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
//! The run state sits beside the hyper-parameters in [`FedDyn`] (sized by
//! `begin`): per-client `∇̂ᵢ` (`M × |θ|` f32), the server `h` (f64, in
//! `ParamSet::values` order), and the broadcast stash `θ^t` copied at
//! selection time. Under faults only *arrived, admitted fresh* reports
//! update `∇̂ᵢ` and `h` — dropped or rejected clients keep their
//! state, and stale straggler arrivals contribute to averaging but not to
//! the correction (their delta is against an older broadcast).

use crate::protocol::{
    check_client_fraction, sample_client_fraction, FlProtocol, LocalPenalty, StepOutcome,
};
use crate::system::{ClientReturn, FlSystem};
use rand::rngs::StdRng;

/// FedDyn: its hyper-parameters and its per-run state (sized by `begin`,
/// so one value serves one [`run`](crate::run) at a time).
#[derive(Clone, Debug, PartialEq)]
pub struct FedDyn {
    /// Regularisation strength α (the exemplar implementation's default is
    /// `0.01`; must be strictly positive — the server correction divides
    /// by α).
    pub alpha: f64,
    /// Fraction of clients randomly activated each round.
    pub client_fraction: f64,
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

impl Default for FedDyn {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl FedDyn {
    /// FedDyn with the given α and full participation.
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha,
            client_fraction: 1.0,
            h: Vec::new(),
            prev_grads: Vec::new(),
            broadcast: Vec::new(),
        }
    }
}

/// One server `h`-state update:
/// `h[k] ← h[k] − (α/m)·delta_sum[k]`, where `delta_sum` is
/// `Σ_{i∈P}(θᵢ − θ^t)` over the round's admitted participants and `m` is
/// the total client count. Pure helper shared with the property tests —
/// applied round after round, `h` telescopes to `−(α/m)·Σ` of every delta
/// ever admitted.
fn update_h(h: &mut [f64], delta_sum: &[f64], alpha: f64, num_clients: usize) {
    debug_assert_eq!(h.len(), delta_sum.len());
    let scale = alpha / (num_clients.max(1) as f64);
    for (hk, &d) in h.iter_mut().zip(delta_sum) {
        *hk -= scale * d;
    }
}

impl FlProtocol for FedDyn {
    fn name(&self) -> String {
        format!("FedDyn(alpha={})", self.alpha)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!(
                "alpha must be finite and positive, got {}",
                self.alpha
            ));
        }
        check_client_fraction(self.client_fraction)
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
        sample_client_fraction(system.num_clients(), self.client_fraction, rng)
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
            prox_mu: self.alpha as f32,
            linear: Some(linear),
        })
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
        let alpha = self.alpha;
        let mut delta_sum = vec![0.0f64; n];
        let mut scratch = Vec::new();
        for ret in returns {
            let state = &mut self.prev_grads[ret.client];
            for id in system.global.ids() {
                let theta = ret.unit(id, &mut scratch);
                let range = system.global.range(id);
                debug_assert_eq!(theta.len(), range.len());
                for (k, &t) in range.zip(theta) {
                    let d = f64::from(t) - f64::from(self.broadcast[k]);
                    delta_sum[k] += d;
                    // ∇̂ᵢ ← ∇̂ᵢ − α(θᵢ − θ^t): the state absorbs this round's
                    // regularised drift.
                    state[k] -= (alpha * d) as f32;
                }
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
    use crate::system::tests::{run_sync, tiny_system};
    use proptest::prelude::*;

    #[test]
    fn feddyn_trains_and_stays_finite() {
        let mut sys = tiny_system(3, 31);
        let result = run_sync(&mut FedDyn::new(0.01), &mut sys);
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
        let mut s1 = tiny_system(3, 32);
        let mut s2 = tiny_system(3, 32);
        let r1 = run_sync(&mut FedDyn::new(0.01), &mut s1);
        let r2 = run_sync(&mut FedDyn::new(0.01), &mut s2);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
        }
        assert_eq!(s1.global.flatten(), s2.global.flatten());
    }

    #[test]
    fn h_state_moves_and_stays_finite() {
        let mut sys = tiny_system(2, 33);
        let mut proto = FedDyn::new(0.5);
        crate::run(&crate::RuntimeMode::Sync, &mut proto, &mut sys, None).expect("valid config");
        assert!(proto.h.iter().all(|h| h.is_finite()));
        assert!(
            proto.h.iter().any(|&h| h != 0.0),
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
            client_fraction: 1.5,
            ..FedDyn::new(0.01)
        };
        assert_eq!(
            bad_fraction.validate().unwrap_err(),
            "client_fraction must be in (0,1], got 1.5"
        );
        assert!(FedDyn::new(0.01).validate().is_ok());
    }

    #[test]
    #[should_panic(
        expected = "invalid FedDyn(alpha=0) configuration: alpha must be finite and positive, got 0"
    )]
    fn zero_alpha_rejected_before_round_zero() {
        let mut sys = tiny_system(2, 34);
        let _ = run_sync(&mut FedDyn::new(0.0), &mut sys);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FedDyn::new(0.01).name(), "FedDyn(alpha=0.01)");
    }

    proptest! {
        #[test]
        fn feddyn_h_updates_telescope(
            deltas in prop::collection::vec(
                prop::collection::vec(-100.0f64..100.0, 4), 1..20,
            ),
            alpha in 1e-3f64..10.0,
            clients in 1usize..16,
        ) {
            // Applying the per-round h update sequentially over T rounds must
            // telescope: h_T = −α/m · Σ_t Σ_k delta_t[k], per coordinate.
            let dim = deltas[0].len();
            let mut h = vec![0.0f64; dim];
            for delta_sum in &deltas {
                update_h(&mut h, delta_sum, alpha, clients);
            }
            for k in 0..dim {
                let total: f64 = deltas.iter().map(|d| d[k]).sum();
                let expected = -alpha / (clients as f64) * total;
                prop_assert!((h[k] - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                    "h[{k}] = {} does not telescope to {expected}", h[k]);
                prop_assert!(h[k].is_finite());
            }
        }
    }
}
