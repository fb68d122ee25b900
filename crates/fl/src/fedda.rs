//! FedDA — dynamic activation of clients and parameters (Algorithm 1).
//!
//! Per round `t`:
//!
//! 1. the server broadcasts the global model to the activated clients
//!    `D_A^(t)` together with their request masks `I^(t)`;
//! 2. activated clients run `E` local epochs and return the requested
//!    parameter units;
//! 3. the server averages each unit over the clients that returned it
//!    (Eq. 6), keeping the previous value for unrequested units;
//! 4. for every *disentangled* unit `k ∈ [N_d]`, clients whose returned
//!    gradient was below the per-unit mean are not asked for `k` next round
//!    (§5.3, Eq. 7);
//! 5. clients whose remaining active units fall below `α · N_d` are
//!    deactivated (§5.3);
//! 6. a reactivation strategy restores exploration: `Restart` (Alg. 2)
//!    resets everything when fewer than `β_r · M` clients remain, `Explore`
//!    (Alg. 3) tops the active set back up to `β_e · M` with randomly
//!    chosen deactivated clients, skipping those deactivated this round.
//!
//! Steps 1–3 are the shared round loop owned by the engine
//! ([`run`](crate::run)); steps 4–6 are FedDA's
//! [`FlProtocol`] hooks, implemented on [`FedDaProtocol`] (the per-run
//! state machine [`FedDa::protocol`] creates).

use crate::engine::run_or_panic;
use crate::faults::FaultObserved;
use crate::protocol::{FlProtocol, StepOutcome};
use crate::system::{ClientReturn, FlSystem, RunResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Client reactivation strategy (§5.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reactivation {
    /// Reset to all clients / all parameters when fewer than `beta_r * M`
    /// clients would be active next round.
    Restart {
        /// The `β_r` threshold in `(0, 1)`.
        beta_r: f64,
    },
    /// Keep at least `beta_e * M` clients active by randomly re-admitting
    /// deactivated clients (with a one-round cool-down for clients
    /// deactivated this round).
    Explore {
        /// The `β_e` threshold in `(0, 1)`.
        beta_e: f64,
    },
}

/// How the server decides a client's contribution to a unit was "trivial"
/// (step 4 above).
///
/// The paper fixes the threshold at the mean and explicitly leaves "other
/// settings to future work" (§5.3, footnote 2); the quantile and median
/// variants implement that future work and are compared in the `ablations`
/// bench.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum MaskRule {
    /// §5.3's prose rule (our default): deactivate unit `k` for client `i`
    /// when the L2 magnitude of its returned update for `k` is below the
    /// mean magnitude over the clients that returned `k` this round.
    #[default]
    GradientMean,
    /// Deactivate contributors below the median returned-gradient magnitude
    /// (exactly half the contributors survive each round).
    GradientMedian,
    /// Deactivate contributors below the `q`-quantile of returned-gradient
    /// magnitudes (`q = 0` disables masking, `q → 1` keeps only the single
    /// strongest contributor).
    GradientQuantile(
        /// The quantile in `[0, 1)`.
        f64,
    ),
    /// Eq. 7 as literally printed: deactivate when the aggregated value
    /// exceeds the client's returned value (compared via unit means, since
    /// our units are tensors).
    LiteralEq7,
}

impl MaskRule {
    /// The deactivation threshold over a set of contribution magnitudes,
    /// or `None` when the rule is not threshold-based.
    fn threshold(&self, magnitudes: &[f32]) -> Option<f32> {
        match *self {
            MaskRule::GradientMean => {
                Some(magnitudes.iter().sum::<f32>() / magnitudes.len() as f32)
            }
            MaskRule::GradientMedian => Some(quantile(magnitudes, 0.5)),
            MaskRule::GradientQuantile(q) => {
                // Range is enforced by `FedDa::validate()` before a run
                // starts; this is only a tripwire for callers that skip it.
                debug_assert!((0.0..1.0).contains(&q), "quantile must be in [0,1)");
                Some(quantile(magnitudes, q))
            }
            MaskRule::LiteralEq7 => None,
        }
    }
}

/// The `q`-quantile of a non-empty slice (linear interpolation between
/// order statistics).
fn quantile(values: &[f32], q: f64) -> f32 {
    debug_assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = (pos - lo as f64) as f32;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// A unit's mean value, as `Matrix::mean` takes it: one `f32` sum chain,
/// then the division (0.0 for an empty unit).
fn unit_mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// FedDA hyper-parameters.
///
/// ```no_run
/// use fedda_fl::{FedDa, MaskRule, Reactivation};
/// // The paper's FedDA 2 with a custom exploration floor and the
/// // footnote-2 quantile threshold:
/// let fedda = FedDa {
///     strategy: Reactivation::Explore { beta_e: 0.5 },
///     alpha: 0.5,
///     mask_rule: MaskRule::GradientQuantile(0.4),
///     explore_cooldown: true,
/// };
/// assert!(fedda.validate().is_ok());
/// // fedda.run(&mut system) drives the federation.
/// ```
#[derive(Clone, Debug)]
pub struct FedDa {
    /// Reactivation strategy (the paper's FedDA 1 = `Restart`, FedDA 2 =
    /// `Explore`).
    pub strategy: Reactivation,
    /// Occupancy threshold `α`: a client keeping fewer than `α · N_d`
    /// active disentangled units is deactivated.
    pub alpha: f64,
    /// Mask-update rule.
    pub mask_rule: MaskRule,
    /// One-round cool-down before a just-deactivated client may be
    /// re-explored (§5.2; the ablation turns this off).
    pub explore_cooldown: bool,
}

impl FedDa {
    /// FedDA 1: `Restart` with the paper's best hyper-parameters
    /// (`β_r = 0.4`, `α = 0.5`).
    pub fn restart() -> Self {
        Self {
            strategy: Reactivation::Restart { beta_r: 0.4 },
            alpha: 0.5,
            mask_rule: MaskRule::default(),
            explore_cooldown: true,
        }
    }

    /// FedDA 2: `Explore` with the paper's best hyper-parameters
    /// (`β_e = 0.667`, `α = 0.5`).
    pub fn explore() -> Self {
        Self {
            strategy: Reactivation::Explore { beta_e: 0.667 },
            alpha: 0.5,
            mask_rule: MaskRule::default(),
            explore_cooldown: true,
        }
    }

    /// Validate hyper-parameters.
    pub fn validate(&self) -> Result<(), String> {
        let beta = match self.strategy {
            Reactivation::Restart { beta_r } => beta_r,
            Reactivation::Explore { beta_e } => beta_e,
        };
        // β ∈ (0,1), exclusive on both ends: β = 0 would disable
        // reactivation entirely, which the docs rule out.
        if beta <= 0.0 || beta >= 1.0 || beta.is_nan() {
            return Err(format!("beta must be in (0,1), got {beta}"));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if let MaskRule::GradientQuantile(q) = self.mask_rule {
            if !(0.0..1.0).contains(&q) {
                return Err(format!("mask quantile must be in [0,1), got {q}"));
            }
        }
        Ok(())
    }

    /// A fresh per-run [`FlProtocol`] state machine for these
    /// hyper-parameters (state is sized in `begin`, so one instance serves
    /// exactly one [`run`](crate::run)).
    pub fn protocol(&self) -> FedDaProtocol {
        FedDaProtocol {
            cfg: self.clone(),
            active: Vec::new(),
            masks: Vec::new(),
            disentangled: Vec::new(),
            n_d: 0,
            faulted: Vec::new(),
        }
    }

    /// Run `cfg.rounds` lockstep rounds of FedDA on the engine.
    ///
    /// # Panics
    ///
    /// On an invalid configuration (see [`FedDa::validate`]); use
    /// [`run`](crate::run) to handle the error.
    pub fn run(&self, system: &mut FlSystem) -> RunResult {
        run_or_panic("FedDA", &mut self.protocol(), system)
    }

    /// Step 4 of the round: update request masks from the returned
    /// gradients. Only units a client actually returned this round
    /// (`mask[i][k]` was set) are re-scored; deactivated units stay off
    /// until a reactivation resets them (Eq. 7's "otherwise keep" branch).
    fn update_masks(
        &self,
        system: &FlSystem,
        returns: &[ClientReturn],
        masks: &mut [Vec<bool>],
        disentangled: &[bool],
    ) {
        let n = disentangled.len();
        for (k, &is_d) in disentangled.iter().enumerate().take(n) {
            if !is_d {
                continue;
            }
            match self.mask_rule {
                MaskRule::LiteralEq7 => {
                    let id = fedda_tensor::ParamId::from_index(k);
                    let agg_mean = unit_mean(system.global.unit(id));
                    for r in returns {
                        if masks[r.client][k] {
                            let client_mean = unit_mean(r.params.unit(id));
                            if agg_mean > client_mean {
                                masks[r.client][k] = false;
                            }
                        }
                    }
                }
                rule => {
                    // Threshold over returned-gradient magnitudes of this
                    // round's contributors.
                    let contributions: Vec<(usize, f32)> = returns
                        .iter()
                        .filter(|r| masks[r.client][k])
                        .map(|r| (r.client, r.unit_delta[k]))
                        .collect();
                    if contributions.len() < 2 {
                        continue; // a single contributor is never below threshold
                    }
                    let magnitudes: Vec<f32> = contributions.iter().map(|&(_, d)| d).collect();
                    let Some(threshold) = rule.threshold(&magnitudes) else {
                        continue; // LiteralEq7 is handled by the arm above
                    };
                    for &(client, delta) in &contributions {
                        if delta < threshold {
                            masks[client][k] = false;
                        }
                    }
                }
            }
        }
    }
}

/// FedDA's per-run [`FlProtocol`] state machine: the activation flags and
/// request masks `D_A^(t)` / `I^(t)` of Algorithm 1, evolved by the
/// post-aggregation hook. Created by [`FedDa::protocol`].
pub struct FedDaProtocol {
    cfg: FedDa,
    /// `D_A^(t)`: which clients are activated for the next round.
    active: Vec<bool>,
    /// `I^(t)`: per-client request masks for the next round.
    masks: Vec<Vec<bool>>,
    /// Per-unit flag: is the unit disentangled (`k ∈ [N_d]`)?
    disentangled: Vec<bool>,
    /// `N_d`.
    n_d: usize,
    /// Clients deactivated this round by observed faults (dropouts, held
    /// stragglers, rejected corruptions) via `on_faults`; merged into the
    /// round's deactivation outcome and the explore cool-down, then
    /// cleared.
    faulted: Vec<usize>,
}

impl FlProtocol for FedDaProtocol {
    fn name(&self) -> String {
        match self.cfg.strategy {
            Reactivation::Restart { .. } => "FedDA 1 (Restart)".into(),
            Reactivation::Explore { .. } => "FedDA 2 (Explore)".into(),
        }
    }

    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
    }

    fn seed_tweak(&self) -> u64 {
        0xDA_DA_DA
    }

    fn traces_activation(&self) -> bool {
        true
    }

    fn begin(&mut self, system: &FlSystem, _rng: &mut StdRng) {
        let m = system.num_clients();
        let n = system.num_units();
        self.disentangled = {
            let ids = system.disentangled_ids();
            let mut v = vec![false; n];
            for id in ids {
                v[id.index()] = true;
            }
            v
        };
        self.n_d = self.disentangled.iter().filter(|&&d| d).count();
        // D_A^(0) = D, I^(0) = 1 (Algorithm 1 initialisation).
        self.active = vec![true; m];
        self.masks = vec![vec![true; n]; m];
        self.faulted = Vec::new();
    }

    fn on_faults(&mut self, _system: &FlSystem, faults: &[FaultObserved], _round: usize) {
        // A client that failed to contribute a usable fresh report is
        // inactive as far as the activation machinery is concerned — it
        // must re-enter through Restart/Explore like any deactivated
        // client, so real dropouts exercise the reactivation paths.
        for f in faults {
            if f.is_client_failure() && self.active[f.client] {
                self.active[f.client] = false;
                self.faulted.push(f.client);
            }
        }
    }

    fn select_clients(
        &mut self,
        system: &FlSystem,
        _round: usize,
        _rng: &mut StdRng,
    ) -> Vec<usize> {
        let active: Vec<usize> = (0..system.num_clients())
            .filter(|&i| self.active[i])
            .collect();
        debug_assert!(!active.is_empty(), "active set must never be empty");
        active
    }

    fn build_masks(
        &mut self,
        _system: &FlSystem,
        active: &[usize],
        _round: usize,
        _rng: &mut StdRng,
    ) -> Vec<Vec<bool>> {
        active.iter().map(|&i| self.masks[i].clone()).collect()
    }

    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        active: &[usize],
        returns: &[ClientReturn],
        _round: usize,
        rng: &mut StdRng,
    ) -> StepOutcome {
        let m = system.num_clients();
        let mut outcome = StepOutcome::default();

        // Step 4: per-unit mask update for disentangled units.
        self.cfg
            .update_masks(system, returns, &mut self.masks, &self.disentangled);

        // Step 5: deactivate under-occupied clients. Clients already
        // deactivated by this round's faults (`on_faults`) are skipped —
        // they are out regardless of occupancy.
        let mut just_deactivated = self.faulted.clone();
        if self.n_d > 0 {
            for &i in active {
                if !self.active[i] {
                    continue;
                }
                let kept = self.masks[i]
                    .iter()
                    .zip(&self.disentangled)
                    .filter(|&(&mk, &d)| d && mk)
                    .count();
                if (kept as f64) < self.cfg.alpha * self.n_d as f64 {
                    self.active[i] = false;
                    just_deactivated.push(i);
                }
            }
        }
        just_deactivated.sort_unstable();
        just_deactivated.dedup();
        self.faulted.clear();
        outcome.deactivated = just_deactivated.clone();

        // Step 6: reactivation.
        match self.cfg.strategy {
            Reactivation::Restart { beta_r } => {
                let n_active = self.active.iter().filter(|&&a| a).count();
                if (n_active as f64) < beta_r * m as f64 {
                    outcome.restarted = true;
                    outcome.reactivated = (0..m).filter(|&i| !self.active[i]).collect();
                    self.active.iter_mut().for_each(|a| *a = true);
                    for mask in &mut self.masks {
                        mask.iter_mut().for_each(|b| *b = true);
                    }
                }
            }
            Reactivation::Explore { beta_e } => {
                let target = ((beta_e * m as f64).round() as usize).clamp(1, m);
                let n_active = self.active.iter().filter(|&&a| a).count();
                if n_active < target {
                    let mut pool: Vec<usize> = (0..m)
                        .filter(|&i| {
                            let cooling =
                                self.cfg.explore_cooldown && just_deactivated.contains(&i);
                            !self.active[i] && !cooling
                        })
                        .collect();
                    pool.shuffle(rng);
                    for &i in pool.iter().take(target - n_active) {
                        self.active[i] = true;
                        self.masks[i].iter_mut().for_each(|b| *b = true);
                        outcome.reactivated.push(i);
                    }
                }
            }
        }
        // Safety net: never enter a round with an empty active set
        // (possible when alpha is aggressive and beta small — e.g.
        // Explore with cool-down, where every candidate in the pool was
        // deactivated this very round). The full reset is a restart, and
        // the trace must say so: without recording it, the next round's
        // snapshot would show clients active that were never listed as
        // reactivated.
        if self.active.iter().all(|&a| !a) {
            outcome.restarted = true;
            for i in 0..m {
                if !outcome.reactivated.contains(&i) {
                    outcome.reactivated.push(i);
                }
            }
            self.active.iter_mut().for_each(|a| *a = true);
            for mask in &mut self.masks {
                mask.iter_mut().for_each(|b| *b = true);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedavg::FedAvg;
    use crate::system::tests::tiny_system;

    #[test]
    fn fedda_restart_runs_and_saves_uplink() {
        let mut sys = tiny_system(4, 21);
        let fedavg_total = {
            let mut s2 = tiny_system(4, 21);
            FedAvg::vanilla().run(&mut s2).comm.total_uplink_units()
        };
        let result = FedDa::restart().run(&mut sys);
        assert_eq!(result.curve.len(), sys.config().rounds);
        assert!(
            result.comm.total_uplink_units() <= fedavg_total,
            "FedDA must not transmit more than FedAvg ({} vs {fedavg_total})",
            result.comm.total_uplink_units()
        );
    }

    #[test]
    fn fedda_explore_keeps_minimum_active_set() {
        let mut sys = tiny_system(6, 22);
        let fedda = FedDa::explore();
        let result = fedda.run(&mut sys);
        // β_e = 0.667 of 6 = 4: every round after masks shrink must still
        // activate ≥ 4 clients... except round 0 which activates all 6.
        for rc in result.comm.rounds() {
            assert!(
                rc.active_clients >= 4,
                "explore floor violated: {}",
                rc.active_clients
            );
        }
    }

    #[test]
    fn masks_shrink_after_first_round() {
        let mut sys = tiny_system(4, 23);
        let fedda = FedDa::explore();
        let result = fedda.run(&mut sys);
        let rounds = result.comm.rounds();
        // Round 0 transmits everything; later rounds transmit less (per
        // active client) because disentangled units get masked.
        let per_client_0 = rounds[0].uplink_units as f64 / rounds[0].active_clients as f64;
        let per_client_1 = rounds[1].uplink_units as f64 / rounds[1].active_clients as f64;
        assert!(
            per_client_1 < per_client_0,
            "{per_client_1} !< {per_client_0}"
        );
    }

    #[test]
    fn literal_eq7_rule_also_runs() {
        let mut sys = tiny_system(3, 24);
        let mut fedda = FedDa::restart();
        fedda.mask_rule = MaskRule::LiteralEq7;
        let result = fedda.run(&mut sys);
        assert_eq!(result.curve.len(), sys.config().rounds);
    }

    #[test]
    fn single_client_fedda_degenerates_to_fedavg() {
        // With M = 1 every unit has a single contributor, so the
        // gradient-mean rule never masks anything and the federation is
        // exactly FedAvg with one client.
        let mut sys_da = tiny_system(1, 29);
        let fedda = FedDa::explore().run(&mut sys_da);
        let mut sys_avg = tiny_system(1, 29);
        let fedavg = crate::FedAvg::vanilla().run(&mut sys_avg);
        assert_eq!(
            fedda.comm.total_uplink_units(),
            fedavg.comm.total_uplink_units()
        );
        for (a, b) in fedda.curve.iter().zip(&fedavg.curve) {
            assert_eq!(a.roc_auc, b.roc_auc, "round {}", a.round);
        }
        assert_eq!(sys_da.global.flatten(), sys_avg.global.flatten());
    }

    /// Invariants every FedDA activation trace must satisfy.
    fn check_trace(result: &crate::system::RunResult, rounds: usize) {
        assert_eq!(result.activation_trace.len(), rounds);
        for snap in &result.activation_trace {
            assert!(!snap.active_clients.is_empty());
            assert!((0.0..=1.0).contains(&snap.mask_density));
            // deactivated clients were active this round
            for d in &snap.deactivated {
                assert!(snap.active_clients.contains(d));
            }
            // reactivated clients were inactive at reactivation time
            for r in &snap.reactivated {
                assert!(!snap.active_clients.contains(r) || snap.restarted);
            }
        }
    }

    #[test]
    fn activation_trace_is_consistent() {
        let mut sys = tiny_system(5, 28);
        let result = FedDa::explore().run(&mut sys);
        let first = &result.activation_trace[0];
        assert_eq!(first.active_clients.len(), 5, "round 0 activates everyone");
        assert!(
            (first.mask_density - 1.0).abs() < 1e-12,
            "round 0 masks are full"
        );
        check_trace(&result, sys.config().rounds);
        // FedAvg leaves the trace empty.
        let fedavg = crate::FedAvg::vanilla().run(&mut tiny_system(3, 28));
        assert!(fedavg.activation_trace.is_empty());
    }

    #[test]
    fn safety_net_restore_is_recorded_in_trace() {
        // α = 1 deactivates any client that loses a single disentangled
        // unit, and the 0.9-quantile rule masks every non-top contributor,
        // so whole-cohort deactivation happens quickly. With the explore
        // cool-down excluding just-deactivated clients, the reactivation
        // pool is then empty and the empty-active-set safety net must fire
        // — and must show up in the trace as a restart that reactivates
        // everyone, or the trace would claim clients active that were never
        // listed as reactivated.
        let aggressive = FedDa {
            strategy: Reactivation::Explore { beta_e: 0.2 },
            alpha: 1.0,
            mask_rule: MaskRule::GradientQuantile(0.9),
            explore_cooldown: true,
        };
        let m = 4;
        let mut sys = tiny_system(m, 31);
        let result = aggressive.run(&mut sys);
        check_trace(&result, sys.config().rounds);
        let fired: Vec<_> = result
            .activation_trace
            .iter()
            .filter(|s| s.restarted)
            .collect();
        assert!(
            !fired.is_empty(),
            "expected the safety net to fire under this config"
        );
        for snap in &fired {
            assert_eq!(
                snap.reactivated.len(),
                m,
                "the restore brings everyone back"
            );
        }
    }

    #[test]
    fn quantile_helper_interpolates() {
        assert_eq!(super::quantile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(super::quantile(&[5.0], 0.0), 5.0);
        assert_eq!(super::quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert!((super::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn quantile_rules_mask_more_aggressively_with_higher_q() {
        let mut low = FedDa::explore();
        low.mask_rule = MaskRule::GradientQuantile(0.25);
        let mut high = FedDa::explore();
        high.mask_rule = MaskRule::GradientQuantile(0.9);
        let r_low = low.run(&mut tiny_system(6, 26));
        let r_high = high.run(&mut tiny_system(6, 26));
        assert!(
            r_high.comm.total_uplink_units() <= r_low.comm.total_uplink_units(),
            "q=0.9 should mask at least as much as q=0.25: {} vs {}",
            r_high.comm.total_uplink_units(),
            r_low.comm.total_uplink_units()
        );
    }

    #[test]
    fn median_rule_runs() {
        let mut fedda = FedDa::restart();
        fedda.mask_rule = MaskRule::GradientMedian;
        let result = fedda.run(&mut tiny_system(4, 27));
        assert!(result.final_eval.roc_auc.is_finite());
    }

    #[test]
    fn validate_rejects_bad_betas() {
        let mut f = FedDa::restart();
        f.strategy = Reactivation::Restart { beta_r: 1.5 };
        assert!(f.validate().is_err());
        let mut f = FedDa::explore();
        f.alpha = -0.1;
        assert!(f.validate().is_err());
        // β ∈ (0,1) is exclusive: β = 0 would never reactivate anyone.
        let mut f = FedDa::restart();
        f.strategy = Reactivation::Restart { beta_r: 0.0 };
        assert!(f.validate().is_err(), "beta_r = 0 must be rejected");
        let mut f = FedDa::explore();
        f.strategy = Reactivation::Explore { beta_e: 0.0 };
        assert!(f.validate().is_err(), "beta_e = 0 must be rejected");
        let mut f = FedDa::explore();
        f.strategy = Reactivation::Explore { beta_e: 1.0 };
        assert!(f.validate().is_err(), "beta_e = 1 must be rejected");
    }

    #[test]
    fn validate_rejects_bad_quantiles() {
        // Previously an out-of-range quantile panicked via an assert deep
        // inside the round loop; validate() must catch it up front.
        let mut f = FedDa::explore();
        f.mask_rule = MaskRule::GradientQuantile(1.5);
        assert!(f.validate().is_err(), "q = 1.5 must be rejected");
        f.mask_rule = MaskRule::GradientQuantile(-0.1);
        assert!(f.validate().is_err(), "q = -0.1 must be rejected");
        f.mask_rule = MaskRule::GradientQuantile(f64::NAN);
        assert!(f.validate().is_err(), "q = NaN must be rejected");
        f.mask_rule = MaskRule::GradientQuantile(0.0);
        assert!(f.validate().is_ok(), "q = 0 (masking disabled) is legal");
    }

    #[test]
    fn seeded_fedda_reproduces() {
        let r1 = FedDa::explore().run(&mut tiny_system(4, 25));
        let r2 = FedDa::explore().run(&mut tiny_system(4, 25));
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.roc_auc, b.roc_auc);
        }
        assert_eq!(r1.comm.total_uplink_units(), r2.comm.total_uplink_units());
    }

    #[test]
    fn protocol_names_match_the_paper() {
        use crate::protocol::FlProtocol;
        assert_eq!(FedDa::restart().protocol().name(), "FedDA 1 (Restart)");
        assert_eq!(FedDa::explore().protocol().name(), "FedDA 2 (Explore)");
    }
}
