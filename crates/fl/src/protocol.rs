//! The protocol-engine seam: [`FlProtocol`] is the set of hooks a federated
//! algorithm plugs into the shared engine ([`run`](crate::run)).
//!
//! Every algorithm in the reproduction used to hand-roll its own round loop
//! over [`FlSystem`]; the driver now owns the canonical loop (broadcast,
//! local round, masked aggregation per Eq. 6, comm accounting, evaluation
//! cadence, event emission) and a protocol only decides *who* participates
//! ([`select_clients`](FlProtocol::select_clients)), *which units* each
//! participant returns ([`build_masks`](FlProtocol::build_masks)) and *how
//! activation state evolves* after aggregation
//! ([`post_aggregate`](FlProtocol::post_aggregate)). A new protocol
//! (FedProx-style regularisation, a different reactivation rule, …) is one
//! trait impl — not a fourth copied loop.
//!
//! # RNG stream derivation rules
//!
//! Determinism is load-bearing: seeded runs must be bit-identical across
//! refactors, and protocols sharing a `FlConfig::seed` must stay
//! comparable. The rules:
//!
//! * the driver owns a single `StdRng` seeded with
//!   `cfg.seed ^ protocol.seed_tweak()` — each protocol picks a distinct
//!   tweak so its decision stream never collides with model init
//!   (`cfg.seed`), client streams (`client_seeds`), or evaluation
//!   (`cfg.seed ^` [`EVAL_STREAM_TWEAK`](crate::EVAL_STREAM_TWEAK) `^ round·31`);
//! * hooks draw from that RNG **only** through the arguments they are
//!   given, in hook order (`begin`, then per round `select_clients` →
//!   `build_masks` → `post_aggregate`; the local round between masks and
//!   aggregation is the driver's and consumes no protocol randomness) —
//!   never stash a clone;
//! * hooks that need no randomness must not draw (FedDA's selection and
//!   masks are deterministic functions of its activation state; only its
//!   `Explore` reactivation draws).
//!
//! Existing tweaks: FedAvg `0xFEDA_A0A0`, FedDA `0xDA_DA_DA`, Global
//! `0x61_0B_A1`, FedProx `0xFED9_0B0C`, FedDyn `0xFEDD_1509`, FedAdam
//! `0xFED0_ADA3`.
//!
//! Fault injection gets its **own** stream, not a protocol tweak: the
//! [`FaultPlan`](crate::FaultPlan) is pre-sampled from
//! `cfg.seed ^` [`FAULT_STREAM_TWEAK`](crate::faults::FAULT_STREAM_TWEAK)
//! before round 0, so enabling faults never shifts a single draw of any
//! protocol's stream — a faulted run and a clean run make identical
//! selection/mask/reactivation decisions given identical activation
//! state.

use crate::faults::FaultObserved;
use crate::system::{ClientReturn, FlSystem};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// What a protocol's [`post_aggregate`](FlProtocol::post_aggregate) hook
/// reports back to the driver: the activation changes of the round.
/// Protocols without dynamic activation return
/// [`StepOutcome::default()`].
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// Clients deactivated during the round.
    pub deactivated: Vec<usize>,
    /// Clients reactivated during the round.
    pub reactivated: Vec<usize>,
    /// Whether a full activation reset fired.
    pub restarted: bool,
}

/// A client-side penalty on the local objective, returned by
/// [`FlProtocol::local_regularizer`] and applied at every local gradient
/// step by [`FlSystem::run_local_round_with`].
///
/// The penalised local objective is
/// `L_i(θ) + μ/2·‖θ − θ^t‖² + ⟨linear, θ⟩`, where `θ^t` is always the
/// round's broadcast parameters (`system.global` at dispatch time) — the
/// anchor is supplied by the runtime, not the protocol, so the penalty
/// travels as plain owned data. FedProx sets only `prox_mu`; FedDyn sets
/// `prox_mu = α` plus its per-client linear state `−∇̂ᵢ`.
#[derive(Clone, Debug, Default)]
pub struct LocalPenalty {
    /// Proximal coefficient `μ ≥ 0` on `½‖θ − θ^t‖²`.
    pub prox_mu: f32,
    /// Optional linear-term gradient in `ParamSet::values` order, added
    /// verbatim to every step's gradient.
    pub linear: Option<Vec<f32>>,
}

/// Hooks a federated algorithm implements to run on the shared engine
/// ([`run`](crate::run)).
///
/// Implementations are per-run state machines: the driver calls
/// [`begin`](FlProtocol::begin) exactly once before round 0, then the
/// per-round hooks in a fixed order. Reuse across runs requires a fresh
/// instance (see `FedDa::protocol` / `Framework::protocol`).
pub trait FlProtocol {
    /// Display name matching the paper's tables (e.g. `"FedAvg"`,
    /// `"FedDA 2 (Explore)"`).
    fn name(&self) -> String;

    /// Check hyper-parameters. The driver calls this before round 0 and
    /// refuses to run on `Err`.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// XOR tweak applied to `FlConfig::seed` to derive this protocol's
    /// RNG stream (see the module docs for the derivation rules).
    fn seed_tweak(&self) -> u64 {
        0
    }

    /// Whether the driver should record per-round
    /// [`ActivationSnapshot`](crate::ActivationSnapshot)s into
    /// `RunResult::activation_trace` (dynamic-activation protocols only).
    fn traces_activation(&self) -> bool {
        false
    }

    /// Called once before round 0: size per-run state off the federation.
    fn begin(&mut self, system: &FlSystem, rng: &mut StdRng) {
        let _ = (system, rng);
    }

    /// Pick the clients to activate this round (sorted ascending by
    /// convention; the driver broadcasts to exactly these).
    fn select_clients(&mut self, system: &FlSystem, round: usize, rng: &mut StdRng) -> Vec<usize>;

    /// Penalty this protocol puts on `client`'s local objective for the
    /// round (FedProx's proximal term, FedDyn's dynamic regulariser). The
    /// driver queries this once per dispatched client, after
    /// [`build_masks`](FlProtocol::build_masks) and before local training;
    /// the proximal anchor is the broadcast parameters of the same
    /// dispatch. The default is `None` — no penalty, and local training is
    /// bit-identical to the unhooked path. Deliberately RNG-free: a
    /// regulariser is a deterministic function of protocol state, and
    /// adding one must not shift any decision stream.
    fn local_regularizer(
        &mut self,
        system: &FlSystem,
        client: usize,
        round: usize,
    ) -> Option<LocalPenalty> {
        let _ = (system, client, round);
        None
    }

    /// Build the request mask for each selected client (`masks[j]`
    /// corresponds to `active[j]`, one bool per parameter unit).
    fn build_masks(
        &mut self,
        system: &FlSystem,
        active: &[usize],
        round: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<bool>>;

    /// Hook before aggregation on rounds where the driver observed faults:
    /// the structured records of every dropout, held/arrived straggler and
    /// rejected corruption of the round. Dynamic-activation protocols use
    /// this to treat faulted clients as inactive (FedDA deactivates them so
    /// Restart/Explore reactivation is exercised by real failures); the
    /// default ignores faults. Never called when `FlConfig::faults` is
    /// `None`. Deliberately RNG-free — fault handling must not shift any
    /// protocol's decision stream.
    fn on_faults(&mut self, system: &FlSystem, faults: &[FaultObserved], round: usize) {
        let _ = (system, faults, round);
    }

    /// Hook after masked aggregation: update masks/activation state,
    /// run reactivation, or write protocol-owned parameters into
    /// `system.global`. Runs before the round's evaluation.
    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        active: &[usize],
        returns: &[ClientReturn],
        round: usize,
        rng: &mut StdRng,
    ) -> StepOutcome {
        let _ = (system, active, returns, round, rng);
        StepOutcome::default()
    }
}

/// The paper's random client fraction `C`: a seeded shuffle of all `m`
/// clients, the first `round(m·C)` of them (at least one), ascending.
pub(crate) fn sample_client_fraction(m: usize, fraction: f64, rng: &mut StdRng) -> Vec<usize> {
    let take = ((m as f64) * fraction).round().max(1.0) as usize;
    let mut order: Vec<usize> = (0..m).collect();
    order.shuffle(rng);
    let mut active = order[..take.min(m)].to_vec();
    active.sort_unstable();
    active
}

/// The [`FlProtocol::validate`] arm every fraction-sampling protocol shares.
pub(crate) fn check_client_fraction(fraction: f64) -> Result<(), String> {
    if fraction > 0.0 && fraction <= 1.0 {
        Ok(())
    } else {
        Err(format!("client_fraction must be in (0,1], got {fraction}"))
    }
}
