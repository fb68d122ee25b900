//! Deterministic fault injection for the protocol engine.
//!
//! FedDA's premise is that client availability is *dynamic*: clients drop
//! out, straggle, or return garbage, and the activation machinery only
//! earns its keep when they actually do. This module gives the
//! engine ([`run`](crate::run)) first-class failure semantics:
//!
//! * a [`FaultConfig`] (plugged in via `FlConfig::faults`) describes per
//!   round × client probabilities of **dropout** (selected but never
//!   reports), **straggler delay** (the report arrives `k` rounds late and
//!   is handled per a [`StalenessPolicy`]) and **update corruption**
//!   (NaN/Inf or scaled-garbage tensors, detected by a non-finite /
//!   norm-bound check and rejected);
//! * a [`FaultPlan`] pre-samples the whole schedule from its own RNG
//!   stream (`run seed ^` [`FAULT_STREAM_TWEAK`]) so fault schedules are
//!   reproducible and **orthogonal** to model init, client sampling and
//!   every protocol's decision stream — turning faults on or off never
//!   shifts any other random draw;
//! * every fault the driver acts on is reported as a structured
//!   [`FaultObserved`] record, carried on the round's
//!   [`RoundEvent`](crate::RoundEvent) and accumulated in
//!   `RunResult::faults`, so the chaos harness (`tests/chaos.rs`) can
//!   cross-check the observed stream against the injected schedule
//!   exactly.
//!
//! The driver guarantees the failure-semantics invariants the chaos tests
//! pin: dropped clients are excluded from the masked aggregation (Eq. 6)
//! with the per-unit weights renormalised over the survivors (see
//! [`renormalize`]), stale reports are discarded or staleness-discounted,
//! rejected updates never touch the global model, and the comm log counts
//! only bytes actually transferred.

use crate::system::ClientReturn;
use fedda_tensor::ParamSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// XOR tweak applied to `FlConfig::seed` to derive the fault-schedule RNG
/// stream (see the RNG derivation rules in DESIGN.md §4c). Distinct
/// from every protocol tweak so the schedule is orthogonal to selection,
/// masking and reactivation randomness.
pub const FAULT_STREAM_TWEAK: u64 = 0xFAB7_5EED;

/// How an injected corruption mangles a client's returned update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Corruption {
    /// Poison the returned tensors with NaNs.
    NaN,
    /// Poison the returned tensors with infinities.
    Inf,
    /// Scale the whole update `θ_i - θ` by a factor — finite garbage that
    /// only a norm bound ([`FaultConfig::max_update_norm`]) can catch.
    Garbage {
        /// Multiplier applied to the update (e.g. `1e6`).
        scale: f32,
    },
}

/// What to do with a straggler's report when it finally arrives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StalenessPolicy {
    /// Receive the bytes (they count as uplink) but never aggregate them.
    Discard,
    /// Aggregate with the client's weight multiplied by `gamma^staleness`
    /// (staleness = rounds late), renormalised with the round's fresh
    /// contributions.
    Discount {
        /// Per-round decay factor in `(0, 1]`.
        gamma: f64,
    },
}

impl StalenessPolicy {
    /// Aggregation-weight multiplier for a report `staleness` rounds late,
    /// or `None` when the report must be discarded.
    pub fn weight(&self, staleness: usize) -> Option<f64> {
        match *self {
            StalenessPolicy::Discard => None,
            StalenessPolicy::Discount { gamma } => {
                // Saturating: gamma in (0,1], so an absurd staleness just
                // drives the weight to its limit (0 or 1) instead of wrapping.
                Some(gamma.powi(i32::try_from(staleness).unwrap_or(i32::MAX)))
            }
        }
    }
}

/// One injected fault: what happens to a client selected in a round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The client is selected and broadcast to but never reports.
    Dropout,
    /// The client's report arrives `delay` rounds late.
    Straggler {
        /// Rounds of delay (`>= 1`).
        delay: usize,
    },
    /// The client reports a corrupted update.
    Corruption(Corruption),
}

/// A fault pinned to an exact `(round, client)` cell, layered on top of
/// the sampled schedule — the deterministic handle tests use to corrupt
/// *one specific* update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScriptedFault {
    /// Round the fault strikes in.
    pub round: usize,
    /// Client it strikes.
    pub client: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Fault-injection configuration (`FlConfig::faults`).
///
/// Per round and per client, at most one fault fires; the three rates are
/// probabilities of disjoint outcomes and must sum to at most 1.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-round per-client dropout probability in `[0, 1]`.
    pub dropout: f64,
    /// Per-round per-client straggler probability in `[0, 1]`.
    pub straggler: f64,
    /// Upper bound on straggler delay: delays are drawn uniformly from
    /// `1..=max_staleness` (must be `>= 1`).
    pub max_staleness: usize,
    /// Per-round per-client corruption probability in `[0, 1]`.
    pub corruption: f64,
    /// How injected corruptions mangle the update.
    pub corruption_kind: Corruption,
    /// What the server does with stale (straggler) reports.
    pub staleness: StalenessPolicy,
    /// Optional server-side defence: reject any arriving update whose
    /// whole-update L2 norm (over `unit_delta`) exceeds this bound — the
    /// only way to catch finite [`Corruption::Garbage`].
    pub max_update_norm: Option<f32>,
    /// Faults pinned to exact `(round, client)` cells, applied after (and
    /// overriding) the sampled schedule. Entries outside the run's
    /// round/client grid are ignored.
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            dropout: 0.0,
            straggler: 0.0,
            max_staleness: 1,
            corruption: 0.0,
            corruption_kind: Corruption::NaN,
            staleness: StalenessPolicy::Discard,
            max_update_norm: None,
            scripted: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// Dropout-only faults at the given rate.
    pub fn dropout_only(rate: f64) -> Self {
        Self {
            dropout: rate,
            ..Default::default()
        }
    }

    /// Validate rates, bounds and policy parameters.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("dropout", self.dropout),
            ("straggler", self.straggler),
            ("corruption", self.corruption),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} rate must be in [0,1], got {rate}"));
            }
        }
        let total = self.dropout + self.straggler + self.corruption;
        if total > 1.0 {
            return Err(format!(
                "dropout + straggler + corruption rates must not exceed 1, got {total}"
            ));
        }
        if self.max_staleness == 0 {
            return Err("max_staleness must be >= 1 (a 0-round delay is not a straggle)".into());
        }
        if let StalenessPolicy::Discount { gamma } = self.staleness {
            if !gamma.is_finite() || gamma <= 0.0 || gamma > 1.0 {
                return Err(format!(
                    "staleness discount gamma must be in (0,1], got {gamma}"
                ));
            }
        }
        if let Corruption::Garbage { scale } = self.corruption_kind {
            // Rejects the exact literal 0.0, which would make Garbage a silent
            // no-op; no computed value reaches this comparison.
            if !scale.is_finite() || scale == 0.0 {
                return Err(format!(
                    "garbage corruption scale must be finite and non-zero, got {scale}"
                ));
            }
        }
        if let Some(bound) = self.max_update_norm {
            if !bound.is_finite() || bound <= 0.0 {
                return Err(format!("max_update_norm must be positive, got {bound}"));
            }
        }
        for s in &self.scripted {
            if let FaultKind::Straggler { delay } = s.kind {
                if delay == 0 {
                    return Err(format!(
                        "scripted straggler at round {} client {} has delay 0",
                        s.round, s.client
                    ));
                }
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultConfig {
    type Err = String;

    /// Parse the CLI `--faults` spec: comma-separated `key=value` pairs.
    ///
    /// * `drop=<f64>` — dropout rate;
    /// * `straggle=<f64>` — straggler rate;
    /// * `delay=<usize>` — maximum straggler delay (default 1);
    /// * `corrupt=<f64>` — corruption rate;
    /// * `kind=nan|inf|garbage:<scale>` — corruption kind (default `nan`);
    /// * `stale=discard|discount:<gamma>` — staleness policy
    ///   (default `discard`);
    /// * `maxnorm=<f32>` — reject updates above this L2 norm.
    ///
    /// Example: `drop=0.2,straggle=0.1,delay=3,corrupt=0.05,stale=discount:0.5`.
    fn from_str(spec: &str) -> Result<Self, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{part}' is not key=value"))?;
            let bad = |e: &dyn std::fmt::Debug| format!("bad value for {key}: {value} ({e:?})");
            match key {
                "drop" => cfg.dropout = value.parse().map_err(|e| bad(&e))?,
                "straggle" => cfg.straggler = value.parse().map_err(|e| bad(&e))?,
                "delay" => cfg.max_staleness = value.parse().map_err(|e| bad(&e))?,
                "corrupt" => cfg.corruption = value.parse().map_err(|e| bad(&e))?,
                "kind" => {
                    cfg.corruption_kind = match value.split_once(':') {
                        None if value == "nan" => Corruption::NaN,
                        None if value == "inf" => Corruption::Inf,
                        Some(("garbage", scale)) => Corruption::Garbage {
                            scale: scale.parse().map_err(|e| bad(&e))?,
                        },
                        _ => return Err(format!("unknown corruption kind '{value}'")),
                    }
                }
                "stale" => {
                    cfg.staleness = match value.split_once(':') {
                        None if value == "discard" => StalenessPolicy::Discard,
                        Some(("discount", gamma)) => StalenessPolicy::Discount {
                            gamma: gamma.parse().map_err(|e| bad(&e))?,
                        },
                        _ => return Err(format!("unknown staleness policy '{value}'")),
                    }
                }
                "maxnorm" => cfg.max_update_norm = Some(value.parse().map_err(|e| bad(&e))?),
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// The pre-sampled fault schedule of one run: one optional [`FaultKind`]
/// per `(round, client)` cell.
///
/// The plan is generated up front from `run_seed ^` [`FAULT_STREAM_TWEAK`]
/// in fixed round-major order, so it is identical regardless of which
/// clients any protocol actually selects — a scheduled fault simply goes
/// unobserved when its client sits the round out.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    schedule: Vec<Vec<Option<FaultKind>>>,
}

impl FaultPlan {
    /// Sample the schedule for `rounds × clients` cells, then overlay the
    /// scripted faults.
    pub fn generate(cfg: &FaultConfig, rounds: usize, clients: usize, run_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(run_seed ^ FAULT_STREAM_TWEAK);
        let mut schedule = vec![vec![None; clients]; rounds];
        for row in schedule.iter_mut() {
            for cell in row.iter_mut() {
                let u: f64 = rng.gen();
                *cell = if u < cfg.dropout {
                    Some(FaultKind::Dropout)
                } else if u < cfg.dropout + cfg.straggler {
                    let delay = rng.gen_range(1..=cfg.max_staleness);
                    Some(FaultKind::Straggler { delay })
                } else if u < cfg.dropout + cfg.straggler + cfg.corruption {
                    Some(FaultKind::Corruption(cfg.corruption_kind))
                } else {
                    None
                };
            }
        }
        for s in &cfg.scripted {
            if s.round < rounds && s.client < clients {
                schedule[s.round][s.client] = Some(s.kind);
            }
        }
        Self { schedule }
    }

    /// The fault scheduled for `(round, client)`, if any.
    pub fn fault_at(&self, round: usize, client: usize) -> Option<FaultKind> {
        self.schedule
            .get(round)
            .and_then(|row| row.get(client))
            .copied()
            .flatten()
    }

    /// Total number of scheduled fault cells (selected or not).
    pub fn num_scheduled(&self) -> usize {
        self.schedule
            .iter()
            .flat_map(|row| row.iter())
            .filter(|c| c.is_some())
            .count()
    }
}

/// What the server observed a fault *do* — the effect, not the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEffect {
    /// A selected client never reported; its contribution was excluded and
    /// the aggregation weights renormalised over the survivors.
    Dropout,
    /// A selected client's report was held back; it arrives at `arrival`
    /// (`None` when the run ends first, in which case the bytes are never
    /// transferred).
    StragglerHeld {
        /// Round the stale report will arrive in, if any.
        arrival: Option<usize>,
    },
    /// A stale report arrived and was aggregated with its weight scaled by
    /// `weight` (the [`StalenessPolicy::Discount`] multiplier).
    StaleApplied {
        /// Rounds late.
        staleness: usize,
        /// Weight multiplier applied before renormalisation.
        weight: f64,
    },
    /// A stale report arrived (its bytes count as uplink) and was thrown
    /// away per [`StalenessPolicy::Discard`].
    StaleDiscarded {
        /// Rounds late.
        staleness: usize,
    },
    /// An arriving update was rejected by the server-side guard:
    /// `non_finite` reports whether the flattened delta failed the finite
    /// check (vs. exceeding [`FaultConfig::max_update_norm`]).
    CorruptionRejected {
        /// Whether the rejection was the non-finite check (vs. the norm
        /// bound).
        non_finite: bool,
    },
}

/// One structured fault record, as carried on
/// [`RoundEvent::faults`](crate::RoundEvent) and `RunResult::faults`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultObserved {
    /// Round the effect was observed in (for stale effects this is the
    /// arrival round, not the round the client was selected in).
    pub round: usize,
    /// The affected client.
    pub client: usize,
    /// What the server observed.
    pub effect: FaultEffect,
}

impl FaultObserved {
    /// Whether this record means the client failed to contribute a usable
    /// fresh report this round (dropout, held straggler, rejected update)
    /// — the condition under which activation-aware protocols treat the
    /// client as inactive.
    pub fn is_client_failure(&self) -> bool {
        matches!(
            self.effect,
            FaultEffect::Dropout
                | FaultEffect::StragglerHeld { .. }
                | FaultEffect::CorruptionRejected { .. }
        )
    }
}

/// The renormalised aggregation weights over a survivor subset:
/// `w_i / Σ_j w_j` (all zeros when the subset is empty or weightless).
///
/// This is the invariant the chaos harness pins: however many clients a
/// round loses, the weights of whoever remains always sum to 1.
pub fn renormalize(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return vec![0.0; weights.len()];
    }
    weights.iter().map(|w| w / total).collect()
}

/// Mangle a client's return per the corruption kind: the returned params
/// become `θ + f(θ_i - θ)` with `f` poisoning or scaling the update, and
/// `unit_delta` is recomputed so the corruption is visible to the driver's
/// detection checks exactly as it would be to a real server.
pub fn corrupt_return(ret: &mut ClientReturn, broadcast: &ParamSet, kind: Corruption) {
    let poison = match kind {
        Corruption::NaN => Some(f32::NAN),
        Corruption::Inf => Some(f32::INFINITY),
        Corruption::Garbage { .. } => None,
    };
    match poison {
        Some(v) => {
            for id in ret.params.ids() {
                if let Some(first) = ret.params.unit_mut(id).first_mut() {
                    *first = v;
                }
            }
        }
        None => {
            let Corruption::Garbage { scale } = kind else {
                unreachable!()
            };
            let values = ret.params.values_mut().iter_mut();
            for (x, &base) in values.zip(broadcast.values()) {
                *x = base + scale * (*x - base);
            }
        }
    }
    ret.unit_delta = ret.params.unit_l2_distances(broadcast);
}

/// Server-side guard applied to every arriving report (fresh or stale), in
/// every configuration: reject non-finite updates (the flattened-delta
/// check) and, when `max_update_norm` is given (a fault plan's
/// [`FaultConfig::max_update_norm`]), finite updates whose whole L2 norm
/// exceeds it. Returns the rejection effect, or `None` when the report is
/// admissible.
pub fn detect_rejection(ret: &ClientReturn, max_update_norm: Option<f32>) -> Option<FaultEffect> {
    let non_finite = ret.unit_delta.iter().any(|d| !d.is_finite())
        || ret.params.values().iter().any(|v| !v.is_finite());
    if non_finite {
        return Some(FaultEffect::CorruptionRejected { non_finite: true });
    }
    if let Some(bound) = max_update_norm {
        let norm = ret
            .unit_delta
            .iter()
            .map(|&d| f64::from(d) * f64::from(d))
            .sum::<f64>()
            .sqrt();
        if norm > f64::from(bound) {
            return Some(FaultEffect::CorruptionRejected { non_finite: false });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_rates() {
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig::dropout_only(1.0).validate().is_ok());
        assert!(FaultConfig::dropout_only(1.1).validate().is_err());
        assert!(FaultConfig::dropout_only(-0.1).validate().is_err());
        assert!(FaultConfig::dropout_only(f64::NAN).validate().is_err());
        let sum_over = FaultConfig {
            dropout: 0.5,
            straggler: 0.4,
            corruption: 0.2,
            ..Default::default()
        };
        assert!(sum_over.validate().is_err(), "rates summing over 1");
    }

    #[test]
    fn validate_rejects_zero_staleness_and_bad_policies() {
        let with = |f: &dyn Fn(&mut FaultConfig)| {
            let mut cfg = FaultConfig::default();
            f(&mut cfg);
            cfg.validate()
        };
        assert!(with(&|c| c.max_staleness = 0).is_err(), "staleness bound 0");
        assert!(with(&|c| c.staleness = StalenessPolicy::Discount { gamma: 0.0 }).is_err());
        assert!(with(&|c| c.staleness = StalenessPolicy::Discount { gamma: 1.5 }).is_err());
        assert!(with(&|c| c.staleness = StalenessPolicy::Discount { gamma: 1.0 }).is_ok());
        assert!(with(&|c| c.corruption_kind = Corruption::Garbage { scale: 0.0 }).is_err());
        assert!(with(&|c| c.corruption_kind = Corruption::Garbage {
            scale: f32::INFINITY,
        })
        .is_err());
        assert!(with(&|c| c.max_update_norm = Some(-1.0)).is_err());
        assert!(
            with(&|c| c.scripted.push(ScriptedFault {
                round: 0,
                client: 0,
                kind: FaultKind::Straggler { delay: 0 },
            }))
            .is_err(),
            "scripted delay 0"
        );
    }

    #[test]
    fn plan_is_deterministic_and_respects_rates() {
        let cfg = FaultConfig {
            dropout: 0.3,
            straggler: 0.2,
            max_staleness: 3,
            corruption: 0.1,
            ..Default::default()
        };
        let a = FaultPlan::generate(&cfg, 20, 8, 7);
        let b = FaultPlan::generate(&cfg, 20, 8, 7);
        for r in 0..20 {
            for c in 0..8 {
                assert_eq!(a.fault_at(r, c), b.fault_at(r, c));
            }
        }
        let other = FaultPlan::generate(&cfg, 20, 8, 8);
        let same = (0..20).all(|r| (0..8).all(|c| a.fault_at(r, c) == other.fault_at(r, c)));
        assert!(!same, "different seeds must give different schedules");
        // Roughly 60% of 160 cells carry a fault; delays stay in bounds.
        let n = a.num_scheduled();
        assert!((40..150).contains(&n), "implausible fault count {n}");
        for r in 0..20 {
            for c in 0..8 {
                if let Some(FaultKind::Straggler { delay }) = a.fault_at(r, c) {
                    assert!((1..=3).contains(&delay));
                }
            }
        }
    }

    #[test]
    fn zero_rates_schedule_nothing() {
        let plan = FaultPlan::generate(&FaultConfig::default(), 10, 5, 3);
        assert_eq!(plan.num_scheduled(), 0);
        assert_eq!(plan.fault_at(100, 100), None, "out of range is None");
    }

    #[test]
    fn scripted_faults_override_the_sampled_cell() {
        let cfg = FaultConfig {
            dropout: 1.0,
            scripted: vec![ScriptedFault {
                round: 1,
                client: 2,
                kind: FaultKind::Corruption(Corruption::NaN),
            }],
            ..Default::default()
        };
        let plan = FaultPlan::generate(&cfg, 3, 4, 0);
        assert_eq!(
            plan.fault_at(1, 2),
            Some(FaultKind::Corruption(Corruption::NaN))
        );
        assert_eq!(plan.fault_at(0, 0), Some(FaultKind::Dropout));
    }

    #[test]
    fn spec_parser_round_trips_every_knob() {
        let cfg: FaultConfig = "drop=0.2, straggle=0.1, delay=3, corrupt=0.05, \
             kind=garbage:1e6, stale=discount:0.5, maxnorm=10"
            .parse()
            .unwrap();
        assert_eq!(cfg.dropout, 0.2);
        assert_eq!(cfg.straggler, 0.1);
        assert_eq!(cfg.max_staleness, 3);
        assert_eq!(cfg.corruption, 0.05);
        assert_eq!(cfg.corruption_kind, Corruption::Garbage { scale: 1e6 });
        assert_eq!(cfg.staleness, StalenessPolicy::Discount { gamma: 0.5 });
        assert_eq!(cfg.max_update_norm, Some(10.0));
        let nan: FaultConfig = "corrupt=0.1,kind=nan,stale=discard".parse().unwrap();
        assert_eq!(nan.corruption_kind, Corruption::NaN);
        assert_eq!(nan.staleness, StalenessPolicy::Discard);
        let inf: FaultConfig = "kind=inf".parse().unwrap();
        assert_eq!(inf.corruption_kind, Corruption::Inf);
    }

    #[test]
    fn spec_parser_rejects_garbage_specs() {
        assert!("drop".parse::<FaultConfig>().is_err(), "missing value");
        assert!("drop=1.5".parse::<FaultConfig>().is_err(), "validated");
        assert!("delay=0".parse::<FaultConfig>().is_err());
        assert!("frob=1".parse::<FaultConfig>().is_err(), "unknown key");
        assert!("kind=frob".parse::<FaultConfig>().is_err());
        assert!("stale=discount".parse::<FaultConfig>().is_err());
        assert!("drop=abc".parse::<FaultConfig>().is_err());
    }

    #[test]
    fn staleness_weights_decay_per_round() {
        let p = StalenessPolicy::Discount { gamma: 0.5 };
        assert_eq!(p.weight(1), Some(0.5));
        assert_eq!(p.weight(3), Some(0.125));
        assert_eq!(StalenessPolicy::Discard.weight(1), None);
    }

    #[test]
    fn renormalize_sums_to_one_or_zero() {
        let w = renormalize(&[1.0, 3.0]);
        assert_eq!(w, vec![0.25, 0.75]);
        assert_eq!(renormalize(&[]), Vec::<f64>::new());
        assert_eq!(renormalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
