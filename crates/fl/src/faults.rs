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
//!   exactly;
//! * in this crate's test build only, a fault can be pinned to one exact
//!   `(round, client)` cell on top of the sampled schedule. The
//!   exact-fault tests that pin cells sit in this module's tests and run
//!   on the integration suites' federation (`tests/common`). Outside the
//!   test build a [`FaultConfig`] is exactly its `--faults` spec.
//!
//! The driver guarantees the failure-semantics invariants the chaos tests
//! pin: dropped clients are excluded from the masked aggregation (Eq. 6)
//! with the per-unit weights renormalised over the survivors, stale
//! reports are discarded or staleness-discounted,
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
    pub(crate) fn weight(&self, staleness: usize) -> Option<f64> {
        match *self {
            StalenessPolicy::Discard => None,
            StalenessPolicy::Discount { gamma } => Some(discount(gamma, staleness)),
        }
    }
}

/// `gamma^staleness` by repeated product: an exact integer exponent and no
/// libm, so bit-stable across platforms. Both runtimes discount by it.
pub(crate) fn discount(gamma: f64, staleness: usize) -> f64 {
    (0..staleness).fold(1.0, |w, _| w * gamma)
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
/// the sampled schedule — the deterministic handle this crate's tests use
/// to strike *one specific* report. It exists only in the test build: a
/// [`FaultConfig`] outside it is exactly its `--faults` spec.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ScriptedFault {
    /// Round the fault strikes in.
    pub(crate) round: usize,
    /// Client it strikes.
    pub(crate) client: usize,
    /// What happens.
    pub(crate) kind: FaultKind,
}

/// Fault-injection configuration (`FlConfig::faults`): one field per key of
/// the `--faults` spec it parses from (see its [`FromStr`](std::str::FromStr)).
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
    #[cfg(test)]
    pub(crate) scripted: Vec<ScriptedFault>,
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
            #[cfg(test)]
            scripted: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// Validate rates, bounds and policy parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
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
        #[cfg(test)]
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
    /// Sample the schedule for `rounds × clients` cells. In the test build,
    /// faults the tests pin to exact cells then override those cells.
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
        #[cfg(test)]
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
    pub(crate) fn is_client_failure(&self) -> bool {
        matches!(
            self.effect,
            FaultEffect::Dropout
                | FaultEffect::StragglerHeld { .. }
                | FaultEffect::CorruptionRejected { .. }
        )
    }
}

/// Mangle a client's trained parameters per the corruption kind: they
/// become `θ + f(θ_i - θ)` with `f` poisoning or scaling the update. The
/// caller derives the report's `unit_delta` from them afterwards, so the
/// corruption is visible to the driver's detection checks exactly as it
/// would be to a real server.
pub(crate) fn corrupt_params(params: &mut ParamSet, broadcast: &ParamSet, kind: Corruption) {
    let poison = match kind {
        Corruption::NaN => Some(f32::NAN),
        Corruption::Inf => Some(f32::INFINITY),
        Corruption::Garbage { .. } => None,
    };
    match poison {
        Some(v) => {
            for id in params.ids() {
                if let Some(first) = params.unit_mut(id).first_mut() {
                    *first = v;
                }
            }
        }
        None => {
            let Corruption::Garbage { scale } = kind else {
                unreachable!()
            };
            let values = params.values_mut().iter_mut();
            for (x, &base) in values.zip(broadcast.values()) {
                *x = base + scale * (*x - base);
            }
        }
    }
}

/// Server-side guard applied to every arriving report (fresh or stale), in
/// every configuration: reject non-finite updates and, when
/// `max_update_norm` is given (a fault plan's
/// [`FaultConfig::max_update_norm`]), finite updates whose whole L2 norm
/// exceeds it. Returns the rejection effect, or `None` when the report is
/// admissible.
///
/// Both checks read `ret.unit_delta` alone, which every path that writes a
/// report's parameters recomputes from them. Each `unit_delta[k]` is
/// `sqrt(Σ (x − y)²)` over the unit's values `x` and reference `y`: a NaN or
/// infinite `x` makes its term NaN or `+∞`, and a sum of non-negative terms
/// with one of those in it is non-finite too. So a non-finite parameter
/// always shows as a non-finite delta, and one fold of `Σ f64(d)²` — finite
/// exactly when every delta is — decides both checks.
pub(crate) fn detect_rejection(
    ret: &ClientReturn,
    max_update_norm: Option<f32>,
) -> Option<FaultEffect> {
    let norm_sq = ret
        .unit_delta
        .iter()
        .map(|&d| f64::from(d) * f64::from(d))
        .sum::<f64>();
    if !norm_sq.is_finite() {
        return Some(FaultEffect::CorruptionRejected { non_finite: true });
    }
    match max_update_norm {
        Some(bound) if norm_sq.sqrt() > f64::from(bound) => {
            Some(FaultEffect::CorruptionRejected { non_finite: false })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common;
    use crate::system::tests::tiny_system_with;
    use crate::{
        run, AsyncConfig, Compression, FedAvg, FedDa, FlConfig, FlProtocol, FlSystem, MemorySink,
        RoundDriver, RuntimeMode,
    };
    use fedda_tensor::Matrix;
    use proptest::prelude::*;

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_rates() {
        assert!(FaultConfig::default().validate().is_ok());
        let dropout = |rate| FaultConfig {
            dropout: rate,
            ..Default::default()
        };
        assert!(dropout(1.0).validate().is_ok());
        assert!(dropout(1.1).validate().is_err());
        assert!(dropout(-0.1).validate().is_err());
        assert!(dropout(f64::NAN).validate().is_err());
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
        let n = a.schedule.iter().flatten().flatten().count();
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
        assert!(plan.schedule.iter().flatten().all(Option::is_none));
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
        // Every field by name, with no `..Default::default()`: a field added
        // to `FaultConfig` must be named here, beside the spec key that sets
        // it in the parsed spec above.
        let every_field = FaultConfig {
            dropout: 0.2,
            straggler: 0.1,
            max_staleness: 3,
            corruption: 0.05,
            corruption_kind: Corruption::Garbage { scale: 1e6 },
            staleness: StalenessPolicy::Discount { gamma: 0.5 },
            max_update_norm: Some(10.0),
            scripted: Vec::new(),
        };
        assert_eq!(cfg, every_field);
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
    fn discount_weight_is_the_repeated_product() {
        for gamma in [0.3, 0.7, 0.9, 0.95, 0.99] {
            let policy = StalenessPolicy::Discount { gamma };
            let mut product = 1.0f64;
            for s in 1..=20 {
                product *= gamma;
                let weight = policy.weight(s).map(f64::to_bits);
                assert_eq!(weight, Some(product.to_bits()), "gamma {gamma}, s {s}");
            }
        }
    }

    /// The values a report's parameters or its reference can hold beyond the
    /// ordinary: NaN, both infinities, and finite values whose difference
    /// overflows `f32`.
    const SPECIALS: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38, -3e38];

    /// A report's `(params, reference)` as per-unit values: 1–6 units of 0–12
    /// ordinary values each, then up to three [`SPECIALS`] written into the
    /// parameters and up to one into the reference, at random positions.
    fn guard_case_strategy() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<Vec<f32>>)> {
        let units = prop::collection::vec(
            prop::collection::vec((-4.0f32..4.0, -4.0f32..4.0), 0..13),
            1..7,
        );
        let inject = |max| prop::collection::vec((any::<usize>(), 0..SPECIALS.len()), 0..max);
        (units, inject(4), inject(2)).prop_map(|(units, into_params, into_reference)| {
            let (mut params, mut reference): (Vec<Vec<f32>>, Vec<Vec<f32>>) = units
                .into_iter()
                .map(|unit| unit.into_iter().unzip())
                .unzip();
            let scalars: usize = params.iter().map(Vec::len).sum();
            for (side, injections) in [(&mut params, into_params), (&mut reference, into_reference)]
            {
                for (at, which) in injections {
                    if scalars == 0 {
                        break;
                    }
                    let mut at = at % scalars;
                    for unit in side.iter_mut() {
                        if at < unit.len() {
                            unit[at] = SPECIALS[which];
                            break;
                        }
                        at -= unit.len();
                    }
                }
            }
            (params, reference)
        })
    }

    /// One `ParamSet` holding `units`, one unit each.
    fn param_set(units: &[Vec<f32>]) -> ParamSet {
        let mut set = ParamSet::new();
        for (k, unit) in units.iter().enumerate() {
            set.add(
                format!("u{k}"),
                Matrix::from_vec(unit.len(), 1, unit.clone()),
            );
        }
        set
    }

    /// The guard as it was when it scanned every parameter value beside the
    /// unit deltas, kept as the oracle of the deltas-only verdict.
    fn scanning_guard(ret: &ClientReturn, max_update_norm: Option<f32>) -> Option<FaultEffect> {
        let non_finite = ret.unit_delta.iter().any(|d| !d.is_finite())
            || ret.params.values().iter().any(|v| !v.is_finite());
        if non_finite {
            return Some(FaultEffect::CorruptionRejected { non_finite: true });
        }
        let bound = max_update_norm?;
        let norm = (ret.unit_delta.iter())
            .map(|&d| f64::from(d) * f64::from(d))
            .sum::<f64>()
            .sqrt();
        (norm > f64::from(bound)).then_some(FaultEffect::CorruptionRejected { non_finite: false })
    }

    proptest! {
        /// A non-finite parameter always shows in its unit's delta, so the
        /// guard that reads only the deltas gives the full scan's verdict —
        /// with and without a norm bound, on either side of it.
        #[test]
        fn guard_on_deltas_matches_the_full_scan(
            case in guard_case_strategy(),
            bound in prop_oneof![0.01f32..20.0, Just(f32::MAX)],
        ) {
            let params = param_set(&case.0);
            let reference = param_set(&case.1);
            let unit_delta = params.unit_l2_distances(&reference);
            let ret = ClientReturn { client: 0, params, unit_delta, encoded: None };
            for max_update_norm in [None, Some(bound)] {
                prop_assert_eq!(
                    detect_rejection(&ret, max_update_norm),
                    scanning_guard(&ret, max_update_norm),
                    "bound {:?}", max_update_norm
                );
            }
        }

        #[test]
        fn staleness_discount_weights_are_monotone_in_staleness(
            gamma in 0.01f64..=1.0, staleness in 1usize..20,
        ) {
            let p = StalenessPolicy::Discount { gamma };
            let w = p.weight(staleness).unwrap();
            let w_next = p.weight(staleness + 1).unwrap();
            prop_assert!(w > 0.0 && w <= 1.0);
            prop_assert!(w_next <= w + 1e-15, "older reports must not gain weight");
            prop_assert_eq!(StalenessPolicy::Discard.weight(staleness), None);
        }
    }

    // The exact-fault tests: each pins one scripted `(round, client)` cell
    // on the integration suites' federation (`crate::common`, through
    // `tiny_system_with`), at the chaos suite's scale 0.0015, M = 5,
    // 5 rounds and seed 42 unless it says otherwise.

    const M: usize = 5;
    const ROUNDS: usize = 5;
    const GOLDEN_SEED: u64 = 42;

    /// `chaos.rs`'s federation at `seed`, with `edit` applied to its
    /// configuration.
    fn chaos_system(seed: u64, edit: impl FnOnce(&mut FlConfig)) -> FlSystem {
        tiny_system_with(M, seed, |cfg| {
            cfg.rounds = ROUNDS;
            edit(cfg);
        })
    }

    /// Selects every client in round 0 and nobody afterwards — the minimal
    /// protocol for pinning what the ledger does with a stale report that
    /// arrives in a round with no active clients.
    struct FirstRoundOnly;

    impl FlProtocol for FirstRoundOnly {
        fn name(&self) -> String {
            "FirstRoundOnly".into()
        }

        fn select_clients(
            &mut self,
            system: &FlSystem,
            round: usize,
            _rng: &mut StdRng,
        ) -> Vec<usize> {
            if round == 0 {
                (0..system.num_clients()).collect()
            } else {
                Vec::new()
            }
        }

        fn build_masks(
            &mut self,
            system: &FlSystem,
            active: &[usize],
            _round: usize,
            _rng: &mut StdRng,
        ) -> Vec<Vec<bool>> {
            vec![vec![true; system.num_units()]; active.len()]
        }
    }

    #[test]
    fn sync_stale_arrival_in_an_inactive_round_stays_on_the_ledger() {
        // The accounting fix this pins: a straggler report landing in a round
        // where nobody was selected used to vanish from the comm log entirely
        // (the round was keyed out on `active.is_empty()`), understating total
        // uplink. Bytes that arrive must stay on the ledger.
        let fc = FaultConfig {
            staleness: StalenessPolicy::Discount { gamma: 0.5 },
            scripted: vec![ScriptedFault {
                round: 0,
                client: 0,
                kind: FaultKind::Straggler { delay: 1 },
            }],
            ..Default::default()
        };
        let mut sys = chaos_system(GOLDEN_SEED, |cfg| cfg.faults = Some(fc));
        let mut sink = MemorySink::new();
        let result = RoundDriver::with_sink(&mut sink)
            .run(&mut FirstRoundOnly, &mut sys)
            .unwrap();
        let n = sys.num_units();
        // Round 0: all M dispatched, client 0 held. Round 1: nobody active but
        // the held report arrives. Rounds 2+: silent, off the ledger.
        let logged = result.comm.rounds();
        assert_eq!(logged.len(), 2, "dispatch round + stale-arrival round");
        assert_eq!(logged[0].active_clients, M);
        assert_eq!(logged[0].uplink_units, (M - 1) * n);
        assert_eq!(logged[0].downlink_units, M * n);
        assert_eq!(logged[1].active_clients, 0);
        assert_eq!(logged[1].downlink_units, 0);
        assert_eq!(
            logged[1].uplink_units, n,
            "arrived stale bytes must be charged"
        );
        assert_eq!(result.comm.total_uplink_units(), M * n);
        // The event stream mirrors the ledger entry for the inactive round.
        assert!(sink.events[1].active_clients.is_empty());
        assert_eq!(&sink.events[1].comm, &logged[1]);
        // And the observation stream records held-then-applied.
        assert_eq!(
            result.faults,
            vec![
                FaultObserved {
                    round: 0,
                    client: 0,
                    effect: FaultEffect::StragglerHeld { arrival: Some(1) },
                },
                FaultObserved {
                    round: 1,
                    client: 0,
                    effect: FaultEffect::StaleApplied {
                        staleness: 1,
                        weight: 0.5,
                    },
                },
            ]
        );
    }

    #[test]
    fn sync_stale_arrival_charges_compressed_bytes() {
        // The compressed twin of the stale-arrival pin above: under f16 the
        // straggler's report crosses the round boundary carrying its encoded
        // payload, and the arrival round's ledger entry charges the
        // *compressed* wire size — exactly 2 bytes per masked scalar, half
        // the raw 4.
        let fc = FaultConfig {
            staleness: StalenessPolicy::Discount { gamma: 0.5 },
            scripted: vec![ScriptedFault {
                round: 0,
                client: 0,
                kind: FaultKind::Straggler { delay: 1 },
            }],
            ..Default::default()
        };
        let mut sys = chaos_system(GOLDEN_SEED, |cfg| {
            cfg.faults = Some(fc);
            cfg.compression = Some(Compression::QuantF16);
        });
        let result = run(&RuntimeMode::Sync, &mut FirstRoundOnly, &mut sys, None).unwrap();
        let n = sys.num_units();
        let logged = result.comm.rounds();
        assert_eq!(logged.len(), 2, "dispatch round + stale-arrival round");
        assert_eq!(logged[0].uplink_units, (M - 1) * n);
        assert_eq!(
            logged[0].uplink_bytes,
            2 * logged[0].uplink_scalars,
            "fresh arrivals charge the f16 rate"
        );
        assert_eq!(logged[1].active_clients, 0);
        assert_eq!(logged[1].uplink_units, n);
        assert!(logged[1].uplink_scalars > 0);
        assert_eq!(
            logged[1].uplink_bytes,
            2 * logged[1].uplink_scalars,
            "the stale arrival must charge its compressed byte size"
        );
    }

    #[test]
    fn fully_compressed_away_stale_round_stays_off_the_ledger() {
        // The accounting bugfix this test pins: the empty-active-round ledger
        // condition must key on the *compressed* charge, not the mask. A top-k
        // fraction too small to keep a single scalar of any unit compresses
        // the straggler's report away entirely — its arrival round moves zero
        // bytes, so it must not mint a ledger entry (keyed on the mask it
        // would have, double-counting a round that charged nothing).
        let fc = FaultConfig {
            staleness: StalenessPolicy::Discount { gamma: 0.5 },
            scripted: vec![ScriptedFault {
                round: 0,
                client: 0,
                kind: FaultKind::Straggler { delay: 1 },
            }],
            ..Default::default()
        };
        let mut sys = chaos_system(GOLDEN_SEED, |cfg| {
            cfg.faults = Some(fc);
            // Valid (0 < frac ≤ 0.5) but smaller than 1/len for every unit
            // here: k = floor(frac · len) = 0 everywhere, every payload is
            // empty.
            cfg.compression = Some(Compression::TopK { frac: 1e-9 });
        });
        let mut sink = MemorySink::new();
        let result = RoundDriver::with_sink(&mut sink)
            .run(&mut FirstRoundOnly, &mut sys)
            .unwrap();
        let logged = result.comm.rounds();
        assert_eq!(
            logged.len(),
            1,
            "only the dispatch round may appear: the stale arrival charged nothing"
        );
        assert_eq!(logged[0].active_clients, M);
        assert_eq!(logged[0].uplink_units, 0, "every report compressed away");
        assert_eq!(logged[0].uplink_scalars, 0);
        assert_eq!(logged[0].uplink_bytes, 0);
        assert!(
            logged[0].downlink_units > 0,
            "the broadcast still cost a full model per client"
        );
        assert_eq!(result.comm.total_uplink_bytes(), 0);
        // The event stream still reports every round; the arrival round's
        // comm view is all-zero.
        assert_eq!(sink.events.len(), ROUNDS);
        assert!(!sink.events[1].comm.has_uplink());
    }

    #[test]
    fn async_report_outliving_the_run_is_never_charged() {
        // Client 0's scripted straggler report would land ~1000 ticks after the
        // run's final aggregation: its uplink bytes must never be charged, and
        // the async concurrency rule keeps the client out of every later wave.
        let fc = FaultConfig {
            scripted: vec![ScriptedFault {
                round: 0,
                client: 0,
                kind: FaultKind::Straggler { delay: 1000 },
            }],
            ..Default::default()
        };
        let mut sys = chaos_system(GOLDEN_SEED, |cfg| cfg.faults = Some(fc));
        let acfg = AsyncConfig {
            k: M - 1,
            gamma: 1.0,
        };
        let result = run(
            &RuntimeMode::Async(acfg),
            &mut FedAvg::vanilla(),
            &mut sys,
            None,
        )
        .unwrap();
        let n = sys.num_units();
        let logged = result.comm.rounds();
        assert_eq!(logged.len(), ROUNDS);
        assert_eq!(logged[0].active_clients, M);
        assert_eq!(logged[0].downlink_units, M * n);
        assert_eq!(logged[0].uplink_units, (M - 1) * n);
        for (v, rc) in logged.iter().enumerate().skip(1) {
            assert_eq!(rc.active_clients, M - 1, "v{v}: client 0 stays in flight");
            assert_eq!(rc.uplink_units, (M - 1) * n, "v{v}");
            assert_eq!(rc.downlink_units, (M - 1) * n, "v{v}");
        }
        assert_eq!(result.comm.total_uplink_units(), ROUNDS * (M - 1) * n);
        assert_eq!(
            common::downlink_units(&result),
            (M + (ROUNDS - 1) * (M - 1)) * n
        );
    }

    #[test]
    fn scripted_nan_corruption_is_rejected_and_never_reaches_the_model() {
        // The NaN grad-check: script a single NaN-corrupted update at an exact
        // (round, client) cell and require the server to reject it — the run
        // completes, the global model stays finite, and exactly one
        // CorruptionRejected record appears at the scripted cell.
        let faults = FaultConfig {
            scripted: vec![ScriptedFault {
                round: 1,
                client: 0,
                kind: FaultKind::Corruption(Corruption::NaN),
            }],
            ..Default::default()
        };
        let mut system = tiny_system_with(4, 8, |cfg| {
            cfg.rounds = 5;
            cfg.faults = Some(faults);
        });
        let mut protocol = FedDa::explore();
        let result = run(&RuntimeMode::Sync, &mut protocol, &mut system, None)
            .expect("scripted-fault run must complete");

        assert_eq!(result.curve.len(), 5);
        assert!(
            system.global.values().iter().all(|v| v.is_finite()),
            "NaN leaked into the model"
        );
        for eval in &result.curve {
            assert!(eval.roc_auc.is_finite() && eval.mrr.is_finite());
        }
        assert_eq!(result.faults.len(), 1, "exactly the scripted fault");
        let f = &result.faults[0];
        assert_eq!((f.round, f.client), (1, 0));
        assert_eq!(
            f.effect,
            FaultEffect::CorruptionRejected { non_finite: true }
        );
    }
}
