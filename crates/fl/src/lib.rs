//! # fedda-fl
//!
//! The federated-learning layer of the FedDA reproduction: an in-process
//! simulated federation of heterograph clients plus the training protocols
//! the paper compares.
//!
//! * [`FlSystem`] — server + clients, parallel local updates (one worker
//!   thread per slot for the system's life),
//!   masked aggregation (Eq. 6), deterministic per-round evaluation and
//!   communication accounting (units *and* scalars, uplink and downlink);
//! * [`FedAvg`] — the baseline protocol, with the random client-fraction
//!   `C` and parameter-fraction `D` knobs of the motivating study (Fig. 2);
//! * [`FedDa`] — dynamic activation of clients and parameters
//!   (Algorithm 1), with the `Restart` (Alg. 2) and `Explore` (Alg. 3)
//!   reactivation strategies, the occupancy threshold `α`, and both mask
//!   update rules (§5.3 prose vs. literal Eq. 7);
//! * the protocol zoo — [`FedProx`] (μ-proximal local objective),
//!   [`FedDyn`] (dynamic regularization with the server `h` correction)
//!   and [`FedAdam`] (FedOpt's server-side adaptive optimiser), ported
//!   onto the same engine through the
//!   [`local_regularizer`](FlProtocol::local_regularizer) client-objective
//!   hook;
//! * [`baselines`] — centralised `Global` and isolated `Local` training;
//! * [`analysis`] — the closed-form efficiency model of §5.4.3
//!   (Eqs. 8–11);
//! * `faults` ([`FaultConfig`]) — deterministic fault injection (client dropout, straggler
//!   delay, update corruption) with its own RNG stream, structured
//!   [`FaultObserved`] records and graceful degradation guarantees
//!   (exercised by the `chaos` test harness);
//! * [`compress`] — the uplink [`Compression`] stage (lossless `Identity`,
//!   `i8`/`f16` scalar quantization, magnitude top-k sparsification): one
//!   enum that is both the configured codec and its encoder;
//!   mask-then-compress at dispatch, decompress at server arrival, with
//!   the comm ledger charging compressed bytes.
//!
//! Every round protocol is one value — its hyper-parameters as public
//! fields, its per-run state as private ones that `begin` sizes — that
//! implements [`FlProtocol`], and executes on one round engine — dispatch,
//! arrival admission, commit — over the event-driven simulation [`runtime`]
//! (deterministic virtual clock, ordered event queue, worker pool).
//! [`run`]`(mode, protocol, system, sink)` is the one way to run it: it
//! takes the runtime as a [`RuntimeMode`], and the two modes differ in a
//! five-decision arrival policy and in nothing else that moves a bit.
//! ([`RoundDriver`],
//! [`AsyncDriver`], [`FedDa::protocol`] and [`Compression::build`] are
//! one-line wrappers kept because the benchmark package links them; they go
//! when it is re-pointed.)
//!
//! | decision | [`RuntimeMode::Sync`] (lockstep) | [`RuntimeMode::Async`] (buffered, FedBuff-style) |
//! |---|---|---|
//! | eligibility | every selected client | selected clients without a report in flight (a client holds at most one) |
//! | latency | round `r` is tick `r`; a straggler lands `delay` ticks later and is recorded as `StragglerHeld` at dispatch; a report the run would outlive (`r + delay ≥ rounds`) is never encoded, delivered or charged | every report lands `1 + delay` ticks after dispatch, none is lost at dispatch or recorded as held — what is still in flight when the run ends is never charged |
//! | flush trigger | nothing more is due at this round's tick | `K` reports admitted, or the queue starved (short and empty flushes keep the commit count at `rounds`) |
//! | staleness weight | `FaultConfig::staleness` (`Discard` drops the report, `Discount{γ}` weights it `γ^s`) | `γ^s` from [`AsyncConfig::gamma`], never discards |
//! | order at flush | this round's reports by dispatch position, then held reports by arrival — contributions and fault records alike — and `post_aggregate` sees this round's returns only | arrival order throughout; `post_aggregate` sees every admitted return |
//!
//! Both stream structured per-round [`RoundEvent`]s to the [`EventSink`]
//! [`run`] is handed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
// Determinism & safety invariants D3 / D4 (DESIGN.md §6), run by `cargo lint`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod analysis;
pub mod baselines;
mod comm;
pub mod compress;
mod engine;
mod events;
mod faults;
mod fedavg;
mod fedda;
mod feddyn;
mod fedopt;
mod fedprox;
mod protocol;
pub mod runtime;
mod system;

// The test federation the integration suites build through
// (`tests/common/mod.rs`), compiled into the in-crate tests too, so the two
// run on one fixture. It names this crate as its suites do, `fedda_fl::…`.
#[cfg(test)]
extern crate self as fedda_fl;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
#[allow(
    unreachable_pub,
    reason = "the fixture's items are `pub` for the integration suites"
)]
mod common;

pub use baselines::GlobalProtocol;
pub use comm::{CommLog, RoundComm};
pub use compress::{Compressed, Compression, Delta, InFlight, UplinkCharge};
pub use engine::{run, AsyncConfig, AsyncDriver, RoundDriver, RuntimeMode};
pub use events::{EventSink, MemorySink, RoundEvent, StderrSink};
pub use faults::{
    Corruption, FaultConfig, FaultEffect, FaultKind, FaultObserved, FaultPlan, StalenessPolicy,
    FAULT_STREAM_TWEAK,
};
pub use fedavg::FedAvg;
pub use fedda::{FedDa, MaskRule, Reactivation};
pub use feddyn::FedDyn;
pub use fedopt::FedAdam;
pub use fedprox::FedProx;
pub use protocol::{FlProtocol, LocalPenalty, StepOutcome};
pub use system::{
    ActivationSnapshot, AggWeighting, Client, ClientReturn, FlConfig, FlSystem, PrivacyConfig,
    RoundEval, RunResult, WeightedReturn, EVAL_STREAM_TWEAK,
};
