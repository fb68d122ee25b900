//! # fedda-fl
//!
//! The federated-learning layer of the FedDA reproduction: an in-process
//! simulated federation of heterograph clients plus the training protocols
//! the paper compares.
//!
//! * [`FlSystem`] — server + clients, parallel local updates (crossbeam),
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
//! * [`faults`] — deterministic fault injection (client dropout, straggler
//!   delay, update corruption) with its own RNG stream, structured
//!   [`FaultObserved`] records and graceful degradation guarantees
//!   (exercised by the `chaos` test harness);
//! * [`compress`] — the uplink [`Compressor`] stage (lossless `Identity`,
//!   `i8`/`f16` scalar quantization, magnitude top-k sparsification):
//!   mask-then-compress at dispatch, decompress at server arrival, with
//!   the comm ledger charging compressed bytes.
//!
//! Every round protocol implements [`FlProtocol`] and executes on the
//! event-driven simulation [`runtime`] (deterministic virtual clock,
//! ordered event queue, worker pool, bounded mailbox) through one of two
//! drivers: the synchronous [`RoundDriver`] facade — the canonical
//! lockstep round loop (broadcast, parallel local round, masked
//! aggregation, comm accounting, evaluation cadence), bit-identical to
//! its pre-runtime form — or the buffered-asynchronous [`AsyncDriver`]
//! (aggregate-on-K-arrivals with `γ^staleness` discounting). Both stream
//! structured per-round [`RoundEvent`]s to a pluggable [`EventSink`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
mod async_driver;
pub mod baselines;
mod comm;
pub mod compress;
mod dispatch;
mod driver;
mod events;
pub mod faults;
mod fedavg;
mod fedda;
pub mod feddyn;
pub mod fedopt;
pub mod fedprox;
mod protocol;
pub mod runtime;
mod system;

pub use async_driver::{AsyncConfig, AsyncDriver, RuntimeMode};
pub use baselines::GlobalProtocol;
pub use comm::{CommLog, RoundComm};
pub use compress::{Compressed, Compression, Compressor, Delta, InFlight, UplinkCharge};
pub use driver::RoundDriver;
pub use events::{EventSink, MemorySink, RoundEvent, StderrSink};
pub use faults::{
    renormalize, Corruption, FaultConfig, FaultEffect, FaultKind, FaultObserved, FaultPlan,
    ScriptedFault, StalenessPolicy,
};
pub use fedavg::FedAvg;
pub use fedda::{FedDa, FedDaProtocol, MaskRule, Reactivation};
pub use feddyn::{FedDyn, FedDynProtocol};
pub use fedopt::{FedAdam, FedAdamProtocol};
pub use fedprox::FedProx;
pub use protocol::{FlProtocol, LocalPenalty, StepOutcome};
pub use system::{
    ActivationSnapshot, AggWeighting, Client, ClientReturn, FlConfig, FlSystem, PrivacyConfig,
    RoundEval, RunResult, WeightedReturn,
};
