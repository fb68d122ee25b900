//! # fedda-tensor
//!
//! A small, dependency-light dense tensor library with tape-based
//! reverse-mode automatic differentiation, purpose-built for the FedDA
//! reproduction (heterogeneous graph neural networks trained inside a
//! federated-learning simulator).
//!
//! The crate provides:
//!
//! * [`Matrix`] — dense row-major `f32` storage with the kernels the models
//!   need (matmul with fused transposes, gather/scatter, reductions);
//! * [`Graph`] / [`Var`] — a define-by-run autodiff tape whose op set covers
//!   GAT-style attention (segment softmax over incoming edges), residual
//!   connections, L2-normalised outputs, and binary-cross-entropy link
//!   prediction losses;
//! * [`ParamSet`] — named parameter units with FL metadata (shared vs.
//!   per-edge-type "disentangled" units, the paper's `[N]` and `[N_d]`
//!   index sets): a shared layout over one flat value buffer;
//! * [`Adam`] — the optimiser over a `ParamSet`;
//! * [`init`] — seedable weight initialisers.
//!
//! Everything is deterministic given a seed: no thread-local RNGs, no
//! unordered hash iteration on numeric paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
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

pub mod gemm;
pub mod init;
mod matrix;
mod optim;
mod param;
mod tape;

pub use matrix::Matrix;
pub use optim::Adam;
pub use param::{ParamId, ParamMeta, ParamSet, TapeBindings};
pub use tape::{sigmoid_scalar, Graph, Segments, Var};

/// What the `x86-64-v3` level (DESIGN.md §8) adds to the 2003 baseline,
/// under the names Linux's `/proc/cpuinfo` gives them, each with whether
/// this build was allowed to use it.
const LEVEL_FEATURES: [(&str, bool); 8] = [
    ("avx", cfg!(target_feature = "avx")),
    ("avx2", cfg!(target_feature = "avx2")),
    ("bmi1", cfg!(target_feature = "bmi1")),
    ("bmi2", cfg!(target_feature = "bmi2")),
    ("f16c", cfg!(target_feature = "f16c")),
    ("fma", cfg!(target_feature = "fma")),
    ("abm", cfg!(target_feature = "lzcnt")),
    ("movbe", cfg!(target_feature = "movbe")),
];

/// Whether this CPU has every instruction-set extension the binary was
/// compiled to use; `Err` carries the message to print before exiting.
///
/// On a CPU below the build's level the first vector instruction kills the
/// process with `SIGILL`, so every binary asks here first. The CPU's side
/// comes from `/proc/cpuinfo`, not `std::arch::is_x86_feature_detected!`:
/// that macro expands to `cfg!(target_feature = ..) || <runtime test>`, so
/// in exactly the build this check exists for it is the constant `true`.
/// Where there is no such file, or nothing beyond the baseline was
/// compiled in (`RUSTFLAGS="-C target-cpu=x86-64"`, other architectures),
/// the answer is `Ok`.
pub fn check_isa_level() -> Result<(), String> {
    if LEVEL_FEATURES.iter().all(|&(_, compiled_in)| !compiled_in) {
        return Ok(());
    }
    match std::fs::read_to_string("/proc/cpuinfo") {
        Ok(cpuinfo) => refuse_if_missing(&cpuinfo),
        Err(_) => Ok(()),
    }
}

/// [`check_isa_level`] against the given `/proc/cpuinfo` text.
fn refuse_if_missing(cpuinfo: &str) -> Result<(), String> {
    let Some(flags) = cpuinfo.lines().find_map(|l| l.strip_prefix("flags")) else {
        return Ok(());
    };
    let missing: Vec<&str> = LEVEL_FEATURES
        .iter()
        .filter(|&&(name, compiled_in)| {
            compiled_in && !flags.split_whitespace().any(|have| have == name)
        })
        .map(|&(name, _)| name)
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    Err(format!(
        "this binary was built to use {}, which this CPU lacks; \
         rebuild for the x86-64 baseline with \
         `RUSTFLAGS=\"-C target-cpu=x86-64\" cargo build --release`",
        missing.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The build host runs the tests it builds, so it has the level.
    #[test]
    fn build_host_has_the_compiled_isa_level() {
        assert_eq!(check_isa_level(), Ok(()));
    }

    /// A 2012 Ivy Bridge (AVX and F16C, nothing else of the level) is
    /// refused by a build that uses the level and accepted by one that
    /// does not.
    #[test]
    fn a_cpu_below_the_level_is_refused_by_name() {
        let ivy_bridge = "processor\t: 0\nmodel name\t: Intel(R) Core(TM) i5-3570\n\
                          flags\t\t: fpu sse sse2 ssse3 sse4_1 sse4_2 popcnt avx f16c\n";
        let refusal = refuse_if_missing(ivy_bridge);
        assert_eq!(refusal.is_err(), cfg!(target_feature = "avx2"));
        if let Err(msg) = refusal {
            assert!(msg.contains("avx2, bmi1, bmi2, fma, abm, movbe"), "{msg}");
            assert!(!msg.contains("avx,") && !msg.contains("f16c"), "{msg}");
            assert!(msg.contains("target-cpu=x86-64\""), "{msg}");
        }
        let haswell = "flags\t\t: fpu sse2 avx avx2 bmi1 bmi2 f16c fma abm movbe\n";
        assert_eq!(refuse_if_missing(haswell), Ok(()));
        assert_eq!(refuse_if_missing("no flags line at all\n"), Ok(()));
    }
}
