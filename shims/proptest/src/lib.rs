//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest 1.x this workspace's test suites use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`collection::vec`],
//! [`option::of`], [`any`](arbitrary::any), and the
//! `proptest!` / `prop_oneof!` / `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream: cases are sampled from a deterministic
//! per-test seed (derived from the test name, so runs are reproducible
//! without a persistence file), and failing cases are *not* shrunk — the
//! failing seed is reported instead.

#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Define property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples the strategies for a number of cases and
/// runs the body against each.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__proptest_rng| {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::sample(&($strat), __proptest_rng);
                    )+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Assert a condition inside a `proptest!` body; failures report the
/// sampled case instead of unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}` ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}` (both {:?})",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Discard the current case when a precondition does not hold; the runner
/// samples a replacement case instead of counting it.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}
