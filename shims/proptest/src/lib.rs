//! In-tree, offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro with `pat in strategy` parameters and an optional
//! `#![proptest_config(...)]` header, [`prop_assert!`] / [`prop_assert_eq!`],
//! range / tuple / `collection::vec` strategies, and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest, by design:
//!
//! * cases are generated from a fixed per-case seed, so runs are fully
//!   deterministic across machines (no persisted failure regressions file);
//! * there is **no shrinking** — a failing case reports its case index and
//!   seed instead of a minimized input.

pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Defines property tests. See the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::case_rng(case);
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(e) = outcome {
                        ::core::panic!(
                            "proptest case {}/{} (seed {}) failed: {}",
                            case + 1,
                            config.cases,
                            case,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", ::core::stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current property case unless both sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    ::core::stringify!($left),
                    ::core::stringify!($right),
                    left,
                    right
                ),
            ));
        }
    }};
}
