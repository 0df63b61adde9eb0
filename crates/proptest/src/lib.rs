//! A self-contained, dependency-free stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no access to crates.io, so
//! this crate reimplements exactly the slice of proptest's API the test
//! suites use: the [`proptest!`] macro, [`Strategy`] with `prop_map`,
//! range and tuple strategies, [`collection::vec`], [`prop_oneof!`], the
//! `prop_assert*` family, and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **Greedy halving shrink over generation sources instead of a value
//!   tree.** Every strategy draws a *source* (its generation witness,
//!   [`Strategy::generate_source`]) and realizes the finished value from
//!   it. On failure the runner re-tests simpler source candidates
//!   proposed by [`Strategy::shrink_source`] — a halving search toward
//!   each integer strategy's minimum (and toward shorter vectors) —
//!   adopting any candidate that still fails until none do, then reports
//!   both the original and the minimal failing inputs. Because
//!   `prop_map` retains its source strategy and re-maps each shrunk
//!   source candidate (shrink the input, not the output), mapped
//!   strategies minimize too — no transform inversion needed. Unlike
//!   real proptest there is no backtracking through a generation tree.
//! * **Fixed derivation of randomness** (SplitMix64 keyed by test name),
//!   rather than an OS-seeded RNG with a persisted failure file; failures
//!   reproduce exactly on re-run.

pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

pub use strategy::Strategy;
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Declares property tests. Mirrors proptest's surface; in a test suite
/// each property carries `#[test]`, and here the generated function is
/// called directly:
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     fn my_property(x in 0u64..100, v in proptest::collection::vec(any::<u8>(), 1..9)) {
///         prop_assert!(x < 100);
///         prop_assert!((1..9).contains(&v.len()));
///     }
/// }
///
/// my_property();
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                // All argument strategies as one tuple strategy, so
                // sources draw exactly as before (same rng consumption
                // order) and shrinking can hold other arguments fixed
                // while one shrinks.
                let strategies = ($(($strat),)+);
                let run_case = $crate::strategy::case_runner(&strategies, |values| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(values);
                    (|| { $body ::std::result::Result::Ok(()) })()
                });
                let mut accepted = 0usize;
                let mut rejected = 0usize;
                while accepted < config.cases {
                    let source =
                        $crate::strategy::Strategy::generate_source(&strategies, &mut rng);
                    let values = $crate::strategy::Strategy::realize(&strategies, &source);
                    match run_case(&values) {
                        Ok(()) => accepted += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected <= config.cases.saturating_mul(64),
                                "{}: too many cases rejected by prop_assume!",
                                stringify!($name),
                            );
                        }
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            // Greedy halving shrink over generation
                            // sources: keep adopting simpler source
                            // candidates while their realized values still
                            // fail, so the report names a minimal case,
                            // not just the first one generated. Bounded so
                            // pathological strategies cannot loop.
                            let mut minimal_source = source;
                            let mut minimal = values;
                            let mut minimal_msg = msg.clone();
                            let mut steps = 0usize;
                            let mut budget = 256usize;
                            'shrink: loop {
                                let candidates = $crate::strategy::Strategy::shrink_source(
                                    &strategies,
                                    &minimal_source,
                                );
                                if candidates.is_empty() {
                                    break;
                                }
                                let mut advanced = false;
                                for cand in candidates {
                                    if budget == 0 {
                                        break 'shrink;
                                    }
                                    budget -= 1;
                                    let value =
                                        $crate::strategy::Strategy::realize(&strategies, &cand);
                                    if let Err($crate::test_runner::TestCaseError::Fail(m)) =
                                        run_case(&value)
                                    {
                                        minimal_source = cand;
                                        minimal = value;
                                        minimal_msg = m;
                                        steps += 1;
                                        advanced = true;
                                        break;
                                    }
                                }
                                if !advanced {
                                    break;
                                }
                            }
                            panic!(
                                "property {name} failed at case {case}: {msg}\n\
                                 minimal failing inputs after {steps} shrink step(s) \
                                 (halving search): {minimal:?}\n\
                                 minimal case failure: {minimal_msg}\n\
                                 inputs are regenerated deterministically from the test name; \
                                 case {case} will recur at the same index.\n\
                                 rerun exactly:\n    cargo test -p {pkg} {name}",
                                name = stringify!($name),
                                case = accepted,
                                msg = msg,
                                minimal = minimal,
                                minimal_msg = minimal_msg,
                                steps = steps,
                                pkg = env!("CARGO_PKG_NAME"),
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Fails the current property case if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current property case if the two values are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r,
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Rejects the current case (it does not count toward the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Chooses uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
