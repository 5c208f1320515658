//! Offline stand-in for the [`proptest`](https://docs.rs/proptest)
//! property-testing harness.
//!
//! This container builds with no registry access, so the real proptest
//! crate cannot be fetched. This shim implements the subset of the API
//! the in-repo tests use — the `proptest!` macro, `prop_assert!`/
//! `prop_assert_eq!`, numeric range strategies, 2-tuples of strategies,
//! and `proptest::collection::vec` — by running each property over a
//! fixed number of deterministically generated cases (seeded from the
//! test name, so failures are reproducible). There is no shrinking;
//! swap the manifest back to the real crate when a registry is
//! available (the test sources need no changes).
//!
//! # Example: the strategy engine behind the `proptest!` macro
//!
//! ```
//! use proptest::{collection, Strategy, TestRng};
//!
//! let mut rng = TestRng::for_test("doc-example");
//! let (a, b) = (0u32..1000, 0u32..1000).generate(&mut rng);
//! assert!(a < 1000 && b < 1000);
//! let xs = collection::vec(0.0f64..1.0, 8).generate(&mut rng);
//! assert_eq!(xs.len(), 8);
//! assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
//! // Streams are a pure function of the test name — reruns reproduce.
//! let replay = (0u32..1000, 0u32..1000).generate(&mut TestRng::for_test("doc-example"));
//! assert_eq!(replay, (a, b));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::Range;

/// Number of deterministic cases each property runs.
pub const DEFAULT_CASES: u32 = 32;

/// Deterministic splitmix64 generator seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator whose stream is a pure function of `name`.
    #[must_use]
    pub fn for_test(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator, mirroring proptest's strategy concept.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*
    };
}

int_range_strategy!(u32, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.next_unit() * (self.end - self.start)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A length specification: either an exact `usize` or a `Range`.
    pub trait IntoSizeRange {
        /// Draws a length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Mirrors `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Run configuration accepted by `#![proptest_config(...)]`: properties
/// under a config run exactly `cases` generated inputs (the real
/// proptest's semantics); properties without one run
/// [`DEFAULT_CASES`].
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases each property in the block runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Mirrors `ProptestConfig::with_cases`.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// The prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRng};
}

/// Declares property tests, mirroring proptest's macro: each
/// `#[test] fn name(arg in strategy, ...) { body }` item becomes a test
/// running the body over generated inputs — [`DEFAULT_CASES`] of them,
/// or exactly the count a leading `#![proptest_config(...)]` requests
/// (differential harnesses pin their case floor this way).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $(
        #[test]
        fn $name:ident ( $( $arg:ident in $strategy:expr ),+ $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let __cases: u32 = ($cfg).cases;
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..__cases {
                    $( let $arg = $crate::Strategy::generate(&($strategy), &mut __rng); )+
                    $body
                }
            }
        )*
    };
    ($(
        #[test]
        fn $name:ident ( $( $arg:ident in $strategy:expr ),+ $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..$crate::DEFAULT_CASES {
                    $( let $arg = $crate::Strategy::generate(&($strategy), &mut __rng); )+
                    $body
                }
            }
        )*
    };
}

/// Mirrors `prop_assert!` by delegating to `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Mirrors `prop_assert_eq!` by delegating to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("bounds");
        for _ in 0..200 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = TestRng::for_test("same");
        let mut b = TestRng::for_test("same");
        let s = collection::vec(0.0f64..1.0, 2..10);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    proptest! {
        #[test]
        fn shim_macro_expands(x in 0u64..10, v in collection::vec(-1.0f64..1.0, 4)) {
            prop_assert!(x < 10);
            prop_assert_eq!(v.len(), 4);
        }
    }

    thread_local! {
        // Thread-local so the harness's own (parallel) run of the
        // property can never interleave with the synchronous pass the
        // check below drives — each thread counts only its own cases.
        static CONFIGURED_RUNS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(77))]
        #[test]
        fn configured_case_count_is_honored(_x in 0u64..10) {
            CONFIGURED_RUNS.with(|c| c.set(c.get() + 1));
        }
    }

    #[test]
    fn configured_case_count_check() {
        CONFIGURED_RUNS.with(|c| c.set(0));
        configured_case_count_is_honored();
        let runs = CONFIGURED_RUNS.with(std::cell::Cell::get);
        assert_eq!(runs, 77, "with_cases(77) must run exactly 77 cases per pass");
    }
}
