//! Minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment for this workspace has no registry access, so the
//! real `proptest` cannot be fetched. This shim implements exactly the API
//! surface the workspace's property tests use, with the same semantics at
//! the call sites:
//!
//! * the [`proptest!`] macro (functions whose arguments are `name in strategy`
//!   bindings, run for many sampled cases),
//! * integer-range strategies (`0u64..1000`, `1u32..8`, …),
//! * [`collection::vec`](prop::collection::vec) with an exact size or a size
//!   range,
//! * [`bool::weighted`](prop::bool::weighted) and
//!   [`option::weighted`](prop::option::weighted),
//! * [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assert_ne!`].
//!
//! Sampling is fully deterministic: the case stream is seeded from the test
//! function's name, so failures reproduce without a persistence file. Set
//! `PROPTEST_CASES` to change the number of cases per test (default 64).
//!
//! When a registry is reachable, point the `proptest` entry of the root
//! `[workspace.dependencies]` back at crates.io; this shim then drops out of
//! the graph with no source changes.
//!
//! [`proptest`]: https://docs.rs/proptest

/// Deterministic SplitMix64 stream used to sample strategies.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// How a value is drawn from a strategy. The real crate separates strategies
/// from value trees (for shrinking); this shim does not shrink, so a strategy
/// is just a sampler.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            // `$t as u64` is trivial when `$t` = u64 — macro-width casts.
            #[allow(trivial_numeric_casts)]
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            // `$t as u64` is trivial when `$t` = u64 — macro-width casts.
            #[allow(trivial_numeric_casts)]
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width u64 inclusive range.
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Strategy combinators under the same paths as the real crate.
pub mod prop {
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Size specification for [`vec()`]: an exact length or a half-open
        /// range of lengths.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec size range");
                Self {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                Self {
                    lo: *r.start(),
                    hi: *r.end() + 1,
                }
            }
        }

        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let len = self.size.lo + rng.below(span.max(1)) as usize;
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }

    pub mod bool {
        use crate::{Strategy, TestRng};

        /// `true` with probability `p`.
        pub fn weighted(p: f64) -> Weighted {
            Weighted(p)
        }

        pub struct Weighted(f64);

        impl Strategy for Weighted {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.next_f64() < self.0
            }
        }
    }

    pub mod option {
        use crate::{Strategy, TestRng};

        /// `Some(inner)` with probability `p`, else `None`.
        pub fn weighted<S>(p: f64, inner: S) -> OptionStrategy<S> {
            OptionStrategy { p, inner }
        }

        pub struct OptionStrategy<S> {
            p: f64,
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_f64() < self.p {
                    Some(self.inner.sample(rng))
                } else {
                    None
                }
            }
        }
    }
}

/// Per-invocation configuration, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: cases() }
    }
}

/// Everything a property-test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Number of cases each property runs (`PROPTEST_CASES`, default 64).
#[expect(
    clippy::disallowed_methods,
    reason = "test-harness knob mirroring upstream proptest; never linked into a simulation"
)]
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Stable per-test seed so failures reproduce across runs and machines.
pub fn seed_for(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[macro_export]
macro_rules! proptest {
    // Leading `#![proptest_config(..)]` fixes the case count for the block.
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            $crate::run_cases(stringify!($name), config.cases, |rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                $body
            });
        }
    )*};
    ($(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), $crate::cases(), |rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                $body
            });
        }
    )*};
}

/// Drives one property: samples `cases` inputs from the per-test stream and
/// runs the body on each. Used by [`proptest!`]; not part of the real API.
pub fn run_cases(name: &str, cases: u32, mut body: impl FnMut(&mut TestRng)) {
    let mut rng = TestRng::new(seed_for(name));
    for _ in 0..cases {
        body(&mut rng);
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{Strategy, TestRng};

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (3u32..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let w = (5u64..=5).sample(&mut rng);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn vec_respects_size_spec() {
        let mut rng = TestRng::new(11);
        for _ in 0..200 {
            let exact = prop::collection::vec(0u8..4, 9).sample(&mut rng);
            assert_eq!(exact.len(), 9);
            let ranged = prop::collection::vec(0u64..10, 1..5).sample(&mut rng);
            assert!((1..5).contains(&ranged.len()));
        }
    }

    #[test]
    fn weighted_bool_is_biased() {
        let mut rng = TestRng::new(13);
        let hits = (0..10_000)
            .filter(|_| prop::bool::weighted(0.15).sample(&mut rng))
            .count();
        assert!((1000..2000).contains(&hits), "got {hits} of 10000");
    }

    #[test]
    fn weighted_option_is_biased_and_samples_inner() {
        let mut rng = TestRng::new(17);
        let mut somes = 0;
        for _ in 0..10_000 {
            if let Some(v) = prop::option::weighted(0.6, 3u64..9).sample(&mut rng) {
                assert!((3..9).contains(&v));
                somes += 1;
            }
        }
        assert!((5_000..7_000).contains(&somes), "got {somes} of 10000");
    }

    #[test]
    fn same_name_same_stream() {
        let mut a = TestRng::new(super::seed_for("x"));
        let mut b = TestRng::new(super::seed_for("x"));
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        /// The macro itself: bindings sample, asserts fire.
        #[test]
        fn macro_round_trip(n in 1u32..50, xs in prop::collection::vec(0u64..9, 0..20)) {
            prop_assert!((1..50).contains(&n));
            prop_assert!(xs.iter().all(|&x| x < 9));
            prop_assert_eq!(xs.len(), xs.len());
            prop_assert_ne!(n, 0);
        }
    }
}
