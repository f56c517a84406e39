//! Offline shim for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), [`strategy::Strategy`] with
//! `prop_map`, `any::<T>()`, numeric-range and tuple strategies,
//! [`collection::vec`], [`option::of`], [`prop_oneof!`] (weighted and
//! unweighted), `Just`, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate: cases are generated from a
//! deterministic per-test RNG (seeded from the test's module path and name)
//! and failing inputs are **not shrunk** — the panic message reports the
//! generated values via the test's own assertion text instead.

#![warn(missing_docs)]

pub mod test_runner {
    //! Test-case driving: configuration, RNG, and rejection bookkeeping.

    /// Run configuration; `cases` is the number of accepted cases required.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Number of (non-rejected) cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Marker for a rejected case (`prop_assume!` failure).
    #[derive(Debug, Clone, Copy)]
    pub struct Rejected;

    /// Deterministic RNG (splitmix64 seeding an xoshiro256++ core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seeds deterministically from a test identifier string.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name, then splitmix64 to fill the state.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut sm = h;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next raw 64-bit value (xoshiro256++).
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, bound)`; `bound` must be positive.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo is fine here: test-data generation tolerates the bias.
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// Generates values of `Self::Value` from an RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A boxed generator arm of a [`Union`] with its selection weight.
    pub type WeightedArm<V> = (u32, Box<dyn Fn(&mut TestRng) -> V>);

    /// Weighted choice among same-valued strategies ([`crate::prop_oneof!`]).
    pub struct Union<V> {
        arms: Vec<WeightedArm<V>>,
        total: u64,
    }

    impl<V> std::fmt::Debug for Union<V> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Union({} arms)", self.arms.len())
        }
    }

    impl<V> Union<V> {
        /// Builds a union from `(weight, generator)` arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        pub fn weighted(arms: Vec<WeightedArm<V>>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one weighted arm");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, arm) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return arm(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum covered above")
        }
    }

    /// Types with a canonical full-range strategy ([`any`]).
    pub trait Arbitrary {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The canonical strategy for `T` (full value range).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Returns the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_ints!(u8, u32, u64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }
    range_strategy!(u8, u32, u64, usize, i8);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident/$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length bounds for [`vec()`]; build one from a `Range<usize>` or a
    /// `RangeInclusive<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>` (`None` one time in four).
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// Generates `Some(inner)` 75% of the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod prelude {
    //! Single-import surface mirroring `proptest::prelude::*`.

    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestRng;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = (<$crate::test_runner::Config as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            let __max_attempts = __cfg.cases.saturating_mul(16).max(256);
            while __accepted < __cfg.cases && __attempts < __max_attempts {
                __attempts += 1;
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                // The closure gives `prop_assume!`'s `return Err(..)` a
                // function boundary to return through.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::core::result::Result<(), $crate::test_runner::Rejected> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if __outcome.is_ok() {
                    __accepted += 1;
                }
            }
            assert!(
                __accepted >= __cfg.cases,
                "proptest: only {} of {} cases accepted (too many prop_assume! rejections)",
                __accepted,
                __cfg.cases,
            );
        }
    )*};
}

/// Asserts a condition inside a property, failing the whole test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property, failing the whole test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property, failing the whole test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Rejects the current case (it does not count toward the case quota).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

/// Picks among strategies, optionally weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![$(
            (
                $weight as u32,
                ::std::boxed::Box::new({
                    let __s = $strat;
                    move |rng: &mut $crate::test_runner::TestRng| {
                        $crate::strategy::Strategy::generate(&__s, rng)
                    }
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>,
            )
        ),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strat),+)
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_any_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(5u32..17), &mut rng);
            assert!((5..17).contains(&v));
            let f = Strategy::generate(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = Strategy::generate(&(3usize..=4), &mut rng);
            assert!((3..=4).contains(&i));
        }
    }

    #[test]
    fn vec_and_tuple_strategies() {
        let mut rng = TestRng::from_name("vec");
        let s = crate::collection::vec((any::<u8>(), 0u64..9), 2..5);
        for _ in 0..200 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&(_, b)| b < 9));
        }
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let mut rng = TestRng::from_name("oneof");
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let trues = (0..1000)
            .filter(|_| Strategy::generate(&s, &mut rng))
            .count();
        assert!(trues > 800, "trues={trues}");
    }

    #[test]
    fn option_of_mixes_none_and_some() {
        let mut rng = TestRng::from_name("option");
        let s = crate::option::of(any::<u64>());
        let nones = (0..1000)
            .filter(|_| Strategy::generate(&s, &mut rng).is_none())
            .count();
        assert!((100..500).contains(&nones), "nones={nones}");
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::from_name("same");
        let mut b = TestRng::from_name("same");
        let mut c = TestRng::from_name("other");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(x in 1u64..100, v in crate::collection::vec(any::<u8>(), 0..16)) {
            prop_assume!(x != 13);
            prop_assert!((1..100).contains(&x));
            prop_assert_ne!(x, 13);
            prop_assert_eq!(v.len(), v.len());
        }
    }

    proptest! {
        #[test]
        fn macro_without_config(b in any::<bool>()) {
            prop_assert!(b as u8 <= 1);
        }
    }
}
