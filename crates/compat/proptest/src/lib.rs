//! Minimal stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the subset of the
//! proptest API this workspace's property tests use is implemented here:
//! the [`Strategy`] trait (`prop_map`, `prop_flat_map`, `boxed`), range
//! and collection strategies, [`any`], `Just`, `prop_oneof!`, sample
//! indices, and the [`proptest!`] / `prop_assert*` macros.
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed (derived from the test's module path and name), and
//! there is **no shrinking** — a failing case panics with the regular
//! assertion message. That trades minimal-counterexample convenience for
//! zero dependencies; determinism means a failure always reproduces.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::Rng;
pub use rand::SeedableRng;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// FNV-1a over a string — used to derive a stable per-test seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Box<dyn Strategy<Value = V>>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted union of boxed strategies (built by `prop_oneof!`).
pub struct Union<V> {
    options: Vec<(u32, BoxedStrategy<V>)>,
}

impl<V> Union<V> {
    /// Build from weighted options.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty or all weights are zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total: u64 = options.iter().map(|&(w, _)| u64::from(w)).sum();
        assert!(total > 0, "prop_oneof! requires at least one positive weight");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let total: u64 = self.options.iter().map(|&(w, _)| u64::from(w)).sum();
        let mut ticket = rng.gen_range(0..total);
        for (w, s) in &self.options {
            let w = u64::from(*w);
            if ticket < w {
                return s.generate(rng);
            }
            ticket -= w;
        }
        unreachable!("ticket < total by construction")
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..=<$t>::MAX)
            }
        }
    )*};
}

impl_range_strategy_int!(u8, u16, u32, u64, usize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy_float!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a canonical "arbitrary value" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, bool, f64, f32);

/// Strategy for [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`: `any::<u32>()` etc.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Admissible size specifications for [`vec`](fn@vec).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling helpers.
pub mod sample {
    use super::{Arbitrary, TestRng};
    use rand::Rng;

    /// An index into a collection whose length is only known at use time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index {
        raw: u64,
    }

    impl Index {
        /// Map onto `0..len`.
        ///
        /// # Panics
        ///
        /// Panics when `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            (self.raw % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index { raw: rng.gen() }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };

    /// Namespace mirror of upstream's `prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Weighted / unweighted choice between strategies with a common value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
}

/// Property assertion (no shrinking: behaves as `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion (no shrinking: behaves as `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion (no shrinking: behaves as `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))] // optional
///
///     #[test]
///     fn my_property(x in 0u32..100, v in prop::collection::vec(any::<u8>(), 0..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($config:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:pat_param in $strategy:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let mut __rng = <$crate::TestRng as $crate::SeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                for __case in 0..__config.cases {
                    $(
                        let $arg = $crate::Strategy::generate(&($strategy), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples((a, b) in (0u32..10, 5u8..=6), x in any::<u64>()) {
            prop_assert!(a < 10);
            prop_assert!(b == 5 || b == 6);
            let _ = x;
        }

        #[test]
        fn oneof_and_collections(
            v in prop::collection::vec(prop_oneof![3 => Just(0u8), 1 => 1u8..=9], 0..32),
            idx in any::<prop::sample::Index>(),
        ) {
            prop_assert!(v.len() < 32);
            prop_assert!(v.iter().all(|&x| x <= 9));
            if !v.is_empty() {
                let i = idx.index(v.len());
                prop_assert!(i < v.len());
            }
        }

        #[test]
        fn map_and_flat_map(
            p in (1usize..5).prop_flat_map(|n| prop::collection::vec(0f64..1.0, n).prop_map(move |v| (n, v))),
        ) {
            prop_assert_eq!(p.0, p.1.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn config_is_honoured(_x in 0u32..10) {
            // Would run 64 times by default; with_cases(3) keeps it at 3.
        }
    }

    #[test]
    fn seeds_are_stable() {
        assert_eq!(super::seed_for("a::b"), super::seed_for("a::b"));
        assert_ne!(super::seed_for("a::b"), super::seed_for("a::c"));
    }
}
