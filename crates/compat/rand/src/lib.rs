//! Minimal stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the subset of the
//! `rand 0.8` API this workspace uses is implemented here:
//!
//! * [`Rng`] with `gen`, `gen_range` and `gen_bool`;
//! * [`SeedableRng`] with `seed_from_u64` / `from_seed`;
//! * [`rngs::StdRng`] — here a xoshiro256++ generator (excellent
//!   statistical quality, sub-nanosecond step) seeded via SplitMix64;
//! * [`seq::SliceRandom`] with `shuffle` and `choose`.
//!
//! Determinism is the property the workspace actually relies on (same
//! seed ⇒ same trace); no compatibility with upstream `rand` stream
//! values is promised.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (upper half of a 64-bit draw).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing generator interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its full/standard range
    /// (`f64`/`f32` sample uniformly from `[0, 1)`).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a range (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    #[inline]
    fn gen_range<T, RG: SampleRange<T>>(&mut self, range: RG) -> T {
        range.sample_one(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }

    /// Fill a byte slice with random data.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types sampleable from their standard distribution by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Map a uniform `u64` onto `[0, span)` via the widening-multiply method.
#[inline]
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    (((rng.next_u64() as u128) * (span as u128)) >> 64) as u64
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + bounded_u64(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                lo + bounded_u64(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as Standard>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

impl_sample_range_float!(f32, f64);

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Fixed-size seed type.
    type Seed;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a 64-bit convenience seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step, used for seed expansion.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
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
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            }
            // An all-zero state is a fixed point; re-derive.
            if s == [0; 4] {
                return Self::seed_from_u64(0);
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Extension trait for random slice operations.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn determinism() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ranges_hit_bounds_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.gen_range(1u32..6);
            assert!((1..6).contains(&v));
            seen[v as usize] = true;
        }
        assert!(seen[1..6].iter().all(|&s| s));
        assert!(!seen[0]);
        for _ in 0..100 {
            let v = rng.gen_range(3usize..=4);
            assert!((3..=4).contains(&v));
        }
        for _ in 0..100 {
            let f = rng.gen_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice sorted (astronomically unlikely)"
        );
    }

    #[test]
    fn generic_unsized_rng_usage() {
        fn takes_dynish<R: super::RngCore + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(4);
        let v = takes_dynish(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
