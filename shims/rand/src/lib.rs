//! Offline stand-in for the `rand` crate (0.8 API surface).
//!
//! The build environment has no crates.io access, so this workspace vendors
//! a minimal, deterministic implementation of the subset of `rand` 0.8 the
//! code base uses: [`RngCore`], [`Rng`] (`gen`, `gen_range`, `gen_bool`),
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256** seeded through
//! SplitMix64 — not ChaCha12, so streams differ from upstream `rand`, but
//! every consumer in this workspace only relies on *determinism given a
//! seed*, which this provides: same seed, same platform-independent stream.

#![warn(missing_docs)]

pub mod rngs;
pub mod seq;

/// Low-level uniform bit generation.
pub trait RngCore {
    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` by expanding it with SplitMix64 (the same
    /// scheme upstream `rand` documents for `seed_from_u64`).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let out = splitmix64(&mut state);
            let bytes = out.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types samplable from the "standard" distribution (`Rng::gen`).
pub trait StandardSample {
    /// Draw one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // high bit, like upstream rand
        rng.next_u32() & (1 << 31) != 0
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 mantissa bits -> uniform in [0, 1)
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> uniform in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // full-width range
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
    )*};
}
int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform draw from `[0, span)` via rejection sampling (unbiased).
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                self.start + (self.end - self.start) * u
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                lo + (hi - lo) * u
            }
        }
    )*};
}
float_sample_range!(f32, f64);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample from the standard distribution of `T` (uniform bits for
    /// integers, `[0, 1)` for floats, fair coin for `bool`).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0,1]");
        <f64 as StandardSample>::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn seeded_streams_reproduce() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..10);
            assert!((3..10).contains(&v));
            let w: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f32 = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(9);
        let heads = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_000..6_000).contains(&heads), "{heads}");
    }
}
