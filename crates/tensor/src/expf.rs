//! One `expf` for the tape: glibc's single-precision exponential, bit for
//! bit, with a slice form that vectorises (DESIGN.md §8 "One `expf`").
//!
//! `f32::exp` is a call into libm per element, and glibc's `expf` opens
//! with a branch on the input's range. A kernel that calls it cannot
//! vectorise, and on an ELU input half of whose entries are negative the
//! branch mispredicts. This module is that same function — ARM's
//! optimized-routines `expf`, shipped in glibc since 2.27 — written out in
//! Rust, so [`exp_in_place`] can run its in-range path over sixteen lanes
//! at a time without a branch.
//!
//! glibc dispatches `expf` to a build compiled with FMA on every CPU that
//! has it, and every CPU an `x86-64-v3` binary runs on does. That build
//! contracts four of the algorithm's multiply-adds, so they are written here
//! as `f64::mul_add`: one `vfmadd…pd/sd` at `x86-64-v3`, a call to libm's
//! correctly rounded `fma` at the baseline — the same bits either way. The
//! fusion is part of the function being reproduced, not a contraction of
//! this crate's arithmetic; the GEMM's two-rounding contract is untouched,
//! and this is the one module `clippy.toml` lets call `mul_add`.
//!
//! The tests compare against `f32::exp` by `to_bits`: a strided sweep and the
//! edge cases in tier-1, and every one of the 2³² inputs in an `#[ignore]`d
//! test (`cargo test -p fedda-tensor --release --lib expf -- --ignored`).

// The constants are bit patterns, read as floats where they are used
// (`from_bits` is not `const` at the workspace's MSRV).

/// `N / ln 2` for the `N = 32`-entry table.
const INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
/// `1.5 · 2⁵²`: adding it rounds to an integer, kept in the low mantissa bits.
const SHIFT: u64 = 0x4338_0000_0000_0000;
/// Cubic for `2^(r/N)`: `C[0]·r³ + C[1]·r² + C[2]·r + 1`.
const C: [u64; 3] = [
    0x3ebc_6af8_4b91_2394,
    0x3f2e_bfce_50fa_c4f3,
    0x3f96_2e42_ff0c_52d6,
];
/// `2^(i/N)` with the exponent of `i / N` taken out of its bits.
#[rustfmt::skip]
const T: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// Above this, `e^x` overflows f32 (`ln 2¹²⁸ ≈ 88.72`).
const OVERFLOW: u32 = 0x42b1_7217;
/// Below this, `e^x` rounds to zero (`ln 2⁻¹⁵⁰ ≈ −103.97`).
const UNDERFLOW: u32 = 0xc2cf_f1b4;
/// Lanes per branch-free chunk of [`exp_in_place`]: four 4-lane f64 vectors.
const CHUNK: usize = 16;

/// Whether `x` takes the formula directly: `|x| < 88`, and not NaN.
#[inline(always)]
fn in_range(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff <= 0x42a
}

/// The reduction `x·N/ln 2 = k + r`, the table and the cubic.
#[inline(always)]
#[expect(
    clippy::disallowed_methods,
    reason = "glibc's expf fuses these multiply-adds; reproducing its bits needs the same fma"
)]
fn formula(x: f32) -> f32 {
    let (inv_ln2_n, shift) = (f64::from_bits(INV_LN2_N), f64::from_bits(SHIFT));
    let c = C.map(f64::from_bits);
    let xd = f64::from(x);
    let kd = inv_ln2_n.mul_add(xd, shift);
    let ki = kd.to_bits();
    let kd = kd - shift;
    let r = inv_ln2_n.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = c[0].mul_add(r, c[1]);
    let r2 = r * r;
    let y = c[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// `e^x`, bit-identical to glibc's `expf`.
pub(crate) fn expf(x: f32) -> f32 {
    if in_range(x) {
        return formula(x);
    }
    if x.to_bits() == f32::NEG_INFINITY.to_bits() {
        0.0
    } else if (x.to_bits() >> 20) & 0x7ff >= 0x7f8 {
        x + x // NaN (quietened) or +inf
    } else if x > f32::from_bits(OVERFLOW) {
        f32::INFINITY
    } else if x < f32::from_bits(UNDERFLOW) {
        0.0
    } else {
        formula(x)
    }
}

/// `*v = expf(*v)` for every element. Each chunk of sixteen runs the formula
/// branch-free and keeps it only if every lane was in range; a chunk with a
/// lane outside is redone through [`expf`].
pub(crate) fn exp_in_place(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        let mut out = [0.0f32; CHUNK];
        let mut all_in = true;
        for (o, &x) in out.iter_mut().zip(chunk.iter()) {
            *o = formula(x);
            all_in &= in_range(x);
        }
        if all_in {
            chunk.copy_from_slice(&out);
        } else {
            chunk.iter_mut().for_each(|v| *v = expf(*v));
        }
    }
    chunks
        .into_remainder()
        .iter_mut()
        .for_each(|v| *v = expf(*v));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(x: f32) {
        let want = x.exp().to_bits();
        assert_eq!(
            expf(x).to_bits(),
            want,
            "expf({x:e}) = bits {:#010x}",
            x.to_bits()
        );
        let mut one = [x];
        exp_in_place(&mut one);
        assert_eq!(one[0].to_bits(), want, "exp_in_place({x:e})");
    }

    /// Every `stride`-th bit pattern through both forms, counting results
    /// whose bits differ from libm's; the slice form takes them in blocks,
    /// so in-range chunks of sixteen take the vector path.
    fn sweep(stride: u64) -> u64 {
        const BLOCK: u64 = 1 << 16;
        let count = (1u64 << 32).div_ceil(stride);
        let mut mismatches = 0;
        for start in (0..count).step_by(BLOCK as usize) {
            let xs: Vec<f32> = (start..count.min(start + BLOCK))
                .map(|k| f32::from_bits((k * stride) as u32))
                .collect();
            let mut ys = xs.clone();
            exp_in_place(&mut ys);
            for (&x, y) in xs.iter().zip(&ys) {
                let want = x.exp().to_bits();
                mismatches += u64::from(expf(x).to_bits() != want);
                mismatches += u64::from(y.to_bits() != want);
            }
        }
        mismatches
    }

    #[test]
    fn expf_strided_sweep_matches_libm() {
        assert_eq!(sweep(4099), 0);
    }

    #[test]
    fn expf_edge_cases_match_libm() {
        let named = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0000), // quiet NaN
            f32::from_bits(0xffc0_0001), // negative quiet NaN
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffa0_0000), // negative signalling NaN
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x807f_ffff), // largest negative subnormal
            f32::MIN_POSITIVE,
            88.0,
            -88.0,
            f32::MAX,
            f32::MIN,
        ];
        let bounds = [
            f32::from_bits(OVERFLOW),
            f32::from_bits(UNDERFLOW),
            88.0,
            -88.0,
        ];
        let neighbours = bounds.iter().flat_map(|b| {
            let bits = b.to_bits();
            (bits - 3..=bits + 3).map(f32::from_bits)
        });
        // −88 to −104: the underflow band, where the result goes subnormal.
        let band = (0..=1600).map(|i| -88.0 - i as f32 * 0.01);
        let all: Vec<f32> = named.into_iter().chain(neighbours).chain(band).collect();
        for &x in &all {
            check(x);
        }
        // The same inputs as one slice: chunks mixing in- and out-of-range
        // lanes go through the slow path.
        let want: Vec<u32> = all.iter().map(|x| x.exp().to_bits()).collect();
        let mut got = all.clone();
        exp_in_place(&mut got);
        assert_eq!(got.iter().map(|y| y.to_bits()).collect::<Vec<_>>(), want);
    }

    /// Every f32 bit pattern, NaNs included, through both forms: run with
    /// `cargo test -p fedda-tensor --release --lib expf -- --ignored`.
    #[test]
    #[ignore = "2³² inputs: seconds in release, far longer in a debug build"]
    fn expf_exhaustive_matches_libm() {
        assert_eq!(sweep(1), 0, "mismatches out of 2^32 inputs");
    }
}
