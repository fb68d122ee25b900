//! Test-only oracles and inputs. The GEMM oracle is the scalar triple loop
//! whose f32 operation sequence the production kernels in `src/gemm.rs`
//! must replay — one accumulator per output element, started at `+0.0`,
//! `k` ascending, no term skipped — beside a naive transpose and the input
//! families the kernel and tape suites draw from. Works on flat row-major
//! slices so that both `tests/proptests.rs` and (via `#[path]`) the crate's
//! unit tests can include it; never linked into the library.

use rand::rngs::StdRng;
use rand::Rng;

fn triple_loop(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out.push(acc);
        }
    }
    out
}

/// `a (m×k) @ b (k×n)`.
pub(crate) fn nn(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    assert_eq!((a.len(), b.len()), (m * k, k * n));
    triple_loop((m, k, n), |i, p| a[i * k + p], |p, j| b[p * n + j])
}

/// `a (k×m)^T @ b (k×n)`.
pub(crate) fn tn(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    assert_eq!((a.len(), b.len()), (k * m, k * n));
    triple_loop((m, k, n), |i, p| a[p * m + i], |p, j| b[p * n + j])
}

/// `a (m×k) @ b (n×k)^T`.
pub(crate) fn nt(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    assert_eq!((a.len(), b.len()), (m * k, n * k));
    triple_loop((m, k, n), |i, p| a[i * k + p], |p, j| b[j * k + p])
}

/// Bit patterns: unlike `==` on floats this tells `-0.0` from `+0.0` and
/// lets a NaN equal the same NaN.
pub(crate) fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// `a (r×c)` transposed, `c×r`.
pub(crate) fn transpose(a: &[f32], (r, c): (usize, usize)) -> Vec<f32> {
    assert_eq!(a.len(), r * c);
    (0..c)
        .flat_map(|j| (0..r).map(move |i| a[i * c + j]))
        .collect()
}

/// `len` values, a third of them exact zeros of either sign, so that the
/// kernels' treatment of FedDA's masked (literally zero) weights is always
/// in play.
pub(crate) fn zero_heavy(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0u8..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// Inputs for the `expf` callers: mostly ordinary values, so most sixteen-
/// lane chunks take the vector path, and one in twenty a value that sends
/// its chunk down the slow one — a NaN (quiet or signalling, either sign),
/// an infinity, a signed zero, or a value below −88 or above 88.
pub(crate) fn exp_inputs(rng: &mut StdRng, len: usize) -> Vec<f32> {
    let special = |rng: &mut StdRng| match rng.gen_range(0u8..8) {
        0 => f32::NAN,
        1 => f32::from_bits(0xff80_0001 ^ (rng.gen::<u32>() & 0x8000_0000)),
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => rng.gen_range(-120.0f32..-88.0),
        _ => rng.gen_range(88.0f32..100.0),
    };
    (0..len)
        .map(|_| {
            if rng.gen_range(0u8..20) == 0 {
                special(rng)
            } else {
                rng.gen_range(-12.0f32..12.0)
            }
        })
        .collect()
}

/// Bits with every NaN read as one pattern. Where a sum meets two NaNs,
/// Rust leaves which payload survives to code generation, so a reduction
/// over several NaN inputs may differ from its oracle there and nowhere else.
pub(crate) fn bits_any_nan(x: &[f32]) -> Vec<u32> {
    let canonical = |v: &f32| {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    };
    x.iter().map(canonical).collect()
}
