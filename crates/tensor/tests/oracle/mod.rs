//! Test-only GEMM oracle: the scalar triple loop whose f32 operation
//! sequence the production kernels in `src/gemm.rs` must replay — one
//! accumulator per output element, started at `+0.0`, `k` ascending, no
//! term skipped. Works on flat row-major slices so that both
//! `tests/proptests.rs` and (via `#[path]`) the unit tests of `src/gemm.rs`
//! can include it; never linked into the library.

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
pub fn nn(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    assert_eq!((a.len(), b.len()), (m * k, k * n));
    triple_loop((m, k, n), |i, p| a[i * k + p], |p, j| b[p * n + j])
}

/// `a (k×m)^T @ b (k×n)`.
pub fn tn(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    assert_eq!((a.len(), b.len()), (k * m, k * n));
    triple_loop((m, k, n), |i, p| a[p * m + i], |p, j| b[p * n + j])
}

/// `a (m×k) @ b (n×k)^T`.
pub fn nt(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    assert_eq!((a.len(), b.len()), (m * k, n * k));
    triple_loop((m, k, n), |i, p| a[i * k + p], |p, j| b[j * k + p])
}

/// Bit patterns: unlike `==` on floats this tells `-0.0` from `+0.0` and
/// lets a NaN equal the same NaN.
pub fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}
