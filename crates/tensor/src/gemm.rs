//! Register-tiled GEMM kernels behind [`Matrix::matmul`] and its
//! fused-transpose variants: one production path per layout, at every
//! shape.
//!
//! # Bitwise reproducibility
//!
//! The FedDA simulator's seeded-run tests compare results to the last bit,
//! so the kernels are built around one contract: **every output element is
//! a single accumulator chain that starts at `+0.0` and adds `a·b` for `k`
//! in ascending order** — the f32 operation sequence of a scalar triple
//! loop, which is what the test-only oracle (`tests/oracle/mod.rs`) runs.
//! f32 addition is not associative, so a tile vectorises across output
//! columns and rows, never across `k`; threads partition output **rows**,
//! so each element is written by exactly one thread. Results are therefore
//! bit-identical at every shape, tile edge and thread count.
//!
//! No term is skipped: `0·NaN` and `0·Inf` reach the output as NaN in all
//! three layouts, so a corrupted operand stays visible to
//! [`Matrix::has_non_finite`]. On finite inputs a zero-skip would change
//! nothing — a chain started at `+0.0` can never become `-0.0` — so
//! FedDA's exactly-zero masked weights need no special case.
//!
//! # Tiling
//!
//! An `M×N` block of accumulators lives in locals for the whole `k` walk
//! and is stored once. `nn` broadcasts `A[i..][p]` against the strip
//! `B[p][j..]`; `tn` reads `A[p][i..]` and `B[p][j..]` in place, both
//! contiguous; `nt` materialises the small `Bᵀ` and runs the `nn` tile,
//! whose chain is exactly the row·row dot product. The tile shape follows
//! the output width (4×16, 8×8 below 16 columns, 8×1 for a single column —
//! measured, see `run`); ragged edges fall to narrower instances of the
//! same tile function.
//!
//! There is one tile function and no `target_feature` fork, intrinsic or
//! runtime dispatch: the lane width is the build's. The workspace builds
//! x86-64 at the `x86-64-v3` level (`.cargo/config.toml`, DESIGN.md §8),
//! where the unrolled `r`/`c` loops become 8-lane multiplies and adds; at
//! a lower level the same source compiles to narrower lanes and the same
//! bits, because a wider lane only runs more independent chains side by
//! side. The level has FMA, and nothing here may use it: a fused
//! multiply-add rounds once where the contract rounds twice
//! (`tests/fp_contract.rs` holds that line).
//!
//! # Threading
//!
//! The pool size comes from the `FEDDA_THREADS` environment variable
//! (parsed once), defaulting to [`std::thread::available_parallelism`].
//! [`with_kernel_threads`] applies a thread-local cap on top, which is how
//! the FL simulator keeps `per-client threads × kernel threads` from
//! oversubscribing the machine (see `fedda_fl::system`). Threads are
//! scoped (`std::thread::scope`), spawned per call for products of at least
//! [`BLOCK_THRESHOLD`] multiply-adds; row ranges are contiguous.

use crate::Matrix;
use std::cell::Cell;
use std::sync::OnceLock;

/// Threading cut-off: products with fewer than this many multiply-adds
/// (`m·k·n`) run on the calling thread.
///
/// Measured on the two-core reference box, `x86-64-v3` build, with the
/// tile at ~17 multiply-adds per ns: a scoped spawn + join costs 30 µs at
/// best, but its tail runs to milliseconds whenever the sibling core is
/// busy. Median times on 1 → 2 threads: `2525×48·48×48` (5.8 M, the largest
/// product of a paper-sized round) 0.33 → 0.35 ms; 10–20 M flips with the
/// load (`2525×72·72×72`, 13 M: 0.74 → 0.59 one minute, 0.72 → 0.73 the
/// next); `2525×96·96×96` (23 M) 1.10 → 0.82 ms; `2525×128·128×128` (41 M)
/// 2.2 → 1.6 ms. The faster tile moved both sides of the comparison, not
/// the crossing: threads still pay from about 2²⁴ up, and no product of
/// the benchmark's federated rounds is large enough to want them.
pub const BLOCK_THRESHOLD: usize = 1 << 24;

static CONFIGURED_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide kernel thread budget: `FEDDA_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn configured_threads() -> usize {
    *CONFIGURED_THREADS.get_or_init(|| match std::env::var("FEDDA_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .unwrap_or_else(default_threads),
        Err(_) => default_threads(),
    })
}

struct CapGuard {
    prev: usize,
}

impl Drop for CapGuard {
    fn drop(&mut self) {
        THREAD_CAP.with(|c| c.set(self.prev));
    }
}

/// Run `f` with kernel threads capped at `cap` on this thread (floored at
/// 1). Caps nest by tightening: an inner `with_kernel_threads(8, ..)`
/// inside a `with_kernel_threads(1, ..)` region still runs single-threaded.
/// The previous cap is restored when `f` returns or panics.
pub fn with_kernel_threads<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_CAP.with(|c| {
        let prev = c.get();
        c.set(cap.max(1).min(prev));
        CapGuard { prev }
    });
    f()
}

/// Threads a kernel launched from this thread may use right now: the
/// configured budget under the active [`with_kernel_threads`] cap.
pub fn kernel_threads() -> usize {
    configured_threads().min(THREAD_CAP.with(|c| c.get()))
}

/// Threads to launch for an `m×k @ k×n` product: the [`kernel_threads`]
/// budget from [`BLOCK_THRESHOLD`] multiply-adds up, the calling thread
/// alone below.
fn threads_for(m: usize, k: usize, n: usize) -> usize {
    // Saturating: shapes near usize::MAX would wrap to small products.
    if m.saturating_mul(k).saturating_mul(n) >= BLOCK_THRESHOLD {
        kernel_threads()
    } else {
        1
    }
}

/// Split `out`'s rows into contiguous chunks, one per thread (at most one
/// thread per row), and run `body` on each `(first_row, chunk)` pair.
fn partition_rows(out: &mut Matrix, threads: usize, body: impl Fn(usize, &mut [f32]) + Sync) {
    let (m, n) = out.shape();
    let threads = threads.min(m);
    if threads <= 1 {
        body(0, out.as_mut_slice());
        return;
    }
    let rows_per = m.div_ceil(threads);
    let body = &body;
    std::thread::scope(|s| {
        for (t, chunk) in out.as_mut_slice().chunks_mut(rows_per * n).enumerate() {
            s.spawn(move || body(t * rows_per, chunk));
        }
    });
}

/// `op(A)` and `B` of one product, as the tile reads them.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    /// Row stride of `a`: `k` for `nn`, `m` for `tn`.
    lda: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
}

/// `op(A) @ B` into a fresh `m × n` matrix on `threads` threads; `TN`
/// selects `op(A) = Aᵀ`.
///
/// Tile shapes were picked by measurement on the `x86-64-v3` build (AVX2,
/// 16 registers of 8 lanes): 4×16 — 8 accumulator registers, 2 for the `B`
/// strip, one broadcast — runs the real `n ∈ {16, 32, 48, 128}` widths
/// 10–13 % faster than 2×16 in `nn` and 25–35 % faster in `tn`
/// (`2525×48·48×16` 99 → 88 µs, its `tn` backward 116 → 79 µs); 3×16, 5×16
/// and 6×16 land between the two, 4×24 and 2×32 lose every width they do
/// not divide. Widths below 16 — the 8-wide attention heads — take 8×8:
/// level with 4×8 in `nn`, 4.7 → 3.8 µs in `tn` on `16×694×8`. Single-column
/// products (attention projections and their `tn` backward) take eight rows
/// at once so their chains run side by side; 4×1 is a tenth quicker in `nn`
/// and a third slower in `tn`, 16×1 the reverse. On a baseline (SSE2,
/// 4-lane) build this table runs `nn` 20–30 % slower than the 2×16 / 4×8 it
/// replaced there: 4×16 is sixteen 4-lane accumulators, and spills.
fn run<const TN: bool>(ops: Operands<'_>, m: usize, threads: usize) -> Matrix {
    let Operands { k, n, .. } = ops;
    let mut out = Matrix::zeros(m, n);
    if k == 0 || n == 0 {
        return out; // empty sums: the zero matrix is the answer
    }
    partition_rows(&mut out, threads, |row0, chunk| match n {
        1 => rows::<TN, 8, 1>(ops, row0, chunk),
        2..=15 => rows::<TN, 8, 8>(ops, row0, chunk),
        _ => rows::<TN, 4, 16>(ops, row0, chunk),
    });
    out
}

/// `a @ b`. Same shape contract as [`Matrix::matmul`].
pub fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul: {}x{} @ {}x{}", m, k, b.rows(), n);
    let (a, b) = (a.as_slice(), b.as_slice());
    run::<false>(Operands { a, lda: k, b, k, n }, m, threads_for(m, k, n))
}

/// `a^T @ b`, with `a` read in place (no transpose is materialised).
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul_tn: ({k}x{m})^T @ {}x{n}", b.rows());
    let (a, b) = (a.as_slice(), b.as_slice());
    run::<true>(Operands { a, lda: m, b, k, n }, m, threads_for(m, k, n))
}

/// `a @ b^T`: `b^T` is materialised (`O(k·n)`; `b` is a weight matrix on
/// every hot call) and fed to the `nn` tile.
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    assert_eq!(
        k,
        b.cols(),
        "matmul_nt: {m}x{k} @ ({}x{})^T",
        b.rows(),
        b.cols()
    );
    gemm_nn(a, &b.transpose())
}

/// One contiguous partition of output rows starting at `row0`: `M`-row
/// panels, single rows at the ragged end.
fn rows<const TN: bool, const M: usize, const N: usize>(
    ops: Operands<'_>,
    row0: usize,
    out: &mut [f32],
) {
    let n = ops.n;
    let mut panels = out.chunks_exact_mut(M * n);
    let mut i = row0;
    for panel in &mut panels {
        self::panel::<TN, M, N>(ops, i, panel);
        i += M;
    }
    for row in panels.into_remainder().chunks_exact_mut(n) {
        self::panel::<TN, 1, N>(ops, i, row);
        i += 1;
    }
}

/// The `M` output rows from `i`: `N`-wide tiles, then one 8-wide tile if a
/// 16-wide strip left room for it, then single columns.
fn panel<const TN: bool, const M: usize, const N: usize>(
    ops: Operands<'_>,
    i: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + N <= ops.n {
        tile::<TN, M, N>(ops, i, j, out);
        j += N;
    }
    if N > 8 && j + 8 <= ops.n {
        tile::<TN, M, 8>(ops, i, j, out);
        j += 8;
    }
    while j < ops.n {
        tile::<TN, M, 1>(ops, i, j, out);
        j += 1;
    }
}

/// The `M×N` tile of output rows `i..` and columns `j..`, written into the
/// `M`-row panel `out`. The accumulators stay in locals for the whole `k`
/// walk; the `r`/`c` loops have constant bounds and unroll into vector
/// multiply-adds.
#[inline(always)]
fn tile<const TN: bool, const M: usize, const N: usize>(
    ops: Operands<'_>,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    let Operands { a, lda, b, k, n } = ops;
    let mut acc = [[0.0f32; N]; M];
    for p in 0..k {
        let av: [f32; M] = if TN {
            load(a, p * lda + i)
        } else {
            std::array::from_fn(|r| a[(i + r) * lda + p])
        };
        let bv: [f32; N] = load(b, p * n + j);
        for r in 0..M {
            for c in 0..N {
                acc[r][c] += av[r] * bv[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j..r * n + j + N].copy_from_slice(acc_row);
    }
}

#[inline(always)]
fn load<const N: usize>(s: &[f32], at: usize) -> [f32; N] {
    let mut v = [0.0f32; N];
    v.copy_from_slice(&s[at..at + N]);
    v
}

/// The scalar triple-loop oracle the tests compare against, bit for bit.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, r: usize, c: usize, zero_frac: f64) -> Matrix {
        Matrix::from_vec(
            r,
            c,
            (0..r * c)
                .map(|_| {
                    if rng.gen_bool(zero_frac) {
                        0.0
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect(),
        )
    }

    fn nn_on(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let (a, b) = (a.as_slice(), b.as_slice());
        run::<false>(Operands { a, lda: k, b, k, n }, m, threads)
    }

    fn tn_on(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
        let (k, m) = a.shape();
        let n = b.cols();
        let (a, b) = (a.as_slice(), b.as_slice());
        run::<true>(Operands { a, lda: m, b, k, n }, m, threads)
    }

    /// Bit-identity with the scalar oracle at shapes straddling every tile
    /// edge (rows 1/4/8, columns 1/8/16) on zero-heavy inputs, with the
    /// thread count forced so that partitions split panels too.
    #[test]
    fn blocked_kernels_match_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (9, 5, 1),
            (17, 1, 8),
            (3, 70, 5),
            (7, 9, 15),
            (5, 33, 16),
            (11, 3, 17),
            (13, 20, 25),
            (19, 7, 41),
            (65, 64, 63),
        ] {
            let dims = (m, k, n);
            let a = rand_matrix(&mut rng, m, k, 0.3);
            let b = rand_matrix(&mut rng, k, n, 0.3);
            let at = rand_matrix(&mut rng, k, m, 0.3);
            let bt = rand_matrix(&mut rng, n, k, 0.3);
            let want_nn = oracle::bits(&oracle::nn(a.as_slice(), b.as_slice(), dims));
            let want_tn = oracle::bits(&oracle::tn(at.as_slice(), b.as_slice(), dims));
            let want_nt = oracle::bits(&oracle::nt(a.as_slice(), bt.as_slice(), dims));
            for threads in [1, 2, 3, 8] {
                let ctx = format!("{m}x{k}x{n} on {threads} threads");
                let got = nn_on(&a, &b, threads);
                assert_eq!(got.shape(), (m, n));
                assert_eq!(oracle::bits(got.as_slice()), want_nn, "nn {ctx}");
                let got = tn_on(&at, &b, threads);
                assert_eq!(got.shape(), (m, n));
                assert_eq!(oracle::bits(got.as_slice()), want_tn, "tn {ctx}");
                let got = nn_on(&a, &bt.transpose(), threads);
                assert_eq!(oracle::bits(got.as_slice()), want_nt, "nt {ctx}");
            }
            assert_eq!(oracle::bits(gemm_nt(&a, &bt).as_slice()), want_nt);
        }
    }

    /// Through the public entry points, above the threading cut-off:
    /// results must not depend on the thread count (row partitioning).
    #[test]
    fn thread_count_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, k, n) = (261, 257, 259);
        assert!(m * k * n >= BLOCK_THRESHOLD);
        let a = rand_matrix(&mut rng, m, k, 0.2);
        let b = rand_matrix(&mut rng, k, n, 0.2);
        let single = with_kernel_threads(1, || gemm_nn(&a, &b));
        for threads in [2, 3, 8] {
            let multi = with_kernel_threads(threads, || gemm_nn(&a, &b));
            assert_eq!(
                oracle::bits(single.as_slice()),
                oracle::bits(multi.as_slice()),
                "threads={threads}"
            );
        }
    }

    /// ROADMAP item 2's audit: a zero operand must not hide a non-finite
    /// one from the corruption guard, in any layout.
    #[test]
    fn zero_times_non_finite_propagates_in_every_layout() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // a = [0, 1], b = [bad, 1]^T: the only path to `bad` is 0·bad.
            let row = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
            let col = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
            let bad_col = Matrix::from_vec(2, 1, vec![bad, 1.0]);
            let bad_row = Matrix::from_vec(1, 2, vec![bad, 1.0]);
            assert!(gemm_nn(&row, &bad_col).has_non_finite(), "nn 0*{bad}");
            assert!(gemm_tn(&col, &bad_col).has_non_finite(), "tn 0*{bad}");
            assert!(gemm_nt(&row, &bad_row).has_non_finite(), "nt 0*{bad}");
            // ... and symmetrically with the non-finite value on the left.
            assert!(gemm_nn(&bad_row, &col).has_non_finite(), "nn {bad}*0");
            assert!(gemm_tn(&bad_col, &col).has_non_finite(), "tn {bad}*0");
            assert!(gemm_nt(&bad_row, &row).has_non_finite(), "nt {bad}*0");
        }
    }

    #[test]
    fn caps_nest_by_tightening_and_restore() {
        with_kernel_threads(1, || {
            assert_eq!(kernel_threads(), 1);
            with_kernel_threads(8, || assert_eq!(kernel_threads(), 1));
            assert_eq!(kernel_threads(), 1);
        });
        assert!(kernel_threads() >= 1);
    }

    #[test]
    fn dispatch_threshold_is_volume_based() {
        with_kernel_threads(1, || assert_eq!(threads_for(1 << 10, 1 << 10, 1 << 10), 1));
        let budget = kernel_threads();
        assert_eq!(threads_for(2525, 48, 48), 1);
        assert_eq!(threads_for(1, 1, BLOCK_THRESHOLD - 1), 1);
        assert_eq!(threads_for(1, 1, BLOCK_THRESHOLD), budget);
        assert_eq!(threads_for(2525, 96, 96), budget);
        assert_eq!(threads_for(1, 2, usize::MAX), budget); // saturating, no overflow
        assert_eq!(threads_for(0, 1 << 20, 1 << 20), 1);
    }

    #[test]
    fn degenerate_shapes_are_safe() {
        let a = Matrix::zeros(5, 0);
        let b = Matrix::zeros(0, 7);
        let c = gemm_nn(&a, &b);
        assert_eq!(c.shape(), (5, 7));
        assert_eq!(oracle::bits(c.as_slice()), vec![0u32; 35]);
        let d = gemm_nn(&Matrix::zeros(0, 4), &Matrix::zeros(4, 3));
        assert_eq!(d.shape(), (0, 3));
        let e = gemm_nt(&Matrix::zeros(2, 3), &Matrix::zeros(0, 3));
        assert_eq!(e.shape(), (2, 0));
        let f = gemm_tn(&Matrix::zeros(0, 4), &Matrix::zeros(0, 3));
        assert_eq!(f.shape(), (4, 3));
        assert_eq!(oracle::bits(f.as_slice()), vec![0u32; 12]);
        // More threads than rows, and a zero-row output, must not spawn
        // empty partitions.
        let g = nn_on(&Matrix::full(2, 3, 1.0), &Matrix::full(3, 2, 1.0), 8);
        assert_eq!(g.as_slice(), &[3.0; 4]);
        assert_eq!(
            nn_on(&Matrix::zeros(0, 3), &Matrix::zeros(3, 2), 8).shape(),
            (0, 2)
        );
    }
}
