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
//! columns and rows, never across `k`. Results are therefore bit-identical
//! at every shape and tile edge.
//!
//! No term is skipped: `0·NaN` and `0·Inf` reach the output as NaN in all
//! three layouts, so a corrupted operand stays visible to the corruption
//! guard (`fedda-fl`'s `detect_rejection`, which reads a report's
//! per-unit deltas). On finite inputs a zero-skip would change nothing —
//! a chain started at `+0.0` can never become `-0.0` — so FedDA's
//! exactly-zero masked weights need no special case.
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
//! None: every product runs on the thread that calls it. Clients train on
//! the FL simulator's worker pool (`fedda_fl::runtime::WorkerPool`), the
//! program's one parallelism layer (DESIGN.md §8).

use crate::Matrix;

/// Run `f`. Kept only because the benchmark package links it: kernels no
/// longer spawn threads, so there is no cap to apply.
pub fn with_kernel_threads<R>(_cap: usize, f: impl FnOnce() -> R) -> R {
    f()
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
    /// Whether a tile adds its accumulators to what the output holds (a
    /// later gradient share) instead of storing them.
    add: bool,
}

/// `(m, k, n)`: the product of an `m × k` and a `k × n` operand.
pub(crate) type Dims = (usize, usize, usize);

/// `op(A) @ B` into the `m × n` output `out`; `TN` selects `op(A) = Aᵀ`.
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
fn run<const TN: bool>(ops: Operands<'_>, out: &mut [f32]) {
    let Operands { k, n, add, .. } = ops;
    if n == 0 {
        return;
    }
    if k == 0 {
        // Empty sums: every chain is its `+0.0` start.
        for o in out.iter_mut() {
            *o = if add { *o + 0.0 } else { 0.0 };
        }
        return;
    }
    match n {
        1 => rows::<TN, 8, 1>(ops, out),
        2..=15 => rows::<TN, 8, 8>(ops, out),
        _ => rows::<TN, 4, 16>(ops, out),
    }
}

/// `a @ b`. Same shape contract as [`Matrix::matmul`].
pub(crate) fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul: {}x{} @ {}x{}", m, k, b.rows(), n);
    let mut out = Matrix::zeros(m, n);
    nn_into(
        a.as_slice(),
        b.as_slice(),
        (m, k, n),
        out.as_mut_slice(),
        false,
    );
    out
}

/// `a^T @ b`, with `a` read in place (no transpose is materialised).
pub(crate) fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul_tn: ({k}x{m})^T @ {}x{n}", b.rows());
    let mut out = Matrix::zeros(m, n);
    tn_into(
        a.as_slice(),
        b.as_slice(),
        (m, k, n),
        out.as_mut_slice(),
        false,
    );
    out
}

/// `a @ b^T`: `b^T` is materialised (`O(k·n)`; `b` is a weight matrix on
/// every hot call) and fed to the `nn` tile.
pub(crate) fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    assert_eq!(
        k,
        b.cols(),
        "matmul_nt: {m}x{k} @ ({}x{})^T",
        b.rows(),
        b.cols()
    );
    let n = b.rows();
    let mut out = Matrix::zeros(m, n);
    let mut bt = vec![0.0; k * n];
    nt_into(
        a.as_slice(),
        b.as_slice(),
        (m, k, n),
        out.as_mut_slice(),
        false,
        &mut bt,
    );
    out
}

/// `a (m×k) @ b (k×n)` into `out`: stored, or added to it when `add`.
pub(crate) fn nn_into(a: &[f32], b: &[f32], (m, k, n): Dims, out: &mut [f32], add: bool) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    run::<false>(
        Operands {
            a,
            lda: k,
            b,
            k,
            n,
            add,
        },
        out,
    );
}

/// `a (k×m)ᵀ @ b (k×n)` into `out`, `a` read in place.
pub(crate) fn tn_into(a: &[f32], b: &[f32], (m, k, n): Dims, out: &mut [f32], add: bool) {
    assert_eq!((a.len(), b.len(), out.len()), (k * m, k * n, m * n));
    run::<true>(
        Operands {
            a,
            lda: m,
            b,
            k,
            n,
            add,
        },
        out,
    );
}

/// `a (m×k) @ b (n×k)ᵀ` into `out`: `bᵀ` is written into `bt` (the
/// caller's scratch, at least `k·n` long) and fed to the `nn` tile, whose
/// chain is exactly the row·row dot product.
pub(crate) fn nt_into(
    a: &[f32],
    b: &[f32],
    (m, k, n): Dims,
    out: &mut [f32],
    add: bool,
    bt: &mut [f32],
) {
    let bt = &mut bt[..k * n];
    transpose_into(b, (n, k), bt);
    nn_into(a, bt, (m, k, n), out, add);
}

/// Side of a [`transpose_into`] block: an 8×8 block reads eight rows of
/// the source and writes eight of the destination, so both walks stay
/// within a few cache lines where a row-at-a-time copy strides over the
/// whole destination once per source row.
const BLOCK: usize = 8;

/// `src` (`rows × cols`, row-major) transposed into `out` (`cols × rows`),
/// block by block. A copy: no value changes.
pub(crate) fn transpose_into(src: &[f32], (rows, cols): (usize, usize), out: &mut [f32]) {
    assert_eq!((src.len(), out.len()), (rows * cols, rows * cols));
    for r0 in (0..rows).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(rows);
        for c0 in (0..cols).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(cols);
            for r in r0..r1 {
                let row = &src[r * cols..][c0..c1];
                for (c, &v) in (c0..c1).zip(row) {
                    out[c * rows + r] = v;
                }
            }
        }
    }
}

/// Every output row: `M`-row panels, single rows at the ragged end.
fn rows<const TN: bool, const M: usize, const N: usize>(ops: Operands<'_>, out: &mut [f32]) {
    let n = ops.n;
    let mut panels = out.chunks_exact_mut(M * n);
    let mut i = 0;
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
/// multiply-adds. In `nn` the tile's `M` rows of `A` are sliced to `k`
/// once, before the walk, so reading `A[i + r][p]` needs no bounds check
/// per `k` (90 → 74 µs on `101×128·128×128`, hot cache, an `x86-64-v3`
/// build on a 2-core VM).
#[inline(always)]
#[allow(
    clippy::needless_range_loop,
    reason = "`p` walks `k` in every operand at once; the accumulator chains are the `k` order"
)]
fn tile<const TN: bool, const M: usize, const N: usize>(
    ops: Operands<'_>,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    let Operands {
        a,
        lda,
        b,
        k,
        n,
        add,
    } = ops;
    let a_rows: [&[f32]; M] = if TN {
        [&[]; M]
    } else {
        std::array::from_fn(|r| &a[(i + r) * lda..][..k])
    };
    let mut acc = [[0.0f32; N]; M];
    for p in 0..k {
        let av: [f32; M] = if TN {
            load(a, p * lda + i)
        } else {
            std::array::from_fn(|r| a_rows[r][p])
        };
        let bv: [f32; N] = load(b, p * n + j);
        for r in 0..M {
            for c in 0..N {
                acc[r][c] += av[r] * bv[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let out_row = &mut out[r * n + j..r * n + j + N];
        if add {
            for (o, &v) in out_row.iter_mut().zip(acc_row) {
                *o += v;
            }
        } else {
            out_row.copy_from_slice(acc_row);
        }
    }
}

#[inline(always)]
fn load<const N: usize>(s: &[f32], at: usize) -> [f32; N] {
    let mut v = [0.0f32; N];
    v.copy_from_slice(&s[at..at + N]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
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

    /// Bit-identity with the scalar oracle at shapes straddling every tile
    /// edge (rows 1/4/8, columns 1/8/16) on zero-heavy inputs.
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
            let got = gemm_nn(&a, &b);
            assert_eq!(got.shape(), (m, n));
            assert_eq!(oracle::bits(got.as_slice()), want_nn, "nn {dims:?}");
            let got = gemm_tn(&at, &b);
            assert_eq!(got.shape(), (m, n));
            assert_eq!(oracle::bits(got.as_slice()), want_tn, "tn {dims:?}");
            let got = gemm_nt(&a, &bt);
            assert_eq!(oracle::bits(got.as_slice()), want_nt, "nt {dims:?}");
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
            let non_finite = |m: Matrix| m.as_slice().iter().any(|x| !x.is_finite());
            assert!(non_finite(gemm_nn(&row, &bad_col)), "nn 0*{bad}");
            assert!(non_finite(gemm_tn(&col, &bad_col)), "tn 0*{bad}");
            assert!(non_finite(gemm_nt(&row, &bad_row)), "nt 0*{bad}");
            // ... and symmetrically with the non-finite value on the left.
            assert!(non_finite(gemm_nn(&bad_row, &col)), "nn {bad}*0");
            assert!(non_finite(gemm_tn(&bad_col, &col)), "tn {bad}*0");
            assert!(non_finite(gemm_nt(&bad_row, &row)), "nt {bad}*0");
        }
    }

    /// The blocked transpose is the naive double loop's copy, on shapes
    /// ragged against the 8×8 block in either direction or both.
    #[test]
    fn blocked_transpose_matches_the_naive_loop() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(rows, cols) in &[
            (1, 1),
            (1, 9),
            (9, 1),
            (8, 8),
            (7, 13),
            (16, 3),
            (17, 23),
            (128, 128),
        ] {
            let src = rand_matrix(&mut rng, rows, cols, 0.2);
            let mut naive = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    naive[c * rows + r] = src.get(r, c);
                }
            }
            let mut blocked = vec![f32::NAN; rows * cols];
            transpose_into(src.as_slice(), (rows, cols), &mut blocked);
            assert_eq!(
                oracle::bits(&blocked),
                oracle::bits(&naive),
                "{rows}x{cols}"
            );
        }
    }

    /// A product added into an output is the stored product added to what
    /// the output held, element by element — at the zero-`k` edge too,
    /// where the empty sum's `+0.0` still turns a held `-0.0` into `+0.0`.
    #[test]
    fn adding_a_product_is_storing_it_then_adding() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(m, k, n) in &[(9, 5, 1), (7, 9, 15), (13, 20, 25), (3, 0, 4)] {
            let a = rand_matrix(&mut rng, m, k, 0.3);
            let at = rand_matrix(&mut rng, k, m, 0.3);
            let b = rand_matrix(&mut rng, k, n, 0.3);
            let bt = rand_matrix(&mut rng, n, k, 0.3);
            let mut held = rand_matrix(&mut rng, m, n, 0.3);
            held.as_mut_slice()[0] = -0.0;
            let plus = |product: Matrix| -> Vec<u32> {
                let sum = held
                    .as_slice()
                    .iter()
                    .zip(product.as_slice())
                    .map(|(&h, &p)| h + p);
                sum.map(f32::to_bits).collect()
            };
            let (want_nn, want_tn, want_nt) = (
                plus(gemm_nn(&a, &b)),
                plus(gemm_tn(&at, &b)),
                plus(gemm_nt(&a, &bt)),
            );
            let dims = (m, k, n);
            let mut out = held.clone();
            nn_into(a.as_slice(), b.as_slice(), dims, out.as_mut_slice(), true);
            assert_eq!(oracle::bits(out.as_slice()), want_nn, "nn {dims:?}");
            let mut out = held.clone();
            tn_into(at.as_slice(), b.as_slice(), dims, out.as_mut_slice(), true);
            assert_eq!(oracle::bits(out.as_slice()), want_tn, "tn {dims:?}");
            let mut out = held.clone();
            let mut scratch = vec![0.0; k * n];
            nt_into(
                a.as_slice(),
                bt.as_slice(),
                dims,
                out.as_mut_slice(),
                true,
                &mut scratch,
            );
            assert_eq!(oracle::bits(out.as_slice()), want_nt, "nt {dims:?}");
        }
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
    }
}
