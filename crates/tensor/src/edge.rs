//! The row kernel behind the edge aggregation of
//! [`Graph::aggregate_residual_elu`](crate::Graph::aggregate_residual_elu)
//! and behind [`Graph::pair_dot`](crate::Graph::pair_dot): one
//! width-generic source, monomorphised per row width the way the GEMM's
//! `tile::<TN, M, N>` is per tile.
//!
//! Every pass walks the edge list once and touches one `d`-wide row per
//! edge end. An instance's `W` is either the row width itself — a
//! compile-time constant, so the row loops unroll into whole-register
//! multiplies and adds — or `0`, the runtime-width instance of the same
//! code for every other width. The entry points pick one from `d`, a
//! property of the input: 8 (DBLP-sized heads), 16 (the paper model) and 32
//! (the fleet model) get their own.
//!
//! # Same operations, same order
//!
//! The unfused chain (`gather_rows` → `mul_col_broadcast` →
//! `scatter_add_rows`) is the oracle, bit for bit (DESIGN.md §8 "Edge
//! kernels"):
//!
//! * `out[dst_e] += h[src_e]·α_e` and `dh[src_e] += g[dst_e]·α_e` are one
//!   pass each, edge-ascending into rows that start at `+0.0` — the same
//!   [`scatter_rows`] with the edge ends swapped;
//! * `dα_e = Σ_c g[dst_e][c]·h[src_e][c]` is one left-to-right chain over
//!   `c` that starts at `-0.0`, where `Iterator::sum` starts (a `+0.0`
//!   start would turn a `-0.0` chain into `+0.0`). [`dot_chains`] runs `L`
//!   edges' chains side by side; that changes how many chains are in
//!   flight, never the order inside one.

/// `(from, to)`: the two ends of every edge, edge-aligned.
pub(crate) type Ends<'a> = (&'a [u32], &'a [u32]);

/// `out[to_e] += x[from_e]·α_e`, edges ascending, for `d`-wide rows: the
/// forward with `(src, dst)`, the backward's `dh` with `(dst, src)`.
pub(crate) fn aggregate(x: &[f32], d: usize, alpha: &[f32], ends: Ends<'_>, out: &mut [f32]) {
    match d {
        8 => scatter_rows::<8>(x, d, alpha, ends, out),
        16 => scatter_rows::<16>(x, d, alpha, ends, out),
        32 => scatter_rows::<32>(x, d, alpha, ends, out),
        _ => scatter_rows::<0>(x, d, alpha, ends, out),
    }
}

/// `da[e] = Σ_c g[dst_e][c]·h[src_e][c]` for every edge of `(src, dst)`.
///
/// Edges in flight per width were picked with `fedda perf --ab` on the
/// `x86-64-v3` build, 1 / 2 / 4 / 6 / 8 at each width: four chains side by
/// side won at 8 (10 of 10 pairs over one, 1.5× over eight) and led at 16;
/// at 32, where one chain is already 32 dependent adds, two beat one and
/// four (8 and 9 of 10 pairs). Eight lost to one at every width.
pub(crate) fn alpha_grad(g: &[f32], h: &[f32], d: usize, ends: Ends<'_>, da: &mut [f32]) {
    match d {
        8 => dot_chains::<8, 4>(g, h, d, ends, da),
        16 => dot_chains::<16, 4>(g, h, d, ends, da),
        32 => dot_chains::<32, 2>(g, h, d, ends, da),
        _ => dot_chains::<0, 4>(g, h, d, ends, da),
    }
}

/// Row width of instance `W`: the constant, or the runtime `d` for `W = 0`.
#[inline(always)]
fn width<const W: usize>(d: usize) -> usize {
    if W == 0 {
        d
    } else {
        W
    }
}

/// Row `i` of a row-major buffer `W` (or `d`) wide.
#[inline(always)]
fn row<const W: usize>(m: &[f32], d: usize, i: u32) -> &[f32] {
    let w = width::<W>(d);
    &m[i as usize * w..][..w]
}

fn scatter_rows<const W: usize>(
    x: &[f32],
    d: usize,
    alpha: &[f32],
    (from, to): Ends<'_>,
    out: &mut [f32],
) {
    let w = width::<W>(d);
    for ((&s, &t), &a) in from.iter().zip(to).zip(alpha) {
        let o_row = &mut out[t as usize * w..][..w];
        for (o, &v) in o_row.iter_mut().zip(row::<W>(x, d, s)) {
            *o += v * a;
        }
    }
}

/// `L` edges' `dα` chains at a time, then the ragged tail one at a time.
fn dot_chains<const W: usize, const L: usize>(
    g: &[f32],
    h: &[f32],
    d: usize,
    (src, dst): Ends<'_>,
    da: &mut [f32],
) {
    let full = da.len() - da.len() % L;
    let groups = da[..full].chunks_exact_mut(L);
    for ((da, s), t) in groups.zip(src.chunks_exact(L)).zip(dst.chunks_exact(L)) {
        let g_rows: [&[f32]; L] = std::array::from_fn(|k| row::<W>(g, d, t[k]));
        let h_rows: [&[f32]; L] = std::array::from_fn(|k| row::<W>(h, d, s[k]));
        let mut acc = [-0.0f32; L];
        for c in 0..width::<W>(d) {
            for k in 0..L {
                acc[k] += g_rows[k][c] * h_rows[k][c];
            }
        }
        da.copy_from_slice(&acc);
    }
    if L > 1 {
        let tail = (&src[full..], &dst[full..]);
        dot_chains::<W, 1>(g, h, d, tail, &mut da[full..]);
    }
}
