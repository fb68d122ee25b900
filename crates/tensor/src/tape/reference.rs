//! The unfused ops the fused ones replay bit for bit: `mul_col_broadcast`,
//! `leaky_relu`, `concat_cols`, `scatter_add_rows`, `elu`,
//! `edge_aggregate` and `heads_residual_elu` (DESIGN §8 "Edge kernels",
//! "Stage ops"). The program records only the fused ops, so these exist in
//! test builds alone, beside the gradchecks and checks of their own, and
//! the properties that hold each fused op to its chain.

use super::{
    all_below, edge, elu_in_blocks, expf, rows_of, write, Graph, Node, Op, Projection, Segments,
    Shares, Var, ELU_BLOCK,
};
use crate::{oracle, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A reference op's record on the tape.
pub(super) enum Reference {
    /// `[m,n] * [m,1]` (per-row scalar).
    MulColBroadcast(Var, Var),
    LeakyRelu(Var, f32),
    ConcatCols(Vec<Var>),
    ScatterAddRows(Var, Arc<Vec<u32>>),
    Elu(Var, f32),
    /// Gather · per-edge scale · scatter-add: `(h, alpha, src, dst)`.
    EdgeAggregate(Var, Var, Arc<Vec<u32>>, Arc<Vec<u32>>),
    /// `elu(concat_cols(heads) + res)`: `(heads, res, alpha)`.
    HeadsResidualElu(Vec<Var>, Var, f32),
}

impl Reference {
    /// Call `f` on every parent handle.
    pub(super) fn for_each_parent(&self, mut f: impl FnMut(Var)) {
        match self {
            &Reference::MulColBroadcast(a, c) | &Reference::EdgeAggregate(a, c, ..) => {
                f(a);
                f(c);
            }
            &Reference::LeakyRelu(a, _)
            | &Reference::ScatterAddRows(a, _)
            | &Reference::Elu(a, _) => f(a),
            Reference::ConcatCols(vars) => vars.iter().copied().for_each(f),
            Reference::HeadsResidualElu(heads, res, _) => {
                heads.iter().copied().for_each(&mut f);
                f(*res);
            }
        }
    }

    /// Floats of scratch this op's backward uses.
    pub(super) fn scratch_len(&self, nodes: &[Node]) -> usize {
        let len = |v: Var| nodes[v.0].len();
        match self {
            &Reference::EdgeAggregate(h, alpha, ..) => len(h).max(len(alpha)),
            // One head's `δ` block, as large as the head.
            Reference::HeadsResidualElu(heads, ..) => {
                heads.iter().map(|&h| len(h)).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Each parent's share of the gradient `g` of an `m × n` node whose
    /// value is `y`.
    pub(super) fn backprop(
        &self,
        (m, n): (usize, usize),
        y: &[f32],
        g: &[f32],
        to: &mut Shares<'_>,
        scratch: &mut [f32],
    ) {
        match self {
            &Reference::MulColBroadcast(a, c) => {
                if to.wants(a) {
                    let per_row = rows_of(g, m, n).zip(to.value(c));
                    to.put(
                        a,
                        per_row.flat_map(|(row, &s)| row.iter().map(move |&x| x * s)),
                    );
                }
                if to.wants(c) {
                    let pairs = rows_of(g, m, n).zip(rows_of(to.value(a), m, n));
                    let dot =
                        |(x, y): (&[f32], &[f32])| x.iter().zip(y).map(|(&x, &y)| x * y).sum();
                    to.put(c, pairs.map(dot));
                }
            }
            &Reference::LeakyRelu(a, slope) => {
                let x = to.value(a);
                let share = g
                    .iter()
                    .zip(x)
                    .map(|(&d, &x)| if x < 0.0 { d * slope } else { d });
                to.put(a, share);
            }
            Reference::ConcatCols(vars) => {
                let mut off = 0;
                for &v in vars {
                    let (lo, vc) = (off, to.shape(v).1);
                    off += vc;
                    if to.wants(v) {
                        let (dst, add) = to.slot(v);
                        for (r, row) in rows_of(g, m, n).enumerate() {
                            write(
                                &mut dst[r * vc..][..vc],
                                add,
                                row[lo..lo + vc].iter().copied(),
                            );
                        }
                    }
                }
            }
            Reference::ScatterAddRows(a, idx) => {
                let (dst, add) = to.slot(*a);
                for (i, &j) in idx.iter().enumerate() {
                    let j = j as usize;
                    write(&mut dst[i * n..][..n], add, g[j * n..][..n].iter().copied());
                }
            }
            &Reference::Elu(a, alpha) => {
                let x = to.value(a);
                // d/dx alpha(e^x - 1) = alpha e^x = y + alpha. A select, not
                // `d * 1.0` where x >= 0: that would quiet an sNaN.
                let share = (g.iter().zip(x).zip(y))
                    .map(|((&d, &x), &y)| if x < 0.0 { d * (y + alpha) } else { d });
                to.put(a, share);
            }
            Reference::EdgeAggregate(h, alpha, src, dst) => {
                let (hv, av, d) = (to.value(*h), to.value(*alpha), to.shape(*h).1);
                if to.wants(*alpha) {
                    to.built(*alpha, scratch, |da| {
                        edge::alpha_grad(g, hv, d, (src, dst), da);
                    });
                }
                if to.wants(*h) {
                    to.built(*h, scratch, |dh| edge::aggregate(g, d, av, (dst, src), dh));
                }
            }
            &Reference::HeadsResidualElu(ref heads, res, alpha) => {
                // Every parent's share is the pre-activation's gradient `δ`,
                // recomputed from the same `head + res` sum the forward
                // took, one head's `[m, d]` block at a time. Each block goes
                // to `res`'s columns, then to the head.
                let total = n;
                let rv = to.value(res);
                let res_held = to.wants(res).then(|| to.held(res));
                let mut off = 0;
                for &h in heads {
                    let (hv, hc) = (to.value(h), to.shape(h).1);
                    let delta = &mut scratch[..m * hc];
                    for r in 0..m {
                        let at = r * total + off;
                        let (hx, rx) = (&hv[r * hc..][..hc], &rv[at..][..hc]);
                        let (gy, yv) = (&g[at..][..hc], &y[at..][..hc]);
                        let d = &mut delta[r * hc..][..hc];
                        for c in 0..hc {
                            d[c] = if hx[c] + rx[c] < 0.0 {
                                gy[c] * (yv[c] + alpha)
                            } else {
                                gy[c]
                            };
                        }
                    }
                    let delta: &[f32] = delta;
                    if let Some(add) = res_held {
                        let dst = to.range(res);
                        for (r, d) in rows_of(delta, m, hc).enumerate() {
                            write(&mut dst[r * total + off..][..hc], add, d.iter().copied());
                        }
                    }
                    if to.wants(h) {
                        to.put(h, delta.iter().copied());
                    }
                    off += hc;
                }
            }
        }
    }
}

impl Graph {
    /// `[m,n] * [m,1]`: scale each row of `a` by the matching scalar in `c`.
    pub(crate) fn mul_col_broadcast(&mut self, a: Var, c: Var) -> Var {
        let shape @ (m, n) = self.shape(a);
        let (cr, cc) = self.shape(c);
        assert_eq!(
            (cr, cc),
            (m, 1),
            "mul_col_broadcast: scale must be {m}x1, got {cr}x{cc}"
        );
        let rg = self.requires(a) || self.requires(c);
        let op = Op::Reference(Reference::MulColBroadcast(a, c));
        self.record(shape, Some(a), 0, (op, rg), |v, out, _| {
            for (row, &s) in out.chunks_exact_mut(n.max(1)).zip(v.of(c)) {
                for x in row {
                    *x *= s;
                }
            }
        })
    }

    /// LeakyReLU with the given negative slope.
    pub(crate) fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let rg = self.requires(a);
        let op = Op::Reference(Reference::LeakyRelu(a, slope));
        self.record(self.shape(a), Some(a), 0, (op, rg), |_, out, _| {
            for x in out {
                if *x < 0.0 {
                    *x *= slope;
                }
            }
        })
    }

    /// Concatenate along columns: all inputs must share the row count.
    pub(crate) fn concat_cols(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_cols: no inputs");
        let m = self.shape(vars[0]).0;
        for &v in vars {
            assert_eq!(self.shape(v).0, m, "concat_cols: row mismatch");
        }
        let total: usize = vars.iter().map(|&v| self.shape(v).1).sum();
        let rg = vars.iter().any(|&v| self.requires(v));
        let op = Op::Reference(Reference::ConcatCols(vars.to_vec()));
        self.record((m, total), None, 0, (op, rg), |v, out, _| {
            let mut off = 0;
            for &var in vars {
                let vc = v.nodes[var.0].cols;
                for (r, src) in rows_of(v.of(var), m, vc).enumerate() {
                    out[r * total + off..][..vc].copy_from_slice(src);
                }
                off += vc;
            }
        })
    }

    /// Scatter-add rows: `out[idx[i]] += a[i]`, output has `out_rows` rows.
    ///
    /// # Panics
    /// Panics when `idx` is not one index per row of `a`, or on an index
    /// out of range.
    pub(crate) fn scatter_add_rows(&mut self, a: Var, idx: Arc<Vec<u32>>, out_rows: usize) -> Var {
        let (rows, c) = self.shape(a);
        assert_eq!(idx.len(), rows, "scatter_add_rows: index count mismatch");
        let rg = self.requires(a);
        let op = Op::Reference(Reference::ScatterAddRows(a, Arc::clone(&idx)));
        self.record((out_rows, c), None, 0, (op, rg), |v, out, _| {
            for (&j, src) in idx.iter().zip(rows_of(v.of(a), rows, c)) {
                let j = j as usize;
                assert!(
                    j < out_rows,
                    "scatter_add_rows: index {j} out of {out_rows} rows"
                );
                for (o, &s) in out[j * c..][..c].iter_mut().zip(src) {
                    *o += s;
                }
            }
        })
    }

    /// ELU: `x` for `x >= 0`, `alpha * (e^x - 1)` for `x < 0`. The
    /// exponential runs over every entry, then a select keeps `x` itself
    /// where it is not negative, NaN payloads included.
    pub(crate) fn elu(&mut self, a: Var, alpha: f32) -> Var {
        let rg = self.requires(a);
        let op = Op::Reference(Reference::Elu(a, alpha));
        self.record(self.shape(a), Some(a), 0, (op, rg), |v, out, _| {
            expf::exp_in_place(out);
            for (y, &x) in out.iter_mut().zip(v.of(a)) {
                *y = if x < 0.0 { alpha * (*y - 1.0) } else { x };
            }
        })
    }

    /// Message aggregation `out[dst_e] += h[src_e] · alpha_e` in edge order,
    /// fused: the f32 sequence of `gather_rows` → `mul_col_broadcast` →
    /// `scatter_add_rows` without that chain's two `[E,d]` intermediates.
    pub(crate) fn edge_aggregate(
        &mut self,
        h: Var,
        alpha: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        out_rows: usize,
    ) -> Var {
        let (rows, d) = self.shape(h);
        assert_eq!(dst.len(), src.len(), "edge_aggregate: dst length mismatch");
        assert_eq!(
            self.shape(alpha),
            (src.len(), 1),
            "edge_aggregate: alpha must be one weight per edge"
        );
        if !(all_below(&src, rows) && all_below(&dst, out_rows)) {
            for (&s, &t) in src.iter().zip(dst.iter()) {
                assert!(
                    (s as usize) < rows && (t as usize) < out_rows,
                    "edge_aggregate: edge {s}->{t} out of range"
                );
            }
        }
        let rg = self.requires(h) || self.requires(alpha);
        let op = Reference::EdgeAggregate(h, alpha, Arc::clone(&src), Arc::clone(&dst));
        self.record(
            (out_rows, d),
            None,
            0,
            (Op::Reference(op), rg),
            |v, out, _| {
                edge::aggregate(v.of(h), d, v.of(alpha), (&src, &dst), out);
            },
        )
    }

    /// The epilogue of a multi-head attention layer with a residual,
    /// fused: `elu(concat_cols(heads) + res)`, written once. The heads
    /// share `res`'s row count and their widths sum to its width. Replays
    /// `concat_cols` → `add` → `elu` (one head: `add` → `elu`) bit for bit,
    /// gradients included; the backward recomputes the pre-activation for
    /// ELU's sign.
    pub(crate) fn heads_residual_elu(&mut self, heads: &[Var], res: Var, alpha: f32) -> Var {
        assert!(!heads.is_empty(), "heads_residual_elu: no heads");
        let shape @ (m, total) = self.shape(res);
        for &h in heads {
            assert_eq!(self.shape(h).0, m, "heads_residual_elu: row mismatch");
        }
        let width: usize = heads.iter().map(|&h| self.shape(h).1).sum();
        assert_eq!(
            width, total,
            "heads_residual_elu: head widths sum to {width}, res is {total} wide"
        );
        let rg = self.requires(res) || heads.iter().any(|&h| self.requires(h));
        let op = Op::Reference(Reference::HeadsResidualElu(heads.to_vec(), res, alpha));
        let block = (m * total).min(ELU_BLOCK);
        self.record(shape, None, block, (op, rg), |v, out, e| {
            let mut off = 0;
            for &h in heads {
                let hc = v.nodes[h.0].cols;
                for (r, src) in rows_of(v.of(h), m, hc).enumerate() {
                    out[r * total + off..][..hc].copy_from_slice(src);
                }
                off += hc;
            }
            for (x, &r) in out.iter_mut().zip(v.of(res)) {
                *x += r;
            }
            elu_in_blocks(out, alpha, e);
        })
    }
}

/// A matrix of [`oracle::zero_heavy`] values.
fn zero_heavy(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_vec(r, c, oracle::zero_heavy(rng, r * c))
}

// ---- gradchecks of the reference ops' own backward ------------------------

/// Build a loss from leaves, return (loss value, analytic grads).
fn run<F>(inputs: &[Matrix], f: F) -> (f32, Vec<Matrix>)
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|m| g.leaf(m.clone())).collect();
    let loss = f(&mut g, &vars);
    assert_eq!(g.shape(loss), (1, 1), "gradcheck loss must be scalar");
    let value = g.value(loss).get(0, 0);
    g.backward(loss);
    let grads = vars
        .iter()
        .map(|&v| {
            let (r, c) = g.shape(v);
            g.grad(v).map_or_else(
                || Matrix::zeros(r, c),
                |m| Matrix::from_vec(r, c, m.as_slice().to_vec()),
            )
        })
        .collect();
    (value, grads)
}

/// Central-difference check of `f` around `inputs`.
fn gradcheck<F>(inputs: &[Matrix], f: F, tol: f32)
where
    F: Fn(&mut Graph, &[Var]) -> Var + Copy,
{
    let (_, analytic) = run(inputs, f);
    let h = 1e-3f32;
    for (pi, input) in inputs.iter().enumerate() {
        for i in 0..input.as_slice().len() {
            let mut plus = inputs.to_vec();
            plus[pi].as_mut_slice()[i] += h;
            let (lp, _) = run(&plus, f);
            let mut minus = inputs.to_vec();
            minus[pi].as_mut_slice()[i] -= h;
            let (lm, _) = run(&minus, f);
            let numeric = (lp - lm) / (2.0 * h);
            let exact = analytic[pi].as_slice()[i];
            let denom = numeric.abs().max(exact.abs()).max(1.0);
            assert!(
                (numeric - exact).abs() / denom < tol,
                "param {pi} element {i}: numeric {numeric} vs analytic {exact}"
            );
        }
    }
}

fn randn(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    let data = (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Matrix::from_vec(r, c, data)
}

/// Avoid values near a kink (for leaky_relu at 0).
fn randn_away_from_zero(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    let data = (0..r * c)
        .map(|_| {
            let v: f32 = rng.gen_range(0.1f32..1.0);
            if rng.gen::<bool>() {
                v
            } else {
                -v
            }
        })
        .collect();
    Matrix::from_vec(r, c, data)
}

#[test]
fn grad_mul_col_broadcast() {
    let mut rng = StdRng::seed_from_u64(4);
    let a = randn(&mut rng, 3, 4);
    let c = randn(&mut rng, 3, 1);
    gradcheck(
        &[a, c],
        |g, v| {
            let y = g.mul_col_broadcast(v[0], v[1]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_leaky_relu() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = randn_away_from_zero(&mut rng, 3, 3);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.leaky_relu(v[0], 0.2);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_concat_cols() {
    let mut rng = StdRng::seed_from_u64(10);
    let a = randn(&mut rng, 3, 2);
    let b = randn(&mut rng, 3, 3);
    gradcheck(
        &[a, b],
        |g, v| {
            let y = g.concat_cols(&[v[0], v[1]]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_gather_scatter() {
    let mut rng = StdRng::seed_from_u64(11);
    let a = randn(&mut rng, 4, 3);
    let idx = Arc::new(vec![0u32, 2, 2, 3, 1]);
    let idx2 = Arc::new(vec![1u32, 1, 0, 2, 2]);
    gradcheck(
        &[a],
        |g, v| {
            let gathered = g.gather_rows(v[0], idx.clone());
            let scattered = g.scatter_add_rows(gathered, idx2.clone(), 3);
            let sq = g.mul(scattered, scattered);
            g.sum_all(sq)
        },
        1e-2,
    );
}

/// The miniature single-head GAT layer of `tests/gradcheck.rs`'s composite
/// check, recorded as the unfused chain the fused edge ops replace.
#[test]
fn grad_composite_attention_like_unfused_chain() {
    let mut rng = StdRng::seed_from_u64(17);
    let h = randn(&mut rng, 4, 3); // 4 nodes, dim 3
    let w = randn(&mut rng, 3, 2); // projection
    let attn = randn(&mut rng, 2, 1); // attention vector
    let src = Arc::new(vec![0u32, 1, 2, 3, 0]);
    let dst = Arc::new(vec![1u32, 2, 3, 0, 2]);
    let segs = Arc::new(Segments::new(vec![1, 2, 3, 0, 2], 4));
    gradcheck(
        &[h, w, attn],
        |g, v| {
            let wh = g.matmul(v[0], v[1]); // [4,2]
            let hs = g.gather_rows(wh, src.clone()); // [5,2]
            let hd = g.gather_rows(wh, dst.clone()); // [5,2]
            let cat = g.add(hs, hd); // stand-in for a^T[hs||hd]
            let scores = g.matmul(cat, v[2]); // [5,1]
            let act = g.leaky_relu(scores, 0.2);
            let alpha = g.segment_softmax(act, segs.clone());
            let msg = g.mul_col_broadcast(hs, alpha);
            let agg = g.scatter_add_rows(msg, dst.clone(), 4);
            let out = g.elu(agg, 1.0);
            let normed = g.l2_normalize_rows(out, 1e-12);
            let sq = g.mul(normed, normed);
            g.sum_all(sq)
        },
        3e-2,
    );
}

#[test]
fn grad_elu() {
    let mut rng = StdRng::seed_from_u64(8);
    let a = randn_away_from_zero(&mut rng, 3, 3);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.elu(v[0], 1.0);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_edge_aggregate() {
    // The toy message graph of `tests/gradcheck.rs`: a duplicate edge, a
    // singleton destination, two empty ones and an isolated source.
    let src = Arc::new(vec![0u32, 0, 2, 3, 1, 2]);
    let dst = Arc::new(vec![1u32, 1, 1, 0, 2, 2]);
    let mut rng = StdRng::seed_from_u64(24);
    // A runtime width, and one with a compile-time row kernel.
    for d in [3, 16] {
        let h = randn(&mut rng, 5, d);
        let alpha = randn(&mut rng, 6, 1);
        gradcheck(
            &[h, alpha],
            |g, v| {
                let out = g.edge_aggregate(v[0], v[1], src.clone(), dst.clone(), 5);
                let sq = g.mul(out, out);
                g.sum_all(sq)
            },
            1e-2,
        );
    }
}

#[test]
fn grad_heads_residual_elu() {
    let mut rng = StdRng::seed_from_u64(28);
    // Heads away from ELU's kink and a small residual: no pre-activation
    // crosses zero under the finite-difference step.
    let (h0, h1) = (
        randn_away_from_zero(&mut rng, 4, 2),
        randn_away_from_zero(&mut rng, 4, 3),
    );
    let res = randn(&mut rng, 4, 5).scale(0.05);
    gradcheck(
        &[h0, h1, res],
        |g, v| {
            let y = g.heads_residual_elu(&v[..2], v[2], 1.0);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

// ---- the reference ops' own argument checks --------------------------------

/// `edge_aggregate` with `alpha_len` weights over three edges whose `dst`
/// has `dst_len` entries.
fn edge_aggregate_with_lengths(alpha_len: usize, dst_len: usize) {
    let idx = |len: usize| Arc::new(vec![0u32; len]);
    let mut g = Graph::new();
    let h = g.leaf(Matrix::zeros(2, 1));
    let alpha = g.leaf(Matrix::zeros(alpha_len, 1));
    g.edge_aggregate(h, alpha, idx(3), idx(dst_len), 2);
}

#[test]
#[should_panic(expected = "edge_aggregate: alpha must be one weight per edge")]
fn edge_aggregate_rejects_wrong_alpha_length() {
    edge_aggregate_with_lengths(2, 3);
}

#[test]
#[should_panic(expected = "edge_aggregate: dst length mismatch")]
fn edge_aggregate_rejects_short_dst() {
    edge_aggregate_with_lengths(3, 2);
}

#[test]
#[should_panic(expected = "edge_aggregate: edge 0->5 out of range")]
fn edge_aggregate_names_an_out_of_range_edge() {
    let mut g = Graph::new();
    let h = g.leaf(Matrix::zeros(2, 1));
    let alpha = g.leaf(Matrix::zeros(1, 1));
    g.edge_aggregate(h, alpha, Arc::new(vec![0]), Arc::new(vec![5]), 2);
}

/// The libm loops ELU ran before the vector `expf` (DESIGN.md §8 "One
/// `expf`"): the oracle `elu_matches_libm_loop` holds it to by `to_bits`.
mod libm_loops {
    pub(super) fn elu(x: &[f32], alpha: f32) -> Vec<f32> {
        let mut y = x.to_vec();
        for v in &mut y {
            if *v < 0.0 {
                *v = alpha * (v.exp() - 1.0);
            }
        }
        y
    }

    pub(super) fn elu_grad(d: &[f32], x: &[f32], y: &[f32], alpha: f32) -> Vec<f32> {
        let mut da = d.to_vec();
        for ((d, &x), &y) in da.iter_mut().zip(x).zip(y) {
            if x < 0.0 {
                *d *= y + alpha;
            }
        }
        da
    }
}

proptest! {
    /// ELU through the vector `expf`, value and gradient, against the libm
    /// loop it replaced: NaN payloads, infinities, signed zeros and the
    /// underflow band included.
    #[test]
    fn elu_matches_libm_loop(len in 0usize..80, alpha in 0.1f32..2.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = oracle::exp_inputs(&mut rng, len);
        let w: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut g = Graph::new();
        let xv = g.leaf(Matrix::from_vec(x.len(), 1, x.clone()));
        let y = g.elu(xv, alpha);
        let w_matrix = Matrix::from_vec(len, 1, w.clone());
        let (value, grads) = value_and_grad_bits(&mut g, y, &w_matrix, &[xv]);
        let want = libm_loops::elu(&x, alpha);
        let want_grad = libm_loops::elu_grad(&w, &x, &want, alpha);
        prop_assert_eq!(value, oracle::bits(&want));
        prop_assert_eq!(grads, vec![Some(oracle::bits(&want_grad))]);
    }
}

// ---- each fused op against the chain it replays ---------------------------

/// A random message graph for the fused edge ops: `n` nodes, `t` edge
/// types, `e` edges with every edge a possible duplicate and most
/// destinations isolated when `e < n`.
struct EdgeCase {
    n: usize,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    etype: Arc<Vec<u32>>,
    segs: Arc<Segments>,
}

fn edge_case(rng: &mut StdRng, n: usize, t: usize, e: usize) -> EdgeCase {
    let mut pick =
        |hi: usize| -> Vec<u32> { (0..e).map(|_| rng.gen_range(0..hi as u32)).collect() };
    let (mut src, mut dst, etype) = (pick(n), pick(n), pick(t));
    if e >= 2 {
        // At least one exact duplicate edge, whatever the draw.
        (src[e - 1], dst[e - 1]) = (src[0], dst[0]);
    }
    let segs = Arc::new(Segments::new(dst.clone(), n));
    EdgeCase {
        n,
        src: Arc::new(src),
        dst: Arc::new(dst),
        etype: Arc::new(etype),
        segs,
    }
}

/// The unfused attention-weight chain `edge_softmax` must replay.
fn chain_edge_softmax(
    g: &mut Graph,
    (s_src, s_dst, per_type): (Var, Var, Option<Var>),
    case: &EdgeCase,
    slope: f32,
) -> Var {
    let e_src = g.gather_rows(s_src, case.src.clone());
    let e_dst = g.gather_rows(s_dst, case.dst.clone());
    let mut score = g.add(e_src, e_dst);
    if let Some(p) = per_type {
        let per_edge = g.gather_rows(p, case.etype.clone());
        score = g.add(score, per_edge);
    }
    let act = g.leaky_relu(score, slope);
    g.segment_softmax(act, case.segs.clone())
}

/// The unfused aggregation chain `edge_aggregate` must replay.
fn chain_edge_aggregate(g: &mut Graph, h: Var, alpha: Var, case: &EdgeCase) -> Var {
    let src_feats = g.gather_rows(h, case.src.clone());
    let weighted = g.mul_col_broadcast(src_feats, alpha);
    g.scatter_add_rows(weighted, case.dst.clone(), case.n)
}

/// The unfused input projection `project_rows` must replay, as
/// `SimpleHgn::encode` recorded it: per part `matmul` →
/// `add_row_broadcast` → `scatter_add_rows`, then `add` across parts.
fn chain_project_rows(g: &mut Graph, parts: &[Projection], out_rows: usize) -> Var {
    let placed: Vec<Var> = (parts.iter())
        .map(|(x, w, b, rows)| {
            let xw = g.matmul(*x, *w);
            let xwb = g.add_row_broadcast(xw, *b);
            g.scatter_add_rows(xwb, rows.clone(), out_rows)
        })
        .collect();
    let mut acc = placed[0];
    for &p in &placed[1..] {
        acc = g.add(acc, p);
    }
    acc
}

/// The unfused layer epilogue `heads_residual_elu` must replay, as
/// `SimpleHgn::encode` recorded it (one head: no `concat_cols`).
fn chain_heads_residual_elu(g: &mut Graph, heads: &[Var], res: Var, alpha: f32) -> Var {
    let concat = if heads.len() == 1 {
        heads[0]
    } else {
        g.concat_cols(heads)
    };
    let pre = g.add(concat, res);
    g.elu(pre, alpha)
}

/// The unfused layer `aggregate_residual_elu` must replay, as
/// `SimpleHgn::encode` recorded it: `edge_aggregate` per head, then
/// `matmul(h, W_res)`, then the epilogue with ELU's `α = 1`.
fn chain_aggregate_residual_elu(
    g: &mut Graph,
    heads: &[(Var, Var)],
    case: &EdgeCase,
    h: Var,
    w_res: Var,
) -> Var {
    let aggs: Vec<Var> = (heads.iter())
        .map(|&(hw, alpha)| g.edge_aggregate(hw, alpha, case.src.clone(), case.dst.clone(), case.n))
        .collect();
    let res = g.matmul(h, w_res);
    g.heads_residual_elu(&aggs, res, 1.0)
}

/// Back-propagate `Σ out ⊙ w` (a non-uniform upstream gradient) and return
/// the bits of `out` and of every listed input's gradient.
fn value_and_grad_bits(
    g: &mut Graph,
    out: Var,
    w: &Matrix,
    inputs: &[Var],
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let wv = g.input(w.clone());
    let weighted = g.mul(out, wv);
    let loss = g.sum_all(weighted);
    g.backward(loss);
    let grads = inputs
        .iter()
        .map(|&v| g.grad(v).map(|m| oracle::bits(m.as_slice())));
    (oracle::bits(g.value(out).as_slice()), grads.collect())
}

/// [`value_and_grad_bits`]' result with the value's NaNs read as one
/// pattern ([`oracle::bits_any_nan`]): a stage op's value is a sum that may
/// meet two NaNs (`x·W + b`, `head + res`). Gradients stay exact.
fn value_nan_as_one(
    (value, grads): (Vec<u32>, Vec<Option<Vec<u32>>>),
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let value: Vec<f32> = value.into_iter().map(f32::from_bits).collect();
    (oracle::bits_any_nan(&value), grads)
}

/// Row widths for the edge-op proptests: a ragged range on the
/// runtime-width path, and every width the edge row kernel has a
/// compile-time instance for.
fn edge_width(widths: std::ops::Range<usize>) -> impl Strategy<Value = usize> {
    prop_oneof![widths, Just(8usize), Just(16usize), Just(32usize)]
}

/// Like [`zero_heavy`], with one entry in twelve a NaN or an infinity of
/// either sign: the stage ops' inputs.
fn hostile(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    let data = oracle::zero_heavy(rng, r * c).into_iter().map(|v| {
        if rng.gen_range(0u8..12) == 0 {
            [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..4usize)]
        } else {
            v
        }
    });
    Matrix::from_vec(r, c, data.collect())
}

proptest! {
    /// `edge_softmax` against the chain it fuses: forward value and every
    /// input gradient bit for bit, with and without the per-type term, for
    /// LeakyReLU and plain ReLU slopes, signed zeros included.
    #[test]
    fn edge_softmax_matches_unfused_chain(
        n in 1usize..9, t in 1usize..4, e in 0usize..25,
        with_type in any::<bool>(), relu in any::<bool>(), seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let case = edge_case(&mut rng, n, t, e);
        let slope = if relu { 0.0 } else { 0.2 };
        let (s_src, s_dst) = (zero_heavy(&mut rng, n, 1), zero_heavy(&mut rng, n, 1));
        let (per_type, w) = (zero_heavy(&mut rng, t, 1), zero_heavy(&mut rng, e, 1));
        let run = |fused: bool| {
            let mut g = Graph::new();
            let (a, b) = (g.leaf(s_src.clone()), g.leaf(s_dst.clone()));
            let p = with_type.then(|| g.leaf(per_type.clone()));
            let alpha = if fused {
                let (src, etype, segs) = (case.src.clone(), case.etype.clone(), case.segs.clone());
                g.edge_softmax(a, b, p, src, etype, segs, slope)
            } else {
                chain_edge_softmax(&mut g, (a, b, p), &case, slope)
            };
            let inputs: Vec<Var> = [Some(a), Some(b), p].into_iter().flatten().collect();
            value_and_grad_bits(&mut g, alpha, &w, &inputs)
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// `edge_aggregate` against the chain it fuses, both gradients included;
    /// a constant `alpha` (R-GCN's inverse degree) gets no gradient either way.
    #[test]
    fn edge_aggregate_matches_unfused_chain(
        n in 1usize..9, d in edge_width(1..10), e in 0usize..41,
        const_alpha in any::<bool>(), seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let case = edge_case(&mut rng, n, 1, e);
        let (h, alpha) = (zero_heavy(&mut rng, n, d), zero_heavy(&mut rng, e, 1));
        let w = zero_heavy(&mut rng, n, d);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let hv = g.leaf(h.clone());
            let av = if const_alpha { g.input(alpha.clone()) } else { g.leaf(alpha.clone()) };
            let out = if fused {
                g.edge_aggregate(hv, av, case.src.clone(), case.dst.clone(), n)
            } else {
                chain_edge_aggregate(&mut g, hv, av, &case)
            };
            value_and_grad_bits(&mut g, out, &w, &[hv, av])
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// One whole attention head the way `SimpleHgn::encode` records it:
    /// `hw` feeds the aggregate and both score projections, so its gradient
    /// is a three-term sum whose order the fused nodes' tape positions fix.
    #[test]
    fn attention_head_gradients_match_unfused_chain(
        n in 1usize..9, d in edge_width(1..6), e in 1usize..41, seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let case = edge_case(&mut rng, n, 2, e);
        let (h, a_src, a_dst) = (zero_heavy(&mut rng, n, d), zero_heavy(&mut rng, d, 1), zero_heavy(&mut rng, d, 1));
        let (per_type, w) = (zero_heavy(&mut rng, 2, 1), zero_heavy(&mut rng, n, d));
        let run = |fused: bool| {
            let mut g = Graph::new();
            let leaves = [&h, &a_src, &a_dst, &per_type].map(|m| g.leaf(m.clone()));
            let [hw, a_s, a_d, p] = leaves;
            let (s_src, s_dst) = (g.matmul(hw, a_s), g.matmul(hw, a_d));
            let out = if fused {
                let (src, etype, segs) = (case.src.clone(), case.etype.clone(), case.segs.clone());
                let alpha = g.edge_softmax(s_src, s_dst, Some(p), src, etype, segs, 0.2);
                g.edge_aggregate(hw, alpha, case.src.clone(), case.dst.clone(), n)
            } else {
                let alpha = chain_edge_softmax(&mut g, (s_src, s_dst, Some(p)), &case, 0.2);
                chain_edge_aggregate(&mut g, hw, alpha, &case)
            };
            value_and_grad_bits(&mut g, out, &w, &leaves)
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// `project_rows` against the chain it fuses, every gradient by
    /// `to_bits` and the value up to NaN payloads: 1–4 parts over disjoint
    /// random row sets with some rows in no part, an empty part possible,
    /// parts past the forward's 64-row chunk, NaN / ±inf / ±0 inputs. With
    /// `const_x` the features are an `input`; with `shared` every part
    /// reads one weight and one bias, which then sum one share per part.
    #[test]
    fn project_rows_matches_unfused_chain(
        n in prop_oneof![1usize..13, 60usize..140], parts in 1usize..5, d in edge_width(0..6),
        const_x in any::<bool>(), shared in any::<bool>(), seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(&mut rng);
        let covered = rng.gen_range(0..=n);
        let mut cuts: Vec<usize> = (0..parts - 1).map(|_| rng.gen_range(0..=covered)).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> = std::iter::once(0).chain(cuts).chain([covered]).collect();
        let shared_f = rng.gen_range(1usize..5);
        let data: Vec<(Matrix, Matrix, Matrix, Arc<Vec<u32>>)> = (bounds.windows(2))
            .map(|lo_hi| {
                let rows = ids[lo_hi[0]..lo_hi[1]].to_vec();
                let f = if shared { shared_f } else { rng.gen_range(1usize..5) };
                let x = hostile(&mut rng, rows.len(), f);
                (x, hostile(&mut rng, f, d), hostile(&mut rng, 1, d), Arc::new(rows))
            })
            .collect();
        let w = zero_heavy(&mut rng, n, d);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let mut leaves = Vec::new();
            let mut specs: Vec<Projection> = Vec::new();
            for (k, (x, wt, b, rows)) in data.iter().enumerate() {
                let xv = if const_x { g.input(x.clone()) } else { g.leaf(x.clone()) };
                let (wv, bv) = match specs.first() {
                    Some(&(_, w0, b0, _)) if shared => (w0, b0),
                    _ => (g.leaf(wt.clone()), g.leaf(b.clone())),
                };
                if k == 0 || !shared {
                    leaves.extend([wv, bv]);
                }
                leaves.push(xv);
                specs.push((xv, wv, bv, rows.clone()));
            }
            let out = if fused {
                g.project_rows(&specs, n)
            } else {
                chain_project_rows(&mut g, &specs, n)
            };
            value_nan_as_one(value_and_grad_bits(&mut g, out, &w, &leaves))
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// `aggregate_residual_elu` against the layer it fuses, every gradient
    /// by `to_bits` and the value up to NaN payloads: 1–4 heads of unequal
    /// widths (runtime and compile-time row kernels), duplicate edges and
    /// isolated nodes, NaN / ±inf / ±0 inputs, and each group of parents —
    /// the heads' `hw`, their `α`, the layer input `h` — possibly constant.
    /// One `hw` entry in four is a negative so small that its aggregate
    /// over a `+0.0` residual gives `e^x = 1` and ELU `+0.0`: there the
    /// output's sign says `x ≥ 0` while the chain took `g·(y + 1)`, which
    /// is `g` itself.
    #[test]
    fn aggregate_residual_elu_matches_unfused_chain(
        n in 1usize..9, widths in prop::collection::vec(edge_width(1..6), 1..5),
        f in 1usize..5, e in 0usize..25, consts in 0u8..8, seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = edge_case(&mut rng, n, 1, e);
        let total: usize = widths.iter().sum();
        let heads: Vec<(Matrix, Matrix)> = (widths.iter())
            .map(|&d| {
                let mut hw = hostile(&mut rng, n, d);
                for v in hw.as_mut_slice() {
                    if rng.gen_range(0u8..4) == 0 {
                        *v = -rng.gen_range(1e-12f32..1e-9);
                    }
                }
                (hw, zero_heavy(&mut rng, e, 1))
            })
            .collect();
        let (h, w_res) = (hostile(&mut rng, n, f), hostile(&mut rng, f, total));
        let w = zero_heavy(&mut rng, n, total);
        let [const_hw, const_alpha, const_h] = [1, 2, 4].map(|bit| consts & bit != 0);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let leaf = |g: &mut Graph, m: &Matrix, constant: bool| {
                if constant { g.input(m.clone()) } else { g.leaf(m.clone()) }
            };
            let vars: Vec<(Var, Var)> = (heads.iter())
                .map(|(hw, a)| (leaf(&mut g, hw, const_hw), leaf(&mut g, a, const_alpha)))
                .collect();
            let (hv, wv) = (leaf(&mut g, &h, const_h), g.leaf(w_res.clone()));
            let out = if fused {
                let (hws, alphas): (Vec<Var>, Vec<Var>) = vars.iter().copied().unzip();
                let (src, dst) = (case.src.clone(), case.dst.clone());
                g.aggregate_residual_elu(&hws, &alphas, src, dst, hv, wv)
            } else {
                chain_aggregate_residual_elu(&mut g, &vars, &case, hv, wv)
            };
            let inputs: Vec<Var> = (vars.iter())
                .flat_map(|&(hw, a)| [hw, a])
                .chain([hv, wv])
                .collect();
            value_nan_as_one(value_and_grad_bits(&mut g, out, &w, &inputs))
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// `heads_residual_elu` against `concat_cols` → `add` → `elu`, every
    /// gradient by `to_bits` and the value up to NaN payloads: 1–4 heads of unequal widths (across
    /// a whole `expf` chunk), `expf`'s hostile inputs, and a constant `res`
    /// (a residual of a frozen projection) that takes no share.
    #[test]
    fn heads_residual_elu_matches_unfused_chain(
        m in 0usize..7, widths in prop::collection::vec(1usize..21, 1..5),
        alpha in 0.1f32..2.0, const_res in any::<bool>(), seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let total: usize = widths.iter().sum();
        // One head entry in four is a negative so small that `e^x` rounds
        // to 1 and ELU gives `+0.0`, and one residual entry in four is
        // `+0.0`: their sum is negative while the output is not, so only
        // the recomputed pre-activation gives ELU's gradient its sign.
        let mut matrix = |c: usize, edit: fn(&mut rand::rngs::StdRng) -> f32| {
            let mut x = oracle::exp_inputs(&mut rng, m * c);
            for v in &mut x {
                if rng.gen_range(0u8..4) == 0 {
                    *v = edit(&mut rng);
                }
            }
            Matrix::from_vec(m, c, x)
        };
        let heads: Vec<Matrix> = (widths.iter())
            .map(|&c| matrix(c, |rng| -rng.gen_range(1e-12f32..1e-9)))
            .collect();
        let res = matrix(total, |_| 0.0);
        let w = zero_heavy(&mut rng, m, total);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let hv: Vec<Var> = heads.iter().map(|h| g.leaf(h.clone())).collect();
            let rv = if const_res { g.input(res.clone()) } else { g.leaf(res.clone()) };
            let out = if fused {
                g.heads_residual_elu(&hv, rv, alpha)
            } else {
                chain_heads_residual_elu(&mut g, &hv, rv, alpha)
            };
            let inputs: Vec<Var> = hv.iter().copied().chain([rv]).collect();
            value_nan_as_one(value_and_grad_bits(&mut g, out, &w, &inputs))
        };
        prop_assert_eq!(run(true), run(false));
    }
}
