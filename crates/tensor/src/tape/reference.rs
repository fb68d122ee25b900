//! The unfused ops the fused ones replay bit for bit: `mul_col_broadcast`,
//! `leaky_relu`, `concat_cols` and `scatter_add_rows` (DESIGN §8 "Edge
//! kernels", "Stage ops"). The program records only the fused ops, so
//! these exist in test builds alone, beside the gradchecks of their own
//! backward and the properties that hold each fused op to its chain.

use super::{rows_of, write, Graph, Op, Projection, Segments, Shares, Var};
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
}

impl Reference {
    /// Call `f` on every parent handle.
    pub(super) fn for_each_parent(&self, mut f: impl FnMut(Var)) {
        match self {
            &Reference::MulColBroadcast(a, c) => {
                f(a);
                f(c);
            }
            &Reference::LeakyRelu(a, _) | &Reference::ScatterAddRows(a, _) => f(a),
            Reference::ConcatCols(vars) => vars.iter().copied().for_each(f),
        }
    }

    /// Each parent's share of the gradient `g` of an `m × n` node.
    pub(super) fn backprop(&self, (m, n): (usize, usize), g: &[f32], to: &mut Shares<'_>) {
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
