//! Property-based tests over the tensor kernels and autodiff invariants.

use fedda_tensor::{Graph, Matrix, ParamSet, Projection, Segments, Var};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

mod oracle;

/// A third exact zeros of either sign, so that the kernels' treatment of
/// FedDA's masked (literally zero) weights is always in play.
fn zero_heavy(rng: &mut rand::rngs::StdRng, r: usize, c: usize) -> Matrix {
    let data = (0..r * c).map(|_| match rng.gen_range(0u8..6) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-2.0f32..2.0),
    });
    Matrix::from_vec(r, c, data.collect())
}

/// A shape no tile divides (261 rows: 4-row panels and a ragged row; 259
/// columns: 16-wide strips and three single columns) must match the scalar
/// oracle bit for bit in every layout.
#[test]
fn ragged_matmul_matches_the_oracle_in_every_layout() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E44);
    let dims @ (m, k, n) = (261, 257, 259);
    let a = zero_heavy(&mut rng, m, k);
    let at = zero_heavy(&mut rng, k, m);
    let b = zero_heavy(&mut rng, k, n);
    let bt = zero_heavy(&mut rng, n, k);
    let want_nn = oracle::bits(&oracle::nn(a.as_slice(), b.as_slice(), dims));
    let want_tn = oracle::bits(&oracle::tn(at.as_slice(), b.as_slice(), dims));
    let want_nt = oracle::bits(&oracle::nt(a.as_slice(), bt.as_slice(), dims));
    assert_eq!(oracle::bits(a.matmul(&b).as_slice()), want_nn, "nn");
    assert_eq!(oracle::bits(at.matmul_tn(&b).as_slice()), want_tn, "tn");
    assert_eq!(oracle::bits(a.matmul_nt(&bt).as_slice()), want_nt, "nt");
}

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

fn edge_case(rng: &mut rand::rngs::StdRng, n: usize, t: usize, e: usize) -> EdgeCase {
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

/// Row widths for the edge-op proptests: a ragged range on the
/// runtime-width path, and every width the edge row kernel has a
/// compile-time instance for.
fn edge_width(widths: std::ops::Range<usize>) -> impl Strategy<Value = usize> {
    prop_oneof![widths, Just(8usize), Just(16usize), Just(32usize)]
}

/// The libm loops the tape ran before its vector `expf` (DESIGN.md §8 "One
/// `expf`"): the oracles its ELU, softmax and BCE must match by `to_bits`.
mod libm_loops {
    pub fn elu(x: &[f32], alpha: f32) -> Vec<f32> {
        let mut y = x.to_vec();
        for v in &mut y {
            if *v < 0.0 {
                *v = alpha * (v.exp() - 1.0);
            }
        }
        y
    }

    pub fn elu_grad(d: &[f32], x: &[f32], y: &[f32], alpha: f32) -> Vec<f32> {
        let mut da = d.to_vec();
        for ((d, &x), &y) in da.iter_mut().zip(x).zip(y) {
            if x < 0.0 {
                *d *= y + alpha;
            }
        }
        da
    }

    pub fn segment_softmax(x: &[f32], seg_of_row: &[u32], n_segments: usize) -> Vec<f32> {
        let mut maxes = vec![f32::NEG_INFINITY; n_segments];
        for (&v, &s) in x.iter().zip(seg_of_row) {
            let m = &mut maxes[s as usize];
            *m = if v > *m { v } else { *m };
        }
        let mut y = x.to_vec();
        let mut sums = vec![0.0f32; n_segments];
        for (v, &s) in y.iter_mut().zip(seg_of_row) {
            *v = (*v - maxes[s as usize]).exp();
            sums[s as usize] += *v;
        }
        for (v, &s) in y.iter_mut().zip(seg_of_row) {
            if sums[s as usize] > 0.0 {
                *v /= sums[s as usize];
            }
        }
        y
    }

    pub fn bce(x: &[f32], t: &[f32]) -> f32 {
        let mut loss = 0.0f64;
        for (&xi, &ti) in x.iter().zip(t) {
            let term = xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
            loss += term as f64;
        }
        (loss / x.len() as f64) as f32
    }

    fn sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            let z = (-x).exp();
            1.0 / (1.0 + z)
        } else {
            let z = x.exp();
            z / (1.0 + z)
        }
    }

    /// The gradient of [`bce`] under an upstream gradient of 1.
    pub fn bce_grad(x: &[f32], t: &[f32]) -> Vec<f32> {
        let scale = 1.0 / x.len() as f32;
        x.iter()
            .zip(t)
            .map(|(&xi, &ti)| scale * (sigmoid(xi) - ti))
            .collect()
    }
}

/// Inputs for the `expf` callers: mostly ordinary values, so most sixteen-
/// lane chunks take the vector path, and one in twenty a value that sends
/// its chunk down the slow one — a NaN (quiet or signalling, either sign),
/// an infinity, a signed zero, or a value below −88 or above 88.
fn exp_inputs(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<f32> {
    let special = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0u8..8) {
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
fn bits_any_nan(x: &[f32]) -> Vec<u32> {
    let canonical = |v: &f32| {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    };
    x.iter().map(canonical).collect()
}

/// The unfused decoder chain `pair_dot` must replay.
fn chain_pair_dot(g: &mut Graph, h: Var, src: &Arc<Vec<u32>>, dst: &Arc<Vec<u32>>) -> Var {
    let o_src = g.gather_rows(h, src.clone());
    let o_dst = g.gather_rows(h, dst.clone());
    g.row_dot(o_src, o_dst)
}

/// Like [`zero_heavy`], with one entry in twelve a NaN or an infinity of
/// either sign: the stage ops' inputs.
fn hostile(rng: &mut rand::rngs::StdRng, r: usize, c: usize) -> Matrix {
    let mut m = zero_heavy(rng, r, c);
    for v in m.as_mut_slice() {
        if rng.gen_range(0u8..12) == 0 {
            *v = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..4usize)];
        }
    }
    m
}

/// [`value_and_grad_bits`]' result with the value's NaNs read as one
/// pattern ([`bits_any_nan`]): a stage op's value is a sum that may meet two
/// NaNs (`x·W + b`, `head + res`). Gradients stay exact.
fn value_nan_as_one(
    (value, grads): (Vec<u32>, Vec<Option<Vec<u32>>>),
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let value: Vec<f32> = value.into_iter().map(f32::from_bits).collect();
    (bits_any_nan(&value), grads)
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

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_tn_matches_naive(
        k in 1usize..6, m in 1usize..6, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(k, m, (0..k*m).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let fast = a.matmul_tn(&b);
        let naive = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_nt_matches_naive(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let b = Matrix::from_vec(n, k, (0..n*k).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let fast = a.matmul_nt(&b);
        let naive = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Every layout, through the public entry points, against the scalar
    /// oracle bit for bit: ragged shapes straddling every tile edge (rows
    /// 1/2/4/8, columns 1/8/16), empty and unit dimensions, zero-heavy
    /// inputs (signed zeros included).
    #[test]
    fn blocked_gemm_matches_naive(
        m in 0usize..21, k in 0usize..21, n in 0usize..36,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = (m, k, n);
        let a = zero_heavy(&mut rng, m, k);
        let at = zero_heavy(&mut rng, k, m); // A stored transposed, for tn
        let b = zero_heavy(&mut rng, k, n);
        let bt = zero_heavy(&mut rng, n, k); // B stored transposed, for nt
        let (nn, tn, nt) = (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt));
        prop_assert_eq!((nn.shape(), tn.shape(), nt.shape()), ((m, n), (m, n), (m, n)));
        prop_assert_eq!(
            oracle::bits(nn.as_slice()),
            oracle::bits(&oracle::nn(a.as_slice(), b.as_slice(), dims))
        );
        prop_assert_eq!(
            oracle::bits(tn.as_slice()),
            oracle::bits(&oracle::tn(at.as_slice(), b.as_slice(), dims))
        );
        prop_assert_eq!(
            oracle::bits(nt.as_slice()),
            oracle::bits(&oracle::nt(a.as_slice(), bt.as_slice(), dims))
        );
    }

    #[test]
    fn add_is_commutative(m in matrix_strategy(6), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (r, c) = m.shape();
        let other = Matrix::from_vec(r, c, (0..r*c).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        prop_assert_eq!(m.add(&other), other.add(&m));
    }

    #[test]
    fn scatter_of_gather_preserves_mass(rows in 1usize..8, cols in 1usize..5, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Matrix::from_vec(rows, cols,
            (0..rows*cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect());
        // A permutation gather followed by the inverse scatter is identity-sum.
        let mut idx: Vec<u32> = (0..rows as u32).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let gathered = m.gather_rows(&idx);
        let scattered = gathered.scatter_add_rows(&idx, rows);
        for (x, y) in scattered.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn segment_softmax_rows_sum_to_one(
        n_rows in 1usize..20, n_segs in 1usize..5, seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let seg_of_row: Vec<u32> = (0..n_rows).map(|_| rng.gen_range(0..n_segs as u32)).collect();
        let x = Matrix::from_vec(n_rows, 1, (0..n_rows).map(|_| rng.gen_range(-30.0f32..30.0)).collect());
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let segs = Arc::new(Segments::new(seg_of_row.clone(), n_segs));
        let y = g.segment_softmax(xv, segs);
        let out = g.value(y).as_slice();
        // all outputs are probabilities
        for &v in out {
            prop_assert!((0.0..=1.0 + 1e-5).contains(&v));
        }
        // each non-empty segment sums to 1
        let mut sums = vec![0.0f32; n_segs];
        let mut seen = vec![false; n_segs];
        for (i, &s) in seg_of_row.iter().enumerate() {
            sums[s as usize] += out[i];
            seen[s as usize] = true;
        }
        for (s, &present) in seen.iter().enumerate() {
            if present {
                prop_assert!((sums[s] - 1.0).abs() < 1e-4, "segment {} sums to {}", s, sums[s]);
            }
        }
    }

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

    /// ELU through the vector `expf`, value and gradient, against the libm
    /// loop it replaced: NaN payloads, infinities, signed zeros and the
    /// underflow band included.
    #[test]
    fn elu_matches_libm_loop(len in 0usize..80, alpha in 0.1f32..2.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = exp_inputs(&mut rng, len);
        let w = Matrix::from_vec(len, 1, (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let mut g = Graph::new();
        let xv = g.leaf(Matrix::from_vec(x.len(), 1, x.clone()));
        let y = g.elu(xv, alpha);
        let (value, grads) = value_and_grad_bits(&mut g, y, &w, &[xv]);
        let want = libm_loops::elu(&x, alpha);
        let want_grad = libm_loops::elu_grad(w.as_slice(), &x, &want, alpha);
        prop_assert_eq!(value, oracle::bits(&want));
        prop_assert_eq!(grads, vec![Some(oracle::bits(&want_grad))]);
    }

    /// `segment_softmax` (and so `edge_softmax`) through the vector `expf`,
    /// against the libm loop it replaced; a segment's sum may meet several
    /// NaNs, so NaN payloads are not compared.
    #[test]
    fn segment_softmax_matches_libm_loop(
        len in 0usize..80, n_segs in 1usize..6, seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = exp_inputs(&mut rng, len);
        let seg_of_row: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n_segs as u32)).collect();
        let mut g = Graph::new();
        let xv = g.leaf(Matrix::from_vec(x.len(), 1, x.clone()));
        let y = g.segment_softmax(xv, Arc::new(Segments::new(seg_of_row.clone(), n_segs)));
        let want = libm_loops::segment_softmax(&x, &seg_of_row, n_segs);
        prop_assert_eq!(bits_any_nan(g.value(y).as_slice()), bits_any_nan(&want));
    }

    /// `bce_with_logits` value and gradient through the vector `expf`,
    /// against the libm loops they replaced: the gradient by `to_bits`, the
    /// mean (a sum that may meet several NaNs) up to NaN payloads.
    #[test]
    fn bce_matches_libm_loop(len in 1usize..80, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = exp_inputs(&mut rng, len);
        let t: Vec<f32> = (0..len).map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 }).collect();
        let mut g = Graph::new();
        let xv = g.leaf(Matrix::from_vec(x.len(), 1, x.clone()));
        let loss = g.bce_with_logits(xv, Arc::new(t.clone()));
        g.backward(loss);
        let value = bits_any_nan(g.value(loss).as_slice());
        prop_assert_eq!(value, bits_any_nan(&[libm_loops::bce(&x, &t)]));
        let grad = oracle::bits(g.grad(xv).unwrap().as_slice());
        prop_assert_eq!(grad, oracle::bits(&libm_loops::bce_grad(&x, &t)));
    }

    /// `pair_dot` against the `gather_rows`×2 → `row_dot` chain, value and
    /// gradient, with repeated pairs and self pairs; with `later_child`, `h`
    /// also feeds a node recorded after the decoder, so its gradient already
    /// holds a term when the decoder's two shares arrive.
    #[test]
    fn pair_dot_matches_unfused_chain(
        n in 1usize..9, d in edge_width(1..10), b in 0usize..41,
        later_child in any::<bool>(), seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pick = |_| -> u32 { rng.gen_range(0..n as u32) };
        let mut src: Vec<u32> = (0..b).map(&mut pick).collect();
        let mut dst: Vec<u32> = (0..b).map(&mut pick).collect();
        if b >= 2 {
            (src[b - 1], dst[b - 1]) = (src[0], dst[0]); // a repeated pair
            dst[1] = src[1]; // a self pair
        }
        let (src, dst) = (Arc::new(src), Arc::new(dst));
        let h = zero_heavy(&mut rng, n, d);
        let proj = zero_heavy(&mut rng, d, 1);
        let w = zero_heavy(&mut rng, b + if later_child { n } else { 0 }, 1);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let hv = g.leaf(h.clone());
            let mut out = if fused {
                g.pair_dot(hv, src.clone(), dst.clone())
            } else {
                chain_pair_dot(&mut g, hv, &src, &dst)
            };
            if later_child {
                let p = g.input(proj.clone());
                let later = g.matmul(hv, p);
                out = g.concat_rows(&[out, later]);
            }
            value_and_grad_bits(&mut g, out, &w, &[hv])
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
            let mut x = exp_inputs(&mut rng, m * c);
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

    #[test]
    fn l2_normalize_output_has_unit_or_zero_rows(m in matrix_strategy(6)) {
        let mut g = Graph::new();
        let v = g.leaf(m);
        let y = g.l2_normalize_rows(v, 1e-12);
        let rows = g.shape(y).0;
        for r in 0..rows {
            let row = g.value(y).row(r);
            let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm < 1.0 + 1e-4);
        }
    }

    #[test]
    fn flatten_load_flat_roundtrip(m in matrix_strategy(6), m2 in matrix_strategy(6)) {
        let mut ps = ParamSet::new();
        ps.add("a", m);
        ps.add("b", m2);
        let flat = ps.flatten();
        let mut ps2 = ps.clone();
        ps2.values_mut().fill(0.0);
        ps2.values_mut().copy_from_slice(&flat);
        prop_assert_eq!(ps2.flatten(), flat);
    }

    #[test]
    fn unit_l2_distance_to_self_is_zero(m in matrix_strategy(6)) {
        let mut ps = ParamSet::new();
        ps.add("a", m);
        let d = ps.unit_l2_distances(&ps.clone());
        prop_assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bce_loss_is_nonnegative(
        n in 1usize..20, seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let logits = Matrix::from_vec(1, n, (0..n).map(|_| rng.gen_range(-20.0f32..20.0)).collect());
        let targets: Vec<f32> = (0..n).map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 }).collect();
        let mut g = Graph::new();
        let x = g.leaf(logits);
        let loss = g.bce_with_logits(x, Arc::new(targets));
        let v = g.value(loss).get(0, 0);
        prop_assert!(v >= 0.0);
        prop_assert!(v.is_finite());
    }

    #[test]
    fn backward_grads_are_finite_for_bounded_inputs(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::from_vec(3, 3, (0..9).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let w = Matrix::from_vec(3, 2, (0..6).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let wv = g.leaf(w);
        let y = g.matmul(xv, wv);
        let a = g.elu(y, 1.0);
        let loss = g.sum_all(a);
        g.backward(loss);
        prop_assert!(g.grad(xv).unwrap().as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(g.grad(wv).unwrap().as_slice().iter().all(|v| v.is_finite()));
    }
}

/// Non-finite scores and features reach the output: nothing in the fused
/// ops skips a zero weight or masks a NaN. A `-inf` score is the one
/// legitimate zero — `exp(-inf - max) = 0` is what softmax means.
#[test]
fn edge_ops_propagate_non_finite_inputs() {
    let (src, dst) = (Arc::new(vec![0u32, 1, 2]), Arc::new(vec![0u32, 0, 1]));
    let segs = Arc::new(Segments::new(dst.to_vec(), 3));
    let alpha_for = |bad: f32| {
        let mut g = Graph::new();
        let s_src = g.leaf(Matrix::from_vec(3, 1, vec![bad, 0.5, 0.25]));
        let s_dst = g.leaf(Matrix::from_vec(3, 1, vec![0.0; 3]));
        let alpha = g.edge_softmax(
            s_src,
            s_dst,
            None,
            src.clone(),
            src.clone(),
            segs.clone(),
            0.2,
        );
        g.value(alpha).as_slice().to_vec()
    };
    for bad in [f32::NAN, f32::INFINITY] {
        let alpha = alpha_for(bad);
        assert!(alpha[0].is_nan(), "{bad} score gave alpha {alpha:?}");
        assert_eq!(alpha[2], 1.0, "other segments are untouched");
    }
    assert_eq!(alpha_for(f32::NEG_INFINITY), vec![0.0, 1.0, 1.0]);

    // A NaN / Inf feature row times a zero weight is NaN, not 0.
    for bad in [f32::NAN, f32::NEG_INFINITY] {
        let mut g = Graph::new();
        let h = g.leaf(Matrix::from_vec(3, 2, vec![bad, 1.0, 2.0, 3.0, 4.0, 5.0]));
        let alpha = g.leaf(Matrix::from_vec(3, 1, vec![0.0, 1.0, 1.0]));
        let out = g.edge_aggregate(h, alpha, src.clone(), dst.clone(), 3);
        let loss = g.sum_all(out);
        g.backward(loss);
        assert!(g.value(out).get(0, 0).is_nan());
        assert_eq!(g.value(out).row(1), &[4.0, 5.0]);
        assert!(!g.grad(alpha).unwrap().get(0, 0).is_finite());
    }

    // The same at every width the row kernel has an instance for, with a
    // zero upstream gradient on the bad column: `dα` meets `0·bad` too.
    for d in [8, 16, 32] {
        for bad in [f32::NAN, f32::NEG_INFINITY] {
            let mut feats = vec![1.0f32; 3 * d];
            feats[0] = bad;
            let mut upstream = vec![1.0f32; 3 * d];
            upstream[0] = 0.0;
            let mut g = Graph::new();
            let h = g.leaf(Matrix::from_vec(3, d, feats));
            let alpha = g.leaf(Matrix::from_vec(3, 1, vec![0.0, 1.0, 1.0]));
            let out = g.edge_aggregate(h, alpha, src.clone(), dst.clone(), 3);
            let w = g.input(Matrix::from_vec(3, d, upstream));
            let weighted = g.mul(out, w);
            let loss = g.sum_all(weighted);
            g.backward(loss);
            assert!(g.value(out).get(0, 0).is_nan(), "out, d = {d}, {bad}");
            assert!(
                g.grad(alpha).unwrap().get(0, 0).is_nan(),
                "dα, d = {d}, {bad}"
            );
        }
    }
}

/// `dα_e` is a chain over the row that starts at `-0.0`, where
/// `Iterator::sum` (the unfused chain's reduction) starts: an edge whose
/// every product is `-0.0` keeps the sign, at every width and in both the
/// side-by-side chains and the ragged tail. A `+0.0` start gives `+0.0`.
#[test]
fn dalpha_keeps_the_negative_zero_start() {
    let (n, e) = (3, 11);
    let src = Arc::new((0..e).map(|i| i % n).collect::<Vec<u32>>());
    let dst = Arc::new((0..e).map(|i| (i * 2) % n).collect::<Vec<u32>>());
    for d in [1, 3, 8, 16, 32] {
        let mut g = Graph::new();
        let h = g.leaf(Matrix::full(n as usize, d, -0.0));
        let alpha = g.leaf(Matrix::full(e as usize, 1, 0.5));
        let out = g.edge_aggregate(h, alpha, src.clone(), dst.clone(), n as usize);
        let w = g.input(Matrix::full(n as usize, d, 2.0));
        let weighted = g.mul(out, w);
        let loss = g.sum_all(weighted);
        g.backward(loss);
        let da = oracle::bits(g.grad(alpha).unwrap().as_slice());
        assert_eq!(da, vec![(-0.0f32).to_bits(); e as usize], "d = {d}");
    }
}

fn edge_op_with_lengths(src_len: usize, etype_len: usize, alpha_len: usize, dst_len: usize) {
    let idx = |len: usize| Arc::new(vec![0u32; len]);
    let mut g = Graph::new();
    let s = g.leaf(Matrix::zeros(2, 1));
    let segs = Arc::new(Segments::new(vec![0; 3], 2));
    g.edge_softmax(s, s, None, idx(src_len), idx(etype_len), segs, 0.2);
    let alpha = g.leaf(Matrix::zeros(alpha_len, 1));
    g.edge_aggregate(s, alpha, idx(3), idx(dst_len), 2);
}

#[test]
#[should_panic(expected = "edge_softmax: src length mismatch")]
fn edge_softmax_rejects_short_src() {
    edge_op_with_lengths(2, 3, 3, 3);
}

#[test]
#[should_panic(expected = "edge_softmax: etype length mismatch")]
fn edge_softmax_rejects_short_etype() {
    edge_op_with_lengths(3, 4, 3, 3);
}

#[test]
#[should_panic(expected = "edge_aggregate: alpha must be one weight per edge")]
fn edge_aggregate_rejects_wrong_alpha_length() {
    edge_op_with_lengths(3, 3, 2, 3);
}

#[test]
#[should_panic(expected = "edge_aggregate: dst length mismatch")]
fn edge_aggregate_rejects_short_dst() {
    edge_op_with_lengths(3, 3, 3, 2);
}

/// `edge_softmax` over two edges `src → dst` of type `etype`, with two
/// source and two destination scores, three segments and one type score.
fn edge_softmax_with_ends(src: Vec<u32>, dst: Vec<u32>, etype: Vec<u32>) {
    let mut g = Graph::new();
    let s = g.leaf(Matrix::zeros(2, 1));
    let per_type = g.leaf(Matrix::zeros(1, 1));
    let segs = Arc::new(Segments::new(dst, 3));
    g.edge_softmax(
        s,
        s,
        Some(per_type),
        Arc::new(src),
        Arc::new(etype),
        segs,
        0.2,
    );
}

#[test]
#[should_panic(expected = "edge_softmax: edge 1 has src 2, out of range for 2 src scores")]
fn edge_softmax_names_an_out_of_range_src() {
    edge_softmax_with_ends(vec![0, 2], vec![0, 1], vec![0, 0]);
}

/// The segments allow destination 2; the destination scores stop at 1.
#[test]
#[should_panic(expected = "edge_softmax: edge 1 has dst 2, out of range for 2 dst scores")]
fn edge_softmax_names_an_out_of_range_dst() {
    edge_softmax_with_ends(vec![0, 1], vec![0, 2], vec![0, 0]);
}

#[test]
#[should_panic(expected = "edge_softmax: edge 0 has etype 1, out of range for 1 etype scores")]
fn edge_softmax_names_an_out_of_range_etype() {
    edge_softmax_with_ends(vec![0, 1], vec![0, 1], vec![1, 0]);
}

#[test]
#[should_panic(expected = "edge_aggregate: edge 0->5 out of range")]
fn edge_aggregate_names_an_out_of_range_edge() {
    let mut g = Graph::new();
    let h = g.leaf(Matrix::zeros(2, 1));
    let alpha = g.leaf(Matrix::zeros(1, 1));
    g.edge_aggregate(h, alpha, Arc::new(vec![0]), Arc::new(vec![5]), 2);
}

/// The range check is a real assert: release builds run it too.
#[test]
#[should_panic(expected = "Segments: id 3 out of range for 3 segments")]
fn segments_new_rejects_out_of_range_id() {
    Segments::new(vec![0, 2, 3], 3);
}

#[test]
#[should_panic(expected = "pair_dot: example 1 pairs rows 0 and 3, out of range for 3 rows")]
fn pair_dot_names_an_out_of_range_example() {
    let mut g = Graph::new();
    let h = g.leaf(Matrix::zeros(3, 2));
    g.pair_dot(h, Arc::new(vec![1, 0, 4]), Arc::new(vec![2, 3, 0]));
}
