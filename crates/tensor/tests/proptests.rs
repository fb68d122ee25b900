//! Property-based tests over the tensor kernels and autodiff invariants.

use fedda_tensor::{gemm, Graph, Matrix, ParamSet, Segments, Var};
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

/// Above the threading cut-off the row partitions of 2, 3 and 8 kernel
/// threads split the 4-row panels of a ragged shape at different places;
/// every layout must still match the scalar oracle bit for bit.
#[test]
fn dispatched_matmul_is_exact_above_threshold() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E44);
    let dims @ (m, k, n) = (261, 257, 259);
    assert!(m * k * n >= gemm::BLOCK_THRESHOLD);
    let a = zero_heavy(&mut rng, m, k);
    let at = zero_heavy(&mut rng, k, m);
    let b = zero_heavy(&mut rng, k, n);
    let bt = zero_heavy(&mut rng, n, k);
    let want_nn = oracle::bits(&oracle::nn(a.as_slice(), b.as_slice(), dims));
    let want_tn = oracle::bits(&oracle::tn(at.as_slice(), b.as_slice(), dims));
    let want_nt = oracle::bits(&oracle::nt(a.as_slice(), bt.as_slice(), dims));
    for threads in [1, 2, 3, 8] {
        gemm::with_kernel_threads(threads, || {
            assert_eq!(
                oracle::bits(a.matmul(&b).as_slice()),
                want_nn,
                "nn, {threads} threads"
            );
            assert_eq!(
                oracle::bits(at.matmul_tn(&b).as_slice()),
                want_tn,
                "tn, {threads} threads"
            );
            assert_eq!(
                oracle::bits(a.matmul_nt(&bt).as_slice()),
                want_nt,
                "nt, {threads} threads"
            );
        });
    }
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
        let x = Matrix::col_vector((0..n_rows).map(|_| rng.gen_range(-30.0f32..30.0)).collect());
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
        n in 1usize..9, d in 1usize..10, e in 0usize..25,
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
        n in 1usize..9, d in 1usize..6, e in 1usize..25, seed in any::<u64>(),
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

    #[test]
    fn l2_normalize_output_has_unit_or_zero_rows(m in matrix_strategy(6)) {
        let mut g = Graph::new();
        let v = g.leaf(m);
        let y = g.l2_normalize_rows(v, 1e-12);
        for row in g.value(y).rows_iter() {
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
        let logits = Matrix::row_vector((0..n).map(|_| rng.gen_range(-20.0f32..20.0)).collect());
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
        let loss = g.mean_all(a);
        g.backward(loss);
        prop_assert!(!g.grad(xv).unwrap().has_non_finite());
        prop_assert!(!g.grad(wv).unwrap().has_non_finite());
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
        let s_src = g.leaf(Matrix::col_vector(vec![bad, 0.5, 0.25]));
        let s_dst = g.leaf(Matrix::col_vector(vec![0.0; 3]));
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
        let alpha = g.leaf(Matrix::col_vector(vec![0.0, 1.0, 1.0]));
        let out = g.edge_aggregate(h, alpha, src.clone(), dst.clone(), 3);
        let loss = g.sum_all(out);
        g.backward(loss);
        assert!(g.value(out).get(0, 0).is_nan());
        assert_eq!(g.value(out).row(1), &[4.0, 5.0]);
        assert!(!g.grad(alpha).unwrap().get(0, 0).is_finite());
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
