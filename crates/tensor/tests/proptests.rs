//! Property-based tests over the tensor kernels and autodiff invariants.

//! The tape ops only the fused ops' unfused chains use, and the properties
//! that hold each fused op to its chain, are unit tests of the crate
//! (`src/tape/reference.rs`): the program never records those ops.

use fedda_tensor::{Graph, Matrix, ParamSet, Segments, TapeBindings, Var};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

mod oracle;

/// A matrix of [`oracle::zero_heavy`] values.
fn zero_heavy(rng: &mut rand::rngs::StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_vec(r, c, oracle::zero_heavy(rng, r * c))
}

/// `m`'s values, row-major, as a tape hands them out: the program reads a
/// matrix through the tape it feeds.
fn values(m: &Matrix) -> Vec<f32> {
    let mut g = Graph::new();
    let v = g.input(m);
    g.value(v).as_slice().to_vec()
}

/// Differentiable leaves holding `values`, bound the way the trainer binds
/// its parameters: one unit of a `ParamSet` each.
fn bind(g: &mut Graph, values: &[&Matrix]) -> (ParamSet, TapeBindings, Vec<Var>) {
    let mut params = ParamSet::new();
    let ids: Vec<_> = (values.iter().enumerate())
        .map(|(i, &m)| params.add(format!("leaf{i}"), m.clone()))
        .collect();
    let mut bindings = TapeBindings::new();
    let vars = ids
        .iter()
        .map(|&id| bindings.leaf(g, &params, id))
        .collect();
    (params, bindings, vars)
}

/// After `backward`, the bits of every bound leaf's gradient, read back
/// the trainer's way (`TapeBindings::accumulate_grads`) into a buffer of
/// `-0.0`: adding to `-0.0` keeps every value's bits, where a `+0.0`
/// start would turn a `-0.0` gradient into `+0.0`.
fn grad_bits(g: &Graph, (params, bindings): (&ParamSet, &TapeBindings)) -> Vec<Vec<u32>> {
    let mut params = params.clone();
    params.values_and_grads_mut().1.fill(-0.0);
    bindings.accumulate_grads(g, &mut params);
    let grads = params.take_grads();
    params
        .ids()
        .map(|id| oracle::bits(&grads[params.range(id)]))
        .collect()
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
    let [a_, at_, b_, bt_] = [&a, &at, &b, &bt].map(values);
    let want_nn = oracle::bits(&oracle::nn(&a_, &b_, dims));
    let want_tn = oracle::bits(&oracle::tn(&at_, &b_, dims));
    let want_nt = oracle::bits(&oracle::nt(&a_, &bt_, dims));
    assert_eq!(oracle::bits(&values(&a.matmul(&b))), want_nn, "nn");
    assert_eq!(oracle::bits(&values(&at.matmul_tn(&b))), want_tn, "tn");
    assert_eq!(oracle::bits(&values(&a.matmul_nt(&bt))), want_nt, "nt");
}

/// Back-propagate `Σ out ⊙ w` (a non-uniform upstream gradient) and return
/// the bits of `out` and of every bound leaf's gradient.
fn value_and_grad_bits(
    g: &mut Graph,
    out: Var,
    w: &Matrix,
    leaves: (&ParamSet, &TapeBindings),
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let wv = g.input(w);
    let weighted = g.mul(out, wv);
    let loss = g.sum_all(weighted);
    g.backward(loss);
    (oracle::bits(g.value(out).as_slice()), grad_bits(g, leaves))
}

/// Row widths for the edge-op proptests: a ragged range on the
/// runtime-width path, and every width the edge row kernel has a
/// compile-time instance for.
fn edge_width(widths: std::ops::Range<usize>) -> impl Strategy<Value = usize> {
    prop_oneof![widths, Just(8usize), Just(16usize), Just(32usize)]
}

/// The libm loops the tape ran before its vector `expf` (DESIGN.md §8 "One
/// `expf`"): the oracles its softmax and BCE must match by `to_bits` (ELU's
/// is `elu_matches_libm_loop`'s, in `src/tape/reference.rs`).
mod libm_loops {
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

/// The unfused decoder chain `pair_dot` must replay.
fn chain_pair_dot(g: &mut Graph, h: Var, src: &Arc<Vec<u32>>, dst: &Arc<Vec<u32>>) -> Var {
    let o_src = g.gather_rows(h, src.clone());
    let o_dst = g.gather_rows(h, dst.clone());
    g.row_dot(o_src, o_dst)
}

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    /// `mᵀ` as the `tn` kernel forms it, `mᵀ·I`: the naive transpose, and
    /// transposing it again gives `m` back.
    #[test]
    fn transpose_is_involution(m in matrix_strategy(8)) {
        let eye = |n: usize| {
            Matrix::from_vec(n, n, (0..n * n).map(|i| f32::from(u8::from(i % (n + 1) == 0))).collect())
        };
        let (x, c) = (values(&m), m.cols());
        let r = x.len() / c;
        let t = m.matmul_tn(&eye(r));
        prop_assert_eq!(values(&t), oracle::transpose(&x, (r, c)));
        prop_assert_eq!(t.matmul_tn(&eye(c)), m);
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
        let naive = Matrix::from_vec(m, k, oracle::transpose(&values(&a), (k, m))).matmul(&b);
        for (x, y) in values(&fast).iter().zip(&values(&naive)) {
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
        let naive = a.matmul(&Matrix::from_vec(k, n, oracle::transpose(&values(&b), (n, k))));
        for (x, y) in values(&fast).iter().zip(&values(&naive)) {
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
        prop_assert_eq!((nn.cols(), tn.cols(), nt.cols()), (n, n, n));
        let [a, at, b, bt] = [&a, &at, &b, &bt].map(values);
        prop_assert_eq!(
            oracle::bits(&values(&nn)),
            oracle::bits(&oracle::nn(&a, &b, dims))
        );
        prop_assert_eq!(
            oracle::bits(&values(&tn)),
            oracle::bits(&oracle::tn(&at, &b, dims))
        );
        prop_assert_eq!(
            oracle::bits(&values(&nt)),
            oracle::bits(&oracle::nt(&a, &bt, dims))
        );
    }

    #[test]
    fn add_is_commutative(m in matrix_strategy(6), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = values(&m).len();
        let other = Matrix::from_vec(len / m.cols(), m.cols(), (0..len).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let mut g = Graph::new();
        let (a, b) = (g.input(&m), g.input(&other));
        let (ab, ba) = (g.add(a, b), g.add(b, a));
        prop_assert_eq!(g.value(ab).as_slice(), g.value(ba).as_slice());
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
        for (x, y) in values(&scattered).iter().zip(&values(&m)) {
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

    /// `segment_softmax` (and so `edge_softmax`) through the vector `expf`,
    /// against the libm loop it replaced; a segment's sum may meet several
    /// NaNs, so NaN payloads are not compared.
    #[test]
    fn segment_softmax_matches_libm_loop(
        len in 0usize..80, n_segs in 1usize..6, seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = oracle::exp_inputs(&mut rng, len);
        let seg_of_row: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n_segs as u32)).collect();
        let mut g = Graph::new();
        let xv = g.leaf(Matrix::from_vec(x.len(), 1, x.clone()));
        let y = g.segment_softmax(xv, Arc::new(Segments::new(seg_of_row.clone(), n_segs)));
        let want = libm_loops::segment_softmax(&x, &seg_of_row, n_segs);
        prop_assert_eq!(oracle::bits_any_nan(g.value(y).as_slice()), oracle::bits_any_nan(&want));
    }

    /// `bce_with_logits` value and gradient through the vector `expf`,
    /// against the libm loops they replaced: the gradient by `to_bits`, the
    /// mean (a sum that may meet several NaNs) up to NaN payloads.
    #[test]
    fn bce_matches_libm_loop(len in 1usize..80, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = oracle::exp_inputs(&mut rng, len);
        let t: Vec<f32> = (0..len).map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 }).collect();
        let mut g = Graph::new();
        let (params, bindings, xv) = bind(&mut g, &[&Matrix::from_vec(x.len(), 1, x.clone())]);
        let loss = g.bce_with_logits(xv[0], Arc::new(t.clone()));
        g.backward(loss);
        let value = oracle::bits_any_nan(g.value(loss).as_slice());
        prop_assert_eq!(value, oracle::bits_any_nan(&[libm_loops::bce(&x, &t)]));
        let grad = grad_bits(&g, (&params, &bindings));
        prop_assert_eq!(grad, vec![oracle::bits(&libm_loops::bce_grad(&x, &t))]);
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
            let (params, bindings, hv) = bind(&mut g, &[&h]);
            let hv = hv[0];
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
            value_and_grad_bits(&mut g, out, &w, (&params, &bindings))
        };
        prop_assert_eq!(run(true), run(false));
    }

    #[test]
    fn l2_normalize_output_has_unit_or_zero_rows(m in matrix_strategy(6)) {
        let mut g = Graph::new();
        let v = g.leaf(&m);
        let y = g.l2_normalize_rows(v, 1e-12);
        for row in g.value(y).as_slice().chunks(m.cols()) {
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
        let (params, bindings, leaves) = bind(&mut g, &[&x, &w]);
        let y = g.matmul(leaves[0], leaves[1]);
        // One head over a ring of self- and neighbour edges, with `x·w` as
        // its residual too: a layer the encoder records.
        let (src, dst) = (Arc::new(vec![0, 1, 2, 0, 1, 2]), Arc::new(vec![0, 1, 2, 1, 2, 0]));
        let alpha = g.input(Matrix::full(6, 1, 0.5));
        let a = g.aggregate_residual_elu(&[y], &[alpha], src, dst, leaves[0], leaves[1]);
        let loss = g.sum_all(a);
        g.backward(loss);
        for grad in grad_bits(&g, (&params, &bindings)) {
            prop_assert!(grad.into_iter().all(|v| f32::from_bits(v).is_finite()));
        }
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

    // A NaN / Inf feature row times a zero weight is NaN, not 0; the
    // aggregation runs inside the encoder's layer op, over a `+0.0`
    // residual.
    let zero_residual =
        |g: &mut Graph, d: usize| (g.input(Matrix::zeros(3, 1)), g.input(Matrix::zeros(1, d)));
    for bad in [f32::NAN, f32::NEG_INFINITY] {
        let mut g = Graph::new();
        let h = g.leaf(Matrix::from_vec(3, 2, vec![bad, 1.0, 2.0, 3.0, 4.0, 5.0]));
        let (params, bindings, alpha) =
            bind(&mut g, &[&Matrix::from_vec(3, 1, vec![0.0, 1.0, 1.0])]);
        let (x, w_res) = zero_residual(&mut g, 2);
        let out = g.aggregate_residual_elu(&[h], &alpha, src.clone(), dst.clone(), x, w_res);
        let loss = g.sum_all(out);
        g.backward(loss);
        assert!(g.value(out).get(0, 0).is_nan());
        assert_eq!(&g.value(out).as_slice()[2..4], &[4.0, 5.0]);
        let da = grad_bits(&g, (&params, &bindings));
        assert!(!f32::from_bits(da[0][0]).is_finite());
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
            let alpha = Matrix::from_vec(3, 1, vec![0.0, 1.0, 1.0]);
            let (params, bindings, alpha) = bind(&mut g, &[&alpha]);
            let (x, w_res) = zero_residual(&mut g, d);
            let out = g.aggregate_residual_elu(&[h], &alpha, src.clone(), dst.clone(), x, w_res);
            let w = g.input(Matrix::from_vec(3, d, upstream));
            let weighted = g.mul(out, w);
            let loss = g.sum_all(weighted);
            g.backward(loss);
            assert!(g.value(out).get(0, 0).is_nan(), "out, d = {d}, {bad}");
            let da = grad_bits(&g, (&params, &bindings));
            assert!(f32::from_bits(da[0][0]).is_nan(), "dα, d = {d}, {bad}");
        }
    }
}

/// `dα_e` is a chain over the row that starts at `-0.0`, where
/// `Iterator::sum` (the unfused chain's reduction) starts: an edge whose
/// every product is `-0.0` keeps the sign, at every width and in both the
/// side-by-side chains and the ragged tail. A `+0.0` start gives `+0.0`.
/// The aggregation is the encoder's layer op's, over a `+0.0` residual, so
/// the layer's output is `+0.0` and its gradient reaches `dα` unscaled.
#[test]
fn dalpha_keeps_the_negative_zero_start() {
    let (n, e) = (3, 11);
    let src = Arc::new((0..e).map(|i| i % n).collect::<Vec<u32>>());
    let dst = Arc::new((0..e).map(|i| (i * 2) % n).collect::<Vec<u32>>());
    for d in [1, 3, 8, 16, 32] {
        let mut g = Graph::new();
        let h = g.leaf(Matrix::full(n as usize, d, -0.0));
        let (params, bindings, alpha) = bind(&mut g, &[&Matrix::full(e as usize, 1, 0.5)]);
        let (x, w_res) = (
            g.input(Matrix::zeros(n as usize, 1)),
            g.input(Matrix::zeros(1, d)),
        );
        let out = g.aggregate_residual_elu(&[h], &alpha, src.clone(), dst.clone(), x, w_res);
        let w = g.input(Matrix::full(n as usize, d, 2.0));
        let weighted = g.mul(out, w);
        let loss = g.sum_all(weighted);
        g.backward(loss);
        let da = grad_bits(&g, (&params, &bindings));
        assert_eq!(da, vec![vec![(-0.0f32).to_bits(); e as usize]], "d = {d}");
    }
}

fn edge_op_with_lengths(src_len: usize, etype_len: usize, alpha_len: usize, dst_len: usize) {
    let idx = |len: usize| Arc::new(vec![0u32; len]);
    let mut g = Graph::new();
    let s = g.leaf(Matrix::zeros(2, 1));
    let segs = Arc::new(Segments::new(vec![0; 3], 2));
    g.edge_softmax(s, s, None, idx(src_len), idx(etype_len), segs, 0.2);
    let (alpha, w_res) = (
        g.leaf(Matrix::zeros(alpha_len, 1)),
        g.leaf(Matrix::zeros(1, 1)),
    );
    g.aggregate_residual_elu(&[s], &[alpha], idx(3), idx(dst_len), s, w_res);
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
#[should_panic(expected = "aggregate_residual_elu: alpha must be one weight per edge")]
fn aggregate_residual_elu_rejects_wrong_alpha_length() {
    edge_op_with_lengths(3, 3, 2, 3);
}

#[test]
#[should_panic(expected = "aggregate_residual_elu: dst length mismatch")]
fn aggregate_residual_elu_rejects_short_dst() {
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
#[should_panic(expected = "aggregate_residual_elu: edge 0->5 out of range for 2 nodes")]
fn aggregate_residual_elu_names_an_out_of_range_edge() {
    let mut g = Graph::new();
    let (h, w_res) = (g.leaf(Matrix::zeros(2, 1)), g.leaf(Matrix::zeros(1, 1)));
    let alpha = g.leaf(Matrix::zeros(1, 1));
    g.aggregate_residual_elu(
        &[h],
        &[alpha],
        Arc::new(vec![0]),
        Arc::new(vec![5]),
        h,
        w_res,
    );
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
