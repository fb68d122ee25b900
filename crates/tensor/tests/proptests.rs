//! Property-based tests over the tensor kernels and autodiff invariants.

use fedda_tensor::{gemm, Graph, Matrix, ParamSet, Segments};
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
/// threads split the 2-row panels of a ragged shape at different places;
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
        for (_, p) in ps2.iter_mut() {
            p.value_mut().fill(0.0);
        }
        ps2.load_flat(&flat);
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
        let s = g.sigmoid(a);
        let loss = g.mean_all(s);
        g.backward(loss);
        prop_assert!(!g.grad(xv).unwrap().has_non_finite());
        prop_assert!(!g.grad(wv).unwrap().has_non_finite());
    }
}
