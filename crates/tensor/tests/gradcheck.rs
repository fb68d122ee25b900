//! Finite-difference gradient checks for every differentiable op on the
//! tape. Each check builds a scalar loss from a set of leaf matrices,
//! compares the analytic gradient against central differences, and fails on
//! relative error above a tolerance.

use fedda_tensor::{Graph, Matrix, Segments, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
            g.grad(v).cloned().unwrap_or_else(|| {
                let (r, c) = g.shape(v);
                Matrix::zeros(r, c)
            })
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
        for i in 0..input.len() {
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

/// Avoid values near a kink (for leaky_relu / elu at 0).
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
fn grad_matmul() {
    let mut rng = StdRng::seed_from_u64(1);
    let a = randn(&mut rng, 3, 4);
    let b = randn(&mut rng, 4, 2);
    gradcheck(
        &[a, b],
        |g, v| {
            let y = g.matmul(v[0], v[1]);
            g.sum_all(y)
        },
        1e-2,
    );
}

#[test]
fn grad_matmul_weighted() {
    // A non-uniform upstream gradient (dY varies per element) exercises the
    // matmul backward paths for real: dA = dY · Bᵀ runs matmul_nt and
    // dB = Aᵀ · dY runs matmul_tn. `sum_all` alone would feed them an
    // all-ones dY, which both transposed kernels pass trivially.
    let mut rng = StdRng::seed_from_u64(21);
    let a = randn(&mut rng, 3, 5);
    let b = randn(&mut rng, 5, 4);
    let w = randn(&mut rng, 3, 4);
    gradcheck(
        &[a, b, w],
        |g, v| {
            let y = g.matmul(v[0], v[1]);
            let weighted = g.mul(y, v[2]);
            let sq = g.mul(weighted, weighted);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_matmul_chain() {
    // Two chained matmuls: the inner product's gradient is itself a matmul
    // output, so matmul_nt/matmul_tn run on non-trivial dY matrices and
    // their results feed further backward steps.
    let mut rng = StdRng::seed_from_u64(22);
    let a = randn(&mut rng, 2, 4);
    let b = randn(&mut rng, 4, 3);
    let c = randn(&mut rng, 3, 2);
    gradcheck(
        &[a, b, c],
        |g, v| {
            let ab = g.matmul(v[0], v[1]);
            let abc = g.matmul(ab, v[2]);
            let sq = g.mul(abc, abc);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_add_sub_mul() {
    let mut rng = StdRng::seed_from_u64(2);
    let a = randn(&mut rng, 2, 3);
    let b = randn(&mut rng, 2, 3);
    gradcheck(
        &[a.clone(), b.clone()],
        |g, v| {
            // The tape has no `sub`: a difference is `a + (-1)·b`.
            let s = g.add(v[0], v[1]);
            let neg = g.scale(v[1], -1.0);
            let d = g.add(s, neg);
            let m = g.mul(d, v[1]);
            let sq = g.mul(m, m);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_add_row_broadcast() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = randn(&mut rng, 3, 4);
    let bias = randn(&mut rng, 1, 4);
    gradcheck(
        &[a, bias],
        |g, v| {
            let y = g.add_row_broadcast(v[0], v[1]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
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
fn grad_scale_and_mean() {
    let mut rng = StdRng::seed_from_u64(6);
    let a = randn(&mut rng, 2, 5);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.scale(v[0], 2.5);
            let sq = g.mul(y, y);
            g.mean_all(sq)
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
fn grad_concat_rows() {
    let mut rng = StdRng::seed_from_u64(18);
    let a = randn(&mut rng, 1, 3);
    let b = randn(&mut rng, 2, 3);
    gradcheck(
        &[a, b],
        |g, v| {
            let y = g.concat_rows(&[v[0], v[1]]);
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

#[test]
fn grad_segment_softmax() {
    let mut rng = StdRng::seed_from_u64(12);
    let a = randn(&mut rng, 6, 1);
    // segment 2 is a singleton, segment 3 is empty
    let segs = Arc::new(Segments::new(vec![0, 0, 1, 1, 1, 2], 4));
    // weight the outputs so the gradient is not trivially zero
    let w = randn(&mut rng, 6, 1);
    gradcheck(
        &[a, w],
        |g, v| {
            let sm = g.segment_softmax(v[0], segs.clone());
            let weighted = g.mul(sm, v[1]);
            let sq = g.mul(weighted, weighted);
            g.sum_all(sq)
        },
        2e-2,
    );
}

/// A 5-node, 3-type toy message graph for the fused edge ops: a duplicate
/// edge (0→1 twice), a singleton destination segment (node 0), two empty
/// ones (nodes 3 and 4 receive nothing) and an isolated source (node 4).
fn edge_fixture() -> ([Arc<Vec<u32>>; 3], Arc<Segments>) {
    let src = vec![0u32, 0, 2, 3, 1, 2];
    let dst = vec![1u32, 1, 1, 0, 2, 2];
    let etype = vec![0u32, 2, 1, 1, 0, 2];
    let segs = Arc::new(Segments::new(dst.clone(), 5));
    ([src, dst, etype].map(Arc::new), segs)
}

#[test]
fn grad_edge_softmax() {
    let ([src, _, etype], segs) = edge_fixture();
    let mut rng = StdRng::seed_from_u64(23);
    // Node and type scores on disjoint magnitude bands, so that no edge
    // score lands within the finite-difference step of the LeakyReLU kink.
    let s_src = randn_away_from_zero(&mut rng, 5, 1).scale(4.0);
    let s_dst = randn_away_from_zero(&mut rng, 5, 1).scale(0.25);
    let per_type = randn_away_from_zero(&mut rng, 3, 1).scale(0.1);
    let w = randn(&mut rng, 6, 1);
    for with_type in [true, false] {
        for slope in [0.2, 0.0] {
            gradcheck(
                &[s_src.clone(), s_dst.clone(), per_type.clone(), w.clone()],
                |g, v| {
                    let pt = with_type.then_some(v[2]);
                    let alpha = g.edge_softmax(
                        v[0],
                        v[1],
                        pt,
                        src.clone(),
                        etype.clone(),
                        segs.clone(),
                        slope,
                    );
                    let weighted = g.mul(alpha, v[3]);
                    let sq = g.mul(weighted, weighted);
                    g.sum_all(sq)
                },
                2e-2,
            );
        }
    }
}

#[test]
fn grad_edge_aggregate() {
    let ([src, dst, _], _) = edge_fixture();
    let mut rng = StdRng::seed_from_u64(24);
    let h = randn(&mut rng, 5, 3);
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

#[test]
fn grad_l2_normalize_rows() {
    let mut rng = StdRng::seed_from_u64(13);
    // keep rows away from zero norm
    let mut a = randn(&mut rng, 3, 4);
    for x in a.as_mut_slice() {
        *x += if *x >= 0.0 { 0.5 } else { -0.5 };
    }
    let w = randn(&mut rng, 3, 4);
    gradcheck(
        &[a, w],
        |g, v| {
            let y = g.l2_normalize_rows(v[0], 1e-12);
            let p = g.mul(y, v[1]);
            g.sum_all(p)
        },
        2e-2,
    );
}

#[test]
fn grad_row_sum_and_row_dot() {
    let mut rng = StdRng::seed_from_u64(14);
    let a = randn(&mut rng, 3, 4);
    let b = randn(&mut rng, 3, 4);
    // The tape has no `row_sum`: a row sum is the row dot with all-ones.
    let ones = Matrix::full(3, 4, 1.0);
    gradcheck(
        &[a, b, ones],
        |g, v| {
            let rs = g.row_dot(v[0], v[2]);
            let rd = g.row_dot(v[0], v[1]);
            let both = g.mul(rs, rd);
            g.sum_all(both)
        },
        1e-2,
    );
}

#[test]
fn grad_bce_with_logits() {
    let mut rng = StdRng::seed_from_u64(15);
    let a = randn(&mut rng, 1, 6);
    let targets = Arc::new(vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    gradcheck(&[a], |g, v| g.bce_with_logits(v[0], targets.clone()), 1e-2);
}

#[test]
fn grad_dropout_with_mask() {
    let mut rng = StdRng::seed_from_u64(16);
    let a = randn(&mut rng, 2, 4);
    let mask = Arc::new(vec![2.0, 0.0, 2.0, 2.0, 0.0, 2.0, 0.0, 2.0]);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.dropout_with_mask(v[0], mask.clone());
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_composite_attention_like_network() {
    // A miniature single-head GAT layer: this exercises the exact op
    // composition Simple-HGN uses, end to end.
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
