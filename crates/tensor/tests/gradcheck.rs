//! Finite-difference gradient checks for every differentiable op on the
//! tape. Each check builds a scalar loss from a set of leaf matrices,
//! compares the analytic gradient against central differences, and fails on
//! relative error above a tolerance.

use fedda_tensor::{Graph, Matrix, ParamSet, Segments, TapeBindings, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Build a loss from leaves bound to `inputs`' units, as the trainer binds
/// its parameters; return the loss value and the gradients the bindings
/// pull back into the set, laid out like its values.
fn run<F>(inputs: &ParamSet, f: F) -> (f32, Vec<f32>)
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    let (mut g, mut bindings) = (Graph::new(), TapeBindings::new());
    let vars: Vec<Var> = (inputs.ids())
        .map(|id| bindings.leaf(&mut g, inputs, id))
        .collect();
    let loss = f(&mut g, &vars);
    let value = g.value(loss);
    assert_eq!(value.as_slice().len(), 1, "gradcheck loss must be scalar");
    let value = value.get(0, 0);
    g.backward(loss);
    let mut params = inputs.clone();
    params.zero_grads();
    bindings.accumulate_grads(&g, &mut params);
    (value, params.take_grads())
}

/// Central-difference check of `f` around `inputs`.
fn gradcheck<F>(inputs: &[Matrix], f: F, tol: f32)
where
    F: Fn(&mut Graph, &[Var]) -> Var + Copy,
{
    let mut set = ParamSet::new();
    for (pi, input) in inputs.iter().enumerate() {
        set.add(format!("input{pi}"), input.clone());
    }
    let (_, analytic) = run(&set, f);
    let h = 1e-3f32;
    for (pi, id) in set.ids().enumerate() {
        for (i, at) in set.range(id).enumerate() {
            let mut plus = set.clone();
            plus.values_mut()[at] += h;
            let (lp, _) = run(&plus, f);
            let mut minus = set.clone();
            minus.values_mut()[at] -= h;
            let (lm, _) = run(&minus, f);
            let numeric = (lp - lm) / (2.0 * h);
            let exact = analytic[at];
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

/// Avoid values near a kink (for elu at 0).
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
fn grad_scale_and_mean() {
    let mut rng = StdRng::seed_from_u64(6);
    let a = randn(&mut rng, 2, 5);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.scale(v[0], 2.5);
            let sq = g.mul(y, y);
            let sum = g.sum_all(sq);
            g.scale(sum, 1.0 / 10.0)
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

/// Two heads over the toy message graph at a runtime width and at one with
/// a compile-time row kernel, every parent a leaf: both heads' `hw` and
/// `α`, the layer input and the residual weight.
#[test]
fn grad_aggregate_residual_elu() {
    let ([src, dst, _], _) = edge_fixture();
    let mut rng = StdRng::seed_from_u64(29);
    for d in [3, 16] {
        let shapes = [(5, d), (6, 1), (5, d), (6, 1), (5, 4), (4, 2 * d)];
        let inputs: Vec<Matrix> = shapes.iter().map(|&(r, c)| randn(&mut rng, r, c)).collect();
        gradcheck(
            &inputs,
            |g, v| {
                let (hws, alphas) = ([v[0], v[2]], [v[1], v[3]]);
                let out =
                    g.aggregate_residual_elu(&hws, &alphas, src.clone(), dst.clone(), v[4], v[5]);
                let sq = g.mul(out, out);
                g.sum_all(sq)
            },
            1e-2,
        );
    }
}

#[test]
fn grad_project_rows() {
    // Two node types over six nodes, node 3 of neither.
    let rows: [Arc<Vec<u32>>; 2] = [Arc::new(vec![4, 0, 2]), Arc::new(vec![5, 1])];
    let mut rng = StdRng::seed_from_u64(27);
    let shapes = [(3, 2), (2, 3), (1, 3), (2, 4), (4, 3), (1, 3)];
    let inputs: Vec<Matrix> = shapes.iter().map(|&(r, c)| randn(&mut rng, r, c)).collect();
    gradcheck(
        &inputs,
        |g, v| {
            let parts = [
                (v[0], v[1], v[2], rows[0].clone()),
                (v[3], v[4], v[5], rows[1].clone()),
            ];
            let out = g.project_rows(&parts, 6);
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
    let away = (0..12)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .map(|x| x + if x >= 0.0 { 0.5 } else { -0.5 });
    let a = Matrix::from_vec(3, 4, away.collect());
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

/// The fused decoder: repeated pairs and a self pair, whose row takes both
/// shares, at a runtime width and at one with a compile-time row kernel.
#[test]
fn grad_pair_dot() {
    let (src, dst) = (Arc::new(vec![0, 2, 1, 2, 3]), Arc::new(vec![1, 2, 3, 2, 0]));
    let mut rng = StdRng::seed_from_u64(25);
    for d in [3, 16] {
        let h = randn(&mut rng, 4, d);
        let w = randn(&mut rng, 5, 1);
        gradcheck(
            &[h, w],
            |g, v| {
                let out = g.pair_dot(v[0], src.clone(), dst.clone());
                let p = g.mul(out, v[1]);
                let sq = g.mul(p, p);
                g.sum_all(sq)
            },
            1e-2,
        );
    }
}

#[test]
fn grad_bce_with_logits() {
    let mut rng = StdRng::seed_from_u64(15);
    let a = randn(&mut rng, 1, 6);
    let targets = Arc::new(vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    gradcheck(&[a], |g, v| g.bce_with_logits(v[0], targets.clone()), 1e-2);
}

#[test]
fn grad_composite_attention_like_network() {
    // A miniature single-head GAT layer, recorded the way Simple-HGN
    // records one: the fused attention weights, then the layer's
    // aggregation, residual and ELU in one op, between a projection and the
    // output head.
    let mut rng = StdRng::seed_from_u64(17);
    let h = randn(&mut rng, 4, 3); // 4 nodes, dim 3
    let w = randn(&mut rng, 3, 2); // projection
    let attn = randn(&mut rng, 2, 1); // attention vector
    let w_res = randn(&mut rng, 3, 2); // residual projection
    let src = Arc::new(vec![0u32, 1, 2, 3, 0]);
    let dst = Arc::new(vec![1u32, 2, 3, 0, 2]);
    let etype = Arc::new(vec![0u32; 5]);
    let segs = Arc::new(Segments::new(dst.to_vec(), 4));
    gradcheck(
        &[h, w, attn, w_res],
        |g, v| {
            let wh = g.matmul(v[0], v[1]); // [4,2]
            let s = g.matmul(wh, v[2]); // [4,1]: a^T·wh per node
                                        // Per edge a^T(wh[src] + wh[dst]), LeakyReLU, softmax per dst.
            let alpha = g.edge_softmax(s, s, None, src.clone(), etype.clone(), segs.clone(), 0.2);
            let (ends, h) = ((src.clone(), dst.clone()), v[0]);
            let out = g.aggregate_residual_elu(&[wh], &[alpha], ends.0, ends.1, h, v[3]);
            let normed = g.l2_normalize_rows(out, 1e-12);
            let sq = g.mul(normed, normed);
            g.sum_all(sq)
        },
        3e-2,
    );
}
