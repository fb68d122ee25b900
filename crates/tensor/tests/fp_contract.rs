//! The one assumption the `x86-64-v3` build level rests on (DESIGN.md §8):
//! a multiply followed by an add is two roundings, at every ISA level. The
//! level has FMA, and a fused `a·b + c` rounds once — so the day someone
//! enables `fp-contract` or writes `mul_add` into a kernel, every golden
//! pin moves on hardware that has the instruction and stays put where it
//! does not. This test fails first, and says why. (`expf.rs` is the one
//! place that fuses, in f64, because the glibc `expf` it reproduces does;
//! its own tests hold it to `f32::exp` bit for bit — DESIGN.md §8.)

use fedda_tensor::{Graph, Matrix};
use std::sync::Arc;

/// `x·x = 1 + 2⁻¹¹ + 2⁻²⁴` sits exactly between two f32s and rounds to
/// even, `1 + 2⁻¹¹ = −C`. So `C + x·x` is `+0.0` when the product is
/// rounded first and `2⁻²⁴` when it is not.
const X: f32 = 1.0 + 1.0 / 4096.0;
const C: f32 = -(1.0 + 1.0 / 2048.0);
const UNFUSED: u32 = 0;
const FUSED: u32 = 0x3380_0000;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `m`'s values, row-major, as a tape hands them out.
fn values(m: &Matrix) -> Vec<f32> {
    let mut g = Graph::new();
    let v = g.input(m);
    g.value(v).as_slice().to_vec()
}

#[test]
fn multiply_then_add_is_never_fused() {
    // The operands do tell the two apart (exact in f64: 24 + 24 < 53 bits).
    let exact = f64::from(C) + f64::from(X) * f64::from(X);
    assert_eq!((exact as f32).to_bits(), FUSED);

    // Every chain is `(+0.0 + C·1) + X·X`: the first step is exact either
    // way, the second is the probe. Nine rows leave a ragged row panel; the
    // widths take the 16-wide tile with its 8-wide tail, the 8-wide tile
    // and the single-column tile.
    let m = 9;
    for n in [1, 8, 16, 24] {
        let want = vec![UNFUSED; m * n];
        let a = Matrix::from_vec(m, 2, [C, X].repeat(m));
        let at = Matrix::from_vec(2, m, [vec![C; m], vec![X; m]].concat());
        let b = Matrix::from_vec(2, n, [vec![1.0; n], vec![X; n]].concat());
        let bt = Matrix::from_vec(n, 2, [1.0, X].repeat(n));
        assert_eq!(bits(&values(&a.matmul(&b))), want, "gemm_nn fused, n = {n}");
        assert_eq!(
            bits(&values(&at.matmul_tn(&b))),
            want,
            "gemm_tn fused, n = {n}"
        );
        assert_eq!(
            bits(&values(&a.matmul_nt(&bt))),
            want,
            "gemm_nt fused, n = {n}"
        );
    }

    // The edge aggregation of an encoder layer: two messages into node 0,
    // `C·1` then `X·X`, over a `+0.0` residual; ELU keeps a `+0.0` (and
    // would keep the fused `2⁻²⁴`).
    let d = 16;
    let mut g = Graph::new();
    let hw = g.input(Matrix::from_vec(2, d, [vec![C; d], vec![X; d]].concat()));
    let alpha = g.input(Matrix::from_vec(2, 1, vec![1.0, X]));
    let (h, w_res) = (g.input(Matrix::zeros(2, 1)), g.input(Matrix::zeros(1, d)));
    let (src, dst) = (Arc::new(vec![0, 1]), Arc::new(vec![0, 0]));
    let out = g.aggregate_residual_elu(&[hw], &[alpha], src, dst, h, w_res);
    assert_eq!(
        bits(g.value(out).as_slice()),
        vec![UNFUSED; 2 * d],
        "aggregate_residual_elu fused"
    );

    // pair_dot: the pair (0, 1) is `C·1 + X·X`, then zeros, at the 16-wide
    // row kernel.
    let row = |a: f32| [vec![a, X], vec![0.0; d - 2]].concat();
    let h = g.input(Matrix::from_vec(2, d, [row(C), row(1.0)].concat()));
    let out = g.pair_dot(h, Arc::new(vec![0]), Arc::new(vec![1]));
    assert_eq!(
        bits(g.value(out).as_slice()),
        vec![UNFUSED],
        "pair_dot fused"
    );
}
