//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a define-by-run tape: every operation evaluates eagerly
//! and records an [`Op`] describing how to push gradients back to its
//! parents. Calling [`Graph::backward`] on a scalar node walks the tape in
//! reverse and accumulates gradients into every node that requires them.
//!
//! The op set is deliberately specialised for heterogeneous-graph neural
//! networks: besides dense algebra it has the two fused per-edge kernels of
//! attention message passing — `edge_softmax` (Eq. 2 scores → LeakyReLU →
//! per-destination softmax) and `edge_aggregate` (gather · scale ·
//! scatter-add) — the unfused primitives they replay bit for bit
//! (`gather_rows`, `scatter_add_rows`, `leaky_relu`, `segment_softmax`,
//! `mul_col_broadcast`: their test oracle; DESIGN §8 "Edge kernels"),
//! row-wise L2 normalisation (the Simple-HGN output head), and the fused
//! dot-product decoder `pair_dot`, which replays `gather_rows`×2 →
//! `row_dot`.
//!
//! `edge_aggregate`'s forward and both gradients, and `pair_dot`'s forward
//! and gradient, run the width-generic row kernel in `edge.rs`, with
//! compile-time instances for 8-, 16- and 32-wide rows and a runtime-width
//! one for the rest; the fused ops range-check their indices in one pass
//! before their loops.
//!
//! Every exponential — ELU, both softmaxes, BCE and its logistic — runs
//! `expf.rs`, a bit-exact copy of glibc's `expf` whose slice form
//! vectorises (DESIGN §8 "One `expf`"), so each op takes `exp` over a whole
//! slice first and then selects; the results are `f32::exp`'s, bit for bit.

use crate::edge;
use crate::expf;
use crate::matrix::Matrix;
use std::borrow::Cow;
use std::sync::Arc;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Segment descriptor for [`Graph::segment_softmax`]: row `i` of the input
/// belongs to segment `seg_of_row[i]`, and there are `n_segments` segments.
/// Rows of a segment do not need to be contiguous.
#[derive(Clone, Debug)]
pub struct Segments {
    /// Segment id of each row.
    pub seg_of_row: Vec<u32>,
    /// Total number of segments (ids must be `< n_segments`).
    pub n_segments: usize,
}

impl Segments {
    /// Build a segment descriptor, validating ids — in release builds too,
    /// so a bad id is named here and not an index panic inside a softmax.
    pub fn new(seg_of_row: Vec<u32>, n_segments: usize) -> Self {
        for &s in &seg_of_row {
            assert!(
                (s as usize) < n_segments,
                "Segments: id {s} out of range for {n_segments} segments"
            );
        }
        Self {
            seg_of_row,
            n_segments,
        }
    }
}

/// The recorded operation of a node. Parent handles refer to earlier nodes
/// on the same tape.
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Mul(Var, Var),
    /// `[m,n] + [1,n]` (bias row broadcast over rows).
    AddRowBroadcast(Var, Var),
    /// `[m,n] * [m,1]` (per-row scalar, e.g. attention weight).
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    LeakyRelu(Var, f32),
    Elu(Var, f32),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    GatherRows(Var, Arc<Vec<u32>>),
    ScatterAddRows(Var, Arc<Vec<u32>>),
    SegmentSoftmax(Var, Arc<Segments>),
    /// Fused per-edge attention scores → LeakyReLU → segment softmax.
    /// `(s_src, s_dst, per_type, src, etype, segments, slope)`.
    EdgeSoftmax(
        Var,
        Var,
        Option<Var>,
        Arc<Vec<u32>>,
        Arc<Vec<u32>>,
        Arc<Segments>,
        f32,
    ),
    /// Fused gather · per-edge scale · scatter-add: `(h, alpha, src, dst)`.
    EdgeAggregate(Var, Var, Arc<Vec<u32>>, Arc<Vec<u32>>),
    L2NormalizeRows(Var, f32),
    RowDot(Var, Var),
    /// Fused gather ×2 · row dot over one matrix: `(h, src, dst)`.
    PairDot(Var, Arc<Vec<u32>>, Arc<Vec<u32>>),
    SumAll(Var),
    MeanAll(Var),
    BceWithLogits(Var, Arc<Vec<f32>>),
    Dropout(Var, Arc<Vec<f32>>),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    requires_grad: bool,
}

/// A define-by-run autodiff tape.
///
/// Typical usage:
/// ```
/// use fedda_tensor::{Graph, Matrix};
/// let mut g = Graph::new();
/// let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
/// let w = g.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.5]));
/// let y = g.matmul(x, w);
/// let loss = g.sum_all(y);
/// g.backward(loss);
/// assert_eq!(g.grad(w).unwrap().as_slice(), &[1.0, 2.0]);
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

/// `out[r][c] = f(a[r][c], row[c])` in one pass over `a`.
fn zip_row(a: &Matrix, row: &[f32], f: impl Fn(f32, f32) -> f32) -> Matrix {
    let mut data = Vec::with_capacity(a.len());
    for a_row in a.rows_iter() {
        data.extend(a_row.iter().zip(row).map(|(&x, &y)| f(x, y)));
    }
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// `out[r][c] = a[r][c] * col[r]` in one pass over `a`.
fn scale_rows(a: &Matrix, col: &[f32]) -> Matrix {
    let mut data = Vec::with_capacity(a.len());
    for (a_row, &s) in a.rows_iter().zip(col) {
        data.extend(a_row.iter().map(|&x| x * s));
    }
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// `out[r] = a_r · b_r`, each a left-to-right sum: `row_dot`'s forward and
/// the per-row scale's gradient in `mul_col_broadcast`'s backward.
fn row_dots(a: &Matrix, b: &Matrix) -> Matrix {
    let dot = |(x, y): (&[f32], &[f32])| x.iter().zip(y).map(|(&x, &y)| x * y).sum();
    Matrix::col_vector(a.rows_iter().zip(b.rows_iter()).map(dot).collect())
}

/// Per-segment `Σ g·y` in row order: the softmax Jacobian's shared term in
/// `segment_softmax`'s and `edge_softmax`'s backward.
fn segment_dot(g: &[f32], y: &[f32], segs: &Segments) -> Vec<f32> {
    let mut dot = vec![0.0f32; segs.n_segments];
    for ((&g, &y), &s) in g.iter().zip(y).zip(&segs.seg_of_row) {
        dot[s as usize] += g * y;
    }
    dot
}

/// Segment softmax, in place: per-segment max, `exp(x - max)` over the
/// whole slice, the sums in row order, then the division (skipped where the
/// sum is not positive). Shared by `segment_softmax` and `edge_softmax`.
fn softmax_in_place(x: &mut [f32], segs: &Segments) {
    let mut maxes = vec![f32::NEG_INFINITY; segs.n_segments];
    for (&v, &s) in x.iter().zip(&segs.seg_of_row) {
        // A select, not `f32::max`: the first-seen NaN or zero sign wins,
        // as in a branch.
        let m = &mut maxes[s as usize];
        *m = if v > *m { v } else { *m };
    }
    for (v, &s) in x.iter_mut().zip(&segs.seg_of_row) {
        *v -= maxes[s as usize];
    }
    expf::exp_in_place(x);
    let mut sums = vec![0.0f32; segs.n_segments];
    for (&v, &s) in x.iter().zip(&segs.seg_of_row) {
        sums[s as usize] += v;
    }
    for (v, &s) in x.iter_mut().zip(&segs.seg_of_row) {
        if sums[s as usize] > 0.0 {
            *v /= sums[s as usize];
        }
    }
}

/// Whether every index is below `n`: the fused edge ops' range check, one
/// vectorised max before the edge loop. Only when it fails does an op walk
/// its edges to name the first bad one.
fn all_below(idx: &[u32], n: usize) -> bool {
    idx.iter().max().map_or(true, |&m| (m as usize) < n)
}

/// Pre-activation score of every edge, `(s_src[src_e] + s_dst[dst_e])
/// (+ per_type[etype_e])`: `edge_softmax`'s input, and the sign its
/// backward needs for the LeakyReLU Jacobian.
fn edge_scores(
    s_src: &[f32],
    s_dst: &[f32],
    per_type: Option<&[f32]>,
    (src, dst, etype): (&[u32], &[u32], &[u32]),
) -> Vec<f32> {
    let ends = src.iter().zip(dst);
    let mut x: Vec<f32> = ends
        .map(|(&s, &d)| s_src[s as usize] + s_dst[d as usize])
        .collect();
    if let Some(p) = per_type {
        for (x, &t) in x.iter_mut().zip(etype) {
            *x += p[t as usize];
        }
    }
    x
}

impl Graph {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Create an empty tape with node capacity reserved up front.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Register a differentiable leaf (a parameter copy).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Register a constant input (no gradient tracked).
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- dense algebra ----------------------------------------------------

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// `[m,n] + [1,n]`: add a bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (_, n) = self.shape(a);
        let (br, bc) = self.shape(bias);
        assert_eq!(
            (br, bc),
            (1, n),
            "add_row_broadcast: bias must be 1x{n}, got {br}x{bc}"
        );
        let value = zip_row(self.value(a), self.value(bias).as_slice(), |x, b| x + b);
        let rg = self.requires(a) || self.requires(bias);
        self.push(value, Op::AddRowBroadcast(a, bias), rg)
    }

    /// `[m,n] * [m,1]`: scale each row of `a` by the matching scalar in `c`.
    pub fn mul_col_broadcast(&mut self, a: Var, c: Var) -> Var {
        let (m, _) = self.shape(a);
        let (cr, cc) = self.shape(c);
        assert_eq!(
            (cr, cc),
            (m, 1),
            "mul_col_broadcast: scale must be {m}x1, got {cr}x{cc}"
        );
        let value = scale_rows(self.value(a), self.value(c).as_slice());
        let rg = self.requires(a) || self.requires(c);
        self.push(value, Op::MulColBroadcast(a, c), rg)
    }

    /// Multiply by a compile-time constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        let rg = self.requires(a);
        self.push(value, Op::Scale(a, s), rg)
    }

    // ---- nonlinearities ----------------------------------------------------

    /// LeakyReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let mut value = self.value(a).clone();
        for x in value.as_mut_slice() {
            if *x < 0.0 {
                *x *= slope;
            }
        }
        let rg = self.requires(a);
        self.push(value, Op::LeakyRelu(a, slope), rg)
    }

    /// ELU: `x` for `x >= 0`, `alpha * (e^x - 1)` for `x < 0`. The
    /// exponential runs over every entry, then a select keeps `x` itself
    /// where it is not negative, NaN payloads included.
    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        let x = self.value(a);
        let mut value = x.clone();
        expf::exp_in_place(value.as_mut_slice());
        for (y, &x) in value.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *y = if x < 0.0 { alpha * (*y - 1.0) } else { x };
        }
        let rg = self.requires(a);
        self.push(value, Op::Elu(a, alpha), rg)
    }

    // ---- structure ops -----------------------------------------------------

    /// Concatenate along columns: all inputs must share the row count.
    pub fn concat_cols(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_cols: no inputs");
        let m = self.shape(vars[0]).0;
        let total: usize = vars.iter().map(|&v| self.shape(v).1).sum();
        let mut value = Matrix::zeros(m, total);
        let mut off = 0;
        for &v in vars {
            let (vr, vc) = self.shape(v);
            assert_eq!(vr, m, "concat_cols: row mismatch");
            let src = &self.nodes[v.0].value;
            for r in 0..m {
                value.row_mut(r)[off..off + vc].copy_from_slice(src.row(r));
            }
            off += vc;
        }
        let rg = vars.iter().any(|&v| self.requires(v));
        self.push(value, Op::ConcatCols(vars.to_vec()), rg)
    }

    /// Concatenate along rows (vertical stack): all inputs must share the
    /// column count. Used to assemble per-edge-type embedding matrices from
    /// individually-masked parameter units.
    pub fn concat_rows(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_rows: no inputs");
        let n = self.shape(vars[0]).1;
        let total: usize = vars.iter().map(|&v| self.shape(v).0).sum();
        let mut value = Matrix::zeros(total, n);
        let mut off = 0;
        for &v in vars {
            let (vr, vc) = self.shape(v);
            assert_eq!(vc, n, "concat_rows: column mismatch");
            let src = &self.nodes[v.0].value;
            for r in 0..vr {
                value.row_mut(off + r).copy_from_slice(src.row(r));
            }
            off += vr;
        }
        let rg = vars.iter().any(|&v| self.requires(v));
        self.push(value, Op::ConcatRows(vars.to_vec()), rg)
    }

    /// Gather rows: `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<u32>>) -> Var {
        let value = self.value(a).gather_rows(&idx);
        let rg = self.requires(a);
        self.push(value, Op::GatherRows(a, idx), rg)
    }

    /// Scatter-add rows: `out[idx[i]] += a[i]`, output has `out_rows` rows.
    pub fn scatter_add_rows(&mut self, a: Var, idx: Arc<Vec<u32>>, out_rows: usize) -> Var {
        let value = self.value(a).scatter_add_rows(&idx, out_rows);
        let rg = self.requires(a);
        self.push(value, Op::ScatterAddRows(a, idx), rg)
    }

    /// Numerically-stable softmax over segments of a column vector `[m,1]`.
    ///
    /// Each segment (e.g. the incoming edges of one destination node)
    /// normalises independently. Empty segments are allowed.
    pub fn segment_softmax(&mut self, a: Var, segs: Arc<Segments>) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!(n, 1, "segment_softmax: input must be a column vector");
        assert_eq!(
            segs.seg_of_row.len(),
            m,
            "segment_softmax: segment count mismatch"
        );
        let mut value = self.value(a).clone();
        softmax_in_place(value.as_mut_slice(), &segs);
        let rg = self.requires(a);
        self.push(value, Op::SegmentSoftmax(a, segs), rg)
    }

    /// Attention weight of every message edge (Simple-HGN Eq. 2), fused:
    /// `x_e = (s_src[src_e] + s_dst[dst_e]) (+ per_type[etype_e])`, LeakyReLU,
    /// softmax over each destination's incoming edges (`segs` holds `dst_e`).
    /// Replays the f32 sequence of `gather_rows`×3 → `add`×2 → `leaky_relu`
    /// → `segment_softmax` without that chain's six `[E,1]` intermediates.
    #[allow(
        clippy::too_many_arguments,
        reason = "one fused op over the three score columns and the four index vectors of the chain it replaces"
    )]
    pub fn edge_softmax(
        &mut self,
        s_src: Var,
        s_dst: Var,
        per_type: Option<Var>,
        src: Arc<Vec<u32>>,
        etype: Arc<Vec<u32>>,
        segs: Arc<Segments>,
        slope: f32,
    ) -> Var {
        let (dst, e) = (&segs.seg_of_row, segs.seg_of_row.len());
        assert_eq!(src.len(), e, "edge_softmax: src length mismatch");
        assert_eq!(etype.len(), e, "edge_softmax: etype length mismatch");
        for v in [Some(s_src), Some(s_dst), per_type].into_iter().flatten() {
            assert_eq!(self.shape(v).1, 1, "edge_softmax: scores must be [_,1]");
        }
        let type_rows = per_type.map(|p| self.shape(p).0);
        for (name, idx, rows) in [
            ("src", &src[..], Some(self.shape(s_src).0)),
            ("dst", &dst[..], Some(self.shape(s_dst).0)),
            ("etype", &etype[..], type_rows),
        ] {
            let Some(n) = rows.filter(|&n| !all_below(idx, n)) else {
                continue;
            };
            for (e, &i) in idx.iter().enumerate() {
                assert!(
                    (i as usize) < n,
                    "edge_softmax: edge {e} has {name} {i}, out of range for {n} {name} scores"
                );
            }
        }
        let mut x = edge_scores(
            self.value(s_src).as_slice(),
            self.value(s_dst).as_slice(),
            per_type.map(|p| self.value(p).as_slice()),
            (&src, dst, &etype),
        );
        for v in &mut x {
            if *v < 0.0 {
                *v *= slope;
            }
        }
        softmax_in_place(&mut x, &segs);
        let rg = self.requires(s_src)
            || self.requires(s_dst)
            || per_type.is_some_and(|p| self.requires(p));
        let op = Op::EdgeSoftmax(s_src, s_dst, per_type, src, etype, segs, slope);
        self.push(Matrix::col_vector(x), op, rg)
    }

    /// Message aggregation `out[dst_e] += h[src_e] · alpha_e` in edge order,
    /// fused: the f32 sequence of `gather_rows` → `mul_col_broadcast` →
    /// `scatter_add_rows` without that chain's two `[E,d]` intermediates.
    pub fn edge_aggregate(
        &mut self,
        h: Var,
        alpha: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        out_rows: usize,
    ) -> Var {
        let (hv, av) = (self.value(h), self.value(alpha));
        assert_eq!(dst.len(), src.len(), "edge_aggregate: dst length mismatch");
        assert_eq!(
            av.shape(),
            (src.len(), 1),
            "edge_aggregate: alpha must be one weight per edge"
        );
        if !(all_below(&src, hv.rows()) && all_below(&dst, out_rows)) {
            for (&s, &t) in src.iter().zip(dst.iter()) {
                assert!(
                    (s as usize) < hv.rows() && (t as usize) < out_rows,
                    "edge_aggregate: edge {s}->{t} out of range"
                );
            }
        }
        let (x, d) = (hv.as_slice(), hv.cols());
        let mut value = Matrix::zeros(out_rows, d);
        edge::aggregate(x, d, av.as_slice(), (&src, &dst), value.as_mut_slice());
        let rg = self.requires(h) || self.requires(alpha);
        self.push(value, Op::EdgeAggregate(h, alpha, src, dst), rg)
    }

    /// Row-wise L2 normalisation: `y_i = x_i / max(||x_i||, eps)`.
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let (m, _) = self.shape(a);
        let mut value = self.value(a).clone();
        for r in 0..m {
            let row = value.row_mut(r);
            let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(eps);
            for x in row {
                *x /= norm;
            }
        }
        let rg = self.requires(a);
        self.push(value, Op::L2NormalizeRows(a, eps), rg)
    }

    /// Row-wise dot product of two `[m,n]` matrices: `out[i] = a_i · b_i`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "row_dot: shape mismatch");
        let value = row_dots(self.value(a), self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::RowDot(a, b), rg)
    }

    /// Dot product of row pairs of one `[n,d]` matrix, `out[i] = h[src_i] ·
    /// h[dst_i]` as a `[B,1]` column: the dot-product link decoder, fused.
    /// Replays the f32 sequence of `gather_rows`×2 → `row_dot`, gradient
    /// included, without the chain's two `[B,d]` gathers.
    ///
    /// # Panics
    /// Panics if `src` and `dst` differ in length, or naming the first
    /// example whose rows are out of range for `h`.
    pub fn pair_dot(&mut self, h: Var, src: Arc<Vec<u32>>, dst: Arc<Vec<u32>>) -> Var {
        let hv = self.value(h);
        let (n, d) = hv.shape();
        assert_eq!(dst.len(), src.len(), "pair_dot: dst length mismatch");
        if !(all_below(&src, n) && all_below(&dst, n)) {
            for (i, (&s, &t)) in src.iter().zip(dst.iter()).enumerate() {
                assert!(
                    (s as usize) < n && (t as usize) < n,
                    "pair_dot: example {i} pairs rows {s} and {t}, out of range for {n} rows"
                );
            }
        }
        // `Σ_c h[src_i][c]·h[dst_i][c]`, the edge kernel's `dα` chain with
        // `h` on both sides.
        let mut out = vec![0.0f32; src.len()];
        edge::alpha_grad(hv.as_slice(), hv.as_slice(), d, (&dst, &src), &mut out);
        let rg = self.requires(h);
        self.push(Matrix::col_vector(out), Op::PairDot(h, src, dst), rg)
    }

    // ---- reductions & losses ------------------------------------------------

    /// Sum of all elements, as a `1x1` node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let rg = self.requires(a);
        self.push(value, Op::SumAll(a), rg)
    }

    /// Mean of all elements, as a `1x1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        let rg = self.requires(a);
        self.push(value, Op::MeanAll(a), rg)
    }

    /// Binary cross-entropy with logits, averaged over all elements.
    ///
    /// Uses the standard stable form
    /// `max(x, 0) - x*t + ln(1 + e^{-|x|})`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Arc<Vec<f32>>) -> Var {
        let x = self.value(logits).as_slice();
        assert_eq!(
            x.len(),
            targets.len(),
            "bce_with_logits: target length mismatch"
        );
        assert!(!x.is_empty(), "bce_with_logits: empty input");
        let mut e: Vec<f32> = x.iter().map(|&xi| -xi.abs()).collect();
        expf::exp_in_place(&mut e);
        let mut loss = 0.0f64;
        for ((&xi, &ti), &e) in x.iter().zip(targets.iter()).zip(&e) {
            let term = xi.max(0.0) - xi * ti + (1.0 + e).ln();
            loss += term as f64;
        }
        let value = Matrix::from_vec(1, 1, vec![(loss / x.len() as f64) as f32]);
        let rg = self.requires(logits);
        self.push(value, Op::BceWithLogits(logits, targets), rg)
    }

    /// Inverted dropout with a precomputed mask (entries are `0` or
    /// `1/(1-p)`). The caller owns mask generation so training remains
    /// reproducible.
    pub fn dropout_with_mask(&mut self, a: Var, mask: Arc<Vec<f32>>) -> Var {
        let x = self.value(a);
        assert_eq!(
            x.len(),
            mask.len(),
            "dropout_with_mask: mask length mismatch"
        );
        let data = x
            .as_slice()
            .iter()
            .zip(mask.iter())
            .map(|(&v, &m)| v * m)
            .collect();
        let value = Matrix::from_vec(x.rows(), x.cols(), data);
        let rg = self.requires(a);
        self.push(value, Op::Dropout(a, mask), rg)
    }

    // ---- backward -----------------------------------------------------------

    /// Run reverse-mode accumulation from a scalar (`1x1`) node.
    ///
    /// Walks the tape backwards: a node's children sit later on the tape, so
    /// its gradient is complete when it is reached. The node's adjoints give
    /// each parent's share, and this loop is the one place they are added in.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1` or does not require grad.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be scalar");
        assert!(self.requires(loss), "backward: loss does not require grad");
        self.nodes[loss.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            let (parents, rest) = self.nodes.split_at_mut(i);
            let Some(g) = &rest[0].grad else {
                continue;
            };
            for (v, share) in rest[0].adjoints(parents, g).into_iter().flatten() {
                let grad = &mut parents[v.0].grad;
                match grad.as_mut() {
                    Some(acc) => acc.add_assign(&share),
                    None => *grad = Some(share.into_owned()),
                }
            }
        }
    }
}

/// A parent and its share of a node's gradient `g`: `g` itself where the
/// parent's value passed through unchanged, a new matrix otherwise.
type Adjoint<'g> = (Var, Cow<'g, Matrix>);

/// `v`'s share as a new matrix.
fn owned(v: Var, share: Matrix) -> Option<Adjoint<'static>> {
    Some((v, Cow::Owned(share)))
}

impl Node {
    /// Each parent's share of this node's gradient `g`, in accumulation
    /// order (DESIGN §8), `None` for a parent that takes no gradient: its
    /// share is never computed. A one-parent node has a gradient only when
    /// its parent takes one, so only the multi-parent arms ask `wants`.
    fn adjoints<'g>(&self, parents: &[Node], g: &'g Matrix) -> Vec<Option<Adjoint<'g>>> {
        let value = |v: Var| &parents[v.0].value;
        let wants = |v: Var| parents[v.0].requires_grad;
        match &self.op {
            Op::Leaf => Vec::new(),
            &Op::MatMul(a, b) => vec![
                wants(a).then(|| (a, Cow::Owned(g.matmul_nt(value(b))))),
                wants(b).then(|| (b, Cow::Owned(value(a).matmul_tn(g)))),
            ],
            &Op::Add(a, b) => vec![
                wants(a).then_some((a, Cow::Borrowed(g))),
                wants(b).then_some((b, Cow::Borrowed(g))),
            ],
            &Op::Mul(a, b) => vec![
                wants(a).then(|| (a, Cow::Owned(g.mul(value(b))))),
                wants(b).then(|| (b, Cow::Owned(g.mul(value(a))))),
            ],
            &Op::AddRowBroadcast(a, bias) => vec![
                wants(a).then_some((a, Cow::Borrowed(g))),
                wants(bias).then(|| {
                    let mut col = vec![0.0f32; g.cols()];
                    for row in g.rows_iter() {
                        for (o, &v) in col.iter_mut().zip(row) {
                            *o += v;
                        }
                    }
                    (bias, Cow::Owned(Matrix::row_vector(col)))
                }),
            ],
            &Op::MulColBroadcast(a, c) => vec![
                wants(a).then(|| (a, Cow::Owned(scale_rows(g, value(c).as_slice())))),
                wants(c).then(|| (c, Cow::Owned(row_dots(g, value(a))))),
            ],
            &Op::Scale(a, s) => vec![owned(a, g.scale(s))],
            &Op::LeakyRelu(a, slope) => {
                let mut da = g.clone();
                for (d, &x) in da.as_mut_slice().iter_mut().zip(value(a).as_slice()) {
                    if x < 0.0 {
                        *d *= slope;
                    }
                }
                vec![owned(a, da)]
            }
            &Op::Elu(a, alpha) => {
                let mut da = g.clone();
                let (x, y) = (value(a).as_slice(), self.value.as_slice());
                for ((d, &x), &y) in da.as_mut_slice().iter_mut().zip(x).zip(y) {
                    // d/dx alpha(e^x - 1) = alpha e^x = y + alpha. A select,
                    // not `d * 1.0` where x >= 0: that would quiet an sNaN.
                    *d = if x < 0.0 { *d * (y + alpha) } else { *d };
                }
                vec![owned(a, da)]
            }
            Op::ConcatCols(vars) => {
                let mut off = 0;
                let parts = vars.iter().map(|&v| {
                    let (lo, vc) = (off, value(v).cols());
                    off += vc;
                    wants(v).then(|| {
                        let mut part = Vec::with_capacity(g.rows() * vc);
                        for row in g.rows_iter() {
                            part.extend_from_slice(&row[lo..lo + vc]);
                        }
                        (v, Cow::Owned(Matrix::from_vec(g.rows(), vc, part)))
                    })
                });
                parts.collect()
            }
            Op::ConcatRows(vars) => {
                let mut off = 0;
                let parts = vars.iter().map(|&v| {
                    let (vr, vc) = value(v).shape();
                    let rows = &g.as_slice()[off..off + vr * vc];
                    off += vr * vc;
                    wants(v).then(|| (v, Cow::Owned(Matrix::from_vec(vr, vc, rows.to_vec()))))
                });
                parts.collect()
            }
            Op::GatherRows(a, idx) => vec![owned(*a, g.scatter_add_rows(idx, value(*a).rows()))],
            Op::ScatterAddRows(a, idx) => vec![owned(*a, g.gather_rows(idx))],
            Op::SegmentSoftmax(a, segs) => {
                let (y, gv) = (self.value.as_slice(), g.as_slice());
                let seg_dot = segment_dot(gv, y, segs);
                let dx = (y.iter().zip(gv).zip(&segs.seg_of_row))
                    .map(|((&y, &g), &s)| y * (g - seg_dot[s as usize]))
                    .collect();
                vec![owned(*a, Matrix::col_vector(dx))]
            }
            Op::EdgeSoftmax(s_src, s_dst, per_type, src, etype, segs, slope) => {
                // Plain slices and a copied slope before the edge loop: a
                // prototype that read through the op's `Arc`s and `&f32`
                // inside it ran this backward ~48 % slower (DESIGN §8).
                let (src, etype, dst, slope) = (&src[..], &etype[..], &segs.seg_of_row[..], *slope);
                let (y, gv) = (self.value.as_slice(), g.as_slice());
                let x = edge_scores(
                    value(*s_src).as_slice(),
                    value(*s_dst).as_slice(),
                    per_type.map(|p| value(p).as_slice()),
                    (src, dst, etype),
                );
                let seg_dot = segment_dot(gv, y, segs);
                // Softmax then LeakyReLU Jacobian per edge; the three
                // scatter-adds are the chain's three `gather_rows` adjoints.
                let zeros = |v: Var| wants(v).then(|| vec![0.0f32; value(v).rows()]);
                let (mut d_src, mut d_dst) = (zeros(*s_src), zeros(*s_dst));
                let mut d_type = per_type.and_then(zeros);
                for (r, &s) in dst.iter().enumerate() {
                    let mut dx = y[r] * (gv[r] - seg_dot[s as usize]);
                    if x[r] < 0.0 {
                        dx *= slope;
                    }
                    if let Some(d) = d_src.as_mut() {
                        d[src[r] as usize] += dx;
                    }
                    if let Some(d) = d_dst.as_mut() {
                        d[s as usize] += dx;
                    }
                    if let Some(d) = d_type.as_mut() {
                        d[etype[r] as usize] += dx;
                    }
                }
                let col = |v: Var, d: Vec<f32>| (v, Cow::Owned(Matrix::col_vector(d)));
                vec![
                    per_type.zip(d_type).map(|(p, d)| col(p, d)),
                    d_dst.map(|d| col(*s_dst, d)),
                    d_src.map(|d| col(*s_src, d)),
                ]
            }
            Op::EdgeAggregate(h, alpha, src, dst) => {
                let (hv, av) = (value(*h), value(*alpha).as_slice());
                let (gs, d) = (g.as_slice(), hv.cols());
                vec![
                    wants(*alpha).then(|| {
                        let mut da = vec![0.0f32; av.len()];
                        edge::alpha_grad(gs, hv.as_slice(), d, (src, dst), &mut da);
                        (*alpha, Cow::Owned(Matrix::col_vector(da)))
                    }),
                    wants(*h).then(|| {
                        let mut dh = Matrix::zeros(hv.rows(), d);
                        edge::aggregate(gs, d, av, (dst, src), dh.as_mut_slice());
                        (*h, Cow::Owned(dh))
                    }),
                ]
            }
            &Op::L2NormalizeRows(a, eps) => {
                let (x, y) = (value(a), &self.value);
                let mut da = Vec::with_capacity(g.len());
                for ((x, y), g_row) in x.rows_iter().zip(y.rows_iter()).zip(g.rows_iter()) {
                    let norm = x.iter().map(|&v| v * v).sum::<f32>().sqrt().max(eps);
                    let dot: f32 = y.iter().zip(g_row).map(|(&yv, &gv)| yv * gv).sum();
                    da.extend(g_row.iter().zip(y).map(|(&gv, &yv)| (gv - yv * dot) / norm));
                }
                vec![owned(a, Matrix::from_vec(g.rows(), g.cols(), da))]
            }
            &Op::RowDot(a, b) => vec![
                wants(a).then(|| (a, Cow::Owned(scale_rows(value(b), g.as_slice())))),
                wants(b).then(|| (b, Cow::Owned(scale_rows(value(a), g.as_slice())))),
            ],
            Op::PairDot(h, src, dst) => {
                // The chain's two `gather_rows` adjoints, the later gather's
                // (`dst`) first: `S_dst[dst_i] += h[src_i]·g_i`, then
                // `S_src[src_i] += h[dst_i]·g_i`.
                let (hv, gs) = (value(*h), g.as_slice());
                let share = |ends: edge::Ends<'_>| {
                    let mut s = Matrix::zeros(hv.rows(), hv.cols());
                    edge::aggregate(hv.as_slice(), hv.cols(), gs, ends, s.as_mut_slice());
                    Some((*h, Cow::Owned(s)))
                };
                vec![share((src, dst)), share((dst, src))]
            }
            &Op::SumAll(a) => {
                let (m, n) = value(a).shape();
                vec![owned(a, Matrix::full(m, n, g.get(0, 0)))]
            }
            &Op::MeanAll(a) => {
                let (m, n) = value(a).shape();
                let len = (m * n).max(1) as f32;
                vec![owned(a, Matrix::full(m, n, g.get(0, 0) / len))]
            }
            Op::BceWithLogits(a, targets) => {
                let x = value(*a);
                let scale = g.get(0, 0) / x.len() as f32;
                // The logistic in its stable form: `e^-x` or `e^x`, whichever
                // is at most 1, then one of two quotients.
                let mut z: Vec<f32> = (x.as_slice().iter())
                    .map(|&xi| if xi >= 0.0 { -xi } else { xi })
                    .collect();
                expf::exp_in_place(&mut z);
                for ((z, &xi), &ti) in z.iter_mut().zip(x.as_slice()).zip(targets.iter()) {
                    let sigmoid = if xi >= 0.0 {
                        1.0 / (1.0 + *z)
                    } else {
                        *z / (1.0 + *z)
                    };
                    *z = scale * (sigmoid - ti);
                }
                vec![owned(*a, Matrix::from_vec(x.rows(), x.cols(), z))]
            }
            Op::Dropout(a, mask) => {
                let data = (g.as_slice().iter().zip(mask.iter()))
                    .map(|(&gv, &mv)| gv * mv)
                    .collect();
                vec![owned(*a, Matrix::from_vec(g.rows(), g.cols(), data))]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_matmul_chain() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let w = g.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.5]));
        let y = g.matmul(x, w);
        let loss = g.sum_all(y);
        assert!((g.value(loss).get(0, 0) - (-0.5)).abs() < 1e-6);
        g.backward(loss);
        assert_eq!(g.grad(w).unwrap().as_slice(), &[1.0, 2.0]);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[0.5, -0.5]);
    }

    /// A multi-parent op: its name, its parents' shapes, and its builder.
    type Case = (&'static str, &'static [(usize, usize)], Build);
    type Build = fn(&mut Graph, &[Var]) -> Var;

    #[test]
    fn inputs_do_not_collect_grads() {
        // Three nodes, five edges, two edge types.
        const SRC: [u32; 5] = [0, 1, 2, 0, 2];
        const DST: [u32; 5] = [1, 1, 0, 2, 2];
        #[rustfmt::skip]
        let cases: [Case; 11] = [
            ("matmul", &[(3, 2), (2, 4)], |g, p| g.matmul(p[0], p[1])),
            ("add", &[(3, 2), (3, 2)], |g, p| g.add(p[0], p[1])),
            ("mul", &[(3, 2), (3, 2)], |g, p| g.mul(p[0], p[1])),
            ("add_row_broadcast", &[(3, 2), (1, 2)], |g, p| g.add_row_broadcast(p[0], p[1])),
            ("mul_col_broadcast", &[(3, 2), (3, 1)], |g, p| g.mul_col_broadcast(p[0], p[1])),
            ("concat_cols", &[(3, 2), (3, 1)], |g, p| g.concat_cols(p)),
            ("concat_rows", &[(2, 2), (1, 2)], |g, p| g.concat_rows(p)),
            ("row_dot", &[(3, 2), (3, 2)], |g, p| g.row_dot(p[0], p[1])),
            ("edge_softmax", &[(3, 1), (3, 1), (2, 1)], |g, p| {
                let (src, etype) = (Arc::new(SRC.to_vec()), Arc::new(vec![0, 1, 0, 1, 1]));
                let segs = Arc::new(Segments::new(DST.to_vec(), 3));
                g.edge_softmax(p[0], p[1], Some(p[2]), src, etype, segs, 0.2)
            }),
            ("edge_aggregate", &[(3, 8), (5, 1)], |g, p| {
                g.edge_aggregate(p[0], p[1], Arc::new(SRC.to_vec()), Arc::new(DST.to_vec()), 3)
            }),
            ("edge_aggregate, runtime width", &[(3, 3), (5, 1)], |g, p| {
                g.edge_aggregate(p[0], p[1], Arc::new(SRC.to_vec()), Arc::new(DST.to_vec()), 3)
            }),
        ];
        for (name, shapes, build) in cases {
            // Every parent's gradient bits under a `Σ out²` loss, with parent
            // `input` (if any) registered as a constant.
            let grads = |input: Option<usize>| {
                let mut g = Graph::new();
                let parents: Vec<Var> = (shapes.iter().enumerate())
                    .map(|(k, &(rows, cols))| {
                        let data = (0..rows * cols).map(|i| ((i * 7 + k) % 11) as f32 * 0.25 - 1.2);
                        let value = Matrix::from_vec(rows, cols, data.collect());
                        if Some(k) == input {
                            g.input(value)
                        } else {
                            g.leaf(value)
                        }
                    })
                    .collect();
                let out = build(&mut g, &parents);
                let sq = g.mul(out, out);
                let loss = g.sum_all(sq);
                g.backward(loss);
                let bits = |d: &Matrix| d.as_slice().iter().map(|x| x.to_bits()).collect();
                (parents.iter().map(|&p| g.grad(p).map(bits))).collect::<Vec<Option<Vec<u32>>>>()
            };
            let all_leaves = grads(None);
            for input in 0..shapes.len() {
                for (k, (got, want)) in grads(Some(input)).iter().zip(&all_leaves).enumerate() {
                    if k == input {
                        assert!(got.is_none(), "{name}: input {k} collected a gradient");
                    } else {
                        assert_eq!(got, want, "{name}: parent {k} with input {input}");
                    }
                }
            }
        }
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::col_vector(vec![1.0, 2.0, 3.0, -1.0, 0.0]));
        let segs = Arc::new(Segments::new(vec![0, 0, 1, 1, 1], 2));
        let y = g.segment_softmax(x, segs);
        let v = g.value(y).as_slice();
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
        assert!((v[2] + v[3] + v[4] - 1.0).abs() < 1e-6);
        assert!(v[2] > v[4] && v[4] > v[3]);
    }

    #[test]
    fn segment_softmax_with_empty_segment() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::col_vector(vec![1.0, 2.0]));
        // segment 1 is empty
        let segs = Arc::new(Segments::new(vec![0, 0], 3));
        let y = g.segment_softmax(x, segs);
        let v = g.value(y).as_slice();
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_produces_unit_rows() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 2.0]));
        let y = g.l2_normalize_rows(x, 1e-12);
        let v = g.value(y);
        assert!((v.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((v.row(0)[1] - 0.8).abs() < 1e-6);
        assert!((v.row(1)[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bce_matches_manual_value() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row_vector(vec![0.0, 2.0]));
        let t = Arc::new(vec![1.0, 0.0]);
        let loss = g.bce_with_logits(x, t);
        // -ln(sigmoid(0)) = ln 2; -ln(1 - sigmoid(2)) = ln(1+e^2)
        let expected = ((2.0f32).ln() + (1.0 + (2.0f32).exp()).ln()) / 2.0;
        assert!((g.value(loss).get(0, 0) - expected).abs() < 1e-5);
    }

    /// The BCE gradient is `(sigmoid(x) - t) / n`: with `t = 0` it reads the
    /// logistic back, at the middle and at both saturated ends.
    #[test]
    fn bce_gradient_is_the_logistic_at_extremes() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row_vector(vec![0.0, 100.0, -100.0]));
        let loss = g.bce_with_logits(x, Arc::new(vec![0.0; 3]));
        g.backward(loss);
        let sigmoid: Vec<f32> = (g.grad(x).unwrap().as_slice().iter())
            .map(|d| d * 3.0)
            .collect();
        assert!((sigmoid[0] - 0.5).abs() < 1e-6);
        assert!(sigmoid[1] > 0.999);
        assert!((0.0..0.001).contains(&sigmoid[2]));
    }

    #[test]
    fn concat_cols_backward_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let b = g.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.shape(c), (2, 3));
        let loss = g.sum_all(c);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_rows_backward_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = g.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let c = g.concat_rows(&[a, b]);
        assert_eq!(g.shape(c), (3, 2));
        assert_eq!(g.value(c).as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sq = g.mul(c, c);
        let loss = g.sum_all(sq);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[2.0, 4.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        g.backward(x);
    }
}
