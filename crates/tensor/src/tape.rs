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
//! `mul_col_broadcast`: their test oracle; DESIGN §8 "Edge kernels"), and
//! row-wise L2 normalisation (the Simple-HGN output head).

use crate::matrix::Matrix;
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

/// Three-pass segment softmax, in place: per-segment max, `exp(x - max)`
/// summed in row order, then the division (skipped where the sum is not
/// positive). Shared by `segment_softmax` and `edge_softmax`.
fn softmax_in_place(x: &mut [f32], segs: &Segments) {
    let mut maxes = vec![f32::NEG_INFINITY; segs.n_segments];
    for (&v, &s) in x.iter().zip(&segs.seg_of_row) {
        if v > maxes[s as usize] {
            maxes[s as usize] = v;
        }
    }
    let mut sums = vec![0.0f32; segs.n_segments];
    for (v, &s) in x.iter_mut().zip(&segs.seg_of_row) {
        *v = (*v - maxes[s as usize]).exp();
        sums[s as usize] += *v;
    }
    for (v, &s) in x.iter_mut().zip(&segs.seg_of_row) {
        if sums[s as usize] > 0.0 {
            *v /= sums[s as usize];
        }
    }
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

    /// ELU: `x` for `x > 0`, `alpha * (e^x - 1)` otherwise.
    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        let mut value = self.value(a).clone();
        for x in value.as_mut_slice() {
            if *x < 0.0 {
                *x = alpha * (x.exp() - 1.0);
            }
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
        let mut value = Matrix::zeros(out_rows, hv.cols());
        for ((&s, &t), &a) in src.iter().zip(dst.iter()).zip(av.as_slice()) {
            assert!(
                (s as usize) < hv.rows() && (t as usize) < out_rows,
                "edge_aggregate: edge {s}->{t} out of range"
            );
            let out = value.row_mut(t as usize).iter_mut();
            for (o, &x) in out.zip(hv.row(s as usize)) {
                *o += x * a;
            }
        }
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
        let (m, _) = self.shape(a);
        let mut value = Matrix::zeros(m, 1);
        for r in 0..m {
            let dot = self.nodes[a.0]
                .value
                .row(r)
                .iter()
                .zip(self.nodes[b.0].value.row(r))
                .map(|(&x, &y)| x * y)
                .sum();
            value.set(r, 0, dot);
        }
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::RowDot(a, b), rg)
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
        let mut loss = 0.0f64;
        for (&xi, &ti) in x.iter().zip(targets.iter()) {
            let term = xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
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
    /// # Panics
    /// Panics if `loss` is not `1x1` or does not require grad.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be scalar");
        assert!(self.requires(loss), "backward: loss does not require grad");
        self.nodes[loss.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].requires_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            self.backprop_node(i);
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "caller checks grad.is_none() before visiting; a missing grad here is tape-internal corruption"
    )]
    fn take_grad(&mut self, i: usize) -> Matrix {
        // The node's grad is complete by the time we visit it (children have
        // higher indices and were processed first); move it out to satisfy
        // the borrow checker while we mutate parents.
        self.nodes[i].grad.take().expect("grad missing")
    }

    fn put_grad(&mut self, i: usize, g: Matrix) {
        self.nodes[i].grad = Some(g);
    }

    fn accum(&mut self, v: Var, delta: &Matrix) {
        if !self.requires(v) {
            return;
        }
        let node = &mut self.nodes[v.0];
        match node.grad.as_mut() {
            Some(g) => g.add_assign(delta),
            None => node.grad = Some(delta.clone()),
        }
    }

    fn accum_owned(&mut self, v: Var, delta: Matrix) {
        if !self.requires(v) {
            return;
        }
        let node = &mut self.nodes[v.0];
        match node.grad.as_mut() {
            Some(g) => g.add_assign(&delta),
            None => node.grad = Some(delta),
        }
    }

    fn backprop_node(&mut self, i: usize) {
        let g = self.take_grad(i);
        // Dispatch on a cheap copy of the op metadata (Rc clones are cheap).
        enum Todo {
            None,
            One(Var, Matrix),
        }
        let todo = match &self.nodes[i].op {
            Op::Leaf => Todo::None,
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let da = if self.requires(a) {
                    Some(g.matmul_nt(&self.nodes[b.0].value))
                } else {
                    None
                };
                let db = if self.requires(b) {
                    Some(self.nodes[a.0].value.matmul_tn(&g))
                } else {
                    None
                };
                self.put_grad(i, g);
                if let Some(da) = da {
                    self.accum_owned(a, da);
                }
                if let Some(db) = db {
                    self.accum_owned(b, db);
                }
                return;
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(a, &g);
                self.accum(b, &g);
                self.put_grad(i, g);
                return;
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = if self.requires(a) {
                    Some(g.mul(&self.nodes[b.0].value))
                } else {
                    None
                };
                let db = if self.requires(b) {
                    Some(g.mul(&self.nodes[a.0].value))
                } else {
                    None
                };
                self.put_grad(i, g);
                if let Some(da) = da {
                    self.accum_owned(a, da);
                }
                if let Some(db) = db {
                    self.accum_owned(b, db);
                }
                return;
            }
            Op::AddRowBroadcast(a, bias) => {
                let (a, bias) = (*a, *bias);
                let db = if self.requires(bias) {
                    let (m, n) = g.shape();
                    let mut col = Matrix::zeros(1, n);
                    for r in 0..m {
                        for (o, &v) in col.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    Some(col)
                } else {
                    None
                };
                self.accum(a, &g);
                if let Some(db) = db {
                    self.accum_owned(bias, db);
                }
                self.put_grad(i, g);
                return;
            }
            Op::MulColBroadcast(a, c) => {
                let (a, c) = (*a, *c);
                let da = self
                    .requires(a)
                    .then(|| scale_rows(&g, self.value(c).as_slice()));
                let dc = self.requires(c).then(|| {
                    let row_dot = |(g_row, a_row): (&[f32], &[f32])| -> f32 {
                        g_row.iter().zip(a_row).map(|(&gv, &av)| gv * av).sum()
                    };
                    let rows = g.rows_iter().zip(self.value(a).rows_iter());
                    Matrix::col_vector(rows.map(row_dot).collect())
                });
                self.put_grad(i, g);
                if let Some(da) = da {
                    self.accum_owned(a, da);
                }
                if let Some(dc) = dc {
                    self.accum_owned(c, dc);
                }
                return;
            }
            Op::Scale(a, s) => Todo::One(*a, g.scale(*s)),
            Op::LeakyRelu(a, slope) => {
                let a = *a;
                let slope = *slope;
                let mut da = g.clone();
                for (x, &inp) in da
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.nodes[a.0].value.as_slice())
                {
                    if inp < 0.0 {
                        *x *= slope;
                    }
                }
                Todo::One(a, da)
            }
            Op::Elu(a, alpha) => {
                let a = *a;
                let alpha = *alpha;
                let mut da = g.clone();
                let out = self.nodes[i].value.as_slice();
                for ((x, &inp), &y) in da
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.nodes[a.0].value.as_slice())
                    .zip(out)
                {
                    if inp < 0.0 {
                        *x *= y + alpha; // d/dx alpha(e^x - 1) = alpha e^x = y + alpha
                    }
                }
                Todo::One(a, da)
            }
            Op::ConcatCols(vars) => {
                let vars = vars.clone();
                let m = g.rows();
                let mut off = 0;
                let mut parts = Vec::with_capacity(vars.len());
                for &v in &vars {
                    let (_, vc) = self.shape(v);
                    let mut part = Matrix::zeros(m, vc);
                    for r in 0..m {
                        part.row_mut(r).copy_from_slice(&g.row(r)[off..off + vc]);
                    }
                    parts.push((v, part));
                    off += vc;
                }
                self.put_grad(i, g);
                for (v, part) in parts {
                    self.accum_owned(v, part);
                }
                return;
            }
            Op::ConcatRows(vars) => {
                let vars = vars.clone();
                let mut off = 0;
                let mut parts = Vec::with_capacity(vars.len());
                for &v in &vars {
                    let (vr, vc) = self.shape(v);
                    let mut part = Matrix::zeros(vr, vc);
                    for r in 0..vr {
                        part.row_mut(r).copy_from_slice(g.row(off + r));
                    }
                    parts.push((v, part));
                    off += vr;
                }
                self.put_grad(i, g);
                for (v, part) in parts {
                    self.accum_owned(v, part);
                }
                return;
            }
            Op::GatherRows(a, idx) => {
                let a = *a;
                let idx = idx.clone();
                let rows = self.shape(a).0;
                Todo::One(a, g.scatter_add_rows(&idx, rows))
            }
            Op::ScatterAddRows(a, idx) => {
                let a = *a;
                let idx = idx.clone();
                Todo::One(a, g.gather_rows(&idx))
            }
            Op::EdgeSoftmax(s_src, s_dst, per_type, src, etype, segs, slope) => {
                let (s_src, s_dst, per_type, slope) = (*s_src, *s_dst, *per_type, *slope);
                let (src, etype, segs) = (src.clone(), etype.clone(), segs.clone());
                let dst = &segs.seg_of_row;
                let x = edge_scores(
                    self.value(s_src).as_slice(),
                    self.value(s_dst).as_slice(),
                    per_type.map(|p| self.value(p).as_slice()),
                    (&src, dst, &etype),
                );
                let y = self.nodes[i].value.as_slice();
                let gv = g.as_slice();
                let mut seg_dot = vec![0.0f32; segs.n_segments];
                for (r, &s) in dst.iter().enumerate() {
                    seg_dot[s as usize] += gv[r] * y[r];
                }
                // Softmax then LeakyReLU Jacobian per edge; the three
                // scatter-adds are the chain's three `gather_rows` adjoints.
                let mut d_src = Matrix::zeros(self.shape(s_src).0, 1);
                let mut d_dst = Matrix::zeros(self.shape(s_dst).0, 1);
                let mut d_type = per_type.map(|p| Matrix::zeros(self.shape(p).0, 1));
                for (r, &s) in dst.iter().enumerate() {
                    let mut dx = y[r] * (gv[r] - seg_dot[s as usize]);
                    if x[r] < 0.0 {
                        dx *= slope;
                    }
                    d_src.as_mut_slice()[src[r] as usize] += dx;
                    d_dst.as_mut_slice()[s as usize] += dx;
                    if let Some(d_type) = d_type.as_mut() {
                        d_type.as_mut_slice()[etype[r] as usize] += dx;
                    }
                }
                self.put_grad(i, g);
                if let (Some(p), Some(d_type)) = (per_type, d_type) {
                    self.accum_owned(p, d_type);
                }
                self.accum_owned(s_dst, d_dst);
                self.accum_owned(s_src, d_src);
                return;
            }
            Op::EdgeAggregate(h, alpha, src, dst) => {
                let (h, alpha, src, dst) = (*h, *alpha, src.clone(), dst.clone());
                let (hv, av) = (self.value(h), self.value(alpha).as_slice());
                let mut dh = self
                    .requires(h)
                    .then(|| Matrix::zeros(hv.rows(), hv.cols()));
                let mut da: Option<Vec<f32>> =
                    self.requires(alpha).then(|| Vec::with_capacity(av.len()));
                for ((&s, &t), &a) in src.iter().zip(dst.iter()).zip(av) {
                    let (g_row, h_row) = (g.row(t as usize), hv.row(s as usize));
                    if let Some(da) = da.as_mut() {
                        da.push(g_row.iter().zip(h_row).map(|(&gv, &x)| gv * x).sum());
                    }
                    if let Some(dh) = dh.as_mut() {
                        for (o, &gv) in dh.row_mut(s as usize).iter_mut().zip(g_row) {
                            *o += gv * a;
                        }
                    }
                }
                self.put_grad(i, g);
                if let Some(da) = da {
                    self.accum_owned(alpha, Matrix::col_vector(da));
                }
                if let Some(dh) = dh {
                    self.accum_owned(h, dh);
                }
                return;
            }
            Op::SegmentSoftmax(a, segs) => {
                let a = *a;
                let segs = segs.clone();
                let y = self.nodes[i].value.as_slice();
                let gv = g.as_slice();
                let mut seg_dot = vec![0.0f32; segs.n_segments];
                for (r, &s) in segs.seg_of_row.iter().enumerate() {
                    seg_dot[s as usize] += gv[r] * y[r];
                }
                let mut da = Matrix::zeros(y.len(), 1);
                for (r, &s) in segs.seg_of_row.iter().enumerate() {
                    da.as_mut_slice()[r] = y[r] * (gv[r] - seg_dot[s as usize]);
                }
                Todo::One(a, da)
            }
            Op::L2NormalizeRows(a, eps) => {
                let a = *a;
                let eps = *eps;
                let (m, n) = g.shape();
                let mut da = Matrix::zeros(m, n);
                for r in 0..m {
                    let x = self.nodes[a.0].value.row(r);
                    let y = self.nodes[i].value.row(r);
                    let norm = x.iter().map(|&v| v * v).sum::<f32>().sqrt().max(eps);
                    let dot: f32 = y.iter().zip(g.row(r)).map(|(&yv, &gv)| yv * gv).sum();
                    for ((o, &gv), &yv) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(y) {
                        *o = (gv - yv * dot) / norm;
                    }
                }
                Todo::One(a, da)
            }
            Op::RowDot(a, b) => {
                let (a, b) = (*a, *b);
                let (m, n) = self.shape(a);
                let da = if self.requires(a) {
                    let mut da = Matrix::zeros(m, n);
                    for r in 0..m {
                        let gr = g.get(r, 0);
                        for (o, &bv) in da.row_mut(r).iter_mut().zip(self.nodes[b.0].value.row(r)) {
                            *o = gr * bv;
                        }
                    }
                    Some(da)
                } else {
                    None
                };
                let db = if self.requires(b) {
                    let mut db = Matrix::zeros(m, n);
                    for r in 0..m {
                        let gr = g.get(r, 0);
                        for (o, &av) in db.row_mut(r).iter_mut().zip(self.nodes[a.0].value.row(r)) {
                            *o = gr * av;
                        }
                    }
                    Some(db)
                } else {
                    None
                };
                self.put_grad(i, g);
                if let Some(da) = da {
                    self.accum_owned(a, da);
                }
                if let Some(db) = db {
                    self.accum_owned(b, db);
                }
                return;
            }
            Op::SumAll(a) => {
                let a = *a;
                let (m, n) = self.shape(a);
                Todo::One(a, Matrix::full(m, n, g.get(0, 0)))
            }
            Op::MeanAll(a) => {
                let a = *a;
                let (m, n) = self.shape(a);
                let len = (m * n).max(1) as f32;
                Todo::One(a, Matrix::full(m, n, g.get(0, 0) / len))
            }
            Op::BceWithLogits(a, targets) => {
                let a = *a;
                let targets = targets.clone();
                let x = self.nodes[a.0].value.as_slice();
                let scale = g.get(0, 0) / x.len() as f32;
                let data = x
                    .iter()
                    .zip(targets.iter())
                    .map(|(&xi, &ti)| scale * (sigmoid_scalar(xi) - ti))
                    .collect();
                let (m, n) = self.shape(a);
                Todo::One(a, Matrix::from_vec(m, n, data))
            }
            Op::Dropout(a, mask) => {
                let a = *a;
                let mask = mask.clone();
                let data = g
                    .as_slice()
                    .iter()
                    .zip(mask.iter())
                    .map(|(&gv, &mv)| gv * mv)
                    .collect();
                let (m, n) = g.shape();
                Todo::One(a, Matrix::from_vec(m, n, data))
            }
        };
        self.put_grad(i, g);
        match todo {
            Todo::None => {}
            Todo::One(v, d) => self.accum_owned(v, d),
        }
    }
}

/// Numerically-stable scalar sigmoid.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_scalar_extremes() {
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid_scalar(100.0) > 0.999);
        assert!(sigmoid_scalar(-100.0) < 0.001);
        assert!(sigmoid_scalar(-100.0) >= 0.0);
    }

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

    #[test]
    fn inputs_do_not_collect_grads() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let w = g.leaf(Matrix::from_vec(2, 1, vec![1.0, 1.0]));
        let y = g.matmul(x, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(x).is_none());
        assert!(g.grad(w).is_some());
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
