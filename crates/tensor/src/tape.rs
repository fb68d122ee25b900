//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a define-by-run tape: every operation evaluates eagerly
//! and records an [`Op`] describing how to push gradients back to its
//! parents. Calling [`Graph::backward`] on a scalar node walks the tape in
//! reverse and accumulates gradients into every node that requires them.
//!
//! The op set is deliberately specialised for heterogeneous-graph neural
//! networks: besides dense algebra it has the fused per-edge attention
//! weight `edge_softmax` (Eq. 2 scores → LeakyReLU → per-destination
//! softmax), which replays an unfused chain bit for bit (`gather_rows`,
//! `leaky_relu`, `segment_softmax`; the ops only such chains use are the
//! test-only `reference` module; DESIGN §8 "Edge kernels"), row-wise L2
//! normalisation (the Simple-HGN output head), the fused dot-product
//! decoder `pair_dot`, which replays `gather_rows`×2 → `row_dot`, and the
//! encoder's two stage ops (DESIGN §8 "Stage ops"): `project_rows`, the
//! per-type input projection (`matmul` → `add_row_broadcast` →
//! `scatter_add_rows` per type, `add` across types), and
//! `aggregate_residual_elu`, a whole attention layer after its weights
//! (`edge_aggregate` per head, `matmul` for the residual, then
//! `concat_cols` → `add` → `elu`).
//!
//! `aggregate_residual_elu`'s per-head aggregation and both of its edge
//! gradients, and `pair_dot`'s forward and gradient, run the width-generic
//! row kernel in `edge.rs`, with compile-time instances for 8-, 16- and
//! 32-wide rows and a runtime-width one for the rest; the fused ops
//! range-check their indices in one pass before their loops.
//!
//! Every exponential — ELU, both softmaxes, BCE and its logistic — runs
//! `expf.rs`, a bit-exact copy of glibc's `expf` whose slice form
//! vectorises (DESIGN §8 "One `expf`"), so each op takes `exp` over a whole
//! slice first and then selects; the results are `f32::exp`'s, bit for bit.
//!
//! # Tape memory
//!
//! A node owns no buffer. Its value is a range of the tape's value arena,
//! bump-allocated in tape order, and its gradient, once `backward` reaches
//! it, a range of the gradient arena, placed where no gradient that is live
//! at the same time lies. [`Graph::clear`] forgets every node without
//! giving memory back, so a tape reused across steps stops growing once it
//! has held its largest step (DESIGN §8 "Tape memory"). Every op writes its value straight into
//! its own range, and every temporary — softmax maxima and sums, BCE's
//! exponentials, the `gemm_nt` operand's transpose, a later gradient share
//! — goes into one scratch range the tape keeps beside its arenas.
//!
//! A tape cleared with [`Graph::clear_for_inference`] is forward-only:
//! `backward` refuses it, and [`Graph::retain`] drops every value but the
//! ones named and compacts the arena, so a deep forward pass holds one
//! layer's values at a time.
//!
//! `backward` writes each parent's gradient in place. A parent's first
//! share is *stored* into its range — not added to a `+0.0`, which would
//! turn a `-0.0` share into `+0.0` — and every later share is added in the
//! order the shares were always added in: an element-wise share (GEMM,
//! the pass-throughs) in its kernel's final store, a scatter share
//! (`aggregate_residual_elu`'s edge gradients, `gather_rows`, `pair_dot`,
//! `edge_softmax`'s index sums) by building it in the scratch range first.

use crate::edge;
use crate::expf;
use crate::gemm;
use crate::matrix::{Matrix, MatrixRef};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it, until its next [`Graph::clear`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Segment descriptor for [`Graph::segment_softmax`]: row `i` of the input
/// belongs to segment `seg_of_row[i]`, and there are `n_segments` segments.
/// Rows of a segment do not need to be contiguous.
#[derive(Clone, Debug)]
pub struct Segments {
    /// Segment id of each row.
    pub(crate) seg_of_row: Vec<u32>,
    /// Total number of segments (ids must be `< n_segments`).
    pub(crate) n_segments: usize,
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
    Scale(Var, f32),
    ConcatRows(Vec<Var>),
    GatherRows(Var, Arc<Vec<u32>>),
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
    L2NormalizeRows(Var, f32),
    RowDot(Var, Var),
    /// Fused gather ×2 · row dot over one matrix: `(h, src, dst)`.
    PairDot(Var, Arc<Vec<u32>>, Arc<Vec<u32>>),
    /// Fused per-part `x·W + b` placed at the part's rows: one
    /// `(x, w, b, rows)` per part.
    ProjectRows(Vec<Projection>),
    /// Fused `elu(concat_h(Σ_e α_h[e]·hw_h[src_e] → dst_e) + h·W_res)`.
    AggregateResidualElu(Box<Epilogue>),
    SumAll(Var),
    BceWithLogits(Var, Arc<Vec<f32>>),
    /// An unfused op of the fused ops' test oracle.
    #[cfg(test)]
    Reference(reference::Reference),
}

/// The parents and edges of an [`Op::AggregateResidualElu`].
struct Epilogue {
    /// Each head's `(hw, alpha)`.
    heads: Vec<(Var, Var)>,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    h: Var,
    w_res: Var,
}

/// One part of [`Graph::project_rows`]: features `x` (`[n, f]`), weight `w`
/// (`[f, d]`), bias `b` (`[1, d]`), and the output row of each of `x`'s `n`
/// rows.
pub type Projection = (Var, Var, Var, Arc<Vec<u32>>);

struct Node {
    rows: usize,
    cols: usize,
    /// Start of the value's range in the value arena.
    value: usize,
    /// Start of the gradient's range in the gradient arena, once `backward`
    /// has placed one ([`UNPLACED`] before).
    grad: usize,
    /// Whether `backward` has written the gradient range.
    has_grad: bool,
    op: Op,
    requires_grad: bool,
}

impl Node {
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    fn value_range(&self) -> Range<usize> {
        assert!(
            self.value != DROPPED,
            "a value dropped by `Graph::retain` was read"
        );
        self.value..self.value + self.len()
    }

    fn grad_range(&self) -> Range<usize> {
        self.grad..self.grad + self.len()
    }
}

/// [`Node::grad`] of a node `backward` has not given a gradient range.
const UNPLACED: usize = usize::MAX;

/// [`Node::value`] of a node whose value [`Graph::retain`] dropped.
const DROPPED: usize = usize::MAX;

/// A define-by-run autodiff tape.
///
/// Typical usage: parameters enter as leaves bound to their
/// [`crate::ParamSet`] units, and their gradients come back there.
/// ```
/// use fedda_tensor::{Graph, Matrix, ParamSet, TapeBindings};
/// let mut params = ParamSet::new();
/// let w_id = params.add("w", Matrix::from_vec(2, 1, vec![0.5, -0.5]));
/// let (mut g, mut bindings) = (Graph::new(), TapeBindings::new());
/// let x = g.input(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
/// let w = bindings.leaf(&mut g, &params, w_id);
/// let y = g.matmul(x, w);
/// let loss = g.sum_all(y);
/// g.backward(loss);
/// params.zero_grads();
/// bindings.accumulate_grads(&g, &mut params);
/// assert_eq!(params.take_grads(), vec![1.0, 2.0]);
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Every node's value, back to back in tape order.
    values: Vec<f32>,
    /// The gradient ranges `backward` places, each live from its node's
    /// first share until the node has passed its gradient on.
    grads: Vec<f32>,
    /// The live gradient ranges, `(start, len, node)` by start.
    live: Vec<(usize, usize, usize)>,
    /// Every op's temporaries, one op at a time.
    scratch: Vec<f32>,
    /// Cleared for inference: no `backward`, and `retain` compacts.
    forward_only: bool,
}

/// The rows of a row-major `rows × cols` buffer: `rows` of them even when
/// `cols == 0`, where `chunks_exact` would yield none.
fn rows_of(s: &[f32], rows: usize, cols: usize) -> impl Iterator<Item = &[f32]> {
    (0..rows).map(move |r| &s[r * cols..(r + 1) * cols])
}

/// A gradient share into its destination: stored over a first share's
/// range, added to a range that already holds one.
fn write(dst: &mut [f32], add: bool, share: impl Iterator<Item = f32>) {
    if add {
        for (d, s) in dst.iter_mut().zip(share) {
            *d += s;
        }
    } else {
        for (d, s) in dst.iter_mut().zip(share) {
            *d = s;
        }
    }
}

/// The first `len` floats of `buffer`, which grows to hold them. What they
/// held before is stale: callers initialise what they read.
fn scratch(buffer: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buffer.len() < len {
        buffer.resize(len, 0.0);
    }
    &mut buffer[..len]
}

/// Per-segment `Σ g·y` in row order, into `dot`: the softmax Jacobian's
/// shared term in `segment_softmax`'s and `edge_softmax`'s backward.
fn segment_dot(g: &[f32], y: &[f32], segs: &Segments, dot: &mut [f32]) {
    dot.fill(0.0);
    for ((&g, &y), &s) in g.iter().zip(y).zip(&segs.seg_of_row) {
        dot[s as usize] += g * y;
    }
}

/// Segment softmax, in place: per-segment max, `exp(x - max)` over the
/// whole slice, the sums in row order, then the division (skipped where the
/// sum is not positive). `acc` (one float per segment) holds the maxima,
/// then the sums. Shared by `segment_softmax` and `edge_softmax`.
fn softmax_in_place(x: &mut [f32], segs: &Segments, acc: &mut [f32]) {
    acc.fill(f32::NEG_INFINITY);
    for (&v, &s) in x.iter().zip(&segs.seg_of_row) {
        // A select, not `f32::max`: the first-seen NaN or zero sign wins,
        // as in a branch.
        let m = &mut acc[s as usize];
        *m = if v > *m { v } else { *m };
    }
    for (v, &s) in x.iter_mut().zip(&segs.seg_of_row) {
        *v -= acc[s as usize];
    }
    expf::exp_in_place(x);
    acc.fill(0.0);
    for (&v, &s) in x.iter().zip(&segs.seg_of_row) {
        acc[s as usize] += v;
    }
    for (v, &s) in x.iter_mut().zip(&segs.seg_of_row) {
        if acc[s as usize] > 0.0 {
            *v /= acc[s as usize];
        }
    }
}

/// Whether every index is below `n`: the fused edge ops' range check, one
/// vectorised max before the edge loop. Only when it fails does an op walk
/// its edges to name the first bad one.
fn all_below(idx: &[u32], n: usize) -> bool {
    idx.iter().max().map_or(true, |&m| (m as usize) < n)
}

/// Pre-activation score of every edge into `x`, `(s_src[src_e] +
/// s_dst[dst_e]) (+ per_type[etype_e])`: `edge_softmax`'s input, and the
/// sign its backward needs for the LeakyReLU Jacobian.
fn edge_scores(
    s_src: &[f32],
    s_dst: &[f32],
    per_type: Option<&[f32]>,
    (src, dst, etype): (&[u32], &[u32], &[u32]),
    x: &mut [f32],
) {
    for ((x, &s), &d) in x.iter_mut().zip(src).zip(dst) {
        *x = s_src[s as usize] + s_dst[d as usize];
    }
    if let Some(p) = per_type {
        for (x, &t) in x.iter_mut().zip(etype) {
            *x += p[t as usize];
        }
    }
}

/// Rows of a part that `project_rows`' forward multiplies at a time: its
/// scratch is `64 · d` floats, not a whole part's `x·W`. An evaluation
/// records no backward, so a whole part of the evaluation graph was the
/// largest scratch worker slot 0 ever held, and `dblp_fedda`'s peak RSS
/// read 0.7 MB higher with it (DESIGN §8 "Stage ops"). Each output row is
/// one dot-product chain, so the chunking moves no bit.
const PROJECT_CHUNK: usize = 64;

/// Floats of `aggregate_residual_elu`'s ELU scratch: the pre-activation's
/// exponentials are taken this many at a time, not over an `[n, H·d]` copy.
const ELU_BLOCK: usize = 1024;

/// ELU over `y` in place: `elu`'s exponential over a copy, then its select
/// (`x` itself where it is not negative, NaN payloads included),
/// [`ELU_BLOCK`] floats at a time through `e`. `expf` is elementwise, so
/// the blocking moves no bit.
fn elu_in_blocks(y: &mut [f32], alpha: f32, e: &mut [f32]) {
    for block in y.chunks_mut(ELU_BLOCK) {
        let e = &mut e[..block.len()];
        e.copy_from_slice(block);
        expf::exp_in_place(e);
        for (y, &e) in block.iter_mut().zip(&*e) {
            if *y < 0.0 {
                *y = alpha * (e - 1.0);
            }
        }
    }
}

/// The values recorded so far, read while a new node's range is written.
#[derive(Clone, Copy)]
struct Values<'a> {
    nodes: &'a [Node],
    arena: &'a [f32],
}

impl<'a> Values<'a> {
    fn of(self, v: Var) -> &'a [f32] {
        &self.arena[self.nodes[v.0].value_range()]
    }
}

impl Graph {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty tape with node capacity reserved up front.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been recorded. Public beside `len`, as
    /// clippy's `len_without_is_empty` asks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forget every node, keeping both arenas' memory: the next step
    /// records into the same ranges, and a tape that has held its largest
    /// step allocates nothing more. Every [`Var`] of the tape is invalid
    /// afterwards. The tape records for training: `backward` may run and
    /// [`Graph::retain`] keeps everything.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.values.clear();
        self.live.clear();
        self.forward_only = false;
    }

    /// [`Graph::clear`] for a forward pass alone: until the next `clear`,
    /// [`Graph::backward`] panics and [`Graph::retain`] drops values.
    /// Only the tape's owner knows that no backward will follow, so this
    /// state is set here and never inferred.
    pub fn clear_for_inference(&mut self) {
        self.clear();
        self.forward_only = true;
    }

    /// On a tape cleared for inference, drop the value of every node
    /// recorded so far except `keep`'s and move the kept values to the
    /// front of the arena, in tape order: what is recorded next reuses the
    /// memory. A dropped node's value must not be read again (reading it
    /// panics); a kept one reads the same bits. On a training tape, where
    /// `backward` reads values from anywhere on the tape, this does nothing.
    pub fn retain(&mut self, keep: &[Var]) {
        if !self.forward_only {
            return;
        }
        let mut kept: Vec<usize> = keep.iter().map(|v| v.0).collect();
        kept.sort_unstable_by_key(|&i| (self.nodes[i].value, i));
        kept.dedup();
        let mut end = 0;
        for &i in &kept {
            let range = self.nodes[i].value_range();
            let len = range.len();
            self.values.copy_within(range, end);
            self.nodes[i].value = end;
            end += len;
        }
        self.values.truncate(end);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !kept.contains(&i) {
                node.value = DROPPED;
            }
        }
    }

    fn push(&mut self, (rows, cols): (usize, usize), value: usize, op: Op, rg: bool) -> Var {
        self.nodes.push(Node {
            rows,
            cols,
            value,
            grad: UNPLACED,
            has_grad: false,
            op,
            requires_grad: rg,
        });
        Var(self.nodes.len() - 1)
    }

    /// Append a `shape` node whose value range starts as a copy of `init`'s
    /// value (same length) or as zeros; `fill` completes it from the values
    /// recorded before it, with `scratch_len` floats of scratch.
    fn record(
        &mut self,
        (rows, cols): (usize, usize),
        init: Option<Var>,
        scratch_len: usize,
        (op, rg): (Op, bool),
        fill: impl FnOnce(Values<'_>, &mut [f32], &mut [f32]),
    ) -> Var {
        let start = self.values.len();
        match init {
            Some(a) => {
                let range = self.nodes[a.0].value_range();
                debug_assert_eq!(range.len(), rows * cols);
                self.values.extend_from_within(range);
            }
            None => self.values.resize(start + rows * cols, 0.0),
        }
        let (before, out) = self.values.split_at_mut(start);
        let scratch = scratch(&mut self.scratch, scratch_len);
        let values = Values {
            nodes: &self.nodes,
            arena: before,
        };
        fill(values, out, scratch);
        self.push((rows, cols), start, op, rg)
    }

    /// A leaf holding a copy of `data`, `rows × cols` row-major.
    pub(crate) fn leaf_from(&mut self, shape: (usize, usize), data: &[f32], rg: bool) -> Var {
        assert_eq!(data.len(), shape.0 * shape.1, "leaf: length mismatch");
        let start = self.values.len();
        self.values.extend_from_slice(data);
        self.push(shape, start, Op::Leaf, rg)
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Register a differentiable leaf (a parameter copy).
    pub fn leaf(&mut self, value: impl Borrow<Matrix>) -> Var {
        let value = value.borrow();
        self.leaf_from(value.shape(), value.as_slice(), true)
    }

    /// Register a constant input (no gradient tracked).
    pub fn input(&mut self, value: impl Borrow<Matrix>) -> Var {
        let value = value.borrow();
        self.leaf_from(value.shape(), value.as_slice(), false)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> MatrixRef<'_> {
        let node = &self.nodes[v.0];
        MatrixRef::new(node.rows, node.cols, &self.values[node.value_range()])
    }

    /// Gradient of a leaf, if backward has reached it. An interior node's
    /// gradient is spent once passed on to its parents: its range is reused
    /// within the same `backward`, and this is `None`.
    pub(crate) fn grad(&self, v: Var) -> Option<MatrixRef<'_>> {
        let node = &self.nodes[v.0];
        (node.has_grad)
            .then(|| MatrixRef::new(node.rows, node.cols, &self.grads[node.grad_range()]))
    }

    /// Shape of a node's value.
    pub(crate) fn shape(&self, v: Var) -> (usize, usize) {
        let node = &self.nodes[v.0];
        (node.rows, node.cols)
    }

    // ---- dense algebra ----------------------------------------------------

    /// Matrix product `a @ b`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ((m, k), (kb, n)) = (self.shape(a), self.shape(b));
        assert_eq!(k, kb, "matmul: {m}x{k} @ {kb}x{n}");
        let rg = self.requires(a) || self.requires(b);
        self.record((m, n), None, 0, (Op::MatMul(a, b), rg), |v, out, _| {
            gemm::nn_into(v.of(a), v.of(b), (m, k, n), out, false);
        })
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape, self.shape(b), "add: shape mismatch");
        let rg = self.requires(a) || self.requires(b);
        self.record(shape, Some(a), 0, (Op::Add(a, b), rg), |v, out, _| {
            for (x, &y) in out.iter_mut().zip(v.of(b)) {
                *x += y;
            }
        })
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape, self.shape(b), "mul: shape mismatch");
        let rg = self.requires(a) || self.requires(b);
        self.record(shape, Some(a), 0, (Op::Mul(a, b), rg), |v, out, _| {
            for (x, &y) in out.iter_mut().zip(v.of(b)) {
                *x *= y;
            }
        })
    }

    /// `[m,n] + [1,n]`: add a bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let shape @ (_, n) = self.shape(a);
        let (br, bc) = self.shape(bias);
        assert_eq!(
            (br, bc),
            (1, n),
            "add_row_broadcast: bias must be 1x{n}, got {br}x{bc}"
        );
        let rg = self.requires(a) || self.requires(bias);
        let op = Op::AddRowBroadcast(a, bias);
        self.record(shape, Some(a), 0, (op, rg), |v, out, _| {
            for row in out.chunks_exact_mut(n.max(1)) {
                for (x, &b) in row.iter_mut().zip(v.of(bias)) {
                    *x += b;
                }
            }
        })
    }

    /// Multiply by a compile-time constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let rg = self.requires(a);
        self.record(
            self.shape(a),
            Some(a),
            0,
            (Op::Scale(a, s), rg),
            |_, out, _| {
                for x in out {
                    *x *= s;
                }
            },
        )
    }

    // ---- structure ops -----------------------------------------------------

    /// Concatenate along rows (vertical stack): all inputs must share the
    /// column count. Used to assemble per-edge-type embedding matrices from
    /// individually-masked parameter units.
    pub fn concat_rows(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_rows: no inputs");
        let n = self.shape(vars[0]).1;
        for &v in vars {
            assert_eq!(self.shape(v).1, n, "concat_rows: column mismatch");
        }
        let total: usize = vars.iter().map(|&v| self.shape(v).0).sum();
        let rg = vars.iter().any(|&v| self.requires(v));
        let op = Op::ConcatRows(vars.to_vec());
        self.record((total, n), None, 0, (op, rg), |v, out, _| {
            let mut off = 0;
            for &var in vars {
                let src = v.of(var);
                out[off..off + src.len()].copy_from_slice(src);
                off += src.len();
            }
        })
    }

    /// Gather rows: `out[i] = a[idx[i]]`.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<u32>>) -> Var {
        let (rows, c) = self.shape(a);
        let rg = self.requires(a);
        let ids = Arc::clone(&idx);
        self.record(
            (idx.len(), c),
            None,
            0,
            (Op::GatherRows(a, ids), rg),
            |v, out, _| {
                let x = v.of(a);
                for (i, &j) in idx.iter().enumerate() {
                    let j = j as usize;
                    assert!(j < rows, "gather_rows: index {j} out of {rows} rows");
                    out[i * c..][..c].copy_from_slice(&x[j * c..][..c]);
                }
            },
        )
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
        let rg = self.requires(a);
        let k = segs.n_segments;
        let op = Op::SegmentSoftmax(a, Arc::clone(&segs));
        self.record((m, 1), Some(a), k, (op, rg), |_, out, acc| {
            softmax_in_place(out, &segs, acc);
        })
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
        let e = segs.seg_of_row.len();
        assert_eq!(src.len(), e, "edge_softmax: src length mismatch");
        assert_eq!(etype.len(), e, "edge_softmax: etype length mismatch");
        for v in [Some(s_src), Some(s_dst), per_type].into_iter().flatten() {
            assert_eq!(self.shape(v).1, 1, "edge_softmax: scores must be [_,1]");
        }
        let type_rows = per_type.map(|p| self.shape(p).0);
        for (name, idx, rows) in [
            ("src", &src[..], Some(self.shape(s_src).0)),
            ("dst", &segs.seg_of_row[..], Some(self.shape(s_dst).0)),
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
        let rg = self.requires(s_src)
            || self.requires(s_dst)
            || per_type.is_some_and(|p| self.requires(p));
        let k = segs.n_segments;
        let (ends, shared) = ((Arc::clone(&src), Arc::clone(&etype)), Arc::clone(&segs));
        let op = Op::EdgeSoftmax(s_src, s_dst, per_type, ends.0, ends.1, shared, slope);
        self.record((e, 1), None, k, (op, rg), |v, x, acc| {
            let dst = &segs.seg_of_row[..];
            let per_type = per_type.map(|p| v.of(p));
            edge_scores(v.of(s_src), v.of(s_dst), per_type, (&src, dst, &etype), x);
            for v in x.iter_mut() {
                if *v < 0.0 {
                    *v *= slope;
                }
            }
            softmax_in_place(x, &segs, acc);
        })
    }

    /// Row-wise L2 normalisation: `y_i = x_i / max(||x_i||, eps)`.
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let shape @ (_, n) = self.shape(a);
        let rg = self.requires(a);
        let op = Op::L2NormalizeRows(a, eps);
        self.record(shape, Some(a), 0, (op, rg), |_, out, _| {
            for row in out.chunks_exact_mut(n.max(1)) {
                let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(eps);
                for x in row {
                    *x /= norm;
                }
            }
        })
    }

    /// Row-wise dot product of two `[m,n]` matrices: `out[i] = a_i · b_i`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!((m, n), self.shape(b), "row_dot: shape mismatch");
        let rg = self.requires(a) || self.requires(b);
        self.record((m, 1), None, 0, (Op::RowDot(a, b), rg), |v, out, _| {
            let pairs = rows_of(v.of(a), m, n).zip(rows_of(v.of(b), m, n));
            for (o, (x, y)) in out.iter_mut().zip(pairs) {
                *o = x.iter().zip(y).map(|(&x, &y)| x * y).sum();
            }
        })
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
        let (n, d) = self.shape(h);
        assert_eq!(dst.len(), src.len(), "pair_dot: dst length mismatch");
        if !(all_below(&src, n) && all_below(&dst, n)) {
            for (i, (&s, &t)) in src.iter().zip(dst.iter()).enumerate() {
                assert!(
                    (s as usize) < n && (t as usize) < n,
                    "pair_dot: example {i} pairs rows {s} and {t}, out of range for {n} rows"
                );
            }
        }
        let rg = self.requires(h);
        let op = Op::PairDot(h, Arc::clone(&src), Arc::clone(&dst));
        self.record((src.len(), 1), None, 0, (op, rg), |v, out, _| {
            // `Σ_c h[src_i][c]·h[dst_i][c]`, the edge kernel's `dα` chain
            // with `h` on both sides.
            edge::alpha_grad(v.of(h), v.of(h), d, (&dst, &src), out);
        })
    }

    // ---- stage ops -----------------------------------------------------------

    /// The per-type input projection of a heterogeneous encoder, fused: each
    /// part `(x, w, b, rows)` computes `x·w + b` and adds row `i` of it into
    /// output row `rows[i]` of a zeroed `[out_rows, d]` matrix. Where the
    /// parts' row sets are disjoint, as a node-type partition's are, every
    /// covered row holds `0.0 + v` and every other row `+0.0` — the values
    /// of `matmul` → `add_row_broadcast` → `scatter_add_rows` per part and
    /// `add` across parts, gradients included, without the chain's
    /// per-part intermediates or its `[out_rows, d]` partial sums. The
    /// products are taken 64 rows at a time.
    ///
    /// # Panics
    /// Panics on no parts, a shape mismatch, or naming the first row id out
    /// of range for `out_rows`.
    pub fn project_rows(&mut self, parts: &[Projection], out_rows: usize) -> Var {
        assert!(!parts.is_empty(), "project_rows: no parts");
        let d = self.shape(parts[0].1).1;
        let mut scratch_len = 0;
        for (p, (x, w, b, rows)) in parts.iter().enumerate() {
            let ((n, f), w_shape) = (self.shape(*x), self.shape(*w));
            assert_eq!(w_shape, (f, d), "project_rows: part {p} weight");
            assert_eq!(self.shape(*b), (1, d), "project_rows: part {p} bias");
            assert_eq!(rows.len(), n, "project_rows: part {p} row count");
            if !all_below(rows, out_rows) {
                for (i, &r) in rows.iter().enumerate() {
                    assert!(
                        (r as usize) < out_rows,
                        "project_rows: part {p} places row {i} at {r}, out of range for {out_rows} rows"
                    );
                }
            }
            scratch_len = scratch_len.max(n.min(PROJECT_CHUNK) * d);
        }
        let rg = (parts.iter()).any(|(x, w, b, _)| [x, w, b].iter().any(|&&v| self.requires(v)));
        let op = Op::ProjectRows(parts.to_vec());
        self.record((out_rows, d), None, scratch_len, (op, rg), |v, out, xw| {
            for (x, w, b, rows) in parts {
                let f = v.nodes[x.0].cols;
                for (c, rows) in rows.chunks(PROJECT_CHUNK).enumerate() {
                    let n = rows.len();
                    let xw = &mut xw[..n * d];
                    let xs = &v.of(*x)[c * PROJECT_CHUNK * f..][..n * f];
                    gemm::nn_into(xs, v.of(*w), (n, f, d), xw, false);
                    for (&r, src) in rows.iter().zip(rows_of(xw, n, d)) {
                        let dst = &mut out[r as usize * d..][..d];
                        for ((o, &s), &bias) in dst.iter_mut().zip(src).zip(v.of(*b)) {
                            *o += s + bias;
                        }
                    }
                }
            }
        })
    }

    /// A multi-head attention layer after its weights, fused (Simple-HGN
    /// Eq. 3 with ELU's `α = 1`): `elu(concat_h(agg_h) + h·W_res)`, where
    /// head `k`'s `agg_k[dst_e] += hw_k[src_e]·alphas_k[e]` in edge order,
    /// for `hws[k]` `[n, d_k]` and `alphas[k]` `[E, 1]` over the edges
    /// `src → dst` of `h`'s `n` nodes, and `W_res` is `[f, Σ d_k]`.
    ///
    /// Replays `edge_aggregate` per head, `matmul(h, W_res)` and
    /// `concat_cols` → `add` → `elu` bit for bit, gradients included, and
    /// records only its `[n, Σ d_k]` output: the forward writes the
    /// residual product into it, aggregates one head at a time into
    /// scratch and adds it (`agg + res`), then takes the ELU. The backward
    /// reads ELU's slope from the output (DESIGN §8 "Stage ops").
    ///
    /// # Panics
    /// Panics on no heads, a shape mismatch, or naming the first edge out
    /// of range for `n` nodes.
    pub fn aggregate_residual_elu(
        &mut self,
        hws: &[Var],
        alphas: &[Var],
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        h: Var,
        w_res: Var,
    ) -> Var {
        const NAME: &str = "aggregate_residual_elu";
        assert!(!hws.is_empty(), "{NAME}: no heads");
        assert_eq!(hws.len(), alphas.len(), "{NAME}: one alpha per head");
        assert_eq!(dst.len(), src.len(), "{NAME}: dst length mismatch");
        let ((n, f), (wf, total)) = (self.shape(h), self.shape(w_res));
        assert_eq!(wf, f, "{NAME}: {n}x{f} @ {wf}x{total} residual");
        let mut width = 0;
        for (&hw, &alpha) in hws.iter().zip(alphas) {
            assert_eq!(self.shape(hw).0, n, "{NAME}: head row mismatch");
            assert_eq!(
                self.shape(alpha),
                (src.len(), 1),
                "{NAME}: alpha must be one weight per edge"
            );
            width += self.shape(hw).1;
        }
        assert_eq!(
            width, total,
            "{NAME}: head widths sum to {width}, W_res is {total} wide"
        );
        if !(all_below(&src, n) && all_below(&dst, n)) {
            for (&s, &t) in src.iter().zip(dst.iter()) {
                assert!(
                    (s as usize) < n && (t as usize) < n,
                    "{NAME}: edge {s}->{t} out of range for {n} nodes"
                );
            }
        }
        let rg = [h, w_res]
            .iter()
            .chain(hws)
            .chain(alphas)
            .any(|&v| self.requires(v));
        let block = hws
            .iter()
            .map(|&hw| n * self.shape(hw).1)
            .max()
            .unwrap_or(0);
        let scratch_len = block + (n * total).min(ELU_BLOCK);
        let op = Op::AggregateResidualElu(Box::new(Epilogue {
            heads: hws.iter().copied().zip(alphas.iter().copied()).collect(),
            src: Arc::clone(&src),
            dst: Arc::clone(&dst),
            h,
            w_res,
        }));
        self.record(
            (n, total),
            None,
            scratch_len,
            (op, rg),
            |v, out, scratch| {
                let (agg, e) = scratch.split_at_mut(block);
                gemm::nn_into(v.of(h), v.of(w_res), (n, f, total), out, false);
                let mut off = 0;
                for (&hw, &alpha) in hws.iter().zip(alphas) {
                    let d = v.nodes[hw.0].cols;
                    let agg = &mut agg[..n * d];
                    agg.fill(0.0);
                    edge::aggregate(v.of(hw), d, v.of(alpha), (&src, &dst), agg);
                    // `agg + res`, in the chain's operand order.
                    for (r, a) in rows_of(agg, n, d).enumerate() {
                        for (o, &a) in out[r * total + off..][..d].iter_mut().zip(a) {
                            let res = *o;
                            *o = a + res;
                        }
                    }
                    off += d;
                }
                elu_in_blocks(out, 1.0, e);
            },
        )
    }

    // ---- reductions & losses ------------------------------------------------

    /// Sum of all elements, as a `1x1` node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let rg = self.requires(a);
        self.record((1, 1), None, 0, (Op::SumAll(a), rg), |v, out, _| {
            out[0] = v.of(a).iter().sum();
        })
    }

    /// Binary cross-entropy with logits, averaged over all elements.
    ///
    /// Uses the standard stable form
    /// `max(x, 0) - x*t + ln(1 + e^{-|x|})`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Arc<Vec<f32>>) -> Var {
        let (m, n) = self.shape(logits);
        assert_eq!(
            m * n,
            targets.len(),
            "bce_with_logits: target length mismatch"
        );
        assert!(m * n > 0, "bce_with_logits: empty input");
        let rg = self.requires(logits);
        let op = Op::BceWithLogits(logits, Arc::clone(&targets));
        self.record((1, 1), None, m * n, (op, rg), |v, out, e| {
            let x = v.of(logits);
            for (e, &xi) in e.iter_mut().zip(x) {
                *e = -xi.abs();
            }
            expf::exp_in_place(e);
            let mut loss = 0.0f64;
            for ((&xi, &ti), &e) in x.iter().zip(targets.iter()).zip(e.iter()) {
                let term = xi.max(0.0) - xi * ti + (1.0 + e).ln();
                loss += term as f64;
            }
            out[0] = (loss / x.len() as f64) as f32;
        })
    }

    // ---- backward -----------------------------------------------------------

    /// Run reverse-mode accumulation from a scalar (`1x1`) node, discarding
    /// the gradients of any earlier `backward` on this tape.
    ///
    /// Walks the tape backwards: a node's children sit later on the tape, so
    /// its gradient is complete when it is reached. Each node writes its
    /// parents' shares into their gradient ranges in accumulation order
    /// (the module docs' store-then-add rule).
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1` or does not require grad, or on a tape
    /// cleared for inference.
    pub fn backward(&mut self, loss: Var) {
        assert!(
            !self.forward_only,
            "backward: the tape was cleared for inference"
        );
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be scalar");
        assert!(self.requires(loss), "backward: loss does not require grad");
        let Self {
            nodes,
            values,
            grads,
            live,
            scratch: buffer,
            forward_only: _,
        } = self;
        let values: &[f32] = values;
        for node in nodes.iter_mut() {
            (node.grad, node.has_grad) = (UNPLACED, false);
        }
        live.clear();
        place(nodes, live, grads, loss);
        grads[nodes[loss.0].grad] = 1.0;
        nodes[loss.0].has_grad = true;
        for i in (0..=loss.0).rev() {
            if !nodes[i].has_grad {
                continue;
            }
            let scratch = scratch(buffer, nodes[i].scratch_len(nodes));
            let (parents, rest) = nodes.split_at_mut(i);
            // The parents this node gives a first share get their ranges
            // now, while its own is still live.
            rest[0].op.for_each_parent(|p| {
                if parents[p.0].requires_grad && parents[p.0].grad == UNPLACED {
                    place(parents, live, grads, p);
                }
            });
            let node = &rest[0];
            let (below, from_node) = grads.split_at_mut(node.grad);
            let (g, above) = from_node.split_at_mut(node.len());
            let mut shares = Shares {
                nodes: parents,
                values,
                below,
                above,
                above_start: node.grad + node.len(),
            };
            node.backprop(&values[node.value_range()], g, &mut shares, scratch);
            // Passed on: an interior node's range is free for the rest of
            // the walk; a leaf's stays for the caller to read.
            if !matches!(node.op, Op::Leaf) {
                live.retain(|&(.., n)| n != i);
                rest[0].has_grad = false;
            }
        }
    }
}

/// Give node `v` the lowest gradient range that overlaps no live one, and
/// grow the arena to hold it. Ranges are placed by the tape's structure
/// alone, so the layout is the same on every run.
fn place(nodes: &mut [Node], live: &mut Vec<(usize, usize, usize)>, grads: &mut Vec<f32>, v: Var) {
    let len = nodes[v.0].len();
    let (mut at, mut index) = (0, live.len());
    for (k, &(start, n, _)) in live.iter().enumerate() {
        if start >= at + len {
            index = k;
            break;
        }
        at = at.max(start + n);
    }
    live.insert(index, (at, len, v.0));
    nodes[v.0].grad = at;
    if grads.len() < at + len {
        grads.resize(at + len, 0.0);
    }
}

/// The parents of the node being differentiated: their values, and their
/// gradient ranges for its shares — each wholly below the node's own range
/// or wholly above it.
struct Shares<'a> {
    nodes: &'a mut [Node],
    values: &'a [f32],
    below: &'a mut [f32],
    above: &'a mut [f32],
    /// Where `above` starts in the gradient arena.
    above_start: usize,
}

impl<'a> Shares<'a> {
    fn value(&self, v: Var) -> &'a [f32] {
        let values: &'a [f32] = self.values;
        &values[self.nodes[v.0].value_range()]
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        let node = &self.nodes[v.0];
        (node.rows, node.cols)
    }

    fn wants(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Whether `v`'s gradient range already holds a share — from here on
    /// it does.
    fn held(&mut self, v: Var) -> bool {
        let node = &mut self.nodes[v.0];
        debug_assert!(node.requires_grad, "a share for a node without gradient");
        std::mem::replace(&mut node.has_grad, true)
    }

    /// `v`'s gradient range.
    fn range(&mut self, v: Var) -> &mut [f32] {
        let range = self.nodes[v.0].grad_range();
        if range.start < self.above_start {
            &mut self.below[range]
        } else {
            &mut self.above[range.start - self.above_start..range.end - self.above_start]
        }
    }

    /// `v`'s gradient range and whether it already holds a share — from
    /// here on it does.
    fn slot(&mut self, v: Var) -> (&mut [f32], bool) {
        let held = self.held(v);
        (self.range(v), held)
    }

    /// An element-wise share, in element order.
    fn put(&mut self, v: Var, share: impl Iterator<Item = f32>) {
        let (dst, add) = self.slot(v);
        write(dst, add, share);
    }

    /// A share that `fill` builds in zeroed memory: in `v`'s gradient range
    /// when it is the first, else in `scratch`, then added.
    fn built(&mut self, v: Var, scratch: &mut [f32], fill: impl FnOnce(&mut [f32])) {
        let (dst, add) = self.slot(v);
        if add {
            let share = &mut scratch[..dst.len()];
            share.fill(0.0);
            fill(share);
            write(dst, true, share.iter().copied());
        } else {
            dst.fill(0.0);
            fill(dst);
        }
    }
}

impl Op {
    /// Call `f` on every parent handle.
    fn for_each_parent(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf => {}
            &Op::MatMul(a, b)
            | &Op::Add(a, b)
            | &Op::Mul(a, b)
            | &Op::AddRowBroadcast(a, b)
            | &Op::RowDot(a, b) => {
                f(a);
                f(b);
            }
            &Op::Scale(a, _)
            | &Op::GatherRows(a, _)
            | &Op::SegmentSoftmax(a, _)
            | &Op::L2NormalizeRows(a, _)
            | &Op::PairDot(a, ..)
            | &Op::SumAll(a)
            | &Op::BceWithLogits(a, _) => f(a),
            Op::ConcatRows(vars) => vars.iter().copied().for_each(f),
            &Op::EdgeSoftmax(s_src, s_dst, per_type, ..) => {
                f(s_src);
                f(s_dst);
                per_type.into_iter().for_each(f);
            }
            Op::ProjectRows(parts) => {
                for &(x, w, b, _) in parts {
                    f(x);
                    f(w);
                    f(b);
                }
            }
            Op::AggregateResidualElu(op) => {
                f(op.h);
                f(op.w_res);
                for &(hw, alpha) in &op.heads {
                    f(hw);
                    f(alpha);
                }
            }
            #[cfg(test)]
            Op::Reference(op) => op.for_each_parent(f),
        }
    }
}

impl Node {
    /// Floats of scratch this node's backward uses.
    fn scratch_len(&self, nodes: &[Node]) -> usize {
        let len = |v: Var| nodes[v.0].len();
        match &self.op {
            &Op::MatMul(a, b) => usize::from(nodes[a.0].requires_grad) * len(b),
            &Op::AddRowBroadcast(_, bias) => len(bias),
            &Op::GatherRows(a, _) | &Op::PairDot(a, ..) | &Op::BceWithLogits(a, _) => len(a),
            Op::SegmentSoftmax(_, segs) => segs.n_segments,
            Op::EdgeSoftmax(s_src, s_dst, per_type, _, _, segs, _) => {
                self.len() + segs.n_segments + len(*s_src) + len(*s_dst) + per_type.map_or(0, len)
            }
            // `W_res`'s transpose for `h`'s share; then one head's `δ`
            // block beside its `dα` or `dhw`.
            Op::AggregateResidualElu(op) => (op.heads.iter())
                .map(|&(hw, alpha)| len(hw) + len(hw).max(len(alpha)))
                .fold(
                    usize::from(nodes[op.h.0].requires_grad) * len(op.w_res),
                    usize::max,
                ),
            // A part's rows of `g`, then the bias share or `wᵀ`.
            Op::ProjectRows(parts) => (parts.iter())
                .map(|&(x, w, ..)| nodes[x.0].rows * self.cols + len(w).max(self.cols))
                .max()
                .unwrap_or(0),
            #[cfg(test)]
            Op::Reference(op) => op.scratch_len(nodes),
            _ => 0,
        }
    }

    /// Write each parent's share of this node's gradient `g` (its value is
    /// `y`), in accumulation order (DESIGN §8), skipping a parent that
    /// takes no gradient: its share is never computed. A one-parent node
    /// has a gradient only when its parent takes one, so only the
    /// multi-parent arms ask `wants`.
    ///
    /// `g` is this node's own range, which is spent once its shares are
    /// written; `aggregate_residual_elu` turns it into the pre-activation's
    /// gradient in place.
    fn backprop(&self, y: &[f32], g: &mut [f32], to: &mut Shares<'_>, scratch: &mut [f32]) {
        if let Op::AggregateResidualElu(_) = self.op {
            // ELU's slope from its output (`α = 1`): `y < 0` exactly where
            // the chain took `g·(y + 1)`, except a negative `x` whose
            // `e^x` rounds to 1, where `y = +0.0` and the chain's
            // `g·(0 + 1)` is `g` itself, as no gradient is a signalling NaN.
            for (g, &y) in g.iter_mut().zip(y) {
                if y < 0.0 {
                    *g *= y + 1.0;
                }
            }
        }
        let g: &[f32] = g;
        match &self.op {
            Op::Leaf => {}
            &Op::MatMul(a, b) => {
                let ((m, k), n) = (to.shape(a), self.cols);
                let (va, vb) = (to.value(a), to.value(b));
                if to.wants(a) {
                    let (dst, add) = to.slot(a);
                    gemm::nt_into(g, vb, (m, n, k), dst, add, scratch);
                }
                if to.wants(b) {
                    let (dst, add) = to.slot(b);
                    gemm::tn_into(va, g, (k, m, n), dst, add);
                }
            }
            &Op::Add(a, b) => {
                for v in [a, b] {
                    if to.wants(v) {
                        to.put(v, g.iter().copied());
                    }
                }
            }
            &Op::Mul(a, b) => {
                for (v, other) in [(a, to.value(b)), (b, to.value(a))] {
                    if to.wants(v) {
                        to.put(v, g.iter().zip(other).map(|(&g, &x)| g * x));
                    }
                }
            }
            &Op::AddRowBroadcast(a, bias) => {
                if to.wants(a) {
                    to.put(a, g.iter().copied());
                }
                if to.wants(bias) {
                    let (m, n) = (self.rows, self.cols);
                    to.built(bias, scratch, |col| {
                        for row in rows_of(g, m, n) {
                            for (o, &v) in col.iter_mut().zip(row) {
                                *o += v;
                            }
                        }
                    });
                }
            }
            &Op::Scale(a, s) => to.put(a, g.iter().map(|&d| d * s)),
            Op::ConcatRows(vars) => {
                let mut off = 0;
                for &v in vars {
                    let (vr, vc) = to.shape(v);
                    let rows = &g[off..off + vr * vc];
                    off += vr * vc;
                    if to.wants(v) {
                        to.put(v, rows.iter().copied());
                    }
                }
            }
            Op::GatherRows(a, idx) => {
                let c = self.cols;
                to.built(*a, scratch, |s| {
                    for (i, &j) in idx.iter().enumerate() {
                        let j = j as usize;
                        for (o, &x) in s[j * c..][..c].iter_mut().zip(&g[i * c..][..c]) {
                            *o += x;
                        }
                    }
                });
            }
            Op::SegmentSoftmax(a, segs) => {
                let dot = &mut scratch[..segs.n_segments];
                segment_dot(g, y, segs, dot);
                let share = (y.iter().zip(g).zip(&segs.seg_of_row))
                    .map(|((&y, &g), &s)| y * (g - dot[s as usize]));
                to.put(*a, share);
            }
            Op::EdgeSoftmax(s_src, s_dst, per_type, src, etype, segs, slope) => {
                // Plain slices and a copied slope before the edge loop: a
                // prototype that read through the op's `Arc`s and `&f32`
                // inside it ran this backward ~48 % slower (DESIGN §8).
                let (src, etype, dst, slope) = (&src[..], &etype[..], &segs.seg_of_row[..], *slope);
                let (x, rest) = scratch.split_at_mut(dst.len());
                let (seg_dot, rest) = rest.split_at_mut(segs.n_segments);
                edge_scores(
                    to.value(*s_src),
                    to.value(*s_dst),
                    per_type.map(|p| to.value(p)),
                    (src, dst, etype),
                    x,
                );
                segment_dot(g, y, segs, seg_dot);
                // Softmax then LeakyReLU Jacobian per edge; the three
                // scatter-adds are the chain's three `gather_rows` adjoints.
                let mut rest = rest;
                let mut zeros = |v: Var| {
                    let taken = std::mem::take(&mut rest);
                    let (d, tail) = taken.split_at_mut(to.shape(v).0);
                    rest = tail;
                    d.fill(0.0);
                    to.wants(v).then_some(d)
                };
                let (mut d_src, mut d_dst) = (zeros(*s_src), zeros(*s_dst));
                let mut d_type = per_type.and_then(zeros);
                for (r, &s) in dst.iter().enumerate() {
                    let mut dx = y[r] * (g[r] - seg_dot[s as usize]);
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
                for (v, d) in [
                    (*per_type, d_type),
                    (Some(*s_dst), d_dst),
                    (Some(*s_src), d_src),
                ] {
                    if let (Some(v), Some(d)) = (v, d) {
                        to.put(v, d.iter().copied());
                    }
                }
            }
            &Op::L2NormalizeRows(a, eps) => {
                let (m, n) = (self.rows, self.cols);
                let x = to.value(a);
                let (dst, add) = to.slot(a);
                let rows = rows_of(x, m, n).zip(rows_of(y, m, n)).zip(rows_of(g, m, n));
                for (r, ((x, y), g_row)) in rows.enumerate() {
                    let norm = x.iter().map(|&v| v * v).sum::<f32>().sqrt().max(eps);
                    let dot: f32 = y.iter().zip(g_row).map(|(&yv, &gv)| yv * gv).sum();
                    let share = g_row.iter().zip(y).map(|(&gv, &yv)| (gv - yv * dot) / norm);
                    write(&mut dst[r * n..][..n], add, share);
                }
            }
            &Op::RowDot(a, b) => {
                let (m, n) = to.shape(a);
                for (v, other) in [(a, to.value(b)), (b, to.value(a))] {
                    if to.wants(v) {
                        let per_row = rows_of(other, m, n).zip(g);
                        to.put(
                            v,
                            per_row.flat_map(|(row, &s)| row.iter().map(move |&x| x * s)),
                        );
                    }
                }
            }
            Op::PairDot(h, src, dst) => {
                // The chain's two `gather_rows` adjoints, the later gather's
                // (`dst`) first: `S_dst[dst_i] += h[src_i]·g_i`, then
                // `S_src[src_i] += h[dst_i]·g_i`.
                let (hv, d) = (to.value(*h), to.shape(*h).1);
                for ends in [(&src[..], &dst[..]), (&dst[..], &src[..])] {
                    to.built(*h, scratch, |s| edge::aggregate(hv, d, g, ends, s));
                }
            }
            Op::ProjectRows(parts) => {
                // The chain's backward walk meets the parts last to first,
                // each as `add_row_broadcast` (bias) then `matmul` (x, w).
                let d = self.cols;
                for (x, w, b, rows) in parts.iter().rev() {
                    let (n, f) = to.shape(*x);
                    let (gx, rest) = scratch.split_at_mut(n * d);
                    for (dst, &r) in gx.chunks_exact_mut(d.max(1)).zip(rows.iter()) {
                        dst.copy_from_slice(&g[r as usize * d..][..d]);
                    }
                    let gx: &[f32] = gx;
                    if to.wants(*b) {
                        to.built(*b, rest, |col| {
                            for row in rows_of(gx, n, d) {
                                for (o, &v) in col.iter_mut().zip(row) {
                                    *o += v;
                                }
                            }
                        });
                    }
                    let (xv, wv) = (to.value(*x), to.value(*w));
                    if to.wants(*x) {
                        let (dst, add) = to.slot(*x);
                        gemm::nt_into(gx, wv, (n, d, f), dst, add, rest);
                    }
                    if to.wants(*w) {
                        let (dst, add) = to.slot(*w);
                        gemm::tn_into(xv, gx, (f, n, d), dst, add);
                    }
                }
            }
            &Op::SumAll(a) => {
                let n = to.shape(a);
                to.put(a, std::iter::repeat(g[0]).take(n.0 * n.1));
            }
            Op::BceWithLogits(a, targets) => {
                let x = to.value(*a);
                let scale = g[0] / x.len() as f32;
                to.built(*a, scratch, |z| {
                    // The logistic in its stable form: `e^-x` or `e^x`,
                    // whichever is at most 1, then one of two quotients.
                    for (z, &xi) in z.iter_mut().zip(x) {
                        *z = if xi >= 0.0 { -xi } else { xi };
                    }
                    expf::exp_in_place(z);
                    for ((z, &xi), &ti) in z.iter_mut().zip(x).zip(targets.iter()) {
                        let sigmoid = if xi >= 0.0 {
                            1.0 / (1.0 + *z)
                        } else {
                            *z / (1.0 + *z)
                        };
                        *z = scale * (sigmoid - ti);
                    }
                });
            }
            Op::AggregateResidualElu(op) => {
                // The chain's backward order: the residual's `matmul`
                // (`h`, then `W_res`), then each head's `edge_aggregate`,
                // last first (`dα`, then `dhw`), every one reading `δ`.
                let Epilogue {
                    heads,
                    src,
                    dst,
                    h,
                    w_res,
                } = &**op;
                let (n, total) = (self.rows, self.cols);
                let ((_, f), hv, wv) = (to.shape(*h), to.value(*h), to.value(*w_res));
                if to.wants(*h) {
                    let (out, add) = to.slot(*h);
                    gemm::nt_into(g, wv, (n, total, f), out, add, scratch);
                }
                if to.wants(*w_res) {
                    let (out, add) = to.slot(*w_res);
                    gemm::tn_into(hv, g, (f, n, total), out, add);
                }
                let (src, dst) = (&src[..], &dst[..]);
                let mut end = total;
                for &(hw, alpha) in heads.iter().rev() {
                    let d = to.shape(hw).1;
                    end -= d;
                    let (delta, rest) = scratch.split_at_mut(n * d);
                    for (r, out) in delta.chunks_exact_mut(d.max(1)).enumerate() {
                        out.copy_from_slice(&g[r * total + end..][..d]);
                    }
                    let delta: &[f32] = delta;
                    let (hwv, av) = (to.value(hw), to.value(alpha));
                    if to.wants(alpha) {
                        to.built(alpha, rest, |da| {
                            edge::alpha_grad(delta, hwv, d, (src, dst), da);
                        });
                    }
                    if to.wants(hw) {
                        to.built(hw, rest, |dh| edge::aggregate(delta, d, av, (dst, src), dh));
                    }
                }
            }
            #[cfg(test)]
            Op::Reference(op) => op.backprop((self.rows, self.cols), y, g, to, scratch),
        }
    }
}

#[cfg(test)]
mod reference;

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
        let cases: [Case; 14] = [
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
            // An `input` feature matrix, as the encoder registers its own.
            ("project_rows", &[(2, 3), (3, 2), (1, 2), (1, 2), (2, 2), (1, 2)], |g, p| {
                let (a, b) = (Arc::new(vec![2, 0]), Arc::new(vec![3]));
                g.project_rows(&[(p[0], p[1], p[2], a), (p[3], p[4], p[5], b)], 4)
            }),
            // A constant `res` among the heads' parents.
            ("heads_residual_elu", &[(3, 2), (3, 1), (3, 3)], |g, p| {
                g.heads_residual_elu(&p[..2], p[2], 1.0)
            }),
            // Two heads (`hw`, `α` each), the layer input and `W_res`.
            ("aggregate_residual_elu", &[(3, 2), (5, 1), (3, 8), (5, 1), (3, 4), (4, 10)], |g, p| {
                let (src, dst) = (Arc::new(SRC.to_vec()), Arc::new(DST.to_vec()));
                g.aggregate_residual_elu(&[p[0], p[2]], &[p[1], p[3]], src, dst, p[4], p[5])
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
                let bits = |d: MatrixRef<'_>| d.as_slice().iter().map(|x| x.to_bits()).collect();
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
        let x = g.leaf(Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, -1.0, 0.0]));
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
        let x = g.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
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
        assert!((v.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((v.get(0, 1) - 0.8).abs() < 1e-6);
        assert!((v.get(1, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bce_matches_manual_value() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![0.0, 2.0]));
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
        let x = g.leaf(Matrix::from_vec(1, 3, vec![0.0, 100.0, -100.0]));
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

    /// A gradient's first share is stored, not added to `+0.0`: a node
    /// whose only share is `-0.0` keeps it, on a fresh tape and on one whose
    /// gradient arena holds an earlier step's values.
    #[test]
    fn a_lone_negative_zero_share_survives() {
        let mut g = Graph::new();
        for _ in 0..2 {
            g.clear();
            let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
            let y = g.scale(x, -0.0);
            let loss = g.sum_all(y);
            g.backward(loss);
            let bits: Vec<u32> = (g.grad(x).unwrap().as_slice().iter())
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(bits, vec![(-0.0f32).to_bits(); 2]);
        }
    }

    /// One step over `n` nodes whose parents take several shares each —
    /// pass-throughs, GEMM, scatter-built shares — as the loss and every
    /// leaf gradient, in bits.
    fn mixed_step(g: &mut Graph, n: usize) -> Vec<Vec<u32>> {
        let data = |rows: usize, cols: usize, k: usize| {
            let v = (0..rows * cols).map(|i| ((i * 7 + k * 3) % 13) as f32 * 0.25 - 1.5);
            Matrix::from_vec(rows, cols, v.collect())
        };
        let x = g.leaf(data(n, 4, 1));
        let w = g.leaf(data(4, 3, 2));
        let b = g.leaf(data(1, 3, 3));
        let h = g.matmul(x, w);
        let hb = g.add_row_broadcast(h, b);
        let a = g.elu(hb, 1.0);
        let cat = g.concat_cols(&[a, h]);
        let reversed = Arc::new((0..n as u32).rev().collect());
        let gathered = g.gather_rows(cat, reversed);
        let mixed = g.add(gathered, cat);
        let ends: Vec<u32> = (0..n as u32).collect();
        let shifted = ends.iter().map(|&i| (i + 1) % n as u32).collect();
        let scores = g.pair_dot(mixed, Arc::new(ends), Arc::new(shifted));
        let targets = Arc::new((0..n).map(|i| (i % 2) as f32).collect());
        let loss = g.bce_with_logits(scores, targets);
        g.backward(loss);
        let bits = |m: MatrixRef<'_>| m.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut out = vec![bits(g.value(loss))];
        out.extend([x, w, b].map(|v| bits(g.grad(v).unwrap())));
        out
    }

    /// How many floats the value arena and the gradient arena (with the
    /// scratch range) hold without growing.
    fn arena_capacity(g: &Graph) -> (usize, usize) {
        let grads = g.grads.capacity() + g.scratch.capacity();
        (g.values.capacity(), grads)
    }

    /// A cleared tape records into the memory a larger step left behind and
    /// gives what a fresh tape gives, bit for bit; once it has held a step,
    /// the same step grows neither arena.
    #[test]
    fn a_cleared_tape_matches_a_fresh_one() {
        let fresh = mixed_step(&mut Graph::new(), 5);
        let mut reused = Graph::new();
        mixed_step(&mut reused, 9);
        reused.clear();
        assert_eq!(mixed_step(&mut reused, 5), fresh);
        let held = arena_capacity(&reused);
        reused.clear();
        assert_eq!(mixed_step(&mut reused, 5), fresh);
        assert_eq!(arena_capacity(&reused), held);
    }

    /// The trainer's pattern on one workspace tape: a small client, then a
    /// larger one, each cleared before every step and stepped twice (its
    /// first batch and a later one), then a second round of both. Only a
    /// client's first step of the first round may grow an arena. Worker
    /// slot 0 also evaluates on its tape, a forward-only pass over a larger
    /// graph: train, evaluate, then train again, and after each size's
    /// first step nothing regrows.
    #[test]
    fn a_cleared_tape_stops_growing_across_clients_and_rounds() {
        let mut g = Graph::new();
        let mut step = |n| {
            g.clear();
            mixed_step(&mut g, n);
            arena_capacity(&g)
        };
        let mut held = Vec::new();
        for n in [5, 9] {
            held.push(step(n));
            assert_eq!(step(n), held[held.len() - 1], "{n}-row step regrew");
        }
        for n in [5, 9] {
            assert_eq!(step(n), held[1], "{n}-row step regrew in round two");
        }

        let slot_0 = |g: &mut Graph| {
            let mut held = Vec::new();
            for n in [5, 9] {
                g.clear();
                mixed_step(g, n);
                held.push(arena_capacity(g));
            }
            g.clear_for_inference();
            layers(g, 13);
            held.push(arena_capacity(g));
            held
        };
        let mut g = Graph::new();
        let first = slot_0(&mut g);
        for round in ["round two", "round three"] {
            assert_eq!(
                slot_0(&mut g),
                vec![first[2]; 3],
                "slot 0 regrew in {round}"
            );
        }
    }

    /// One encoder layer of `n` nodes on `g`, after `h` (`[n, f]`):
    /// `heads` heads of width 3, each `hw = h·W` with its attention weights
    /// from `edge_softmax` over a ring of self- and neighbour edges, then
    /// `aggregate_residual_elu` with `W_res`. Returns the layer's output.
    fn layer(g: &mut Graph, h: Var, heads: usize, seed: usize) -> Var {
        let (n, f) = g.shape(h);
        let data = |rows: usize, cols: usize, k: usize| {
            let v = (0..rows * cols).map(|i| ((i * 5 + k * 7 + seed) % 11) as f32 * 0.2 - 1.0);
            Matrix::from_vec(rows, cols, v.collect())
        };
        let src: Vec<u32> = (0..2 * n as u32).map(|e| e / 2).collect();
        let dst: Vec<u32> = (0..2 * n as u32)
            .map(|e| (e / 2 + e % 2) % n as u32)
            .collect();
        let (src, dst) = (Arc::new(src), Arc::new(dst));
        let segs = Arc::new(Segments::new(dst.to_vec(), n));
        let etype = Arc::new(vec![0; 2 * n]);
        let (mut hws, mut alphas) = (Vec::new(), Vec::new());
        for k in 0..heads {
            let w = g.leaf(data(f, 3, 3 * k));
            let hw = g.matmul(h, w);
            let a = g.leaf(data(3, 1, 3 * k + 1));
            let s = g.matmul(hw, a);
            let alpha = g.edge_softmax(s, s, None, src.clone(), etype.clone(), segs.clone(), 0.2);
            hws.push(hw);
            alphas.push(alpha);
        }
        let w_res = g.leaf(data(f, 3 * heads, 5));
        g.aggregate_residual_elu(&hws, &alphas, src, dst, h, w_res)
    }

    /// A three-layer forward pass of `n` nodes, two heads a layer, with
    /// `retain` after each layer as the encoder calls it; returns the
    /// output's bits and the arena's length just before each `retain`.
    fn layers(g: &mut Graph, n: usize) -> (Vec<u32>, Vec<usize>) {
        let x = g.input(Matrix::from_vec(
            n,
            6,
            (0..n * 6).map(|i| (i % 5) as f32).collect(),
        ));
        let mut h = x;
        let mut before = Vec::new();
        for seed in 0..3 {
            h = layer(g, h, 2, seed);
            before.push(g.values.len());
            g.retain(&[h]);
        }
        let bits = g.value(h).as_slice().iter().map(|v| v.to_bits()).collect();
        (bits, before)
    }

    /// The stage op records one value, its `[n, H·d]` output: no per-head
    /// aggregate and no residual product.
    #[test]
    fn the_layer_op_records_only_its_output() {
        let mut g = Graph::new();
        let h = g.input(Matrix::full(7, 4, 0.5));
        let (hws, alphas): (Vec<Var>, Vec<Var>) = (0..3)
            .map(|k| {
                (
                    g.leaf(Matrix::full(7, 2 + k, 0.25)),
                    g.leaf(Matrix::full(9, 1, 0.5)),
                )
            })
            .unzip();
        let w_res = g.leaf(Matrix::full(4, 9, -0.5));
        let (src, dst) = (
            Arc::new(vec![0, 1, 2, 3, 4, 5, 6, 0, 6]),
            Arc::new(vec![6; 9]),
        );
        let (values, nodes) = (g.values.len(), g.len());
        let out = g.aggregate_residual_elu(&hws, &alphas, src, dst, h, w_res);
        assert_eq!(g.shape(out), (7, 9));
        assert_eq!(g.values.len() - values, 7 * 9);
        assert_eq!(g.len() - nodes, 1);
    }

    /// On a tape cleared for inference, each `retain` leaves only the kept
    /// layer output, so the arena never holds more than that plus one
    /// layer's values; the output is a training tape's, bit for bit.
    #[test]
    fn a_forward_only_tape_holds_one_layer_at_a_time() {
        let n = 6;
        let mut training = Graph::new();
        let (want, grown) = layers(&mut training, n);
        // A training tape keeps everything: its arena only grows.
        assert!(grown.windows(2).all(|w| w[0] < w[1]));
        let mut g = Graph::new();
        g.clear_for_inference();
        let (bits, before) = layers(&mut g, n);
        assert_eq!(bits, want);
        // Every layer reads an `[n, 6]` input (the features, then two heads
        // of 3) and records this much after it, on a fresh tape.
        let layer_len = {
            let mut fresh = Graph::new();
            let h = fresh.input(Matrix::zeros(n, 6));
            layer(&mut fresh, h, 2, 0);
            fresh.values.len() - n * 6
        };
        assert_eq!(before, vec![n * 6 + layer_len; 3]);
        assert_eq!(g.values.len(), n * 6);
    }

    #[test]
    #[should_panic(expected = "backward: the tape was cleared for inference")]
    fn backward_refuses_a_tape_cleared_for_inference() {
        let mut g = Graph::new();
        g.clear_for_inference();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let loss = g.sum_all(x);
        g.backward(loss);
    }

    /// A value `retain` dropped cannot be read by mistake.
    #[test]
    #[should_panic(expected = "a value dropped by `Graph::retain` was read")]
    fn a_dropped_value_is_never_read() {
        let mut g = Graph::new();
        g.clear_for_inference();
        let x = g.input(Matrix::full(2, 2, 1.0));
        let y = g.scale(x, 2.0);
        g.retain(&[y]);
        assert_eq!(g.value(y).as_slice(), &[2.0; 4]);
        g.value(x);
    }

    /// On a training tape `retain` is a no-op: every value, the arena and
    /// the gradients stay as they were.
    #[test]
    fn retain_on_a_training_tape_changes_nothing() {
        let run = |retain: bool| {
            let mut g = Graph::new();
            let x = g.leaf(Matrix::from_vec(
                4,
                6,
                (0..24).map(|i| (i % 7) as f32 * 0.3 - 1.0).collect(),
            ));
            let mut h = x;
            for seed in 0..2 {
                h = layer(&mut g, h, 2, seed);
                if retain {
                    g.retain(&[h]);
                }
            }
            let values: Vec<u32> = g.values.iter().map(|v| v.to_bits()).collect();
            let arena = g.values.capacity();
            let loss = g.sum_all(h);
            g.backward(loss);
            let grad: Vec<u32> = g
                .grad(x)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (values, arena, grad)
        };
        assert_eq!(run(true), run(false));
    }

    /// After `backward`, only leaves keep a gradient: an interior node's
    /// range was reused once it passed its gradient on. A second `backward`
    /// on the same tape replaces the first one's gradients; nothing adds up.
    #[test]
    fn backward_leaves_leaf_gradients_and_replaces_earlier_ones() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
        let y = g.scale(x, 3.0);
        let z = g.mul(y, y);
        let loss = g.sum_all(z);
        g.backward(loss);
        assert!(g.grad(y).is_none() && g.grad(z).is_none());
        let first = g.grad(x).unwrap().as_slice().to_vec();
        assert_eq!(first, [18.0, -36.0]);
        let half = g.scale(loss, 0.5);
        g.backward(half);
        assert!(g.grad(y).is_none() && g.grad(loss).is_none());
        assert_eq!(g.grad(x).unwrap().as_slice(), &[9.0, -18.0]);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().as_slice(), first);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        g.backward(x);
    }
}
