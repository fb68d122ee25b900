//! Parameter storage shared between models, optimisers and the FL layer.
//!
//! FedDA reasons about *parameter units*: the paper's index set `[N]` with a
//! disentangled subset `[N_d]` whose members belong to a single edge type
//! (edge-type embeddings, per-type relation vectors). A [`ParamSet`] is a
//! shared *layout* — every unit's [`ParamMeta`] tag, shape and offset plus
//! the names taken, built once by the model's [`ParamSet::add`] calls and
//! shared by every clone — and one flat value buffer, in which unit `k` is
//! `values[off[k]..off[k + 1]]` ([`ParamSet::range`]). The server masks,
//! averages and counts transmitted scalars per unit without knowing anything
//! about model internals, and a copy of a model is one buffer copy.
//!
//! Gradients are a second flat buffer that exists only while a set is being
//! trained: it stays empty until [`ParamSet::zero_grads`] first asks for it,
//! and local training releases it before it returns
//! ([`ParamSet::release_grads`]), so a broadcast, a report or a reference
//! holds values only.

use crate::matrix::Matrix;
use crate::tape::{Graph, Var};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Handle to a parameter inside a [`ParamSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of this parameter within its set.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from a raw index (the inverse of
    /// [`ParamId::index`]; the caller is responsible for the index being
    /// valid for the set it is used with).
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

/// Metadata the FL layer uses to group parameter units.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ParamMeta {
    /// True when the unit is "disentangled": it only matters for one edge
    /// type, so a client that never sees that type contributes nothing to it
    /// (paper §5.3).
    pub disentangled: bool,
    /// The edge type the unit belongs to, when disentangled.
    pub(crate) edge_type: Option<usize>,
}

impl ParamMeta {
    /// A shared (entangled) unit.
    pub fn shared() -> Self {
        Self::default()
    }

    /// A unit disentangled to the given edge type.
    pub fn per_edge_type(edge_type: usize) -> Self {
        Self {
            disentangled: true,
            edge_type: Some(edge_type),
        }
    }
}

/// One unit of a [`ParamLayout`].
#[derive(Clone, Debug)]
struct Unit {
    meta: ParamMeta,
    rows: usize,
    cols: usize,
    /// Position of the unit's first scalar in the flat buffers.
    offset: usize,
}

impl Unit {
    fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.rows * self.cols
    }
}

/// What every set of one model shares: its units in registration order and
/// the names taken, so a name is registered once.
#[derive(Clone, Debug, Default)]
struct ParamLayout {
    units: Vec<Unit>,
    names: BTreeSet<String>,
}

/// An ordered, named collection of parameter units: a shared layout and one
/// flat value buffer (see the module docs).
///
/// Order is creation order and is identical across clients that build the
/// same model architecture, which is what lets the FL server exchange flat
/// vectors and per-unit masks.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    layout: Arc<ParamLayout>,
    values: Vec<f32>,
    /// Empty, or one gradient per value.
    grads: Vec<f32>,
}

impl ParamSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new shared parameter.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.add_with_meta(name, value, ParamMeta::shared())
    }

    /// Register a new parameter with explicit FL metadata.
    pub fn add_with_meta(
        &mut self,
        name: impl Into<String>,
        value: Matrix,
        meta: ParamMeta,
    ) -> ParamId {
        let name = name.into();
        let layout = Arc::make_mut(&mut self.layout);
        assert!(
            !layout.names.contains(&name),
            "duplicate parameter name: {name}"
        );
        let id = ParamId(layout.units.len());
        layout.names.insert(name);
        layout.units.push(Unit {
            meta,
            rows: value.rows(),
            cols: value.cols(),
            offset: self.values.len(),
        });
        self.values.extend_from_slice(value.as_slice());
        if !self.grads.is_empty() {
            self.grads.resize(self.values.len(), 0.0);
        }
        id
    }

    /// Number of parameter units.
    pub fn len(&self) -> usize {
        self.layout.units.len()
    }

    /// True when the set holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalars across all units.
    pub fn num_scalars(&self) -> usize {
        self.layout.units.last().map_or(0, |u| u.range().end)
    }

    /// Number of disentangled units (the paper's `N_d`).
    pub fn num_disentangled(&self) -> usize {
        self.layout
            .units
            .iter()
            .filter(|u| u.meta.disentangled)
            .count()
    }

    /// FL grouping metadata of a unit.
    pub fn meta(&self, id: ParamId) -> ParamMeta {
        self.layout.units[id.0].meta
    }

    /// Where a unit lives in [`ParamSet::values`] — and in any other buffer
    /// laid out like it.
    pub fn range(&self, id: ParamId) -> Range<usize> {
        self.layout.units[id.0].range()
    }

    /// A unit's values.
    pub fn unit(&self, id: ParamId) -> &[f32] {
        &self.values[self.range(id)]
    }

    /// A unit's values, mutably.
    pub fn unit_mut(&mut self, id: ParamId) -> &mut [f32] {
        let range = self.range(id);
        &mut self.values[range]
    }

    /// Iterate `(id, unit values)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &[f32])> {
        self.ids().map(move |id| (id, self.unit(id)))
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.len()).map(ParamId)
    }

    /// Every value, unit after unit, row-major within a unit.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Every value, mutably.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Every accumulated gradient, laid out like [`ParamSet::values`]; empty
    /// while the set holds no gradients.
    #[cfg(test)]
    fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Values and gradients borrowed together, both mutably — the two
    /// buffers are disjoint, so a pass that reads one while writing the
    /// other (optimiser steps, penalty gradients) needs no copy of either.
    /// A set that held no gradients gets zeroed ones first.
    pub fn values_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        if self.grads.len() != self.values.len() {
            self.grads = vec![0.0; self.values.len()];
        }
        (&mut self.values, &mut self.grads)
    }

    /// Zero every gradient, allocating the buffer if the set held none.
    pub fn zero_grads(&mut self) {
        self.grads.clear();
        self.grads.resize(self.values.len(), 0.0);
    }

    /// Zero every gradient in `buffer`'s memory: the set takes it as its
    /// gradient buffer, so a buffer handed back by
    /// [`ParamSet::take_grads`] serves the next set without reallocating.
    pub fn zero_grads_in(&mut self, buffer: Vec<f32>) {
        self.grads = buffer;
        self.zero_grads();
    }

    /// Hand the gradient buffer out: the set holds values only.
    pub fn take_grads(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.grads)
    }

    /// Free the gradient buffer: the set holds values only.
    pub fn release_grads(&mut self) {
        self.grads = Vec::new();
    }

    /// Take `other`'s values: copied into this set's own buffer when the
    /// two share a layout — a buffer kept from call to call is written,
    /// never reallocated — else by becoming a clone of `other`.
    pub fn copy_from(&mut self, other: &ParamSet) {
        if self.shares_layout(other) {
            self.values.copy_from_slice(&other.values);
        } else {
            *self = other.clone();
        }
    }

    /// Squared L2 norm of all gradients (diagnostics / clipping): each
    /// unit's partial sum, then the sum of those.
    pub(crate) fn grad_norm_sq(&self) -> f32 {
        self.layout
            .units
            .iter()
            .map(|u| {
                let grads = self.grads.get(u.range()).unwrap_or_default();
                grads.iter().map(|&g| g * g).sum::<f32>()
            })
            .sum()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm_sq().sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.grads.iter_mut().for_each(|g| *g *= s);
        }
    }

    /// A copy of [`ParamSet::values`].
    pub fn flatten(&self) -> Vec<f32> {
        self.values.clone()
    }

    /// Per-unit L2 distance to another structurally-identical set — the
    /// "returned gradient" magnitude FedDA scores clients with.
    pub fn unit_l2_distances(&self, other: &ParamSet) -> Vec<f32> {
        assert_eq!(
            self.len(),
            other.len(),
            "unit_l2_distances: unit count mismatch"
        );
        self.iter()
            .zip(other.iter())
            .map(|((_, a), (_, b))| {
                a.iter()
                    .zip(b)
                    .map(|(&x, &y)| {
                        let d = x - y;
                        d * d
                    })
                    .sum::<f32>()
                    .sqrt()
            })
            .collect()
    }

    /// Whether the two sets share one layout — one is a clone of the other,
    /// or both are of one original.
    pub(crate) fn shares_layout(&self, other: &ParamSet) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
    }
}

/// Records which tape leaves correspond to which parameters for one forward
/// pass, so gradients can be pulled back into the [`ParamSet`] after
/// `backward`.
#[derive(Default)]
pub struct TapeBindings {
    pairs: Vec<(Var, ParamId)>,
}

impl TapeBindings {
    /// Create an empty binding list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a differentiable leaf on `graph` holding a copy of the
    /// parameter's current value, and remember the association.
    pub fn leaf(&mut self, graph: &mut Graph, params: &ParamSet, id: ParamId) -> Var {
        let unit = &params.layout.units[id.0];
        let v = graph.leaf_from((unit.rows, unit.cols), params.unit(id), true);
        self.pairs.push((v, id));
        v
    }

    /// Forget every binding, keeping the list's memory — beside a
    /// [`Graph::clear`] of the tape they were made on.
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// After `graph.backward(...)`, accumulate each leaf's gradient into the
    /// parameter set. Leaves that received no gradient contribute nothing.
    pub fn accumulate_grads(&self, graph: &Graph, params: &mut ParamSet) {
        for &(v, id) in &self.pairs {
            if let Some(g) = graph.grad(v) {
                let unit = &params.layout.units[id.0];
                assert_eq!((unit.rows, unit.cols), g.shape(), "gradient shape mismatch");
                let range = unit.range();
                let (_, grads) = params.values_and_grads_mut();
                for (a, &b) in grads[range].iter_mut().zip(g.as_slice()) {
                    *a += b;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_param_set() -> ParamSet {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        ps.add_with_meta(
            "r0",
            Matrix::from_vec(1, 2, vec![5.0, 6.0]),
            ParamMeta::per_edge_type(0),
        );
        ps
    }

    #[test]
    fn add_and_lookup() {
        let ps = two_param_set();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_scalars(), 6);
        assert_eq!(ps.num_disentangled(), 1);
        assert_eq!(ps.meta(ParamId(1)).edge_type, Some(0));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::zeros(1, 1));
        ps.add("w", Matrix::zeros(1, 1));
    }

    #[test]
    fn flatten_roundtrip() {
        let ps = two_param_set();
        let flat = ps.flatten();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut ps2 = two_param_set();
        ps2.unit_mut(ParamId(0)).fill(0.0);
        ps2.values_mut().copy_from_slice(&flat);
        assert_eq!(ps2.flatten(), flat);
    }

    /// A clone is one more value buffer under the same layout; gradients
    /// exist only from the first `zero_grads` until they are released.
    #[test]
    fn clone_shares_the_layout_and_gradients_come_and_go() {
        let mut ps = two_param_set();
        let copy = ps.clone();
        assert!(Arc::ptr_eq(&ps.layout, &copy.layout));
        assert!(ps.shares_layout(&copy) && !ps.shares_layout(&two_param_set()));
        assert!(ps.grads().is_empty());
        ps.zero_grads();
        assert_eq!(ps.grads(), &[0.0; 6]);
        ps.release_grads();
        assert!(ps.grads().is_empty() && ps.values() == copy.values());
        assert_eq!((ps.len(), ps.num_scalars()), (2, 6));
        // Copying in keeps the buffer under a shared layout, clones else.
        let mut moved = copy.clone();
        moved.values_mut().fill(9.0);
        let kept = moved.values().as_ptr();
        moved.copy_from(&ps);
        assert!(moved.values() == ps.values() && moved.values().as_ptr() == kept);
        let mut fresh = ParamSet::new();
        fresh.copy_from(&ps);
        assert!(fresh.shares_layout(&ps) && fresh.values() == ps.values());
    }

    #[test]
    fn unit_l2_distances_measure_per_unit_change() {
        let a = two_param_set();
        let mut b = two_param_set();
        b.unit_mut(ParamId(1))[0] = 8.0; // 5 -> 8
        let d = a.unit_l2_distances(&b);
        assert!(d[0].abs() < 1e-6);
        assert!((d[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut ps = two_param_set();
        let first = ps.range(ParamId(0));
        ps.values_and_grads_mut().1[first].fill(3.0);
        let norm = ps.grad_norm_sq().sqrt();
        assert!((norm - 6.0).abs() < 1e-5);
        ps.clip_grad_norm(3.0);
        assert!((ps.grad_norm_sq().sqrt() - 3.0).abs() < 1e-5);
        // A second clip with a larger bound is a no-op.
        ps.clip_grad_norm(100.0);
        assert!((ps.grad_norm_sq().sqrt() - 3.0).abs() < 1e-5);
    }

    /// The norm is a sum of per-unit partial sums, as it was when every unit
    /// owned its gradient matrix: here one chain over the flat buffer loses
    /// the second unit's four `2⁻²⁴` squares against the first unit's `1`
    /// and clips to other bits.
    #[test]
    fn clip_grad_norm_adds_per_unit_partial_sums() {
        let mut ps = ParamSet::new();
        ps.add("big", Matrix::zeros(1, 1));
        ps.add("small", Matrix::zeros(2, 2));
        let tiny = f32::from_bits(0x3980_0000); // 2⁻¹²
        ps.values_and_grads_mut()
            .1
            .copy_from_slice(&[1.0, tiny, tiny, tiny, tiny]);
        let per_unit: f32 = 1.0 + (0..4).map(|_| tiny * tiny).sum::<f32>();
        let one_chain: f32 = ps.grads().iter().map(|&g| g * g).sum();
        assert_eq!(ps.grad_norm_sq().to_bits(), per_unit.to_bits());
        assert_ne!(per_unit.to_bits(), one_chain.to_bits());
        let clipped = |norm_sq: f32| -> Vec<u32> {
            let s = 0.5 / norm_sq.sqrt();
            ps.grads().iter().map(|&g| (g * s).to_bits()).collect()
        };
        let (want, chained) = (clipped(per_unit), clipped(one_chain));
        assert_ne!(want, chained);
        ps.clip_grad_norm(0.5);
        let got: Vec<u32> = ps.grads().iter().map(|g| g.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tape_bindings_pull_gradients_back() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::from_vec(2, 1, vec![1.0, -1.0]));
        let mut g = Graph::new();
        let mut tb = TapeBindings::new();
        let wv = tb.leaf(&mut g, &ps, w);
        let x = g.input(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let y = g.matmul(x, wv);
        let loss = g.sum_all(y);
        g.backward(loss);
        tb.accumulate_grads(&g, &mut ps);
        assert_eq!(ps.grads(), &[2.0, 3.0]);
        // Accumulation adds on top.
        tb.accumulate_grads(&g, &mut ps);
        assert_eq!(ps.grads(), &[4.0, 6.0]);
    }
}
