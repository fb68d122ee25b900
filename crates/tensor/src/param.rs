//! Named parameter storage shared between models, optimisers and the FL
//! layer.
//!
//! FedDA reasons about *parameter units*: the paper's index set `[N]` with a
//! disentangled subset `[N_d]` whose members belong to a single edge type
//! (edge-type embeddings, per-type relation vectors). We therefore keep each
//! unit as its own named [`Param`] carrying a [`ParamMeta`] tag, so the
//! server can mask, average and count transmitted scalars per unit without
//! knowing anything about model internals.

use crate::matrix::Matrix;
use crate::tape::{Graph, Var};
use std::collections::BTreeMap;

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
    pub edge_type: Option<usize>,
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

/// One learnable tensor with its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    name: String,
    value: Matrix,
    grad: Matrix,
    meta: ParamMeta,
}

impl Param {
    /// Parameter name (unique within its set).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Mutable value (used by optimisers and the FL server).
    pub fn value_mut(&mut self) -> &mut Matrix {
        &mut self.value
    }

    /// Accumulated gradient.
    pub fn grad(&self) -> &Matrix {
        &self.grad
    }

    /// Mutable gradient.
    pub fn grad_mut(&mut self) -> &mut Matrix {
        &mut self.grad
    }

    /// Value and gradient borrowed together, both mutably — the two
    /// buffers are disjoint, so a pass that reads one while writing the
    /// other (optimiser steps, penalty gradients) needs no copy of either.
    pub fn value_and_grad_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.value, &mut self.grad)
    }

    /// FL grouping metadata.
    pub fn meta(&self) -> ParamMeta {
        self.meta
    }

    /// Number of scalars in this unit.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the unit holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// An ordered, named collection of parameters.
///
/// Order is creation order and is identical across clients that build the
/// same model architecture, which is what lets the FL server exchange flat
/// vectors and per-unit masks.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    params: Vec<Param>,
    by_name: BTreeMap<String, ParamId>,
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
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate parameter name: {name}"
        );
        let id = ParamId(self.params.len());
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.by_name.insert(name.clone(), id);
        self.params.push(Param {
            name,
            value,
            grad,
            meta,
        });
        id
    }

    /// Number of parameter units.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the set holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalars across all units.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.len()).sum()
    }

    /// Number of disentangled units (the paper's `N_d`).
    pub fn num_disentangled(&self) -> usize {
        self.params.iter().filter(|p| p.meta.disentangled).count()
    }

    /// Look a parameter up by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Borrow a parameter.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Borrow a parameter mutably.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Iterate `(id, param)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterate parameters mutably in registration order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Param)> {
        self.params
            .iter_mut()
            .enumerate()
            .map(|(i, p)| (ParamId(i), p))
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Zero every gradient buffer.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill(0.0);
        }
    }

    /// Squared L2 norm of all gradients (diagnostics / clipping).
    pub fn grad_norm_sq(&self) -> f32 {
        self.params.iter().map(|p| p.grad.norm_sq()).sum()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm_sq().sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                p.grad.scale_assign(s);
            }
        }
    }

    /// Flatten all values into one vector (unit order, row-major within a
    /// unit). The inverse is [`ParamSet::load_flat`].
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for p in &self.params {
            out.extend_from_slice(p.value.as_slice());
        }
        out
    }

    /// Load values from a flat vector produced by a structurally-identical
    /// set's [`ParamSet::flatten`].
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_scalars(), "load_flat: length mismatch");
        let mut off = 0;
        for p in &mut self.params {
            let n = p.len();
            p.value.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// Per-unit L2 distance to another structurally-identical set — the
    /// "returned gradient" magnitude FedDA scores clients with.
    pub fn unit_l2_distances(&self, other: &ParamSet) -> Vec<f32> {
        assert_eq!(
            self.len(),
            other.len(),
            "unit_l2_distances: unit count mismatch"
        );
        self.params
            .iter()
            .zip(&other.params)
            .map(|(a, b)| {
                a.value
                    .as_slice()
                    .iter()
                    .zip(b.value.as_slice())
                    .map(|(&x, &y)| {
                        let d = x - y;
                        d * d
                    })
                    .sum::<f32>()
                    .sqrt()
            })
            .collect()
    }

    /// True if any parameter or gradient contains NaN/inf.
    pub fn has_non_finite(&self) -> bool {
        self.params
            .iter()
            .any(|p| p.value.has_non_finite() || p.grad.has_non_finite())
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
        let v = graph.leaf(params.get(id).value().clone());
        self.pairs.push((v, id));
        v
    }

    /// After `graph.backward(...)`, accumulate each leaf's gradient into the
    /// parameter set. Leaves that received no gradient contribute nothing.
    pub fn accumulate_grads(&self, graph: &Graph, params: &mut ParamSet) {
        for &(v, id) in &self.pairs {
            if let Some(g) = graph.grad(v) {
                params.get_mut(id).grad_mut().add_assign(g);
            }
        }
    }

    /// Number of bound leaves.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
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
            Matrix::row_vector(vec![5.0, 6.0]),
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
        let id = ps.id_of("r0").unwrap();
        assert_eq!(ps.get(id).meta().edge_type, Some(0));
        assert!(ps.id_of("nope").is_none());
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
        ps2.get_mut(ParamId(0)).value_mut().fill(0.0);
        ps2.load_flat(&flat);
        assert_eq!(ps2.flatten(), flat);
    }

    #[test]
    fn unit_l2_distances_measure_per_unit_change() {
        let a = two_param_set();
        let mut b = two_param_set();
        b.get_mut(ParamId(1)).value_mut().set(0, 0, 8.0); // 5 -> 8
        let d = a.unit_l2_distances(&b);
        assert!(d[0].abs() < 1e-6);
        assert!((d[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut ps = two_param_set();
        ps.get_mut(ParamId(0)).grad_mut().fill(3.0);
        ps.get_mut(ParamId(1)).grad_mut().fill(0.0);
        let norm = ps.grad_norm_sq().sqrt();
        assert!((norm - 6.0).abs() < 1e-5);
        ps.clip_grad_norm(3.0);
        assert!((ps.grad_norm_sq().sqrt() - 3.0).abs() < 1e-5);
        // A second clip with a larger bound is a no-op.
        ps.clip_grad_norm(100.0);
        assert!((ps.grad_norm_sq().sqrt() - 3.0).abs() < 1e-5);
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
        assert_eq!(ps.get(w).grad().as_slice(), &[2.0, 3.0]);
        // Accumulation adds on top.
        tb.accumulate_grads(&g, &mut ps);
        assert_eq!(ps.get(w).grad().as_slice(), &[4.0, 6.0]);
    }
}
