//! The optimiser over a [`ParamSet`].
//!
//! The contract: the training loop accumulates gradients into the set (via
//! [`crate::TapeBindings::accumulate_grads`]), calls `step`, then
//! `zero_grads`.

use crate::param::ParamSet;

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical-stability epsilon.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba, 2015) with bias correction and the standard
/// hyper-parameters (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 10⁻⁸`). The moments are
/// two flat vectors laid out like the set's values.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub(crate) lr: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Start over at learning rate `lr` with zeroed moments sized for
    /// `params`, in the memory the moments already have: from here on the
    /// optimiser steps exactly as a fresh [`Adam::new`] would.
    pub fn restart(&mut self, lr: f32, params: &ParamSet) {
        let n = params.values().len();
        self.lr = lr;
        self.t = 0;
        for moment in [&mut self.m, &mut self.v] {
            moment.clear();
            moment.resize(n, 0.0);
        }
    }

    /// Apply one Adam update.
    pub fn step(&mut self, params: &mut ParamSet) {
        let (values, grads) = params.values_and_grads_mut();
        if self.m.len() != values.len() {
            self.m = vec![0.0; values.len()];
            self.v = vec![0.0; values.len()];
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.lr;
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((w, &g), (m, v)) in values.iter_mut().zip(grads.iter()).zip(moments) {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *w -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::param::ParamSet;

    fn quadratic_grad(ps: &mut ParamSet) {
        // loss = 0.5 * ||w - 3||^2  =>  grad = w - 3
        let (values, grads) = ps.values_and_grads_mut();
        for (g, &w) in grads.iter_mut().zip(values.iter()) {
            *g = w - 3.0;
        }
    }

    /// The optimiser step as it was when every unit owned its value,
    /// gradient and moment matrices: per-unit moments, every scalar
    /// indexed. Kept as the reference the flat pass must equal bit for bit.
    fn adam_step_reference(
        t: u64,
        values: &mut [Vec<f32>],
        grads: &[Vec<f32>],
        moments: &mut [(Vec<f32>, Vec<f32>)],
    ) {
        let bc1 = 1.0 - 0.9f32.powi(t as i32);
        let bc2 = 1.0 - 0.999f32.powi(t as i32);
        for ((value, grad), (m, v)) in values.iter_mut().zip(grads).zip(moments) {
            for i in 0..grad.len() {
                let g = grad[i];
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g;
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                value[i] -= 0.01 * m_hat / (v_hat.sqrt() + 1e-8);
            }
        }
    }

    /// Three units of awkward sizes with values and gradients spread over
    /// many magnitudes (signed zeros and a huge gradient included), as
    /// per-unit `(values, gradients)`.
    fn varied_units() -> Vec<(Vec<f32>, Vec<f32>)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            unit * 10f32.powi((state >> 8) as i32 % 7 - 3)
        };
        let mut units: Vec<(Vec<f32>, Vec<f32>)> = [7 * 13, 1, 33 * 4]
            .into_iter()
            .map(|n| {
                let values = (0..n).map(|_| next()).collect();
                (values, (0..n).map(|_| next()).collect())
            })
            .collect();
        units[0].1[..3].copy_from_slice(&[0.0, -0.0, 1e30]);
        units
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn steps_equal_their_cloning_references_bit_for_bit() {
        let units = varied_units();
        let mut ps = ParamSet::new();
        for (name, (values, _)) in ["a", "b", "c"].into_iter().zip(&units) {
            ps.add(name, Matrix::from_vec(1, values.len(), values.clone()));
        }
        let grads: Vec<f32> = units.iter().flat_map(|(_, g)| g.iter().copied()).collect();
        let (mut want, want_grads): (Vec<Vec<f32>>, Vec<Vec<f32>>) = units.into_iter().unzip();
        let mut moments: Vec<(Vec<f32>, Vec<f32>)> = want
            .iter()
            .map(|u| (vec![0.0; u.len()], vec![0.0; u.len()]))
            .collect();
        let mut adam = Adam::new(0.01);
        for step in 0..4 {
            ps.values_and_grads_mut().1.copy_from_slice(&grads);
            adam.step(&mut ps);
            adam_step_reference(step + 1, &mut want, &want_grads, &mut moments);
            assert_eq!(bits(ps.values()), bits(&want.concat()), "step {step}");
            let (m, v): (Vec<Vec<f32>>, Vec<Vec<f32>>) = moments.iter().cloned().unzip();
            assert_eq!(bits(&adam.m), bits(&m.concat()), "m, step {step}");
            assert_eq!(bits(&adam.v), bits(&v.concat()), "v, step {step}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        let w_id = ps.add("w", Matrix::from_vec(1, 2, vec![-5.0, 20.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..500 {
            ps.zero_grads();
            quadratic_grad(&mut ps);
            opt.step(&mut ps);
        }
        for &w in ps.unit(w_id) {
            assert!((w - 3.0).abs() < 1e-2, "w = {w}");
        }
    }
}
