//! The optimiser over a [`ParamSet`].
//!
//! The contract: the training loop accumulates gradients into the set (via
//! [`crate::TapeBindings::accumulate_grads`]), calls `step`, then
//! `zero_grads`.

use crate::matrix::Matrix;
use crate::param::ParamSet;

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard hyper-parameters (`beta1=0.9`, `beta2=0.999`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &ParamSet) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|(_, p)| Matrix::zeros(p.value().rows(), p.value().cols()))
                .collect();
            self.v = params
                .iter()
                .map(|(_, p)| Matrix::zeros(p.value().rows(), p.value().cols()))
                .collect();
            self.t = 0;
        }
    }

    /// Apply one Adam update.
    pub fn step(&mut self, params: &mut ParamSet) {
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps, wd) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for (((_, p), m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let (value, grad) = p.value_and_grad_mut();
            assert_eq!(m.len(), grad.len(), "Adam state laid out for another set");
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let scalars = value.as_mut_slice().iter_mut().zip(grad.as_slice());
            for ((w, &g), (m, v)) in scalars.zip(moments) {
                let mut g = g;
                // A config-flag check against the literal default 0.0, not a
                // computed value; skipping the add keeps g bit-identical to
                // the no-decay path.
                if wd != 0.0 {
                    g += wd * *w;
                }
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSet;

    fn quadratic_grad(ps: &mut ParamSet) {
        // loss = 0.5 * ||w - 3||^2  =>  grad = w - 3
        let ids: Vec<_> = ps.ids().collect();
        for id in ids {
            let val = ps.get(id).value().clone();
            let g = ps.get_mut(id).grad_mut();
            for (gi, &wi) in g.as_mut_slice().iter_mut().zip(val.as_slice()) {
                *gi = wi - 3.0;
            }
        }
    }

    /// The optimiser step as it was before it borrowed value and gradient
    /// disjointly: clone each unit's gradient, index every scalar. Kept as
    /// the reference the zipped pass must equal bit for bit.
    fn adam_step_reference(opt: &mut Adam, params: &mut ParamSet) {
        opt.ensure_state(params);
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for (idx, (_, p)) in params.iter_mut().enumerate() {
            let grad = p.grad().clone();
            let value = p.value_mut();
            let m = &mut opt.m[idx];
            let v = &mut opt.v[idx];
            for i in 0..grad.len() {
                let mut g = grad.as_slice()[i];
                if opt.weight_decay != 0.0 {
                    g += opt.weight_decay * value.as_slice()[i];
                }
                let mi = opt.beta1 * m.as_slice()[i] + (1.0 - opt.beta1) * g;
                let vi = opt.beta2 * v.as_slice()[i] + (1.0 - opt.beta2) * g * g;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                value.as_mut_slice()[i] -= opt.lr * m_hat / (v_hat.sqrt() + opt.eps);
            }
        }
    }

    /// Three units of awkward sizes with values and gradients spread over
    /// many magnitudes (signed zeros and a huge gradient included).
    fn varied_set() -> ParamSet {
        let mut ps = ParamSet::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            unit * 10f32.powi((state >> 8) as i32 % 7 - 3)
        };
        for (name, rows, cols) in [("a", 7, 13), ("b", 1, 1), ("c", 33, 4)] {
            let values: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
            let id = ps.add(name, Matrix::from_vec(rows, cols, values));
            for g in ps.get_mut(id).grad_mut().as_mut_slice() {
                *g = next();
            }
        }
        let first = ps.ids().next().unwrap();
        ps.get_mut(first).grad_mut().as_mut_slice()[..3].copy_from_slice(&[0.0, -0.0, 1e30]);
        ps
    }

    fn bits(ps: &ParamSet) -> Vec<u32> {
        ps.flatten().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn steps_equal_their_cloning_references_bit_for_bit() {
        for weight_decay in [0.0f32, 0.01] {
            let mut adam = Adam::new(0.01);
            adam.weight_decay = weight_decay;
            let mut adam_ref = adam.clone();
            let (mut got_adam, mut want_adam) = (varied_set(), varied_set());
            for step in 0..4 {
                adam.step(&mut got_adam);
                adam_step_reference(&mut adam_ref, &mut want_adam);
                assert_eq!(
                    bits(&got_adam),
                    bits(&want_adam),
                    "adam wd={weight_decay} step {step}"
                );
                for (a, b) in adam
                    .m
                    .iter()
                    .chain(&adam.v)
                    .zip(adam_ref.m.iter().chain(&adam_ref.v))
                {
                    let (a, b) = (a.as_slice().iter(), b.as_slice().iter());
                    assert!(a.zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::row_vector(vec![-5.0, 20.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..500 {
            ps.zero_grads();
            quadratic_grad(&mut ps);
            opt.step(&mut ps);
        }
        for &w in ps.get(ps.id_of("w").unwrap()).value().as_slice() {
            assert!((w - 3.0).abs() < 1e-2, "w = {w}");
        }
    }
}
