//! Weight initialisers.
//!
//! All initialisers take an explicit RNG so experiments are reproducible
//! end-to-end from a single seed (the FL harness derives one sub-seed per
//! client per round).

use crate::matrix::Matrix;
use rand::Rng;

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let a = (6.0 / (rows + cols).max(1) as f32).sqrt();
    uniform(rng, rows, cols, -a, a)
}

/// Uniform initialisation in `[lo, hi)`.
pub(crate) fn uniform<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    lo: f32,
    hi: f32,
) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Gaussian initialisation via Box–Muller (avoids a rand_distr dependency).
pub fn normal<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    mean: f32,
    std: f32,
) -> Matrix {
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let (z0, z1) = box_muller(rng);
        data.push(mean + std * z0);
        if data.len() < n {
            data.push(mean + std * z1);
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// One Box–Muller draw: two independent standard normals.
pub fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    // Guard against log(0).
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen::<f32>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_uniform_is_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = xavier_uniform(&mut rng, 64, 32);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x > -bound && x < bound));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = normal(&mut rng, 100, 100, 1.0, 2.0);
        let mean = m.as_slice().iter().sum::<f32>() / m.as_slice().len() as f32;
        let var = m
            .as_slice()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / (m.as_slice().len() - 1) as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "var was {var}");
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(42), 8, 8);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(42), 8, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn odd_element_count_normal() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = normal(&mut rng, 3, 3, 0.0, 1.0);
        assert_eq!(m.as_slice().len(), 9);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }
}
