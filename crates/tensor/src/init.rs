//! Random parameter initialization.
//!
//! Deterministic seeding is used throughout the reproduction so every
//! experiment is replayable; all constructors take an explicit `Rng`.

use crate::Matrix;
use rand::Rng;

/// Samples a matrix with i.i.d. `N(0, std²)` entries (Box–Muller from the
/// provided uniform RNG, so only `rand`'s core is required).
pub fn normal(rows: usize, cols: usize, std: f64, rng: &mut impl Rng) -> Matrix {
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        // Box–Muller transform: two uniforms -> two standard normals.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// Samples a matrix with i.i.d. `U(-limit, limit)` entries.
pub fn uniform(rows: usize, cols: usize, limit: f64, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-limit..limit))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot uniform initialization for a `fan_in × fan_out` weight.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform(fan_in, fan_out, limit, rng)
}

/// BERT-style truncated-ish normal init (std 0.02), as in Devlin et al.
pub fn bert_normal(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    normal(rows, cols, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = normal(200, 200, 2.0, &mut rng);
        let mean = m.mean();
        let var = m
            .as_slice()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (m.len() - 1) as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std={}", var.sqrt());
    }

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = uniform(50, 50, 0.3, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x.abs() < 0.3));
    }

    #[test]
    fn xavier_limit_scales_with_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = xavier_uniform(300, 300, &mut rng);
        let limit = (6.0_f64 / 600.0).sqrt();
        assert!(m.max_abs() <= limit);
        assert!(m.max_abs() > limit * 0.8); // actually fills the range
    }

    #[test]
    fn deterministic_given_seed() {
        let a = normal(4, 4, 1.0, &mut StdRng::seed_from_u64(7));
        let b = normal(4, 4, 1.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn odd_element_count_is_filled() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = normal(3, 3, 1.0, &mut rng);
        assert_eq!(m.len(), 9);
        assert!(m.all_finite());
    }
}
