//! Weight initialization schemes.
//!
//! The Duet / Naru models are ReLU MLPs, so Kaiming (He) initialization is the
//! default. Xavier/Glorot is provided for the linear output heads and the
//! LSTM-style gates of the recurrent MPSN.

use crate::tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Initialization scheme for a weight matrix of shape `(fan_in, fan_out)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Kaiming/He uniform, suited for layers followed by ReLU.
    KaimingUniform,
    /// Xavier/Glorot uniform, suited for linear or sigmoid/tanh layers.
    XavierUniform,
    /// All zeros (used for biases and for testing).
    Zeros,
}

impl Init {
    /// Sample a `(fan_in, fan_out)` weight matrix using this scheme.
    pub fn matrix(self, fan_in: usize, fan_out: usize, rng: &mut SmallRng) -> Matrix {
        match self {
            Init::Zeros => Matrix::zeros(fan_in, fan_out),
            Init::KaimingUniform => {
                let bound = (6.0 / fan_in.max(1) as f32).sqrt();
                uniform_matrix(fan_in, fan_out, bound, rng)
            }
            Init::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                uniform_matrix(fan_in, fan_out, bound, rng)
            }
        }
    }
}

/// Where a new layer's weight matrices come from. Every constructor takes
/// one, so the same code builds a model to train or a skeleton to load.
pub trait WeightSource {
    /// A `(fan_in, fan_out)` weight matrix for a layer initialized by `init`.
    fn weights(&mut self, init: Init, fan_in: usize, fan_out: usize) -> Matrix;
}

/// An RNG draws every matrix by its scheme ([`Init::matrix`]).
impl WeightSource for SmallRng {
    fn weights(&mut self, init: Init, fan_in: usize, fan_out: usize) -> Matrix {
        init.matrix(fan_in, fan_out, self)
    }
}

/// All-zero weights whatever the scheme, drawing nothing: the skeleton a
/// checkpoint is loaded into. A masked layer built from it packs no strip.
#[derive(Debug, Clone, Copy, Default)]
pub struct Skeleton;

impl WeightSource for Skeleton {
    fn weights(&mut self, _: Init, fan_in: usize, fan_out: usize) -> Matrix {
        Matrix::zeros(fan_in, fan_out)
    }
}

fn uniform_matrix(rows: usize, cols: usize, bound: f32, rng: &mut SmallRng) -> Matrix {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(rng.gen_range(-bound..=bound));
    }
    Matrix::from_vec(rows, cols, data)
}

/// Deterministic RNG used across the workspace so experiments are repeatable.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = seeded_rng(7);
        let m = Init::KaimingUniform.matrix(64, 32, &mut rng);
        let bound = (6.0 / 64.0f32).sqrt() + 1e-6;
        assert!(m.as_slice().iter().all(|x| x.abs() <= bound));
        // Not all zero.
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = seeded_rng(8);
        let m = Init::XavierUniform.matrix(10, 30, &mut rng);
        let bound = (6.0 / 40.0f32).sqrt() + 1e-6;
        assert!(m.as_slice().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = seeded_rng(9);
        let m = Init::Zeros.matrix(4, 4, &mut rng);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let xa: f32 = a.gen();
        let xb: f32 = b.gen();
        assert_eq!(xa, xb);
    }
}
