//! The Adam optimizer, operating on anything that implements [`Params`].
//!
//! The optimizer keeps its per-parameter state (Adam moments) in the order the
//! model visits its parameters — the layout of the flat gradient buffer the
//! networks' backward passes fill — so the same model instance must be used
//! for every step.

use crate::param::Params;

/// Gradient clipping configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GradClip {
    /// No clipping.
    None,
    /// Clip each element to `[-v, v]`.
    Value(f32),
}

/// Adam optimizer (Kingma & Ba) with optional per-element gradient clipping.
///
/// The first and second moments live in two **flat** buffers (one `f32` per
/// trainable scalar, in parameter-visitation order) with a per-parameter
/// offset table, instead of one heap vector per parameter — a single pair of
/// contiguous allocations regardless of how many layers the model has.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: GradClip,
    step: u64,
    /// First-moment estimates, all parameters concatenated.
    m: Vec<f32>,
    /// Second-moment estimates, same layout as `m`.
    v: Vec<f32>,
    /// `offsets[i]` is where parameter `i`'s slice starts in `m`/`v`; a final
    /// sentinel equal to `m.len()` closes the last slice.
    offsets: Vec<usize>,
}

impl Adam {
    /// Create Adam with the usual defaults (`beta1 = 0.9`, `beta2 = 0.999`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: GradClip::None,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Enable element-wise gradient clipping.
    pub fn with_clip(mut self, clip: GradClip) -> Self {
        self.clip = clip;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Apply one update to `layer`'s parameters from `grad`, the gradient
    /// buffer the backward passes filled (one `f32` per parameter, in
    /// visiting order — the moments' layout). The gradients are left
    /// untouched; the caller zeroes them before the next step's backward.
    ///
    /// The update goes through [`Params::visit_params`], so a masked layer
    /// re-masks and repacks once it is done. A forbidden weight stays
    /// exactly where it was: its gradient is `±0`, so both moments stay `0`
    /// and its update is `0`.
    ///
    /// # Panics
    /// Panics if `grad` is shorter than the parameters `layer` visits.
    pub fn step(&mut self, layer: &mut dyn Params, grad: &[f32]) {
        self.step += 1;
        let t = self.step as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let lr = self.lr;
        let (beta1, beta2, eps, clip) = (self.beta1, self.beta2, self.eps, self.clip);

        let mut idx = 0usize;
        let m_store = &mut self.m;
        let v_store = &mut self.v;
        let offsets = &mut self.offsets;
        layer.visit_params(&mut |p| {
            debug_assert_eq!(offsets.last(), Some(&m_store.len()));
            if idx + 1 == offsets.len() {
                // First step: lay this parameter out at the end of the flat
                // buffers and record the closing sentinel offset.
                m_store.resize(m_store.len() + p.len(), 0.0);
                v_store.resize(v_store.len() + p.len(), 0.0);
                offsets.push(m_store.len());
            }
            let (start, end) = (offsets[idx], offsets[idx + 1]);
            let m = &mut m_store[start..end];
            let v = &mut v_store[start..end];
            assert_eq!(m.len(), p.len(), "parameter shape changed between optimizer steps");
            let data = p.data.as_mut_slice();
            let grad = &grad[start..end];
            for i in 0..data.len() {
                let mut g = grad[i];
                if !g.is_finite() {
                    g = 0.0;
                }
                if let GradClip::Value(c) = clip {
                    g = g.clamp(-c, c);
                }
                m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                data[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::init::{seeded_rng, Init};
    use crate::linear::Linear;
    use crate::loss::mse;
    use crate::tensor::Matrix;
    use crate::workspace::GradStage;

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut rng = seeded_rng(99);
        let mut layer = Linear::new(1, 1, Init::KaimingUniform, &mut rng);
        // Learn y = 3x + 1.
        let xs = Matrix::from_vec(8, 1, (0..8).map(|i| i as f32 / 8.0).collect());
        let ys = Matrix::from_vec(8, 1, (0..8).map(|i| 3.0 * i as f32 / 8.0 + 1.0).collect());
        let mut adam = Adam::new(0.05);
        let (mut pred, mut stage) = (Matrix::default(), GradStage::default());
        let mut grad = vec![0.0; layer.num_parameters()];
        let mut loss = f32::MAX;
        for _ in 0..500 {
            grad.fill(0.0);
            layer.infer_raw(&xs, Activation::Identity, &mut pred);
            let (l, grad_out) = mse(&pred, &ys);
            layer.backward_scratch(&xs, &grad_out, &mut grad, &mut stage, None);
            adam.step(&mut layer, &grad);
            loss = l;
        }
        assert!(loss < 1e-3, "Adam failed to converge, loss = {loss}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn adam_clipping_limits_update_magnitude() {
        let mut rng = seeded_rng(100);
        let mut layer = Linear::new(1, 1, Init::Zeros, &mut rng);
        let before: Vec<f32> = {
            let mut v = Vec::new();
            layer.visit_params_ref(&mut |p| v.extend_from_slice(p.data.as_slice()));
            v
        };
        // Gigantic gradient.
        let grad = vec![1e9; layer.param_count()];
        let mut adam = Adam::new(0.1).with_clip(GradClip::Value(1.0));
        adam.step(&mut layer, &grad);
        let mut after = Vec::new();
        layer.visit_params_ref(&mut |p| after.extend_from_slice(p.data.as_slice()));
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() <= 0.11, "clipped Adam step too large: {b} -> {a}");
        }
    }

    #[test]
    fn non_finite_gradients_are_ignored() {
        let mut rng = seeded_rng(101);
        let mut layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        let grad = vec![f32::NAN; layer.param_count()];
        let mut before = Vec::new();
        layer.visit_params_ref(&mut |p| before.extend_from_slice(p.data.as_slice()));
        let mut adam = Adam::new(0.1);
        adam.step(&mut layer, &grad);
        let mut after = Vec::new();
        layer.visit_params_ref(&mut |p| after.extend_from_slice(p.data.as_slice()));
        assert!(after.iter().all(|x| x.is_finite()));
        assert_eq!(before, after);
    }
}
