//! Element-wise activations: the forward clamp and its backward gate, each
//! written once.

/// Element-wise activation applied by the fused
/// [`Matrix::addmm_bias_act_into`](crate::tensor::Matrix::addmm_bias_act_into)
/// kernel on the inference path, and in place on the checkpointed
/// pre-activation by the training forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (final layers).
    Identity,
    /// `max(0, x)`, the clamp every hidden layer in this workspace uses.
    Relu,
}

impl Activation {
    /// Apply the activation in place.
    ///
    /// ReLU is branchless (`max(x, 0.0)` compiles to a vector max): the
    /// clamp runs on ~50%-negative pre-activations, where a conditional
    /// store mispredicts constantly and can cost more than the matmul it
    /// follows. Numerics note: `max` maps `-0.0` to `+0.0` and `NaN` to
    /// `0.0`, both of which the old branch preserved — indistinguishable
    /// for every finite computation downstream (only `NaN` inputs, which no
    /// trained model produces, could tell).
    #[inline]
    pub fn apply(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
        }
    }

    /// Back-propagate through the activation in place: zero `grad` wherever
    /// the forward clamped. `at` is either the pre-activation or the
    /// activation itself — for ReLU the two gate identically
    /// (`relu(x) > 0 ⇔ x > 0`), so a network may gate against whichever it
    /// already checkpointed.
    #[inline]
    pub fn gate(self, grad: &mut [f32], at: &[f32]) {
        debug_assert_eq!(grad.len(), at.len());
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &a) in grad.iter_mut().zip(at) {
                    if a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
        }
    }
}

/// Numerically stable sigmoid, used by the LSTM-style recurrent MPSN.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent wrapper (for symmetry with [`sigmoid`]).
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = [-1.0, 0.0, 0.5, 2.0];
        Activation::Relu.apply(&mut x);
        assert_eq!(x, [0.0, 0.0, 0.5, 2.0]);
        let mut y = [-1.0, 3.0];
        Activation::Identity.apply(&mut y);
        assert_eq!(y, [-1.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = [-1.0, 0.0, 0.5, 2.0];
        let mut act = pre;
        Activation::Relu.apply(&mut act);
        // Gating against the pre-activation and against the activation agree.
        for at in [pre, act] {
            let mut g = [1.0f32; 4];
            Activation::Relu.gate(&mut g, &at);
            assert_eq!(g, [0.0, 0.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn relu_inference_matches_training_path() {
        // Inference fuses the clamp into the matmul epilogue; training
        // checkpoints the pre-activation and clamps a copy in place.
        let x = Matrix::from_vec(2, 2, vec![-3.0, 1.0, 0.25, -0.25]);
        let w = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.75]);
        let bias = [0.1f32, -0.2];
        let (mut fused, mut staged) = (Matrix::default(), Matrix::default());
        x.addmm_bias_act_into(&w, Some(&bias), Activation::Relu, &mut fused);
        x.addmm_bias_act_into(&w, Some(&bias), Activation::Identity, &mut staged);
        Activation::Relu.apply(staged.as_mut_slice());
        assert_eq!(fused.as_slice(), staged.as_slice());
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(1.0) > sigmoid(-1.0));
        assert!((tanh(0.0)).abs() < 1e-6);
    }
}
