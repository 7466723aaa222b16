//! A plain multi-layer perceptron (`Linear` + ReLU stack) used by the MSCN
//! baseline and by Duet's MLP-based MPSN predicate embedder.

use crate::activation::Activation;
use crate::init::{Init, WeightSource};
use crate::linear::Linear;
use crate::param::{InferLayer, Param, Params};
use crate::tensor::Matrix;
use crate::workspace::{pick2, ForwardWorkspace, TrainBackwardParts, TrainWorkspace};

/// A feed-forward network: `Linear -> ReLU -> ... -> Linear` (no activation on
/// the final layer).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    sizes: Vec<usize>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[in, hidden, hidden, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], rng: &mut impl WeightSource) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let layers =
            sizes.windows(2).map(|w| Linear::new(w[0], w[1], Init::KaimingUniform, rng)).collect();
        Self { layers, sizes: sizes.to_vec() }
    }

    /// The layer sizes this MLP was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.sizes[0]
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        *self.sizes.last().expect("sizes cannot be empty")
    }

    /// Forward pass without caching; convenience for one-off calls.
    ///
    /// Allocates a throwaway workspace per call; hot paths should hold a
    /// persistent [`ForwardWorkspace`] and use [`InferLayer::infer_into`]
    /// instead.
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut ws = ForwardWorkspace::new();
        self.infer_into(input, &mut ws).clone()
    }

    /// The training forward through a [`TrainWorkspace`]: layer `i`'s output
    /// (rectified, for every layer but the last) is checkpointed into the
    /// workspace's `i`-th activation buffer — layer `i + 1`'s input for the
    /// backward — so the steady-state pass allocates nothing. The result is
    /// bit-identical to [`InferLayer::infer_into`]'s and lives in `tws` until
    /// the next pass overwrites it; the matching backward is
    /// [`Mlp::backward_scratch`], handed the same `input`.
    pub fn forward_train<'w>(&self, input: &Matrix, tws: &'w mut TrainWorkspace) -> &'w Matrix {
        let num = self.layers.len();
        let acts = tws.forward_parts(num).acts;
        for (i, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(i);
            let x = if i == 0 { input } else { &prev[i - 1] };
            layer.infer_raw(x, Activation::Identity, &mut rest[0]);
            if i + 1 < num {
                Activation::Relu.apply(rest[0].as_mut_slice());
            }
        }
        &acts[num - 1]
    }

    /// Scratch-buffer backward for the most recent [`Mlp::forward_train`],
    /// which read `input`. The gradient ping-pongs through the workspace's
    /// gradient buffers, each ReLU is gated in place against the rectified
    /// activation the forward checkpointed, and each layer's `dW`/`db` is
    /// staged in workspace scratch before it is added into `grad`: the
    /// network's gradient buffer, one `f32` per parameter in visiting order
    /// (the caller zeroes it before a step's first backward). With
    /// `need_input_grad` the gradient w.r.t. the network input is left
    /// readable via [`TrainWorkspace::input_grad`]; without it the first
    /// layer skips that matmul.
    ///
    /// # Panics
    /// Panics if called before a training forward.
    pub fn backward_scratch(
        &self,
        input: &Matrix,
        grad_out: &Matrix,
        tws: &mut TrainWorkspace,
        grad: &mut [f32],
        need_input_grad: bool,
    ) {
        let last = self.layers.len() - 1;
        let TrainBackwardParts { acts, grads, stage, .. } = tws.backward_parts(last + 1);
        let mut end = self.layers.iter().map(Linear::num_parameters).sum::<usize>();
        // Index of the grads buffer the *next* stage reads from.
        let mut cur = 0usize;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let x = if i == 0 { input } else { &acts[i - 1] };
            let start = end - layer.num_parameters();
            let g = &mut grad[start..end];
            end = start;
            let want = i > 0 || need_input_grad;
            if i == last {
                layer.backward_scratch(x, grad_out, g, stage, want.then_some(&mut grads[0]));
                continue;
            }
            Activation::Relu.gate(grads[cur].as_mut_slice(), acts[i].as_slice());
            let (g_out, g_in) = pick2(grads, cur);
            layer.backward_scratch(x, g_out, g, stage, want.then_some(g_in));
            if want {
                cur = (cur + 1) % 3;
            }
        }
        tws.set_input_grad_slot(cur);
    }
}

impl InferLayer for Mlp {
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        ws.rewind();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last { Activation::Relu } else { Activation::Identity };
            let (cur, next, _aux) = ws.split();
            let x = if i == 0 { input } else { &*cur };
            layer.infer_raw(x, act, next);
            ws.flip();
        }
        ws.output()
    }
}

impl Params for Mlp {
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::loss::mse;
    use crate::optim::Adam;

    #[test]
    fn shapes_are_correct() {
        let mut rng = seeded_rng(20);
        let mlp = Mlp::new(&[4, 8, 3], &mut rng);
        let y = mlp.forward_inference(&Matrix::zeros(5, 4));
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 3);
    }

    #[test]
    fn inference_path_matches_training_path() {
        let mut rng = seeded_rng(21);
        let mlp = Mlp::new(&[3, 6, 2], &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.9, 1.2, 0.0, -0.7]);
        let mut tws = TrainWorkspace::new();
        let trained = mlp.forward_train(&x, &mut tws).clone();
        assert_eq!(trained.as_slice(), mlp.forward_inference(&x).as_slice());
    }

    #[test]
    fn learns_xor() {
        let mut rng = seeded_rng(22);
        let mut mlp = Mlp::new(&[2, 16, 1], &mut rng);
        let xs = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut adam = Adam::new(0.02);
        let mut tws = TrainWorkspace::new();
        let mut grad = vec![0.0; mlp.param_count()];
        let mut final_loss = f32::MAX;
        for _ in 0..2000 {
            grad.fill(0.0);
            let (loss, grad_out) = mse(mlp.forward_train(&xs, &mut tws), &ys);
            mlp.backward_scratch(&xs, &grad_out, &mut tws, &mut grad, false);
            adam.step(&mut mlp, &grad);
            final_loss = loss;
        }
        assert!(final_loss < 0.03, "MLP failed to learn XOR, loss = {final_loss}");
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_sizes_panics() {
        let mut rng = seeded_rng(23);
        let _ = Mlp::new(&[4], &mut rng);
    }
}
