//! Fully connected layers: plain [`Linear`] and [`MaskedLinear`] (the building
//! block of MADE, where unit degrees decide which connections exist and so
//! enforce the autoregressive property).
//!
//! Neither layer runs on its own: the composite networks
//! ([`Mlp`](crate::mlp::Mlp), [`Made`](crate::made::Made)) chain them through
//! a workspace. Each has one inference forward into a caller buffer (the
//! training forward is the same product), and one scratch backward that
//! reads the input the caller's training workspace checkpointed and adds
//! the parameter gradients into the caller's slice of a flat gradient
//! buffer (weight, then bias). A layer holds its parameters and, if masked,
//! the pack of its weight — nothing that training or serving derives.
//!
//! A [`MaskedLinear`] stores its weight **masked**: every entry its degrees
//! forbid is multiplied by `0.0` when the layer is built and again after
//! every mutable visit (optimizer step, checkpoint load), and its
//! [`PackedWeight`] is refilled in place at the same moments. So `W` *is*
//! `W ⊙ M`, and every kernel reads it directly. The masked inference forward
//! picks one of two kernels by batch shape and input density — the layer's
//! pack or the naive zero-skipping loop over `W` — and both give the same
//! bits for finite inputs, for the full output width or any column range of
//! it.

use crate::activation::Activation;
use crate::init::{Init, WeightSource};
use crate::kernels::{self, PackedWeight, SparseRows};
use crate::param::{Param, Params};
use crate::tensor::Matrix;
use crate::workspace::GradStage;
use std::ops::Range;

/// `y = x @ W + b`, with `W` of shape `(in_features, out_features)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Create a layer with the given initialization.
    pub fn new(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut impl WeightSource,
    ) -> Self {
        Self {
            weight: Param::new(rng.weights(init, in_features, out_features)),
            bias: Param::new(Matrix::zeros(1, out_features)),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.data.rows()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.data.cols()
    }

    /// Number of trainable scalars (weight + bias).
    pub fn num_parameters(&self) -> usize {
        self.weight.data.len() + self.bias.data.len()
    }

    /// Allocation-free fused forward: `out = act(input @ W + b)` written into
    /// a caller buffer (reshaped, heap reused). The building block the
    /// composite networks chain through their workspace; with
    /// [`Activation::Identity`] it is also the training forward.
    pub fn infer_raw(&self, input: &Matrix, act: Activation, out: &mut Matrix) {
        input.addmm_bias_act_into(&self.weight.data, Some(self.bias.data.as_slice()), act, out);
    }

    /// Scratch-buffer backward of `out = input @ W + b`. Stages
    /// `dW = input^T @ grad_out` and the bias column sums in `stage`, adds
    /// both into `grad` (this layer's weight-then-bias slice of the
    /// gradient buffer, one rounding per element), and writes the input
    /// gradient `grad_out @ W^T` into `grad_in` when the caller needs one.
    pub(crate) fn backward_scratch(
        &self,
        input: &Matrix,
        grad_out: &Matrix,
        grad: &mut [f32],
        stage: &mut GradStage,
        grad_in: Option<&mut Matrix>,
    ) {
        input.matmul_tn_into(grad_out, &mut stage.dw);
        grad_out.column_sums_into(&mut stage.db);
        stage.add_into(grad);
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(&self.weight.data, grad_in);
        }
    }
}

impl Params for Linear {
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// A linear layer whose connections are restricted by unit degrees:
/// `y = x @ (W ⊙ M) + b`, where `M[i][j]` is 1 iff output unit `j` may read
/// input unit `i` — `out_degrees[j] >= in_degrees[i]` between hidden layers,
/// `out_degrees[j] > in_degrees[i]` (strict) into the output layer.
///
/// The mask is what turns a stack of fully connected layers into a MADE: it
/// zeroes the connections that would violate the autoregressive ordering.
/// It is never materialized: the weight is stored with the forbidden entries
/// already multiplied by `0.0` (see the module docs), which is exactly the
/// value `W ⊙ M` has, signed zeros included, and the layer's pack is built
/// from that weight whenever it changes.
#[derive(Debug, Clone)]
pub struct MaskedLinear {
    weight: Param,
    bias: Param,
    mask: DegreeMask,
    /// The mask-aware pack of `weight`, current with it at all times.
    packed: PackedWeight,
}

/// The connectivity mask `M` of a [`MaskedLinear`], as its unit degrees and
/// the comparison between them.
#[derive(Debug, Clone)]
struct DegreeMask {
    /// Per input unit, the least output degree that may read it: the unit's
    /// degree, plus one into the output layer (strictly greater degrees).
    least_reader: Vec<u32>,
    out_degrees: Vec<u32>,
}

impl DegreeMask {
    fn new(in_degrees: &[usize], out_degrees: &[usize], strict: bool) -> Self {
        let degree = |d: usize| u32::try_from(d).expect("a degree is a column index");
        Self {
            least_reader: in_degrees.iter().map(|&d| degree(d) + u32::from(strict)).collect(),
            out_degrees: out_degrees.iter().map(|&d| degree(d)).collect(),
        }
    }

    /// Multiply every entry of `m` (row-major, shaped like the weight) by
    /// its mask value, `1.0` or `0.0` — the exact product `m ⊙ M`, with the
    /// sign of a zeroed entry kept.
    fn apply(&self, m: &mut [f32]) {
        let n = self.out_degrees.len();
        for (row, &least) in m.chunks_exact_mut(n).zip(&self.least_reader) {
            for (x, &d_out) in row.iter_mut().zip(&self.out_degrees) {
                *x *= if d_out >= least { 1.0 } else { 0.0 };
            }
        }
    }
}

impl MaskedLinear {
    /// Create a masked layer from its input and output unit degrees. The
    /// initializer draws every entry of the weight before the forbidden ones
    /// are zeroed, so the random stream does not depend on the mask.
    pub fn new(
        in_degrees: &[usize],
        out_degrees: &[usize],
        strict: bool,
        init: Init,
        rng: &mut impl WeightSource,
    ) -> Self {
        let mut layer = Self {
            weight: Param::new(rng.weights(init, in_degrees.len(), out_degrees.len())),
            bias: Param::new(Matrix::zeros(1, out_degrees.len())),
            mask: DegreeMask::new(in_degrees, out_degrees, strict),
            packed: PackedWeight::new(),
        };
        layer.remask_and_pack();
        layer
    }

    /// Restore the layer's invariant after its weight may have changed:
    /// zero the forbidden entries, then refill the pack in place.
    fn remask_and_pack(&mut self) {
        let w = &mut self.weight.data;
        self.mask.apply(w.as_mut_slice());
        self.packed.fill_from(w.as_slice(), w.rows(), w.cols());
    }

    /// The inference forward: `out = act(input @ W + b)`, picking the
    /// fastest kernel for the batch: dense batches run the mask-aware
    /// **packed** kernel on the layer's pack (all-zero weight strips
    /// skipped), sparse or small batches the naive kernel over `W` (whose
    /// zero-*input* skipping wins there). All paths are bit-identical for
    /// finite inputs.
    pub fn infer(&self, input: &Matrix, act: Activation, out: &mut Matrix) {
        let packed = self.runs_packed(input);
        let n = self.out_features();
        out.resize_for_overwrite(input.rows(), n);
        self.infer_cols(input, act, packed, 0..n, out.as_mut_slice());
    }

    /// The kernel class [`MaskedLinear::infer`] picks for `input`: `true`
    /// for the packed kernel (a batch shape it pays off on, and an input
    /// dense enough), `false` for the naive kernel. The density scan only
    /// runs for an eligible shape.
    pub(crate) fn runs_packed(&self, input: &Matrix) -> bool {
        let (m, k) = input.shape();
        kernels::use_packed(m, k, self.out_features()) && kernels::mostly_dense(input.as_slice())
    }

    /// `out = act(input @ W[:, cols] + b[cols])` into a caller slice of
    /// `cols.len()` values per row, on the kernel class `packed` names (see
    /// [`MaskedLinear::runs_packed`]). Each output element is the same dot
    /// product whatever range and kernel compute it, so a column range of a
    /// product is bit-identical to the same columns of the full one.
    pub(crate) fn infer_cols(
        &self,
        input: &Matrix,
        act: Activation,
        packed: bool,
        cols: Range<usize>,
        out: &mut [f32],
    ) {
        let bias = Some(self.bias.data.as_slice());
        if packed {
            let (a, m) = (input.as_slice(), input.rows());
            kernels::addmm_packed(a, m, &self.packed, cols, bias, act, out);
        } else {
            input.addmm_dispatch(&self.weight.data, bias, act, Some(false), cols, out);
        }
    }

    /// The training forward: `out = input @ W + b` into a reused caller
    /// buffer (no activation — the caller applies it). Without `sparse` the
    /// product runs through the same kernel dispatch as
    /// [`MaskedLinear::infer`]. With `sparse` — a row capture of `input` —
    /// the product touches only the nonzero entries, bit-identical for
    /// finite inputs (the sparse kernel accumulates in the same column-index
    /// order the dense zero-skip path does; see `duet_nn::kernels`); the
    /// matching `backward_scratch` takes the same capture.
    pub fn train_forward(&self, input: &Matrix, sparse: Option<&SparseRows>, out: &mut Matrix) {
        match sparse {
            Some(sparse) => {
                debug_assert_eq!((sparse.rows(), sparse.cols()), input.shape());
                let bias = Some(self.bias.data.as_slice());
                sparse.addmm_bias_act_into(&self.weight.data, bias, Activation::Identity, out);
            }
            None => self.infer(input, Activation::Identity, out),
        }
    }

    /// Scratch-buffer backward of the training forward that read `input`
    /// (or its capture `sparse`, which then supplies the product). Stages
    /// the masked weight gradient `(input^T @ grad_out) ⊙ M` and the bias
    /// column sums in `stage`, adds both into `grad` (this layer's
    /// weight-then-bias slice of the gradient buffer, one rounding per
    /// element), and writes `grad_out @ W^T` into `grad_in` when the caller
    /// needs the input gradient.
    pub(crate) fn backward_scratch(
        &self,
        input: &Matrix,
        sparse: Option<&SparseRows>,
        grad_out: &Matrix,
        grad: &mut [f32],
        stage: &mut GradStage,
        grad_in: Option<&mut Matrix>,
    ) {
        match sparse {
            Some(sparse) => sparse.matmul_tn_into(grad_out, &mut stage.dw),
            None => input.matmul_tn_into(grad_out, &mut stage.dw),
        }
        self.mask.apply(stage.dw.as_mut_slice());
        grad_out.column_sums_into(&mut stage.db);
        stage.add_into(grad);
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(&self.weight.data, grad_in);
        }
    }

    /// Number of trainable scalars (weight + bias).
    pub fn num_parameters(&self) -> usize {
        self.weight.data.len() + self.bias.data.len()
    }

    /// Bytes this layer holds for serving: its parameters and its pack.
    pub fn resident_bytes(&self) -> usize {
        self.num_parameters() * std::mem::size_of::<f32>() + self.packed.bytes()
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.mask.least_reader.len()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.mask.out_degrees.len()
    }
}

impl Params for MaskedLinear {
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
        self.remask_and_pack();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::mlp::Mlp;
    use crate::workspace::TrainWorkspace;

    /// `layer`'s training forward + scratch backward on a zeroed gradient
    /// buffer; returns `(output, input gradient, parameter gradient)`.
    fn masked_pair(
        layer: &MaskedLinear,
        x: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, Matrix, Vec<f32>) {
        let (mut out, mut grad_in) = (Matrix::default(), Matrix::default());
        let mut grad = vec![0.0; layer.num_parameters()];
        layer.train_forward(x, None, &mut out);
        let mut stage = GradStage::default();
        layer.backward_scratch(x, None, grad_out, &mut grad, &mut stage, Some(&mut grad_in));
        (out, grad_in, grad)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = seeded_rng(1);
        let mut layer = Linear::new(3, 2, Init::Zeros, &mut rng);
        layer.bias.data.as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let x = Matrix::full(4, 3, 2.0);
        let mut y = Matrix::default();
        layer.infer_raw(&x, Activation::Identity, &mut y);
        assert_eq!(y.shape(), (4, 2));
        // Zero weights => output equals bias.
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn linear_backward_accumulates_grads() {
        let mut rng = seeded_rng(2);
        let layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let (mut gin, mut stage) = (Matrix::default(), GradStage::default());
        let mut grad = vec![0.0; layer.num_parameters()];
        layer.backward_scratch(&x, &g, &mut grad, &mut stage, Some(&mut gin));
        assert_eq!(gin.shape(), (1, 2));
        assert_eq!(grad, [1.0, 1.0, 2.0, 2.0, 1.0, 1.0], "dW = x^T g, then db = g");
        // A second backward adds onto the first.
        layer.backward_scratch(&x, &g, &mut grad, &mut stage, None);
        assert_eq!(grad, [2.0, 2.0, 4.0, 4.0, 2.0, 2.0]);
    }

    #[test]
    fn masked_linear_blocks_connections() {
        let mut rng = seeded_rng(3);
        // Degrees that block input 0 from reaching output 0.
        let layer = MaskedLinear::new(&[1, 0], &[0, 1], false, Init::KaimingUniform, &mut rng);
        let g = Matrix::zeros(1, 2);
        let (base, _, _) = masked_pair(&layer, &Matrix::from_vec(1, 2, vec![0.0, 1.0]), &g);
        let (moved, _, _) = masked_pair(&layer, &Matrix::from_vec(1, 2, vec![100.0, 1.0]), &g);
        // Output 0 must be unchanged when only input 0 changes.
        assert!((base.get(0, 0) - moved.get(0, 0)).abs() < 1e-6);
        // Output 1 is allowed to change (with overwhelming probability).
        assert!((base.get(0, 1) - moved.get(0, 1)).abs() > 1e-3);
    }

    #[test]
    fn masked_linear_grad_respects_mask() {
        let mut rng = seeded_rng(4);
        let layer = MaskedLinear::new(&[1, 0], &[0, 1], false, Init::KaimingUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, _, grad) = masked_pair(&layer, &x, &Matrix::full(1, 2, 1.0));
        // Weight gradient (row-major, first four scalars) must be zero
        // exactly where the connection is forbidden: (0, 0).
        assert_eq!(&grad[..4], &[0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        // A layer's backward reads the input its network's training forward
        // checkpointed; a one-layer `Mlp` has none before its first forward.
        let mut rng = seeded_rng(5);
        let mlp = Mlp::new(&[2, 2], &mut rng);
        let mut grad = vec![0.0; mlp.param_count()];
        let (x, grad_out) = (Matrix::zeros(1, 2), Matrix::zeros(1, 2));
        mlp.backward_scratch(&x, &grad_out, &mut TrainWorkspace::new(), &mut grad, false);
    }

    #[test]
    fn weights_are_stored_masked() {
        // At construction and after every mutable visit the weight holds
        // exactly `W ⊙ M`: forbidden entries are zero, signed like the value
        // they replace, and the pack serves that weight.
        let mut rng = seeded_rng(5);
        let (ins, outs) = ([0usize, 1, 2, 0], [1usize, 2, 0, 2, 1, 0, 2, 1, 1, 2]);
        let mut layer = MaskedLinear::new(&ins, &outs, true, Init::KaimingUniform, &mut rng);
        let forbidden = |i: usize, j: usize| outs[j] <= ins[i];
        let w = layer.weight.data.clone();
        for i in 0..ins.len() {
            for j in 0..outs.len() {
                assert_eq!(w.get(i, j) == 0.0, forbidden(i, j), "entry ({i}, {j})");
            }
        }
        let mut written = Vec::new();
        layer.visit_params(&mut |p| {
            if p.data.rows() > 1 {
                p.data.as_mut_slice().iter_mut().enumerate().for_each(|(k, v)| {
                    *v = if k % 2 == 0 { 3.0 } else { -3.0 };
                });
                written = p.data.as_slice().to_vec();
            }
        });
        let n = outs.len();
        for (k, (&v, &raw)) in layer.weight.data.as_slice().iter().zip(&written).enumerate() {
            assert_eq!(
                v.to_bits(),
                (raw * if forbidden(k / n, k % n) { 0.0 } else { 1.0 }).to_bits()
            );
        }
        // The pack follows: a dense batch big enough for the packed kernel
        // gives the naive kernel's bits.
        let x = Matrix::from_fn(16, ins.len(), |r, c| (r * 7 + c) as f32 * 0.25 + 0.5);
        assert!(layer.runs_packed(&x));
        let (mut packed, mut naive) = (Matrix::default(), Matrix::default());
        layer.infer(&x, Activation::Identity, &mut packed);
        x.addmm_bias_act_into(&layer.weight.data, None, Activation::Identity, &mut naive);
        assert_eq!(packed, naive);
    }
}
