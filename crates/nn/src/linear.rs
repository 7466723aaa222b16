//! Fully connected layers: plain [`Linear`] and [`MaskedLinear`] (the building
//! block of MADE, where a binary mask enforces the autoregressive property).
//!
//! Neither layer runs on its own: the composite networks
//! ([`Mlp`](crate::mlp::Mlp), [`Made`](crate::made::Made)) chain them through
//! a workspace. Each has one inference forward into a caller buffer
//! (caching nothing), one training forward that additionally caches its input,
//! and one scratch backward that consumes that cache. The masked inference
//! forward picks one of two kernels by batch shape and input density — the
//! cached pack or the naive zero-skipping loop — and both give the same bits
//! for finite inputs, for the full output width or any column range of it.

use crate::activation::Activation;
use crate::init::Init;
use crate::kernels::{self, SparseRows};
use crate::param::{cache_input, Param, Params, WeightKey};
use crate::tensor::Matrix;
use crate::workspace::MaskedEntry;
use rand::rngs::SmallRng;
use std::ops::Range;

/// `y = x @ W + b`, with `W` of shape `(in_features, out_features)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Create a layer with the given initialization.
    pub fn new(in_features: usize, out_features: usize, init: Init, rng: &mut SmallRng) -> Self {
        Self {
            weight: Param::new(init.matrix(in_features, out_features, rng)),
            bias: Param::new(Matrix::zeros(1, out_features)),
            cached_input: None,
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

    /// Allocation-free fused forward: `out = act(input @ W + b)` written into
    /// a caller buffer (reshaped, heap reused). The building block the
    /// composite networks chain through their workspace.
    pub fn infer_raw(&self, input: &Matrix, act: Activation, out: &mut Matrix) {
        input.addmm_bias_act_into(&self.weight.data, Some(self.bias.data.as_slice()), act, out);
    }

    /// Training forward: caches `input` for [`Linear::backward_scratch`]
    /// (reusing the previous cache's allocation), then computes
    /// `out = input @ W + b` — no activation, the caller applies it.
    pub fn train_forward(&mut self, input: &Matrix, out: &mut Matrix) {
        cache_input(&mut self.cached_input, input);
        self.infer_raw(input, Activation::Identity, out);
    }

    /// Scratch-buffer backward. Stages `dW = input^T @ grad_out` in `dw` and
    /// the bias column sums in `db` before accumulating both into the
    /// parameter gradients (so a parameter gradient is always `grad + dW`,
    /// one rounding per step), and writes the input gradient
    /// `grad_out @ W^T` into `grad_in` when the caller needs one.
    ///
    /// # Panics
    /// Panics if called before a training forward cached the input.
    pub fn backward_scratch(
        &mut self,
        grad_out: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: Option<&mut Matrix>,
    ) {
        let input = self.cached_input.as_ref().expect("Linear::backward called before forward");
        input.matmul_tn_into(grad_out, dw);
        self.weight.grad.add_assign(dw);
        grad_out.column_sums_into(db);
        for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(db.iter()) {
            *g += *d;
        }
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(&self.weight.data, grad_in);
        }
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// A linear layer whose weight matrix is element-wise multiplied by a fixed
/// binary mask: `y = x @ (W ⊙ M) + b`.
///
/// The mask is what turns a stack of fully connected layers into a MADE: it
/// zeroes the connections that would violate the autoregressive ordering.
///
/// Each instance carries a [`WeightKey`] so downstream caches of the masked
/// effective weight (`W ⊙ M`) — see
/// [`MaskedWeightCache`](crate::workspace::MaskedWeightCache) — can validate
/// against the exact weights that produced them. The key's version bumps on
/// every `visit_params` (the only mutable route to the weights), and clones
/// get a fresh identity, which is what invalidates workspace caches across
/// optimizer steps, checkpoint loads, and serving hot-swaps.
#[derive(Debug)]
pub struct MaskedLinear {
    weight: Param,
    bias: Param,
    mask: Matrix,
    cached_input: Option<Matrix>,
    key: WeightKey,
}

impl Clone for MaskedLinear {
    /// Clones carry the same weights but a **fresh** [`WeightKey`]: the
    /// clone's parameters can diverge from the original's (that is what
    /// checkpoint hot-swap does), so cached effective weights must never be
    /// shared between them.
    fn clone(&self) -> Self {
        Self {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            mask: self.mask.clone(),
            cached_input: self.cached_input.clone(),
            key: WeightKey::fresh(),
        }
    }
}

impl MaskedLinear {
    /// Create a masked layer. `mask` must have shape `(in_features, out_features)`
    /// and contain only 0.0 / 1.0 entries.
    pub fn new(
        in_features: usize,
        out_features: usize,
        mask: Matrix,
        init: Init,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(mask.shape(), (in_features, out_features), "mask shape must match weight shape");
        debug_assert!(mask.as_slice().iter().all(|&x| x == 0.0 || x == 1.0), "mask must be binary");
        Self {
            weight: Param::new(init.matrix(in_features, out_features, rng)),
            bias: Param::new(Matrix::zeros(1, out_features)),
            mask,
            cached_input: None,
            key: WeightKey::fresh(),
        }
    }

    /// The current identity/version key of this layer's weights (see
    /// [`WeightKey`]); cached masked effective weights are valid exactly as
    /// long as this key is unchanged.
    pub fn weight_key(&self) -> WeightKey {
        self.key
    }

    /// Materialize the masked effective weight `W ⊙ M` into `out` (reshaped,
    /// buffer reused). This is the fill callback for
    /// [`MaskedWeightCache::entry`](crate::workspace::MaskedWeightCache::entry).
    pub fn fill_masked(&self, out: &mut Matrix) {
        self.weight.data.masked_into(&self.mask, out);
    }

    /// The inference forward: `out = act(input @ (W ⊙ M) + b)` against a
    /// cached entry for this layer's effective weight, picking the fastest
    /// kernel for the batch: dense batches run the mask-aware **packed**
    /// kernel (all-zero weight strips skipped, no per-call packing), sparse
    /// or small batches run the naive kernel against the cached dense weight
    /// (whose zero-*input* skipping wins there). All paths are bit-identical
    /// for finite inputs.
    ///
    /// `entry` must come from [`MaskedWeightCache::entry`] keyed by this
    /// layer's [`MaskedLinear::weight_key`].
    ///
    /// [`MaskedWeightCache::entry`]: crate::workspace::MaskedWeightCache::entry
    pub fn infer_entry(
        &self,
        input: &Matrix,
        act: Activation,
        entry: &mut MaskedEntry,
        out: &mut Matrix,
    ) {
        let packed = self.runs_packed(input);
        let n = self.out_features();
        out.resize_for_overwrite(input.rows(), n);
        self.infer_cols(input, act, entry, packed, 0..n, out.as_mut_slice());
    }

    /// The kernel class [`MaskedLinear::infer_entry`] picks for `input`:
    /// `true` for the packed kernel (a batch shape it pays off on, and an
    /// input dense enough), `false` for the naive kernel against the cached
    /// dense weight. The density scan only runs for an eligible shape.
    pub(crate) fn runs_packed(&self, input: &Matrix) -> bool {
        let (m, k) = input.shape();
        kernels::use_packed(m, k, self.out_features()) && kernels::mostly_dense(input.as_slice())
    }

    /// `out = act(input @ (W ⊙ M)[:, cols] + b[cols])` into a caller slice
    /// of `cols.len()` values per row, on the kernel class `packed` names
    /// (see [`MaskedLinear::runs_packed`]). Each output element is the same
    /// dot product whatever range and kernel compute it, so a column range
    /// of a product is bit-identical to the same columns of the full one.
    pub(crate) fn infer_cols(
        &self,
        input: &Matrix,
        act: Activation,
        entry: &mut MaskedEntry,
        packed: bool,
        cols: Range<usize>,
        out: &mut [f32],
    ) {
        let bias = Some(self.bias.data.as_slice());
        if packed {
            kernels::addmm_packed(
                input.as_slice(),
                input.rows(),
                entry.packed(),
                cols,
                bias,
                act,
                out,
            );
        } else {
            input.addmm_dispatch(entry.weight(), bias, act, Some(false), cols, out);
        }
    }

    /// The training forward: `out = input @ (W ⊙ M) + b` into a reused caller
    /// buffer (no activation — the caller applies it), against the effective
    /// weight in `entry` (re-materialized in place only when the
    /// [`WeightKey`] moved, i.e. once per optimizer step).
    ///
    /// Without `sparse` the input is cached for the backward (reusing the
    /// previous cache's allocation) and the product runs through the same
    /// kernel dispatch as [`MaskedLinear::infer_entry`]. With `sparse` — a
    /// row capture of `input` — the product touches only the nonzero
    /// entries, bit-identical for finite inputs (the sparse kernel
    /// accumulates in the same column-index order the dense zero-skip path
    /// does; see `duet_nn::kernels`), and the dense input is **not** cached:
    /// the capture replaces it, so the matching
    /// [`backward_scratch`](Self::backward_scratch) must be handed the same
    /// capture and panics without it rather than silently using a stale
    /// input.
    pub fn train_forward(
        &mut self,
        input: &Matrix,
        sparse: Option<&SparseRows>,
        entry: &mut MaskedEntry,
        out: &mut Matrix,
    ) {
        match sparse {
            Some(sparse) => {
                debug_assert_eq!((sparse.rows(), sparse.cols()), input.shape());
                self.cached_input = None;
                let bias = Some(self.bias.data.as_slice());
                sparse.addmm_bias_act_into(entry.weight(), bias, Activation::Identity, out);
            }
            None => {
                cache_input(&mut self.cached_input, input);
                self.infer_entry(input, Activation::Identity, entry, out);
            }
        }
    }

    /// The input cached by the most recent dense training forward.
    ///
    /// # Panics
    /// Panics if no dense training forward cached one.
    pub(crate) fn cached_input(&self) -> &Matrix {
        self.cached_input.as_ref().expect("MaskedLinear::backward called before forward")
    }

    /// Scratch-buffer backward against an already-materialized effective
    /// weight `w` (a [`MaskedWeightCache`](crate::workspace::MaskedWeightCache)
    /// hit — backward runs before the optimizer bumps the
    /// [`WeightKey`], so the cached entry is exactly `W ⊙ M`). The weight
    /// gradient `input^T @ grad_out` is taken from `sparse` when the forward
    /// consumed a capture, from the cached dense input otherwise. Stages the
    /// masked `dW` in `dw` and the bias column sums in `db` before
    /// accumulating into the parameter gradients (so a parameter gradient is
    /// always `grad + dW`, one rounding per step); writes `grad_out @ w^T`
    /// into `grad_in` when the caller needs the input gradient.
    ///
    /// # Panics
    /// Panics if `sparse` is `None` and no dense training forward cached the
    /// input.
    pub fn backward_scratch(
        &mut self,
        grad_out: &Matrix,
        sparse: Option<&SparseRows>,
        w: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: Option<&mut Matrix>,
    ) {
        debug_assert_eq!(w.shape(), self.weight.data.shape());
        match sparse {
            Some(sparse) => sparse.matmul_tn_into(grad_out, dw),
            None => self.cached_input().matmul_tn_into(grad_out, dw),
        }
        dw.mul_assign(&self.mask);
        self.weight.grad.add_assign(dw);
        grad_out.column_sums_into(db);
        for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(db.iter()) {
            *g += *d;
        }
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(w, grad_in);
        }
    }

    /// The binary connectivity mask.
    pub fn mask(&self) -> &Matrix {
        &self.mask
    }

    /// Number of trainable scalars (weight + bias), computable without
    /// mutable access — sizes come from the stored shapes, not from
    /// materializing the effective weight.
    pub fn num_parameters(&self) -> usize {
        self.weight.data.len() + self.bias.data.len()
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.data.rows()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.data.cols()
    }
}

impl Params for MaskedLinear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Handing out `&mut Param` may mutate the weights (optimizer step,
        // checkpoint load): conservatively invalidate derived caches.
        self.key.bump();
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::workspace::MaskedWeightCache;

    /// `layer`'s training forward + scratch backward with throw-away scratch;
    /// returns `(output, input gradient)`.
    fn masked_pair(layer: &mut MaskedLinear, x: &Matrix, grad_out: &Matrix) -> (Matrix, Matrix) {
        let mut cache = MaskedWeightCache::default();
        let entry = cache.entry(0, layer.weight_key(), |w| layer.fill_masked(w));
        let (mut out, mut grad_in) = (Matrix::default(), Matrix::default());
        layer.train_forward(x, None, entry, &mut out);
        let (mut dw, mut db) = (Matrix::default(), Vec::new());
        layer.backward_scratch(
            grad_out,
            None,
            entry.weight(),
            &mut dw,
            &mut db,
            Some(&mut grad_in),
        );
        (out, grad_in)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = seeded_rng(1);
        let mut layer = Linear::new(3, 2, Init::Zeros, &mut rng);
        layer.bias.data.as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let x = Matrix::full(4, 3, 2.0);
        let mut y = Matrix::default();
        layer.train_forward(&x, &mut y);
        assert_eq!(y.shape(), (4, 2));
        // Zero weights => output equals bias.
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn linear_backward_accumulates_grads() {
        let mut rng = seeded_rng(2);
        let mut layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        layer.train_forward(&x, &mut Matrix::default());
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut gin = Matrix::default();
        layer.backward_scratch(&g, &mut Matrix::default(), &mut Vec::new(), Some(&mut gin));
        assert_eq!(gin.shape(), (1, 2));
        let mut count = 0;
        layer.visit_params(&mut |p| {
            count += 1;
            assert!(p.grad.max_abs() > 0.0 || p.data.max_abs() == 0.0);
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn masked_linear_blocks_connections() {
        let mut rng = seeded_rng(3);
        // Mask that blocks input 0 from reaching output 0.
        let mask = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 1.0]);
        let mut layer = MaskedLinear::new(2, 2, mask, Init::KaimingUniform, &mut rng);
        let g = Matrix::zeros(1, 2);
        let (base, _) = masked_pair(&mut layer, &Matrix::from_vec(1, 2, vec![0.0, 1.0]), &g);
        let (moved, _) = masked_pair(&mut layer, &Matrix::from_vec(1, 2, vec![100.0, 1.0]), &g);
        // Output 0 must be unchanged when only input 0 changes.
        assert!((base.get(0, 0) - moved.get(0, 0)).abs() < 1e-6);
        // Output 1 is allowed to change (with overwhelming probability).
        assert!((base.get(0, 1) - moved.get(0, 1)).abs() > 1e-3);
    }

    #[test]
    fn masked_linear_grad_respects_mask() {
        let mut rng = seeded_rng(4);
        let mask = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let mut layer = MaskedLinear::new(2, 2, mask.clone(), Init::KaimingUniform, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let _ = masked_pair(&mut layer, &x, &Matrix::full(1, 2, 1.0));
        layer.visit_params(&mut |p| {
            if p.data.shape() == (2, 2) {
                // Weight gradient must be zero wherever the mask is zero.
                for i in 0..2 {
                    for j in 0..2 {
                        if mask.get(i, j) == 0.0 {
                            assert_eq!(p.grad.get(i, j), 0.0);
                        }
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(5);
        let mut layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        layer.backward_scratch(&Matrix::zeros(1, 2), &mut Matrix::default(), &mut Vec::new(), None);
    }
}
