//! Trainable parameters and the two traits shared by all networks.
//!
//! * [`Params`] is **parameter visiting** only: the optimizer, the
//!   checkpoint codec and gradient zeroing reach a network's weights through
//!   it and nothing else, so anything that owns parameters can implement it
//!   without pretending to be a forward pass;
//! * [`InferLayer`] is the **inference** forward: `infer_into` runs through a
//!   caller-provided [`ForwardWorkspace`], caching nothing and allocating
//!   nothing once the workspace is warm. It takes `&self`, so a model behind
//!   an `Arc` can serve concurrent readers.
//!
//! Training has no trait: each network has one inherent checkpointing forward
//! and one scratch backward over a
//! [`TrainWorkspace`](crate::workspace::TrainWorkspace) (`forward_train` /
//! `backward_scratch` on [`Made`](crate::made::Made) and
//! [`Mlp`](crate::mlp::Mlp)). Inference and training forwards are
//! bit-identical for the same weights and input; both are checked against a
//! naive triple-loop reference in `crates/nn/tests/reference.rs`.

use crate::tensor::Matrix;
use crate::workspace::ForwardWorkspace;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity + mutation-version key of one layer's weights, used to validate
/// derived per-workspace caches (the masked effective weights a
/// [`ForwardWorkspace`] memoizes across batches).
///
/// Two components make the key collision-free for its purpose:
///
/// * the **uid** is drawn from a process-global counter at construction *and
///   at every clone*, so two layers never share one — in particular, the
///   clone a checkpoint hot-swap loads new weights into can never alias the
///   model it replaces (this is what makes a hot-swap invalidate every
///   workspace's cached masked weights, even for workspaces the swap has
///   never seen);
/// * the **version** bumps every time the layer hands out mutable parameter
///   access (`visit_params` — the only route the optimizer and the
///   checkpoint loader have to the weights), so in-place training steps
///   invalidate too.
///
/// A cache entry is valid iff its stored key equals the layer's current key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightKey {
    uid: u64,
    version: u64,
}

impl WeightKey {
    /// A key with a freshly allocated uid at version zero.
    pub(crate) fn fresh() -> Self {
        static NEXT_UID: AtomicU64 = AtomicU64::new(1);
        Self { uid: NEXT_UID.fetch_add(1, Ordering::Relaxed), version: 0 }
    }

    /// Record a (potential) weight mutation.
    pub(crate) fn bump(&mut self) {
        self.version += 1;
    }
}

/// A trainable tensor together with its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub data: Matrix,
    /// Gradient of the loss w.r.t. `data`, accumulated by `backward` calls.
    pub grad: Matrix,
}

impl Param {
    /// Wrap an initialized value with a zeroed gradient of the same shape.
    pub fn new(data: Matrix) -> Self {
        let grad = Matrix::zeros(data.rows(), data.cols());
        Self { data, grad }
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Anything that owns trainable parameters.
///
/// The visiting order is the identity of a parameter: the optimizer keys its
/// moments by it and a checkpoint is the parameters in this order, so an
/// implementation must visit the same parameters in the same order on every
/// call.
pub trait Params {
    /// Visit every trainable parameter (for optimizers / serialization).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zero every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// An inference-only module: compute the output of `input` into the
/// workspace's scratch buffers, caching nothing.
///
/// `input` must not alias a workspace buffer (the borrow checker enforces
/// this); composite layers chain their internal stages through the
/// workspace's ping-pong pair instead of recursing through this trait.
pub trait InferLayer {
    /// Run the forward computation for `input` (a batch: one row per
    /// example) and return a reference to the output, which lives in `ws`
    /// until the next pass overwrites it. Bit-identical to the network's
    /// training forward for the same weights.
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix;
}

/// Store a copy of `input` in a training cache slot, reusing the previous
/// cached buffer's allocation instead of cloning a fresh one every step.
pub(crate) fn cache_input(slot: &mut Option<Matrix>, input: &Matrix) {
    match slot {
        Some(cached) => cached.copy_from(input),
        None => *slot = Some(input.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad_resets() {
        let mut p = Param::new(Matrix::full(2, 2, 1.0));
        p.grad = Matrix::full(2, 2, 3.0);
        p.zero_grad();
        assert_eq!(p.grad.max_abs(), 0.0);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }
}
