//! Trainable parameters and the two traits shared by all networks.
//!
//! * [`Params`] is **parameter visiting** only: the optimizer and the
//!   checkpoint codec reach a network's weights through it and nothing
//!   else, so anything that owns parameters can implement it without
//!   pretending to be a forward pass. The mutable visitor is also where a
//!   masked layer restores its invariant (weights stored masked, pack
//!   current), so no weight change can bypass it;
//! * [`InferLayer`] is the **inference** forward: `infer_into` runs through a
//!   caller-provided [`ForwardWorkspace`], caching nothing and allocating
//!   nothing once the workspace is warm. It takes `&self`, so a model behind
//!   an `Arc` can serve concurrent readers.
//!
//! Training has no trait: each network has one inherent checkpointing forward
//! and one scratch backward over a
//! [`TrainWorkspace`](crate::workspace::TrainWorkspace) (`forward_train` /
//! `backward_scratch` on [`Made`](crate::made::Made) and
//! [`Mlp`](crate::mlp::Mlp)). Both take `&self`: activations live in the
//! workspace and gradients in a caller's flat buffer, so a model holds its
//! weights and nothing else. Inference and training forwards are
//! bit-identical for the same weights and input; both are checked against a
//! naive triple-loop reference in `crates/nn/tests/reference.rs`.

use crate::tensor::Matrix;
use crate::workspace::ForwardWorkspace;

/// A trainable tensor. Its gradient is not stored here: training
/// accumulates every parameter's gradient in one flat buffer owned by the
/// trainer, laid out in visiting order (the optimizer's layout).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub data: Matrix,
}

impl Param {
    /// Wrap an initialized value.
    pub fn new(data: Matrix) -> Self {
        Self { data }
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
/// The visiting order is the identity of a parameter: the optimizer's
/// moments and the trainer's gradient buffer are laid out in it and a
/// checkpoint is the parameters in this order, so an implementation must
/// visit the same parameters in the same order on every call, through both
/// visitors.
pub trait Params {
    /// Visit every trainable parameter for reading (checkpoint save,
    /// counting). Touches nothing derived from the weights.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param));

    /// Visit every trainable parameter for writing: the one route the
    /// optimizer and the checkpoint loader have to the weights. A masked
    /// layer re-masks and repacks its weights once `f` has seen them, so
    /// whatever `f` writes is served exactly as `W ⊙ M`.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
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
