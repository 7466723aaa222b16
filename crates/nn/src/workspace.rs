//! Scratch buffers for the allocation-free forward and training passes.
//!
//! A [`ForwardWorkspace`] owns every intermediate buffer a forward pass
//! needs: two ping-pong activation matrices, an auxiliary matrix (a residual
//! block's hidden state), and the scratch of MADE's output projection
//! (gathered hidden rows, where each column block's logits landed, the
//! every-row plan). Layers implementing
//! [`InferLayer`](crate::param::InferLayer) thread their activations through
//! these buffers instead of allocating per call, so once the buffers have
//! grown to the widest layer the workspace has seen (after the first batch),
//! repeated forward passes perform **zero heap allocation**.
//!
//! Ownership rules:
//!
//! * the workspace belongs to the *caller* (one per serving worker thread /
//!   bench loop), never to a model — models stay shareable (`&self`
//!   inference) and a workspace is never aliased by two concurrent passes;
//! * a workspace holds activations only — no weights and nothing derived
//!   from them (a masked layer keeps its own pack) — so it may be reused
//!   freely across models, batch shapes, optimizer steps and checkpoint
//!   hot-swaps. The buffers reshape on the fly, keeping their heap capacity:
//!   one workspace serving several models grows to the widest of them, then
//!   stops allocating;
//! * the output reference returned by `infer_into` borrows the workspace and
//!   is valid until the next pass overwrites the buffers.
//!
//! # Example
//!
//! ```
//! use duet_nn::{seeded_rng, ForwardWorkspace, InferLayer, Matrix, Mlp};
//!
//! let mut rng = seeded_rng(7);
//! let mlp = Mlp::new(&[4, 16, 2], &mut rng);
//! let mut ws = ForwardWorkspace::new();
//!
//! // One warm-up pass grows the buffers; afterwards the workspace is
//! // reused allocation-free, across batch sizes and (keyed) models.
//! let full = mlp.infer_into(&Matrix::zeros(8, 4), &mut ws).clone();
//! let small = mlp.infer_into(&Matrix::zeros(3, 4), &mut ws);
//! assert_eq!(full.shape(), (8, 2));
//! assert_eq!(small.shape(), (3, 2));
//! assert_eq!(full.row(0), small.row(0), "row results are batch-independent");
//! ```

use crate::made::{BlockAt, BlockLogits, BlockPlan};
use crate::tensor::Matrix;

/// Reusable scratch buffers for one in-flight forward pass.
#[derive(Debug, Clone, Default)]
pub struct ForwardWorkspace {
    /// Ping-pong activation buffers; `live` indexes the one holding the
    /// current activation (the previous layer's output).
    bufs: [Matrix; 2],
    live: usize,
    /// Extra buffer for stages that need a third activation (the hidden
    /// state of a residual block).
    aux: Matrix,
    /// The rows of the last hidden activation one output product reads,
    /// gathered contiguously.
    gather: Matrix,
    /// Where each column block's logits landed in the projection output.
    blocks: Vec<BlockAt>,
    /// The every-row, every-block plan `infer_into` projects with.
    every: BlockPlan,
}

/// Disjoint borrows of a [`ForwardWorkspace`] for one output projection.
pub(crate) struct ProjectionParts<'w> {
    /// The last hidden activation (the current buffer).
    pub hidden: &'w Matrix,
    /// The projection output (the next buffer).
    pub out: &'w mut Matrix,
    /// Scratch for the rows one product reads.
    pub gather: &'w mut Matrix,
    /// Per column block, where its logits land in `out`.
    pub blocks: &'w mut Vec<BlockAt>,
    /// Scratch for the every-row, every-block plan.
    pub every: &'w mut BlockPlan,
}

impl ForwardWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer holding the most recent layer output.
    pub fn output(&self) -> &Matrix {
        &self.bufs[self.live]
    }

    /// Split the workspace into `(current, next, aux)` for one layer step:
    /// read the activation from `current`, write into `next` (and/or
    /// `aux`), then call [`ForwardWorkspace::flip`] to make `next` the new
    /// current.
    pub fn split(&mut self) -> (&mut Matrix, &mut Matrix, &mut Matrix) {
        let Self { bufs, live, aux, .. } = self;
        let (a, b) = bufs.split_at_mut(1);
        let (cur, next) = if *live == 0 { (&mut a[0], &mut b[0]) } else { (&mut b[0], &mut a[0]) };
        (cur, next, aux)
    }

    /// Split the workspace for an output projection that reads the current
    /// activation and writes the next buffer; [`ForwardWorkspace::flip`]
    /// afterwards, as for any stage.
    pub(crate) fn split_projection(&mut self) -> ProjectionParts<'_> {
        let Self { bufs, live, gather, blocks, every, .. } = self;
        let (a, b) = bufs.split_at_mut(1);
        let (hidden, out) = if *live == 0 { (&a[0], &mut b[0]) } else { (&b[0], &mut a[0]) };
        ProjectionParts { hidden, out, gather, blocks, every }
    }

    /// The logits of the most recent output projection, by column block.
    pub(crate) fn block_logits(&self) -> BlockLogits<'_> {
        BlockLogits::new(self.output().as_slice(), &self.blocks)
    }

    /// Promote the `next` buffer of the last [`ForwardWorkspace::split`] to
    /// the current activation.
    pub fn flip(&mut self) {
        self.live ^= 1;
    }

    /// Reset the ping-pong parity so a fresh pass always assigns the same
    /// buffer to the same stage index. Networks with an odd stage count
    /// would otherwise swap the two buffers' roles on every pass, forcing
    /// each buffer to grow to *every* stage width before the workspace stops
    /// allocating; with a fixed parity one warm-up pass suffices.
    pub fn rewind(&mut self) {
        self.live = 0;
    }
}

/// Scratch buffers for the allocation-free **training** step: activation
/// checkpointing for the forward pass and gradient ping-pong buffers for
/// the backward pass.
///
/// The inference [`ForwardWorkspace`] ping-pongs two buffers because nothing
/// downstream needs intermediate activations; the training forward must keep
/// *every* stage output alive for the backward pass, so this workspace holds
/// one persistent activation matrix per network stage, plus each residual
/// block's rectified hidden state. Those are every layer input the backward
/// reads, apart from the network input, which the caller hands to both
/// passes. The backward pass rotates through three gradient buffers
/// (`grads`) instead of allocating a fresh `Matrix` per stage, staging each
/// layer's weight and bias gradients before adding them into the caller's
/// flat gradient buffer.
///
/// Ownership mirrors [`ForwardWorkspace`]: the workspace belongs to the
/// caller (the trainer's step scratch), and buffers grow to the network's
/// shapes on the first batch and are reused allocation-free afterwards. One
/// workspace serves either network kind: [`Made`](crate::made::Made) uses all
/// of it, [`Mlp`](crate::mlp::Mlp) (no residual skips) leaves the hidden
/// states and the third gradient buffer empty.
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// One checkpointed activation per stage: stage `i` reads `acts[i-1]`
    /// (or the input) and writes `acts[i]`.
    acts: Vec<Matrix>,
    /// Per stage, a residual block's rectified hidden state
    /// (`relu(fc1(x))`), which its `fc2` reads; empty for other stages.
    hidden: Vec<Matrix>,
    /// Whether the most recent training forward fed the first stage through
    /// the sparse-input kernel, in which case the backward must be handed
    /// the same capture.
    first_sparse: bool,
    /// Gradient ping-pong buffers for the scratch backward pass. Three, not
    /// two: a residual stage needs its incoming gradient alive (for the skip
    /// add) while `fc2`-backward writes one buffer and `fc1`-backward
    /// another.
    grads: [Matrix; 3],
    /// One layer's weight and bias gradients, staged before they are added
    /// into the gradient buffer.
    stage: GradStage,
    /// Which of `grads` holds the gradient w.r.t. the network input after
    /// the most recent backward pass.
    input_grad: usize,
}

/// Disjoint borrows of a [`TrainWorkspace`] for one forward pass.
pub(crate) struct TrainForwardParts<'w> {
    /// Per-stage activation checkpoints.
    pub acts: &'w mut [Matrix],
    /// Per-stage residual hidden states.
    pub hidden: &'w mut [Matrix],
    /// Set by the forward: whether the first stage ran sparse.
    pub first_sparse: &'w mut bool,
}

/// Disjoint borrows of a [`TrainWorkspace`] for one backward pass.
pub(crate) struct TrainBackwardParts<'w> {
    /// The activations the forward checkpointed (layer inputs and ReLU
    /// gates).
    pub acts: &'w [Matrix],
    /// The residual hidden states the forward checkpointed.
    pub hidden: &'w [Matrix],
    /// Whether the forward ran the first stage sparse.
    pub first_sparse: bool,
    /// Gradient ping-pong buffers.
    pub grads: &'w mut [Matrix; 3],
    /// Per-layer gradient staging.
    pub stage: &'w mut GradStage,
}

impl TrainWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disjoint borrows for one forward pass through `stages` stages (the
    /// per-stage buffers grow to that count on first use).
    pub(crate) fn forward_parts(&mut self, stages: usize) -> TrainForwardParts<'_> {
        if self.acts.len() < stages {
            self.acts.resize_with(stages, Matrix::default);
            self.hidden.resize_with(stages, Matrix::default);
        }
        let Self { acts, hidden, first_sparse, .. } = self;
        TrainForwardParts { acts: &mut acts[..stages], hidden: &mut hidden[..stages], first_sparse }
    }

    /// Disjoint borrows for one scratch backward pass over `stages` stages.
    ///
    /// # Panics
    /// Panics if no forward pass through that many stages ran first.
    pub(crate) fn backward_parts(&mut self, stages: usize) -> TrainBackwardParts<'_> {
        assert!(self.acts.len() >= stages, "backward called before forward");
        let Self { acts, hidden, first_sparse, grads, stage, .. } = self;
        TrainBackwardParts {
            acts: &acts[..stages],
            hidden: &hidden[..stages],
            first_sparse: *first_sparse,
            grads,
            stage,
        }
    }

    /// Record which gradient buffer ended the backward pass holding the
    /// input gradient (set by the network's `backward_scratch`).
    pub(crate) fn set_input_grad_slot(&mut self, slot: usize) {
        self.input_grad = slot;
    }

    /// The gradient w.r.t. the network input, as left by the most recent
    /// backward pass that was asked to produce it (`need_input_grad`).
    /// Borrow-only: the buffer is owned by the workspace and overwritten by
    /// the next backward pass.
    pub fn input_grad(&self) -> &Matrix {
        &self.grads[self.input_grad]
    }
}

/// One layer's gradient staging: `dW` and the bias column sums, computed
/// before they are added into the gradient buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct GradStage {
    pub dw: Matrix,
    pub db: Vec<f32>,
}

impl GradStage {
    /// Add the staged `dW`, then the bias sums, into `grad` (one layer's
    /// weight-then-bias slice of a gradient buffer), one rounding per
    /// element.
    pub(crate) fn add_into(&self, grad: &mut [f32]) {
        let (gw, gb) = grad.split_at_mut(self.dw.len());
        debug_assert_eq!(gb.len(), self.db.len(), "gradient slice must cover weight and bias");
        for (g, &d) in gw.iter_mut().zip(self.dw.as_slice()).chain(gb.iter_mut().zip(&self.db)) {
            *g += d;
        }
    }
}

/// Borrow the live gradient buffer (`cur`) plus the next free one from the
/// ping-pong triple, disjointly.
pub(crate) fn pick2(bufs: &mut [Matrix; 3], cur: usize) -> (&Matrix, &mut Matrix) {
    let [a, b, c] = bufs;
    match cur {
        0 => (&*a, b),
        1 => (&*b, c),
        _ => (&*c, a),
    }
}

/// Borrow the live gradient buffer (`cur`) plus both free ones — a residual
/// block needs all three at once (incoming gradient stays alive for the
/// identity skip while the two inner backwards write the other two).
pub(crate) fn pick3(bufs: &mut [Matrix; 3], cur: usize) -> (&Matrix, &mut Matrix, &mut Matrix) {
    let [a, b, c] = bufs;
    match cur {
        0 => (&*a, b, c),
        1 => (&*b, c, a),
        _ => (&*c, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_pairs_alternate_with_flip() {
        let mut ws = ForwardWorkspace::new();
        {
            let (_cur, next, _aux) = ws.split();
            next.reset(2, 3);
            next.fill(7.0);
        }
        ws.flip();
        assert_eq!(ws.output().shape(), (2, 3));
        assert_eq!(ws.output().get(1, 2), 7.0);
        {
            let (cur, next, _aux) = ws.split();
            assert_eq!(cur.shape(), (2, 3), "current must be the buffer just written");
            next.reset(1, 1);
        }
        ws.flip();
        assert_eq!(ws.output().shape(), (1, 1));
    }
}
