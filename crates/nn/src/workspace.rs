//! Scratch buffers for the allocation-free inference path.
//!
//! A [`ForwardWorkspace`] owns every intermediate buffer a forward pass
//! needs: two ping-pong activation matrices, an auxiliary matrix (residual
//! skip / hidden state), the scratch of MADE's output projection (gathered
//! hidden rows, where each column block's logits landed, the every-row
//! plan), and a [`MaskedWeightCache`] that **memoizes** the masked effective
//! weights across batches. Layers implementing
//! [`InferLayer`](crate::param::InferLayer) thread their activations through
//! these buffers instead of allocating per call, so once the buffers have
//! grown to the widest layer of a network (after the first batch), repeated
//! forward passes perform **zero heap allocation**.
//!
//! Ownership rules:
//!
//! * the workspace belongs to the *caller* (one per serving worker thread /
//!   bench loop), never to a model — models stay shareable (`&self`
//!   inference) and a workspace is never aliased by two concurrent passes;
//! * a workspace may be reused freely across models and batch shapes; the
//!   buffers reshape on the fly, reusing their heap capacity, and the masked
//!   weight cache re-validates per layer via [`WeightKey`]s — so reuse
//!   across models, optimizer steps, or checkpoint hot-swaps can never serve
//!   stale weights;
//! * the output reference returned by `infer_into` borrows the workspace and
//!   is valid until the next pass overwrites the buffers.
//!
//! The cache holds weights in one form only — the exact f32 `W ⊙ M` and its
//! f32 pack — so a pass through a workspace is bit-identical to the training
//! forward whichever kernel the batch shape selects.
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

use crate::kernels::PackedWeight;
use crate::made::{BlockAt, BlockLogits, BlockPlan};
use crate::param::WeightKey;
use crate::tensor::Matrix;

/// One memoized masked effective weight (`W ⊙ M`) plus the key of the
/// weights it was materialized from, with a lazily maintained mask-aware
/// packed form (see [`PackedWeight`]).
#[derive(Debug, Clone, Default)]
pub struct MaskedEntry {
    key: Option<WeightKey>,
    weight: Matrix,
    /// Key the packed form was derived under; `packed` is valid iff this
    /// equals `key`. Lazy so single-row paths that never run the packed
    /// kernel never pay for packing.
    packed_key: Option<WeightKey>,
    packed: PackedWeight,
}

impl MaskedEntry {
    /// The dense masked effective weight.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The mask-aware packed form of [`MaskedEntry::weight`], packing it now
    /// if the cached pack is missing or from older weights. Repacking reuses
    /// the pack buffers, so a steady-state refill (e.g. after a hot-swap)
    /// does not allocate.
    pub fn packed(&mut self) -> &PackedWeight {
        if self.packed_key != self.key {
            self.packed.fill_from(self.weight.as_slice(), self.weight.rows(), self.weight.cols());
            self.packed_key = self.key;
        }
        &self.packed
    }
}

/// A per-workspace memo of masked effective weights, indexed by the masked
/// layer's position (slot) in its network.
///
/// MADE-style networks multiply every weight matrix by a binary mask on each
/// forward pass; materializing `W ⊙ M` per batch costs a full pass over the
/// parameters. Because inference never mutates weights, the materialized
/// product is reusable across batches — this cache keeps one per masked
/// layer, validated by the layer's [`WeightKey`] (identity + mutation
/// version). A hot-swap or optimizer step changes the key, so the next pass
/// refills the slot in place (same shape ⇒ still allocation-free); a key
/// match skips the materialization entirely.
#[derive(Debug, Clone, Default)]
pub struct MaskedWeightCache {
    slots: Vec<MaskedEntry>,
}

impl MaskedWeightCache {
    /// The cached entry for `slot`, refilled via `fill` first if the slot is
    /// empty or was materialized from differently-keyed weights.
    ///
    /// The slot vector grows on first use per network depth (a warm-up
    /// event); steady-state hits touch only the key comparison. The entry
    /// gives access to both the dense weight and its packed form.
    pub fn entry(
        &mut self,
        slot: usize,
        key: WeightKey,
        fill: impl FnOnce(&mut Matrix),
    ) -> &mut MaskedEntry {
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, MaskedEntry::default);
        }
        let entry = &mut self.slots[slot];
        if entry.key != Some(key) {
            fill(&mut entry.weight);
            entry.key = Some(key);
        }
        entry
    }

    /// Number of slots materialized so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop every memoized weight's key (buffers are kept for reuse). The
    /// next pass re-materializes. Callers normally never need this — key
    /// validation is automatic — but it makes invalidation testable.
    pub fn invalidate(&mut self) {
        for slot in &mut self.slots {
            slot.key = None;
            slot.packed_key = None;
        }
    }
}

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
    /// Memoized masked effective weights, validated by [`WeightKey`].
    masked: MaskedWeightCache,
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
    pub masked: &'w mut MaskedWeightCache,
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

    /// [`ForwardWorkspace::split`] for masked networks: additionally exposes
    /// the masked weight cache, so a stage can look its effective weight up
    /// (or refill it) while writing activations.
    pub fn split_masked(
        &mut self,
    ) -> (&mut Matrix, &mut Matrix, &mut Matrix, &mut MaskedWeightCache) {
        let Self { bufs, live, aux, masked, .. } = self;
        let (a, b) = bufs.split_at_mut(1);
        let (cur, next) = if *live == 0 { (&mut a[0], &mut b[0]) } else { (&mut b[0], &mut a[0]) };
        (cur, next, aux, masked)
    }

    /// Split the workspace for an output projection that reads the current
    /// activation and writes the next buffer; [`ForwardWorkspace::flip`]
    /// afterwards, as for any stage.
    pub(crate) fn split_projection(&mut self) -> ProjectionParts<'_> {
        let Self { bufs, live, masked, gather, blocks, every, .. } = self;
        let (a, b) = bufs.split_at_mut(1);
        let (hidden, out) = if *live == 0 { (&a[0], &mut b[0]) } else { (&b[0], &mut a[0]) };
        ProjectionParts { hidden, out, gather, masked, blocks, every }
    }

    /// The logits of the most recent output projection, by column block.
    pub(crate) fn block_logits(&self) -> BlockLogits<'_> {
        BlockLogits::new(self.output().as_slice(), &self.blocks)
    }

    /// The masked weight cache (inspection / explicit invalidation).
    pub fn masked_cache_mut(&mut self) -> &mut MaskedWeightCache {
        &mut self.masked
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
/// one persistent activation matrix per network stage plus an auxiliary
/// buffer (the hidden state of a residual block) and the same
/// [`MaskedWeightCache`] memo of masked effective weights. The backward pass
/// rotates through three gradient buffers (`grads`) instead of allocating a
/// fresh `Matrix` per stage, staging weight and bias gradients in `dw`/`db`
/// before accumulating them into the parameters.
///
/// Ownership mirrors [`ForwardWorkspace`]: the workspace belongs to the
/// caller (the trainer's step scratch), buffers grow to the network's
/// shapes on the first batch and are reused allocation-free afterwards, and
/// the weight memo re-validates per layer by [`WeightKey`] — an optimizer
/// step (which bumps every key through `visit_params`) re-materializes the
/// masked weights **in place**, once per step. One workspace serves either
/// network kind: [`Made`](crate::made::Made) uses all of it,
/// [`Mlp`](crate::mlp::Mlp) (no masks, no residual skips) leaves the weight
/// memo, `aux` and the third gradient buffer empty.
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// One checkpointed activation per stage: stage `i` reads `acts[i-1]`
    /// (or the input) and writes `acts[i]`.
    acts: Vec<Matrix>,
    /// Residual-block hidden state (`relu(fc1(x))`).
    aux: Matrix,
    /// Memoized masked effective weights, validated by [`WeightKey`].
    masked: MaskedWeightCache,
    /// Gradient ping-pong buffers for the scratch backward pass. Three, not
    /// two: a residual stage needs its incoming gradient alive (for the skip
    /// add) while `fc2`-backward writes one buffer and `fc1`-backward
    /// another.
    grads: [Matrix; 3],
    /// Weight-gradient staging (`input^T @ grad`, masked in place before
    /// accumulation into the parameter gradient).
    dw: Matrix,
    /// Bias-gradient staging (column sums of the incoming gradient).
    db: Vec<f32>,
    /// Which of `grads` holds the gradient w.r.t. the network input after
    /// the most recent backward pass.
    input_grad: usize,
}

impl TrainWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split into the per-stage activation slots (grown to `stages`), the
    /// auxiliary buffer, and the masked weight cache — disjoint borrows for
    /// one forward pass.
    pub(crate) fn parts(
        &mut self,
        stages: usize,
    ) -> (&mut [Matrix], &mut Matrix, &mut MaskedWeightCache) {
        if self.acts.len() < stages {
            self.acts.resize_with(stages, Matrix::default);
        }
        let Self { acts, aux, masked, .. } = self;
        (&mut acts[..stages], aux, masked)
    }

    /// Disjoint borrows for one scratch backward pass: the activations the
    /// forward checkpointed (the ReLU gates read them), the gradient
    /// ping-pong buffers, the weight-gradient staging matrix, the
    /// bias-gradient staging vector, and the masked weight cache (whose
    /// entries, still keyed from the forward pass, provide the effective
    /// weights without re-materializing them).
    #[allow(clippy::type_complexity)]
    pub(crate) fn backward_parts(
        &mut self,
    ) -> (&[Matrix], &mut [Matrix; 3], &mut Matrix, &mut Vec<f32>, &mut MaskedWeightCache) {
        let Self { acts, masked, grads, dw, db, .. } = self;
        (acts, grads, dw, db, masked)
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

    /// The masked weight cache (inspection / explicit invalidation).
    pub fn masked_cache_mut(&mut self) -> &mut MaskedWeightCache {
        &mut self.masked
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

impl Matrix {
    /// Compute the masked effective weight `self ⊙ mask` into `out`
    /// (reshaped, buffer reused). The inference-path replacement for
    /// materializing a fresh masked weight matrix per forward call.
    pub fn masked_into(&self, mask: &Matrix, out: &mut Matrix) {
        out.copy_from(self);
        out.mul_assign(mask);
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

    #[test]
    fn masked_into_matches_clone_and_mul() {
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut out = Matrix::zeros(0, 0);
        w.masked_into(&m, &mut out);
        let mut expected = w.clone();
        expected.mul_assign(&m);
        assert_eq!(out, expected);
    }

    #[test]
    fn masked_cache_fills_once_per_key() {
        let mut cache = MaskedWeightCache::default();
        let key = WeightKey::fresh();
        let mut fills = 0;
        for _ in 0..3 {
            let entry = cache.entry(0, key, |out| {
                fills += 1;
                out.reset(2, 2);
                out.fill(1.5);
            });
            assert_eq!(entry.weight().get(1, 1), 1.5);
        }
        assert_eq!(fills, 1, "a matching key must not re-materialize");

        let mut other_key = key;
        other_key.bump();
        cache.entry(0, other_key, |out| {
            fills += 1;
            out.fill(2.5);
        });
        assert_eq!(fills, 2, "a bumped version must re-materialize");

        cache.invalidate();
        cache.entry(0, other_key, |_| fills += 1);
        assert_eq!(fills, 3, "explicit invalidation must re-materialize");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }
}
