//! MADE / ResMADE: masked autoregressive networks over *column blocks*.
//!
//! Both Duet and the Naru/UAE baselines use the same backbone: a feed-forward
//! network whose weight masks enforce that the output distribution of column
//! `i` depends only on the *input blocks* of columns `< i` (natural ordering).
//! Duet's input blocks encode predicates `(op, value)` while Naru's encode
//! tuple values, but the masking logic is identical, so it lives here in the
//! substrate crate.
//!
//! A [`Made`] has one serving forward and one training forward
//! ([`Made::forward_train`], activations checkpointed for the backward); the
//! two produce bit-identical logits. The serving forward is the hidden trunk
//! (every stage but the output layer) followed by one output projection
//! that computes only the column blocks a [`BlockPlan`] asks for, each for
//! only the rows that need it ([`Made::infer_blocks`]);
//! [`InferLayer::infer_into`] is the same projection with every row in
//! every block. Each masked layer stores its weight already masked and
//! carries its own pack (see [`crate::linear`]), so a workspace holds
//! activations only.

use crate::activation::Activation;
use crate::init::{Init, WeightSource};
use crate::kernels::SparseRows;
use crate::linear::MaskedLinear;
use crate::param::{InferLayer, Param, Params};
use crate::tensor::Matrix;
use crate::workspace::{
    pick2, pick3, ForwardWorkspace, GradStage, ProjectionParts, TrainBackwardParts,
    TrainForwardParts, TrainWorkspace,
};

/// Architecture description for a [`Made`] network.
#[derive(Debug, Clone)]
pub struct MadeConfig {
    /// Width of each column's input encoding (block `i` occupies
    /// `input_block_sizes[i]` consecutive input features).
    pub input_block_sizes: Vec<usize>,
    /// Number of logits produced for each column (its number of distinct
    /// values).
    pub output_block_sizes: Vec<usize>,
    /// Hidden layer widths. For `residual = false` each entry is one masked
    /// linear + ReLU layer; for `residual = true` all entries must be equal
    /// and every layer after the first becomes a residual block.
    pub hidden_sizes: Vec<usize>,
    /// Build a ResMADE (residual blocks) instead of a plain MADE.
    pub residual: bool,
}

impl MadeConfig {
    /// Plain MADE with the given hidden sizes.
    pub fn made(
        input_block_sizes: Vec<usize>,
        output_block_sizes: Vec<usize>,
        hidden_sizes: Vec<usize>,
    ) -> Self {
        Self { input_block_sizes, output_block_sizes, hidden_sizes, residual: false }
    }

    /// ResMADE with `blocks` residual blocks of width `hidden`.
    pub fn res_made(
        input_block_sizes: Vec<usize>,
        output_block_sizes: Vec<usize>,
        hidden: usize,
        blocks: usize,
    ) -> Self {
        Self {
            input_block_sizes,
            output_block_sizes,
            hidden_sizes: vec![hidden; blocks.max(1)],
            residual: true,
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.input_block_sizes.len()
    }

    /// Total input width.
    pub fn input_width(&self) -> usize {
        self.input_block_sizes.iter().sum()
    }

    /// Total output width (sum of per-column logit counts).
    pub fn output_width(&self) -> usize {
        self.output_block_sizes.iter().sum()
    }
}

/// Degree (column index) of every unit in a layer.
fn input_degrees(block_sizes: &[usize]) -> Vec<usize> {
    let mut degrees = Vec::with_capacity(block_sizes.iter().sum());
    for (col, &w) in block_sizes.iter().enumerate() {
        degrees.extend(std::iter::repeat_n(col, w));
    }
    degrees
}

/// Cyclic degree assignment for hidden units: degrees range over `0..=N-2`
/// (a hidden unit of degree d may read inputs of columns `<= d` and feed
/// outputs of columns `> d`).
fn hidden_degrees(width: usize, num_columns: usize) -> Vec<usize> {
    let max_degree = num_columns.saturating_sub(1).max(1);
    (0..width).map(|k| k % max_degree).collect()
}

/// A residual block `y = x + W2·relu(W1·x)`, with both linears masked
/// between the block's own degrees (a connection needs `deg(next) >=
/// deg(prev)`), so that degrees are preserved end-to-end and the identity
/// skip is mask-safe.
#[derive(Debug, Clone)]
struct ResBlock {
    /// `[fc1, fc2]`.
    fc: [MaskedLinear; 2],
}

impl ResBlock {
    fn new(degrees: &[usize], init: Init, rng: &mut impl WeightSource) -> Self {
        let fc1 = MaskedLinear::new(degrees, degrees, false, init, rng);
        let fc2 = MaskedLinear::new(degrees, degrees, false, init, rng);
        Self { fc: [fc1, fc2] }
    }

    /// Training forward `out = x + fc2(relu(fc1(x)))`, leaving the rectified
    /// hidden state — fc2's input, and the ReLU gate of the backward — in
    /// `hidden`. Allocation-free once warm.
    fn train_forward(&self, x: &Matrix, hidden: &mut Matrix, out: &mut Matrix) {
        let [fc1, fc2] = &self.fc;
        fc1.train_forward(x, None, hidden);
        Activation::Relu.apply(hidden.as_mut_slice());
        fc2.train_forward(hidden, None, out);
        out.add_assign(x);
    }

    /// Scratch-buffer backward of the block that read `x` and checkpointed
    /// `hidden`: fc2's input gradient lands in `grad_act`, is ReLU-gated in
    /// place against `hidden`, feeds fc1, and the identity skip adds
    /// `grad_out` into `grad_in`. `grad` is the block's slice of the
    /// gradient buffer (fc1's parameters, then fc2's). Allocation-free once
    /// warm.
    fn backward_scratch(
        &self,
        (x, hidden): (&Matrix, &Matrix),
        (grad_out, grad_act, grad_in): (&Matrix, &mut Matrix, &mut Matrix),
        grad: &mut [f32],
        stage: &mut GradStage,
    ) {
        let [fc1, fc2] = &self.fc;
        let (g1, g2) = grad.split_at_mut(fc1.num_parameters());
        fc2.backward_scratch(hidden, None, grad_out, g2, stage, Some(&mut *grad_act));
        Activation::Relu.gate(grad_act.as_mut_slice(), hidden.as_slice());
        fc1.backward_scratch(x, None, grad_act, g1, stage, Some(&mut *grad_in));
        grad_in.add_assign(grad_out); // identity skip
    }

    /// Allocation-free fused forward `out = x + fc2(relu(fc1(x)))`, with the
    /// hidden state in `h`. Bit-identical to the training forward.
    fn infer(&self, x: &Matrix, h: &mut Matrix, out: &mut Matrix) {
        let [fc1, fc2] = &self.fc;
        fc1.infer(x, Activation::Relu, h);
        fc2.infer(h, Activation::Identity, out);
        out.add_assign(x);
    }
}

// Variant sizes differ, but a model holds only a handful of stages, so
// boxing the large variant would cost a pointer chase per layer for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Stage {
    /// Masked linear followed by ReLU.
    MaskedRelu(MaskedLinear),
    /// Residual block (ResMADE).
    Residual(ResBlock),
    /// Final masked linear producing the logits (no activation).
    Output(MaskedLinear),
}

impl Stage {
    /// The stage's masked linears, in visiting order.
    fn layers(&self) -> &[MaskedLinear] {
        match self {
            Stage::MaskedRelu(linear) | Stage::Output(linear) => std::slice::from_ref(linear),
            Stage::Residual(block) => &block.fc,
        }
    }

    /// [`Stage::layers`], mutably.
    fn layers_mut(&mut self) -> &mut [MaskedLinear] {
        match self {
            Stage::MaskedRelu(linear) | Stage::Output(linear) => std::slice::from_mut(linear),
            Stage::Residual(block) => &mut block.fc,
        }
    }

    /// Number of trainable scalars in the stage.
    fn num_parameters(&self) -> usize {
        self.layers().iter().map(MaskedLinear::num_parameters).sum()
    }
}

/// Which rows need which output column blocks: block `b` is computed for
/// exactly the rows listed for it, in ascending order.
///
/// Built block by block with [`BlockPlan::push_row`] and
/// [`BlockPlan::end_block`] after [`BlockPlan::begin`], which reserves the
/// worst case (every row in every block) so a plan reused across batches of
/// up to that many rows never reallocates.
#[derive(Debug, Clone, Default)]
pub struct BlockPlan {
    /// Every block's row list, concatenated (blocks may share a list).
    rows: Vec<usize>,
    /// Block `b` lists `rows[spans[b].0..spans[b].1]`.
    spans: Vec<(usize, usize)>,
    /// Where the block under construction starts in `rows`.
    open: usize,
}

impl BlockPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new plan over `rows` rows and `blocks` blocks.
    pub fn begin(&mut self, rows: usize, blocks: usize) {
        self.rows.clear();
        self.rows.reserve(rows * blocks);
        self.spans.clear();
        self.spans.reserve(blocks);
        self.open = 0;
    }

    /// Add `row` to the block under construction; rows must ascend.
    pub fn push_row(&mut self, row: usize) {
        debug_assert!(
            self.rows.len() == self.open || self.rows.last() < Some(&row),
            "plan rows must ascend within a block"
        );
        self.rows.push(row);
    }

    /// Close the block under construction; the next block starts empty.
    pub fn end_block(&mut self) {
        self.spans.push((self.open, self.rows.len()));
        self.open = self.rows.len();
    }

    /// Replace the plan with every one of `rows` rows in every one of
    /// `blocks` blocks (one shared row list).
    fn every_row(&mut self, rows: usize, blocks: usize) {
        self.rows.clear();
        self.rows.extend(0..rows);
        self.spans.clear();
        self.spans.resize(blocks, (0, rows));
        self.open = rows;
    }

    /// Number of closed blocks.
    pub fn num_blocks(&self) -> usize {
        self.spans.len()
    }

    /// The rows block `b` is computed for.
    pub fn block(&self, b: usize) -> &[usize] {
        let (start, end) = self.spans[b];
        &self.rows[start..end]
    }

    /// Whether no block is computed for any row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether blocks `a` and `b` are computed for the same rows (a shared
    /// list is recognized without comparing it).
    fn same_rows(&self, a: usize, b: usize) -> bool {
        self.spans[a] == self.spans[b] || self.block(a) == self.block(b)
    }
}

/// Where one column block's logits landed in the projection output: the
/// block's `i`-th planned row is `len` values at `start + i * stride`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockAt {
    start: usize,
    stride: usize,
    len: usize,
}

/// The logits [`Made::infer_blocks`] computed, by column block. Borrows the
/// workspace until its next pass.
#[derive(Debug, Clone, Copy)]
pub struct BlockLogits<'w> {
    data: &'w [f32],
    at: &'w [BlockAt],
}

impl<'w> BlockLogits<'w> {
    pub(crate) fn new(data: &'w [f32], at: &'w [BlockAt]) -> Self {
        Self { data, at }
    }

    /// Column `block`'s logits for the `i`-th row of that block's plan
    /// list. Only meaningful for a block and position the plan holds.
    pub fn row(&self, block: usize, i: usize) -> &'w [f32] {
        let at = self.at[block];
        &self.data[at.start + i * at.stride..][..at.len]
    }
}

/// A masked autoregressive network over column blocks.
#[derive(Debug, Clone)]
pub struct Made {
    config: MadeConfig,
    stages: Vec<Stage>,
    input_offsets: Vec<usize>,
    output_offsets: Vec<usize>,
}

impl Made {
    /// Build a MADE/ResMADE for `config`, initializing weights from `rng`.
    ///
    /// # Panics
    /// Panics if the config has no columns, mismatched block lists, or (for
    /// ResMADE) non-uniform hidden sizes.
    pub fn new(config: MadeConfig, rng: &mut impl WeightSource) -> Self {
        let n = config.num_columns();
        assert!(n > 0, "MADE needs at least one column");
        assert_eq!(
            config.input_block_sizes.len(),
            config.output_block_sizes.len(),
            "input/output block lists must describe the same columns"
        );
        assert!(!config.hidden_sizes.is_empty(), "MADE needs at least one hidden layer");
        if config.residual {
            assert!(
                config.hidden_sizes.windows(2).all(|w| w[0] == w[1]),
                "ResMADE requires uniform hidden sizes"
            );
        }

        let in_deg = input_degrees(&config.input_block_sizes);
        let out_deg = input_degrees(&config.output_block_sizes);

        let mut stages = Vec::new();
        let mut prev_deg = in_deg;
        for (i, &hidden) in config.hidden_sizes.iter().enumerate() {
            if config.residual && i > 0 {
                // Uniform widths: the block keeps the first hidden layer's degrees.
                stages.push(Stage::Residual(ResBlock::new(&prev_deg, Init::KaimingUniform, rng)));
                continue;
            }
            let h_deg = hidden_degrees(hidden, n);
            let layer = MaskedLinear::new(&prev_deg, &h_deg, false, Init::KaimingUniform, rng);
            stages.push(Stage::MaskedRelu(layer));
            prev_deg = h_deg;
        }
        // Into the output layer a connection needs a strictly greater degree.
        stages.push(Stage::Output(MaskedLinear::new(
            &prev_deg,
            &out_deg,
            true,
            Init::XavierUniform,
            rng,
        )));

        let input_offsets = prefix_sums(&config.input_block_sizes);
        let output_offsets = prefix_sums(&config.output_block_sizes);
        Self { config, stages, input_offsets, output_offsets }
    }

    /// Architecture description.
    pub fn config(&self) -> &MadeConfig {
        &self.config
    }

    /// Offset of column `i`'s block in the input vector.
    pub fn input_offset(&self, col: usize) -> usize {
        self.input_offsets[col]
    }

    /// `(offset, len)` of column `i`'s logits.
    pub fn output_block(&self, col: usize) -> (usize, usize) {
        (self.output_offsets[col], self.config.output_block_sizes[col])
    }

    /// The serving forward for the blocks `plan` asks for: the hidden trunk
    /// over every row of `input`, then one output product per run of
    /// adjacent blocks planned for the same rows, against only those rows
    /// and only those blocks' columns. Every logit is an independent dot
    /// product accumulated in ascending order, so each computed block is
    /// bit-identical to the same slice of [`InferLayer::infer_into`]'s
    /// full-width output.
    ///
    /// # Panics
    /// Panics if `plan` does not hold one block per column, or lists a row
    /// outside `input`.
    pub fn infer_blocks<'w>(
        &self,
        input: &Matrix,
        plan: &BlockPlan,
        ws: &'w mut ForwardWorkspace,
    ) -> BlockLogits<'w> {
        self.infer_trunk(input, ws);
        self.project(Some(plan), ws);
        ws.block_logits()
    }

    /// Every stage but the output layer, through the workspace's ping-pong
    /// buffers; the last hidden activation is left as the current buffer.
    fn infer_trunk(&self, input: &Matrix, ws: &mut ForwardWorkspace) {
        assert_eq!(
            input.cols(),
            self.config.input_width(),
            "input width mismatch: expected {}",
            self.config.input_width()
        );
        ws.rewind();
        for (i, stage) in self.stages.iter().enumerate() {
            let (cur, next, aux) = ws.split();
            let x: &Matrix = if i == 0 { input } else { cur };
            match stage {
                Stage::MaskedRelu(linear) => linear.infer(x, Activation::Relu, next),
                Stage::Residual(block) => block.infer(x, aux, next),
                Stage::Output(_) => return,
            }
            ws.flip();
        }
        unreachable!("a Made always ends in its output stage")
    }

    /// The output projection over the hidden activation [`Made::infer_trunk`]
    /// left in `ws`, for `plan` (`None`: every row in every block).
    ///
    /// The packed-vs-naive verdict is taken once, on the whole hidden
    /// activation, and holds for every product, so the kernel class is the
    /// one a full-width product would run. A product whose rows are the
    /// whole batch reads the activation in place; any other gathers its
    /// rows first. Products land one after another in the next buffer,
    /// sized as the full-width logits (which bounds their total), so with
    /// every row in every block the output is exactly the `rows x width`
    /// logits matrix.
    fn project(&self, plan: Option<&BlockPlan>, ws: &mut ForwardWorkspace) {
        let Some(Stage::Output(linear)) = self.stages.last() else {
            unreachable!("a Made always ends in its output stage")
        };
        let ProjectionParts { hidden, out, gather, blocks, every } = ws.split_projection();
        let (rows, num_blocks) = (hidden.rows(), self.config.num_columns());
        let plan = match plan {
            Some(plan) => plan,
            None => {
                every.every_row(rows, num_blocks);
                &*every
            }
        };
        assert_eq!(plan.num_blocks(), num_blocks, "the plan must hold one block per column");
        let packed = linear.runs_packed(hidden);
        out.resize_for_overwrite(rows, self.config.output_width());
        blocks.clear();
        blocks.resize(num_blocks, BlockAt::default());

        let mut base = 0usize;
        let mut b = 0usize;
        while b < num_blocks {
            let run_rows = plan.block(b);
            let first = b;
            b += 1;
            if run_rows.is_empty() {
                continue;
            }
            while b < num_blocks && plan.same_rows(first, b) {
                b += 1;
            }
            let cols = self.output_offsets[first]
                ..self.output_offsets[b - 1] + self.config.output_block_sizes[b - 1];
            let width = cols.len();
            for (at, blk) in blocks[first..b].iter_mut().zip(first..) {
                let start = base + self.output_offsets[blk] - cols.start;
                *at = BlockAt { start, stride: width, len: self.config.output_block_sizes[blk] };
            }
            let whole_batch = run_rows.len() == rows && run_rows.last() == Some(&(rows - 1));
            let a: &Matrix = if whole_batch {
                hidden
            } else {
                gather.gather_rows(hidden, run_rows);
                &*gather
            };
            let dst = &mut out.as_mut_slice()[base..base + run_rows.len() * width];
            linear.infer_cols(a, Activation::Identity, packed, cols, dst);
            base += run_rows.len() * width;
        }
        ws.flip();
    }

    /// Forward pass without caching; use for inference/latency measurements.
    ///
    /// Allocates a throwaway workspace per call; hot paths should hold a
    /// persistent [`ForwardWorkspace`] and use
    /// [`InferLayer::infer_into`] instead.
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut ws = ForwardWorkspace::new();
        self.infer_into(input, &mut ws).clone()
    }

    /// The training forward through a [`TrainWorkspace`]: every stage's
    /// activation (and each residual block's hidden state) is checkpointed
    /// into a persistent workspace buffer, so the steady-state training
    /// forward performs **zero heap allocation** (asserted by the training
    /// phase of `tests/zero_alloc.rs`). The logits are bit-identical to
    /// [`InferLayer::infer_into`]'s for finite inputs (every kernel follows
    /// the numerical contract in `duet_nn::kernels`); the returned reference
    /// lives in `tws` until the next pass overwrites it, and the matching
    /// backward is [`Made::backward_scratch`], handed the same `input`.
    ///
    /// `sparse` is an optional sparse row capture of `input`. When it is
    /// provided and sparse *enough* (see [`SparseRows::is_sparse_enough`] —
    /// the exact complement of the dense kernels' `mostly_dense` dispatch, so
    /// the kernel class never changes), the first masked layer runs the fused
    /// sparse-input kernel, skipping the zero multiplies the one-hot
    /// predicate encoding is mostly made of; the backward must then be handed
    /// the same capture.
    pub fn forward_train<'w>(
        &self,
        input: &Matrix,
        sparse: Option<&SparseRows>,
        tws: &'w mut TrainWorkspace,
    ) -> &'w Matrix {
        assert_eq!(
            input.cols(),
            self.config.input_width(),
            "input width mismatch: expected {}",
            self.config.input_width()
        );
        let num = self.stages.len();
        let TrainForwardParts { acts, hidden, first_sparse } = tws.forward_parts(num);
        *first_sparse = false;
        for (i, stage) in self.stages.iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(i);
            let x: &Matrix = if i == 0 { input } else { &prev[i - 1] };
            let out = &mut rest[0];
            match stage {
                Stage::MaskedRelu(linear) => {
                    let capture = sparse.filter(|s| i == 0 && s.is_sparse_enough());
                    linear.train_forward(x, capture, out);
                    *first_sparse |= capture.is_some();
                    Activation::Relu.apply(out.as_mut_slice());
                }
                Stage::Residual(block) => block.train_forward(x, &mut hidden[i], out),
                Stage::Output(linear) => linear.train_forward(x, None, out),
            }
        }
        &acts[num - 1]
    }

    /// Scratch-buffer backward of the most recent
    /// [`forward_train`](Self::forward_train), which read `input`. The
    /// gradient ping-pongs through the [`TrainWorkspace`]'s three reusable
    /// buffers (three, not two: a residual block keeps its incoming gradient
    /// alive across both inner backwards for the identity skip), and each
    /// layer's `dW`/`db` is staged in workspace scratch before it is added
    /// into `grad`: the network's gradient buffer, one `f32` per parameter in
    /// visiting order (at least [`Made::num_parameters`] long; the caller
    /// zeroes it before a step's first backward).
    ///
    /// `sparse` must be the same capture the forward consumed (pass `None`
    /// after a dense forward). With `need_input_grad` the gradient w.r.t.
    /// the network input is left in the workspace and readable via
    /// [`TrainWorkspace::input_grad`] (the MPSN chain needs it; plain tables
    /// skip that final matmul).
    ///
    /// # Panics
    /// Panics if called before a training forward, or if the forward used
    /// the sparse first-layer path and `sparse` is `None`.
    pub fn backward_scratch(
        &self,
        input: &Matrix,
        grad_logits: &Matrix,
        sparse: Option<&SparseRows>,
        tws: &mut TrainWorkspace,
        grad: &mut [f32],
        need_input_grad: bool,
    ) {
        let TrainBackwardParts { acts, hidden, first_sparse, grads, stage } =
            tws.backward_parts(self.stages.len());
        let mut end = self.num_parameters();
        // Index of the grads buffer holding the live incoming gradient.
        let mut cur = 0usize;
        for (i, st) in self.stages.iter().enumerate().rev() {
            let x: &Matrix = if i == 0 { input } else { &acts[i - 1] };
            let start = end - st.num_parameters();
            let g = &mut grad[start..end];
            end = start;
            match st {
                Stage::Output(linear) => {
                    let grad_in = Some(&mut grads[0]);
                    linear.backward_scratch(x, None, grad_logits, g, stage, grad_in);
                    cur = 0;
                }
                Stage::Residual(block) => {
                    block.backward_scratch((x, &hidden[i]), pick3(grads, cur), g, stage);
                    cur = (cur + 2) % 3;
                }
                Stage::MaskedRelu(linear) => {
                    // Gate against the stage's own checkpointed (rectified) output.
                    Activation::Relu.gate(grads[cur].as_mut_slice(), acts[i].as_slice());
                    let want_grad_in = i != 0 || need_input_grad;
                    let (g_out, g_in_buf) = pick2(grads, cur);
                    let grad_in = if want_grad_in { Some(g_in_buf) } else { None };
                    let capture = (i == 0 && first_sparse).then(|| {
                        sparse.expect(
                            "forward used the sparse first-layer path; pass the same sparse input to backward",
                        )
                    });
                    linear.backward_scratch(x, capture, g_out, g, stage, grad_in);
                    if want_grad_in {
                        cur = (cur + 1) % 3;
                    }
                }
            }
        }
        debug_assert_eq!(end, 0);
        tws.set_input_grad_slot(cur);
    }

    /// Total number of trainable scalars. Computed from the stage shapes
    /// (`&self`), so read paths — e.g. a serving tier's memory-budget
    /// accounting — can query sizes without exclusive access.
    pub fn num_parameters(&self) -> usize {
        self.stages.iter().map(Stage::num_parameters).sum()
    }

    /// Model size in bytes assuming `f32` storage (reported in Table II).
    pub fn size_bytes(&self) -> usize {
        self.num_parameters() * std::mem::size_of::<f32>()
    }

    /// Bytes the network holds to serve: every parameter plus every masked
    /// layer's pack.
    pub fn resident_bytes(&self) -> usize {
        self.stages.iter().flat_map(Stage::layers).map(MaskedLinear::resident_bytes).sum()
    }
}

impl InferLayer for Made {
    /// The serving-path forward: activations ping-pong through the
    /// workspace, and every stage reads its layers' stored (masked) weights
    /// and packs directly. Bit-identical to [`Made::forward_train`].
    fn infer_into<'w>(&self, input: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        self.infer_trunk(input, ws);
        self.project(None, ws);
        ws.output()
    }
}

fn prefix_sums(sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(sizes.len());
    let mut acc = 0;
    for &s in sizes {
        out.push(acc);
        acc += s;
    }
    out
}

impl Params for Made {
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for layer in self.stages.iter().flat_map(Stage::layers) {
            layer.visit_params_ref(f);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in self.stages.iter_mut().flat_map(Stage::layers_mut) {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::loss::grouped_cross_entropy;
    use rand::Rng;

    fn small_config(residual: bool) -> MadeConfig {
        MadeConfig {
            input_block_sizes: vec![4, 3, 5],
            output_block_sizes: vec![6, 2, 4],
            hidden_sizes: vec![16, 16],
            residual,
        }
    }

    #[test]
    fn forward_shapes() {
        for residual in [false, true] {
            let mut rng = seeded_rng(10);
            let made = Made::new(small_config(residual), &mut rng);
            let x = Matrix::zeros(3, 12);
            let y = made.forward_inference(&x);
            assert_eq!(y.shape(), (3, 12));
            assert_eq!(made.output_block(2), (8, 4));
        }
    }

    #[test]
    fn autoregressive_property_holds() {
        // Perturbing the input block of column j must not change the logits of
        // any column i <= j.
        for residual in [false, true] {
            let mut rng = seeded_rng(11);
            let made = Made::new(small_config(residual), &mut rng);
            let mut base_in = vec![0.3f32; 12];
            for (i, v) in base_in.iter_mut().enumerate() {
                *v += i as f32 * 0.01;
            }
            let base = made.forward_inference(&Matrix::from_vec(1, 12, base_in.clone()));
            for perturb_col in 0..3usize {
                let off = made.input_offset(perturb_col);
                let width = made.config().input_block_sizes[perturb_col];
                let mut moved_in = base_in.clone();
                for v in &mut moved_in[off..off + width] {
                    *v += 17.0;
                }
                let moved = made.forward_inference(&Matrix::from_vec(1, 12, moved_in));
                for out_col in 0..=perturb_col {
                    let (o, len) = made.output_block(out_col);
                    for k in 0..len {
                        assert!(
                            (base.get(0, o + k) - moved.get(0, o + k)).abs() < 1e-5,
                            "output block {out_col} changed when perturbing input block {perturb_col} (residual={residual})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_column_output_ignores_all_inputs() {
        let mut rng = seeded_rng(12);
        let made = Made::new(small_config(false), &mut rng);
        let a = made.forward_inference(&Matrix::full(1, 12, 0.0));
        let b = made.forward_inference(&Matrix::full(1, 12, 5.0));
        let (o, len) = made.output_block(0);
        for k in 0..len {
            assert!((a.get(0, o + k) - b.get(0, o + k)).abs() < 1e-6);
        }
    }

    /// Analytic gradient of the first six weights (training forward + scratch
    /// backward, through the sparse first layer when `sparse_input`) against
    /// central finite differences of the inference forward.
    fn check_finite_differences(seed: u64, sparse_input: bool) {
        let mut rng = seeded_rng(seed);
        let config = MadeConfig {
            input_block_sizes: vec![2, 3],
            output_block_sizes: vec![3, 2],
            hidden_sizes: vec![8],
            residual: false,
        };
        let mut made = Made::new(config.clone(), &mut rng);
        let batch = 4;
        let mut input = Matrix::zeros(batch, config.input_width());
        // Mostly-zero input (one-hot-like, as `fill_input` produces) takes the
        // sparse first-layer path; a fully dense one must not.
        for v in input.as_mut_slice() {
            if !sparse_input || rng.gen_range(0.0..1.0f32) < 0.3 {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        let labels: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 0], vec![1, 1], vec![2, 0]];
        let blocks = config.output_block_sizes.clone();

        let mut grad = vec![0.0; made.num_parameters()];
        let mut tws = TrainWorkspace::new();
        let mut sparse = SparseRows::new();
        sparse.capture_from(&input);
        assert_eq!(sparse.is_sparse_enough(), sparse_input, "input must pick the path under test");
        let logits = made.forward_train(&input, Some(&sparse), &mut tws).clone();
        let (loss, grad_logits) = grouped_cross_entropy(&logits, &blocks, &labels);
        made.backward_scratch(&input, &grad_logits, Some(&sparse), &mut tws, &mut grad, false);
        assert!(loss.is_finite());
        // The first parameter is the first layer's weight.
        let analytic = grad[..6].to_vec();

        let eps = 1e-3f32;
        for (idx, &ga) in analytic.iter().enumerate() {
            let mut loss_plus = 0.0;
            let mut loss_minus = 0.0;
            for sign in [1.0f32, -1.0] {
                let mut visited = false;
                made.visit_params(&mut |p| {
                    if !visited {
                        p.data.as_mut_slice()[idx] += sign * eps;
                        visited = true;
                    }
                });
                let logits = made.forward_inference(&input);
                let (l, _) = grouped_cross_entropy(&logits, &blocks, &labels);
                if sign > 0.0 {
                    loss_plus = l;
                } else {
                    loss_minus = l;
                }
                let mut visited = false;
                made.visit_params(&mut |p| {
                    if !visited {
                        p.data.as_mut_slice()[idx] -= sign * eps;
                        visited = true;
                    }
                });
            }
            let numeric = (loss_plus - loss_minus) / (2.0 * eps);
            assert!(
                (numeric - ga).abs() < 2e-2 * (1.0 + ga.abs()),
                "finite-diff mismatch at {idx}: analytic {ga}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        check_finite_differences(13, false);
    }

    #[test]
    fn scratch_gradient_matches_finite_differences() {
        check_finite_differences(23, true);
    }

    #[test]
    #[should_panic(expected = "forward used the sparse first-layer path")]
    fn dense_backward_after_sparse_forward_panics() {
        // A backward must read the layer input the forward read: after a
        // sparse first layer, one without the capture fails loudly.
        let mut rng = seeded_rng(24);
        let config = small_config(false);
        let made = Made::new(config.clone(), &mut rng);
        let input = Matrix::zeros(2, config.input_width()); // all-zero: maximally sparse
        let mut tws = TrainWorkspace::new();
        let mut sparse = SparseRows::new();
        sparse.capture_from(&input);
        let _ = made.forward_train(&input, Some(&sparse), &mut tws);
        let grad_logits = Matrix::zeros(2, config.output_width());
        let mut grad = vec![0.0; made.num_parameters()];
        made.backward_scratch(&input, &grad_logits, None, &mut tws, &mut grad, false);
    }

    #[test]
    fn param_count_and_size() {
        for residual in [false, true] {
            let mut rng = seeded_rng(14);
            let made = Made::new(small_config(residual), &mut rng);
            let n = made.num_parameters();
            assert!(n > 0);
            assert_eq!(made.size_bytes(), n * 4);
            // The shape-derived count must agree with actually visiting
            // every parameter.
            assert_eq!(n, made.param_count(), "shape-derived count diverged (residual={residual})");
        }
    }

    #[test]
    fn single_column_table_is_supported() {
        let mut rng = seeded_rng(15);
        let config = MadeConfig {
            input_block_sizes: vec![5],
            output_block_sizes: vec![7],
            hidden_sizes: vec![8],
            residual: false,
        };
        let made = Made::new(config, &mut rng);
        let a = made.forward_inference(&Matrix::full(1, 5, 0.0));
        let b = made.forward_inference(&Matrix::full(1, 5, 3.0));
        // With one column the output is unconditional: inputs must not matter.
        for k in 0..7 {
            assert!((a.get(0, k) - b.get(0, k)).abs() < 1e-6);
        }
    }
}
