//! Training loops: data-driven training on the virtual table (Algorithm 1 +
//! cross-entropy) and hybrid training with the differentiable Q-Error loss
//! (Algorithm 2, `L = L_data + λ·log2(QError + 1)`).
//!
//! Both losses go through the **same** network and the same code: one row
//! encoder (`DuetModel::fill_input`), one checkpointing training forward and
//! one scratch backward on the backbone (`Made::forward_train` /
//! `Made::backward_scratch`), and for models with MPSNs the same pair on the
//! per-column embedders (`DuetModel::backprop_mpsn`).
//!
//! The whole step — input encoding, the backbone forward (with a fused
//! sparse first layer over the mostly-zero predicate encoding), the
//! per-column softmaxes, the gradient staging of both losses, the scratch
//! backward pass, MPSN back-propagation (all three kinds, back-propagation
//! through time included), and the Adam update — runs through a
//! [`TrainStepScratch`], so a steady-state [`train_step`] performs **zero
//! heap allocation** (asserted by the training phases of
//! `tests/zero_alloc.rs`, with and without MPSNs).

use crate::config::DuetConfig;
use crate::encoding::IdPredicate;
use crate::model::{query_to_id_predicates, DuetModel, DuetWorkspace};
use crate::virtual_table::{sample_virtual_batch, SamplerConfig, VirtualTuple};
use duet_data::Table;
use duet_nn::{
    grouped_cross_entropy_with, seeded_rng, softmax_block_into, Adam, GradClip, Matrix,
    SoftmaxMode, TrainWorkspace,
};
use duet_query::Query;
use rand::seq::SliceRandom;
use std::borrow::Borrow;
use std::time::Instant;

/// Per-epoch training statistics, consumed by the convergence experiments
/// (Figures 3, 8 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean per-batch unsupervised loss `L_data` (summed cross-entropy over
    /// columns).
    pub data_loss: f64,
    /// Mean per-batch supervised loss `log2(QError + 1)` before scaling by λ
    /// (0 when training purely data-driven).
    pub query_loss: f64,
    /// Mean raw Q-Error over the query batches seen this epoch (1.0 when not
    /// hybrid).
    pub mean_train_q_error: f64,
    /// Wall-clock seconds spent in this epoch.
    pub seconds: f64,
    /// Number of (anchor) tuples processed this epoch.
    pub tuples_processed: usize,
}

/// A labelled training workload for hybrid training.
#[derive(Debug, Clone, Copy)]
pub struct TrainingWorkload<'a> {
    /// The training queries (e.g. historical workload).
    pub queries: &'a [Query],
    /// Their true cardinalities.
    pub cardinalities: &'a [u64],
}

/// Pre-processed query used by the supervised (Q-Error) loss: id-space
/// predicates, per-column valid-id intervals, the labelled cardinality, and
/// a loss weight (1 for offline workload queries; serving feedback can
/// up- or down-weight an observation).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) preds: Vec<Vec<IdPredicate>>,
    pub(crate) intervals: Vec<(u32, u32)>,
    pub(crate) actual: f64,
    pub(crate) weight: f64,
}

impl PreparedQuery {
    /// Translate `query` against `schema` once, so every training step that
    /// revisits it pays no re-encoding.
    pub fn prepare(schema: &Table, query: &Query, cardinality: u64) -> Self {
        Self::from_parts(
            query_to_id_predicates(schema, query),
            query.column_intervals(schema),
            cardinality as f64,
        )
    }

    /// Build a prepared query from already-encoded id-space parts.
    ///
    /// This is the serving feedback path: the front door encodes every
    /// request into per-column [`IdPredicate`]s and valid-id intervals
    /// before routing it, so when a client later reports the query's true
    /// cardinality those encodings can feed the supervised loss directly —
    /// no query text, no re-encoding against the schema.
    pub fn from_parts(
        preds: Vec<Vec<IdPredicate>>,
        intervals: Vec<(u32, u32)>,
        actual: f64,
    ) -> Self {
        Self { preds, intervals, actual, weight: 1.0 }
    }

    /// Scale this query's contribution to the supervised loss (and its
    /// gradient) by `weight`. The per-batch loss is weight-normalized, so a
    /// weight of 2 counts exactly like two copies of the observation —
    /// how online feedback emphasizes freshly observed cardinalities over a
    /// stale offline workload.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "weight must be finite and non-negative");
        self.weight = weight;
        self
    }

    /// The labelled true cardinality.
    pub fn actual(&self) -> f64 {
        self.actual
    }

    /// The loss weight (1.0 unless set via [`PreparedQuery::with_weight`]).
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

// Prepared queries feed `DuetModel::fill_input` directly (by value or
// reference), so the training loop never re-gathers per-batch row vectors.
impl AsRef<[Vec<IdPredicate>]> for PreparedQuery {
    fn as_ref(&self) -> &[Vec<IdPredicate>] {
        &self.preds
    }
}

/// One constrained column staged by the query pass: its index, its logit
/// offset, where its probabilities start in the flat staging buffer, and its
/// restricted mass.
#[derive(Debug, Clone, Copy)]
struct ConstrainedCol {
    col: usize,
    offset: usize,
    start: usize,
    mass: f64,
}

/// Every reusable buffer one training step's forward work needs, owned by
/// the trainer (or a bench/test) across steps.
///
/// Layered on the inference workspaces: input encoding stages through an
/// embedded [`DuetWorkspace`], the backbone's training forward checkpoints
/// its activations into a [`duet_nn::TrainWorkspace`], both losses stage
/// `dL/dlogits` in one reused gradient matrix, and every backward pass adds
/// into one flat gradient buffer — the model's whole gradient, backbone then
/// MPSNs, in visiting order (Adam's layout). The query pass additionally
/// stages its per-column probabilities in a **flat buffer plus an offset
/// table**, not per-row heap containers. The model itself holds no training
/// state.
#[derive(Debug, Clone, Default)]
pub struct TrainStepScratch {
    /// Input-encoding workspace (shared with the inference path's layout).
    ws: DuetWorkspace,
    /// Train-side activation checkpoints and backward scratch.
    nn: TrainWorkspace,
    /// Every parameter's gradient, in visiting order.
    grad: Vec<f32>,
    /// `dL/dlogits` staging, shared by the data and query passes.
    grad_logits: Matrix,
    /// Flat per-column probability staging for the query pass.
    probs: Vec<f32>,
    /// Offset table over `probs`: one entry per constrained column.
    cols: Vec<ConstrainedCol>,
}

impl TrainStepScratch {
    /// An empty scratch; buffers grow over the first step and are reused
    /// allocation-free afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Train a [`DuetModel`] on `table`, optionally with a labelled workload for
/// hybrid training, invoking `on_epoch` after every epoch.
pub fn train_model(
    table: &Table,
    config: &DuetConfig,
    workload: Option<TrainingWorkload<'_>>,
    seed: u64,
    mut on_epoch: impl FnMut(&EpochStats),
) -> DuetModel {
    train_model_with_eval(table, config, workload, seed, |stats, _| on_epoch(stats))
}

/// Like [`train_model`], but the per-epoch callback also receives the current
/// model so convergence experiments (Figures 8/9) can evaluate Q-Errors after
/// every epoch.
pub fn train_model_with_eval(
    table: &Table,
    config: &DuetConfig,
    workload: Option<TrainingWorkload<'_>>,
    seed: u64,
    mut on_epoch: impl FnMut(&EpochStats, &DuetModel),
) -> DuetModel {
    config.validate().expect("invalid Duet configuration");
    let mut model = DuetModel::new(table, config, seed);
    let mut rng = seeded_rng(seed ^ 0x517cc1b727220a95);
    let mut adam = Adam::new(config.learning_rate);
    if config.grad_clip > 0.0 {
        adam = adam.with_clip(GradClip::Value(config.grad_clip));
    }

    let sampler = SamplerConfig {
        expand_mu: config.expand_mu,
        wildcard_prob: config.wildcard_prob,
        max_predicates_per_column: config.max_predicates_per_column,
    };

    // Prepare the supervised workload once.
    let prepared: Vec<PreparedQuery> = match workload {
        Some(w) if config.lambda > 0.0 && config.query_batch_size > 0 => {
            assert_eq!(
                w.queries.len(),
                w.cardinalities.len(),
                "every training query needs a cardinality label"
            );
            w.queries
                .iter()
                .zip(w.cardinalities)
                .map(|(q, &card)| PreparedQuery::prepare(table, q, card))
                .collect()
        }
        _ => Vec::new(),
    };
    let hybrid = !prepared.is_empty();
    let num_rows_f = table.num_rows() as f64;

    let mut row_order: Vec<usize> = (0..table.num_rows()).collect();
    let mut query_cursor = 0usize;
    // One step scratch for the whole run: input encoding, the training
    // forward's activation checkpoints, and both losses' gradient staging
    // reuse these buffers across every batch of every epoch.
    let mut scratch = TrainStepScratch::new();
    // Reused query mini-batch container (borrows into `prepared`).
    let mut query_batch: Vec<&PreparedQuery> = Vec::new();

    for epoch in 0..config.epochs {
        let started = Instant::now();
        row_order.shuffle(&mut rng);
        let mut data_loss_sum = 0.0f64;
        let mut query_loss_sum = 0.0f64;
        let mut q_error_sum = 0.0f64;
        let mut batches = 0usize;
        let mut query_batches = 0usize;

        for chunk in row_order.chunks(config.batch_size) {
            let virtual_batch = sample_virtual_batch(table, chunk, &sampler, &mut rng);
            if hybrid {
                next_query_batch(
                    &prepared,
                    &mut query_cursor,
                    config.query_batch_size,
                    &mut query_batch,
                );
            }
            let (loss_data, loss_q, mean_q) = train_step(
                &mut model,
                &mut adam,
                &virtual_batch,
                &query_batch,
                num_rows_f,
                config.lambda,
                &mut scratch,
            );
            data_loss_sum += loss_data as f64;
            if hybrid {
                query_loss_sum += loss_q;
                q_error_sum += mean_q;
                query_batches += 1;
            }
            batches += 1;
        }

        let stats = EpochStats {
            epoch,
            data_loss: data_loss_sum / batches.max(1) as f64,
            query_loss: query_loss_sum / query_batches.max(1) as f64,
            mean_train_q_error: if query_batches > 0 {
                q_error_sum / query_batches as f64
            } else {
                1.0
            },
            seconds: started.elapsed().as_secs_f64(),
            tuples_processed: row_order.len(),
        };
        on_epoch(&stats, &model);
    }
    model
}

/// The data-driven training forward for one virtual-tuple batch: encode the
/// batch into the scratch input (capturing its sparse rows alongside — the
/// one-hot predicate encoding is mostly zeros, so the backbone's first layer
/// runs the fused sparse kernel), run the backbone's checkpointing forward,
/// and stage `dL/dlogits` of the grouped cross-entropy in the scratch.
///
/// Returns the batch loss; the caller continues with the scratch backward
/// (see [`train_step`]). Zero heap allocation once `scratch` is warm — this
/// is the path measured by the training phases of `tests/zero_alloc.rs`.
pub fn data_forward(
    model: &mut DuetModel,
    batch: &[VirtualTuple],
    scratch: &mut TrainStepScratch,
) -> f32 {
    let TrainStepScratch { ws, nn, grad_logits, .. } = scratch;
    model.fill_input_with_sparse(batch, ws);
    let logits = model.made().forward_train(ws.input(), Some(&ws.sparse), nn);
    grouped_cross_entropy_with(logits, model.output_sizes_ref(), batch, grad_logits)
}

/// The backward half shared by both losses: back-propagate the `dL/dlogits`
/// the preceding forward staged through the backbone and — when the model has
/// MPSNs — on through the input gradient into the per-column embedders,
/// re-staging `rows` (the batch that forward encoded) as `fill_input` did.
/// Every parameter gradient is added into the scratch's gradient buffer.
fn backward<R: AsRef<[Vec<IdPredicate>]>>(
    model: &DuetModel,
    rows: &[R],
    scratch: &mut TrainStepScratch,
) {
    let has_mpsn = !model.mpsns().is_empty();
    let TrainStepScratch { ws, nn, grad, grad_logits, .. } = scratch;
    let (made_grad, mpsn_grad) = grad.split_at_mut(model.made().num_parameters());
    let sparse = Some(&ws.sparse);
    model.made().backward_scratch(ws.input(), grad_logits, sparse, nn, made_grad, has_mpsn);
    if has_mpsn {
        model.backprop_mpsn(rows, nn.input_grad(), mpsn_grad, ws);
    }
}

/// Refill `out` with the next `size` prepared queries, wrapping around the
/// workload (the container is reused across steps).
fn next_query_batch<'a>(
    prepared: &'a [PreparedQuery],
    cursor: &mut usize,
    size: usize,
    out: &mut Vec<&'a PreparedQuery>,
) {
    out.clear();
    for _ in 0..size.min(prepared.len()) {
        out.push(&prepared[*cursor % prepared.len()]);
        *cursor += 1;
    }
}

/// The supervised training forward for a query mini-batch (Algorithm 2's
/// Q-Error loss): encode, forward, per-column **exact** softmax over each
/// constrained column, and stage the λ-scaled `dL/dlogits` in the scratch.
///
/// Probabilities are staged in the scratch's flat buffer + offset table —
/// no per-row heap containers — so the pass is allocation-free once warm.
/// Returns `(mean log2(QError + 1), mean QError)`; the caller continues with
/// the scratch backward (see [`train_step`]), whose gradients already
/// include the λ scaling.
pub fn query_forward<Q>(
    model: &mut DuetModel,
    batch: &[Q],
    num_rows: f64,
    lambda: f64,
    scratch: &mut TrainStepScratch,
) -> (f64, f64)
where
    Q: Borrow<PreparedQuery> + AsRef<[Vec<IdPredicate>]>,
{
    if batch.is_empty() {
        // Match the neutral element the hybrid loop folds with (loss 0,
        // q-error 1); the staged gradient is left untouched, so callers
        // must not run backward for an empty batch.
        return (0.0, 1.0);
    }
    let TrainStepScratch { ws, nn, grad_logits, probs, cols, .. } = scratch;
    model.fill_input_with_sparse(batch, ws);
    let logits = model.made().forward_train(ws.input(), Some(&ws.sparse), nn);
    let sizes = model.output_sizes_ref();

    grad_logits.reset(logits.rows(), logits.cols());
    let mut loss_sum = 0.0f64;
    let mut q_sum = 0.0f64;
    // Weight-normalized mean: with the default all-ones weights this is
    // exactly the old `1 / batch.len()` scaling (the sum of `len` ones is
    // the integer `len`, representable exactly), so unweighted training is
    // bit-identical to the pre-weighting implementation.
    let total_weight: f64 = batch.iter().map(|q| q.borrow().weight).sum();
    if total_weight <= 0.0 {
        return (0.0, 1.0);
    }
    let scale = lambda / total_weight;
    let ln2 = std::f64::consts::LN_2;

    for (r, q) in batch.iter().enumerate() {
        let pq = q.borrow();
        let weight = pq.weight;
        let row = logits.row(r);
        // Per-column softmax, restricted mass and the product selectivity.
        // Only constrained columns are staged (flat probs + offset table).
        probs.clear();
        cols.clear();
        let mut offset = 0usize;
        let mut selectivity = 1.0f64;
        let mut contradiction = false;
        for (col, &size) in sizes.iter().enumerate() {
            let (lo, hi) = pq.intervals[col];
            if lo >= hi {
                contradiction = true;
            } else if !(lo == 0 && hi as usize == size) {
                let start = probs.len();
                probs.resize(start + size, 0.0);
                // Exact softmax: the gradient below assumes the same exp
                // the forward used.
                softmax_block_into(
                    &row[offset..offset + size],
                    &mut probs[start..start + size],
                    SoftmaxMode::Exact,
                );
                let mass: f64 =
                    probs[start + lo as usize..start + hi as usize].iter().map(|&p| p as f64).sum();
                let mass = mass.max(1e-9);
                selectivity *= mass;
                cols.push(ConstrainedCol { col, offset, start, mass });
            }
            offset += size;
        }
        if contradiction {
            // The estimate is exactly zero and carries no useful gradient.
            let actual = pq.actual.max(1.0);
            let q = actual; // est clamps to 1
            loss_sum += weight * (q + 1.0).log2();
            q_sum += weight * q;
            continue;
        }

        let est_raw = selectivity * num_rows;
        let est = est_raw.max(1.0);
        let actual = pq.actual.max(1.0);
        let q = if est >= actual { est / actual } else { actual / est };
        loss_sum += weight * (q + 1.0).log2();
        q_sum += weight * q;

        // dL/dq, dq/d est, d est/d sel. When the estimate sits below the
        // 1-row clamp we still propagate the unclamped subgradient so badly
        // underestimating queries keep producing a learning signal. The
        // query's feedback weight scales the whole chain.
        let dl_dq = weight / ((q + 1.0) * ln2);
        let dq_dest = if est >= actual { 1.0 / actual } else { -actual / (est * est) };
        let dest_dsel = num_rows;
        let dl_dsel = dl_dq * dq_dest * dest_dsel * scale;

        for cc in cols.iter() {
            let dl_dmass = dl_dsel * (selectivity / cc.mass);
            // Softmax backward: dL/dlogit_k = p_k * (in_range_k - mass) * dl_dmass
            let (lo, hi) = pq.intervals[cc.col];
            let size = sizes[cc.col];
            let grow = grad_logits.row_mut(r);
            for (k, &p) in probs[cc.start..cc.start + size].iter().enumerate() {
                let in_range = if (k as u32) >= lo && (k as u32) < hi { 1.0 } else { 0.0 };
                grow[cc.offset + k] += (p as f64 * (in_range - cc.mass) * dl_dmass) as f32;
            }
        }
    }

    (loss_sum / total_weight, q_sum / total_weight)
}

/// One complete optimizer step — the paper's hybrid update (Algorithm 2):
/// zero the scratch's gradient buffer, run the data-driven pass (forward + scratch
/// backward), the supervised query pass when `query_batch` is non-empty,
/// MPSN back-propagation when the model has MPSNs, then one Adam step.
///
/// Gradients ping-pong through `scratch`'s reusable buffers and the
/// backbone's first layer consumes the sparse capture of the encoded input,
/// so the steady-state step performs **zero heap allocation**, MPSN
/// back-propagation included (asserted by the full-step and MPSN-step phases
/// of `tests/zero_alloc.rs`).
///
/// Returns `(data_loss, query_loss, mean_q_error)`, the query terms being
/// the fold-neutral `(0.0, 1.0)` for an empty query batch.
pub fn train_step<Q>(
    model: &mut DuetModel,
    adam: &mut Adam,
    batch: &[VirtualTuple],
    query_batch: &[Q],
    num_rows: f64,
    lambda: f64,
    scratch: &mut TrainStepScratch,
) -> (f32, f64, f64)
where
    Q: Borrow<PreparedQuery> + AsRef<[Vec<IdPredicate>]>,
{
    scratch.grad.clear();
    scratch.grad.resize(model.num_parameters(), 0.0);
    let data_loss = data_forward(model, batch, scratch);
    backward(model, batch, scratch);
    let (query_loss, mean_q) = if query_batch.is_empty() {
        (0.0, 1.0)
    } else {
        let losses = query_forward(model, query_batch, num_rows, lambda, scratch);
        backward(model, query_batch, scratch);
        losses
    };
    adam.step(model, &scratch.grad);
    (data_loss, query_loss, mean_q)
}

/// Convenience wrapper: shuffle-free deterministic selection of training rows
/// for throughput measurements (Table III): runs exactly `steps` optimizer
/// steps and reports tuples/second.
pub fn measure_training_throughput(
    table: &Table,
    config: &DuetConfig,
    workload: Option<TrainingWorkload<'_>>,
    steps: usize,
    seed: u64,
) -> f64 {
    let mut cfg = config.clone();
    // One epoch over a prefix that covers exactly `steps` batches.
    let rows_needed = (steps * cfg.batch_size).min(table.num_rows()).max(cfg.batch_size);
    cfg.epochs = 1;
    let sub = table.sample_prefix(rows_needed);
    let started = Instant::now();
    let mut processed = 0usize;
    let _ = train_model(&sub, &cfg, workload, seed, |stats| {
        processed += stats.tuples_processed;
    });
    let secs = started.elapsed().as_secs_f64();
    processed as f64 / secs.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpsnKind;
    use duet_data::datasets::census_like;
    use duet_nn::Params;
    use duet_query::{exact_cardinality, WorkloadSpec};

    #[test]
    fn data_training_reduces_loss() {
        let table = census_like(1_000, 21);
        let mut cfg = DuetConfig::small();
        cfg.epochs = 4;
        let mut losses = Vec::new();
        let _ = train_model(&table, &cfg, None, 7, |s| losses.push(s.data_loss));
        assert_eq!(losses.len(), 4);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "data loss should decrease: {losses:?}"
        );
    }

    #[test]
    fn hybrid_training_reports_query_loss() {
        let table = census_like(800, 22);
        let spec = WorkloadSpec::in_workload(&table, 64, 42);
        let queries = spec.generate(&table);
        let cards: Vec<u64> = queries.iter().map(|q| exact_cardinality(&table, q)).collect();
        let mut cfg = DuetConfig::small();
        cfg.epochs = 2;
        let workload = TrainingWorkload { queries: &queries, cardinalities: &cards };
        let mut saw_query_loss = false;
        let _ = train_model(&table, &cfg, Some(workload), 8, |s| {
            if s.query_loss > 0.0 {
                saw_query_loss = true;
            }
            assert!(s.mean_train_q_error >= 1.0);
        });
        assert!(saw_query_loss, "hybrid training should produce a supervised loss");
    }

    #[test]
    fn training_with_mpsn_updates_mpsn_parameters() {
        let table = census_like(400, 23);
        let mut cfg = DuetConfig::small().with_mpsn(MpsnKind::Mlp, 2);
        cfg.epochs = 1;
        cfg.batch_size = 64;
        let model_before = DuetModel::new(&table, &cfg, 5);
        let before: Vec<f32> = {
            let mut v = Vec::new();
            model_before.visit_params_ref(&mut |p| v.push(p.data.mean()));
            v
        };
        let model_after = train_model(&table, &cfg, None, 5, |_| {});
        let after: Vec<f32> = {
            let mut v = Vec::new();
            model_after.visit_params_ref(&mut |p| v.push(p.data.mean()));
            v
        };
        assert_eq!(before.len(), after.len());
        let changed =
            before.iter().zip(after.iter()).filter(|(a, b)| (*a - *b).abs() > 1e-9).count();
        assert!(
            changed > before.len() / 2,
            "most parameters (including MPSN) should move during training"
        );
    }

    #[test]
    fn throughput_measurement_is_positive() {
        let table = census_like(600, 24);
        let cfg = DuetConfig::small().with_epochs(1);
        let tput = measure_training_throughput(&table, &cfg, None, 2, 3);
        assert!(tput > 0.0);
    }

    #[test]
    fn data_forward_matches_inference_logits_across_scratch_reuse() {
        // The checkpointing, sparse-first-layer training forward must stage
        // the loss and logits gradient of the logits inference serves for the
        // same encoded batch, however often the scratch is reused.
        let table = census_like(300, 25);
        let cfg = DuetConfig::small();
        let mut model = DuetModel::new(&table, &cfg, 17);
        let mut rng = seeded_rng(99);
        let sampler =
            SamplerConfig { expand_mu: 2, wildcard_prob: 0.3, max_predicates_per_column: 1 };
        let rows: Vec<usize> = (0..24).collect();
        let batch = sample_virtual_batch(&table, &rows, &sampler, &mut rng);

        let mut ws = DuetWorkspace::new();
        model.fill_input(&batch, &mut ws);
        let logits = model.made().forward_inference(ws.input());
        let mut want_grad = Matrix::default();
        let want_loss =
            grouped_cross_entropy_with(&logits, model.output_sizes_ref(), &batch, &mut want_grad);

        let mut scratch = TrainStepScratch::new();
        for round in 0..2 {
            let loss = data_forward(&mut model, &batch, &mut scratch);
            assert_eq!(loss, want_loss, "round {round}");
            assert_eq!(scratch.grad_logits, want_grad, "round {round}");
        }
    }

    #[test]
    fn query_forward_is_stable_across_scratch_reuse() {
        let table = census_like(400, 26);
        let cfg = DuetConfig::small();
        let mut model = DuetModel::new(&table, &cfg, 3);
        let queries = WorkloadSpec::in_workload(&table, 16, 7).generate(&table);
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
            .collect();
        let mut scratch = TrainStepScratch::new();
        let first =
            query_forward(&mut model, &prepared, table.num_rows() as f64, 0.1, &mut scratch);
        let first_grad = scratch.grad_logits.clone();
        let second =
            query_forward(&mut model, &prepared, table.num_rows() as f64, 0.1, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(first_grad, scratch.grad_logits);
        assert!(first.0.is_finite() && first.1 >= 1.0);

        // An empty batch is the fold-neutral element, never NaN.
        let empty: Vec<PreparedQuery> = Vec::new();
        let neutral = query_forward(&mut model, &empty, table.num_rows() as f64, 0.1, &mut scratch);
        assert_eq!(neutral, (0.0, 1.0));
    }

    #[test]
    fn from_parts_matches_prepare() {
        let table = census_like(300, 27);
        let query = WorkloadSpec::random(&table, 1, 9).generate(&table).remove(0);
        let card = exact_cardinality(&table, &query);
        let via_query = PreparedQuery::prepare(&table, &query, card);
        let via_parts = PreparedQuery::from_parts(
            query_to_id_predicates(&table, &query),
            query.column_intervals(&table),
            card as f64,
        );
        assert_eq!(via_query.preds, via_parts.preds);
        assert_eq!(via_query.intervals, via_parts.intervals);
        assert_eq!(via_query.actual, via_parts.actual);
        assert_eq!(via_query.weight(), 1.0);
        assert_eq!(via_parts.with_weight(3.0).weight(), 3.0);
    }

    #[test]
    fn feedback_weight_counts_like_duplication() {
        // A query with weight 2 must contribute to the weighted-mean loss and
        // the staged gradient exactly like two unit-weight copies of itself.
        let table = census_like(400, 28);
        let cfg = DuetConfig::small();
        let mut model = DuetModel::new(&table, &cfg, 6);
        let queries = WorkloadSpec::in_workload(&table, 4, 17).generate(&table);
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
            .collect();
        let num_rows = table.num_rows() as f64;

        // Weighted: [q0(w=2), q1, q2, q3].
        let mut weighted = prepared.clone();
        weighted[0] = weighted[0].clone().with_weight(2.0);
        let mut scratch = TrainStepScratch::new();
        let got = query_forward(&mut model, &weighted, num_rows, 0.1, &mut scratch);

        // Duplicated: [q0, q0, q1, q2, q3].
        let mut duplicated = vec![prepared[0].clone()];
        duplicated.extend(prepared.iter().cloned());
        let mut scratch_dup = TrainStepScratch::new();
        let want = query_forward(&mut model, &duplicated, num_rows, 0.1, &mut scratch_dup);

        assert!((got.0 - want.0).abs() < 1e-12, "loss {} vs {}", got.0, want.0);
        assert!((got.1 - want.1).abs() < 1e-12, "q-error {} vs {}", got.1, want.1);
        // The duplicated batch stages the copy's gradient on two rows; the
        // weighted batch folds it into one. Summing per-logit over rows of
        // the same query must agree.
        let gw = &scratch.grad_logits;
        let gd = &scratch_dup.grad_logits;
        for c in 0..gw.cols() {
            let w0 = gw.row(0)[c] as f64;
            let d0 = gd.row(0)[c] as f64 + gd.row(1)[c] as f64;
            assert!((w0 - d0).abs() < 1e-6, "gradient mismatch at col {c}: {w0} vs {d0}");
        }

        // Zero total weight degrades to the fold-neutral element.
        let zeroed: Vec<PreparedQuery> =
            prepared.iter().map(|q| q.clone().with_weight(0.0)).collect();
        assert_eq!(query_forward(&mut model, &zeroed, num_rows, 0.1, &mut scratch), (0.0, 1.0));
    }
}
