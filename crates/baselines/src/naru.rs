//! Naru (Yang et al., VLDB 2020): a deep autoregressive model over *tuple
//! values*, estimated with **progressive sampling** for range predicates.
//!
//! This is the estimator Duet is built against: it shares the same MADE
//! backbone but, because the model only conditions on concrete values, every
//! constrained column requires one forward pass over a batch of `s` samples —
//! O(n) forwards per query, GPU-hungry and non-deterministic. The training and
//! inference code here is shared with the UAE baseline.

use duet_data::Table;
use duet_nn::{
    grouped_cross_entropy, seeded_rng, softmax_into, Adam, ForwardWorkspace, GradClip, InferLayer,
    Made, MadeConfig, Matrix, TrainWorkspace,
};
use duet_query::{CardinalityEstimator, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Hyper-parameters of the Naru baseline (and, by extension, UAE).
#[derive(Debug, Clone, PartialEq)]
pub struct NaruConfig {
    /// Hidden layer widths of the MADE backbone.
    pub hidden_sizes: Vec<usize>,
    /// Use ResMADE instead of a plain MADE.
    pub residual: bool,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Probability of masking a column to the wildcard token during training
    /// (Naru's wildcard skipping).
    pub wildcard_prob: f64,
    /// Number of progressive samples per estimation (the paper uses 2,000).
    pub num_samples: usize,
}

impl NaruConfig {
    /// Small configuration for tests.
    pub fn small() -> Self {
        Self {
            hidden_sizes: vec![32, 32],
            residual: false,
            epochs: 3,
            batch_size: 128,
            learning_rate: 5e-3,
            wildcard_prob: 0.3,
            num_samples: 200,
        }
    }

    /// The paper's DMV architecture (hidden 512, 256, 512, 128, 1024).
    pub fn paper_dmv() -> Self {
        Self {
            hidden_sizes: vec![512, 256, 512, 128, 1024],
            residual: false,
            epochs: 20,
            batch_size: 2048,
            learning_rate: 2e-3,
            wildcard_prob: 0.3,
            num_samples: 2000,
        }
    }

    /// The paper's Kddcup98/Census architecture (2-layer ResMADE, 128 units).
    pub fn paper_resmade() -> Self {
        Self {
            hidden_sizes: vec![128, 128],
            residual: true,
            epochs: 20,
            batch_size: 100,
            learning_rate: 2e-3,
            wildcard_prob: 0.3,
            num_samples: 2000,
        }
    }

    /// Override the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Override the number of progressive samples.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.num_samples = samples.max(1);
        self
    }
}

/// Per-column binary value encoding used by Naru/UAE:
/// `[binary(value id) | present flag]`; wildcard columns are all zeros.
#[derive(Debug, Clone)]
pub struct ValueEncoder {
    value_bits: Vec<usize>,
    ndvs: Vec<usize>,
}

impl ValueEncoder {
    /// Build the encoder from a table's dictionaries.
    pub fn new(table: &Table) -> Self {
        let ndvs = table.ndvs();
        let value_bits = ndvs
            .iter()
            .map(|&ndv| {
                let mut bits = 0;
                let mut x = ndv.saturating_sub(1);
                while x > 0 {
                    bits += 1;
                    x >>= 1;
                }
                bits.max(1)
            })
            .collect();
        Self { value_bits, ndvs }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.ndvs.len()
    }

    /// Width of column `col`'s input block (+1 for the presence flag).
    pub fn block_width(&self, col: usize) -> usize {
        self.value_bits[col] + 1
    }

    /// All block widths.
    pub fn block_widths(&self) -> Vec<usize> {
        (0..self.num_columns()).map(|c| self.block_width(c)).collect()
    }

    /// Per-column output sizes.
    pub fn output_sizes(&self) -> Vec<usize> {
        self.ndvs.clone()
    }

    /// Total input width.
    pub fn total_width(&self) -> usize {
        (0..self.num_columns()).map(|c| self.block_width(c)).sum()
    }

    /// Offset of column `col` in the input vector.
    pub fn block_offset(&self, col: usize) -> usize {
        (0..col).map(|c| self.block_width(c)).sum()
    }

    /// Write the encoding of `value_id` into `out` (presence flag set).
    pub fn encode_value_into(&self, col: usize, value_id: u32, out: &mut [f32]) {
        let bits = self.value_bits[col];
        for (b, slot) in out.iter_mut().take(bits).enumerate() {
            *slot = ((value_id >> b) & 1) as f32;
        }
        out[bits] = 1.0;
    }
}

/// The trained Naru estimator.
#[derive(Debug, Clone)]
pub struct NaruEstimator {
    pub(crate) made: Made,
    pub(crate) encoder: ValueEncoder,
    pub(crate) schema: Table,
    pub(crate) num_rows: usize,
    pub(crate) num_samples: usize,
    /// Forward scratch kept across the O(columns) passes of every estimate,
    /// so the activation buffers stay warm.
    ws: ForwardWorkspace,
    rng: SmallRng,
    name: String,
}

/// Per-epoch statistics of Naru/UAE training (used by Figures 8/9).
#[derive(Debug, Clone, PartialEq)]
pub struct NaruEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean cross-entropy loss.
    pub data_loss: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Tuples processed.
    pub tuples_processed: usize,
}

impl NaruEstimator {
    /// Train Naru on `table`.
    pub fn train(table: &Table, config: &NaruConfig, seed: u64) -> Self {
        Self::train_with_stats(table, config, seed, |_| {})
    }

    /// Train Naru, reporting per-epoch statistics.
    pub fn train_with_stats(
        table: &Table,
        config: &NaruConfig,
        seed: u64,
        mut on_epoch: impl FnMut(&NaruEpochStats),
    ) -> Self {
        Self::train_with_eval(table, config, seed, |stats, _| on_epoch(stats))
    }

    /// Train Naru, handing the per-epoch callback a snapshot estimator so
    /// convergence experiments can compute Q-Errors after every epoch.
    pub fn train_with_eval(
        table: &Table,
        config: &NaruConfig,
        seed: u64,
        mut on_epoch: impl FnMut(&NaruEpochStats, &mut NaruEstimator),
    ) -> Self {
        let mut hook = |stats: &NaruEpochStats, made: &Made, encoder: &ValueEncoder| {
            let mut snapshot = NaruEstimator::from_parts(
                made.clone(),
                encoder.clone(),
                table,
                config.num_samples,
                seed,
                "naru",
            );
            on_epoch(stats, &mut snapshot);
        };
        let (made, encoder) = train_value_model(table, config, seed, &mut hook);
        Self::from_parts(made, encoder, table, config.num_samples, seed, "naru")
    }

    /// Wrap an already-trained model (used by the UAE baseline).
    pub(crate) fn from_parts(
        made: Made,
        encoder: ValueEncoder,
        table: &Table,
        num_samples: usize,
        seed: u64,
        name: &str,
    ) -> Self {
        Self {
            made,
            encoder,
            schema: table.schema_only(),
            num_rows: table.num_rows(),
            num_samples,
            ws: ForwardWorkspace::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0xdead_beef),
            name: name.into(),
        }
    }

    /// Re-seed the internal sampling RNG (progressive sampling is stochastic;
    /// the stability experiments reset this to show result variance).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.made.num_parameters()
    }

    /// Progressive-sampling estimation with a phase breakdown:
    /// `(cardinality, model forward time, sampling/bookkeeping time, forward passes)`.
    #[allow(clippy::needless_range_loop)] // `sample` indexes weights and logits in lockstep
    pub fn estimate_with_breakdown(&mut self, query: &Query) -> (f64, Duration, Duration, usize) {
        let intervals = query.column_intervals(&self.schema);
        let mut constrained: Vec<usize> = query.constrained_columns();
        constrained.sort_unstable();
        if constrained.is_empty() {
            return (self.num_rows as f64, Duration::ZERO, Duration::ZERO, 0);
        }
        if constrained.iter().any(|&c| intervals[c].0 >= intervals[c].1) {
            return (0.0, Duration::ZERO, Duration::ZERO, 0);
        }
        let s = self.num_samples;
        let width = self.encoder.total_width();
        let mut input = Matrix::zeros(s, width);
        let mut weights = vec![1.0f64; s];
        let mut forward_time = Duration::ZERO;
        let mut sample_time = Duration::ZERO;
        let mut forwards = 0usize;
        // Scratch softmax staging, reused across samples and columns.
        let mut probs: Vec<f32> = Vec::new();

        for &col in &constrained {
            let t0 = Instant::now();
            let logits = self.made.infer_into(&input, &mut self.ws);
            forward_time += t0.elapsed();
            forwards += 1;

            let t1 = Instant::now();
            let (lo, hi) = intervals[col];
            let out_off: usize = self.encoder.output_sizes()[..col].iter().sum();
            let size = self.encoder.output_sizes()[col];
            let in_off = self.encoder.block_offset(col);
            let block_w = self.encoder.block_width(col);
            probs.clear();
            probs.resize(size, 0.0);
            for sample in 0..s {
                if weights[sample] == 0.0 {
                    continue;
                }
                softmax_into(&logits.row(sample)[out_off..out_off + size], &mut probs);
                let mass: f64 = probs[lo as usize..hi as usize].iter().map(|&p| p as f64).sum();
                weights[sample] *= mass;
                if mass <= 0.0 {
                    weights[sample] = 0.0;
                    continue;
                }
                // Sample a value from the restricted, re-normalized distribution
                // to condition the remaining columns on.
                let u: f64 = self.rng.gen::<f64>() * mass;
                let mut acc = 0.0f64;
                let mut chosen = lo;
                for k in lo..hi {
                    acc += probs[k as usize] as f64;
                    if acc >= u {
                        chosen = k;
                        break;
                    }
                }
                let row = input.row_mut(sample);
                self.encoder.encode_value_into(col, chosen, &mut row[in_off..in_off + block_w]);
            }
            sample_time += t1.elapsed();
        }
        let sel = weights.iter().sum::<f64>() / s as f64;
        (sel * self.num_rows as f64, forward_time, sample_time, forwards)
    }
}

impl CardinalityEstimator for NaruEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        self.estimate_with_breakdown(query).0
    }

    fn size_bytes(&self) -> usize {
        self.made.size_bytes()
    }
}

/// Shared training loop for the value-autoregressive model (Naru and UAE's
/// unsupervised part): maximum likelihood on tuples with wildcard masking.
pub(crate) fn train_value_model(
    table: &Table,
    config: &NaruConfig,
    seed: u64,
    on_epoch: &mut dyn FnMut(&NaruEpochStats, &Made, &ValueEncoder),
) -> (Made, ValueEncoder) {
    let encoder = ValueEncoder::new(table);
    let made_config = if config.residual {
        MadeConfig::res_made(
            encoder.block_widths(),
            encoder.output_sizes(),
            config.hidden_sizes[0],
            config.hidden_sizes.len(),
        )
    } else {
        MadeConfig::made(
            encoder.block_widths(),
            encoder.output_sizes(),
            config.hidden_sizes.clone(),
        )
    };
    let mut rng = seeded_rng(seed);
    let mut made = Made::new(made_config, &mut rng);
    let mut adam = Adam::new(config.learning_rate).with_clip(GradClip::Value(8.0));
    let blocks = encoder.output_sizes();
    let mut tws = TrainWorkspace::new();
    let mut grad = vec![0.0; made.num_parameters()];

    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    for epoch in 0..config.epochs {
        let started = Instant::now();
        // Fisher-Yates shuffle with the training RNG.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let mut input = Matrix::zeros(chunk.len(), encoder.total_width());
            let mut labels: Vec<Vec<usize>> = Vec::with_capacity(chunk.len());
            for (r, &row) in chunk.iter().enumerate() {
                let mut row_labels = Vec::with_capacity(table.num_columns());
                let irow = input.row_mut(r);
                for col in 0..table.num_columns() {
                    let id = table.column(col).id_at(row);
                    row_labels.push(id as usize);
                    if rng.gen::<f64>() >= config.wildcard_prob {
                        let off = encoder.block_offset(col);
                        let w = encoder.block_width(col);
                        encoder.encode_value_into(col, id, &mut irow[off..off + w]);
                    }
                }
                labels.push(row_labels);
            }
            grad.fill(0.0);
            let logits = made.forward_train(&input, None, &mut tws);
            let (loss, grad_logits) = grouped_cross_entropy(logits, &blocks, &labels);
            made.backward_scratch(&input, &grad_logits, None, &mut tws, &mut grad, false);
            adam.step(&mut made, &grad);
            loss_sum += loss as f64;
            batches += 1;
        }
        on_epoch(
            &NaruEpochStats {
                epoch,
                data_loss: loss_sum / batches.max(1) as f64,
                seconds: started.elapsed().as_secs_f64(),
                tuples_processed: order.len(),
            },
            &made,
            &encoder,
        );
    }
    (made, encoder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;
    use duet_data::Value;
    use duet_query::{exact_cardinality, q_error, PredOp, QErrorSummary, WorkloadSpec};

    fn trained(rows: usize) -> (Table, NaruEstimator) {
        let table = census_like(rows, 51);
        let cfg = NaruConfig::small().with_epochs(3).with_samples(100);
        let naru = NaruEstimator::train(&table, &cfg, 5);
        (table, naru)
    }

    #[test]
    fn unconstrained_query_returns_table_size() {
        let (table, mut naru) = trained(400);
        assert_eq!(naru.estimate(&Query::all()), table.num_rows() as f64);
    }

    #[test]
    fn contradictory_query_returns_zero() {
        let (_, mut naru) = trained(300);
        let q = Query::all().and(0, PredOp::Lt, Value::Int(1)).and(0, PredOp::Gt, Value::Int(60));
        assert_eq!(naru.estimate(&q), 0.0);
    }

    #[test]
    fn estimates_are_reasonable_after_training() {
        let (table, mut naru) = trained(1_200);
        let queries = WorkloadSpec::random(&table, 40, 77).generate(&table);
        let errors: Vec<f64> = queries
            .iter()
            .map(|q| q_error(naru.estimate(q), exact_cardinality(&table, q) as f64))
            .collect();
        let summary = QErrorSummary::from_errors(&errors);
        assert!(summary.median < 10.0, "median Q-Error too high: {summary:?}");
    }

    #[test]
    fn progressive_sampling_is_stochastic_across_reseeds() {
        let (table, mut naru) = trained(600);
        // A multi-column range query where sampling matters.
        let q = WorkloadSpec::random(&table, 50, 3)
            .generate(&table)
            .into_iter()
            .find(|q| q.constrained_columns().len() >= 3)
            .expect("some query with >= 3 columns");
        naru.reseed(1);
        let a = naru.estimate(&q);
        naru.reseed(2);
        let b = naru.estimate(&q);
        // Not a hard guarantee for every query, but with 100 samples over a
        // trained model two seeds virtually never coincide exactly.
        assert_ne!(a, b, "progressive sampling should be seed-dependent");
    }

    #[test]
    fn breakdown_counts_one_forward_per_constrained_column() {
        let (table, mut naru) = trained(300);
        let q = Query::all()
            .and(0, PredOp::Le, Value::Int(40))
            .and(3, PredOp::Ge, Value::Int(2))
            .and(7, PredOp::Le, Value::Int(4));
        let (_, _, _, forwards) = naru.estimate_with_breakdown(&q);
        assert_eq!(forwards, 3);
        let _ = table;
    }

    #[test]
    fn size_is_reported() {
        let (_, naru) = trained(200);
        assert!(naru.size_bytes() > 0);
    }
}
