//! UAE (Wu & Cong, SIGMOD 2021): Naru's autoregressive model trained
//! *hybridly* — the unsupervised tuple likelihood plus a supervised Q-Error
//! loss whose gradient flows through a differentiable version of progressive
//! sampling.
//!
//! Reproduction note: the original uses the Gumbel-Softmax trick to keep the
//! whole sampled chain differentiable, at the cost of tracking gradients for
//! `batch × samples` network evaluations (the memory blow-up the Duet paper
//! criticizes). Here the chain is relaxed more coarsely: the conditioning
//! values of earlier columns are sampled without gradient (straight-through)
//! and the supervised gradient flows through the final constrained column's
//! forward pass. This keeps the properties the paper's comparison relies on —
//! per-query training cost proportional to `samples × constrained columns`,
//! progressive-sampling inference identical to Naru (O(n), non-deterministic)
//! — while remaining tractable on CPU. This note is the one record of that
//! deviation from the original UAE.

use crate::naru::{train_value_model, NaruConfig, NaruEpochStats, NaruEstimator, ValueEncoder};
use duet_data::Table;
use duet_nn::{
    softmax_into, Adam, ForwardWorkspace, GradClip, InferLayer, Made, Matrix, TrainWorkspace,
};
use duet_query::{CardinalityEstimator, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Hyper-parameters of the UAE baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct UaeConfig {
    /// The shared Naru architecture / training parameters.
    pub naru: NaruConfig,
    /// Weight of the supervised Q-Error loss.
    pub query_weight: f64,
    /// Number of samples used for the differentiable estimate during
    /// training (the paper's authors had to shrink this to avoid
    /// out-of-memory; it is the main driver of UAE's training cost).
    pub train_samples: usize,
    /// Queries per supervised mini-batch.
    pub query_batch_size: usize,
}

impl UaeConfig {
    /// Small configuration for tests.
    pub fn small() -> Self {
        Self {
            naru: NaruConfig::small(),
            query_weight: 1.0,
            train_samples: 32,
            query_batch_size: 16,
        }
    }

    /// Configuration mirroring the paper's UAE settings (reduced sample count,
    /// as in the paper's RTX3080 evaluation).
    pub fn paper(naru: NaruConfig) -> Self {
        Self { naru, query_weight: 1.0, train_samples: 200, query_batch_size: 64 }
    }
}

/// Per-epoch statistics of UAE training.
#[derive(Debug, Clone, PartialEq)]
pub struct UaeEpochStats {
    /// Shared unsupervised statistics.
    pub data: NaruEpochStats,
    /// Mean supervised loss `log2(QError + 1)`.
    pub query_loss: f64,
}

/// The UAE estimator: a Naru model refined with supervised query feedback.
#[derive(Debug, Clone)]
pub struct UaeEstimator {
    inner: NaruEstimator,
}

impl UaeEstimator {
    /// Hybrid training on the table plus a labelled workload.
    pub fn train(
        table: &Table,
        queries: &[Query],
        cardinalities: &[u64],
        config: &UaeConfig,
        seed: u64,
    ) -> Self {
        Self::train_with_stats(table, queries, cardinalities, config, seed, |_| {})
    }

    /// Hybrid training with per-epoch statistics.
    pub fn train_with_stats(
        table: &Table,
        queries: &[Query],
        cardinalities: &[u64],
        config: &UaeConfig,
        seed: u64,
        mut on_epoch: impl FnMut(&UaeEpochStats),
    ) -> Self {
        assert_eq!(queries.len(), cardinalities.len(), "labels required for every query");
        // Phase 1: the unsupervised pass is identical to Naru's.
        let mut data_stats: Vec<NaruEpochStats> = Vec::new();
        let (mut made, encoder) =
            train_value_model(table, &config.naru, seed, &mut |s, _, _| data_stats.push(s.clone()));

        // Phase 2: supervised refinement with the (relaxed) differentiable
        // progressive estimate. One refinement sweep per training epoch keeps
        // the cost model comparable to joint training.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5151);
        let mut adam = Adam::new(config.naru.learning_rate).with_clip(GradClip::Value(8.0));
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .zip(cardinalities)
            .map(|(q, &card)| (q.column_intervals(table), q.constrained_columns(), card as f64))
            .collect();
        let num_rows = table.num_rows() as f64;
        // One pair of workspaces for the whole refinement: the sampled prefix
        // passes and the tracked final pass of every query reuse them.
        let mut workspaces = (ForwardWorkspace::new(), TrainWorkspace::new());

        for (epoch, data) in data_stats.iter().enumerate() {
            let started = Instant::now();
            let mut query_loss_sum = 0.0f64;
            let mut batches = 0usize;
            let mut cursor = 0usize;
            let steps = (prepared.len() / config.query_batch_size.max(1)).clamp(1, 32);
            for _ in 0..steps {
                let mut batch = Vec::with_capacity(config.query_batch_size);
                for _ in 0..config.query_batch_size.min(prepared.len()) {
                    batch.push(&prepared[cursor % prepared.len()]);
                    cursor += 1;
                }
                query_loss_sum += supervised_step(
                    &mut made,
                    &encoder,
                    &batch,
                    num_rows,
                    config.train_samples,
                    config.query_weight,
                    &mut adam,
                    &mut rng,
                    &mut workspaces,
                );
                batches += 1;
            }
            let mut stats = UaeEpochStats {
                data: data.clone(),
                query_loss: query_loss_sum / batches.max(1) as f64,
            };
            stats.data.seconds += started.elapsed().as_secs_f64();
            stats.data.epoch = epoch;
            on_epoch(&stats);
        }

        let inner =
            NaruEstimator::from_parts(made, encoder, table, config.naru.num_samples, seed, "uae");
        Self { inner }
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }

    /// Re-seed the progressive-sampling RNG.
    pub fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    /// Progressive-sampling estimation with phase breakdown (same shape as
    /// [`NaruEstimator::estimate_with_breakdown`]).
    pub fn estimate_with_breakdown(
        &mut self,
        query: &Query,
    ) -> (f64, std::time::Duration, std::time::Duration, usize) {
        self.inner.estimate_with_breakdown(query)
    }
}

/// A query prepared for the supervised pass: its column id intervals, its
/// constrained columns, and the true cardinality.
type PreparedQuery = (Vec<(u32, u32)>, Vec<usize>, f64);

/// One supervised optimizer step over a query mini-batch; returns the mean
/// `log2(QError + 1)` loss.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // `sample` indexes weights, logits and input rows in lockstep
fn supervised_step(
    made: &mut Made,
    encoder: &ValueEncoder,
    batch: &[&PreparedQuery],
    num_rows: f64,
    samples: usize,
    query_weight: f64,
    adam: &mut Adam,
    rng: &mut SmallRng,
    (fws, tws): &mut (ForwardWorkspace, TrainWorkspace),
) -> f64 {
    let mut grad = vec![0.0; made.num_parameters()];
    let mut loss_sum = 0.0f64;
    let ln2 = std::f64::consts::LN_2;
    let sizes = encoder.output_sizes();
    // Scratch softmax staging, reused across samples/columns/queries: the
    // prefix loop stages one column's probabilities at a time, the final
    // column stages all samples' probabilities flat (stride `size`).
    let mut probs: Vec<f32> = Vec::new();
    let mut final_probs: Vec<f32> = Vec::new();

    for (intervals, constrained, actual) in batch.iter().map(|p| (&p.0, &p.1, p.2)) {
        if constrained.is_empty() {
            continue;
        }
        if constrained.iter().any(|&c| intervals[c].0 >= intervals[c].1) {
            continue;
        }
        // Progressive sampling without gradient for all but the last
        // constrained column.
        let s = samples;
        let width = encoder.total_width();
        let mut input = Matrix::zeros(s, width);
        let mut weights = vec![1.0f64; s];
        let (&last_col, prefix) = constrained.split_last().expect("non-empty");
        for &col in prefix {
            let logits = made.infer_into(&input, fws);
            let (lo, hi) = intervals[col];
            let out_off: usize = sizes[..col].iter().sum();
            let size = sizes[col];
            let in_off = encoder.block_offset(col);
            let block_w = encoder.block_width(col);
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
                let u: f64 = rng.gen::<f64>() * mass;
                let mut acc = 0.0;
                let mut chosen = lo;
                for k in lo..hi {
                    acc += probs[k as usize] as f64;
                    if acc >= u {
                        chosen = k;
                        break;
                    }
                }
                let row = input.row_mut(sample);
                encoder.encode_value_into(col, chosen, &mut row[in_off..in_off + block_w]);
            }
        }

        // Final column: tracked forward pass; the supervised gradient flows
        // through its logits.
        let logits = made.forward_train(&input, None, tws);
        let (lo, hi) = intervals[last_col];
        let out_off: usize = sizes[..last_col].iter().sum();
        let size = sizes[last_col];
        // Per-sample probabilities staged flat (stride `size`) for the
        // gradient pass — no per-sample heap vectors.
        final_probs.clear();
        final_probs.resize(s * size, 0.0);
        let mut per_sample_mass: Vec<f64> = Vec::with_capacity(s);
        let mut est_sel = 0.0f64;
        for sample in 0..s {
            let sample_probs = &mut final_probs[sample * size..(sample + 1) * size];
            softmax_into(&logits.row(sample)[out_off..out_off + size], sample_probs);
            let mass: f64 = sample_probs[lo as usize..hi as usize].iter().map(|&p| p as f64).sum();
            est_sel += weights[sample] * mass;
            per_sample_mass.push(mass);
        }
        est_sel /= s as f64;
        let est = (est_sel * num_rows).max(1.0);
        let actual = actual.max(1.0);
        let q = if est >= actual { est / actual } else { actual / est };
        loss_sum += (q + 1.0).log2();

        let dl_dq = 1.0 / ((q + 1.0) * ln2);
        let dq_dest = if est >= actual { 1.0 / actual } else { -actual / (est * est) };
        let dl_dsel = dl_dq * dq_dest * num_rows * query_weight / batch.len() as f64;

        let mut grad_logits = Matrix::zeros(s, logits.cols());
        for sample in 0..s {
            let dl_dmass = dl_dsel * weights[sample] / s as f64;
            if dl_dmass == 0.0 {
                continue;
            }
            let probs = &final_probs[sample * size..(sample + 1) * size];
            let mass = per_sample_mass[sample];
            let grow = grad_logits.row_mut(sample);
            for (k, &p) in probs.iter().enumerate() {
                let in_range = if (k as u32) >= lo && (k as u32) < hi { 1.0 } else { 0.0 };
                grow[out_off + k] = (p as f64 * (in_range - mass) * dl_dmass) as f32;
            }
        }
        made.backward_scratch(&input, &grad_logits, None, tws, &mut grad, false);
    }

    adam.step(made, &grad);
    loss_sum / batch.len().max(1) as f64
}

impl CardinalityEstimator for UaeEstimator {
    fn name(&self) -> &str {
        "uae"
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        self.inner.estimate(query)
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;
    use duet_query::{exact_cardinality, q_error, QErrorSummary, WorkloadSpec};

    fn trained() -> (Table, UaeEstimator) {
        let table = census_like(800, 61);
        let spec = WorkloadSpec::in_workload(&table, 64, 42);
        let queries = spec.generate(&table);
        let cards: Vec<u64> = queries.iter().map(|q| exact_cardinality(&table, q)).collect();
        let mut cfg = UaeConfig::small();
        cfg.naru = cfg.naru.with_epochs(2).with_samples(64);
        cfg.train_samples = 16;
        let uae = UaeEstimator::train(&table, &queries, &cards, &cfg, 9);
        (table, uae)
    }

    #[test]
    fn trains_and_estimates_reasonably() {
        let (table, mut uae) = trained();
        let queries = WorkloadSpec::random(&table, 30, 13).generate(&table);
        let errors: Vec<f64> = queries
            .iter()
            .map(|q| q_error(uae.estimate(q), exact_cardinality(&table, q) as f64))
            .collect();
        let s = QErrorSummary::from_errors(&errors);
        assert!(s.median < 20.0, "UAE median Q-Error too high: {s:?}");
        assert!(uae.size_bytes() > 0);
        assert_eq!(uae.name(), "uae");
    }

    #[test]
    fn epoch_stats_include_query_loss() {
        let table = census_like(400, 62);
        let queries = WorkloadSpec::in_workload(&table, 32, 42).generate(&table);
        let cards: Vec<u64> = queries.iter().map(|q| exact_cardinality(&table, q)).collect();
        let mut cfg = UaeConfig::small();
        cfg.naru = cfg.naru.with_epochs(2).with_samples(32);
        cfg.train_samples = 8;
        let mut losses = Vec::new();
        let _ = UaeEstimator::train_with_stats(&table, &queries, &cards, &cfg, 3, |s| {
            losses.push(s.query_loss);
        });
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|&l| l >= 0.0));
    }

    #[test]
    #[should_panic(expected = "labels required")]
    fn mismatched_labels_rejected() {
        let table = census_like(100, 63);
        let queries = WorkloadSpec::random(&table, 4, 1).generate(&table);
        let _ = UaeEstimator::train(&table, &queries, &[1, 2], &UaeConfig::small(), 1);
    }
}
