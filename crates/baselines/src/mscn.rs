//! MSCN-lite: a query-driven regression baseline in the spirit of Kipf et
//! al.'s Multi-Set Convolutional Network (the single-table variant with
//! sample bitmaps).
//!
//! Featurization per query:
//! * per column: `[constrained flag | one-hot op | normalized literal]`,
//! * a bitmap over a small materialized row sample (1 bit per sample row,
//!   set when the row satisfies the query) — the "MSCN (bitmaps)" variant the
//!   paper compares against.
//!
//! The model is a plain MLP trained with MSE on min-max-normalized
//! `log(cardinality)` labels, which is the standard MSCN objective. Being
//! query-driven, it inherits the workload-drift weakness the paper
//! demonstrates: accuracy on workloads unlike the training workload degrades.

use duet_data::Table;
use duet_nn::loss::mse;
use duet_nn::{
    seeded_rng, Adam, ForwardWorkspace, GradClip, InferLayer, Matrix, Mlp, Params, TrainWorkspace,
};
use duet_query::{CardinalityEstimator, PredOp, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the MSCN-lite baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MscnConfig {
    /// Hidden layer widths.
    pub hidden_sizes: Vec<usize>,
    /// Training epochs over the labelled workload.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of materialized sample rows used for the bitmap feature.
    pub bitmap_samples: usize,
}

impl MscnConfig {
    /// Small test configuration.
    pub fn small() -> Self {
        Self {
            hidden_sizes: vec![64, 32],
            epochs: 30,
            batch_size: 64,
            learning_rate: 1e-3,
            bitmap_samples: 64,
        }
    }

    /// Configuration comparable to the paper's MSCN baseline.
    pub fn paper() -> Self {
        Self {
            hidden_sizes: vec![256, 128],
            epochs: 100,
            batch_size: 128,
            learning_rate: 1e-3,
            bitmap_samples: 1000,
        }
    }
}

/// The trained MSCN-lite estimator.
#[derive(Debug, Clone)]
pub struct MscnEstimator {
    mlp: Mlp,
    schema: Table,
    sample: Table,
    num_rows: usize,
    min_log: f64,
    max_log: f64,
    /// Forward scratch reused by every estimate.
    ws: ForwardWorkspace,
    name: String,
}

impl MscnEstimator {
    /// Train on a labelled workload.
    pub fn train(
        table: &Table,
        queries: &[Query],
        cardinalities: &[u64],
        config: &MscnConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(queries.len(), cardinalities.len(), "labels required for every query");
        assert!(!queries.is_empty(), "MSCN needs a non-empty training workload");
        let sample = materialize_sample(table, config.bitmap_samples, seed);
        let feature_width = feature_width(table, sample.num_rows());

        // Normalize log-cardinalities to [0, 1] (standard MSCN target scaling).
        let logs: Vec<f64> = cardinalities.iter().map(|&c| (c.max(1) as f64).ln()).collect();
        let min_log = logs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_log = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(min_log + 1e-9);

        let mut sizes = vec![feature_width];
        sizes.extend(&config.hidden_sizes);
        sizes.push(1);
        let mut rng = seeded_rng(seed);
        let mut mlp = Mlp::new(&sizes, &mut rng);
        let mut adam = Adam::new(config.learning_rate).with_clip(GradClip::Value(4.0));

        let features: Vec<Vec<f32>> =
            queries.iter().map(|q| featurize(table, &sample, q)).collect();
        let targets: Vec<f32> =
            logs.iter().map(|&l| ((l - min_log) / (max_log - min_log)) as f32).collect();

        let mut tws = TrainWorkspace::new();
        let mut grad = vec![0.0; mlp.param_count()];
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let mut shuffle_rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = shuffle_rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(config.batch_size) {
                let mut x = Matrix::zeros(chunk.len(), feature_width);
                let mut y = Matrix::zeros(chunk.len(), 1);
                for (r, &idx) in chunk.iter().enumerate() {
                    x.row_mut(r).copy_from_slice(&features[idx]);
                    y.set(r, 0, targets[idx]);
                }
                grad.fill(0.0);
                let (_, grad_out) = mse(mlp.forward_train(&x, &mut tws), &y);
                mlp.backward_scratch(&x, &grad_out, &mut tws, &mut grad, false);
                adam.step(&mut mlp, &grad);
            }
        }

        Self {
            mlp,
            schema: table.schema_only(),
            sample,
            num_rows: table.num_rows(),
            min_log,
            max_log,
            ws: ForwardWorkspace::new(),
            name: "mscn".into(),
        }
    }
}

fn materialize_sample(table: &Table, n: usize, seed: u64) -> Table {
    let n = n.clamp(1, table.num_rows().max(1));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
    let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..table.num_rows())).collect();
    let columns = table
        .columns()
        .iter()
        .map(|c| {
            let data: Vec<u32> = rows.iter().map(|&r| c.id_at(r)).collect();
            duet_data::Column::from_encoded(c.name().to_string(), c.dictionary().to_vec(), data)
        })
        .collect();
    Table::new(format!("{}_bitmap_sample", table.name()), columns)
}

fn feature_width(table: &Table, sample_rows: usize) -> usize {
    table.num_columns() * (2 + PredOp::ALL.len()) + sample_rows
}

/// Build the feature vector of one query.
fn featurize(schema: &Table, sample: &Table, query: &Query) -> Vec<f32> {
    let per_col = 2 + PredOp::ALL.len();
    let mut out = vec![0.0f32; schema.num_columns() * per_col + sample.num_rows()];
    for (col, preds) in query.predicates_by_column() {
        let base = col * per_col;
        out[base] = 1.0; // constrained flag
                         // Encode the first predicate (MSCN's featurization has one slot per
                         // column); additional predicates are reflected by the bitmap feature.
        if let Some(p) = preds.first() {
            out[base + 1 + p.op.index()] = 1.0;
            let ndv = schema.column(col).ndv().max(1) as f32;
            let id = schema.column(col).lower_bound(&p.value) as f32;
            out[base + 1 + PredOp::ALL.len()] = id / ndv;
        }
    }
    // Bitmap over the materialized sample.
    let offset = schema.num_columns() * per_col;
    let intervals = query.column_intervals(sample);
    for row in 0..sample.num_rows() {
        let matches = sample
            .row_ids(row)
            .iter()
            .enumerate()
            .all(|(c, &id)| id >= intervals[c].0 && id < intervals[c].1);
        if matches {
            out[offset + row] = 1.0;
        }
    }
    out
}

impl CardinalityEstimator for MscnEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        let features = featurize(&self.schema, &self.sample, query);
        let x = Matrix::from_vec(1, features.len(), features);
        let pred = self.mlp.infer_into(&x, &mut self.ws).get(0, 0) as f64;
        let log_card = pred.clamp(0.0, 1.0) * (self.max_log - self.min_log) + self.min_log;
        log_card.exp().clamp(0.0, self.num_rows as f64)
    }

    fn size_bytes(&self) -> usize {
        self.mlp.param_count() * 4 + self.sample.num_cells() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;
    use duet_query::{exact_cardinality, q_error, QErrorSummary, WorkloadSpec};

    fn setup() -> (Table, Vec<Query>, Vec<u64>) {
        let table = census_like(2_000, 71);
        let queries = WorkloadSpec::in_workload(&table, 400, 42).generate(&table);
        let cards: Vec<u64> = queries.iter().map(|q| exact_cardinality(&table, q)).collect();
        (table, queries, cards)
    }

    #[test]
    fn learns_the_training_workload() {
        let (table, queries, cards) = setup();
        let mut mscn = MscnEstimator::train(&table, &queries, &cards, &MscnConfig::small(), 3);
        let errors: Vec<f64> = queries
            .iter()
            .zip(&cards)
            .take(100)
            .map(|(q, &c)| q_error(mscn.estimate(q), c as f64))
            .collect();
        let s = QErrorSummary::from_errors(&errors);
        assert!(s.median < 8.0, "MSCN should fit its training workload: {s:?}");
    }

    #[test]
    fn accuracy_degrades_under_workload_drift() {
        let (table, queries, cards) = setup();
        let mut mscn = MscnEstimator::train(&table, &queries, &cards, &MscnConfig::small(), 3);
        let eval = |est: &mut MscnEstimator, qs: &[Query]| {
            let errs: Vec<f64> = qs
                .iter()
                .map(|q| q_error(est.estimate(q), exact_cardinality(&table, q) as f64))
                .collect();
            QErrorSummary::from_errors(&errs).median
        };
        let in_q = eval(&mut mscn, &queries[..150]);
        let drifted = WorkloadSpec::random(&table, 150, 1234).generate(&table);
        let rand_q = eval(&mut mscn, &drifted);
        assert!(
            rand_q >= in_q * 0.8,
            "random-workload error ({rand_q}) should not beat in-workload error ({in_q}) meaningfully"
        );
    }

    #[test]
    fn estimates_stay_within_table_bounds() {
        let (table, queries, cards) = setup();
        let mut mscn = MscnEstimator::train(&table, &queries, &cards, &MscnConfig::small(), 5);
        for q in WorkloadSpec::random(&table, 50, 9).generate(&table) {
            let e = mscn.estimate(&q);
            assert!(e >= 0.0 && e <= table.num_rows() as f64);
        }
        assert!(mscn.size_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "non-empty training workload")]
    fn empty_workload_rejected() {
        let table = census_like(100, 72);
        let _ = MscnEstimator::train(&table, &[], &[], &MscnConfig::small(), 1);
    }
}
