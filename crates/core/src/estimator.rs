//! The user-facing Duet estimator: a trained model plus the table schema
//! needed to translate query literals, implementing the common
//! [`CardinalityEstimator`] trait.

use crate::config::DuetConfig;
use crate::encoding::IdPredicate;
use crate::model::{query_to_id_predicates, DuetModel, DuetWorkspace};
use crate::trainer::{train_model, TrainingWorkload};
use duet_data::Table;
use duet_query::{CardinalityEstimator, Query};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing breakdown of one estimation call (used by the scalability
/// experiment, Figure 6, which reports encoding vs. inference time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateBreakdown {
    /// Estimated cardinality.
    pub cardinality: f64,
    /// Time spent translating and encoding predicates (including the MPSN).
    pub encode_time: Duration,
    /// Time spent in the network forward pass and the probability masking.
    pub inference_time: Duration,
}

/// A trained Duet cardinality estimator.
#[derive(Debug, Clone)]
pub struct DuetEstimator {
    model: DuetModel,
    /// Zero-row; shared with every estimator that serves the same id space
    /// (see [`DuetEstimator::share_schema`]).
    schema: Arc<Table>,
    num_rows: usize,
    label: String,
}

impl DuetEstimator {
    /// Wrap an already-trained model.
    pub fn from_model(model: DuetModel, table: &Table, label: impl Into<String>) -> Self {
        Self::from_shared_schema(model, Arc::new(table.schema_only()), table.num_rows(), label)
    }

    /// Wrap an already-trained model over `schema`, a shared zero-row
    /// [`Table::schema_only`] snapshot of the table it was trained on
    /// (`num_rows` rows), without copying it: estimators of one id space
    /// hold one copy of it (see [`DuetEstimator::share_schema`]).
    pub fn from_shared_schema(
        model: DuetModel,
        schema: Arc<Table>,
        num_rows: usize,
        label: impl Into<String>,
    ) -> Self {
        Self { model, schema, num_rows, label: label.into() }
    }

    /// Train purely data-driven (the paper's `DuetD` ablation).
    pub fn train_data_only(table: &Table, config: &DuetConfig, seed: u64) -> Self {
        let model = train_model(table, config, None, seed, |_| {});
        Self::from_model(model, table, "duet_d")
    }

    /// Hybrid training on the table plus a labelled historical workload
    /// (the paper's full `Duet`).
    pub fn train_hybrid(
        table: &Table,
        queries: &[Query],
        cardinalities: &[u64],
        config: &DuetConfig,
        seed: u64,
    ) -> Self {
        let workload = TrainingWorkload { queries, cardinalities };
        let model = train_model(table, config, Some(workload), seed, |_| {});
        Self::from_model(model, table, "duet")
    }

    /// Rebuild an estimator from its architecture description plus a weight
    /// checkpoint produced by [`crate::persist::save_weights`] — the one
    /// way a checkpoint becomes an estimator: a serving slot's lazy reload
    /// and its hot-swap both come here.
    ///
    /// The architecture is a deterministic function of `(schema, config)` —
    /// mask construction uses no randomness — so a zero-weight skeleton
    /// (nothing drawn, no strip packed) has exactly the shapes the
    /// checkpoint expects, and loading fills each parameter in place and
    /// packs each masked layer once: estimates from the rebuilt instance are
    /// **bit-identical** to the saved one's. `schema` is a zero-row
    /// [`Table::schema_only`] snapshot, shared, not copied; `num_rows` is
    /// the trained row count.
    pub fn rebuild_from_checkpoint(
        schema: Arc<Table>,
        num_rows: usize,
        config: &DuetConfig,
        label: impl Into<String>,
        checkpoint: &[u8],
    ) -> Result<Self, crate::persist::CheckpointError> {
        let model = DuetModel::skeleton(&schema, config);
        let mut est = Self::from_shared_schema(model, schema, num_rows, label);
        crate::persist::load_weights(&mut est, checkpoint)?;
        Ok(est)
    }

    /// The underlying model.
    pub fn model(&self) -> &DuetModel {
        &self.model
    }

    /// Mutable access to the underlying model (fine-tuning, persistence).
    pub fn model_mut(&mut self) -> &mut DuetModel {
        &mut self.model
    }

    /// The zero-row schema table used to translate literals.
    pub fn schema(&self) -> &Table {
        &self.schema
    }

    /// The shared handle of [`DuetEstimator::schema`].
    pub fn shared_schema(&self) -> &Arc<Table> {
        &self.schema
    }

    /// Whether `schema` has this estimator's id space: as many columns, each
    /// with the same dictionary, value for value. If so, literals are
    /// translated through `schema` from now on, so estimators of one id
    /// space hold one copy of it. O(total distinct values) unless the two
    /// are already shared.
    pub fn share_schema(&mut self, schema: &Arc<Table>) -> bool {
        let (theirs, ours) = (schema.as_ref(), self.schema.as_ref());
        let same = Arc::ptr_eq(schema, &self.schema)
            || theirs.num_columns() == ours.num_columns()
                && (0..theirs.num_columns()).all(|c| {
                    let (tc, oc) = (theirs.column(c), ours.column(c));
                    tc.ndv() == oc.ndv()
                        && (0..tc.ndv() as u32).all(|id| tc.value_of_id(id) == oc.value_of_id(id))
                });
        if same {
            self.schema = schema.clone();
        }
        same
    }

    /// Number of rows of the table the estimator was trained on.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Estimate with a timing breakdown into encoding and inference phases,
    /// on the path that serves: predicate translation +
    /// [`DuetModel::fill_input`], then the same trunk, block projection and
    /// masked-softmax mass the batched estimate runs, all staged in the
    /// caller's `ws`. The inference phase grows with the number of columns
    /// the query constrains (one output block each). Hand the same workspace
    /// to every call and the breakdown reads steady-state serving cost
    /// (buffers warm) — which is what Figure 6
    /// compares against Naru's persistent-workspace forwards.
    pub fn estimate_with_breakdown(
        &self,
        query: &Query,
        ws: &mut DuetWorkspace,
    ) -> EstimateBreakdown {
        let encode_started = Instant::now();
        let preds = query_to_id_predicates(&self.schema, query);
        let intervals = query.column_intervals(&self.schema);
        self.model.fill_input(std::slice::from_ref(&preds), ws);
        let encode_time = encode_started.elapsed();

        let mut selectivity = Vec::with_capacity(1);
        let infer_started = Instant::now();
        self.model.selectivities_of_input(std::slice::from_ref(&intervals), ws, &mut selectivity);
        let inference_time = infer_started.elapsed();

        EstimateBreakdown {
            cardinality: selectivity[0] * self.num_rows as f64,
            encode_time,
            inference_time,
        }
    }

    /// Estimate a batch of queries with **one** `N×W` forward pass through
    /// the backbone instead of `N` single-row passes.
    ///
    /// Because the forward pass is row-independent, every returned value is
    /// bit-identical to the corresponding single-query
    /// [`CardinalityEstimator::estimate`] result; batching only changes
    /// throughput. Convenience over
    /// [`DuetEstimator::estimate_encoded_batch_with`] that translates the
    /// queries and builds a throw-away workspace.
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        let mut out = Vec::new();
        self.estimate_batch_with(queries, &mut DuetWorkspace::new(), &mut out);
        out
    }

    /// [`DuetEstimator::estimate_encoded_batch_with`] with a throw-away
    /// workspace, for queries whose id-space predicates and column intervals
    /// were already computed (via [`query_to_id_predicates`] /
    /// [`Query::column_intervals`] against this estimator's schema).
    pub fn estimate_encoded_batch(
        &self,
        rows: &[Vec<Vec<IdPredicate>>],
        intervals: &[Vec<(u32, u32)>],
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.estimate_encoded_batch_with(rows, intervals, &mut DuetWorkspace::new(), &mut out);
        out
    }

    /// The one estimate implementation: a batch of already-encoded queries
    /// (id-space predicates and column intervals against this estimator's
    /// schema), every intermediate staged in a caller-provided
    /// [`DuetWorkspace`], the cardinalities written into `out` (cleared
    /// first). Every other `estimate*` signature is a wrapper that encodes
    /// and/or builds a workspace and calls this.
    ///
    /// This is the serving hot path: a `duet-serve` shard worker owns one
    /// workspace for its whole lifetime and runs every table's batches
    /// through it, so steady-state batched estimation performs zero heap
    /// allocation at any batch size. The whole forward pass runs
    /// on the calling thread. Results do not depend on the batch a query
    /// arrives in, whatever kernel the dispatch picks.
    ///
    /// Generic over the row/interval holders (anything that derefs to the
    /// per-row slices), so a serving queue's own request structs can feed the
    /// batch pass without re-gathering into intermediate containers — and so
    /// callers that need the encoding for their own purposes, like the
    /// `duet-serve` result cache which keys on it, encode once.
    pub fn estimate_encoded_batch_with<R, I>(
        &self,
        rows: &[R],
        intervals: &[I],
        ws: &mut DuetWorkspace,
        out: &mut Vec<f64>,
    ) where
        R: AsRef<[Vec<IdPredicate>]>,
        I: AsRef<[(u32, u32)]>,
    {
        self.model.estimate_selectivity_batch_with(rows, intervals, ws, out);
        for sel in out.iter_mut() {
            *sel *= self.num_rows as f64;
        }
    }

    /// [`DuetEstimator::estimate_batch`] with a caller-provided workspace:
    /// queries are translated against the schema (which allocates their
    /// id-space encodings), but the entire forward pass reuses `ws`.
    pub fn estimate_batch_with(
        &self,
        queries: &[Query],
        ws: &mut DuetWorkspace,
        out: &mut Vec<f64>,
    ) {
        let rows: Vec<_> =
            queries.iter().map(|q| query_to_id_predicates(&self.schema, q)).collect();
        let intervals: Vec<_> = queries.iter().map(|q| q.column_intervals(&self.schema)).collect();
        self.estimate_encoded_batch_with(&rows, &intervals, ws, out);
    }
}

impl CardinalityEstimator for DuetEstimator {
    fn name(&self) -> &str {
        &self.label
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        self.estimate_batch(std::slice::from_ref(query))[0]
    }

    fn size_bytes(&self) -> usize {
        self.model.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;
    use duet_query::{exact_cardinality, q_error, QErrorSummary, WorkloadSpec};

    fn trained(rows: usize, epochs: usize) -> (Table, DuetEstimator) {
        let table = census_like(rows, 31);
        let cfg = DuetConfig::small().with_epochs(epochs);
        let est = DuetEstimator::train_data_only(&table, &cfg, 11);
        (table, est)
    }

    #[test]
    fn estimates_are_deterministic_and_bounded() {
        let (table, mut est) = trained(600, 2);
        let queries = WorkloadSpec::random(&table, 30, 99).generate(&table);
        for q in &queries {
            let a = est.estimate(q);
            let b = est.estimate(q);
            assert_eq!(a, b, "Duet must be deterministic");
            assert!(a >= 0.0 && a <= table.num_rows() as f64 + 1e-6);
        }
    }

    #[test]
    fn training_improves_over_untrained_model() {
        let table = census_like(1_500, 32);
        let cfg = DuetConfig::small().with_epochs(5);
        let queries = WorkloadSpec::random(&table, 60, 7).generate(&table);
        let truths: Vec<u64> = queries.iter().map(|q| exact_cardinality(&table, q)).collect();

        let untrained_model = DuetModel::new(&table, &cfg, 1);
        let mut untrained = DuetEstimator::from_model(untrained_model, &table, "untrained");
        let mut trained = DuetEstimator::train_data_only(&table, &cfg, 1);

        let err = |est: &mut DuetEstimator| {
            let errors: Vec<f64> = queries
                .iter()
                .zip(&truths)
                .map(|(q, &t)| q_error(est.estimate(q), t as f64))
                .collect();
            QErrorSummary::from_errors(&errors).mean
        };
        let e_untrained = err(&mut untrained);
        let e_trained = err(&mut trained);
        assert!(
            e_trained < e_untrained,
            "training should reduce mean Q-Error: untrained {e_untrained}, trained {e_trained}"
        );
    }

    #[test]
    fn breakdown_reports_nonzero_phases() {
        let (table, est) = trained(300, 1);
        let q = WorkloadSpec::random(&table, 1, 5).generate(&table).remove(0);
        let mut ws = DuetWorkspace::new();
        let b = est.estimate_with_breakdown(&q, &mut ws);
        assert_eq!(b.cardinality, est.estimate_batch(std::slice::from_ref(&q))[0]);
        assert!(b.encode_time.as_nanos() > 0);
        assert!(b.inference_time.as_nanos() > 0);
    }

    #[test]
    fn trait_object_usage_works() {
        let (table, est) = trained(300, 1);
        let mut boxed: Box<dyn CardinalityEstimator> = Box::new(est);
        assert_eq!(boxed.name(), "duet_d");
        let q = WorkloadSpec::random(&table, 1, 3).generate(&table).remove(0);
        let _ = boxed.estimate(&q);
        assert!(boxed.size_bytes() > 0);
    }

    #[test]
    fn estimate_batch_is_bit_identical_to_single_queries() {
        let (table, mut est) = trained(400, 2);
        let queries = WorkloadSpec::random(&table, 37, 13).generate(&table);
        let batch = est.estimate_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, &b) in queries.iter().zip(&batch) {
            assert_eq!(est.estimate(q), b, "batched estimate must be bit-identical");
        }
        assert!(est.estimate_batch(&[]).is_empty());
    }

    #[test]
    fn estimate_batch_is_bit_identical_with_mpsn() {
        // Batch-size invariance for every MPSN kind: N rows in one batch are
        // the same bits as N batches of one.
        use crate::config::MpsnKind;
        let table = census_like(300, 8);
        for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let cfg = DuetConfig::small().with_epochs(1).with_mpsn(kind, 2);
            let mut est = DuetEstimator::train_data_only(&table, &cfg, 5);
            let queries = WorkloadSpec::random(&table, 12, 21).generate(&table);
            let batch = est.estimate_batch(&queries);
            for (q, &b) in queries.iter().zip(&batch) {
                assert_eq!(
                    est.estimate(q).to_bits(),
                    b.to_bits(),
                    "batched estimate must be bit-identical ({kind:?})"
                );
            }
        }
    }
}
