//! Workload generation following the protocol of the paper (§V-A2), which in
//! turn follows Naru's tuple-anchored generator:
//!
//! 1. sample an anchor tuple from the table,
//! 2. choose how many columns to constrain (uniformly for random workloads,
//!    Gamma-distributed for "realistic" in-workload queries),
//! 3. choose which columns, and for each a predicate operator,
//! 4. choose the literal so the anchor tuple satisfies the predicate
//!    (guaranteeing a non-empty result).
//!
//! Training / in-workload specs additionally use a *bounded column*: one large
//! column whose literals are restricted to a sampled 1% of its distinct
//! values, so training queries only ever see a small slice of that domain.
//! Random test workloads have no such restriction, which is exactly the
//! workload-drift situation the paper evaluates.

use crate::predicate::{ColumnPredicate, PredOp};
use crate::query::Query;
use duet_data::Table;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Distribution of the number of constrained columns per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredicateCountDist {
    /// Uniform over `1..=max_columns` (random workloads, Rand-Q).
    Uniform,
    /// Gamma-distributed (then clamped to `1..=max_columns`), simulating the
    /// skewed predicate counts of real workloads (In-Q / training workloads).
    Gamma {
        /// Shape parameter `k` (must be >= 1).
        shape: f64,
        /// Scale parameter `θ`.
        scale: f64,
    },
}

/// Restriction of one column's literals to a subset of its distinct values.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedColumn {
    /// The column whose literals are restricted.
    pub column: usize,
    /// The allowed literal value ids (a sampled 1% of the column's domain).
    pub allowed_ids: Vec<u32>,
}

/// Full description of a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of queries to generate.
    pub num_queries: usize,
    /// RNG seed (the paper uses 42 for training/in-workload and 1234 for the
    /// random test workload).
    pub seed: u64,
    /// Distribution of the number of constrained columns.
    pub count_dist: PredicateCountDist,
    /// Optional bounded column (training / in-workload only).
    pub bounded_column: Option<BoundedColumn>,
    /// If > 1, allow up to this many predicates on a single column (exercises
    /// the MPSN; Table I).
    pub max_predicates_per_column: usize,
    /// Operators to draw from.
    pub ops: Vec<PredOp>,
    /// Cap on the number of constrained columns (defaults to all columns).
    pub max_columns: Option<usize>,
}

impl WorkloadSpec {
    /// The paper's random test workload (`Rand-Q`): uniform predicate counts,
    /// no bounded column, seed 1234 by convention.
    pub fn random(table: &Table, num_queries: usize, seed: u64) -> Self {
        let _ = table;
        Self {
            num_queries,
            seed,
            count_dist: PredicateCountDist::Uniform,
            bounded_column: None,
            max_predicates_per_column: 1,
            ops: PredOp::ALL.to_vec(),
            max_columns: None,
        }
    }

    /// The paper's training / in-workload spec (`In-Q`): Gamma predicate
    /// counts and a bounded column sampled from the largest-NDV column.
    pub fn in_workload(table: &Table, num_queries: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        // "Randomly choose a large enough column": pick the column with the
        // most distinct values (ties broken by index), then keep 1% of its
        // distinct values (at least 2) as the allowed literal set.
        let (column, ndv) = table
            .ndvs()
            .into_iter()
            .enumerate()
            .max_by_key(|&(_, ndv)| ndv)
            .expect("table has at least one column");
        let keep = ((ndv as f64 * 0.01).ceil() as usize).clamp(2, ndv.max(2));
        let mut allowed: Vec<u32> = Vec::with_capacity(keep);
        while allowed.len() < keep.min(ndv) {
            let id = rng.gen_range(0..ndv as u32);
            if !allowed.contains(&id) {
                allowed.push(id);
            }
        }
        allowed.sort_unstable();
        let mean_cols = (table.num_columns() as f64 / 3.0).max(1.5);
        Self {
            num_queries,
            seed,
            count_dist: PredicateCountDist::Gamma { shape: 2.0, scale: mean_cols / 2.0 },
            bounded_column: Some(BoundedColumn { column, allowed_ids: allowed }),
            max_predicates_per_column: 1,
            ops: PredOp::ALL.to_vec(),
            max_columns: None,
        }
    }

    /// Allow multiple predicates per column (for the MPSN experiments).
    pub fn with_multi_predicates(mut self, max_per_column: usize) -> Self {
        self.max_predicates_per_column = max_per_column.max(1);
        self
    }

    /// Limit queries to the first `k` columns (scalability experiment,
    /// Figure 6).
    pub fn with_max_columns(mut self, k: usize) -> Self {
        self.max_columns = Some(k.max(1));
        self
    }

    /// Generate the workload deterministically.
    pub fn generate(&self, table: &Table) -> Vec<Query> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let ncols = self.max_columns.unwrap_or(table.num_columns()).min(table.num_columns());
        (0..self.num_queries).map(|_| self.generate_one(table, ncols, &mut rng)).collect()
    }

    fn generate_one(&self, table: &Table, ncols: usize, rng: &mut SmallRng) -> Query {
        let anchor_row = rng.gen_range(0..table.num_rows());
        let k = self.sample_column_count(ncols, rng);
        let columns = sample_distinct(ncols, k, rng);
        let mut predicates = Vec::with_capacity(k);
        for &col in &columns {
            let anchor_id = table.column(col).id_at(anchor_row);
            let bounded = matches!(&self.bounded_column, Some(b) if b.column == col);
            let literal_id = self.pick_literal_id(col, anchor_id, rng);
            let n_preds =
                if !bounded && self.max_predicates_per_column > 1 && table.column(col).ndv() > 2 {
                    rng.gen_range(1..=self.max_predicates_per_column)
                } else {
                    1
                };
            if n_preds == 1 {
                predicates.push(self.single_predicate(table, col, literal_id, bounded, rng));
            } else {
                predicates.extend(self.range_predicates(table, col, literal_id, n_preds, rng));
            }
        }
        Query::new(predicates)
    }

    /// Literal value id: the anchor's value, unless the column is bounded, in
    /// which case a value from the allowed subset.
    fn pick_literal_id(&self, col: usize, anchor_id: u32, rng: &mut SmallRng) -> u32 {
        match &self.bounded_column {
            Some(b) if b.column == col && !b.allowed_ids.is_empty() => {
                b.allowed_ids[rng.gen_range(0..b.allowed_ids.len())]
            }
            _ => anchor_id,
        }
    }

    fn single_predicate(
        &self,
        table: &Table,
        col: usize,
        literal_id: u32,
        bounded: bool,
        rng: &mut SmallRng,
    ) -> ColumnPredicate {
        let column = table.column(col);
        let ndv = column.ndv() as u32;
        let op = self.ops[rng.gen_range(0..self.ops.len())];
        if bounded {
            // Bounded columns must only ever see literals from the allowed
            // subset, so the literal is used verbatim whatever the operator.
            return ColumnPredicate::new(col, op, column.value_of_id(literal_id).clone());
        }
        // Keep the result guaranteed non-empty when the literal is the anchor
        // value: for strict operators move the literal past the anchor when
        // possible, otherwise fall back to the inclusive operator.
        let (op, literal_id) = match op {
            PredOp::Gt => {
                if literal_id > 0 {
                    (PredOp::Gt, rng.gen_range(0..literal_id))
                } else {
                    (PredOp::Ge, literal_id)
                }
            }
            PredOp::Lt => {
                if literal_id + 1 < ndv {
                    (PredOp::Lt, rng.gen_range(literal_id + 1..ndv))
                } else {
                    (PredOp::Le, literal_id)
                }
            }
            other => (other, literal_id),
        };
        ColumnPredicate::new(col, op, column.value_of_id(literal_id).clone())
    }

    /// A conjunctive range `lo <= col <= hi` around the literal, emitted as
    /// multiple predicates on the same column.
    fn range_predicates(
        &self,
        table: &Table,
        col: usize,
        literal_id: u32,
        n_preds: usize,
        rng: &mut SmallRng,
    ) -> Vec<ColumnPredicate> {
        let column = table.column(col);
        let ndv = column.ndv() as u32;
        let lo = if literal_id == 0 { 0 } else { rng.gen_range(0..=literal_id) };
        let hi = if literal_id + 1 >= ndv { ndv - 1 } else { rng.gen_range(literal_id..ndv) };
        let mut preds = vec![
            ColumnPredicate::new(col, PredOp::Ge, column.value_of_id(lo).clone()),
            ColumnPredicate::new(col, PredOp::Le, column.value_of_id(hi).clone()),
        ];
        // Extra redundant predicates (e.g. `>= lo` twice) are legal in SQL and
        // exercise the MPSN's ability to combine more than two predicates.
        while preds.len() < n_preds {
            preds.push(ColumnPredicate::new(col, PredOp::Ge, column.value_of_id(lo).clone()));
        }
        preds
    }

    fn sample_column_count(&self, ncols: usize, rng: &mut SmallRng) -> usize {
        match self.count_dist {
            PredicateCountDist::Uniform => rng.gen_range(1..=ncols),
            PredicateCountDist::Gamma { shape, scale } => {
                let x = sample_gamma(shape, scale, rng);
                (x.round() as usize).clamp(1, ncols)
            }
        }
    }
}

/// Sample `k` distinct column indices from `0..ncols` (partial Fisher-Yates).
fn sample_distinct(ncols: usize, k: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ncols).collect();
    let k = k.min(ncols);
    for i in 0..k {
        let j = rng.gen_range(i..ncols);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Marsaglia–Tsang gamma sampling (shape >= 1); for shape < 1 the boost
/// `Gamma(shape) = Gamma(shape + 1) * U^(1/shape)` is applied.
fn sample_gamma(shape: f64, scale: f64, rng: &mut SmallRng) -> f64 {
    assert!(shape > 0.0 && scale > 0.0, "gamma parameters must be positive");
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        return sample_gamma(shape + 1.0, scale, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

/// Box-Muller standard normal.
fn sample_standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::exact_cardinality;
    use duet_data::datasets::census_like;

    #[test]
    fn generation_is_deterministic() {
        let t = census_like(1_000, 1);
        let a = WorkloadSpec::random(&t, 50, 1234).generate(&t);
        let b = WorkloadSpec::random(&t, 50, 1234).generate(&t);
        assert_eq!(a, b);
        let c = WorkloadSpec::random(&t, 50, 99).generate(&t);
        assert_ne!(a, c);
    }

    #[test]
    fn anchored_queries_are_never_empty_without_bounded_column() {
        let t = census_like(2_000, 2);
        let queries = WorkloadSpec::random(&t, 100, 7).generate(&t);
        for q in &queries {
            assert!(q.num_predicates() >= 1);
            assert!(
                exact_cardinality(&t, q) >= 1,
                "anchored query should match its anchor tuple: {q}"
            );
        }
    }

    #[test]
    fn in_workload_restricts_bounded_column_literals() {
        let t = census_like(2_000, 3);
        let spec = WorkloadSpec::in_workload(&t, 300, 42);
        let bounded = spec.bounded_column.clone().expect("bounded column expected");
        let allowed: Vec<duet_data::Value> = bounded
            .allowed_ids
            .iter()
            .map(|&id| t.column(bounded.column).value_of_id(id).clone())
            .collect();
        let queries = spec.generate(&t);
        let mut saw_bounded = false;
        for q in &queries {
            for p in &q.predicates {
                if p.column == bounded.column {
                    saw_bounded = true;
                    assert!(
                        allowed.contains(&p.value),
                        "literal {} not in the bounded subset",
                        p.value
                    );
                }
            }
        }
        assert!(saw_bounded, "expected at least one query on the bounded column");
    }

    #[test]
    fn multi_predicate_workloads_produce_multiple_predicates_per_column() {
        let t = census_like(1_000, 4);
        let spec = WorkloadSpec::random(&t, 200, 5).with_multi_predicates(3);
        let queries = spec.generate(&t);
        let any_multi =
            queries.iter().any(|q| q.predicates_by_column().iter().any(|(_, ps)| ps.len() > 1));
        assert!(any_multi, "expected some column with multiple predicates");
        // Multi-predicate ranges around an anchor must still be satisfiable.
        for q in &queries {
            assert!(exact_cardinality(&t, q) >= 1, "query {q} should be satisfiable");
        }
    }

    #[test]
    fn max_columns_is_respected() {
        let t = census_like(500, 6);
        let spec = WorkloadSpec::random(&t, 100, 8).with_max_columns(3);
        for q in spec.generate(&t) {
            assert!(q.constrained_columns().iter().all(|&c| c < 3));
        }
    }

    #[test]
    fn gamma_sampler_has_expected_mean() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 20_000;
        let (shape, scale) = (2.0, 1.5);
        let mean: f64 =
            (0..n).map(|_| sample_gamma(shape, scale, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - shape * scale).abs() < 0.1, "gamma mean off: {mean}");
    }

    #[test]
    fn gamma_predicate_counts_are_skewed_low() {
        let t = census_like(1_000, 12);
        let spec = WorkloadSpec::in_workload(&t, 500, 42);
        let queries = spec.generate(&t);
        let counts: Vec<usize> = queries.iter().map(|q| q.constrained_columns().len()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        // Uniform over 1..=14 would have mean 7.5; the gamma workload should
        // sit clearly below that.
        assert!(mean < 7.0, "gamma predicate-count mean too high: {mean}");
        assert!(counts.iter().all(|&c| (1..=14).contains(&c)));
    }
}
