//! Conjunctive queries and the `CardinalityEstimator` trait implemented by
//! Duet and every baseline.

use crate::predicate::{intersect, ColumnPredicate, PredOp};
use duet_data::{Table, Value};

/// A conjunction of column predicates (the query class of the paper:
/// single-table, `AND` of `{=, <, >, <=, >=}` predicates, possibly several per
/// column).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The predicates, in no particular order.
    pub predicates: Vec<ColumnPredicate>,
}

impl Query {
    /// An unconstrained query (selects every row).
    pub fn all() -> Self {
        Self { predicates: Vec::new() }
    }

    /// Build a query from predicates.
    pub fn new(predicates: Vec<ColumnPredicate>) -> Self {
        Self { predicates }
    }

    /// Add a predicate (builder style).
    pub fn and(mut self, column: usize, op: PredOp, value: Value) -> Self {
        self.predicates.push(ColumnPredicate::new(column, op, value));
        self
    }

    /// Number of predicates.
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// True if the query has no predicates.
    pub fn is_unconstrained(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Indices of the distinct columns that carry at least one predicate.
    pub fn constrained_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.predicates.iter().map(|p| p.column).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The predicates grouped per column (column index, predicates on it).
    pub fn predicates_by_column(&self) -> Vec<(usize, Vec<&ColumnPredicate>)> {
        let mut out: Vec<(usize, Vec<&ColumnPredicate>)> = Vec::new();
        for col in self.constrained_columns() {
            let preds = self.predicates.iter().filter(|p| p.column == col).collect();
            out.push((col, preds));
        }
        out
    }

    /// For every column of `table`, the half-open value-id interval that
    /// satisfies *all* predicates on that column. Unconstrained columns map to
    /// the full `[0, ndv)` interval; contradictory predicates map to `(0, 0)`.
    ///
    /// This is the zero-out mask `Pred_i(R_i, v_i)` of the paper's
    /// Algorithm 3, in interval form (every supported operator combination
    /// yields a contiguous id range).
    pub fn column_intervals(&self, table: &Table) -> Vec<(u32, u32)> {
        let mut intervals: Vec<(u32, u32)> =
            table.columns().iter().map(|c| (0u32, c.ndv() as u32)).collect();
        for p in &self.predicates {
            assert!(
                p.column < intervals.len(),
                "predicate references column {} outside table",
                p.column
            );
            let this = p.id_interval(table.column(p.column));
            intervals[p.column] = intersect(intervals[p.column], this);
        }
        intervals
    }

    /// Evaluate the query against one row of the table.
    pub fn matches_row(&self, table: &Table, row: usize) -> bool {
        self.predicates.iter().all(|p| p.matches(table.column(p.column).value_at(row)))
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.predicates.is_empty() {
            return write!(f, "TRUE");
        }
        let parts: Vec<String> = self.predicates.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join(" AND "))
    }
}

/// The interface every estimator in the workspace implements.
///
/// `estimate` returns an estimated **cardinality** (number of matching rows),
/// not a selectivity; implementations clamp to at least one row to avoid
/// degenerate Q-Errors, mirroring common practice (and the paper's
/// evaluation).
pub trait CardinalityEstimator {
    /// Short, stable name used in experiment reports (e.g. `"duet"`, `"naru"`).
    fn name(&self) -> &str;

    /// Estimate the cardinality of `query`.
    fn estimate(&mut self, query: &Query) -> f64;

    /// In-memory size of the estimator's state in bytes (model weights,
    /// histograms, samples, ...), reported in Table II's `Size(MB)` column.
    fn size_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;
    use duet_data::{TableBuilder, Value};

    fn toy() -> Table {
        let mut b = TableBuilder::new("t", vec!["a".into(), "b".into()]);
        for (a, bv) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            b.push_row(vec![Value::Int(a), Value::Int(bv)]);
        }
        b.build()
    }

    #[test]
    fn builder_and_accessors() {
        let q = Query::all()
            .and(0, PredOp::Ge, Value::Int(2))
            .and(1, PredOp::Lt, Value::Int(40))
            .and(0, PredOp::Le, Value::Int(3));
        assert_eq!(q.num_predicates(), 3);
        assert_eq!(q.constrained_columns(), vec![0, 1]);
        let by_col = q.predicates_by_column();
        assert_eq!(by_col[0].1.len(), 2);
        assert_eq!(by_col[1].1.len(), 1);
        assert!(!q.is_unconstrained());
        assert!(Query::all().is_unconstrained());
    }

    #[test]
    fn column_intervals_intersect_multiple_predicates() {
        let t = toy();
        let q = Query::all().and(0, PredOp::Ge, Value::Int(2)).and(0, PredOp::Le, Value::Int(3));
        let iv = q.column_intervals(&t);
        assert_eq!(iv[0], (1, 3));
        assert_eq!(iv[1], (0, 4)); // unconstrained column keeps full range
    }

    #[test]
    fn contradictory_predicates_give_empty_interval() {
        let t = toy();
        let q = Query::all().and(0, PredOp::Lt, Value::Int(2)).and(0, PredOp::Gt, Value::Int(3));
        assert_eq!(q.column_intervals(&t)[0], (0, 0));
    }

    #[test]
    fn matches_row_agrees_with_intervals() {
        let t = census_like(500, 5);
        let q = Query::all()
            .and(0, PredOp::Le, Value::Int(40))
            .and(3, PredOp::Ge, Value::Int(4))
            .and(9, PredOp::Eq, Value::Int(1));
        let iv = q.column_intervals(&t);
        for row in 0..t.num_rows() {
            let by_pred = q.matches_row(&t, row);
            let by_iv =
                t.row_ids(row).iter().enumerate().all(|(c, &id)| id >= iv[c].0 && id < iv[c].1);
            assert_eq!(by_pred, by_iv, "row {row}");
        }
    }

    #[test]
    fn display_formats_conjunction() {
        let q = Query::all().and(0, PredOp::Eq, Value::Int(5)).and(1, PredOp::Gt, Value::Int(2));
        assert_eq!(q.to_string(), "col0 = 5 AND col1 > 2");
        assert_eq!(Query::all().to_string(), "TRUE");
    }
}
