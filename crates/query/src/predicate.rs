//! Predicates over single columns and their translation into value-id ranges.

use duet_data::{Column, Value};

/// The predicate operators supported by the paper
/// (`=`, `>`, `<`, `>=`, `<=`; conjunctions of these form a query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredOp {
    /// Equality.
    Eq,
    /// Strictly greater than.
    Gt,
    /// Strictly less than.
    Lt,
    /// Greater than or equal.
    Ge,
    /// Less than or equal.
    Le,
}

impl PredOp {
    /// All operators, in the numbering used by the paper's Algorithm 1
    /// (`=, >, <, >=, <=`).
    pub const ALL: [PredOp; 5] = [PredOp::Eq, PredOp::Gt, PredOp::Lt, PredOp::Ge, PredOp::Le];

    /// Stable index of the operator, used for one-hot encodings.
    pub fn index(self) -> usize {
        match self {
            PredOp::Eq => 0,
            PredOp::Gt => 1,
            PredOp::Lt => 2,
            PredOp::Ge => 3,
            PredOp::Le => 4,
        }
    }

    /// SQL-ish display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            PredOp::Eq => "=",
            PredOp::Gt => ">",
            PredOp::Lt => "<",
            PredOp::Ge => ">=",
            PredOp::Le => "<=",
        }
    }

    /// Evaluate the operator on already-ordered operands.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            PredOp::Eq => lhs == rhs,
            PredOp::Gt => lhs > rhs,
            PredOp::Lt => lhs < rhs,
            PredOp::Ge => lhs >= rhs,
            PredOp::Le => lhs <= rhs,
        }
    }
}

/// One predicate on one column: `column <op> value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Index of the constrained column in the table.
    pub column: usize,
    /// Predicate operator.
    pub op: PredOp,
    /// Literal the column is compared against.
    pub value: Value,
}

impl ColumnPredicate {
    /// Construct a predicate.
    pub fn new(column: usize, op: PredOp, value: Value) -> Self {
        Self { column, op, value }
    }

    /// The half-open value-id interval `[lo, hi)` of dictionary ids that
    /// satisfy this predicate on `column`'s dictionary.
    ///
    /// Because dictionaries are sorted, every operator maps to a contiguous id
    /// range; an unsatisfiable predicate maps to an empty range.
    pub fn id_interval(&self, column: &Column) -> (u32, u32) {
        let ndv = column.ndv() as u32;
        match self.op {
            PredOp::Eq => match column.id_of_value(&self.value) {
                Some(id) => (id, id + 1),
                None => (0, 0),
            },
            PredOp::Lt => (0, column.lower_bound(&self.value)),
            PredOp::Le => (0, column.upper_bound(&self.value)),
            PredOp::Gt => (column.upper_bound(&self.value), ndv),
            PredOp::Ge => (column.lower_bound(&self.value), ndv),
        }
    }

    /// Evaluate the predicate against a concrete value.
    pub fn matches(&self, value: &Value) -> bool {
        self.op.eval(value, &self.value)
    }
}

impl std::fmt::Display for ColumnPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "col{} {} {}", self.column, self.op.symbol(), self.value)
    }
}

/// Intersect two half-open intervals.
pub fn intersect(a: (u32, u32), b: (u32, u32)) -> (u32, u32) {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    if lo >= hi {
        (0, 0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> Column {
        Column::from_values("c", &[Value::Int(10), Value::Int(20), Value::Int(30), Value::Int(20)])
    }

    #[test]
    fn op_index_and_symbols_are_stable() {
        assert_eq!(PredOp::ALL.len(), 5);
        for (i, op) in PredOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        assert_eq!(PredOp::Ge.symbol(), ">=");
    }

    #[test]
    fn id_intervals_match_semantics() {
        let c = column();
        // dictionary = [10, 20, 30]
        let cases = vec![
            (PredOp::Eq, Value::Int(20), (1, 2)),
            (PredOp::Eq, Value::Int(15), (0, 0)),
            (PredOp::Lt, Value::Int(20), (0, 1)),
            (PredOp::Le, Value::Int(20), (0, 2)),
            (PredOp::Gt, Value::Int(20), (2, 3)),
            (PredOp::Ge, Value::Int(20), (1, 3)),
            (PredOp::Ge, Value::Int(100), (3, 3)),
            (PredOp::Lt, Value::Int(5), (0, 0)),
        ];
        for (op, v, want) in cases {
            let p = ColumnPredicate::new(0, op, v.clone());
            assert_eq!(p.id_interval(&c), want, "{op:?} {v:?}");
        }
    }

    #[test]
    fn interval_agrees_with_direct_evaluation() {
        let c = column();
        for op in PredOp::ALL {
            for lit in [5, 10, 15, 20, 25, 30, 35] {
                let p = ColumnPredicate::new(0, op, Value::Int(lit));
                let (lo, hi) = p.id_interval(&c);
                for id in 0..c.ndv() as u32 {
                    let by_interval = id >= lo && id < hi;
                    let by_eval = p.matches(c.value_of_id(id));
                    assert_eq!(by_interval, by_eval, "{op:?} {lit} id {id}");
                }
            }
        }
    }

    #[test]
    fn intersect_intervals() {
        assert_eq!(intersect((0, 5), (3, 9)), (3, 5));
        assert_eq!(intersect((0, 2), (2, 4)), (0, 0));
        assert_eq!(intersect((1, 4), (0, 10)), (1, 4));
    }

    #[test]
    fn display_is_readable() {
        let p = ColumnPredicate::new(2, PredOp::Le, Value::Int(7));
        assert_eq!(p.to_string(), "col2 <= 7");
    }
}
