//! The column-store relation all estimators learn from.

use crate::column::Column;
use crate::value::Value;

/// A relation `T = {C_1, ..., C_N}` stored column-wise with dictionary
/// encoding (see [`Column`]).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Assemble a table from columns.
    ///
    /// # Panics
    /// Panics if the columns have differing row counts or there are none.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let num_rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == num_rows),
            "all columns must have the same number of rows"
        );
        Self { name: name.into(), columns, num_rows }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows `|T|`.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns `N`.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Number of distinct values per column.
    pub fn ndvs(&self) -> Vec<usize> {
        self.columns.iter().map(|c| c.ndv()).collect()
    }

    /// The value ids of row `row` across all columns.
    pub fn row_ids(&self, row: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c.id_at(row)).collect()
    }

    /// The values of row `row` across all columns (mainly for debugging/CSV).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(row).clone()).collect()
    }

    /// Restrict the table to its first `n` rows (used to scale experiments).
    pub fn sample_prefix(&self, n: usize) -> Table {
        let n = n.min(self.num_rows);
        let columns = self
            .columns
            .iter()
            .map(|c| {
                Column::from_encoded(
                    c.name().to_string(),
                    c.dictionary().to_vec(),
                    c.data()[..n].to_vec(),
                )
            })
            .collect();
        Table::new(self.name.clone(), columns)
    }

    /// Append one row given as per-column value ids (the ingest path of
    /// online learning).
    ///
    /// Ids must address each column's **existing** dictionary — appending
    /// never introduces new distinct values, so the table's schema (and with
    /// it every trained model's encoder shape) is unchanged by ingest.
    ///
    /// # Panics
    /// Panics if the row width does not match the column count or an id is
    /// out of its column's dictionary range.
    pub fn append_row_ids(&mut self, ids: &[u32]) {
        assert_eq!(ids.len(), self.columns.len(), "row width mismatch");
        for (column, &id) in self.columns.iter_mut().zip(ids) {
            column.push_id(id);
        }
        self.num_rows += 1;
    }

    /// Total number of cells (rows × columns).
    pub fn num_cells(&self) -> usize {
        self.num_rows * self.columns.len()
    }

    /// A zero-row copy of the table that keeps every column's name and
    /// dictionary. Estimators store this "schema table" so they can translate
    /// query literals into value-id intervals without holding on to the data.
    pub fn schema_only(&self) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                Column::from_encoded(c.name().to_string(), c.dictionary().to_vec(), Vec::new())
            })
            .collect();
        Table { name: self.name.clone(), columns, num_rows: 0 }
    }
}

/// Incremental row-oriented builder used by the CSV reader and by tests.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    column_names: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl TableBuilder {
    /// Start building a table with the given column names.
    pub fn new(name: impl Into<String>, column_names: Vec<String>) -> Self {
        Self { name: name.into(), column_names, rows: Vec::new() }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the row width does not match the column count.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.column_names.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of rows buffered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were appended yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finish and dictionary-encode into a [`Table`].
    pub fn build(self) -> Table {
        let ncols = self.column_names.len();
        let mut per_column: Vec<Vec<Value>> = vec![Vec::with_capacity(self.rows.len()); ncols];
        for row in &self.rows {
            for (c, v) in row.iter().enumerate() {
                per_column[c].push(v.clone());
            }
        }
        let columns = self
            .column_names
            .into_iter()
            .zip(per_column)
            .map(|(name, values)| Column::from_values(name, &values))
            .collect();
        Table::new(self.name, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table() -> Table {
        let mut b = TableBuilder::new("toy", vec!["a".into(), "b".into()]);
        b.push_row(vec![Value::Int(1), Value::text("x")]);
        b.push_row(vec![Value::Int(2), Value::text("y")]);
        b.push_row(vec![Value::Int(1), Value::text("x")]);
        b.build()
    }

    #[test]
    fn builder_produces_consistent_table() {
        let t = toy_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.ndvs(), vec![2, 2]);
        assert_eq!(t.row_ids(1), vec![1, 1]);
        assert_eq!(t.row_values(0), vec![Value::Int(1), Value::text("x")]);
        assert_eq!(t.num_cells(), 6);
    }

    #[test]
    fn sample_prefix_truncates_rows() {
        let t = toy_table();
        let s = t.sample_prefix(2);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.num_columns(), 2);
        // Dictionary is preserved even if some values no longer occur.
        assert_eq!(s.column(1).ndv(), 2);
    }

    #[test]
    #[should_panic(expected = "same number of rows")]
    fn mismatched_columns_rejected() {
        let a = Column::from_values("a", &[Value::Int(1)]);
        let b = Column::from_values("b", &[Value::Int(1), Value::Int(2)]);
        let _ = Table::new("bad", vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn builder_rejects_ragged_rows() {
        let mut b = TableBuilder::new("t", vec!["a".into()]);
        b.push_row(vec![Value::Int(1), Value::Int(2)]);
    }
}
