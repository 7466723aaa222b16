//! Dictionary-encoded columns.

use crate::value::Value;
use std::collections::BTreeMap;

/// A single dictionary-encoded column.
///
/// * `dictionary` holds the distinct values in ascending [`Value`] order, so
///   the value id (index into the dictionary) is order-preserving.
/// * `data` holds one value id per row.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    dictionary: Vec<Value>,
    data: Vec<u32>,
}

impl Column {
    /// Build a column from raw row values, constructing the dictionary.
    pub fn from_values(name: impl Into<String>, values: &[Value]) -> Self {
        let mut distinct: BTreeMap<&Value, u32> = BTreeMap::new();
        for v in values {
            let next = distinct.len() as u32;
            distinct.entry(v).or_insert(next);
        }
        // BTreeMap iteration is sorted by Value; re-number ids in sorted order.
        let mut dictionary = Vec::with_capacity(distinct.len());
        for (i, (value, id)) in distinct.iter_mut().enumerate() {
            dictionary.push((*value).clone());
            *id = i as u32;
        }
        let data = values.iter().map(|v| distinct[v]).collect();
        Self { name: name.into(), dictionary, data }
    }

    /// Build a column directly from value ids and a sorted dictionary.
    ///
    /// # Panics
    /// Panics if any id is out of range or the dictionary is not sorted.
    pub fn from_encoded(name: impl Into<String>, dictionary: Vec<Value>, data: Vec<u32>) -> Self {
        assert!(
            dictionary.windows(2).all(|w| w[0] < w[1]),
            "dictionary must be sorted and free of duplicates"
        );
        let ndv = dictionary.len() as u32;
        assert!(data.iter().all(|&id| id < ndv), "value id out of dictionary range");
        Self { name: name.into(), dictionary, data }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of distinct values (NDV).
    pub fn ndv(&self) -> usize {
        self.dictionary.len()
    }

    /// The sorted distinct values.
    pub fn dictionary(&self) -> &[Value] {
        &self.dictionary
    }

    /// The per-row value ids.
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// Value id of row `row`.
    #[inline]
    pub fn id_at(&self, row: usize) -> u32 {
        self.data[row]
    }

    /// The value of row `row`.
    pub fn value_at(&self, row: usize) -> &Value {
        &self.dictionary[self.data[row] as usize]
    }

    /// The value with dictionary id `id`.
    pub fn value_of_id(&self, id: u32) -> &Value {
        &self.dictionary[id as usize]
    }

    /// Dictionary id of `value`, if the value occurs in the column.
    pub fn id_of_value(&self, value: &Value) -> Option<u32> {
        self.dictionary.binary_search(value).ok().map(|i| i as u32)
    }

    /// Index of the first dictionary entry `>= value` (i.e. the lower bound),
    /// which equals `ndv()` when every entry is smaller than `value`.
    pub fn lower_bound(&self, value: &Value) -> u32 {
        self.dictionary.partition_point(|v| v < value) as u32
    }

    /// Index of the first dictionary entry `> value` (i.e. the upper bound).
    pub fn upper_bound(&self, value: &Value) -> u32 {
        self.dictionary.partition_point(|v| v <= value) as u32
    }

    /// Append one row holding the value with dictionary id `id`.
    ///
    /// The dictionary is fixed at construction (value ids are
    /// order-preserving indexes into it), so ingest can only append values
    /// the dictionary already knows — which is exactly the invariant the
    /// serving hot-swap relies on: a model retrained on the grown column
    /// keeps the same encoder shapes and stays swap-compatible.
    ///
    /// # Panics
    /// Panics if `id` is out of dictionary range.
    pub fn push_id(&mut self, id: u32) {
        assert!((id as usize) < self.dictionary.len(), "value id out of dictionary range");
        self.data.push(id);
    }

    /// Per-distinct-value occurrence counts.
    pub fn value_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.ndv()];
        for &id in &self.data {
            counts[id as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_column() -> Column {
        Column::from_values(
            "c",
            &[Value::Int(30), Value::Int(10), Value::Int(20), Value::Int(10), Value::Int(30)],
        )
    }

    #[test]
    fn dictionary_is_sorted_and_ids_are_order_preserving() {
        let col = sample_column();
        assert_eq!(col.ndv(), 3);
        assert_eq!(col.dictionary(), &[Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(col.data(), &[2, 0, 1, 0, 2]);
        assert_eq!(col.value_at(0), &Value::Int(30));
        assert_eq!(col.id_of_value(&Value::Int(20)), Some(1));
        assert_eq!(col.id_of_value(&Value::Int(99)), None);
    }

    #[test]
    fn bounds_behave_like_partition_points() {
        let col = sample_column();
        assert_eq!(col.lower_bound(&Value::Int(10)), 0);
        assert_eq!(col.upper_bound(&Value::Int(10)), 1);
        assert_eq!(col.lower_bound(&Value::Int(15)), 1);
        assert_eq!(col.upper_bound(&Value::Int(30)), 3);
        assert_eq!(col.lower_bound(&Value::Int(99)), 3);
    }

    #[test]
    fn value_counts_match_data() {
        let col = sample_column();
        assert_eq!(col.value_counts(), vec![2, 1, 2]);
        assert_eq!(col.len(), 5);
        assert!(!col.is_empty());
    }

    #[test]
    fn from_encoded_accepts_valid_input() {
        let col = Column::from_encoded("e", vec![Value::Int(1), Value::Int(5)], vec![0, 1, 1, 0]);
        assert_eq!(col.ndv(), 2);
        assert_eq!(col.value_of_id(1), &Value::Int(5));
    }

    #[test]
    #[should_panic(expected = "value id out of dictionary range")]
    fn from_encoded_rejects_bad_ids() {
        let _ = Column::from_encoded("e", vec![Value::Int(1)], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn from_encoded_rejects_unsorted_dictionary() {
        let _ = Column::from_encoded("e", vec![Value::Int(5), Value::Int(1)], vec![0]);
    }

    #[test]
    fn null_values_participate_in_dictionary() {
        let col = Column::from_values("n", &[Value::Null, Value::Int(1), Value::Null]);
        assert_eq!(col.ndv(), 2);
        assert_eq!(col.value_of_id(0), &Value::Null);
        assert_eq!(col.data(), &[0, 1, 0]);
    }
}
