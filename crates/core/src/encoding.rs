//! Predicate encoding (paper §IV-C "Encoding").
//!
//! Every column `i` contributes one fixed-width *input block* to the
//! autoregressive network:
//!
//! ```text
//! [ binary(value id)  |  one-hot(predicate operator) ]
//!      value_bits(i)              5
//! ```
//!
//! * the literal's dictionary id is binary-encoded with `ceil(log2(ndv))`
//!   bits (the paper's "binary encoding" choice; columns with very large
//!   domains would use an embedding instead — the bit width here stays ≤ 12
//!   for all evaluated datasets so binary encoding suffices);
//! * the operator is one-hot over `{=, >, <, >=, <=}`;
//! * an unconstrained column (wildcard) sets both parts to all zeros,
//!   mirroring Naru's wildcard skipping: a valid predicate always has exactly
//!   one operator bit set, so the all-zero pattern is unambiguous.

use duet_data::Table;
use duet_nn::Matrix;
use duet_query::PredOp;

/// Number of predicate operators (width of the one-hot operator encoding).
pub const NUM_OPS: usize = 5;

/// A single encoded predicate in id space: the operator and the literal's
/// dictionary id on some column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdPredicate {
    /// Predicate operator.
    pub op: PredOp,
    /// Literal value id in the column's dictionary.
    pub value_id: u32,
}

/// Per-column encoder derived from a table's dictionaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoder {
    value_bits: Vec<usize>,
    ndvs: Vec<usize>,
}

impl Encoder {
    /// Build an encoder for `table`.
    pub fn new(table: &Table) -> Self {
        let ndvs = table.ndvs();
        let value_bits = ndvs.iter().map(|&ndv| bits_for(ndv)).collect();
        Self { value_bits, ndvs }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.ndvs.len()
    }

    /// Number of distinct values of column `col`.
    pub fn ndv(&self, col: usize) -> usize {
        self.ndvs[col]
    }

    /// Number of value bits used for column `col`.
    pub fn value_bits(&self, col: usize) -> usize {
        self.value_bits[col]
    }

    /// Width of column `col`'s input block.
    pub fn block_width(&self, col: usize) -> usize {
        self.value_bits[col] + NUM_OPS
    }

    /// Widths of every column's input block (the MADE's `input_block_sizes`).
    pub fn block_widths(&self) -> Vec<usize> {
        (0..self.num_columns()).map(|c| self.block_width(c)).collect()
    }

    /// Per-column output sizes (the MADE's `output_block_sizes`).
    pub fn output_sizes(&self) -> Vec<usize> {
        self.ndvs.clone()
    }

    /// [`Encoder::output_sizes`] as a borrowed slice — the allocation-free
    /// variant the per-row probability masking uses on the hot path.
    pub fn output_sizes_ref(&self) -> &[usize] {
        &self.ndvs
    }

    /// Total input width across all columns.
    pub fn total_width(&self) -> usize {
        (0..self.num_columns()).map(|c| self.block_width(c)).sum()
    }

    /// Encode one predicate of column `col` into `out` (length
    /// [`Self::block_width`]). `out` is overwritten.
    pub fn encode_predicate_into(&self, col: usize, pred: &IdPredicate, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.block_width(col));
        let bits = self.value_bits[col];
        debug_assert!((pred.value_id as usize) < self.ndvs[col].max(1));
        for (b, slot) in out.iter_mut().take(bits).enumerate() {
            *slot = ((pred.value_id >> b) & 1) as f32;
        }
        for (k, slot) in out.iter_mut().skip(bits).take(NUM_OPS).enumerate() {
            *slot = if k == pred.op.index() { 1.0 } else { 0.0 };
        }
    }

    /// Stack the encodings of column `col`'s predicate list into `out`, one
    /// row per predicate (reshaped, buffer reused) — the form the column's
    /// MPSN consumes, for embedding and for back-propagation alike.
    pub fn stack_predicates_into(&self, col: usize, preds: &[IdPredicate], out: &mut Matrix) {
        out.reset(preds.len(), self.block_width(col));
        for (k, pred) in preds.iter().enumerate() {
            self.encode_predicate_into(col, pred, out.row_mut(k));
        }
    }

    /// Offset of column `col`'s block within the concatenated input vector.
    pub fn block_offset(&self, col: usize) -> usize {
        (0..col).map(|c| self.block_width(c)).sum()
    }
}

/// Bits needed to represent ids `0..ndv` (at least 1).
fn bits_for(ndv: usize) -> usize {
    let mut bits = 0;
    let mut x = ndv.saturating_sub(1);
    while x > 0 {
        bits += 1;
        x >>= 1;
    }
    bits.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;

    #[test]
    fn bits_for_covers_domain() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
        assert_eq!(bits_for(2774), 12);
    }

    #[test]
    fn block_layout_is_consistent() {
        let t = census_like(200, 1);
        let enc = Encoder::new(&t);
        assert_eq!(enc.num_columns(), 14);
        assert_eq!(enc.total_width(), enc.block_widths().iter().sum::<usize>());
        let mut off = 0;
        for c in 0..enc.num_columns() {
            assert_eq!(enc.block_offset(c), off);
            off += enc.block_width(c);
            assert_eq!(enc.block_width(c), enc.value_bits(c) + NUM_OPS);
            assert_eq!(enc.output_sizes()[c], enc.ndv(c));
        }
    }

    #[test]
    fn predicate_encoding_sets_binary_and_onehot_bits() {
        let t = census_like(200, 2);
        let enc = Encoder::new(&t);
        let pred = IdPredicate { op: PredOp::Ge, value_id: 5 };
        // Overwrites whatever the slot held before.
        let mut v = vec![9.0; enc.block_width(0)];
        enc.encode_predicate_into(0, &pred, &mut v);
        let bits = enc.value_bits(0);
        // 5 = 0b101.
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 1.0);
        // Exactly one operator bit set, at the Ge index.
        let ops = &v[bits..];
        assert_eq!(ops.iter().filter(|&&x| x == 1.0).count(), 1);
        assert_eq!(ops[PredOp::Ge.index()], 1.0);
    }

    #[test]
    fn wildcard_is_all_zero_and_distinct_from_any_predicate() {
        let t = census_like(200, 3);
        let enc = Encoder::new(&t);
        // The wildcard is the all-zero block `fill_input` leaves untouched.
        let w = vec![0.0; enc.block_width(4)];
        let mut p = w.clone();
        for op in PredOp::ALL {
            enc.encode_predicate_into(4, &IdPredicate { op, value_id: 0 }, &mut p);
            assert_ne!(p, w, "a real predicate must never collide with the wildcard");
        }
    }
}
