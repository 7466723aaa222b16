//! Integration tests for model persistence and the CSV data path: a trained
//! estimator survives a save/load round trip, and a table written to CSV and
//! read back produces identical ground truth.

use duet::core::{
    load_weights, save_weights, verify_checkpoint, CheckpointError, DuetConfig, DuetEstimator,
    DuetModel,
};
use duet::data::csv::{read_csv, write_csv};
use duet::data::datasets::census_like;
use duet::data::Table;
use duet::nn::Params;
use duet::query::{exact_cardinality, CardinalityEstimator, WorkloadSpec};
use proptest::prelude::*;
use std::sync::Arc;

#[test]
fn checkpoint_round_trip_preserves_every_estimate() {
    let table = census_like(1_200, 91);
    let cfg = DuetConfig::small().with_epochs(3);
    let mut trained = DuetEstimator::train_data_only(&table, &cfg, 4);
    let queries = WorkloadSpec::random(&table, 40, 17).generate(&table);
    let expected: Vec<f64> = queries.iter().map(|q| trained.estimate(q)).collect();

    let checkpoint = save_weights(&trained);
    let mut restored =
        DuetEstimator::from_model(DuetModel::new(&table, &cfg, 12345), &table, "restored");
    load_weights(&mut restored, &checkpoint).expect("loading the checkpoint should succeed");
    let actual: Vec<f64> = queries.iter().map(|q| restored.estimate(q)).collect();
    assert_eq!(expected, actual);
}

#[test]
fn corrupted_checkpoints_are_rejected_without_panicking() {
    let table = census_like(400, 92);
    let cfg = DuetConfig::small().with_epochs(1);
    let mut est = DuetEstimator::train_data_only(&table, &cfg, 1);
    let checkpoint = save_weights(&est);
    // Truncated buffer.
    assert!(load_weights(&mut est, &checkpoint[..checkpoint.len() / 2]).is_err());
    // Garbage buffer.
    assert!(load_weights(&mut est, b"not a checkpoint at all").is_err());
    // The estimator still works after the failed loads.
    let q = WorkloadSpec::random(&table, 1, 3).generate(&table).remove(0);
    assert!(est.estimate(&q).is_finite());
}

/// FNV-1a 64, the checksum a `DUETCKF1` frame carries over its payload.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_checkpoint_whose_last_shape_differs_loads_nothing() {
    let table = census_like(400, 96);
    let cfg = DuetConfig::small().with_epochs(1);
    let source = DuetEstimator::train_data_only(&table, &cfg, 1);
    let mut target = DuetEstimator::train_data_only(&table, &cfg, 2);
    let queries = WorkloadSpec::random(&table, 30, 8).generate(&table);
    let estimates = |est: &mut DuetEstimator| -> Vec<u64> {
        queries.iter().map(|q| est.estimate(q).to_bits()).collect()
    };
    let before = estimates(&mut target);

    // The source's checkpoint with its last parameter's shape transposed
    // (same bytes, a shape the target does not have), sealed again so the
    // frame is valid and only the record headers can object. Every other
    // record fits the target, so a load that wrote as it went would have
    // overwritten all of them before reaching the last.
    let (mut count, mut last) = (0, (0, 0));
    source.model().visit_params_ref(&mut |p| {
        count += 1;
        last = p.data.shape();
    });
    let (rows, cols) = last;
    assert_ne!(rows, cols, "transposing must change the shape");
    let mut checkpoint = save_weights(&source);
    let at = checkpoint.len() - rows * cols * 4 - 16;
    checkpoint[at..at + 8].copy_from_slice(&(cols as u64).to_le_bytes());
    checkpoint[at + 8..at + 16].copy_from_slice(&(rows as u64).to_le_bytes());
    let checksum = fnv1a64(&checkpoint[24..]);
    checkpoint[16..24].copy_from_slice(&checksum.to_le_bytes());
    assert!(verify_checkpoint(&checkpoint).is_ok());

    assert_eq!(
        load_weights(&mut target, &checkpoint),
        Err(CheckpointError::ShapeMismatch {
            index: count - 1,
            expected: (rows, cols),
            found: (cols, rows)
        })
    );
    assert_eq!(estimates(&mut target), before, "a rejected checkpoint writes no weight");
    load_weights(&mut target, &save_weights(&source)).expect("the unaltered checkpoint loads");
    assert_ne!(estimates(&mut target), before, "the source's weights are visible when loaded");
}

#[test]
fn csv_round_trip_preserves_ground_truth() {
    let table = census_like(500, 93);
    let mut buffer = Vec::new();
    write_csv(&table, &mut buffer).expect("write");
    let reloaded = read_csv("census_reload", buffer.as_slice()).expect("read");
    assert_eq!(reloaded.num_rows(), table.num_rows());
    assert_eq!(reloaded.num_columns(), table.num_columns());
    for q in WorkloadSpec::random(&table, 30, 5).generate(&table) {
        assert_eq!(exact_cardinality(&table, &q), exact_cardinality(&reloaded, &q));
    }
}

/// One trained, sealed checkpoint shared by every property case below.
/// Training is the expensive part; the cases only mutate bytes, so the
/// fixture is built once and each case clones the byte vector.
fn checkpoint_fixture() -> &'static (Arc<Table>, usize, DuetConfig, Vec<u8>) {
    static FIXTURE: std::sync::OnceLock<(Arc<Table>, usize, DuetConfig, Vec<u8>)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let table = census_like(300, 95);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 9);
        let bytes = save_weights(&est);
        (Arc::new(table.schema_only()), table.num_rows(), cfg, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any bits of any byte of a sealed checkpoint is a typed
    /// `CheckpointError` from both the frame verifier and the full rebuild
    /// path — never a panic, never silently loaded garbage weights. Every
    /// byte of the frame is covered: the magic and length header are
    /// validated structurally and the payload (plus the checksum field
    /// itself) by the FNV-1a checksum.
    #[test]
    fn corrupting_any_checkpoint_byte_is_a_typed_rebuild_error(
        index_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let (schema, num_rows, cfg, bytes) = checkpoint_fixture();
        let mut mutated = bytes.clone();
        let index = (((mutated.len() - 1) as f64) * index_frac) as usize;
        mutated[index] ^= mask;
        prop_assert!(verify_checkpoint(&mutated).is_err());
        let rebuilt =
            DuetEstimator::rebuild_from_checkpoint(schema.clone(), *num_rows, cfg, "fuzz", &mutated);
        prop_assert!(rebuilt.is_err());
    }

    /// Any strict prefix of a sealed checkpoint (a torn write) is a typed
    /// error, never a panic or an out-of-bounds read.
    #[test]
    fn truncating_a_checkpoint_is_a_typed_rebuild_error(len_frac in 0.0f64..1.0) {
        let (schema, num_rows, cfg, bytes) = checkpoint_fixture();
        let keep = (((bytes.len() - 1) as f64) * len_frac) as usize;
        prop_assert!(verify_checkpoint(&bytes[..keep]).is_err());
        let rebuilt =
            DuetEstimator::rebuild_from_checkpoint(schema.clone(), *num_rows, cfg, "fuzz", &bytes[..keep]);
        prop_assert!(rebuilt.is_err());
    }

    /// Arbitrary bytes that never were a checkpoint exercise the decode
    /// paths without panicking; the pristine fixture still rebuilds
    /// afterwards, so the failed attempts leave no poisoned state behind.
    #[test]
    fn arbitrary_bytes_never_panic_the_rebuild_path(
        garbage in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let (schema, num_rows, cfg, bytes) = checkpoint_fixture();
        let _ = verify_checkpoint(&garbage);
        let _ = DuetEstimator::rebuild_from_checkpoint(schema.clone(), *num_rows, cfg, "fuzz", &garbage);
        let pristine =
            DuetEstimator::rebuild_from_checkpoint(schema.clone(), *num_rows, cfg, "fuzz", bytes);
        prop_assert!(pristine.is_ok());
    }
}

#[test]
fn estimators_trained_on_csv_loaded_data_work() {
    let table = census_like(800, 94);
    let mut buffer = Vec::new();
    write_csv(&table, &mut buffer).expect("write");
    let reloaded = read_csv("census_reload", buffer.as_slice()).expect("read");
    let mut est = DuetEstimator::train_data_only(&reloaded, &DuetConfig::small().with_epochs(1), 3);
    let q = WorkloadSpec::random(&reloaded, 1, 9).generate(&reloaded).remove(0);
    let e = est.estimate(&q);
    assert!(e >= 0.0 && e <= reloaded.num_rows() as f64);
}
