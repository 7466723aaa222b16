//! End-to-end parity of the compressed f16 warm tier: serving with
//! `WeightMode::Half` (f16-stored panels, f32 accumulate) must agree with
//! the bit-exact `WeightMode::Full` default on a real workload — bounded
//! per-estimate relative drift, and a mean q-error that moves by well under
//! 0.1%, the gate for keeping a model in the compressed tier.

use duet::core::{query_to_id_predicates, DuetConfig, DuetEstimator, DuetWorkspace, WeightMode};
use duet::data::datasets::census_like;
use duet::nn::q_error;
use duet::query::{exact_cardinality, WorkloadSpec};

/// Per-query id-space predicate rows.
type EncodedRows = Vec<Vec<Vec<duet::core::IdPredicate>>>;
/// Per-query valid-id intervals.
type EncodedIntervals = Vec<Vec<(u32, u32)>>;

/// One trained estimator plus an encoded census workload.
fn setup() -> (DuetEstimator, EncodedRows, EncodedIntervals, Vec<u64>) {
    let table = census_like(2_000, 11);
    let cfg = DuetConfig::small().with_epochs(2);
    let est = DuetEstimator::train_data_only(&table, &cfg, 5);
    let queries = WorkloadSpec::random(&table, 64, 321).generate(&table);
    let rows: Vec<_> = queries.iter().map(|q| query_to_id_predicates(est.schema(), q)).collect();
    let intervals: Vec<_> = queries.iter().map(|q| q.column_intervals(est.schema())).collect();
    let truths: Vec<u64> = queries.iter().map(|q| exact_cardinality(&table, q)).collect();
    (est, rows, intervals, truths)
}

#[test]
fn half_and_full_estimates_agree_within_the_compression_envelope() {
    let (est, rows, intervals, truths) = setup();

    let mut ws = DuetWorkspace::new();
    assert_eq!(ws.weight_mode, WeightMode::Full, "Full is the bit-exact default");
    let mut full = Vec::new();
    est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut full);

    ws.weight_mode = WeightMode::Half;
    let mut half = Vec::new();
    est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut half);

    // Per-estimate: each f16-rounded weight carries <= 2^-11 relative error;
    // composed through the network and the per-column product the drift
    // stays around 1e-3 on this workload — 1e-2 leaves a stable margin
    // while still being far below model error (q-errors are 1.x-10x).
    for (i, (h, f)) in half.iter().zip(full.iter()).enumerate() {
        let rel = if *f > 0.0 { (h - f).abs() / f } else { (h - f).abs() };
        assert!(rel <= 1e-2, "query {i}: half {h} vs full {f} (rel {rel})");
    }

    // The tier gate: accuracy judged by mean q-error must move by <= 0.1%
    // before a model is allowed to stay in the compressed warm tier.
    let q = |ests: &[f64]| -> f64 {
        ests.iter()
            .zip(truths.iter())
            .map(|(&est, &truth)| q_error(est, truth as f64, 1.0))
            .sum::<f64>()
            / ests.len() as f64
    };
    let (q_half, q_full) = (q(&half), q(&full));
    assert!(
        (q_half - q_full).abs() <= 1e-3 * q_full,
        "mean q-error drift must stay under 0.1%: half {q_half} vs full {q_full}"
    );
}

#[test]
fn half_mode_is_deterministic_and_rebatching_stays_in_the_envelope() {
    let (est, rows, intervals, _) = setup();

    // Determinism: within a mode, re-running the same batch is bitwise.
    for mode in [WeightMode::Full, WeightMode::Half] {
        let mut ws = DuetWorkspace::new();
        ws.weight_mode = mode;
        let mut all = Vec::new();
        est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut all);
        let mut rerun = Vec::new();
        est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut rerun);
        assert_eq!(all, rerun, "{mode:?} must be deterministic");
    }

    // Re-batching: Full is bit-invariant (the kernel contract). Half is a
    // *storage* tier for the batched hot loop — small chunks legitimately
    // fall back to the exact f32 kernels (see `MaskedLinear::infer_entry`),
    // so chunked results may flip between the half
    // and exact paths. Every path stays inside the compression envelope, so
    // the chunked run must stay within it too.
    let mut ws = DuetWorkspace::new();
    let mut full = Vec::new();
    est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut full);

    ws.weight_mode = WeightMode::Half;
    let mut chunked = Vec::new();
    let mut out = Vec::new();
    for (r, i) in rows.chunks(7).zip(intervals.chunks(7)) {
        est.estimate_encoded_batch_with(r, i, &mut ws, &mut out);
        chunked.extend_from_slice(&out);
    }
    assert_eq!(chunked.len(), full.len());
    for (i, (h, f)) in chunked.iter().zip(full.iter()).enumerate() {
        let rel = if *f > 0.0 { (h - f).abs() / f } else { (h - f).abs() };
        assert!(rel <= 1e-2, "chunked query {i}: half {h} vs full {f} (rel {rel})");
    }
}
