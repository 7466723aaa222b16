//! End-to-end parity of the softmax modes: `SoftmaxMode::Fast` (polynomial
//! exp, the mode every estimate path runs) must agree with
//! `SoftmaxMode::Exact` (libm exp, the mode training uses) to within noise
//! on a real workload — per-estimate relative error far below model error,
//! and q-error distributions that match to high precision. Both modes read
//! the same logits, computed once through the backbone.

use duet::core::{query_to_id_predicates, DuetConfig, DuetEstimator, DuetWorkspace, SoftmaxMode};
use duet::data::datasets::census_like;
use duet::nn::{q_error, ForwardWorkspace, InferLayer, Matrix};
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

/// The backbone's logits for `rows`, one forward pass.
fn logits(est: &DuetEstimator, rows: &[Vec<Vec<duet::core::IdPredicate>>]) -> Matrix {
    let mut ws = DuetWorkspace::new();
    est.model().fill_input(rows, &mut ws);
    est.model().made().infer_into(ws.input(), &mut ForwardWorkspace::new()).clone()
}

/// Cardinality estimates read off `logits` under `mode`.
fn estimates(
    est: &DuetEstimator,
    logits: &Matrix,
    intervals: &[Vec<(u32, u32)>],
    mode: SoftmaxMode,
) -> Vec<f64> {
    let mut probs = Vec::new();
    intervals
        .iter()
        .enumerate()
        .map(|(r, iv)| {
            let sel = est.model().selectivity_from_logits_mode(logits.row(r), iv, &mut probs, mode);
            sel * est.num_rows() as f64
        })
        .collect()
}

#[test]
fn fast_and_exact_estimates_agree_within_noise() {
    let (est, rows, intervals, truths) = setup();
    let logits = logits(&est, &rows);
    let fast = estimates(&est, &logits, &intervals, SoftmaxMode::Fast);
    let exact = estimates(&est, &logits, &intervals, SoftmaxMode::Exact);

    let mut served = Vec::new();
    est.estimate_encoded_batch_with(&rows, &intervals, &mut DuetWorkspace::new(), &mut served);
    assert_eq!(fast, served, "Fast is the mode the estimate path runs");

    // Per-estimate: the fast path's 1e-6 exp error composes across at most
    // ~14 constrained columns — relative error stays microscopic next to
    // model error (q-errors are typically 1.x-10x).
    for (i, (f, e)) in fast.iter().zip(exact.iter()).enumerate() {
        let rel = if *e > 0.0 { (f - e).abs() / e } else { (f - e).abs() };
        assert!(rel <= 1e-4, "query {i}: fast {f} vs exact {e} (rel {rel})");
    }

    // Q-error parity: both modes judge the workload identically to well
    // under the measurement noise of any accuracy experiment.
    let q = |ests: &[f64]| -> f64 {
        ests.iter()
            .zip(truths.iter())
            .map(|(&est, &truth)| q_error(est, truth as f64, 1.0))
            .sum::<f64>()
            / ests.len() as f64
    };
    let (q_fast, q_exact) = (q(&fast), q(&exact));
    assert!(
        (q_fast - q_exact).abs() <= 1e-3 * q_exact,
        "mean q-error must match within noise: fast {q_fast} vs exact {q_exact}"
    );
}

#[test]
fn each_mode_is_deterministic_and_batch_invariant() {
    let (est, rows, intervals, _) = setup();
    let all = logits(&est, &rows);
    let mut chunked = Vec::new();
    for chunk in rows.chunks(7) {
        chunked.extend_from_slice(logits(&est, chunk).as_slice());
    }
    let chunked = Matrix::from_vec(all.rows(), all.cols(), chunked);
    for mode in [SoftmaxMode::Fast, SoftmaxMode::Exact] {
        let once = estimates(&est, &all, &intervals, mode);
        // Re-evaluating and re-batching must be bit-identical within a mode.
        assert_eq!(once, estimates(&est, &all, &intervals, mode), "{mode:?} must be deterministic");
        let rebatched = estimates(&est, &chunked, &intervals, mode);
        assert_eq!(once, rebatched, "{mode:?} must be batch-invariant");
    }
}
