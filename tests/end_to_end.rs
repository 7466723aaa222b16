//! Cross-crate integration tests: train Duet end-to-end on synthetic data and
//! check the paper's qualitative claims on a small scale — determinism,
//! accuracy better than the independence baseline, hybrid training improving
//! the in-workload tail, and O(1) latency scaling.

use duet::baselines::IndependenceEstimator;
use duet::core::{DuetConfig, DuetEstimator, DuetWorkspace};
use duet::data::datasets::{census_like, kddcup98_like};
use duet::query::{
    exact_cardinality, label_workload, CardinalityEstimator, QErrorSummary, Query, WorkloadSpec,
};

fn summary(est: &mut dyn CardinalityEstimator, queries: &[Query], cards: &[u64]) -> QErrorSummary {
    let estimates: Vec<f64> = queries.iter().map(|q| est.estimate(q)).collect();
    QErrorSummary::from_estimates(&estimates, cards)
}

#[test]
fn duet_beats_independence_on_correlated_data() {
    let table = census_like(4_000, 11);
    let cfg = DuetConfig::small().with_epochs(10);
    let mut duet = DuetEstimator::train_data_only(&table, &cfg, 1);
    let mut indep = IndependenceEstimator::new(&table);

    let queries = WorkloadSpec::random(&table, 150, 1234).generate(&table);
    let cards = label_workload(&table, &queries);
    let duet_summary = summary(&mut duet, &queries, &cards);
    let indep_summary = summary(&mut indep, &queries, &cards);
    assert!(
        duet_summary.mean < indep_summary.mean,
        "Duet mean Q-Error ({:.2}) should beat independence ({:.2})",
        duet_summary.mean,
        indep_summary.mean
    );
}

#[test]
fn duet_estimates_are_deterministic_across_repeated_calls() {
    let table = census_like(1_500, 12);
    let mut duet = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(2), 3);
    let queries = WorkloadSpec::random(&table, 50, 7).generate(&table);
    for q in &queries {
        let first = duet.estimate(q);
        for _ in 0..3 {
            assert_eq!(duet.estimate(q), first, "repeated estimates must be identical");
        }
    }
}

#[test]
fn hybrid_training_does_not_regress_random_queries_catastrophically() {
    let table = census_like(3_000, 13);
    let cfg = DuetConfig::small().with_epochs(5);
    let train = WorkloadSpec::in_workload(&table, 500, 42).generate(&table);
    let train_cards = label_workload(&table, &train);

    let mut duet_d = DuetEstimator::train_data_only(&table, &cfg, 2);
    let mut duet = DuetEstimator::train_hybrid(&table, &train, &train_cards, &cfg, 2);

    let rand_q = WorkloadSpec::random(&table, 150, 1234).generate(&table);
    let rand_cards = label_workload(&table, &rand_q);
    let s_d = summary(&mut duet_d, &rand_q, &rand_cards);
    let s_h = summary(&mut duet, &rand_q, &rand_cards);
    // The paper's claim: hybrid training keeps (or improves) random-workload
    // accuracy because the data loss dominates. Allow generous slack since
    // these runs are tiny.
    assert!(
        s_h.median <= s_d.median * 3.0 + 1.0,
        "hybrid median ({:.2}) should stay comparable to data-only ({:.2})",
        s_h.median,
        s_d.median
    );
}

#[test]
fn estimation_latency_is_flat_in_the_number_of_constrained_columns() {
    // O(1) claim: the number of network evaluations does not depend on how
    // many columns the query constrains. We check latency on a 100-column
    // table stays within a small factor between 2-column and 60-column
    // queries (wall-clock is noisy, the factor is generous).
    let table = kddcup98_like(1_500, 14);
    let cfg = DuetConfig::small().with_epochs(1);
    let duet = DuetEstimator::train_data_only(&table, &cfg, 3);

    let narrow = WorkloadSpec::random(&table, 30, 5).with_max_columns(2).generate(&table);
    let wide = WorkloadSpec::random(&table, 30, 6).with_max_columns(60).generate(&table);
    let mut ws = DuetWorkspace::new();
    let mut time = |queries: &[Query]| {
        let start = std::time::Instant::now();
        for q in queries {
            let _ = duet.estimate_with_breakdown(q, &mut ws);
        }
        start.elapsed().as_secs_f64() / queries.len() as f64
    };
    // Warm up, then measure.
    let _ = time(&narrow);
    let narrow_t = time(&narrow);
    let wide_t = time(&wide);
    assert!(
        wide_t < narrow_t * 6.0,
        "per-query latency should not blow up with constrained columns: {narrow_t:.6}s vs {wide_t:.6}s"
    );
}

#[test]
fn estimates_are_bounded_by_zero_and_table_size() {
    let table = census_like(2_000, 15);
    let mut duet = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(2), 9);
    for q in WorkloadSpec::random(&table, 100, 21).generate(&table) {
        let e = duet.estimate(&q);
        assert!(e >= 0.0);
        assert!(e <= table.num_rows() as f64 + 1e-6);
    }
    // Sanity: unconstrained query ~ full table, contradictions ~ 0.
    assert!((duet.estimate(&Query::all()) - table.num_rows() as f64).abs() < 1e-6);
}

#[test]
fn training_workload_labels_match_exact_evaluation() {
    let table = census_like(1_000, 16);
    let queries = WorkloadSpec::in_workload(&table, 100, 42).generate(&table);
    let labels = label_workload(&table, &queries);
    for (q, &l) in queries.iter().zip(&labels) {
        assert_eq!(l, exact_cardinality(&table, q));
    }
}
