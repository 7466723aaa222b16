//! Hybrid training: use a historical query workload as an additional
//! supervised signal (`L = L_data + λ·log2(QError+1)`), then compare the
//! resulting accuracy against the purely data-driven DuetD on both
//! in-workload and random test queries — the ablation behind Table II.
//!
//! Run with `cargo run --release --example hybrid_training`.

use duet::core::{DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::query::{label_workload, CardinalityEstimator, QErrorSummary, Query, WorkloadSpec};

fn evaluate(name: &str, est: &mut dyn CardinalityEstimator, queries: &[Query], cards: &[u64]) {
    let estimates: Vec<f64> = queries.iter().map(|q| est.estimate(q)).collect();
    let summary = QErrorSummary::from_estimates(&estimates, cards);
    println!("  {name:<8} {}", summary.to_row());
}

fn main() {
    let table = census_like(10_000, 42);
    let config = DuetConfig::small().with_epochs(5);

    // Historical workload with temporal locality: bounded column + skewed
    // predicate counts, seed 42 (the paper's training workload protocol).
    println!("generating and labelling the training workload ...");
    let train_spec = WorkloadSpec::in_workload(&table, 2_000, 42);
    let train = train_spec.generate(&table);
    let train_cards = label_workload(&table, &train);

    println!("training DuetD (data only) and Duet (hybrid) ...");
    let mut duet_d = DuetEstimator::train_data_only(&table, &config, 7);
    let mut duet = DuetEstimator::train_hybrid(&table, &train, &train_cards, &config, 7);

    // Evaluate on queries drawn from the same distribution as the history,
    // on a seed of their own so they do not replay the training queries
    // (In-Q), and on a completely random workload (Rand-Q).
    for (label, spec) in [
        ("In-Workload queries", WorkloadSpec { num_queries: 300, seed: 4242, ..train_spec }),
        ("Random queries", WorkloadSpec::random(&table, 300, 1234)),
    ] {
        let queries = spec.generate(&table);
        let cards = label_workload(&table, &queries);
        println!("\n{label}:");
        evaluate("DuetD", &mut duet_d, &queries, &cards);
        evaluate("Duet", &mut duet, &queries, &cards);
    }
    println!(
        "\nHybrid training typically tightens the tail (p99/max) on in-workload queries\n\
         without giving up the data-driven robustness on random queries."
    );
}
