//! Multiple predicates per column: enable the MPSN (§IV-F) and estimate
//! queries such as `10 <= age AND age <= 40 AND age != ...` that place several
//! predicates on the same column, then persist and restore the model.
//!
//! Run with `cargo run --release --example multi_predicate`.

use duet::core::{load_weights, save_weights, DuetConfig, DuetEstimator, MpsnKind};
use duet::data::datasets::census_like;
use duet::data::Value;
use duet::query::{exact_cardinality, q_error, CardinalityEstimator, PredOp, Query, WorkloadSpec};

fn main() {
    let table = census_like(8_000, 42);

    // An MLP MPSN embeds a variable number of predicates per column into the
    // fixed per-column input block.
    let config = DuetConfig::small().with_epochs(4).with_mpsn(MpsnKind::Mlp, 3);
    println!("training Duet with an MLP MPSN (up to 3 predicates per column) ...");
    let train =
        WorkloadSpec::in_workload(&table, 1_000, 42).with_multi_predicates(3).generate(&table);
    let cards: Vec<u64> = train.iter().map(|q| exact_cardinality(&table, q)).collect();
    let mut duet = DuetEstimator::train_hybrid(&table, &train, &cards, &config, 42);

    // A hand-written query with a two-sided range on `age` plus a point
    // predicate on `sex`.
    let query = Query::all()
        .and(0, PredOp::Ge, Value::Int(10))
        .and(0, PredOp::Le, Value::Int(40))
        .and(9, PredOp::Eq, Value::Int(1));
    let estimate = duet.estimate(&query);
    let actual = exact_cardinality(&table, &query);
    println!("\nquery: {query}");
    println!(
        "estimate = {estimate:.1}, actual = {actual}, q-error = {:.2}",
        q_error(estimate, actual as f64)
    );

    // Persist the trained weights and restore them into a fresh estimator.
    let checkpoint = save_weights(&duet);
    println!("\ncheckpoint size: {} KiB", checkpoint.len() / 1024);
    let fresh_model = duet::core::DuetModel::new(&table, &config, 7);
    let mut restored = DuetEstimator::from_model(fresh_model, &table, "restored");
    load_weights(&mut restored, &checkpoint).expect("restore should succeed");
    assert_eq!(restored.estimate(&query), estimate);
    println!("restored estimator reproduces the estimate exactly: {}", restored.estimate(&query));
}
