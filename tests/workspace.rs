//! Integration tests for the allocation-free inference path: batched
//! estimation through a caller-owned [`DuetWorkspace`] must be bit-identical
//! to per-query estimation, for every MPSN variant, across workspace reuse
//! with changing batch shapes, and through the serving layer.

use duet::core::{query_to_id_predicates, DuetConfig, DuetEstimator, DuetWorkspace, MpsnKind};
use duet::data::datasets::census_like;
use duet::nn::Params;
use duet::query::{CardinalityEstimator, WorkloadSpec};

#[test]
fn workspace_batches_match_per_query_estimates_exactly() {
    let table = census_like(500, 19);
    let cfg = DuetConfig::small().with_epochs(2);
    let mut est = DuetEstimator::train_data_only(&table, &cfg, 7);
    let queries = WorkloadSpec::random(&table, 41, 23).generate(&table);

    // One workspace, many batch shapes: 1, then uneven chunks, then all.
    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    for chunk_size in [1usize, 7, 41] {
        for chunk in queries.chunks(chunk_size) {
            est.estimate_batch_with(chunk, &mut ws, &mut out);
            assert_eq!(out.len(), chunk.len());
            for (q, &batched) in chunk.iter().zip(&out) {
                assert_eq!(
                    est.estimate(q),
                    batched,
                    "workspace-batched estimate must be bit-identical (chunk {chunk_size})"
                );
            }
        }
    }
}

#[test]
fn workspace_estimates_are_bit_identical_for_every_mpsn_kind() {
    for kind in [MpsnKind::None, MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
        let table = census_like(200, 8);
        let mut cfg = DuetConfig::small().with_epochs(1);
        if kind != MpsnKind::None {
            cfg = cfg.with_mpsn(kind, 2);
        }
        let mut est = DuetEstimator::train_data_only(&table, &cfg, 5);
        let queries = WorkloadSpec::random(&table, 10, 21).generate(&table);

        let mut ws = DuetWorkspace::new();
        let mut out = Vec::new();
        est.estimate_batch_with(&queries, &mut ws, &mut out);
        let alloc = est.estimate_batch(&queries);
        assert_eq!(out, alloc, "workspace path must match allocating path ({kind:?})");
        for (q, &batched) in queries.iter().zip(&out) {
            assert_eq!(est.estimate(q), batched, "must match per-query estimate ({kind:?})");
        }
    }
}

#[test]
fn workspace_survives_model_switches() {
    // A workspace is scratch only: reusing it across differently-shaped
    // models must not change any result.
    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    for (rows, cols_seed) in [(300usize, 3u64), (200, 4), (400, 5)] {
        let table = census_like(rows, cols_seed);
        let cfg = DuetConfig::small().with_epochs(1);
        let mut est = DuetEstimator::train_data_only(&table, &cfg, cols_seed);
        let queries = WorkloadSpec::random(&table, 8, cols_seed).generate(&table);
        est.estimate_batch_with(&queries, &mut ws, &mut out);
        for (q, &batched) in queries.iter().zip(&out) {
            assert_eq!(est.estimate(q), batched);
        }
    }
}

#[test]
fn a_reused_workspace_serves_weights_mutated_in_place() {
    // Mutating the weights in place (an optimizer step routes through
    // visit_params, exactly like checkpoint loading does) must never be
    // served stale: the masked layers re-mask and repack as the visit ends,
    // so the reused workspace has to produce the same estimates as a fresh
    // one at every step.
    let table = census_like(300, 9);
    let cfg = DuetConfig::small().with_epochs(1);
    let mut est = DuetEstimator::train_data_only(&table, &cfg, 13);
    let queries = WorkloadSpec::random(&table, 12, 3).generate(&table);

    let mut reused = DuetWorkspace::new();
    let mut out_reused = Vec::new();
    let mut out_fresh = Vec::new();
    let mut previous: Option<Vec<f64>> = None;
    for step in 0..3 {
        est.estimate_batch_with(&queries, &mut reused, &mut out_reused);
        est.estimate_batch_with(&queries, &mut DuetWorkspace::new(), &mut out_fresh);
        assert_eq!(out_reused, out_fresh, "reused workspace must match a fresh one (step {step})");
        if let Some(previous) = &previous {
            assert_ne!(
                previous, &out_reused,
                "perturbed weights must actually change estimates (step {step})"
            );
        }
        previous = Some(out_reused.clone());

        // Perturb every parameter through the only mutable route the
        // optimizer has; a stale pack would now be wrong.
        est.model_mut().visit_params(&mut |p| {
            for v in p.data.as_mut_slice() {
                *v += 0.01;
            }
        });
    }
}

#[test]
fn a_reused_workspace_serves_a_checkpoint_loaded_into_a_clone() {
    // A serving worker's long-lived workspace must follow a model whose
    // weights a checkpoint replaced: loaded into a *clone* of the running
    // model, whose layers repack as the weights go in.
    let table = census_like(300, 10);
    let cfg = DuetConfig::small().with_epochs(1);
    let est_a = DuetEstimator::train_data_only(&table, &cfg, 1);
    let est_b = DuetEstimator::train_data_only(&table, &cfg, 2);
    let queries = WorkloadSpec::random(&table, 10, 4).generate(&table);
    let expected_b = est_b.estimate_batch(&queries);

    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    est_a.estimate_batch_with(&queries, &mut ws, &mut out);
    assert_ne!(out, expected_b, "differently seeded models should disagree");

    // Clone the serving model, load the other model's weights into it.
    let checkpoint = duet::core::save_weights(&est_b);
    let mut swapped = est_a.clone();
    duet::core::load_weights(&mut swapped, &checkpoint).expect("checkpoint should load");
    swapped.estimate_batch_with(&queries, &mut ws, &mut out);
    assert_eq!(out, expected_b, "swapped weights must serve through the reused workspace");
}

#[test]
fn encoded_batch_with_matches_public_wrappers() {
    let table = census_like(300, 31);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 11);
    let queries = WorkloadSpec::random(&table, 16, 5).generate(&table);
    let rows: Vec<_> = queries.iter().map(|q| query_to_id_predicates(est.schema(), q)).collect();
    let intervals: Vec<_> = queries.iter().map(|q| q.column_intervals(est.schema())).collect();

    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut out);
    assert_eq!(out, est.estimate_encoded_batch(&rows, &intervals));
    assert_eq!(out, est.estimate_batch(&queries));

    // Empty batches are a no-op that clears the output (the generic
    // row/interval holders need naming when the slice is empty).
    let no_rows: &[Vec<Vec<duet::core::IdPredicate>>] = &[];
    let no_intervals: &[Vec<(u32, u32)>] = &[];
    est.estimate_encoded_batch_with(no_rows, no_intervals, &mut ws, &mut out);
    assert!(out.is_empty());
}
