//! The closed hybrid loop, end to end: ingest-driven drift detection, the
//! background retrain, and the zero-downtime publish (hot-swap + hot-set
//! replay), proven by seeded train-while-serving simulations.
//!
//! Four angles:
//!
//! * **Determinism** — `DriftScenarioConfig::generate` scripts a seeded
//!   distribution shift (warm traffic → skewed ingest burst → trainer ticks
//!   → post traffic), `sim::replay` runs it twice per seed and the two
//!   `ScenarioReport`s must be identical, generation bumps and retrain
//!   counters included;
//! * **Quality** — after a seeded drift and retrain, the published model's
//!   mean q-error on a workload over the drifted table must beat the stale
//!   pre-drift model's;
//! * **Warm publish** — the hot set replayed after an online swap must leave
//!   zero cache misses for the hot queries (every post-swap submission is
//!   answered from the cache);
//! * **Safety** — a table mid-retrain is pinned and never evicted by the
//!   model tier even under a budget nothing fits in, a re-registered table
//!   leaves online learning (its feedback is refused, not silently trained
//!   on, and no retrain publishes into the replaced slot), and an empty
//!   table cannot go online.

use duet::core::{DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::data::Table;
use duet::query::{exact_cardinality, q_error, CardinalityEstimator, WorkloadSpec};
use duet::serve::sim::{
    replay, ChunkMode, DriftScenarioConfig, RouterHarness, SubmitResult, Transport,
};
use duet::serve::{Counter, DuetServer, OnlineConfig, ServeConfig, ServeError};
use std::sync::Arc;

/// A row taking every column's last dictionary id — the most extreme
/// in-dictionary shift a single row can contribute.
fn last_id_row(table: &Table) -> Vec<u32> {
    (0..table.num_columns()).map(|c| (table.column(c).ndv() as u32).saturating_sub(1)).collect()
}

#[test]
fn drift_scenario_replays_bit_identically() {
    let table = census_like(400, 51);
    let estimator = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 51);
    let workload = WorkloadSpec::random(&table, 32, 52).generate(&table);

    for seed in [3u64, 9] {
        let cfg = DriftScenarioConfig {
            seed,
            warm_queries: 48,
            shift_rows: 400,
            post_queries: 48,
            tick_every: 8,
            feedback_every: 4,
            online: OnlineConfig {
                drift_threshold: 0.05,
                drift_hysteresis: 2,
                retrain_steps: 4,
                train_batch_size: 8,
                ..OnlineConfig::default()
            },
            harness: ServeConfig {
                cache_capacity: 128,
                cache_shards: 1,
                hot_keys: 16,
                ..ServeConfig::default()
            },
        };
        let (setup, script) = cfg.generate(&table, &estimator, &workload);
        let first = replay(&setup, &script, Transport::InProcess);
        let second = replay(&setup, &script, Transport::InProcess);
        assert_eq!(first, second, "seed {seed}: the drift scenario must replay bit-identically");

        assert_eq!(first.accounted(), first.submitted, "every request accounted exactly once");
        assert_eq!(first.mismatches, 0);
        assert_eq!(
            first.counters[Counter::IngestedRows],
            400,
            "the whole shift burst must be ingested"
        );
        assert!(
            first.counters[Counter::DriftDetections] >= 1,
            "the skewed burst must be detected as drift"
        );
        assert!(
            first.counters[Counter::Retrains] >= 1 && first.counters[Counter::SwapsPublished] >= 1,
            "drift must publish a retrain"
        );
        assert!(first.post_swap_served > 0, "serving must continue across the swap");
        assert_eq!(first.counters[Counter::FeedbackRejected], 0, "in-run feedback is never stale");
    }
}

#[test]
fn the_default_drift_script_closes_the_loop_over_ingest_and_feedback_frames() {
    let table = census_like(400, 53);
    let estimator = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 53);
    let workload = WorkloadSpec::random(&table, 32, 54).generate(&table);
    let cfg = DriftScenarioConfig::default();
    let (setup, script) = cfg.generate(&table, &estimator, &workload);

    // Every row of the shift and every feedback observation travels as a
    // protocol frame through the connection's ingest/feedback handlers (the
    // replay itself insists each one is acknowledged `Ok`), shredded like
    // any other client bytes.
    let wire = Transport::Wire { chunk: ChunkMode::Random { max: 256 }, max_pipeline: 64 };
    let report = replay(&setup, &script, wire);
    assert_eq!(report, replay(&setup, &script, wire), "the wire drift loop must replay exactly");

    assert_eq!(report.accounted(), report.submitted);
    assert_eq!(report.mismatches, 0, "post-swap replies match the published model: {report:?}");
    assert_eq!(
        report.counters[Counter::IngestedRows],
        cfg.shift_rows as u64,
        "every ingest frame must land"
    );
    assert_eq!(
        report.counters[Counter::FeedbackRejected],
        0,
        "in-run feedback frames are never stale"
    );
    assert!(
        report.counters[Counter::Retrains] >= 1 && report.counters[Counter::SwapsPublished] >= 1,
        "drift must publish: {report:?}"
    );
}

#[test]
fn retrain_beats_stale_model_on_drifted_workload() {
    let table = census_like(400, 61);
    let model_cfg = DuetConfig::small().with_epochs(2);
    let estimator = DuetEstimator::train_data_only(&table, &model_cfg, 61);
    let stale = estimator.clone();

    let config = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
    let mut harness = RouterHarness::new(vec![("drift".into(), estimator)], config);
    let online = harness.enable_online(
        0,
        table.clone(),
        OnlineConfig {
            drift_threshold: 0.05,
            drift_hysteresis: 1,
            retrain_steps: 64,
            train_batch_size: 32,
            recent_fraction: 0.7,
            ..OnlineConfig::default()
        },
    );

    // An extreme shift: 3x the original row count, all mass on each
    // column's last id. The stale model both mis-scales (its snapshot says
    // 400 rows; the table now has 1600) and mis-shapes (it never saw the
    // skew), so the retrained-and-published model must do better.
    let grown = {
        let mut guard = online.lock().unwrap();
        let skew = last_id_row(&table);
        for _ in 0..1200 {
            guard.ingest_row(&skew).unwrap();
        }
        let tick = guard.tick();
        assert!(tick.drift && tick.retrained && tick.swapped, "the shift must publish");
        guard.table().clone()
    };
    let published = harness.estimator(0);
    assert_eq!(published.num_rows(), grown.num_rows(), "published model carries the grown count");

    let drifted_workload = WorkloadSpec::random(&grown, 24, 62).generate(&grown);
    let mut stale_model = stale;
    let mut retrained = (*published).clone();
    let (mut stale_err, mut retrained_err) = (0.0f64, 0.0f64);
    for query in &drifted_workload {
        let actual = exact_cardinality(&grown, query) as f64;
        stale_err += q_error(stale_model.estimate(query), actual);
        retrained_err += q_error(retrained.estimate(query), actual);
    }
    let n = drifted_workload.len() as f64;
    assert!(
        retrained_err / n < stale_err / n,
        "retrained model must beat the stale one on the drifted workload \
         (stale mean q-error {:.3}, retrained {:.3})",
        stale_err / n,
        retrained_err / n,
    );
}

#[test]
fn hot_set_replay_leaves_zero_post_swap_cache_misses() {
    let table = census_like(300, 71);
    let estimator = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 71);
    let mut harness = RouterHarness::new(
        vec![("hot".into(), estimator)],
        ServeConfig { cache_capacity: 64, cache_shards: 1, hot_keys: 32, ..ServeConfig::default() },
    );
    let online = harness.enable_online(
        0,
        table.clone(),
        OnlineConfig {
            drift_threshold: 0.05,
            drift_hysteresis: 1,
            retrain_steps: 4,
            train_batch_size: 8,
            ..OnlineConfig::default()
        },
    );

    // Warm phase: every query is observed by the hot set on first sight and
    // cached after its batch executes; the second pass must be all hits.
    let workload = WorkloadSpec::random(&table, 16, 72).generate(&table);
    for (i, query) in workload.iter().enumerate() {
        harness.submit_query(0, query, i as u64);
        harness.drain();
    }
    for (i, query) in workload.iter().enumerate() {
        match harness.submit_query(0, query, 100 + i as u64) {
            SubmitResult::Cached(_) => {}
            other => panic!("warm query {i} must be served from cache, got {other:?}"),
        }
    }

    // Drift and publish: the swap bumps the generation (stale keys become
    // unreachable) and the replay re-seeds the hottest keys in one batched
    // pass under the new model.
    let tick = {
        let mut guard = online.lock().unwrap();
        let skew = last_id_row(&table);
        for _ in 0..400 {
            guard.ingest_row(&skew).unwrap();
        }
        guard.tick()
    };
    assert!(tick.swapped, "the drift burst must publish a new model");
    assert!(tick.replayed > 0, "the warm phase must have populated the hot set");

    let misses_before = harness.metrics().cache_misses;
    for (i, query) in workload.iter().enumerate() {
        match harness.submit_query(0, query, 200 + i as u64) {
            SubmitResult::Cached(_) => {}
            other => panic!("post-swap query {i} must hit the replayed cache, got {other:?}"),
        }
    }
    assert_eq!(
        harness.metrics().cache_misses,
        misses_before,
        "hot-set replay must leave zero post-swap cache misses"
    );
}

#[test]
fn mid_retrain_table_is_never_evicted_by_the_tier() {
    let table_a = census_like(300, 81);
    let table_b = census_like(200, 82);
    let cfg = DuetConfig::small().with_epochs(1);
    let est_a = DuetEstimator::train_data_only(&table_a, &cfg, 81);
    let est_b = DuetEstimator::train_data_only(&table_b, &cfg, 82);

    // A budget nothing fits in: every executed batch asks the tier to evict
    // everything except the active and pinned tables. The result cache is
    // off so every estimate reaches a worker (a cache hit would skip the
    // tier's enforce pass and exert no pressure).
    let server = Arc::new(DuetServer::new(ServeConfig {
        model_budget_bytes: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    }));
    server.register("a", est_a);
    server.register("b", est_b);
    server
        .enable_online(
            "a",
            table_a.clone(),
            OnlineConfig {
                drift_threshold: 0.05,
                drift_hysteresis: 1,
                // A long retrain widens the window the pin must cover.
                retrain_steps: 600,
                train_batch_size: 16,
                ..OnlineConfig::default()
            },
        )
        .unwrap();
    let skew = last_id_row(&table_a);
    for _ in 0..400 {
        server.ingest("a", &skew).unwrap();
    }

    let queries_b = WorkloadSpec::random(&table_b, 8, 83).generate(&table_b);
    let trainer = {
        let server = server.clone();
        std::thread::spawn(move || server.maintain_online("a").unwrap())
    };

    // `tick` pins before bumping `retrains` and unpins only after
    // `swaps_published` is bumped, so once `retrains` is visible the pin is
    // guaranteed held until `swaps_published` becomes visible.
    while server.metrics().retrains == 0 && !trainer.is_finished() {
        std::thread::yield_now();
    }

    let mut windows_checked = 0u32;
    while !trainer.is_finished() {
        for query in &queries_b {
            server.estimate("b", query).unwrap();
        }
        // Read the pin *before* the counters: the unpin follows the
        // `swaps_published` bump, so a snapshot that still shows no publish
        // proves the earlier pin reading was taken mid-retrain.
        let pinned = server.model_tier().is_pinned(0);
        let snap = server.metrics();
        if snap.swaps_published == 0 {
            assert_eq!(
                snap.model_evictions, 0,
                "the tier must never evict the table mid-retrain (pin violated)"
            );
            assert!(pinned, "table a must be pinned mid-retrain");
            windows_checked += 1;
        }
    }
    let report = trainer.join().unwrap();
    assert!(report.retrained && report.swapped, "the seeded drift must retrain and publish");
    assert!(
        windows_checked > 0,
        "the serving pressure must overlap the retrain window at least once"
    );
    assert!(!server.model_tier().is_pinned(0), "the pin must be released after the publish");

    // The pressure was real: with the pin released, the same traffic now
    // evicts the cold table.
    for query in &queries_b {
        server.estimate("b", query).unwrap();
    }
    assert!(
        server.metrics().model_evictions >= 1,
        "once unpinned, the over-budget tier must evict the cold table"
    );
}

#[test]
fn feedback_against_a_reregistered_table_is_rejected_as_stale() {
    let table = census_like(300, 91);
    let cfg = DuetConfig::small().with_epochs(1);
    let estimator = DuetEstimator::train_data_only(&table, &cfg, 91);
    let server = DuetServer::new(ServeConfig::default());
    server.register("t", estimator.clone());
    server.enable_online("t", table.clone(), OnlineConfig::default()).unwrap();

    let query = WorkloadSpec::random(&table, 1, 92).generate(&table).remove(0);
    server.feedback("t", &query, 10.0).unwrap();

    // Re-registering takes the table out of online learning: the online
    // state was bound to the old registration, so its observations describe
    // a model that no longer serves and must not be trained on.
    server.register("t", estimator);
    match server.feedback("t", &query, 10.0) {
        Err(ServeError::Rejected { table, .. }) => assert_eq!(table, "t"),
        other => panic!("feedback for a replaced registration must be refused, got {other:?}"),
    }

    // Enabled again, the loop is bound to the new registration; invalid
    // cardinalities are rejected and counted.
    server.enable_online("t", table, OnlineConfig::default()).unwrap();
    server.feedback("t", &query, 10.0).unwrap();
    match server.feedback("t", &query, f64::NEG_INFINITY) {
        Err(ServeError::Rejected { .. }) => {}
        other => panic!("invalid feedback must be rejected, got {other:?}"),
    }
    assert_eq!(server.metrics().feedback_rejected, 1);
}

/// Drift on the first drifted tick, and a short retrain.
fn eager_online() -> OnlineConfig {
    OnlineConfig { drift_hysteresis: 1, retrain_steps: 8, ..OnlineConfig::default() }
}

#[test]
fn re_registering_a_table_stops_its_online_loop() {
    let table = census_like(300, 93);
    let cfg = DuetConfig::small().with_epochs(1);
    let estimator = DuetEstimator::train_data_only(&table, &cfg, 93);
    let server = DuetServer::new(ServeConfig::default());
    server.register("t", estimator.clone());
    server.enable_online("t", table.clone(), eager_online()).unwrap();

    // The loop must not outlive the registration it hooks: a skewed burst
    // and a tick against the replaced table retrain nothing and publish
    // nothing (a retrain would land in a slot that nothing serves).
    server.register("t", estimator);
    let row = last_id_row(&table);
    assert!(matches!(server.ingest("t", &row), Err(ServeError::Rejected { .. })));
    assert!(matches!(server.maintain_online("t"), Err(ServeError::Rejected { .. })));
    let metrics = server.metrics();
    assert_eq!((metrics.retrains, metrics.swaps_published), (0, 0));
    assert_eq!(server.generation("t"), Some(0));

    // Enabled again, the same burst retrains and publishes where the table
    // is served.
    server.enable_online("t", table, eager_online()).unwrap();
    for _ in 0..300 {
        server.ingest("t", &row).unwrap();
    }
    let report = server.maintain_online("t").unwrap();
    assert!(report.retrained && report.swapped, "the burst must retrain: {report:?}");
    assert_eq!(server.generation("t"), Some(1), "the retrain is served");
}

#[test]
fn an_empty_table_cannot_go_online() {
    let table = census_like(300, 94);
    let cfg = DuetConfig::small().with_epochs(1);
    let server = DuetServer::new(ServeConfig::default());
    server.register("e", DuetEstimator::train_data_only(&table, &cfg, 94));
    // A retrain draws its anchor rows from the online table: with none,
    // there is nothing to train on.
    let online = OnlineConfig { feedback_trigger: 1, ..OnlineConfig::default() };
    match server.enable_online("e", table.schema_only(), online) {
        Err(ServeError::Rejected { table, .. }) => assert_eq!(table, "e"),
        other => panic!("an empty online table must be refused, got {other:?}"),
    }
    let query = WorkloadSpec::random(&table, 1, 95).generate(&table).remove(0);
    assert!(matches!(server.feedback("e", &query, 10.0), Err(ServeError::Rejected { .. })));
    assert!(matches!(server.maintain_online("e"), Err(ServeError::Rejected { .. })));
    assert_eq!(server.metrics().panics_caught, 0);
}
