//! Deterministic serving-harness tests: scripted multi-client arrival
//! patterns (uniform, bursty, hot-table-skewed) replayed through the real
//! router/worker code on a virtual clock.
//!
//! The core assertion style is *replay equality*: running a scenario twice
//! with the same seed must produce identical [`ScenarioReport`]s — shed
//! counts, served counts, batch counts, everything. That makes overload and
//! deadline behavior regression-testable instead of timing-dependent. Every
//! scenario also checks conservation (each submitted request is served or
//! shed exactly once) and bit-identity (a routed, batched answer equals the
//! unbatched per-query estimate).
//!
//! A second group drives the production [`DuetServer`] (real threads, system
//! clock) through the deterministic corners of the same admission-control
//! surface: typed `Overloaded` rejections and `DeadlineExceeded` failures.

use duet::core::{DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::query::{CardinalityEstimator, Query, WorkloadSpec};
use duet::serve::sim::{
    replay, ArrivalPattern, ChunkMode, RouterHarness, ScenarioConfig, SubmitResult, Transport,
};
use duet::serve::{
    shard_for, Counter, DuetServer, RouterConfig, ServeConfig, ServeError, ShedReason,
};
use std::sync::Arc;
use std::time::Duration;

/// Train `n` small tables (distinct shapes and seeds) plus a query pool per
/// table. The names `table-0..3` spread over all 4 default shards (FNV), so
/// skew scenarios genuinely isolate shards.
fn trained_tables(n: usize) -> (Vec<(String, DuetEstimator)>, Vec<Vec<Query>>) {
    let cfg = DuetConfig::small().with_epochs(1);
    let mut tables = Vec::new();
    let mut workloads = Vec::new();
    for i in 0..n {
        let table = census_like(200 + 60 * i, 40 + i as u64);
        let estimator = DuetEstimator::train_data_only(&table, &cfg, 7 + i as u64);
        let queries = WorkloadSpec::random(&table, 10, 100 + i as u64).generate(&table);
        tables.push((format!("table-{i}"), estimator));
        workloads.push(queries);
    }
    (tables, workloads)
}

#[test]
fn uniform_arrivals_serve_everything_bit_identically() {
    let (tables, workloads) = trained_tables(3);
    let cfg = ScenarioConfig {
        seed: 42,
        clients: 4,
        requests_per_client: 30,
        mean_gap: Duration::from_micros(100),
        service_every: Duration::from_micros(300),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
    };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert_eq!(report.submitted, 4 * 30);
    assert_eq!(report.served, report.submitted, "ample queues must serve everything");
    assert_eq!(report.shed_overload, 0);
    assert_eq!(report.shed_deadline, 0);
    assert_eq!(report.mismatches, 0, "routed answers must be bit-identical to unbatched");
    assert_eq!(report.accounted(), report.submitted);
    assert!(
        report.counters[Counter::Batches] > 0
            && report.counters[Counter::Batches] <= report.submitted
    );
    // Replay equality: the same seed reproduces the report exactly.
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));
    // A different seed still conserves and serves everything.
    let (setup, script) = ScenarioConfig { seed: 43, ..cfg.clone() }.generate(&tables, &workloads);
    let other = replay(&setup, &script, Transport::InProcess);
    assert_eq!(other.served, other.submitted);
    assert_eq!(other.mismatches, 0);
}

#[test]
fn bursty_overload_sheds_instead_of_queueing_unboundedly() {
    let (tables, workloads) = trained_tables(2);
    let queue_capacity = 4;
    let cfg = ScenarioConfig {
        seed: 7,
        clients: 4,
        requests_per_client: 32,
        mean_gap: Duration::from_micros(50),
        // Service is far slower than the bursts arrive: without admission
        // control the queues would grow without bound.
        service_every: Duration::from_millis(5),
        pattern: ArrivalPattern::Bursty { burst_size: 16 },
        harness: ServeConfig {
            router: RouterConfig { num_shards: 2, queue_capacity, default_deadline: None },
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert!(report.shed_overload > 0, "bursts over a tiny queue must shed: {report:?}");
    assert!(report.served > 0, "admitted requests must still be served: {report:?}");
    assert!(
        report.max_shard_depth <= queue_capacity,
        "queue depth {} must never exceed the bound {queue_capacity}",
        report.max_shard_depth
    );
    assert_eq!(report.accounted(), report.submitted, "every request served or shed exactly once");
    assert_eq!(report.mismatches, 0, "overload must not change any served answer");
    // Identical shed/served counts on replay — the acceptance criterion.
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));
}

#[test]
fn hot_table_skew_cannot_starve_tables_on_other_shards() {
    let (tables, workloads) = trained_tables(4);
    // table-0..3 spread over all 4 shards (precondition of the isolation
    // claim; FNV assignment is stable, so assert it outright).
    let shards: Vec<usize> = (0..4).map(|i| shard_for(&format!("table-{i}"), 4)).collect();
    let hot_shard = shards[0];
    assert!(
        shards.iter().skip(1).all(|&s| s != hot_shard),
        "test precondition: hot table must be alone on its shard, got {shards:?}"
    );

    // ~85% of traffic hits table-0: between two service turns its shard
    // receives far more than its queue bound and must shed, while each cold
    // table sees only a couple of arrivals per turn and never overflows.
    let cfg = ScenarioConfig {
        seed: 11,
        clients: 6,
        requests_per_client: 40,
        mean_gap: Duration::from_micros(50),
        service_every: Duration::from_micros(250),
        pattern: ArrivalPattern::HotTable { hot_table: 0, hot_permille: 850 },
        harness: ServeConfig {
            router: RouterConfig { num_shards: 4, queue_capacity: 6, default_deadline: None },
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert!(
        report.per_table_submitted[0] > report.submitted / 2,
        "skew precondition: the hot table should dominate traffic: {report:?}"
    );
    assert!(report.per_table_shed[0] > 0, "the hot shard must shed under overload: {report:?}");
    for (t, &shard) in shards.iter().enumerate().skip(1) {
        assert_eq!(
            report.per_table_shed[t], 0,
            "table {t} (shard {shard}) must not shed for the hot table's overload: {report:?}"
        );
        assert_eq!(
            report.per_table_served[t], report.per_table_submitted[t],
            "table {t} must be fully served despite the hot table: {report:?}"
        );
    }
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.accounted(), report.submitted);
    // Identical shed/served counts on replay — the acceptance criterion.
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));
}

#[test]
fn deadline_budgets_expire_at_dequeue_deterministically() {
    let (tables, workloads) = trained_tables(2);
    let cfg = ScenarioConfig {
        seed: 23,
        clients: 4,
        requests_per_client: 40,
        mean_gap: Duration::from_micros(50),
        // Workers run every 2ms but budgets are 500µs: requests queued more
        // than one cadence before their service turn expire at dequeue.
        service_every: Duration::from_millis(2),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig {
            router: RouterConfig {
                num_shards: 2,
                queue_capacity: 4096,
                default_deadline: Some(Duration::from_micros(500)),
            },
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert!(report.shed_deadline > 0, "stale requests must be dropped at dequeue: {report:?}");
    assert_eq!(report.shed_overload, 0, "queues are ample; only deadlines shed here");
    assert_eq!(report.accounted(), report.submitted);
    assert_eq!(report.mismatches, 0, "every served answer must still be bit-identical");
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));
}

#[test]
fn harness_single_steps_admission_deadline_and_metrics() {
    let (tables, workloads) = trained_tables(1);
    let mut harness = RouterHarness::new(
        tables,
        ServeConfig {
            router: RouterConfig {
                num_shards: 1,
                queue_capacity: 2,
                default_deadline: Some(Duration::from_millis(1)),
            },
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let query = &workloads[0][0];
    assert_eq!(harness.submit_query(0, query, 0), SubmitResult::Queued { depth: 1 });
    assert_eq!(harness.submit_query(0, query, 1), SubmitResult::Queued { depth: 2 });
    assert!(
        matches!(harness.submit_query(0, query, 2), SubmitResult::Shed { depth: 2 }),
        "third request must be rejected by the bounded queue"
    );

    // Let both queued budgets lapse, then run the worker: both are dropped
    // at dequeue without a forward pass.
    harness.clock().advance(Duration::from_millis(2));
    harness.turn(None);
    assert_eq!(harness.outcomes().len(), 2);
    assert!(harness
        .outcomes()
        .iter()
        .all(|(_, outcome)| *outcome == Err(ShedReason::DeadlineExpired)));
    let snapshot = harness.metrics();
    assert_eq!(snapshot.shed_overload, 1);
    assert_eq!(snapshot.shed_deadline, 2);
    assert_eq!(snapshot.queue_depth, 0);
    assert_eq!(snapshot.batches, 0, "no forward pass ran for expired requests");

    // A fresh request inside its budget is served normally.
    harness.clear_outcomes();
    assert_eq!(harness.submit_query(0, query, 3), SubmitResult::Queued { depth: 1 });
    harness.turn(None);
    let mut reference = (*harness.estimator(0)).clone();
    assert_eq!(harness.outcomes(), &[(3u64, Ok(reference.estimate(query)))]);
}

// ---------------------------------------------------------------------------
// Production-path admission control (real threads, system clock)
// ---------------------------------------------------------------------------

fn small_served_table(seed: u64) -> (duet::data::Table, DuetEstimator, Vec<Query>) {
    let table = census_like(300, 77);
    let cfg = DuetConfig::small().with_epochs(1);
    let estimator = DuetEstimator::train_data_only(&table, &cfg, seed);
    let queries = WorkloadSpec::random(&table, 8, 5).generate(&table);
    (table, estimator, queries)
}

#[test]
fn production_server_sheds_typed_overloaded_at_zero_capacity() {
    let (_, estimator, queries) = small_served_table(1);
    let server = DuetServer::new(ServeConfig {
        router: RouterConfig { queue_capacity: 0, ..RouterConfig::default() },
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    server.register("census", estimator);
    let expected_shard = server.shard_of("census");
    match server.estimate("census", &queries[0]) {
        Err(ServeError::Overloaded { table, shard, depth }) => {
            assert_eq!(table, "census");
            assert_eq!(shard, expected_shard);
            assert_eq!(depth, 0);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let metrics = server.metrics();
    assert_eq!(metrics.shed_overload, 1);
    assert_eq!(metrics.requests, 0, "a shed request never completes");
}

#[test]
fn production_server_enforces_expired_deadlines() {
    let (_, estimator, queries) = small_served_table(2);
    let server = DuetServer::new(ServeConfig {
        router: RouterConfig { default_deadline: Some(Duration::ZERO), ..RouterConfig::default() },
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    server.register("census", estimator);
    // A zero budget is expired by the time any worker can dequeue it.
    match server.estimate("census", &queries[0]) {
        Err(ServeError::DeadlineExceeded(table)) => assert_eq!(table, "census"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(server.metrics().shed_deadline >= 1);
}

#[test]
fn production_shared_pool_routes_many_tables_bit_identically() {
    // More tables than shards: the shared pool multiplexes them, and every
    // answer must still match the direct per-query estimate.
    let (tables, workloads) = trained_tables(4);
    let expected: Vec<Vec<f64>> = tables
        .iter()
        .zip(&workloads)
        .map(|((_, est), qs)| {
            let mut reference = est.clone();
            qs.iter().map(|q| reference.estimate(q)).collect()
        })
        .collect();

    let server = Arc::new(DuetServer::new(ServeConfig {
        router: RouterConfig { num_shards: 2, ..RouterConfig::default() },
        cache_capacity: 0,
        ..ServeConfig::default()
    }));
    for (name, est) in &tables {
        server.register(name.clone(), est.clone());
    }

    let handles: Vec<_> = (0..6)
        .map(|client| {
            let server = server.clone();
            let tables: Vec<String> = tables.iter().map(|(n, _)| n.clone()).collect();
            let workloads = workloads.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    for t in 0..tables.len() {
                        let t = (t + client) % tables.len();
                        for (i, q) in workloads[t].iter().enumerate() {
                            let _ = round;
                            let got = server.estimate(&tables[t], q).unwrap();
                            assert_eq!(got, expected[t][i], "table {t} query {i} diverged");
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let metrics = server.metrics();
    assert_eq!(metrics.requests, 6 * 3 * 4 * 10);
    assert_eq!(metrics.shed_overload + metrics.shed_deadline, 0);
    assert!(metrics.batches > 0);
}

#[test]
fn scenario_with_result_cache_still_conserves_and_matches() {
    // With a per-table cache on, repeats are served from cache; everything
    // still conserves and stays bit-identical (a hit returns the exact miss
    // value), and the replay stays deterministic — on either front door,
    // which share one admission path and so hit, batch and shed alike.
    let (tables, workloads) = trained_tables(2);
    let cfg = ScenarioConfig {
        seed: 5,
        clients: 3,
        requests_per_client: 40, // far more requests than distinct queries
        mean_gap: Duration::from_micros(80),
        service_every: Duration::from_micros(160),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig { cache_capacity: 256, cache_shards: 2, ..ServeConfig::default() },
    };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert_eq!(report.served, report.submitted);
    assert_eq!(report.mismatches, 0);
    assert!(
        report.counters[Counter::Batches] < report.submitted,
        "cache hits must spare forward batches: {report:?}"
    );
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));

    let wire = Transport::Wire { chunk: ChunkMode::Exact, max_pipeline: 256 };
    let over_wire = replay(&setup, &script, wire);
    assert_eq!(
        (over_wire.served, over_wire.shed_overload, over_wire.shed_deadline),
        (report.served, report.shed_overload, report.shed_deadline)
    );
    assert_eq!(over_wire.shed_internal, report.shed_internal);
    assert_eq!(over_wire.mismatches, 0);
    assert_eq!(
        over_wire.counters[Counter::Batches],
        report.counters[Counter::Batches],
        "the wire door must hit the cache exactly where the in-process door does: {over_wire:?}"
    );
    assert_eq!(
        over_wire.counters[Counter::Requests],
        over_wire.served,
        "a wire cache hit is a completed request"
    );
    assert_eq!(over_wire, replay(&setup, &script, wire));
}
