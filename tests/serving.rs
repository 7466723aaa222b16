//! Integration tests of the `duet-serve` subsystem: batched serving is
//! bit-identical to direct estimation, concurrent clients are deterministic,
//! cache hits return the exact miss value, and hot-swap round-trips
//! checkpointed estimates without downtime.

use duet::core::{save_weights, DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::data::Table;
use duet::query::{CardinalityEstimator, Query, WorkloadSpec};
use duet::serve::{DuetServer, ServeConfig, ServeError};
use std::sync::Arc;

fn trained(rows: usize, seed: u64) -> (Table, DuetEstimator) {
    let table = census_like(rows, 77);
    let cfg = DuetConfig::small().with_epochs(2);
    let est = DuetEstimator::train_data_only(&table, &cfg, seed);
    (table, est)
}

fn no_cache_config() -> ServeConfig {
    ServeConfig { cache_capacity: 0, ..ServeConfig::default() }
}

#[test]
fn served_estimates_match_direct_estimates_exactly() {
    let (table, est) = trained(800, 1);
    let queries = WorkloadSpec::random(&table, 60, 5).generate(&table);
    let mut direct = est.clone();
    let expected: Vec<f64> = queries.iter().map(|q| direct.estimate(q)).collect();

    // Exercise both the cached and the uncached serving paths.
    for config in [ServeConfig::default(), no_cache_config()] {
        let server = DuetServer::new(config);
        server.register("census", est.clone());
        let served: Vec<f64> =
            queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
        assert_eq!(served, expected, "serving must be bit-identical to direct estimation");
        let many = server.estimate_many("census", &queries).unwrap();
        assert_eq!(many, expected);
    }
}

#[test]
fn concurrent_clients_get_deterministic_results() {
    let (table, est) = trained(800, 2);
    let queries = WorkloadSpec::random(&table, 40, 9).generate(&table);
    let mut direct = est.clone();
    let expected: Vec<f64> = queries.iter().map(|q| direct.estimate(q)).collect();

    let server = Arc::new(DuetServer::new(no_cache_config()));
    server.register("census", est);

    // 8 clients hammer the same workload in different orders; every client
    // must see exactly the direct estimates regardless of how requests
    // interleave into batches.
    let handles: Vec<_> = (0..8)
        .map(|client| {
            let server = server.clone();
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    for i in 0..queries.len() {
                        let i = (i * 7 + client * 3 + round) % queries.len();
                        let got = server.estimate("census", &queries[i]).unwrap();
                        assert_eq!(
                            got, expected[i],
                            "client {client} round {round} query {i} diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let m = server.metrics();
    assert_eq!(m.requests, 8 * 3 * 40);
    assert!(m.batches > 0);
    assert!(m.mean_batch_size >= 1.0);
}

#[test]
fn cache_hit_returns_exactly_the_miss_value() {
    let (table, est) = trained(600, 3);
    let queries = WorkloadSpec::random(&table, 30, 11).generate(&table);

    let server = DuetServer::new(ServeConfig { cache_capacity: 1024, ..ServeConfig::default() });
    server.register("census", est);

    let misses: Vec<f64> = queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    let before = server.metrics();
    let hits: Vec<f64> = queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    let after = server.metrics();

    assert_eq!(hits, misses, "a cache hit must return the exact value the miss computed");
    assert_eq!(
        after.cache_hits - before.cache_hits,
        queries.len() as u64,
        "second pass must be served from cache"
    );
    assert!(after.cache_hit_rate > 0.0);
}

#[test]
fn hot_swap_round_trips_checkpointed_estimates() {
    let (table, est_a) = trained(700, 4);
    let (_, mut est_b) = trained(700, 99);
    let queries = WorkloadSpec::random(&table, 30, 13).generate(&table);
    let expected_a: Vec<f64> = {
        let mut e = est_a.clone();
        queries.iter().map(|q| e.estimate(q)).collect()
    };
    let expected_b: Vec<f64> = queries.iter().map(|q| est_b.estimate(q)).collect();
    assert_ne!(expected_a, expected_b, "differently seeded models should disagree");

    let server = DuetServer::new(ServeConfig::default());
    server.register("census", est_a);
    assert_eq!(server.generation("census"), Some(0));

    // Warm the cache on generation 0, then swap to model B's weights.
    let served_a: Vec<f64> =
        queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    assert_eq!(served_a, expected_a);

    let checkpoint = save_weights(&est_b);
    server.hot_swap("census", &checkpoint).unwrap();
    assert_eq!(server.generation("census"), Some(1));

    let served_b: Vec<f64> =
        queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    assert_eq!(
        served_b, expected_b,
        "after a hot-swap the served estimates must round-trip the checkpoint"
    );

    // Swapping back restores the original estimates (and a new generation).
    let est_a_again = {
        let (_, e) = trained(700, 4);
        e
    };
    let checkpoint_a = save_weights(&est_a_again);
    server.hot_swap("census", &checkpoint_a).unwrap();
    assert_eq!(server.generation("census"), Some(2));
    let served_a_again: Vec<f64> =
        queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    assert_eq!(served_a_again, expected_a);
}

#[test]
fn hot_swap_replays_hot_keys_into_the_fresh_cache() {
    let (table, est_a) = trained(700, 6);
    let (_, mut est_b) = trained(700, 77);
    let queries = WorkloadSpec::random(&table, 12, 19).generate(&table);
    let expected_b: Vec<f64> = queries.iter().map(|q| est_b.estimate(q)).collect();

    let server = DuetServer::new(ServeConfig::default());
    server.register("census", est_a);

    // Make the workload hot: several passes so every key accumulates counts.
    for _ in 0..3 {
        for q in &queries {
            server.estimate("census", q).unwrap();
        }
    }

    let checkpoint = save_weights(&est_b);
    server.hot_swap("census", &checkpoint).unwrap();

    // The replay must have re-seeded the new generation's cache: the first
    // post-swap pass over the hot workload is all cache hits, and every hit
    // returns exactly what the new model would compute.
    let hits_before = server.metrics().cache_hits;
    let served: Vec<f64> = queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    assert_eq!(served, expected_b, "replayed entries must carry new-model values");
    assert_eq!(
        server.metrics().cache_hits - hits_before,
        queries.len() as u64,
        "the hot workload must not miss after the swap replay"
    );
}

#[test]
fn hot_swap_under_concurrent_load_never_drops_requests() {
    let (table, est_a) = trained(600, 5);
    let (_, mut est_b) = trained(600, 55);
    let queries = WorkloadSpec::random(&table, 25, 17).generate(&table);
    let expected_a: Vec<f64> = {
        let mut e = est_a.clone();
        queries.iter().map(|q| e.estimate(q)).collect()
    };
    let expected_b: Vec<f64> = queries.iter().map(|q| est_b.estimate(q)).collect();
    let checkpoint = save_weights(&est_b);

    let server = Arc::new(DuetServer::new(ServeConfig::default()));
    server.register("census", est_a);

    let clients: Vec<_> = (0..6)
        .map(|client| {
            let server = server.clone();
            let queries = queries.clone();
            let (ea, eb) = (expected_a.clone(), expected_b.clone());
            std::thread::spawn(move || {
                for round in 0..20 {
                    let i = (client + round * 5) % queries.len();
                    let got = server.estimate("census", &queries[i]).unwrap();
                    // Every answer is from model A or model B — never an
                    // error, never a torn in-between state.
                    assert!(
                        got == ea[i] || got == eb[i],
                        "request served by neither model: {got} vs {} / {}",
                        ea[i],
                        eb[i]
                    );
                }
            })
        })
        .collect();

    server.hot_swap("census", &checkpoint).unwrap();
    for c in clients {
        c.join().unwrap();
    }

    // After the swap settles, everything is served by model B.
    let served: Vec<f64> = queries.iter().map(|q| server.estimate("census", q).unwrap()).collect();
    assert_eq!(served, expected_b);
}

#[test]
fn unknown_tables_and_multi_table_routing() {
    let (table_a, est_a) = trained(400, 6);
    let (_, est_b) = trained(400, 7);

    let server = DuetServer::new(ServeConfig::default());
    server.register("alpha", est_a.clone());
    server.register("beta", est_b.clone());
    let mut tables = server.tables();
    tables.sort();
    assert_eq!(tables, vec!["alpha".to_string(), "beta".to_string()]);

    let q = WorkloadSpec::random(&table_a, 1, 3).generate(&table_a).remove(0);
    let (mut a, mut b) = (est_a, est_b);
    assert_eq!(server.estimate("alpha", &q).unwrap(), a.estimate(&q));
    assert_eq!(server.estimate("beta", &q).unwrap(), b.estimate(&q));

    match server.estimate("gamma", &q) {
        Err(ServeError::UnknownTable(t)) => assert_eq!(t, "gamma"),
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    assert!(server.hot_swap("gamma", b"junk").is_err());
    assert_eq!(server.estimate("alpha", &Query::all()).unwrap(), 400.0);
}
