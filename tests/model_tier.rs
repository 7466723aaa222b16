//! Fleet-scale model tiering under pressure: a registry-wide memory budget
//! smaller than the resident total must still serve **every** request
//! correctly — cold models are evicted to checkpoint bytes (in memory or
//! spilled to disk) and lazily reloaded, bit-identically, when traffic
//! returns to them.
//!
//! Three layers are covered: the evict→reload round trip with a spilled
//! (on-disk) checkpoint, seeded budget-pressure scenarios through
//! the deterministic harness (replay equality + bit-identity + eviction
//! accounting), and the production [`DuetServer`] with a configured
//! [`ServeConfig::model_budget_bytes`].

use duet::core::{DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::query::{Query, WorkloadSpec};
use duet::serve::sim::{replay, ArrivalPattern, RouterHarness, ScenarioConfig, Transport};
use duet::serve::{Counter, DuetServer, ModelSlot, OnlineConfig, ServeConfig};
use std::time::Duration;

/// Train `n` small tables (distinct shapes and seeds) plus a query pool per
/// table.
fn trained_tables(n: usize) -> (Vec<(String, DuetEstimator)>, Vec<Vec<Query>>) {
    let cfg = DuetConfig::small().with_epochs(1);
    let mut tables = Vec::new();
    let mut workloads = Vec::new();
    for i in 0..n {
        let table = census_like(200 + 60 * i, 80 + i as u64);
        let estimator = DuetEstimator::train_data_only(&table, &cfg, 17 + i as u64);
        let queries = WorkloadSpec::random(&table, 10, 200 + i as u64).generate(&table);
        tables.push((format!("table-{i}"), estimator));
        workloads.push(queries);
    }
    (tables, workloads)
}

/// A fresh subdirectory of the test-scoped target tmpdir (unique per test so
/// parallel tests never share spill files).
fn spill_dir(test: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn spilled_eviction_reloads_bit_identically() {
    let table = census_like(300, 81);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 21);
    let queries = WorkloadSpec::random(&table, 24, 7).generate(&table);
    let expected = est.estimate_batch(&queries);
    let weight_bytes = est.model().resident_bytes();

    // The slot itself: eviction frees exactly the resident bytes, and
    // the next access transparently reloads from the spilled checkpoint.
    let dir = spill_dir("spilled-evict-reload-slot");
    let slot = ModelSlot::new(est.clone());
    let freed = slot.evict(Some(&dir)).expect("spill to target tmpdir");
    assert_eq!(freed, weight_bytes, "eviction frees exactly the resident bytes");
    assert!(!slot.is_resident());
    let spilled: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(spilled.len(), 1, "one checkpoint file per evicted model");
    let reloaded = slot.try_current().expect("the spilled checkpoint reloads");
    assert!(slot.is_resident());
    let after = reloaded.estimate_batch(&queries);
    for (a, e) in after.iter().zip(expected.iter()) {
        assert_eq!(a.to_bits(), e.to_bits(), "reloaded model must be bit-identical");
    }
    let remaining: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(remaining.is_empty(), "the spill file is discarded after a successful reload");

    // Through the server: a budget nothing fits in makes the batch for table
    // 1 evict table 0, spilling its checkpoint to disk.
    let (mut tables, others) = trained_tables(1);
    tables.insert(0, ("spilled".into(), est));
    let dir = spill_dir("spilled-evict-reload");
    let config = ServeConfig { model_budget_bytes: 1, cache_capacity: 0, ..Default::default() };
    let mut harness = RouterHarness::new(tables, config);
    harness.tier().set_spill_dir(Some(dir.clone()));
    harness.submit_query(1, &others[0][0], 0);
    harness.drain();
    let spilled: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(spilled.len(), 1, "one checkpoint file per evicted model");

    // The batch that serves the next requests transparently reloads from
    // the spilled checkpoint, and the server counts the eviction and the
    // reload once each. Table 1 stays pinned, so serving table 0 evicts
    // nothing else.
    harness.tier().pin(1);
    for (ticket, query) in (1..).zip(&queries) {
        harness.submit_query(0, query, ticket);
    }
    harness.drain();
    let counted = harness.metrics();
    assert_eq!((counted.model_evictions, counted.model_reloads), (1, 1));
    let remaining: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(remaining.is_empty(), "the spill file is discarded after a successful reload");

    // The reloaded model must reproduce every estimate bit-for-bit.
    let outcomes = &harness.outcomes()[1..];
    assert_eq!(outcomes.len(), queries.len());
    for &(ticket, outcome) in outcomes {
        let value = outcome.expect("a reloaded model serves");
        let reference = expected[ticket as usize - 1];
        assert_eq!(value.to_bits(), reference.to_bits(), "reloaded model must be bit-identical");
    }
}

#[test]
fn budget_pressure_scenario_serves_everything_and_replays_identically() {
    let (tables, workloads) = trained_tables(3);
    // A budget one byte below the resident total: the three models never fit
    // together, so serving the cold tables keeps forcing evict/reload cycles.
    let resident_total: usize = tables.iter().map(|(_, e)| e.model().resident_bytes()).sum();
    let cfg = ScenarioConfig {
        seed: 91,
        clients: 4,
        requests_per_client: 40,
        mean_gap: Duration::from_micros(100),
        service_every: Duration::from_micros(300),
        // Heavy skew: table 0 stays hot, tables 1/2 go cold and become the
        // eviction victims until their next request reloads them.
        pattern: ArrivalPattern::HotTable { hot_table: 0, hot_permille: 800 },
        harness: ServeConfig {
            model_budget_bytes: resident_total - 1,
            cache_capacity: 0,
            ..Default::default()
        },
    };

    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert_eq!(report.submitted, 4 * 40);
    assert_eq!(report.served, report.submitted, "a tight budget must not drop requests");
    assert_eq!(report.accounted(), report.submitted);
    assert_eq!(report.mismatches, 0, "evict/reload cycles must never change an answer");
    assert!(
        report.counters[Counter::ModelEvictions] > 0,
        "the budget must actually force evictions"
    );
    assert!(
        report.counters[Counter::ModelReloads] > 0,
        "cold tables must reload when traffic returns"
    );

    // Replay equality: the tier's heat/victim policy is a pure function of
    // the executed batch sequence, so the same seed reproduces the same
    // eviction/reload counts (and everything else) exactly.
    let replay = replay(&setup, &script, Transport::InProcess);
    assert_eq!(replay, report, "same seed must replay identical eviction behavior");
}

#[test]
fn budget_pressure_with_a_different_seed_still_conserves_requests() {
    let (tables, workloads) = trained_tables(3);
    let resident_total: usize = tables.iter().map(|(_, e)| e.model().resident_bytes()).sum();
    // Budget fits two of the three models (generously), uniform traffic.
    let max_model = tables.iter().map(|(_, e)| e.model().resident_bytes()).max().unwrap();
    let cfg = ScenarioConfig {
        seed: 1234,
        clients: 3,
        requests_per_client: 30,
        mean_gap: Duration::from_micros(120),
        service_every: Duration::from_micros(250),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig {
            model_budget_bytes: resident_total - max_model / 2,
            cache_capacity: 0,
            ..Default::default()
        },
    };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, Transport::InProcess);
    assert_eq!(report.served, report.submitted);
    assert_eq!(report.mismatches, 0);
    assert!(report.counters[Counter::ModelEvictions] > 0);
    assert_eq!(replay(&setup, &script, Transport::InProcess), report);
}

#[test]
fn server_with_model_budget_serves_correct_estimates_under_eviction() {
    let (tables, workloads) = trained_tables(3);
    let resident_total: usize = tables.iter().map(|(_, e)| e.model().resident_bytes()).sum();
    let expected: Vec<Vec<f64>> =
        tables.iter().zip(&workloads).map(|((_, e), qs)| e.estimate_batch(qs)).collect();

    let server = DuetServer::new(ServeConfig {
        // Caching off so every request actually exercises the worker path
        // (and with it the tier's eviction/reload machinery).
        cache_capacity: 0,
        model_budget_bytes: resident_total - 1,
        ..ServeConfig::default()
    });
    server.set_model_spill_dir(spill_dir("server-budget"));
    for (name, est) in &tables {
        server.register(name.clone(), est.clone());
    }

    // Round-robin the tables a few times: each round re-warms models the
    // previous rounds' traffic evicted.
    for _ in 0..3 {
        for (i, (name, _)) in tables.iter().enumerate() {
            let got = server.estimate_many(name, &workloads[i]).expect("served under budget");
            for (g, e) in got.iter().zip(expected[i].iter()) {
                assert_eq!(g.to_bits(), e.to_bits(), "estimates must survive evict/reload");
            }
        }
    }
    let snapshot = server.metrics();
    assert!(snapshot.model_evictions > 0, "the budget must force evictions");
    assert!(snapshot.model_reloads > 0, "evicted models must reload on demand");
}

/// Feedback encodes its query against the slot's schema, so feedback to an
/// evicted table is queued without reloading the model: the reload counter
/// stays at zero and the spilled checkpoint stays on disk (a reload would
/// discard it).
#[test]
fn feedback_to_an_evicted_table_leaves_it_evicted() {
    let (tables, workloads) = trained_tables(2);
    let server = DuetServer::new(ServeConfig {
        model_budget_bytes: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let dir = spill_dir("feedback-leaves-evicted");
    server.set_model_spill_dir(&dir);
    for (name, est) in &tables {
        server.register(name.clone(), est.clone());
    }
    let (a, b) = (tables[0].0.as_str(), tables[1].0.as_str());
    server.enable_online(b, census_like(260, 81), OnlineConfig::default()).unwrap();

    server.estimate(a, &workloads[0][0]).expect("served under budget");
    // The worker replies before it enforces the budget: wait for the
    // eviction of `b`.
    let give_up_at = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().model_evictions == 0 {
        assert!(std::time::Instant::now() < give_up_at, "`b` is never evicted");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.feedback(b, &workloads[1][0], 5.0).expect("`b` is online-enabled");
    let counted = server.metrics();
    assert_eq!((counted.model_evictions, counted.model_reloads), (1, 0));
    let spilled = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(spilled, 1, "`b` is still evicted to its spilled checkpoint");
}
