//! Fault-domain integration tests: seeded fault injection over the
//! deterministic serving harness, exactly-once reply delivery under every
//! shed path, crash-safe checkpoint handling, and graceful shutdown.
//!
//! The contract under fault is the no-fault contract plus typed failure:
//! every submitted request still gets exactly one terminal outcome (a
//! panicking batch answers `WorkerPanicked`, an unreloadable model sheds at
//! admission), everything that *is* served stays bit-identical to the
//! unbatched reference, and a seeded fault scenario replayed twice produces
//! `==` reports — fault counters included.

use duet::core::{DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::query::{CardinalityEstimator, Query, WorkloadSpec};
use duet::serve::sim::{
    replay, ArrivalPattern, ChunkMode, FaultPlan, RouterHarness, ScenarioConfig, Script, Setup,
    SubmitResult, Transport, WireSim,
};
use duet::serve::wire::frame::{self, FrameView, Status};
use duet::serve::wire::ConnConfig;
use duet::serve::{
    Counter, DuetServer, ModelSlot, RouterConfig, ServeConfig, ServeError, ShedReason,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Silence the default panic-hook output for injected faults (they are
/// expected and caught), while keeping every other panic loud. Installed
/// once per test binary so parallel tests cannot race hook swaps.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected model fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected model fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Named, trained tables and one query pool per table.
type Trained = (Vec<(String, DuetEstimator)>, Vec<Vec<Query>>);

/// Train `n` small tables (distinct shapes and seeds) plus a query pool per
/// table.
fn trained_tables(n: usize) -> Trained {
    let cfg = DuetConfig::small().with_epochs(1);
    let mut tables = Vec::new();
    let mut workloads = Vec::new();
    for i in 0..n {
        let table = census_like(200 + 60 * i, 300 + i as u64);
        let estimator = DuetEstimator::train_data_only(&table, &cfg, 31 + i as u64);
        let queries = WorkloadSpec::random(&table, 10, 400 + i as u64).generate(&table);
        tables.push((format!("fault-table-{i}"), estimator));
        workloads.push(queries);
    }
    (tables, workloads)
}

/// A fresh subdirectory of the test-scoped target tmpdir (unique per test so
/// parallel tests never share spill files).
fn spill_dir(test: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the test spill dir");
    dir
}

/// The combined-fault scenario: uniform arrivals over three tables, a
/// handful of panicking batches, and a corrupt-then-restored checkpoint.
fn combined_fault_scenario(
    tables: &[(String, DuetEstimator)],
    workloads: &[Vec<Query>],
    spill: &str,
) -> (Setup, Script) {
    let cfg = ScenarioConfig {
        seed: 4242,
        clients: 6,
        requests_per_client: 40,
        mean_gap: Duration::from_micros(60),
        service_every: Duration::from_micros(120),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
    };
    let plan = FaultPlan {
        // Panic a handful of batches spread across the run.
        panic_batches: vec![2, 9, 23],
        // Damage table 1's spilled checkpoint a third of the way in, heal
        // it two thirds of the way in.
        corrupt_checkpoint_at: Some((80, 1)),
        restore_checkpoint_at: Some(160),
        spill_dir: Some(spill_dir(spill)),
        ..FaultPlan::default()
    };
    let (mut setup, mut script) = cfg.generate(tables, workloads);
    plan.inject(&mut setup, &mut script);
    (setup, script)
}

#[test]
fn a_seeded_fault_scenario_replays_identically_and_accounts_every_request() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(3);
    let (setup, script) = combined_fault_scenario(&tables, &workloads, "fault-scenario-replay");
    let first = replay(&setup, &script, Transport::InProcess);
    let second = replay(&setup, &script, Transport::InProcess);
    assert_eq!(first, second, "a seeded fault scenario must replay identically");

    assert_eq!(
        first.accounted(),
        first.submitted,
        "every request gets exactly one terminal outcome, faults included"
    );
    assert_eq!(first.mismatches, 0, "everything served despite faults stays bit-identical");
    assert!(
        first.counters[Counter::PanicsCaught] >= 3,
        "each scripted panic batch is caught: {first:?}"
    );
    assert_eq!(
        first.counters[Counter::PanicsCaught],
        first.counters[Counter::ShardRestarts],
        "every caught panic respawns its worker exactly once"
    );
    assert!(first.shed_internal > 0, "panicked batches answer typed internal sheds");
    assert!(
        first.counters[Counter::ReloadFailures] > 0,
        "the corrupt checkpoint window must produce typed reload failures: {first:?}"
    );
    // A failed reload is an overload shed, never a deadline shed: no deadline
    // is configured.
    assert_eq!(first.shed_deadline, 0);
    // The table healed: requests after the restore are served again.
    assert!(
        first.per_table_served[1] > 0,
        "the damaged table serves again after its checkpoint is restored: {first:?}"
    );
}

#[test]
fn the_combined_fault_scenario_replays_over_the_wire() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(3);
    let (setup, script) = combined_fault_scenario(&tables, &workloads, "fault-scenario-wire");
    // The same panics and the same corrupt-checkpoint window, with every
    // request split across reads and coalesced with its neighbours on its
    // way to the real connection state machine. Chunks are large enough that
    // delivery keeps up with the arrivals (≤7-byte reads would hold nearly
    // every request back until the final flush, after the restore).
    let wire = Transport::Wire { chunk: ChunkMode::Random { max: 256 }, max_pipeline: 64 };
    let report = replay(&setup, &script, wire);
    assert_eq!(report, replay(&setup, &script, wire), "faults replay identically over the wire");
    assert_eq!(report.accounted(), report.submitted, "one response per request: {report:?}");
    assert_eq!(report.mismatches, 0);
    assert!(report.shed_internal > 0, "panicked batches answer Internal frames: {report:?}");
    assert!(
        report.counters[Counter::ReloadFailures] > 0,
        "the corrupt window sheds on the wire too: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the script — any arrival pattern, up to three panicking
    /// batches, an optional damage/restore pair, the result cache on or off
    /// — and whichever transport carries it: every request is accounted
    /// once, everything served is bit-identical to the reference, and the
    /// replay repeats exactly.
    #[test]
    fn generated_scripts_hold_the_replay_invariants_on_both_transports(
        seed in 0u64..1_000_000,
        pattern in 0usize..3,
        clients in 1usize..4,
        requests_per_client in 4usize..13,
        queue_capacity in 2usize..9,
        panic_batches in prop::collection::vec(0u64..10, 0..4),
        damage_at in 0u64..24,
        chunk_max in 0usize..12,
        cache_on in 0usize..2,
    ) {
        quiet_injected_panics();
        static TABLES: OnceLock<Trained> = OnceLock::new();
        let (tables, workloads) = TABLES.get_or_init(|| trained_tables(2));
        let cfg = ScenarioConfig {
            seed,
            clients,
            requests_per_client,
            mean_gap: Duration::from_micros(40),
            service_every: Duration::from_micros(110),
            pattern: [
                ArrivalPattern::Uniform,
                ArrivalPattern::Bursty { burst_size: 5 },
                ArrivalPattern::HotTable { hot_table: 1, hot_permille: 800 },
            ][pattern],
            harness: ServeConfig {
                router: RouterConfig { queue_capacity, ..RouterConfig::default() },
                // 0 or 64 entries per table.
                cache_capacity: 64 * cache_on,
                ..ServeConfig::default()
            },
        };
        // Half the cases damage table 0's checkpoint (alternating the two
        // damage shapes) and restore it six arrivals later.
        let damage = (damage_at % 2 == 0).then_some((damage_at, 0));
        let plan = FaultPlan {
            panic_batches,
            corrupt_checkpoint_at: damage.filter(|_| damage_at % 4 == 0),
            truncate_checkpoint_at: damage.filter(|_| damage_at % 4 != 0),
            restore_checkpoint_at: damage.map(|(at, _)| at + 6),
            spill_dir: Some(spill_dir("fault-scenario-generated")),
            ..FaultPlan::default()
        };
        let (mut setup, mut script) = cfg.generate(tables, workloads);
        plan.inject(&mut setup, &mut script);

        let chunk = match chunk_max {
            0 => ChunkMode::Exact,
            max => ChunkMode::Random { max },
        };
        for transport in [Transport::InProcess, Transport::Wire { chunk, max_pipeline: 8 }] {
            let report = replay(&setup, &script, transport);
            prop_assert_eq!(report.accounted(), report.submitted, "{:?}: {:?}", transport, report);
            prop_assert_eq!(report.mismatches, 0, "{:?}: {:?}", transport, report);
            // Server-vs-client conservation: each answer and each shed the
            // client was told about is one the server counted, cache hits
            // and reloads that fail at admission included.
            let counted = &report.counters;
            prop_assert_eq!(counted[Counter::Requests], report.served, "{:?}", report);
            prop_assert_eq!(counted[Counter::ShedOverload], report.shed_overload, "{:?}", report);
            prop_assert_eq!(counted[Counter::ShedDeadline], report.shed_deadline, "{:?}", report);
            prop_assert_eq!(counted[Counter::ShedInternal], report.shed_internal, "{:?}", report);
            prop_assert_eq!(&report, &replay(&setup, &script, transport), "{:?}", transport);
        }
    }
}

#[test]
fn a_truncated_checkpoint_sheds_typed_and_heals_on_restore() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(2);
    let dir = spill_dir("fault-scenario-truncate");
    let cfg = ScenarioConfig {
        seed: 99,
        clients: 4,
        requests_per_client: 30,
        mean_gap: Duration::from_micros(50),
        service_every: Duration::from_micros(100),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
    };
    let plan = FaultPlan {
        truncate_checkpoint_at: Some((30, 0)),
        restore_checkpoint_at: Some(80),
        spill_dir: Some(dir),
        ..FaultPlan::default()
    };
    let (mut setup, mut script) = cfg.generate(&tables, &workloads);
    plan.inject(&mut setup, &mut script);
    let report = replay(&setup, &script, Transport::InProcess);
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));
    assert_eq!(report.accounted(), report.submitted);
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.shed_deadline, 0, "no deadline is configured: {report:?}");
    assert!(
        report.counters[Counter::ReloadFailures] > 0,
        "truncation is caught by frame validation: {report:?}"
    );
    assert!(report.per_table_served[0] > 0, "the table heals after restore");
}

#[test]
fn spill_io_errors_keep_models_resident_and_serving() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(3);
    let dir = spill_dir("fault-scenario-spill-io");
    // A budget one byte below the resident total forces eviction pressure.
    let resident_total: usize = tables.iter().map(|(_, e)| e.model().size_bytes()).sum();
    let cfg = ScenarioConfig {
        seed: 7,
        clients: 4,
        requests_per_client: 30,
        mean_gap: Duration::from_micros(50),
        service_every: Duration::from_micros(100),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig {
            model_budget_bytes: resident_total - 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    };
    let plan = FaultPlan {
        // The spill directory is blocked from the first event and repaired
        // halfway: evictions fail (visibly) during the window, resume after.
        break_spill_dir_at: Some(0),
        fix_spill_dir_at: Some(60),
        spill_dir: Some(dir),
        ..FaultPlan::default()
    };
    let (mut setup, mut script) = cfg.generate(&tables, &workloads);
    plan.inject(&mut setup, &mut script);
    let report = replay(&setup, &script, Transport::InProcess);
    assert_eq!(report, replay(&setup, &script, Transport::InProcess));
    assert_eq!(
        report.accounted(),
        report.submitted,
        "spill failures never cost a request: the victim stays resident"
    );
    assert_eq!(report.mismatches, 0);
    assert!(
        report.counters[Counter::SpillFailures] > 0,
        "blocked spill dir must surface IO errors: {report:?}"
    );
    assert!(
        report.counters[Counter::ModelEvictions] > 0,
        "evictions resume after the spill dir is repaired"
    );
}

#[test]
fn a_panicking_batch_sheds_typed_then_the_respawned_worker_serves_bit_identically() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(1);
    let expected: Vec<f64> = {
        let mut reference = tables[0].1.clone();
        workloads[0].iter().map(|q| reference.estimate(q)).collect()
    };
    let mut harness =
        RouterHarness::new(tables, ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
    // The very first batch panics; everything after runs clean.
    harness.arm_panic_batches(&[0]);

    for (i, query) in workloads[0].iter().enumerate() {
        assert!(matches!(harness.submit_query(0, query, i as u64), SubmitResult::Queued { .. }));
    }
    harness.drain();
    let first_round = harness.outcomes().to_vec();
    assert!(!first_round.is_empty());
    // The panicked batch is the first popped batch: all of its requests come
    // back typed, none hang, none are dropped silently.
    let panicked =
        first_round.iter().filter(|(_, o)| matches!(o, Err(ShedReason::WorkerPanicked))).count();
    assert!(panicked > 0, "the injected panic answers its whole batch typed");
    assert_eq!(
        first_round.len(),
        workloads[0].len(),
        "every submitted request has exactly one outcome"
    );

    // The worker respawned: the same queries now serve, bit-identical.
    harness.clear_outcomes();
    for (i, query) in workloads[0].iter().enumerate() {
        harness.submit_query(0, query, i as u64);
    }
    harness.drain();
    for (ticket, outcome) in harness.outcomes() {
        let value = outcome.expect("the respawned worker serves cleanly");
        assert_eq!(
            value.to_bits(),
            expected[*ticket as usize].to_bits(),
            "post-respawn estimates are bit-identical"
        );
    }
    let snapshot = harness.metrics();
    assert_eq!(snapshot.panics_caught, 1);
    assert_eq!(snapshot.shard_restarts, 1);
    assert_eq!(snapshot.shed_internal as usize, panicked);
}

#[test]
fn every_shed_path_delivers_exactly_one_terminal_reply() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(2);
    // A deliberately hostile configuration: tiny queues (overload sheds), a
    // tight deadline budget (deadline sheds after a clock jump), and an
    // injected panic (internal sheds).
    let harness_cfg = ServeConfig {
        router: RouterConfig {
            queue_capacity: 4,
            default_deadline: Some(Duration::from_micros(200)),
            ..RouterConfig::default()
        },
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let mut harness = RouterHarness::new(tables, harness_cfg);
    harness.arm_panic_batches(&[1]);

    let mut submitted = 0u64;
    let mut immediate_terminal = 0u64; // cached or shed at admission
    let mut ticket = 0u64;
    for round in 0..12 {
        for (table, workload) in workloads.iter().enumerate() {
            for query in workload {
                submitted += 1;
                match harness.submit_query(table, query, ticket) {
                    SubmitResult::Cached(_) | SubmitResult::Shed { .. } => immediate_terminal += 1,
                    SubmitResult::Queued { .. } => {}
                }
                ticket += 1;
            }
        }
        if round % 3 == 0 {
            // Jump the clock past the deadline budget: everything queued
            // triages to a deadline shed at the next turn.
            harness.clock().advance(Duration::from_millis(1));
        }
        harness.turn(None);
    }
    harness.drain();

    let outcomes = harness.outcomes();
    assert_eq!(
        immediate_terminal + outcomes.len() as u64,
        submitted,
        "exactly one terminal reply per submitted request, across every shed path"
    );
    // No ticket is ever answered twice.
    let mut seen: Vec<u64> = outcomes.iter().map(|(t, _)| *t).collect();
    seen.sort_unstable();
    let before = seen.len();
    seen.dedup();
    assert_eq!(seen.len(), before, "no request is answered twice");
    // All three shed reasons actually occurred.
    let sheds: Vec<&ShedReason> = outcomes.iter().filter_map(|(_, o)| o.as_ref().err()).collect();
    assert!(
        sheds.iter().any(|s| matches!(s, ShedReason::DeadlineExpired)),
        "the clock jumps must produce deadline sheds"
    );
    assert!(
        sheds.iter().any(|s| matches!(s, ShedReason::WorkerPanicked)),
        "the injected panic must produce internal sheds"
    );
}

#[test]
fn a_mid_frame_disconnect_is_contained_to_its_connection() {
    quiet_injected_panics();
    let (tables, workloads) = trained_tables(1);
    let expected = {
        let mut reference = tables[0].1.clone();
        reference.estimate(&workloads[0][0])
    };
    let mut sim = WireSim::new(
        tables,
        ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
        ConnConfig::default(),
        2,
    );

    // Connection 0: preamble, one complete request, then HALF of a second
    // request frame — and the peer vanishes mid-frame.
    let schema = sim.harness().estimator(0).schema().clone();
    let preds = duet::core::query_to_id_predicates(&schema, &workloads[0][0]);
    let intervals = workloads[0][0].column_intervals(&schema);
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    frame::encode_request(&mut bytes, 1, 0, 0, &preds, &intervals);
    sim.feed(0, &bytes);
    sim.pump(0).expect("valid protocol bytes");
    let mut half = Vec::new();
    frame::encode_request(&mut half, 2, 0, 0, &preds, &intervals);
    sim.feed(0, &half[..half.len() / 2]);
    sim.pump(0).expect("a partial frame just waits for more bytes");
    assert_eq!(sim.inflight(0), 1, "one complete request admitted before the drop");

    sim.disconnect(0);
    assert_eq!(sim.conn_drops(), 1);

    // The admitted request still executes — into the orphaned outbox, never
    // crashing the worker — and connection 1 is entirely unaffected.
    sim.clock().advance(Duration::from_micros(100));
    sim.turn();

    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    frame::encode_request(&mut bytes, 7, 0, 0, &preds, &intervals);
    sim.feed(1, &bytes);
    sim.pump(1).expect("valid protocol bytes");
    sim.clock().advance(Duration::from_micros(100));
    sim.turn();
    sim.pump(1).expect("pump after turn");
    let (view, _) = frame::next_frame(sim.output(1), frame::DEFAULT_MAX_FRAME_LEN)
        .expect("well-formed response")
        .expect("a complete response frame");
    match view {
        FrameView::Response(response) => {
            assert_eq!(response.request_id, 7);
            assert_eq!(response.status, Status::Ok);
            assert_eq!(response.value.to_bits(), expected.to_bits());
        }
        other => panic!("expected a response frame, got {other:?}"),
    }

    // The replacement connection 0 starts from scratch: it must re-send the
    // preamble (the half frame from the dead peer is gone).
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    frame::encode_request(&mut bytes, 9, 0, 0, &preds, &intervals);
    sim.feed(0, &bytes);
    sim.pump(0).expect("the fresh connection accepts a new preamble");
    sim.clock().advance(Duration::from_micros(100));
    sim.turn();
    sim.pump(0).expect("pump after turn");
    assert!(!sim.output(0).is_empty(), "the fresh connection serves normally");
}

#[test]
fn a_corrupt_spilled_checkpoint_is_a_typed_error_and_a_hot_swap_heals_it() {
    let table = census_like(240, 611);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 5);
    let queries = WorkloadSpec::random(&table, 8, 77).generate(&table);
    let expected: Vec<f64> = {
        let mut reference = est.clone();
        queries.iter().map(|q| reference.estimate(q)).collect()
    };

    let dir = spill_dir("corrupt-spill-hot-swap-heals");
    let slot = ModelSlot::new(est.clone());
    slot.evict(Some(&dir)).expect("spill");
    let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let mut bytes = std::fs::read(&file).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&file, &bytes).unwrap();

    // Every access is a typed failure — never a panic, never garbage
    // weights — and the store is kept so later attempts can retry.
    for _ in 0..3 {
        assert!(slot.try_current_versioned().is_err(), "corrupt checkpoint is typed");
    }
    assert!(slot.reload_failures() >= 3);

    // Publishing a fresh model through the hot-swap path heals the slot
    // without ever reading the corrupt bytes.
    slot.swap(est).expect("hot-swap onto a wedged slot");
    let healed = slot.current();
    let served = healed.estimate_batch(&queries);
    for (v, e) in served.iter().zip(&expected) {
        assert_eq!(v.to_bits(), e.to_bits(), "healed slot serves bit-identically");
    }
}

/// The server side of the conservation the replays assert: an estimate
/// whose evicted model cannot be reloaded is answered `ModelUnavailable` and
/// counted once as a reload failure and once as an overload shed.
#[test]
fn an_unreloadable_model_answers_model_unavailable_and_counts_one_overload_shed() {
    let (tables, workloads) = trained_tables(2);
    let dir = spill_dir("server-model-unavailable");
    // A budget nothing fits in: a batch for one table evicts the other. The
    // cache is off, so the estimate below reaches a worker.
    let server = DuetServer::new(ServeConfig {
        model_budget_bytes: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    server.set_model_spill_dir(dir.clone());
    for (name, estimator) in &tables {
        server.register(name.as_str(), estimator.clone());
    }
    let (cold, hot) = (tables[0].0.as_str(), tables[1].0.as_str());
    server.estimate(hot, &workloads[1][0]).expect("the hot table serves");
    // The worker replies before it enforces the budget: wait for the spill.
    let give_up_at = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().model_evictions == 0 {
        assert!(std::time::Instant::now() < give_up_at, "the cold table is never evicted");
        std::thread::sleep(Duration::from_millis(1));
    }
    for entry in std::fs::read_dir(&dir).expect("the spill dir exists") {
        let path = entry.expect("a spilled file").path();
        let mut bytes = std::fs::read(&path).expect("reading the spilled checkpoint");
        *bytes.last_mut().expect("a non-empty checkpoint") ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupting the spilled checkpoint");
    }

    let before = server.metrics();
    let unavailable = server.estimate(cold, &workloads[0][0]);
    assert_eq!(unavailable, Err(ServeError::ModelUnavailable(cold.to_string())));
    let after = server.metrics();
    assert_eq!(after.reload_failures - before.reload_failures, 1);
    assert_eq!(after.shed_overload - before.shed_overload, 1);
    assert_eq!(after.requests, before.requests, "nothing was answered");
}

#[test]
fn graceful_shutdown_answers_every_in_flight_request() {
    quiet_injected_panics();
    let table = census_like(300, 612);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 6);
    let queries = Arc::new(WorkloadSpec::random(&table, 20, 78).generate(&table));

    let server = Arc::new(DuetServer::new(ServeConfig::default()));
    server.register("census", est);

    // Clients keep submitting while the server shuts down; every call must
    // return a terminal result (estimate or typed error), never hang.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let (server, queries) = (server.clone(), queries.clone());
            std::thread::spawn(move || {
                let mut terminal = 0usize;
                for _ in 0..5 {
                    for q in queries.iter() {
                        match server.estimate("census", q) {
                            Ok(v) => assert!(v.is_finite()),
                            Err(e) => {
                                // Typed shutdown-era errors are fine; the
                                // call just must not hang or panic.
                                assert!(
                                    matches!(
                                        e,
                                        ServeError::Overloaded { .. }
                                            | ServeError::DeadlineExceeded { .. }
                                            | ServeError::Internal(_)
                                    ),
                                    "unexpected shutdown-era error {e:?}"
                                );
                            }
                        }
                        terminal += 1;
                    }
                }
                terminal
            })
        })
        .collect();

    // Give the clients a head start, then drain.
    std::thread::sleep(Duration::from_millis(20));
    let drained = server.shutdown(Duration::from_secs(10));
    assert!(drained, "shutdown must drain queued work within a generous deadline");

    let expected_calls = 5 * queries.len();
    for thread in threads {
        let terminal = thread.join().expect("client threads never panic");
        assert_eq!(terminal, expected_calls, "every estimate call returned a terminal result");
    }
    // A cache miss after the drain is refused at admission rather than
    // queued for a worker that has already left.
    let fresh = WorkloadSpec::random(&table, 1, 79).generate(&table).remove(0);
    let late = server.estimate("census", &fresh);
    assert!(matches!(late, Err(ServeError::Overloaded { .. })), "got {late:?}");
    // Shutdown is idempotent.
    assert!(server.shutdown(Duration::from_secs(1)));
}

#[test]
fn the_virtual_clock_fault_replay_is_independent_of_wall_time() {
    quiet_injected_panics();
    // Two replays separated by a real sleep: the virtual clock, not wall
    // time, drives deadline expiry — the reports must still be identical.
    let (tables, workloads) = trained_tables(2);
    let cfg = ScenarioConfig {
        seed: 31337,
        clients: 3,
        requests_per_client: 25,
        mean_gap: Duration::from_micros(40),
        service_every: Duration::from_micros(90),
        pattern: ArrivalPattern::Bursty { burst_size: 8 },
        harness: ServeConfig {
            router: RouterConfig { queue_capacity: 8, ..RouterConfig::default() },
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    };
    let plan = FaultPlan { panic_batches: vec![1, 4], ..FaultPlan::default() };
    let (mut setup, mut script) = cfg.generate(&tables, &workloads);
    plan.inject(&mut setup, &mut script);
    let first = replay(&setup, &script, Transport::InProcess);
    std::thread::sleep(Duration::from_millis(30));
    let second = replay(&setup, &script, Transport::InProcess);
    assert_eq!(first, second);
    assert!(first.counters[Counter::PanicsCaught] >= 2);
    assert_eq!(first.accounted(), first.submitted);
}
