//! Wire-layer tests: frame-codec properties (round-trip bit-identity,
//! typed rejection of corrupt streams, byte-split tolerance at every
//! boundary) and deterministic end-to-end scenarios driving pipelined
//! byte-level clients through the real connection state machine under the
//! virtual clock.

use duet_core::{DuetConfig, DuetEstimator, IdPredicate};
use duet_data::datasets::census_like;
use duet_query::{PredOp, Query, WorkloadSpec};
use duet_serve::sim::{replay, ArrivalPattern, ChunkMode, ScenarioConfig, Transport, WireSim};
use duet_serve::wire::frame::{self, DecodeError, FrameView, Status};
use duet_serve::wire::ConnConfig;
use duet_serve::{Counter, RouterConfig, ServeConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

type RequestParts = (u64, u32, u32, Vec<Vec<IdPredicate>>, Vec<(u32, u32)>);

/// One random, structurally valid request: id, table, deadline, per-column
/// predicates, per-column intervals.
fn random_request(rng: &mut SmallRng) -> RequestParts {
    let ncols = rng.gen_range(1..5usize);
    let preds: Vec<Vec<IdPredicate>> = (0..ncols)
        .map(|_| {
            (0..rng.gen_range(0..4usize))
                .map(|_| IdPredicate {
                    op: PredOp::ALL[rng.gen_range(0..PredOp::ALL.len())],
                    value_id: rng.gen_range(0..10_000u32),
                })
                .collect()
        })
        .collect();
    let intervals: Vec<(u32, u32)> = (0..ncols)
        .map(|_| {
            let lo = rng.gen_range(0..10_000u32);
            (lo, lo + rng.gen_range(0..10_000u32))
        })
        .collect();
    (
        rng.gen_range(0..u64::MAX),
        rng.gen_range(0..64u32),
        rng.gen_range(0..1_000_000u32),
        preds,
        intervals,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode → decode → re-encode is the identity on bytes, and the decoded
    /// view reproduces every field of the original request.
    #[test]
    fn request_frames_round_trip_bit_identically(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (id, table, deadline, preds, intervals) = random_request(&mut rng);

        let mut buf = Vec::new();
        frame::encode_request(&mut buf, id, table, deadline, &preds, &intervals);

        let (view, consumed) = frame::next_frame(&buf, frame::DEFAULT_MAX_FRAME_LEN)
            .expect("valid frame")
            .expect("complete frame");
        prop_assert_eq!(consumed, buf.len());
        let request = match view {
            FrameView::Request(r) => r,
            other => panic!("expected a request frame, got {other:?}"),
        };
        prop_assert_eq!(request.request_id, id);
        prop_assert_eq!(request.table_id, table);
        prop_assert_eq!(request.deadline_us, deadline);
        prop_assert_eq!(request.num_columns(), preds.len());

        let (mut got_preds, mut got_intervals) = (Vec::new(), Vec::new());
        request.read_into(&mut got_preds, &mut got_intervals);
        prop_assert_eq!(&got_preds, &preds);
        prop_assert_eq!(&got_intervals, &intervals);

        // Re-encoding the decoded fields reproduces the original bytes.
        let mut again = Vec::new();
        frame::encode_request(&mut again, id, table, deadline, &got_preds, &got_intervals);
        prop_assert_eq!(again, buf);
    }

    /// A frame stream delivered one byte at a time decodes to exactly the
    /// frames that were encoded — `next_frame` asks for more bytes at every
    /// possible split position and never errors on a partial frame.
    #[test]
    fn frames_decode_identically_across_every_byte_split(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stream = Vec::new();
        let mut expected_frames = 0usize;
        for _ in 0..rng.gen_range(1..5usize) {
            let (id, table, deadline, preds, intervals) = random_request(&mut rng);
            frame::encode_request(&mut stream, id, table, deadline, &preds, &intervals);
            expected_frames += 1;
        }
        frame::encode_response(&mut stream, 7, Status::Ok, 1234.5);
        frame::encode_table_query(&mut stream, 8, "census");
        frame::encode_table_info(&mut stream, 8, Status::Ok, 3, &[10, 20, 30]);
        expected_frames += 3;

        // Feed the stream byte by byte: this exercises a split at every
        // frame-boundary (and mid-frame) position in one pass.
        let mut acc: Vec<u8> = Vec::new();
        let mut decoded = 0usize;
        for &byte in &stream {
            acc.push(byte);
            loop {
                match frame::next_frame(&acc, frame::DEFAULT_MAX_FRAME_LEN) {
                    Ok(Some((_, consumed))) => {
                        acc.drain(..consumed);
                        decoded += 1;
                    }
                    Ok(None) => break,
                    Err(e) => panic!("partial delivery must never error: {e}"),
                }
            }
        }
        prop_assert_eq!(decoded, expected_frames);
        prop_assert!(acc.is_empty(), "no residual bytes after the last frame");
    }

    /// Decoding arbitrary bytes returns `Ok` or a typed error — it never
    /// panics, whatever the length prefix claims.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        data in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let mut buf = data;
        while let Ok(Some((_, consumed))) = frame::next_frame(&buf, frame::DEFAULT_MAX_FRAME_LEN) {
            buf.drain(..consumed);
        }
    }
}

#[test]
fn corrupt_streams_are_rejected_with_typed_errors() {
    // Preamble corruption: wrong magic, wrong version.
    let mut preamble = Vec::new();
    frame::encode_preamble(&mut preamble);
    assert_eq!(preamble.len(), frame::PREAMBLE_LEN);
    let mut bad_magic = preamble.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(frame::decode_preamble(&bad_magic), Err(DecodeError::BadMagic(_))));
    let mut bad_version = preamble.clone();
    bad_version[4] = 0xFF;
    assert!(matches!(
        frame::decode_preamble(&bad_version),
        Err(DecodeError::UnsupportedVersion(_))
    ));

    // A declared body length beyond the cap is rejected before the body
    // arrives (oversized frames must not stall waiting for bytes).
    let oversized = u32::try_from(frame::DEFAULT_MAX_FRAME_LEN + 1).unwrap().to_le_bytes();
    assert!(matches!(
        frame::next_frame(&oversized, frame::DEFAULT_MAX_FRAME_LEN),
        Err(DecodeError::Oversized { .. })
    ));

    // Unknown frame kind.
    let unknown_kind = [1u8, 0, 0, 0, 99];
    assert!(matches!(
        frame::next_frame(&unknown_kind, frame::DEFAULT_MAX_FRAME_LEN),
        Err(DecodeError::UnknownKind(99))
    ));

    // A valid request whose predicate op byte is corrupted.
    let preds = vec![vec![IdPredicate { op: PredOp::Le, value_id: 5 }]];
    let mut request = Vec::new();
    frame::encode_request(&mut request, 1, 0, 0, &preds, &[(0, 9)]);
    // Body layout: kind(1) id(8) table(4) deadline(4) ncols(2) npreds(2) op(1);
    // the op byte sits at prefix(4) + 21.
    let op_at = 4 + 1 + 8 + 4 + 4 + 2 + 2;
    assert_eq!(request[op_at], PredOp::Le as u8);
    request[op_at] = 77;
    assert!(matches!(
        frame::next_frame(&request, frame::DEFAULT_MAX_FRAME_LEN),
        Err(DecodeError::UnknownOp(77))
    ));

    // A response carrying an unknown status code.
    let mut response = Vec::new();
    frame::encode_response(&mut response, 1, Status::Ok, 0.0);
    let status_at = 4 + 1 + 8;
    response[status_at] = 200;
    assert!(matches!(
        frame::next_frame(&response, frame::DEFAULT_MAX_FRAME_LEN),
        Err(DecodeError::UnknownStatus(200))
    ));

    // A truncated column region (ncols promises more than the body holds).
    let mut truncated = Vec::new();
    frame::encode_request(&mut truncated, 1, 0, 0, &preds, &[(0, 9)]);
    let ncols_at = 4 + 1 + 8 + 4 + 4;
    truncated[ncols_at] = 9;
    assert!(matches!(
        frame::next_frame(&truncated, frame::DEFAULT_MAX_FRAME_LEN),
        Err(DecodeError::Malformed(_))
    ));

    // An empty frame body is malformed, not a request for more bytes.
    assert!(matches!(
        frame::next_frame(&[0u8, 0, 0, 0], frame::DEFAULT_MAX_FRAME_LEN),
        Err(DecodeError::Malformed(_))
    ));
}

// ---------------------------------------------------------------------------
// End-to-end wire scenarios under the virtual clock.
// ---------------------------------------------------------------------------

/// Train `n` small tables plus a query pool per table (same idiom as the
/// router scenario tests).
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
fn split_and_coalesced_reads_replay_bit_identically() {
    let (tables, workloads) = trained_tables(2);
    let cfg = ScenarioConfig {
        seed: 42,
        clients: 3,
        requests_per_client: 25,
        mean_gap: Duration::from_micros(100),
        service_every: Duration::from_micros(300),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
    };
    // Frames arrive shredded into ≤7-byte reads, with tails held back to
    // coalesce with later frames — the adversarial TCP delivery shapes.
    let shredded = Transport::Wire { chunk: ChunkMode::Random { max: 7 }, max_pipeline: 64 };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, shredded);
    assert_eq!(report.submitted, 3 * 25);
    assert_eq!(report.served, report.submitted, "ample queues serve everything: {report:?}");
    assert_eq!(report.mismatches, 0, "wire transport must not change any answer");
    assert_eq!(report.accounted(), report.submitted);
    assert!(report.counters[Counter::Batches] > 0);
    // Replay equality under byte shredding is the wire determinism claim.
    assert_eq!(report, replay(&setup, &script, shredded));

    // Whole-write delivery serves the same accounting (timing differs, so
    // batches may differ; outcomes may not).
    let exact = Transport::Wire { chunk: ChunkMode::Exact, max_pipeline: 64 };
    let exact_report = replay(&setup, &script, exact);
    assert_eq!(exact_report.served, report.served);
    assert_eq!(exact_report.mismatches, 0);
    assert_eq!(exact_report, replay(&setup, &script, exact));
}

#[test]
fn overload_and_deadline_sheds_become_status_frames() {
    let (tables, workloads) = trained_tables(2);
    let cfg = ScenarioConfig {
        seed: 7,
        clients: 4,
        requests_per_client: 32,
        mean_gap: Duration::from_micros(50),
        // Both tables share one shard, so each turn batches only the
        // head table and the other table waits a second service
        // interval. With a deadline between one and two intervals, the
        // head batch is served while stragglers expire — and the tiny
        // queue sheds the bursts at admission. All three outcomes fire.
        service_every: Duration::from_millis(5),
        pattern: ArrivalPattern::Bursty { burst_size: 16 },
        harness: ServeConfig {
            router: RouterConfig {
                num_shards: 1,
                queue_capacity: 8,
                default_deadline: Some(Duration::from_millis(7)),
            },
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    };
    let wire = Transport::Wire { chunk: ChunkMode::Random { max: 9 }, max_pipeline: 64 };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, wire);
    assert!(report.shed_overload > 0, "full queues must answer Overloaded: {report:?}");
    assert!(report.shed_deadline > 0, "expired waits must answer DeadlineExceeded: {report:?}");
    assert!(report.served > 0, "admitted in-budget requests must still be served: {report:?}");
    assert_eq!(report.accounted(), report.submitted, "one response per request: {report:?}");
    assert_eq!(report.mismatches, 0, "overload must not corrupt served answers");
    assert!(report.max_shard_depth <= 8, "admission bound holds on the wire path");
    // What the server counted is what the client was told: a completed
    // request is an `Ok` frame (a shed is not, however long it queued), and
    // every shed status frame has its server-side counter.
    assert_eq!(report.counters[Counter::Requests], report.served, "{report:?}");
    assert_eq!(report.counters[Counter::ShedOverload], report.shed_overload, "{report:?}");
    assert_eq!(report.counters[Counter::ShedDeadline], report.shed_deadline, "{report:?}");
    assert_eq!(report.counters[Counter::ShedInternal], report.shed_internal, "{report:?}");
    // Shed counts replay exactly — status frames are deterministic too.
    assert_eq!(report, replay(&setup, &script, wire));
}

#[test]
fn pipeline_cap_sheds_at_the_connection_before_the_queues() {
    let (tables, workloads) = trained_tables(1);
    let cfg = ScenarioConfig {
        seed: 11,
        clients: 2,
        requests_per_client: 30,
        mean_gap: Duration::from_micros(10),
        // Workers only run long after all arrivals: the connection's
        // in-flight cap is the only backpressure in play.
        service_every: Duration::from_millis(100),
        pattern: ArrivalPattern::Uniform,
        harness: ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
    };
    let capped = Transport::Wire { chunk: ChunkMode::Exact, max_pipeline: 4 };
    let (setup, script) = cfg.generate(&tables, &workloads);
    let report = replay(&setup, &script, capped);
    assert_eq!(report.submitted, 60);
    assert!(
        report.shed_overload >= 52,
        "with a pipeline cap of 4 per connection, at most 4 of each client's \
         30 requests fit before the first worker turn: {report:?}"
    );
    assert!(report.served >= 8, "capped pipelines still serve their admitted window: {report:?}");
    assert_eq!(report.accounted(), report.submitted);
    assert_eq!(report.mismatches, 0);
    assert_eq!(report, replay(&setup, &script, capped));
}

#[test]
fn a_request_outside_the_table_id_space_is_rejected_alone() {
    let (tables, workloads) = trained_tables(1);
    let estimator = tables[0].1.clone();
    let schema = estimator.schema().clone();
    let rows: Vec<_> =
        workloads[0].iter().map(|q| duet_core::query_to_id_predicates(&schema, q)).collect();
    let intervals: Vec<_> = workloads[0].iter().map(|q| q.column_intervals(&schema)).collect();
    let expected = estimator.estimate_encoded_batch(&rows, &intervals);

    // Three ways out of the id space, each pipelined between good requests
    // bound for the same batch: an interval past column 0's domain, a
    // missing column, a literal id past column 0's domain.
    let ndv = schema.column(0).ndv() as u32;
    let mut past_domain = intervals[0].clone();
    past_domain[0] = (0, ndv + 1);
    let mut past_literal = rows[0].clone();
    past_literal[0] = vec![IdPredicate { op: PredOp::Eq, value_id: ndv }];
    let bad = [
        (rows[0].clone(), past_domain),
        (rows[0][1..].to_vec(), intervals[0][1..].to_vec()),
        (past_literal, intervals[0].clone()),
    ];
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    for (i, (preds, ivs)) in rows.iter().zip(&intervals).enumerate() {
        frame::encode_request(&mut bytes, i as u64, 0, 0, preds, ivs);
        if let Some((preds, ivs)) = bad.get(i) {
            frame::encode_request(&mut bytes, 100 + i as u64, 0, 0, preds, ivs);
        }
    }

    let mut sim = WireSim::new(
        tables,
        ServeConfig { cache_capacity: 0, ..ServeConfig::default() },
        ConnConfig::default(),
        1,
    );
    sim.feed(0, &bytes);
    sim.pump(0).expect("valid protocol bytes");
    while sim.harness().queue_depth() > 0 {
        sim.turn();
    }
    sim.pump(0).expect("pump after turns");

    let (mut at, mut answered) = (0, 0);
    while let Some((view, used)) =
        frame::next_frame(&sim.output(0)[at..], frame::DEFAULT_MAX_FRAME_LEN).expect("replies")
    {
        let FrameView::Response(response) = view else { panic!("expected a response frame") };
        let id = response.request_id as usize;
        if id >= 100 {
            assert_eq!(response.status, Status::Rejected, "bad request {id}");
        } else {
            assert_eq!(response.status, Status::Ok, "good request {id}");
            assert_eq!(response.value.to_bits(), expected[id].to_bits(), "good request {id}");
        }
        answered += 1;
        at += used;
    }
    assert_eq!(answered, rows.len() + bad.len(), "one reply per request");
    let snapshot = sim.harness().metrics();
    assert_eq!(snapshot.shed_internal, 0, "no batch failed");
    assert_eq!(snapshot.panics_caught, 0);
    assert_eq!(snapshot.wire_rejected, bad.len() as u64);
}

#[test]
fn resolving_a_table_whose_spilled_checkpoint_went_bad_answers_its_ndvs() {
    let (tables, workloads) = trained_tables(2);
    let cold = tables[0].1.schema();
    let expected: Vec<u32> = cold.columns().iter().map(|c| c.ndv() as u32).collect();
    // A budget nothing fits in: executing a batch for table 1 evicts table 0
    // to the spill directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire-resolve-corrupt-spill");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig { model_budget_bytes: 1, cache_capacity: 0, ..ServeConfig::default() };
    let mut sim = WireSim::new(tables, config, ConnConfig::default(), 1);
    sim.harness().tier().set_spill_dir(Some(dir.clone()));

    let schema = sim.harness().estimator(1).schema().clone();
    let preds = duet_core::query_to_id_predicates(&schema, &workloads[1][0]);
    let intervals = workloads[1][0].column_intervals(&schema);
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    frame::encode_request(&mut bytes, 1, 1, 0, &preds, &intervals);
    sim.feed(0, &bytes);
    sim.pump(0).expect("valid protocol bytes");
    sim.turn();
    sim.pump(0).expect("pump after turn");
    sim.consume_output(0, sim.output(0).len());

    // Flip a byte of every spilled checkpoint, then resolve table 0: the
    // reply carries the per-column NDVs the slot holds, so it needs no
    // reload and none is attempted.
    let spilled: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    assert!(!spilled.is_empty(), "the budget must have spilled the cold table");
    for file in &spilled {
        let mut bytes = std::fs::read(file).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(file, &bytes).unwrap();
    }
    let before = sim.harness().metrics().reload_failures;
    let mut query = Vec::new();
    frame::encode_table_query(&mut query, 2, "table-0");
    sim.feed(0, &query);
    sim.pump(0).expect("valid protocol bytes");
    let (view, _) = frame::next_frame(sim.output(0), frame::DEFAULT_MAX_FRAME_LEN)
        .expect("well-formed reply")
        .expect("a complete table-info frame");
    let FrameView::TableInfo(info) = view else {
        panic!("expected a table-info frame, got {view:?}");
    };
    assert_eq!((info.status, info.table_id), (Status::Ok, 0));
    let mut ndvs = Vec::new();
    info.read_ndvs_into(&mut ndvs);
    assert_eq!(ndvs, expected);
    assert_eq!(sim.harness().metrics().reload_failures, before, "resolution reloads nothing");
}
