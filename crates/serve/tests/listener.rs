//! The wire listener over real loopback sockets: what it serves is
//! bit-identical to the direct batch path and to serial `estimate`, a lone
//! request runs on its acceptor, no wake-up is ever lost, an idle front
//! door does not run at all, a stalled reader does not make it spin, and
//! every connection is counted closed exactly once.
//!
//! Waiting is done on the server's own counters ([`wait_for`]), never on a
//! sleep; the only sleeps are the windows over which "nothing happens" is
//! asserted and the clients' think times.

use duet_core::{DuetConfig, DuetEstimator, DuetWorkspace, IdPredicate};
use duet_data::datasets::census_like;
use duet_query::{CardinalityEstimator, Query, WorkloadSpec};
use duet_serve::wire::frame::{self, Status};
use duet_serve::wire::WireClient;
use duet_serve::{DuetServer, MetricsSnapshot, ServeConfig, WireConfig, WireHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

const TABLE: &str = "census";

type Encoded = (Vec<Vec<IdPredicate>>, Vec<(u32, u32)>);

/// One trained model, a pool of queries and their encodings, and what the
/// direct batch path answers for each — built once for the whole test
/// binary.
struct Fixture {
    estimator: DuetEstimator,
    queries: Vec<Query>,
    encoded: Vec<Encoded>,
    expected: Vec<f64>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let table = census_like(300, 41);
        let estimator =
            DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 9);
        let schema = estimator.schema();
        let queries = WorkloadSpec::random(&table, 64, 17).generate(&table);
        let encoded: Vec<Encoded> = queries
            .iter()
            .map(|q| (duet_core::query_to_id_predicates(schema, q), q.column_intervals(schema)))
            .collect();
        let rows: Vec<&[_]> = encoded.iter().map(|e| e.0.as_slice()).collect();
        let intervals: Vec<&[_]> = encoded.iter().map(|e| e.1.as_slice()).collect();
        let mut expected = Vec::new();
        estimator.estimate_encoded_batch_with(
            &rows,
            &intervals,
            &mut DuetWorkspace::new(),
            &mut expected,
        );
        Fixture { estimator, queries, encoded, expected }
    })
}

/// A server with the fixture's table behind a loopback listener. The cache
/// is off, so every request takes the model path these tests count.
fn serve(config: WireConfig) -> (Arc<DuetServer>, WireHandle) {
    serve_with(ServeConfig { cache_capacity: 0, ..ServeConfig::default() }, config)
}

fn serve_with(serve: ServeConfig, config: WireConfig) -> (Arc<DuetServer>, WireHandle) {
    let server = Arc::new(DuetServer::new(serve));
    server.register(TABLE, fixture().estimator.clone());
    let handle = server.serve_wire("127.0.0.1:0", config).expect("bind a loopback port");
    (server, handle)
}

/// A connected client (reads time out after 2 s: a reply that never comes
/// fails the test instead of hanging it) and the table's wire id.
fn connect(handle: &WireHandle) -> (WireClient, u32) {
    let mut client = WireClient::connect(handle.addr()).expect("connect over loopback");
    client.set_read_timeout(Some(Duration::from_secs(2))).expect("set a read timeout");
    let table_id = client.resolve(TABLE).expect("resolve").expect("table is registered").id;
    (client, table_id)
}

fn submit(client: &mut WireClient, table_id: u32, request_id: u64) {
    let (preds, intervals) = &fixture().encoded[request_id as usize % fixture().encoded.len()];
    client.submit_request(request_id, table_id, 0, preds, intervals);
}

fn assert_served(response: &frame::ResponseFrame) {
    let expected = fixture().expected[response.request_id as usize % fixture().expected.len()];
    assert_eq!(response.status, Status::Ok, "request {}", response.request_id);
    assert_eq!(
        response.value.to_bits(),
        expected.to_bits(),
        "request {}: {} over the wire, {expected} directly",
        response.request_id,
        response.value
    );
}

/// Poll the server's metrics until `done` holds; panics after 10 s.
fn wait_for(server: &DuetServer, what: &str, done: impl Fn(&MetricsSnapshot) -> bool) {
    let give_up_at = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = server.metrics();
        if done(&snapshot) {
            return;
        }
        assert!(Instant::now() < give_up_at, "timed out waiting for {what}: {snapshot}");
        std::thread::yield_now();
    }
}

#[test]
fn loopback_replies_are_bit_identical_to_the_direct_batch_path() {
    let (server, handle) = serve(WireConfig { acceptors: 2, ..WireConfig::default() });
    let (mut client, table_id) = connect(&handle);
    let mut serial = fixture().estimator.clone();
    for (request_id, query) in (0..).zip(&fixture().queries) {
        submit(&mut client, table_id, request_id);
        client.flush().expect("flush");
        let response = client.recv().expect("a reply");
        assert_eq!(response.request_id, request_id);
        assert_served(&response);
        let expected = serial.estimate(query);
        assert_eq!(response.value.to_bits(), expected.to_bits(), "serial estimate {request_id}");
    }
    // Depth 1 on an idle shard: the requests ran on their acceptor, and
    // every one was answered `Ok`.
    let snapshot = server.metrics();
    assert!(snapshot.caller_batches > 0, "lone requests run on their acceptor: {snapshot}");
    assert_eq!(snapshot.requests, fixture().queries.len() as u64);
    assert_eq!(snapshot.shed_overload + snapshot.shed_internal + snapshot.shed_stale, 0);
}

#[test]
fn a_repeated_request_is_answered_from_the_cache_over_loopback() {
    let (server, handle) = serve_with(ServeConfig::default(), WireConfig::default());
    let (mut client, table_id) = connect(&handle);
    submit(&mut client, table_id, 0);
    client.flush().expect("flush");
    let first = client.recv().expect("a reply");
    assert_served(&first);
    // The worker fills the cache before it answers, so the repeat hits.
    let before = server.metrics();
    submit(&mut client, table_id, 0);
    client.flush().expect("flush");
    let second = client.recv().expect("a reply");
    assert_eq!(second.value.to_bits(), first.value.to_bits(), "a hit returns the miss's bits");
    let after = server.metrics();
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.batches, before.batches, "a hit runs no batch");
    assert_eq!(after.requests, 2, "both answers are completed requests");
}

#[test]
fn pipelined_replies_all_arrive_whatever_their_order() {
    let (_server, handle) = serve(WireConfig { acceptors: 2, ..WireConfig::default() });
    let (mut client, table_id) = connect(&handle);
    // Stays inside the connection's pipeline window (256), so none is shed.
    const REQUESTS: u64 = 200;
    for round in 0..5 {
        let ids = round * REQUESTS..(round + 1) * REQUESTS;
        ids.clone().for_each(|id| submit(&mut client, table_id, id));
        client.flush().expect("flush");
        let mut seen = vec![false; REQUESTS as usize];
        for _ in 0..REQUESTS {
            let response = client.recv().expect("a reply for every pipelined request");
            assert!(ids.contains(&response.request_id));
            assert_served(&response);
            let slot = &mut seen[(response.request_id - ids.start) as usize];
            assert!(!*slot, "request {} answered twice", response.request_id);
            *slot = true;
        }
    }
}

#[test]
fn server_shutdown_answers_every_admitted_request_then_closes() {
    let (server, handle) = serve(WireConfig { acceptors: 2, ..WireConfig::default() });
    let (mut client, table_id) = connect(&handle);
    const REQUESTS: u64 = 256;
    let frames_before = server.metrics().frames_in;
    (0..REQUESTS).for_each(|id| submit(&mut client, table_id, id));
    client.flush().expect("flush");
    // Shut down the moment the last request is admitted: whatever is still
    // queued or executing then must be answered by the drain.
    wait_for(&server, "every request to be admitted", |m| m.frames_in >= frames_before + REQUESTS);
    assert!(server.shutdown(Duration::from_secs(10)), "the shard workers drain");

    let mut seen = vec![false; REQUESTS as usize];
    for _ in 0..REQUESTS {
        let response = client.recv().expect("a reply for every admitted request");
        assert_served(&response);
        assert!(!std::mem::replace(&mut seen[response.request_id as usize], true));
    }
    // Quiescent now, so the draining acceptor closes the connection.
    let error = client.recv().expect_err("the drain closes the connection");
    assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof, "{error}");
    wait_for(&server, "the connection to be counted closed", |m| m.open_conns == 0);
    drop(handle); // joins acceptors that have already left
}

#[test]
fn an_idle_listener_does_not_run_and_stops_because_it_is_woken() {
    // A drain budget no test could sit out: if stopping waited for any
    // timer, it would be this one.
    let config = WireConfig { acceptors: 2, drain: Duration::from_secs(600), ..Default::default() };
    let (server, mut handle) = serve(config);
    let (_first, _) = connect(&handle);
    let (_second, _) = connect(&handle);
    wait_for(&server, "both connections to be open", |m| m.open_conns == 2);
    // Let the acceptors reach their blocking wait (the thread that lost the
    // race for an `accept` may still be on its way back to `poll`).
    let mut wakeups = server.metrics().wire_acceptor_wakeups;
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = server.metrics().wire_acceptor_wakeups;
        if now == wakeups {
            break;
        }
        wakeups = now;
    }

    std::thread::sleep(Duration::from_millis(100));
    let idle = server.metrics();
    assert_eq!(idle.wire_acceptor_wakeups, wakeups, "an idle front door must not wake up");
    assert_eq!(idle.wire_wake_signals, 0);

    // Two open but quiescent connections: the stop request must wake both
    // acceptors, which close them and leave without waiting for anything.
    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        done_tx.send(()).expect("the test is waiting");
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown of an idle listener must be woken, not wait for a timer");
    stopper.join().expect("stopper thread");
    assert_eq!(server.metrics().open_conns, 0);
}

#[test]
fn a_request_served_alone_costs_one_wakeup_and_no_signal() {
    let (server, handle) = serve(WireConfig { acceptors: 1, ..WireConfig::default() });
    let (mut client, table_id) = connect(&handle);
    // Warm the path (pools, workspaces), then count.
    for request_id in 0..8 {
        submit(&mut client, table_id, request_id);
        client.flush().expect("flush");
        assert_served(&client.recv().expect("a reply"));
    }
    const REQUESTS: u64 = 400;
    let before = server.metrics();
    for request_id in 0..REQUESTS {
        submit(&mut client, table_id, request_id);
        client.flush().expect("flush");
        assert_served(&client.recv().expect("a reply"));
    }
    let after = server.metrics();

    // One wake-up for the request's bytes. The request runs on the acceptor
    // (its shard is idle) and is answered in the same pump, so no batch
    // retires on a worker and nothing signals the acceptor.
    let wakeups = after.wire_acceptor_wakeups - before.wire_acceptor_wakeups;
    let signals = after.wire_wake_signals - before.wire_wake_signals;
    assert!(wakeups >= REQUESTS, "a request cannot arrive unnoticed: {wakeups}");
    assert!(wakeups <= REQUESTS + REQUESTS / 10, "{wakeups} wake-ups for {REQUESTS} requests");
    assert_eq!(signals, 0, "{signals} wake signals for {REQUESTS} inline requests");
    assert_eq!(after.batches - before.batches, REQUESTS, "depth 1: one batch per request");
    assert_eq!(after.caller_batches - before.caller_batches, REQUESTS, "each ran on the acceptor");
}

#[test]
fn no_wakeup_is_lost_under_jittered_closed_loops() {
    const CONNECTIONS: u64 = 4;
    const ROUNDS: u64 = 2_000;
    let (server, handle) = serve(WireConfig { acceptors: 2, ..WireConfig::default() });
    // The clients start every round together and the next round starts when
    // all have their replies. A reply left in its outbox with the acceptor
    // asleep is rescued by whatever wakes that acceptor next; with the other
    // clients holding still until this one is answered, nothing does, and
    // the 2 s read timeout turns the lost wake-up into a failure. A lone
    // request on an idle shard runs on its acceptor and needs no wake-up,
    // so odd connections pipeline two requests a round: those queue, and
    // their workers' wake bytes race the acceptors' polls.
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        let mut starts = Vec::new();
        for connection in 0..CONNECTIONS {
            let (start_tx, start_rx) = mpsc::channel();
            starts.push(start_tx);
            let (handle, done_tx) = (&handle, done_tx.clone());
            scope.spawn(move || {
                let (mut client, table_id) = connect(handle);
                let mut rng = SmallRng::seed_from_u64(0x5eed + connection);
                // Ends when the coordinator drops its sender: after the last
                // round, or when it gives up on a client that failed.
                while let Ok(round) = start_rx.recv() {
                    // Think times around one request's service time: one
                    // client's request or reply wakes the acceptor just as
                    // another's batch retires, which is when a completion
                    // can slip in between the acceptor's last look at the
                    // outboxes and its `poll`.
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..100)));
                    let first = 2 * (connection * ROUNDS + round);
                    let ids = first..first + 1 + connection % 2;
                    ids.clone().for_each(|request_id| submit(&mut client, table_id, request_id));
                    client.flush().expect("flush");
                    for _ in ids.clone() {
                        let response = client
                            .recv()
                            .unwrap_or_else(|e| panic!("requests {ids:?} got no reply: {e}"));
                        assert!(ids.contains(&response.request_id));
                        assert_served(&response);
                    }
                    done_tx.send(()).expect("the coordinator is waiting");
                }
            });
        }
        for round in 0..ROUNDS {
            starts.iter().for_each(|start| start.send(round).expect("a client thread died"));
            for _ in 0..CONNECTIONS {
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("a client got no reply in round {round}"));
            }
        }
    });
    let snapshot = server.metrics();
    assert!(snapshot.requests >= CONNECTIONS * ROUNDS);
    assert!(snapshot.batches > snapshot.caller_batches, "pipelined pairs queue: {snapshot}");
    assert_eq!(snapshot.wire_decode_errors, 0);
}

#[test]
fn a_stalled_reader_does_not_make_the_acceptor_spin() {
    let (server, handle) = serve(WireConfig { acceptors: 1, ..WireConfig::default() });

    // Table queries are answered by the acceptor itself, with a reply a few
    // times the size of the question: 16 MiB of replies is more than
    // loopback socket buffers hold at their kernel maximum, so the acceptor
    // is left holding output the socket will not take.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect over loopback");
    raw.set_nodelay(true).expect("nodelay");
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    let columns = fixture().estimator.schema().num_columns();
    let queries = (16 << 20) / (4 * columns + 16) as u64;
    for ticket in 0..queries {
        frame::encode_table_query(&mut bytes, ticket, TABLE);
    }
    let frames_before = server.metrics().frames_out;
    raw.write_all(&bytes).expect("the server keeps reading while its replies pile up");
    wait_for(&server, "every reply to be encoded", |m| m.frames_out >= frames_before + queries);

    // Nobody reads for 50 ms. The socket stays full, so `POLLOUT` must not
    // fire, and a full socket must not be reported as anything else.
    let stalled = server.metrics().wire_acceptor_wakeups;
    std::thread::sleep(Duration::from_millis(50));
    let woken = server.metrics().wire_acceptor_wakeups - stalled;
    assert!(woken <= 2, "{woken} wake-ups while the only peer was stalled");

    // Once the client reads, every reply arrives, in order.
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("set a read timeout");
    let mut received = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next_ticket = 0;
    let mut cursor = 0;
    while next_ticket < queries {
        let n = raw.read(&mut chunk).expect("replies keep coming once the reader reads");
        assert!(n > 0, "the server closed after {next_ticket} of {queries} replies");
        received.extend_from_slice(&chunk[..n]);
        while let Some((view, consumed)) =
            frame::next_frame(&received[cursor..], frame::DEFAULT_MAX_FRAME_LEN).expect("frames")
        {
            match view {
                frame::FrameView::TableInfo(info) => {
                    assert_eq!((info.request_id, info.status), (next_ticket, Status::Ok));
                    next_ticket += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
            cursor += consumed;
        }
        if cursor > 1 << 20 {
            received.drain(..cursor);
            cursor = 0;
        }
    }
    assert_eq!(server.metrics().open_conns, 1, "the connection survived the stall");
}

#[test]
fn every_way_a_connection_ends_is_counted_closed_exactly_once() {
    let (server, mut handle) = serve(WireConfig { acceptors: 2, ..WireConfig::default() });
    let (eof, _) = connect(&handle);
    let mut garbage = TcpStream::connect(handle.addr()).expect("connect over loopback");
    let (_stays, _) = connect(&handle);
    wait_for(&server, "three open connections", |m| m.open_conns == 3);

    // `open_conns` is opened − closed: a close counted twice would show as
    // one connection too few while `_stays` keeps the gauge above zero.
    drop(eof); // peer closed
    wait_for(&server, "the EOF to be noticed", |m| m.open_conns <= 2);
    assert_eq!(server.metrics().open_conns, 2);

    garbage.write_all(b"not the duet preamble").expect("write garbage");
    wait_for(&server, "the decode error to close its connection", |m| {
        m.wire_decode_errors == 1 && m.open_conns <= 1
    });
    assert_eq!(server.metrics().open_conns, 1);
    let mut rest = Vec::new();
    let closed = garbage.read_to_end(&mut rest);
    assert!(!matches!(closed, Ok(n) if n > 0), "closed without a reply, got {rest:?}");

    handle.shutdown(); // the drain closes the quiescent `_stays`
    let snapshot = server.metrics();
    assert_eq!((snapshot.conns_opened, snapshot.open_conns), (3, 0));
    assert_eq!(snapshot.wire_accept_errors, 0);
}
