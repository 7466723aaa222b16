//! Wire-throughput benchmark: 8 pipelined TCP clients over loopback against
//! the same server driven by 8 in-process threads.
//!
//! * `inprocess_router_8_clients` — the PR-baseline: every client thread
//!   calls `DuetServer::estimate` directly (one blocking call per query).
//! * `wire_loopback_8_clients` — every client is a real `WireClient` on a
//!   loopback TCP connection, pipelining its whole query slice in one write
//!   burst and draining the out-of-order responses.
//!
//! Both modes go through the same shard queues and micro-batchers, so the
//! difference is the wire layer itself: framing, socket hops, and the
//! acceptors' event loop (blocked in `poll(2)`, woken per ready socket and
//! per finished batch). The acceptance bar is wire throughput within 2× of
//! the in-process path; pipelining typically makes it comparable or better,
//! because a full slice of requests is available for batching at once
//! instead of one call per client at a time.

use criterion::{criterion_group, criterion_main, BenchMeta, Criterion};
use duet_core::{query_to_id_predicates, DuetConfig, DuetEstimator, IdPredicate};
use duet_data::datasets::census_like;
use duet_query::WorkloadSpec;
use duet_serve::wire::{Status, WireClient};
use duet_serve::{DuetServer, ServeConfig, WireConfig};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 64;

type Encoded = (Vec<Vec<IdPredicate>>, Vec<(u32, u32)>);

fn run_inprocess_round(server: &Arc<DuetServer>, queries: &[duet_query::Query]) {
    std::thread::scope(|scope| {
        for chunk in queries.chunks(QUERIES_PER_CLIENT) {
            let server = server.clone();
            scope.spawn(move || {
                for q in chunk {
                    black_box(server.estimate("census", q).expect("serving failed"));
                }
            });
        }
    });
}

fn run_wire_round(addr: SocketAddr, table_id: u32, encoded: &[Encoded]) {
    std::thread::scope(|scope| {
        for chunk in encoded.chunks(QUERIES_PER_CLIENT) {
            scope.spawn(move || {
                let mut client = WireClient::connect(addr).expect("loopback connect");
                // Pipeline the whole slice in one burst, then drain.
                for (i, (preds, intervals)) in chunk.iter().enumerate() {
                    client.submit_request(i as u64, table_id, 0, preds, intervals);
                }
                client.flush().expect("flush");
                for _ in chunk {
                    let response = client.recv().expect("response");
                    assert_eq!(response.status, Status::Ok);
                    black_box(response.value);
                }
            });
        }
    });
}

fn bench_wire(c: &mut Criterion) {
    let table = census_like(4_000, 7);
    let cfg = DuetConfig::small().with_epochs(2);
    let estimator = DuetEstimator::train_data_only(&table, &cfg, 3);
    let queries = WorkloadSpec::random(&table, CLIENTS * QUERIES_PER_CLIENT, 1234).generate(&table);
    let encoded: Vec<Encoded> = queries
        .iter()
        .map(|q| {
            (query_to_id_predicates(estimator.schema(), q), q.column_intervals(estimator.schema()))
        })
        .collect();

    let server = Arc::new(DuetServer::new(ServeConfig {
        cache_capacity: 0, // measure the transport + inference path, not cache hits
        ..ServeConfig::default()
    }));
    server.register("census", estimator);
    let handle = server.serve_wire("127.0.0.1:0", WireConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    let table_id = WireClient::connect(addr)
        .expect("connect")
        .resolve("census")
        .expect("resolve")
        .expect("census registered")
        .id;

    let mut group = c.benchmark_group("wire_throughput");
    group.bench_function_meta(
        "inprocess_router_8_clients",
        BenchMeta { batch_size: Some(QUERIES_PER_CLIENT), mode: Some("inprocess") },
        |b| b.iter(|| run_inprocess_round(&server, &queries)),
    );
    group.bench_function_meta(
        "wire_loopback_8_clients",
        BenchMeta { batch_size: Some(QUERIES_PER_CLIENT), mode: Some("wire") },
        |b| b.iter(|| run_wire_round(addr, table_id, &encoded)),
    );
    group.finish();

    // Direct queries/second comparison over a fixed number of rounds.
    const ROUNDS: usize = 5;
    let total = (ROUNDS * queries.len()) as f64;

    let started = Instant::now();
    for _ in 0..ROUNDS {
        run_inprocess_round(&server, &queries);
    }
    let inprocess_qps = total / started.elapsed().as_secs_f64();

    let started = Instant::now();
    for _ in 0..ROUNDS {
        run_wire_round(addr, table_id, &encoded);
    }
    let wire_qps = total / started.elapsed().as_secs_f64();

    let m = server.metrics();
    println!("\nin-process router (8 threads)   : {inprocess_qps:>10.0} queries/s");
    println!("wire loopback (8 pipelined conns): {wire_qps:>10.0} queries/s");
    println!(
        "wire/in-process ratio {:.2}; server saw {} frames in, {} frames out, {} decode errors",
        wire_qps / inprocess_qps,
        m.frames_in,
        m.frames_out,
        m.wire_decode_errors
    );
    drop(handle);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_wire
}
criterion_main!(benches);
