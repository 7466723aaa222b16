//! Serving demo: train a Duet model on a census-like table, stand up a
//! `DuetServer`, hammer it from 8 concurrent client threads, hot-swap the
//! model mid-traffic, and print the serving metrics.
//!
//! Run with: `cargo run --release --example serving`
//!
//! With `--listen [addr]` the demo instead opens the TCP wire front door
//! (default `127.0.0.1:7878`) and serves the binary protocol until killed —
//! pair it with the `wire_client` example:
//!
//! ```text
//! cargo run --release --example serving -- --listen
//! cargo run --release --example wire_client            # other terminal
//! ```

use duet::core::{save_weights, DuetConfig, DuetEstimator};
use duet::data::datasets::census_like;
use duet::query::{CardinalityEstimator, WorkloadSpec};
use duet::serve::{DuetServer, ServeConfig, WireConfig};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 8;
const ROUNDS: usize = 20;

fn main() {
    println!("== duet-serve demo ==");
    let table = census_like(8_000, 42);
    let config = DuetConfig::small().with_epochs(4);

    println!("training generation-0 model on {} rows ...", table.num_rows());
    let est_v0 = DuetEstimator::train_data_only(&table, &config, 1);
    println!("training refreshed model (different seed) for the hot-swap ...");
    let mut est_v1 = DuetEstimator::train_data_only(&table, &config, 2);
    let checkpoint = save_weights(&est_v1);

    let server = Arc::new(DuetServer::new(ServeConfig::default()));
    server.register("census", est_v0);

    // `--listen [addr]`: open the wire front door and serve until killed.
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--listen") {
        let addr = args.get(pos + 1).cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string());
        let handle = server.serve_wire(&addr, WireConfig::default()).expect("bind wire listener");
        println!("wire listener on {}", handle.addr());
        println!("try: cargo run --release --example wire_client -- {}", handle.addr());
        loop {
            std::thread::sleep(std::time::Duration::from_secs(5));
            println!("{}", server.metrics());
        }
    }

    let queries = WorkloadSpec::random(&table, 200, 1234).generate(&table);
    println!("serving {} distinct queries from {CLIENTS} client threads ...", queries.len());

    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let server = server.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    for (i, q) in queries.iter().enumerate() {
                        let est = server.estimate("census", q).expect("serving should never fail");
                        // Touch the result so the loop cannot be optimized out.
                        assert!(est.is_finite());
                        let _ = (client, round, i);
                    }
                }
            })
        })
        .collect();

    // Refresh the model while traffic is flowing: requests in flight finish
    // on the old weights, later ones see the new model, nobody errors.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.hot_swap("census", &checkpoint).expect("hot-swap should succeed");
    println!(
        "hot-swapped to generation {} while clients were running",
        server.generation("census").unwrap()
    );

    for c in clients {
        c.join().unwrap();
    }
    let wall = started.elapsed();

    let m = server.metrics();
    println!("\n== results ==");
    println!("wall time            {:.2?}", wall);
    println!("requests             {}", m.requests);
    println!("throughput           {:.0} estimates/s", m.requests as f64 / wall.as_secs_f64());
    println!("p50 / p99 latency    {:.1} us / {:.1} us", m.p50_latency_us, m.p99_latency_us);
    println!("forward batches      {} (mean size {:.2})", m.batches, m.mean_batch_size);
    println!("cache hit rate       {:.1}%", m.cache_hit_rate * 100.0);
    print!("batch-size histogram ");
    for (bound, count) in &m.batch_size_histogram {
        if *count == 0 {
            continue;
        }
        if *bound == usize::MAX {
            print!(" >128:{count}");
        } else {
            print!(" <={bound}:{count}");
        }
    }
    println!();

    // Sanity: the served answers match direct estimation on the new model.
    let q = &queries[0];
    let direct = est_v1.estimate(q);
    let served = server.estimate("census", q).unwrap();
    assert_eq!(direct, served, "served estimate must equal direct estimate");
    println!("\nspot check: direct={direct:.3} served={served:.3} (bit-identical)");
}
