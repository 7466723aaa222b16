//! Minimal wire-protocol client: connect to a running Duet wire listener,
//! resolve the `census` table, pipeline 100 range requests in one write
//! burst, and drain the (possibly out-of-order) responses.
//!
//! Start the server first, then run the client:
//!
//! ```text
//! cargo run --release --example serving -- --listen
//! cargo run --release --example wire_client            # other terminal
//! ```
//!
//! An explicit address works too: `... --example wire_client -- host:port`.

use duet::core::IdPredicate;
use duet::serve::wire::{Status, WireClient};
use std::time::Instant;

const REQUESTS: u64 = 100;

fn main() {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    println!("connecting to {addr} ...");
    let mut client = WireClient::connect(&addr)
        .expect("connect failed — is `--example serving -- --listen` running?");

    let spec = client
        .resolve("census")
        .expect("resolve I/O failed")
        .expect("server has no table named 'census'");
    println!("resolved table 'census': id={} with {} columns", spec.id, spec.ndvs.len());

    // Pipeline 100 id-space range requests in one burst. Deterministic
    // pseudo-random intervals keep the example dependency-free.
    let started = Instant::now();
    let empty_preds: Vec<Vec<IdPredicate>> = vec![Vec::new(); spec.ndvs.len()];
    for i in 0..REQUESTS {
        let intervals: Vec<(u32, u32)> = spec
            .ndvs
            .iter()
            .enumerate()
            .map(|(col, &ndv)| {
                let ndv = ndv.max(1);
                let lo = (i as u32).wrapping_mul(7 * col as u32 + 3) % ndv;
                (lo, ndv - 1)
            })
            .collect();
        client.submit_request(i, spec.id, 0, &empty_preds, &intervals);
    }
    client.flush().expect("flush failed");

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut sum = 0.0f64;
    for _ in 0..REQUESTS {
        let response = client.recv().expect("response stream ended early");
        match response.status {
            Status::Ok => {
                ok += 1;
                sum += response.value;
            }
            Status::Overloaded | Status::DeadlineExceeded | Status::Internal => shed += 1,
            Status::UnknownTable => panic!("server forgot the table mid-stream"),
            Status::Rejected => panic!("requests encoded against the resolved schema fit it"),
        }
    }
    let wall = started.elapsed();

    println!("pipelined {REQUESTS} requests, drained {REQUESTS} responses in {wall:.2?}");
    println!("ok={ok} shed={shed} mean estimate={:.2}", sum / ok.max(1) as f64);
}
