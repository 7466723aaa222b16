//! # duet-serve
//!
//! A concurrent, batched estimation-serving layer over
//! [`duet_core::DuetEstimator`], built on std threads and channels (no async
//! runtime). It turns the paper's key inference property — every range query
//! is answered by a **single deterministic forward pass** — into a service
//! that sustains many concurrent clients:
//!
//! * [`registry`] — named model slots with **zero-downtime hot-swap** from
//!   [`duet_core::save_weights`] checkpoints: in-flight requests finish on
//!   the old weights, later requests see the new ones;
//! * [`router`] — **sharded multi-table routing with admission control**:
//!   tables are hashed onto a shared pool of worker shards with bounded
//!   queues; a full shard sheds load with a typed `Overloaded` rejection,
//!   and a request whose deadline budget expires while queued is dropped at
//!   dequeue instead of wasting a forward pass;
//! * [`batcher`] — the per-shard **micro-batching worker**: same-table
//!   batches are coalesced into one `N×W` matrix forward pass
//!   ([`duet_core::DuetEstimator::estimate_batch`]), which is bit-identical
//!   to N single-query passes, so neither sharding nor batching ever
//!   changes an answer;
//! * [`cache`] — a **sharded LRU result cache** keyed on canonicalized
//!   predicate intervals (and the model generation, which makes hot-swaps
//!   invalidate stale entries implicitly), with hit/miss accounting;
//! * [`metrics`] — **one declarative table of counters** ([`Counter`]: one
//!   entry per metric generates its storage slot, its [`MetricsSnapshot`]
//!   field, its [`CounterTable`] cell — the value the [`sim`] report carries
//!   — and its `name=value` in the text export), two bucketed histograms,
//!   and a latency ring whose p50/p99 use the same percentile helper as the
//!   offline experiment harness;
//! * [`tier`] — **fleet-scale model tiering**: a registry-wide weight-memory
//!   budget with LFU-aged eviction of cold models to checkpoint bytes (in
//!   memory or spilled to disk) and transparent, bit-identical lazy reload
//!   on the next request;
//! * [`online`] — the **online-learning loop**: row ingest with incremental
//!   per-column statistics, histogram-distance drift detection with
//!   hysteresis, true-cardinality query feedback, and a background trainer
//!   that retrains from the serving weights and publishes through the
//!   hot-swap + hot-set-replay path — drift → retrain → swap, with zero
//!   downtime;
//! * [`server`] — [`DuetServer`], the blocking, `Sync` front door: one
//!   serving core (the pieces above, assembled once) plus the threads that
//!   run it;
//! * [`sim`] — a **deterministic serving test harness**: a virtual-clock,
//!   seeded-RNG driver that replays a script (arrivals, ingest, feedback,
//!   trainer ticks, faults) through the server's own serving core over
//!   either transport, making the concurrency layer regression-testable
//!   instead of timing-dependent;
//! * [`wire`] — **duet-wire**, the TCP front door: a compact binary
//!   protocol with pipelined connections, served by nonblocking acceptor
//!   threads ([`DuetServer::serve_wire`]) and driven byte-for-byte by the
//!   simulator ([`sim::replay`] under [`sim::Transport::Wire`]) so framing,
//!   backpressure, and out-of-order completion are replay-testable without
//!   sockets.
//!
//! The crate is organized into **fault domains**: every shard worker runs
//! its batches under `catch_unwind` supervision (a panicking batch answers
//! every request typed and the worker respawns), checkpoints carry a
//! checksummed integrity frame so a torn or corrupt file is a typed reload
//! error instead of garbage weights, the wire client retries overload with
//! seeded jittered backoff ([`wire::RetryConfig`]) and can redial a dead
//! server, and [`DuetServer::shutdown`] drains queued work before stopping.
//! All of it is replayable under seeded fault injection
//! ([`sim::FaultPlan`] merged into a script, [`sim::replay`]).
//!
//! ```no_run
//! use duet_core::{DuetConfig, DuetEstimator};
//! use duet_data::datasets::census_like;
//! use duet_query::WorkloadSpec;
//! use duet_serve::{DuetServer, ServeConfig};
//! use std::sync::Arc;
//!
//! let table = census_like(10_000, 42);
//! let estimator = DuetEstimator::train_data_only(&table, &DuetConfig::small(), 42);
//! let server = Arc::new(DuetServer::new(ServeConfig::default()));
//! server.register("census", estimator);
//!
//! let queries = WorkloadSpec::random(&table, 100, 7).generate(&table);
//! let handles: Vec<_> = (0..8)
//!     .map(|_| {
//!         let (server, queries) = (server.clone(), queries.clone());
//!         std::thread::spawn(move || {
//!             for q in &queries {
//!                 let _ = server.estimate("census", q).unwrap();
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! println!("{}", server.metrics());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod cache;
mod core;
pub mod metrics;
pub mod online;
pub mod registry;
pub mod router;
pub mod server;
pub mod sim;
pub mod tier;
pub mod wire;

pub use cache::{
    canonical_key, canonical_key_from_parts, CacheKey, HotQuery, HotSet, ShardedCache,
};
pub use metrics::{Counter, CounterTable, MetricsSnapshot, ServeMetrics};
pub use online::{
    DriftMonitor, FeedbackError, IngestError, OnlineConfig, OnlineDirectory, OnlineHooks,
    OnlineTable, OnlineTickReport, OnlineTrainerHandle,
};
pub use registry::{ModelRegistry, ModelSlot, ReloadError, SwapError};
pub use router::{shard_for, Clock, Router, RouterConfig, ShedReason, SystemClock, VirtualClock};
pub use server::{DuetServer, ServeConfig, ServeError};
pub use tier::ModelTier;
pub use wire::{RetryConfig, WireClient, WireConfig, WireConn, WireHandle};
