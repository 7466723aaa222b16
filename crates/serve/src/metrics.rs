//! Serving metrics: one declarative table of scalar counters, two bucketed
//! histograms, a latency ring, and the cache hit rate.
//!
//! Every scalar counter is **one entry** in the `counters!` table below —
//! doc comment, [`Counter`] variant, snake_case name. From that entry come
//! the enum variant, its slot in [`ServeMetrics`]'s atomic array, the named
//! `pub` field of [`MetricsSnapshot`] (same doc), the load that fills it,
//! its place in [`CounterTable`] (what the replay sim's report carries) and
//! its `name=value` in the text export. Adding a metric is a one-line diff.
//!
//! Everything on the record path is lock-free atomics — including the
//! latency ring, a fixed-size buffer of the most recent [`LATENCY_WINDOW`]
//! request latencies (an atomic cursor plus relaxed slot stores; a slot
//! being overwritten while a snapshot reads it just yields a neighboring
//! sample, which percentile estimates tolerate). Percentiles are computed
//! on demand with [`duet_query::percentile_sorted`] — the same helper the
//! offline experiment harness uses, so serving p99s and paper table p99s
//! are computed identically.

use duet_query::percentile_sorted;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of most-recent request latencies kept for percentile estimates.
pub const LATENCY_WINDOW: usize = 8192;

/// Histogram bucket upper bounds (inclusive); the last bucket is open-ended.
pub const BATCH_BUCKETS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The counter table: `/// doc` + `Variant => field_name,` per counter.
/// Expands to [`Counter`], [`MetricsSnapshot`] (whose derived, non-counter
/// fields are written here, once) and the two conversions between a
/// snapshot's named fields and a [`CounterTable`].
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $field:ident,)*) => {
        /// One scalar serving counter: the index [`ServeMetrics::incr`]
        /// bumps and [`CounterTable`] is read by.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table (= storage, = export) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The counter's snake_case name: its [`MetricsSnapshot`] field
            /// and its key in the text export.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }
        }

        /// A point-in-time view of a server's metrics.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct MetricsSnapshot {
            /// Time since the server (metrics) was created.
            pub elapsed: Duration,
            /// Requests per second since startup.
            pub qps: f64,
            /// Median end-to-end request latency over the recent window, in µs.
            pub p50_latency_us: f64,
            /// 99th-percentile end-to-end request latency over the recent window, µs.
            pub p99_latency_us: f64,
            /// Mean queries per forward batch.
            pub mean_batch_size: f64,
            /// `(bucket upper bound, batches)` pairs; the `usize::MAX` bucket is
            /// open-ended.
            pub batch_size_histogram: Vec<(usize, u64)>,
            /// `(bucket upper bound, samples)` histogram of per-connection in-flight
            /// request counts at admission; the `usize::MAX` bucket is open-ended.
            pub pipeline_depth_histogram: Vec<(usize, u64)>,
            /// Wire connections currently open (accepted minus closed).
            pub open_conns: u64,
            /// Requests queued across all shards at snapshot time.
            pub queue_depth: usize,
            /// Result-cache hits across all tables.
            pub cache_hits: u64,
            /// Result-cache misses across all tables.
            pub cache_misses: u64,
            /// `hits / (hits + misses)`, or 0 before the first lookup.
            pub cache_hit_rate: f64,
            $($(#[$doc])* pub $field: u64,)*
        }

        impl MetricsSnapshot {
            /// The snapshot's scalar counters as one table — iterate it for
            /// `(name, value)` pairs, index it by [`Counter`].
            pub fn counters(&self) -> CounterTable {
                CounterTable([$(self.$field,)*])
            }

            /// A snapshot holding `table`'s counters and zeroed derived fields.
            fn of_counters(table: &CounterTable) -> Self {
                Self { $($field: table[Counter::$variant],)* ..Self::default() }
            }
        }
    };
}

counters! {
    /// Completed requests: answered with an estimate (cache hits included).
    /// Shed requests are not completions on either front door, and their
    /// queue wait is not filed into the latency ring.
    Requests => requests,
    /// Forward batches executed.
    Batches => batches,
    /// Queries executed across all forward batches.
    BatchedQueries => batched_queries,
    /// Forward batches an in-process caller ran on its own thread because
    /// its shard was idle; every other batch ran on a shard worker.
    CallerBatches => caller_batches,
    /// Requests rejected at admission because their shard queue (or their
    /// connection's pipeline window) was full.
    ShedOverload => shed_overload,
    /// Requests dropped at dequeue because their deadline had expired.
    ShedDeadline => shed_deadline,
    /// Requests dropped at dequeue because their table was re-registered
    /// (different slot) after the request was encoded and queued.
    ShedStale => shed_stale,
    /// Batches an idle worker stole from another shard's queue.
    Steals => steals,
    /// Models evicted from the resident tier to checkpoint bytes (memory
    /// budget pressure; see [`crate::ModelTier`]).
    ModelEvictions => model_evictions,
    /// Evicted models rebuilt from their checkpoint by a request.
    ModelReloads => model_reloads,
    /// Wire connections accepted since startup.
    ConnsOpened => conns_opened,
    /// Wire connections closed (EOF, shutdown, or decode error); accepted
    /// minus closed is the `open_conns` gauge, two counters so the totals
    /// survive disconnects.
    ConnsClosed => conns_closed,
    /// Complete frames decoded from wire connections.
    FramesIn => frames_in,
    /// Frames encoded onto wire connections.
    FramesOut => frames_out,
    /// Wire connections torn down by protocol decode errors.
    WireDecodeErrors => wire_decode_errors,
    /// Well-formed wire requests answered `Rejected` at admission, never
    /// queued, because they do not fit their table's id space (column
    /// count, an interval outside the column's domain, a literal id past
    /// it).
    WireRejected => wire_rejected,
    /// Failed `accept` calls on wire listeners (anything but `WouldBlock`:
    /// descriptor exhaustion, a connection aborted in the backlog).
    WireAcceptErrors => wire_accept_errors,
    /// Returns of wire listener threads from their readiness wait. The
    /// threads block until a socket, a finished batch or a stop request
    /// needs them, so this stands still while the front door is idle and
    /// grows by about two per request served one at a time.
    WireAcceptorWakeups => wire_acceptor_wakeups,
    /// Wake-up bytes shard workers wrote to blocked wire listener threads:
    /// at most one per retired batch and thread, none when the thread was
    /// already awake.
    WireWakeSignals => wire_wake_signals,
    /// Rows appended through the online ingest path.
    IngestedRows => ingested_rows,
    /// Trainer ticks on which drift was confirmed (threshold + hysteresis;
    /// see [`crate::online::DriftMonitor`]).
    DriftDetections => drift_detections,
    /// Online retrains started (drift- or feedback-triggered).
    Retrains => retrains,
    /// Retrained models published through the hot-swap path.
    SwapsPublished => swaps_published,
    /// Feedback observations rejected (stale slot uid or invalid
    /// cardinality).
    FeedbackRejected => feedback_rejected,
    /// Batch-execution panics caught by shard supervision (every request in
    /// the poisoned batch still received a terminal internal-error reply).
    PanicsCaught => panics_caught,
    /// Shard workers respawned with a fresh workspace after a panic.
    ShardRestarts => shard_restarts,
    /// Evicted-model reload attempts that failed with a typed error
    /// (unreadable spill file, corrupt or truncated checkpoint).
    ReloadFailures => reload_failures,
    /// Requests terminated with an internal fault (a poisoned batch) rather
    /// than a scheduling shed.
    ShedInternal => shed_internal,
    /// Evictions abandoned because the checkpoint spill failed (IO error or
    /// read-back verification); the model stayed resident.
    SpillFailures => spill_failures,
}

/// Every [`Counter`]'s value at one instant, indexable by [`Counter`]. It is
/// what [`MetricsSnapshot::counters`] returns and what the replay sim's
/// report carries: integers only, so two replays compare with `==`, and
/// `{:?}` prints `name=value` pairs so a failing comparison reads as a
/// report.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CounterTable([u64; Counter::ALL.len()]);

impl CounterTable {
    /// `(name, value)` of every counter, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&counter| (counter.name(), self[counter]))
    }
}

impl Default for CounterTable {
    fn default() -> Self {
        Self([0; Counter::ALL.len()])
    }
}

impl std::ops::Index<Counter> for CounterTable {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl std::fmt::Debug for CounterTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, value)) in self.iter().enumerate() {
            write!(f, "{}{name}={value}", if i == 0 { "" } else { " " })?;
        }
        Ok(())
    }
}

/// A lock-free histogram over the [`BATCH_BUCKETS`] bounds plus one
/// open-ended bucket.
#[derive(Default)]
struct Histogram([AtomicU64; BATCH_BUCKETS.len() + 1]);

impl Histogram {
    fn record(&self, value: usize) {
        let bucket =
            BATCH_BUCKETS.iter().position(|&ub| value <= ub).unwrap_or(BATCH_BUCKETS.len());
        self.0[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// `(bucket upper bound, samples)` pairs; the open-ended bucket's bound
    /// is `usize::MAX`.
    fn buckets(&self) -> Vec<(usize, u64)> {
        BATCH_BUCKETS
            .iter()
            .copied()
            .chain(std::iter::once(usize::MAX))
            .zip(self.0.iter().map(|c| c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// Live metrics shared by every worker and client of a [`crate::DuetServer`].
pub struct ServeMetrics {
    started: Instant,
    /// One flat slot per [`Counter`], indexed by its discriminant.
    counters: [AtomicU64; Counter::ALL.len()],
    /// Sizes of executed forward batches.
    batch_sizes: Histogram,
    /// Per-connection in-flight request counts, sampled at each admission.
    pipeline_depths: Histogram,
    /// Ring of recent latencies in nanoseconds; `latency_cursor` counts
    /// total records and indexes the ring modulo [`LATENCY_WINDOW`].
    latencies_ns: Vec<AtomicU64>,
    latency_cursor: AtomicU64,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics anchored at "now" (QPS denominator).
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_sizes: Histogram::default(),
            pipeline_depths: Histogram::default(),
            latencies_ns: (0..LATENCY_WINDOW).map(|_| AtomicU64::new(0)).collect(),
            latency_cursor: AtomicU64::default(),
        }
    }

    /// Bump `counter` by one (a relaxed `fetch_add` on a fixed slot).
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// `counter`'s current value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Record one completed request and its end-to-end latency (lock-free).
    pub fn record_request(&self, latency: Duration) {
        self.incr(Counter::Requests);
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let at = self.latency_cursor.fetch_add(1, Ordering::Relaxed) % LATENCY_WINDOW as u64;
        self.latencies_ns[at as usize].store(ns, Ordering::Relaxed);
    }

    /// Record one executed forward batch of `size` queries.
    pub fn record_batch(&self, size: usize) {
        self.incr(Counter::Batches);
        self.add(Counter::BatchedQueries, size as u64);
        self.batch_sizes.record(size);
    }

    /// Record a connection's in-flight request count observed at admission
    /// (the pipelining-depth histogram).
    pub fn record_pipeline_depth(&self, depth: usize) {
        self.pipeline_depths.record(depth);
    }

    /// Snapshot every metric, combining the given cache counters (summed by
    /// the server across its per-table caches) and the router's current
    /// total queue depth (a gauge the atomics cannot derive on their own).
    pub fn snapshot(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        queue_depth: usize,
    ) -> MetricsSnapshot {
        let elapsed = self.started.elapsed();
        let filled = (self.latency_cursor.load(Ordering::Relaxed) as usize).min(LATENCY_WINDOW);
        let mut sorted: Vec<f64> = self.latencies_ns[..filled]
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed) as f64 / 1_000.0)
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        // Counters are loaded last, after the sort, so they are as fresh as
        // the snapshot's return.
        let table = CounterTable(std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)));
        let ratio =
            |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
        MetricsSnapshot {
            elapsed,
            qps: table[Counter::Requests] as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_latency_us: percentile_sorted(&sorted, 50.0),
            p99_latency_us: percentile_sorted(&sorted, 99.0),
            mean_batch_size: ratio(table[Counter::BatchedQueries], table[Counter::Batches]),
            batch_size_histogram: self.batch_sizes.buckets(),
            pipeline_depth_histogram: self.pipeline_depths.buckets(),
            open_conns: table[Counter::ConnsOpened].saturating_sub(table[Counter::ConnsClosed]),
            queue_depth,
            cache_hits,
            cache_misses,
            cache_hit_rate: ratio(cache_hits, cache_hits + cache_misses),
            ..MetricsSnapshot::of_counters(&table)
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("requests", &self.get(Counter::Requests))
            .field("batches", &self.get(Counter::Batches))
            .finish()
    }
}

/// The text export: the derived gauges (`conns` is `open_conns`), then
/// `name=value` for every counter in table order, keyed by field name
/// (`requests` leads the table).
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "qps={:.0} p50={:.1}us p99={:.1}us mean_batch={:.2} queue_depth={} \
             cache_hit_rate={:.1}% conns={} {:?}",
            self.qps,
            self.p50_latency_us,
            self.p99_latency_us,
            self.mean_batch_size,
            self.queue_depth,
            self.cache_hit_rate * 100.0,
            self.open_conns,
            self.counters()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_latencies_feed_percentiles() {
        let m = ServeMetrics::new();
        for us in 1..=100u64 {
            m.record_request(Duration::from_micros(us));
        }
        let s = m.snapshot(0, 0, 0);
        assert_eq!(s.requests, 100);
        assert!(s.qps > 0.0);
        assert!((s.p50_latency_us - 50.5).abs() < 1.0, "p50 {}", s.p50_latency_us);
        assert!(s.p99_latency_us >= s.p50_latency_us);
        assert!(s.p99_latency_us <= 100.0 + 1e-9);
    }

    #[test]
    fn batch_histogram_buckets_by_size() {
        let m = ServeMetrics::new();
        m.record_batch(1);
        m.record_batch(2);
        m.record_batch(5);
        m.record_batch(300);
        let s = m.snapshot(0, 0, 0);
        assert_eq!(s.batches, 4);
        assert_eq!(s.batched_queries, 308);
        assert!((s.mean_batch_size - 77.0).abs() < 1e-9);
        let count_of =
            |ub: usize| s.batch_size_histogram.iter().find(|&&(b, _)| b == ub).map(|&(_, c)| c);
        assert_eq!(count_of(1), Some(1));
        assert_eq!(count_of(2), Some(1));
        assert_eq!(count_of(8), Some(1)); // 5 lands in the <=8 bucket
        assert_eq!(count_of(usize::MAX), Some(1)); // 300 overflows the last bound
    }

    #[test]
    fn cache_rate_combines_external_counters() {
        let m = ServeMetrics::new();
        let s = m.snapshot(3, 1, 0);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-9);
        assert_eq!(m.snapshot(0, 0, 0).cache_hit_rate, 0.0);
    }

    #[test]
    fn latency_window_is_bounded() {
        let m = ServeMetrics::new();
        for _ in 0..(LATENCY_WINDOW + 100) {
            m.record_request(Duration::from_micros(7));
        }
        let s = m.snapshot(0, 0, 0);
        assert_eq!(s.requests as usize, LATENCY_WINDOW + 100);
        assert!((s.p50_latency_us - 7.0).abs() < 1e-9);
    }

    /// Bump counter *i* exactly *i + 1* times; the live value, the
    /// snapshot's named field (which is what `counters()` reads), the
    /// by-name iteration and the text export must all report *i + 1* under
    /// the same name. A new table entry is covered without writing a test.
    #[test]
    fn every_counter_is_reported_once_under_its_name() {
        let m = ServeMetrics::new();
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter as usize, i, "ALL is in discriminant order");
            (0..=i).for_each(|_| m.incr(counter));
        }
        let s = m.snapshot(0, 0, 0);
        let line = s.to_string();
        let by_name: Vec<(&str, u64)> = s.counters().iter().collect();
        assert_eq!(by_name.len(), Counter::ALL.len());
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            let want = i as u64 + 1;
            assert_eq!(m.get(counter), want, "{counter:?}");
            assert_eq!(s.counters()[counter], want, "{counter:?}");
            assert_eq!(by_name[i], (counter.name(), want));
            let key = format!("{}={want}", counter.name());
            assert_eq!(
                line.split(' ').filter(|pair| **pair == key).count(),
                1,
                "`{key}` must appear exactly once in `{line}`"
            );
        }
        // The named fields spelled out, for a few entries across the table.
        assert_eq!(s.requests, 1);
        assert_eq!(s.shed_stale, m.get(Counter::ShedStale));
        assert_eq!(s.swaps_published, m.get(Counter::SwapsPublished));
        assert_eq!(s.spill_failures, m.get(Counter::SpillFailures));
    }

    #[test]
    fn pipeline_histogram_and_gauges_are_reported() {
        let m = ServeMetrics::new();
        m.incr(Counter::ConnsOpened);
        m.incr(Counter::ConnsOpened);
        m.incr(Counter::ConnsClosed);
        m.record_pipeline_depth(1);
        m.record_pipeline_depth(3);
        m.record_pipeline_depth(500);
        let s = m.snapshot(0, 0, 7);
        assert_eq!((s.conns_opened, s.conns_closed, s.open_conns), (2, 1, 1));
        assert_eq!(s.queue_depth, 7);
        let count_of =
            |ub: usize| s.pipeline_depth_histogram.iter().find(|&&(b, _)| b == ub).map(|&(_, c)| c);
        assert_eq!(count_of(1), Some(1));
        assert_eq!(count_of(4), Some(1)); // depth 3 lands in the <=4 bucket
        assert_eq!(count_of(usize::MAX), Some(1));
        let line = s.to_string();
        assert!(line.contains("queue_depth=7"));
        assert!(line.contains(" conns=1 "));
    }

    #[test]
    fn snapshot_display_is_human_readable() {
        let m = ServeMetrics::new();
        m.record_request(Duration::from_micros(10));
        m.record_batch(4);
        let line = m.snapshot(1, 1, 0).to_string();
        assert!(line.contains("requests=1"));
        assert!(line.contains("cache_hit_rate=50.0%"));
    }
}
