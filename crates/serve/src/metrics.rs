//! Serving metrics: request counters, latency percentiles, batch-size
//! histogram, and cache hit rate.
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

/// Batch-size histogram bucket upper bounds (inclusive); the last bucket is
/// open-ended.
pub const BATCH_BUCKETS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Live metrics shared by every worker and client of a [`crate::DuetServer`].
pub struct ServeMetrics {
    started: Instant,
    requests: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS.len() + 1],
    /// Requests rejected at admission because their shard queue was full.
    shed_overload: AtomicU64,
    /// Requests dropped at dequeue because their deadline had expired.
    shed_deadline: AtomicU64,
    /// Requests dropped at dequeue because the table was re-registered
    /// (different slot) after the request was encoded and queued.
    shed_stale: AtomicU64,
    /// Batches an idle worker stole from another shard's queue.
    steals: AtomicU64,
    /// Models evicted from the resident tier to checkpoint bytes.
    model_evictions: AtomicU64,
    /// Evicted models rebuilt from their checkpoint on demand.
    model_reloads: AtomicU64,
    /// Wire connections accepted / closed (their difference is the open
    /// gauge; two counters so the totals survive disconnects).
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    /// Complete frames decoded from / encoded to wire connections.
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    /// Connections torn down because their byte stream failed to decode.
    wire_decode_errors: AtomicU64,
    /// `accept` calls that failed with anything but `WouldBlock`.
    wire_accept_errors: AtomicU64,
    /// Returns of a listener thread from its readiness wait.
    wire_acceptor_wakeups: AtomicU64,
    /// Wake-up bytes shard workers wrote to blocked listener threads.
    wire_wake_signals: AtomicU64,
    /// Histogram of per-connection in-flight request counts, sampled at
    /// each admission (same bucket bounds as the batch histogram).
    pipeline_hist: [AtomicU64; BATCH_BUCKETS.len() + 1],
    /// Rows appended through the online ingest path.
    ingested_rows: AtomicU64,
    /// Trainer ticks on which drift was confirmed (threshold + hysteresis).
    drift_detections: AtomicU64,
    /// Online retrains started (drift- or feedback-triggered).
    retrains: AtomicU64,
    /// Retrained models published through the hot-swap path.
    swaps_published: AtomicU64,
    /// Feedback observations rejected (stale slot uid or invalid value).
    feedback_rejected: AtomicU64,
    /// Batch-execution panics caught by shard supervision.
    panics_caught: AtomicU64,
    /// Shard workers respawned with a fresh workspace pool after a panic.
    shard_restarts: AtomicU64,
    /// Evicted-model reload attempts that failed with a typed error.
    reload_failures: AtomicU64,
    /// Requests terminated with an internal fault (poisoned batch, failed
    /// reload) rather than a scheduling shed.
    shed_internal: AtomicU64,
    /// Evictions abandoned because the checkpoint spill failed (IO error or
    /// read-back verification); the model stays resident.
    spill_failures: AtomicU64,
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
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            batch_hist: Default::default(),
            shed_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_stale: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            model_evictions: AtomicU64::new(0),
            model_reloads: AtomicU64::new(0),
            conns_opened: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            wire_decode_errors: AtomicU64::new(0),
            wire_accept_errors: AtomicU64::new(0),
            wire_acceptor_wakeups: AtomicU64::new(0),
            wire_wake_signals: AtomicU64::new(0),
            pipeline_hist: Default::default(),
            ingested_rows: AtomicU64::new(0),
            drift_detections: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            swaps_published: AtomicU64::new(0),
            feedback_rejected: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            shard_restarts: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            shed_internal: AtomicU64::new(0),
            spill_failures: AtomicU64::new(0),
            latencies_ns: (0..LATENCY_WINDOW).map(|_| AtomicU64::new(0)).collect(),
            latency_cursor: AtomicU64::new(0),
        }
    }

    /// Record one completed request and its end-to-end latency (lock-free).
    pub fn record_request(&self, latency: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let at = self.latency_cursor.fetch_add(1, Ordering::Relaxed) % LATENCY_WINDOW as u64;
        self.latencies_ns[at as usize].store(ns, Ordering::Relaxed);
    }

    /// Record one executed forward batch of `size` queries.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries.fetch_add(size as u64, Ordering::Relaxed);
        let bucket = BATCH_BUCKETS.iter().position(|&ub| size <= ub).unwrap_or(BATCH_BUCKETS.len());
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request rejected at admission (shard queue full).
    pub fn record_shed_overload(&self) {
        self.shed_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request dropped at dequeue (deadline expired).
    pub fn record_shed_deadline(&self) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request dropped at dequeue because its table was
    /// re-registered (new slot) after the request was encoded.
    pub fn record_shed_stale(&self) {
        self.shed_stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one batch stolen by an idle worker from another shard.
    pub fn record_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one model evicted from the resident tier to checkpoint bytes.
    pub fn record_model_eviction(&self) {
        self.model_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one evicted model rebuilt from its checkpoint on demand.
    pub fn record_model_reload(&self) {
        self.model_reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one accepted wire connection.
    pub fn record_conn_opened(&self) {
        self.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one closed wire connection (EOF, shutdown, or decode error).
    pub fn record_conn_closed(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one complete frame decoded from a wire connection.
    pub fn record_frame_in(&self) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one frame encoded onto a wire connection.
    pub fn record_frame_out(&self) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection torn down by a protocol decode error.
    pub fn record_wire_decode_error(&self) {
        self.wire_decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed `accept` on a wire listener (anything but
    /// `WouldBlock`: descriptor exhaustion, a connection aborted in the
    /// backlog).
    pub fn record_wire_accept_error(&self) {
        self.wire_accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one return of a wire listener thread from its readiness wait
    /// — a thread that is idle records none.
    pub fn record_wire_acceptor_wakeup(&self) {
        self.wire_acceptor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one wake-up byte written by a shard worker to a blocked wire
    /// listener thread (at most one per retired batch and listener thread).
    pub fn record_wire_wake_signal(&self) {
        self.wire_wake_signals.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection's in-flight request count observed at admission
    /// (the pipelining-depth histogram).
    pub fn record_pipeline_depth(&self, depth: usize) {
        let bucket =
            BATCH_BUCKETS.iter().position(|&ub| depth <= ub).unwrap_or(BATCH_BUCKETS.len());
        self.pipeline_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one row appended through the online ingest path.
    pub fn record_ingested_row(&self) {
        self.ingested_rows.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one trainer tick on which drift was confirmed.
    pub fn record_drift_detection(&self) {
        self.drift_detections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one online retrain (drift- or feedback-triggered).
    pub fn record_retrain(&self) {
        self.retrains.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retrained model published through the hot-swap path.
    pub fn record_swap_published(&self) {
        self.swaps_published.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one rejected feedback observation (stale slot uid or invalid
    /// cardinality).
    pub fn record_feedback_rejected(&self) {
        self.feedback_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one batch-execution panic caught by shard supervision.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one shard worker respawned after a caught panic.
    pub fn record_shard_restart(&self) {
        self.shard_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one evicted-model reload attempt that failed with a typed
    /// error (unreadable spill file, corrupt or truncated checkpoint).
    pub fn record_reload_failure(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request terminated by an internal fault (poisoned batch or
    /// failed reload) — the fault-domain counterpart of the scheduling sheds.
    pub fn record_shed_internal(&self) {
        self.shed_internal.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one eviction abandoned because the checkpoint spill failed.
    pub fn record_spill_failure(&self) {
        self.spill_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests rejected at admission so far.
    pub fn shed_overload(&self) -> u64 {
        self.shed_overload.load(Ordering::Relaxed)
    }

    /// Requests dropped at dequeue so far.
    pub fn shed_deadline(&self) -> u64 {
        self.shed_deadline.load(Ordering::Relaxed)
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
        let requests = self.requests.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_queries = self.batched_queries.load(Ordering::Relaxed);

        let filled = (self.latency_cursor.load(Ordering::Relaxed) as usize).min(LATENCY_WINDOW);
        let mut sorted: Vec<f64> = self.latencies_ns[..filled]
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed) as f64 / 1_000.0)
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        let bucketize = |hist: &[AtomicU64]| {
            BATCH_BUCKETS
                .iter()
                .copied()
                .chain(std::iter::once(usize::MAX))
                .zip(hist.iter().map(|c| c.load(Ordering::Relaxed)))
                .collect()
        };
        let histogram = bucketize(&self.batch_hist);
        let pipeline_histogram = bucketize(&self.pipeline_hist);
        let conns_opened = self.conns_opened.load(Ordering::Relaxed);
        let conns_closed = self.conns_closed.load(Ordering::Relaxed);

        let cache_total = cache_hits + cache_misses;
        MetricsSnapshot {
            elapsed,
            requests,
            qps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_latency_us: percentile_sorted(&sorted, 50.0),
            p99_latency_us: percentile_sorted(&sorted, 99.0),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched_queries as f64 / batches as f64
            },
            batch_size_histogram: histogram,
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            shed_stale: self.shed_stale.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            model_evictions: self.model_evictions.load(Ordering::Relaxed),
            model_reloads: self.model_reloads.load(Ordering::Relaxed),
            conns_opened,
            open_conns: conns_opened.saturating_sub(conns_closed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            wire_decode_errors: self.wire_decode_errors.load(Ordering::Relaxed),
            wire_accept_errors: self.wire_accept_errors.load(Ordering::Relaxed),
            wire_acceptor_wakeups: self.wire_acceptor_wakeups.load(Ordering::Relaxed),
            wire_wake_signals: self.wire_wake_signals.load(Ordering::Relaxed),
            pipeline_depth_histogram: pipeline_histogram,
            ingested_rows: self.ingested_rows.load(Ordering::Relaxed),
            drift_detections: self.drift_detections.load(Ordering::Relaxed),
            retrains: self.retrains.load(Ordering::Relaxed),
            swaps_published: self.swaps_published.load(Ordering::Relaxed),
            feedback_rejected: self.feedback_rejected.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            shed_internal: self.shed_internal.load(Ordering::Relaxed),
            spill_failures: self.spill_failures.load(Ordering::Relaxed),
            queue_depth,
            cache_hits,
            cache_misses,
            cache_hit_rate: if cache_total == 0 {
                0.0
            } else {
                cache_hits as f64 / cache_total as f64
            },
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
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .field("batches", &self.batches.load(Ordering::Relaxed))
            .finish()
    }
}

/// A point-in-time view of a server's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Time since the server (metrics) was created.
    pub elapsed: Duration,
    /// Completed requests (cache hits included).
    pub requests: u64,
    /// Requests per second since startup.
    pub qps: f64,
    /// Median end-to-end request latency over the recent window, in µs.
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end request latency over the recent window, µs.
    pub p99_latency_us: f64,
    /// Forward batches executed.
    pub batches: u64,
    /// Mean queries per forward batch.
    pub mean_batch_size: f64,
    /// `(bucket upper bound, batches)` pairs; the `usize::MAX` bucket is
    /// open-ended.
    pub batch_size_histogram: Vec<(usize, u64)>,
    /// Requests rejected at admission because their shard queue was full.
    pub shed_overload: u64,
    /// Requests dropped at dequeue because their deadline had expired.
    pub shed_deadline: u64,
    /// Requests dropped at dequeue because their table was re-registered
    /// (different slot) while they were queued.
    pub shed_stale: u64,
    /// Batches an idle worker stole from another shard's queue.
    pub steals: u64,
    /// Models evicted from the resident tier to checkpoint bytes (memory
    /// budget pressure; see [`crate::ModelTier`]).
    pub model_evictions: u64,
    /// Evicted models rebuilt from their checkpoint by a request.
    pub model_reloads: u64,
    /// Wire connections accepted since startup.
    pub conns_opened: u64,
    /// Wire connections currently open (accepted minus closed).
    pub open_conns: u64,
    /// Complete frames decoded from wire connections.
    pub frames_in: u64,
    /// Frames encoded onto wire connections.
    pub frames_out: u64,
    /// Wire connections torn down by protocol decode errors.
    pub wire_decode_errors: u64,
    /// Failed `accept` calls on wire listeners (anything but `WouldBlock`).
    pub wire_accept_errors: u64,
    /// Returns of wire listener threads from their readiness wait. The
    /// threads block until a socket, a finished batch or a stop request
    /// needs them, so this stands still while the front door is idle and
    /// grows by about two per request served one at a time.
    pub wire_acceptor_wakeups: u64,
    /// Wake-up bytes shard workers wrote to blocked wire listener threads:
    /// at most one per retired batch and thread, none when the thread was
    /// already awake.
    pub wire_wake_signals: u64,
    /// `(bucket upper bound, samples)` histogram of per-connection in-flight
    /// request counts at admission; the `usize::MAX` bucket is open-ended.
    pub pipeline_depth_histogram: Vec<(usize, u64)>,
    /// Rows appended through the online ingest path.
    pub ingested_rows: u64,
    /// Trainer ticks on which drift was confirmed (threshold + hysteresis;
    /// see [`crate::online::DriftMonitor`]).
    pub drift_detections: u64,
    /// Online retrains started (drift- or feedback-triggered).
    pub retrains: u64,
    /// Retrained models published through the hot-swap path.
    pub swaps_published: u64,
    /// Feedback observations rejected (stale slot uid or invalid
    /// cardinality).
    pub feedback_rejected: u64,
    /// Batch-execution panics caught by shard supervision (every request in
    /// the poisoned batch still received a terminal internal-error reply).
    pub panics_caught: u64,
    /// Shard workers respawned with a fresh workspace pool after a panic.
    pub shard_restarts: u64,
    /// Evicted-model reload attempts that failed with a typed error.
    pub reload_failures: u64,
    /// Requests terminated with an internal fault (poisoned batch, failed
    /// reload) rather than a scheduling shed.
    pub shed_internal: u64,
    /// Evictions abandoned because the checkpoint spill failed; the model
    /// stayed resident.
    pub spill_failures: u64,
    /// Requests queued across all shards at snapshot time.
    pub queue_depth: usize,
    /// Result-cache hits across all tables.
    pub cache_hits: u64,
    /// Result-cache misses across all tables.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, or 0 before the first lookup.
    pub cache_hit_rate: f64,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} qps={:.0} p50={:.1}us p99={:.1}us batches={} mean_batch={:.2} \
             shed_overload={} shed_deadline={} shed_stale={} steals={} evictions={} reloads={} \
             queue_depth={} cache_hit_rate={:.1}% \
             conns={} frames_in={} frames_out={} decode_errors={} accept_errors={} \
             acceptor_wakeups={} wake_signals={} \
             ingested={} drifts={} retrains={} swaps={} feedback_rejected={} \
             panics_caught={} shard_restarts={} reload_failures={} shed_internal={} \
             spill_failures={}",
            self.requests,
            self.qps,
            self.p50_latency_us,
            self.p99_latency_us,
            self.batches,
            self.mean_batch_size,
            self.shed_overload,
            self.shed_deadline,
            self.shed_stale,
            self.steals,
            self.model_evictions,
            self.model_reloads,
            self.queue_depth,
            self.cache_hit_rate * 100.0,
            self.open_conns,
            self.frames_in,
            self.frames_out,
            self.wire_decode_errors,
            self.wire_accept_errors,
            self.wire_acceptor_wakeups,
            self.wire_wake_signals,
            self.ingested_rows,
            self.drift_detections,
            self.retrains,
            self.swaps_published,
            self.feedback_rejected,
            self.panics_caught,
            self.shard_restarts,
            self.reload_failures,
            self.shed_internal,
            self.spill_failures
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

    #[test]
    fn shed_counters_and_queue_depth_are_reported() {
        let m = ServeMetrics::new();
        m.record_shed_overload();
        m.record_shed_overload();
        m.record_shed_deadline();
        assert_eq!(m.shed_overload(), 2);
        assert_eq!(m.shed_deadline(), 1);
        let s = m.snapshot(0, 0, 7);
        assert_eq!(s.shed_overload, 2);
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.queue_depth, 7);
        let line = s.to_string();
        assert!(line.contains("shed_overload=2"));
        assert!(line.contains("shed_deadline=1"));
        assert!(line.contains("queue_depth=7"));
    }

    #[test]
    fn wire_counters_and_pipeline_histogram_are_reported() {
        let m = ServeMetrics::new();
        m.record_conn_opened();
        m.record_conn_opened();
        m.record_conn_closed();
        m.record_frame_in();
        m.record_frame_in();
        m.record_frame_out();
        m.record_wire_decode_error();
        m.record_wire_accept_error();
        m.record_wire_acceptor_wakeup();
        m.record_wire_acceptor_wakeup();
        m.record_wire_wake_signal();
        m.record_steal();
        m.record_pipeline_depth(1);
        m.record_pipeline_depth(3);
        m.record_pipeline_depth(500);
        let s = m.snapshot(0, 0, 0);
        assert_eq!(s.conns_opened, 2);
        assert_eq!(s.open_conns, 1);
        assert_eq!((s.frames_in, s.frames_out), (2, 1));
        assert_eq!(s.wire_decode_errors, 1);
        assert_eq!((s.wire_accept_errors, s.wire_acceptor_wakeups, s.wire_wake_signals), (1, 2, 1));
        assert_eq!(s.steals, 1);
        let count_of =
            |ub: usize| s.pipeline_depth_histogram.iter().find(|&&(b, _)| b == ub).map(|&(_, c)| c);
        assert_eq!(count_of(1), Some(1));
        assert_eq!(count_of(4), Some(1)); // depth 3 lands in the <=4 bucket
        assert_eq!(count_of(usize::MAX), Some(1));
        let line = s.to_string();
        assert!(line.contains("steals=1"));
        assert!(line.contains("conns=1"));
        assert!(line.contains("frames_in=2"));
        assert!(line.contains("accept_errors=1 acceptor_wakeups=2 wake_signals=1"));
    }

    #[test]
    fn fault_counters_are_reported() {
        let m = ServeMetrics::new();
        m.record_panic_caught();
        m.record_shard_restart();
        m.record_reload_failure();
        m.record_reload_failure();
        m.record_shed_internal();
        m.record_shed_internal();
        m.record_shed_internal();
        m.record_spill_failure();
        let s = m.snapshot(0, 0, 0);
        assert_eq!(s.panics_caught, 1);
        assert_eq!(s.shard_restarts, 1);
        assert_eq!(s.reload_failures, 2);
        assert_eq!(s.shed_internal, 3);
        assert_eq!(s.spill_failures, 1);
        let line = s.to_string();
        assert!(line.contains("panics_caught=1"));
        assert!(line.contains("shard_restarts=1"));
        assert!(line.contains("reload_failures=2"));
        assert!(line.contains("shed_internal=3"));
        assert!(line.contains("spill_failures=1"));
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
