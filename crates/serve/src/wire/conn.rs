//! The per-connection state machine of the wire layer: preamble handshake,
//! frame decode, admission, and out-of-order response multiplexing.
//!
//! [`WireConn`] is deliberately **transport- and clock-agnostic**: it never
//! touches a socket or reads wall time. Bytes go in through
//! [`WireConn::feed`] (however they arrived — split, partial, coalesced),
//! decoded work is admitted and completed responses are encoded during
//! [`WireConn::pump`], and produced bytes come back out through
//! [`WireConn::output`]/[`WireConn::consume_output`]. The production
//! listener drives it from nonblocking sockets, as they become ready, under
//! the [`SystemClock`];
//! the deterministic harness ([`crate::sim`]) drives the *identical* code
//! from in-memory byte chunks under a [`VirtualClock`] — which is what makes
//! the socket boundary replay-testable.
//!
//! [`SystemClock`]: crate::SystemClock
//! [`VirtualClock`]: crate::VirtualClock
//!
//! ## Admission
//!
//! A decoded request is checked against the connection's pipeline window
//! and its table's id space, then handed to [`Router::admit`] — the same
//! admission path the in-process door takes, result cache and hot set
//! included. A cache hit is answered `Ok` within the same pump; everything
//! else queues on the table's shard or is shed.
//!
//! ## Pipelining and flow control
//!
//! A connection may have many requests in flight (each tagged with a client
//! request id); shard workers complete them in whatever order batches
//! execute, and each completion lands in the connection's [`Outbox`], to be
//! encoded as a response frame on the next pump — responses multiplex back
//! **out of order**. Flow control is admission control: a request that
//! would overflow its shard's bounded queue (or the connection's own
//! pipeline window) is answered immediately with an
//! [`Status::Overloaded`](crate::wire::Status) frame instead of queueing
//! unboundedly, and a request whose deadline budget expires while queued
//! comes back as `Status::DeadlineExceeded`.
//!
//! ## Zero allocation after warm-up
//!
//! Every request decoded on a warm connection reuses a pooled
//! [`RoutedRequest`] (predicate/interval buffers included) recycled by the
//! shard worker after execution; inbound/outbound byte queues, the
//! in-flight table, and the completion scratch all retain their capacity.
//! `tests/zero_alloc.rs` drives a warmed connection through decode →
//! admission → batch execution → response encode and asserts zero heap
//! traffic.

use crate::core::ServeCore;
use crate::metrics::{Counter, ServeMetrics};
use crate::online::OnlineDirectory;
use crate::router::{Admission, Clock, ReplyTo, RoutedRequest, Router, ShedReason, TableResources};
use crate::wire::frame::{
    self, DecodeError, FrameView, Status, DEFAULT_MAX_FRAME_LEN, PREAMBLE_LEN,
};
use crate::wire::readiness::Waker;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A contiguous FIFO of bytes with an explicit consumed prefix, reused
/// across reads so a warm connection never reallocates: consuming resets
/// the buffer when it empties, and pushing compacts the unconsumed tail to
/// the front (a `copy_within`, not an allocation) before appending.
#[derive(Debug, Default)]
pub(crate) struct ByteQueue {
    data: Vec<u8>,
    start: usize,
}

impl ByteQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The unconsumed bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.data[self.start..]
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len() - self.start
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.data.len()
    }

    /// Mark the first `n` unconsumed bytes as consumed.
    pub(crate) fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.data.len());
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
    }

    /// Append bytes, compacting the consumed prefix away first so the
    /// buffer's high-water capacity is the largest *unconsumed* span ever
    /// held, not the total traffic.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.data.copy_within(self.start.., 0);
            self.data.truncate(self.data.len() - self.start);
            self.start = 0;
        }
        self.data.extend_from_slice(bytes);
    }

    /// The underlying buffer for in-place appends (encoders push frames
    /// straight into the outbound queue); only valid while `start == 0` or
    /// appended bytes follow the unconsumed tail, which `push`/`consume`
    /// maintain.
    fn tail_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

/// A connection's completion mailbox and request pool, shared with the
/// shard workers executing its requests.
///
/// Workers `complete` outcomes as batches finish (any order); the
/// connection's next pump drains them into response frames. Executed
/// requests are `recycle`d here with their predicate/interval buffers
/// intact, so the connection's next decode reuses them — the
/// allocation-free steady state.
///
/// A connection owned by a listener thread also carries that thread's
/// waker: completions only become response frames on the connection's
/// next pump, and the thread that pumps it is blocked in `poll` until
/// something tells it to look.
#[derive(Debug, Default)]
pub struct Outbox {
    completions: Mutex<Vec<(u64, Result<f64, ShedReason>)>>,
    pool: Mutex<Vec<RoutedRequest>>,
    /// `None` where whoever pumps the connection needs no waking (the sim,
    /// tests driving a `WireConn` by hand).
    waker: Option<Arc<Waker>>,
}

impl Outbox {
    /// The waker of the thread that pumps this outbox's connection.
    pub(crate) fn waker(&self) -> Option<&Arc<Waker>> {
        self.waker.as_ref()
    }

    /// Whether completions are waiting for the connection's next pump.
    pub(crate) fn has_completions(&self) -> bool {
        !self.completions.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
    }

    // Both locks tolerate poisoning (`into_inner` on the error) instead of
    // panicking: shard workers touch the outbox inside the supervised
    // `catch_unwind` region, so a panic between lock and unlock marks the
    // mutex poisoned even though supervision keeps the process alive. The
    // guarded data stays structurally valid across such a panic — a
    // completions vec or request pool is never left mid-mutation by a push —
    // so continuing with the inner value is sound, and the alternative
    // (propagating the poison) would wedge the connection forever on a
    // fault the worker already recovered from.

    /// Record the outcome of request `request_id` (called by shard workers).
    pub(crate) fn complete(&self, request_id: u64, outcome: Result<f64, ShedReason>) {
        self.completions.lock().unwrap_or_else(|e| e.into_inner()).push((request_id, outcome));
    }

    /// Move all pending completions into `into` (capacity-reusing drain).
    pub(crate) fn drain_completions(&self, into: &mut Vec<(u64, Result<f64, ShedReason>)>) {
        let mut completions = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        into.append(&mut completions);
    }

    /// Return an executed request's carcass to the pool for reuse.
    pub(crate) fn recycle(&self, request: RoutedRequest) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).push(request);
    }

    /// Take a pooled request (buffers warm) or build a fresh empty one.
    pub(crate) fn take_pooled(&self) -> RoutedRequest {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or(RoutedRequest {
            table_id: 0,
            slot_uid: 0,
            preds: Vec::new(),
            intervals: Vec::new(),
            key: None,
            deadline: None,
            reply: ReplyTo::Discard,
        })
    }
}

/// Connection-level tuning shared by the listener and the sim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnConfig {
    /// Largest accepted frame body; a declared length beyond this is a
    /// protocol error and closes the connection.
    pub max_frame_len: usize,
    /// Most requests one connection may have in flight; request number
    /// `max_pipeline + 1` is answered `Overloaded` immediately (per-client
    /// flow control in front of the shared shard queues).
    pub max_pipeline: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        Self { max_frame_len: DEFAULT_MAX_FRAME_LEN, max_pipeline: 256 }
    }
}

/// Lifecycle of a connection's byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the 8-byte magic/version preamble.
    Handshake,
    /// Preamble validated; decoding frames.
    Open,
}

/// The server-side state machine of one wire connection (see the
/// [`crate::wire`] module docs).
#[derive(Debug)]
pub struct WireConn {
    phase: Phase,
    config: ConnConfig,
    inbound: ByteQueue,
    outbound: ByteQueue,
    outbox: Arc<Outbox>,
    /// `(request_id, admitted_at_ns)` for every in-flight request; order is
    /// irrelevant (completions `swap_remove`), length is the pipeline depth.
    inflight: Vec<(u64, u64)>,
    /// Reused drain target for outbox completions.
    completions: Vec<(u64, Result<f64, ShedReason>)>,
    /// Reused per-column ndv staging for table-info responses.
    ndv_scratch: Vec<u32>,
    /// Reused value-id staging for ingest frames.
    ids_scratch: Vec<u32>,
}

impl WireConn {
    /// A fresh connection awaiting its preamble.
    pub fn new(config: ConnConfig) -> Self {
        Self::with_waker(config, None)
    }

    /// A fresh connection whose completions wake `waker`'s thread (see
    /// [`Outbox`]).
    pub(crate) fn with_waker(config: ConnConfig, waker: Option<Arc<Waker>>) -> Self {
        Self {
            phase: Phase::Handshake,
            config,
            inbound: ByteQueue::new(),
            outbound: ByteQueue::new(),
            outbox: Arc::new(Outbox { waker, ..Outbox::default() }),
            inflight: Vec::new(),
            completions: Vec::new(),
            ndv_scratch: Vec::new(),
            ids_scratch: Vec::new(),
        }
    }

    /// Append bytes received from the transport (any chunking).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.inbound.push(bytes);
    }

    /// Encoded response bytes awaiting transmission.
    pub fn output(&self) -> &[u8] {
        self.outbound.bytes()
    }

    /// Mark `n` output bytes as transmitted.
    pub fn consume_output(&mut self, n: usize) {
        self.outbound.consume(n);
    }

    /// Requests currently in flight on this connection.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Whether the connection still owes the transport bytes.
    pub fn has_output(&self) -> bool {
        !self.outbound.is_empty()
    }

    /// Whether finished requests are waiting for the next [`WireConn::pump`]
    /// to turn them into response frames.
    pub(crate) fn has_completions(&self) -> bool {
        !self.inflight.is_empty() && self.outbox.has_completions()
    }

    /// Run the connection forward: finish the handshake if pending, decode
    /// and admit every complete inbound frame, then drain completed
    /// requests into response frames.
    ///
    /// Returns whether any progress was made (a frame decoded or a response
    /// encoded). A [`DecodeError`] means
    /// the byte stream is unrecoverable and the connection must be closed;
    /// in-flight requests still complete harmlessly into the outbox (their
    /// `Arc` keeps it alive) and are dropped with it.
    pub(crate) fn pump(&mut self, core: &ServeCore) -> Result<bool, DecodeError> {
        let (clock, metrics) = (core.clock.as_ref(), core.metrics.as_ref());
        let mut progressed = false;

        if self.phase == Phase::Handshake {
            if self.inbound.len() < PREAMBLE_LEN {
                // Not an error: the preamble itself may arrive split.
                self.drain_responses(clock, metrics);
                return Ok(false);
            }
            frame::decode_preamble(self.inbound.bytes())?;
            self.inbound.consume(PREAMBLE_LEN);
            self.phase = Phase::Open;
            progressed = true;
        }

        // Decode/admit every complete frame currently buffered. The frame
        // view borrows `self.inbound`, so the handlers are free functions
        // over the *other* fields (disjoint borrows).
        let tables = core.directory.read().expect("directory poisoned");
        loop {
            let consumed = {
                match frame::next_frame(self.inbound.bytes(), self.config.max_frame_len)? {
                    None => break,
                    Some((view, consumed)) => {
                        metrics.incr(Counter::FramesIn);
                        match view {
                            FrameView::Request(request) => admit(
                                request,
                                &self.config,
                                &self.outbox,
                                &mut self.inflight,
                                &mut self.outbound,
                                &core.router,
                                &tables,
                                clock,
                                metrics,
                            ),
                            FrameView::TableQuery(query) => resolve_table(
                                query,
                                &mut self.ndv_scratch,
                                &mut self.outbound,
                                &tables,
                                metrics,
                            ),
                            FrameView::Ingest(ingest) => handle_ingest(
                                ingest,
                                &mut self.ids_scratch,
                                &mut self.outbound,
                                &tables,
                                &core.online,
                                metrics,
                            ),
                            FrameView::Feedback(feedback) => handle_feedback(
                                feedback,
                                &mut self.outbound,
                                &tables,
                                &core.online,
                                metrics,
                            ),
                            // A server connection ignores server-to-client
                            // frames echoed back at it; they are
                            // structurally valid, just meaningless here.
                            FrameView::Response(_) | FrameView::TableInfo(_) => {}
                        }
                        consumed
                    }
                }
            };
            self.inbound.consume(consumed);
            progressed = true;
        }
        drop(tables);

        progressed |= self.drain_responses(clock, metrics);
        Ok(progressed)
    }

    /// Encode every completed request as a response frame; returns whether
    /// anything was drained.
    fn drain_responses(&mut self, clock: &dyn Clock, metrics: &ServeMetrics) -> bool {
        self.outbox.drain_completions(&mut self.completions);
        if self.completions.is_empty() {
            return false;
        }
        let now_ns = now_ns(clock);
        for (request_id, outcome) in self.completions.drain(..) {
            // Every outcome retires its in-flight entry; only an estimate is
            // a completed request (as on the in-process front door), so a
            // shed's queue wait stays out of `requests` and the latency ring.
            if let Some(at) = self.inflight.iter().position(|&(id, _)| id == request_id) {
                let (_, admitted_ns) = self.inflight.swap_remove(at);
                if outcome.is_ok() {
                    metrics
                        .record_request(Duration::from_nanos(now_ns.saturating_sub(admitted_ns)));
                }
            }
            let (status, value) = match outcome {
                Ok(value) => (Status::Ok, value),
                Err(ShedReason::DeadlineExpired) => (Status::DeadlineExceeded, 0.0),
                Err(ShedReason::QueueFull) => (Status::Overloaded, 0.0),
                // The table id this client resolved was re-registered while
                // the request sat queued: its binding is gone, so tell the
                // client to re-resolve the table.
                Err(ShedReason::StaleRegistration) => (Status::UnknownTable, 0.0),
                // Supervision caught a panic in the request's batch; the
                // worker respawned and a retry usually succeeds.
                Err(ShedReason::WorkerPanicked) => (Status::Internal, 0.0),
            };
            frame::encode_response(self.outbound.tail_mut(), request_id, status, value);
            metrics.incr(Counter::FramesOut);
        }
        true
    }
}

/// Admit one decoded request to its table's shard, or answer it immediately
/// with a typed status frame. A free function over [`WireConn`]'s fields so
/// it can run while the request view still borrows the inbound buffer.
#[allow(clippy::too_many_arguments)]
fn admit(
    request: frame::RequestView<'_>,
    config: &ConnConfig,
    outbox: &Arc<Outbox>,
    inflight: &mut Vec<(u64, u64)>,
    outbound: &mut ByteQueue,
    router: &Router,
    tables: &[TableResources],
    clock: &dyn Clock,
    metrics: &ServeMetrics,
) {
    let request_id = request.request_id;
    let Some(table) = tables.get(request.table_id as usize) else {
        frame::encode_response(outbound.tail_mut(), request_id, Status::UnknownTable, 0.0);
        metrics.incr(Counter::FramesOut);
        return;
    };
    if inflight.len() >= config.max_pipeline {
        // Per-connection flow control: the pipeline window is full.
        metrics.incr(Counter::ShedOverload);
        frame::encode_response(outbound.tail_mut(), request_id, Status::Overloaded, 0.0);
        metrics.incr(Counter::FramesOut);
        return;
    }

    let mut holder = outbox.take_pooled();
    request.read_into(&mut holder.preds, &mut holder.intervals);
    if !table.slot.fits_id_space(&holder.preds, &holder.intervals) {
        // Checked before queueing: a request outside the id space would
        // fail (or silently mis-encode) inside its batch, taking its
        // batch-mates down with it.
        metrics.incr(Counter::WireRejected);
        outbox.recycle(holder);
        frame::encode_response(outbound.tail_mut(), request_id, Status::Rejected, 0.0);
        metrics.incr(Counter::FramesOut);
        return;
    }
    holder.table_id = request.table_id;
    // A zero budget defers to the router's configured default.
    let budget =
        (request.deadline_us > 0).then(|| Duration::from_micros(u64::from(request.deadline_us)));
    let admitted_ns = now_ns(clock);
    let reply = || ReplyTo::Wire { outbox: outbox.clone(), request_id };
    let (status, value) = match router.admit(table, holder, budget, reply) {
        Admission::Queued { .. } => {
            inflight.push((request_id, admitted_ns));
            metrics.record_pipeline_depth(inflight.len());
            return;
        }
        Admission::Cached(value) => {
            // Answered at admission: a completed request, like any `Ok`.
            metrics.record_request(Duration::from_nanos(now_ns(clock).saturating_sub(admitted_ns)));
            (Status::Ok, value)
        }
        Admission::Shed { mut request, .. } => {
            // Recycle the holder (reply detached so the pool holds no
            // self-reference) and shed on the wire.
            request.reply = ReplyTo::Discard;
            outbox.recycle(request);
            (Status::Overloaded, 0.0)
        }
    };
    frame::encode_response(outbound.tail_mut(), request_id, status, value);
    metrics.incr(Counter::FramesOut);
}

/// `clock`'s reading in whole nanoseconds.
fn now_ns(clock: &dyn Clock) -> u64 {
    clock.now().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Answer a table-resolution query: linear scan over the directory
/// (resolution happens once per client at connection setup, not on the
/// request hot path).
fn resolve_table(
    query: frame::TableQueryView<'_>,
    ndv_scratch: &mut Vec<u32>,
    outbound: &mut ByteQueue,
    tables: &[TableResources],
    metrics: &ServeMetrics,
) {
    match tables.iter().position(|r| r.name.as_ref() == query.name) {
        Some(table_id) => {
            // Resolution may lazily reload an evicted model (the reply
            // carries per-column NDVs from its schema); a failed reload
            // answers UnknownTable so the client can retry resolution.
            let Ok((_, estimator)) = tables[table_id].slot.resolve(metrics) else {
                frame::encode_table_info(
                    outbound.tail_mut(),
                    query.request_id,
                    Status::UnknownTable,
                    0,
                    &[],
                );
                metrics.incr(Counter::FramesOut);
                return;
            };
            let schema = estimator.schema();
            ndv_scratch.clear();
            for column in schema.columns() {
                ndv_scratch.push(column.ndv().min(u32::MAX as usize) as u32);
            }
            frame::encode_table_info(
                outbound.tail_mut(),
                query.request_id,
                Status::Ok,
                table_id as u32,
                ndv_scratch,
            );
        }
        None => {
            frame::encode_table_info(
                outbound.tail_mut(),
                query.request_id,
                Status::UnknownTable,
                0,
                &[],
            );
        }
    }
    metrics.incr(Counter::FramesOut);
}

/// Apply one ingest frame to the table's online state and acknowledge it:
/// `Ok` with the new row count, `UnknownTable` when the table is missing or
/// not online-enabled, `Rejected` when the row itself is invalid.
fn handle_ingest(
    ingest: frame::IngestView<'_>,
    ids_scratch: &mut Vec<u32>,
    outbound: &mut ByteQueue,
    tables: &[TableResources],
    online: &OnlineDirectory,
    metrics: &ServeMetrics,
) {
    let request_id = ingest.request_id;
    let (status, value) = if tables.get(ingest.table_id as usize).is_none() {
        (Status::UnknownTable, 0.0)
    } else {
        match online.get(ingest.table_id as usize) {
            None => (Status::UnknownTable, 0.0),
            Some(table) => {
                ingest.read_ids_into(ids_scratch);
                match table.lock().expect("online table poisoned").ingest_row(ids_scratch) {
                    Ok(rows) => (Status::Ok, rows as f64),
                    Err(_) => (Status::Rejected, 0.0),
                }
            }
        }
    };
    frame::encode_response(outbound.tail_mut(), request_id, status, value);
    metrics.incr(Counter::FramesOut);
}

/// Queue one feedback frame on the table's online state and acknowledge it.
/// The feedback is stamped with the uid of the slot *currently* registered
/// under the table id; if the online state is bound to an older registration
/// the stamp mismatches and the feedback is `Rejected` (the wire face of the
/// stale-registration path), as is feedback outside the table's id space.
/// The decoded predicates move into the online table's queue, so they are
/// decoded into fresh vectors rather than reused staging.
fn handle_feedback(
    feedback: frame::FeedbackView<'_>,
    outbound: &mut ByteQueue,
    tables: &[TableResources],
    online: &OnlineDirectory,
    metrics: &ServeMetrics,
) {
    let request_id = feedback.request_id;
    let status = match tables.get(feedback.table_id as usize) {
        None => Status::UnknownTable,
        Some(resources) => match online.get(feedback.table_id as usize) {
            None => Status::UnknownTable,
            Some(table) => {
                let (mut preds, mut intervals) = (Vec::new(), Vec::new());
                feedback.read_into(&mut preds, &mut intervals);
                let pushed = table.lock().expect("online table poisoned").push_feedback(
                    resources.slot.uid(),
                    preds,
                    intervals,
                    feedback.actual,
                );
                match pushed {
                    Ok(()) => Status::Ok,
                    Err(_) => Status::Rejected,
                }
            }
        },
    };
    frame::encode_response(outbound.tail_mut(), request_id, status, 0.0);
    metrics.incr(Counter::FramesOut);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineConfig;
    use crate::router::VirtualClock;
    use crate::ServeConfig;
    use duet_core::{DuetConfig, DuetEstimator, IdPredicate};
    use duet_data::datasets::census_like;

    /// A core serving one online-enabled table, `census`, as id 0; the
    /// table's column count.
    fn online_core() -> (ServeCore, DuetEstimator, usize) {
        let table = census_like(200, 17);
        let estimator =
            DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 17);
        let config = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
        let core = ServeCore::new(&config, Arc::new(VirtualClock::new()));
        core.register("census", estimator.clone());
        let columns = table.num_columns();
        core.enable_online(0, table, OnlineConfig::default()).expect("the schema matches");
        (core, estimator, columns)
    }

    /// Pump one feedback frame through a fresh connection; the status of the
    /// response it is answered with.
    fn feedback_status(
        core: &ServeCore,
        preds: &[Vec<IdPredicate>],
        intervals: &[(u32, u32)],
    ) -> Status {
        let mut bytes = Vec::new();
        frame::encode_preamble(&mut bytes);
        frame::encode_feedback(&mut bytes, 9, 0, 12.0, preds, intervals);
        let mut conn = WireConn::new(ConnConfig::default());
        conn.feed(&bytes);
        conn.pump(core).expect("valid bytes");
        let (view, _) = frame::next_frame(conn.output(), DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        match view {
            FrameView::Response(response) => {
                assert_eq!(response.request_id, 9);
                response.status
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    #[test]
    fn feedback_stamped_against_a_reregistered_table_is_answered_rejected() {
        let (core, estimator, columns) = online_core();
        // The online state stays bound to the registration it was enabled
        // under; re-registering the table gives its id a fresh slot.
        core.register("census", estimator);
        let (preds, intervals) = (vec![Vec::new(); columns], vec![(0, 0); columns]);
        assert_eq!(feedback_status(&core, &preds, &intervals), Status::Rejected);
        assert_eq!(core.metrics().feedback_rejected, 1);
    }

    #[test]
    fn feedback_outside_the_id_space_is_answered_rejected() {
        let (core, _, columns) = online_core();
        let preds = vec![Vec::new(); columns];
        let mut intervals: Vec<(u32, u32)> =
            core.table(0).slot.ndvs().iter().map(|&n| (0, n)).collect();
        assert_eq!(feedback_status(&core, &preds, &intervals), Status::Ok);
        intervals[0].1 += 1000;
        assert_eq!(feedback_status(&core, &preds, &intervals), Status::Rejected);
        let online = core.online.get(0).expect("online-enabled");
        assert_eq!(online.lock().unwrap().feedback_len(), 1, "only the valid report is queued");
        assert_eq!(core.metrics().feedback_rejected, 1);
    }
}
