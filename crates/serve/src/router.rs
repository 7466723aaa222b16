//! The serving router: consistent table→shard assignment over a shared pool
//! of worker shards, bounded per-shard queues, and admission control.
//!
//! PR 1's design ran **one worker thread per table** with an unbounded
//! channel: a burst on one hot table could stall that table arbitrarily and
//! nothing was ever rejected. The router replaces it with a **shared pool of
//! `N` worker shards**: every registered table is hashed (FNV-1a over its
//! name) onto a shard, so any number of tables is served by a fixed number
//! of threads, and a shard multiplexes requests for all of its tables
//! through one bounded FIFO queue.
//!
//! Every front door — in-process, wire, and the [`crate::sim`] harness —
//! admits through one function, `Router::admit`: result-cache probe and
//! hot-set observe, slot-uid stamp, deadline, then either *run now* (the
//! shard is idle and its executor free, so the caller runs the miss on its
//! own thread, see [`crate::batcher`]: an in-process caller, or a wire
//! acceptor with a connection's lone request) or enqueue. Admission control
//! is two-sided:
//!
//! * **at enqueue** — a shard whose queue is at capacity rejects the request
//!   immediately (the push fails, the server surfaces a typed `Overloaded`
//!   error). The queue can never grow without bound; overload sheds load
//!   instead of accumulating latency.
//! * **at dequeue** — a request carries an optional deadline; if it has
//!   already expired by the time a worker picks it up, the worker drops it
//!   with a [`ShedReason::DeadlineExpired`] reply instead of wasting a
//!   forward pass on an answer nobody is waiting for.
//!
//! A batch is formed at dequeue from what is already queued — the head
//! request plus every queued request for the same table, up to the worker's
//! cap — with no close-out wait, so batches grow only when requests back up
//! behind a running forward pass.
//!
//! All timing goes through the [`Clock`] trait: production uses the
//! monotonic [`SystemClock`], while the deterministic test harness
//! ([`crate::sim`]) drives the very same queue/admission/deadline code with
//! a manually-advanced [`VirtualClock`], which is what makes shed/served
//! counts exactly reproducible under a fixed seed.

use crate::batcher::CallerBatch;
use crate::cache::{key_from_ids, CacheKey, HotSet, ShardedCache};
use crate::metrics::{Counter, ServeMetrics};
use crate::registry::ModelSlot;
use crate::ServeConfig;
use duet_core::IdPredicate;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Monotonic time source used for deadlines.
///
/// Reported as a [`Duration`] since an arbitrary per-clock origin; only
/// differences are meaningful. Production serving uses [`SystemClock`]; the
/// deterministic harness substitutes a [`VirtualClock`].
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

/// The production clock: monotonic time since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A manually-advanced clock for deterministic tests: time only moves when
/// the driver says so, so deadline expiry is a pure function of the script.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `by` (saturating at `u64::MAX` nanoseconds).
    pub fn advance(&self, by: Duration) {
        let by = by.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.now_ns.fetch_add(by, Ordering::AcqRel);
    }

    /// Jump the clock to an absolute time since its origin.
    ///
    /// Time never moves backwards: a target earlier than the current time is
    /// ignored, so interleaved `set` calls keep the clock monotonic.
    pub fn set(&self, to: Duration) {
        let to = to.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.now_ns.fetch_max(to, Ordering::AcqRel);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns.load(Ordering::Acquire))
    }
}

/// Why the router refused to answer a request with an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The target shard's queue was at capacity when the request arrived —
    /// or, delivered by a worker, the request's batch could not reload the
    /// table's evicted model (the same retryable overload path).
    QueueFull,
    /// The request's deadline had already expired when a worker dequeued it.
    DeadlineExpired,
    /// The table was re-registered (a new slot, possibly a new schema)
    /// between the request's encoding and its dequeue; its predicate ids may
    /// no longer mean what they meant, so it is rejected instead of served.
    StaleRegistration,
    /// The request's batch hit an internal fault — a panic caught by shard
    /// supervision. The request itself may be fine; retrying on a respawned
    /// worker usually succeeds.
    WorkerPanicked,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "shard queue full"),
            ShedReason::DeadlineExpired => write!(f, "deadline expired before dequeue"),
            ShedReason::StaleRegistration => {
                write!(f, "table re-registered while the request was queued")
            }
            ShedReason::WorkerPanicked => {
                write!(f, "internal fault while the request's batch executed")
            }
        }
    }
}

/// Tuning knobs of the routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of worker shards (and worker threads) in the shared pool.
    pub num_shards: usize,
    /// Bound on each shard's queue; a request arriving at a full shard is
    /// rejected with a typed `Overloaded` error. `0` rejects everything
    /// (useful to test client-side overload handling deterministically).
    pub queue_capacity: usize,
    /// Per-request deadline budget measured from admission. A request still
    /// queued when its budget runs out is dropped at dequeue
    /// ([`ShedReason::DeadlineExpired`]) instead of occupying a forward
    /// pass. `None` disables deadline shedding.
    pub default_deadline: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { num_shards: 4, queue_capacity: 4096, default_deadline: None }
    }
}

/// Consistent table→shard assignment: FNV-1a over the table name, reduced
/// modulo the shard count. Stable across routers, processes and runs, so a
/// table always lands on the same shard for a given pool size.
pub fn shard_for(table: &str, num_shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in table.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % num_shards.max(1) as u64) as usize
}

/// Where a worker sends a request's outcome.
#[derive(Debug)]
pub(crate) enum ReplyTo {
    /// Production: a buffered channel back to the blocked client (buffered
    /// so the worker never blocks on a slow or vanished client).
    Channel(SyncSender<Result<f64, ShedReason>>),
    /// Wire connection: record under this request id in the connection's
    /// outbox; the connection's next pump turns it into a response frame.
    Wire {
        /// The owning connection's completion queue + request pool.
        outbox: Arc<crate::wire::Outbox>,
        /// Client-chosen correlation id echoed in the response frame.
        request_id: u64,
    },
    /// A wire request whose outcome has already been recorded in the outbox.
    /// `deliver` detaches `Wire` into this the moment it completes, so a
    /// supervised retry of the same batch can never answer twice; the outbox
    /// handle is retained so the struct can still be recycled into its pool.
    WireAnswered(Arc<crate::wire::Outbox>),
    /// Test harness: record under this ticket in the driver's outcome log.
    Ticket(u64),
    /// Measurement probes: discard the outcome.
    Discard,
}

/// One routed estimation request, already encoded against its table's schema.
#[derive(Debug)]
pub(crate) struct RoutedRequest {
    /// Dense registry id of the table; indexes the worker-shared directory.
    pub table_id: u32,
    /// Uid of the [`ModelSlot`] registration this request was encoded
    /// against. A worker compares it with the directory entry's slot at
    /// dequeue and rejects on mismatch
    /// ([`ShedReason::StaleRegistration`]): a re-registered table may serve
    /// a different schema, so encodings made against the old slot must
    /// never reach the new model.
    pub slot_uid: u64,
    /// Per-column id-space predicates of the query.
    pub preds: Vec<Vec<IdPredicate>>,
    /// Per-column valid-id intervals of the query.
    pub intervals: Vec<(u32, u32)>,
    /// Cache slot to fill with the result (`None` when caching is disabled).
    pub key: Option<CacheKey>,
    /// Clock time after which the request is dropped at dequeue.
    pub deadline: Option<Duration>,
    /// Outcome sink.
    pub reply: ReplyTo,
}

// The batch forward pass reads encodings and intervals straight out of the
// queued request structs — no per-batch re-gathering into parallel vectors.
impl AsRef<[Vec<IdPredicate>]> for RoutedRequest {
    fn as_ref(&self) -> &[Vec<IdPredicate>] {
        &self.preds
    }
}

impl AsRef<[(u32, u32)]> for RoutedRequest {
    fn as_ref(&self) -> &[(u32, u32)] {
        &self.intervals
    }
}

/// One registered table's serving record: what every front door admits
/// against and every shard worker executes against, shared through the
/// id-indexed directory.
#[derive(Debug, Clone)]
pub(crate) struct TableResources {
    pub name: Arc<str>,
    pub slot: Arc<ModelSlot>,
    /// The shard the table's requests queue on, fixed at registration.
    pub shard: usize,
    pub cache: Arc<ShardedCache>,
    /// Hottest cache keys, replayed into `cache` after a hot-swap.
    pub hot: Arc<HotSet>,
}

impl TableResources {
    /// The record of `slot` registered as `name` on shard `shard`, with its
    /// cache and hot set sized from `config` (a hot set only beside a cache).
    pub(crate) fn new(
        name: &str,
        slot: Arc<ModelSlot>,
        shard: usize,
        config: &ServeConfig,
    ) -> Self {
        let hot_keys = if config.cache_capacity > 0 { config.hot_keys } else { 0 };
        Self {
            name: Arc::from(name),
            slot,
            shard,
            cache: Arc::new(ShardedCache::new(config.cache_capacity, config.cache_shards)),
            hot: Arc::new(HotSet::new(hot_keys)),
        }
    }
}

/// How [`Router::admit`] disposed of one request.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Answered from the table's result cache; nothing was queued.
    Cached(f64),
    /// The shard was idle and the caller now holds its executor: the request
    /// comes back, stamped but without a reply, for the caller to stage and
    /// run on its own thread.
    RunNow(RoutedRequest),
    /// Queued on the table's shard, now `depth` deep.
    Queued { depth: usize },
    /// Refused: the shard was full (or drained). The request comes back so
    /// its door can recycle it.
    Shed { depth: usize, request: RoutedRequest },
}

/// The lock-protected interior of a [`Shard`]: the FIFO plus a reused
/// staging buffer for single-pass same-table batch formation.
struct ShardState {
    queue: VecDeque<RoutedRequest>,
    /// Scanned-but-unmatched requests staged during batch formation and
    /// reinstated at the queue front; reused so the hot loop never
    /// allocates.
    scratch: Vec<RoutedRequest>,
    /// Set when the worker reported [`Popped::Closed`] and left: nothing
    /// pops this queue again, so a later push would never be answered.
    drained: bool,
}

/// One worker shard: a bounded FIFO of routed requests plus the signalling
/// its worker thread parks on.
pub(crate) struct Shard {
    state: Mutex<ShardState>,
    available: Condvar,
    capacity: usize,
    closed: AtomicBool,
}

/// Outcome of a blocking dequeue.
pub(crate) enum Popped {
    /// `batch` holds at least one request (all for the same table).
    Batch,
    /// The router is shut down and the queue is fully drained.
    Closed,
    /// The idle park elapsed with nothing queued — the worker is free to
    /// look for work elsewhere (work-stealing).
    Idle,
}

impl Shard {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(ShardState {
                queue: VecDeque::new(),
                scratch: Vec::new(),
                drained: false,
            }),
            available: Condvar::new(),
            capacity,
            closed: AtomicBool::new(false),
        }
    }

    /// Admit a request, or reject it if the queue is at capacity or its
    /// worker has drained the queue and exited.
    ///
    /// Returns the queue depth after the push; on rejection the request is
    /// handed back so the caller can fail it without losing the reply
    /// channel.
    // The "large" Err is the point: rejection hands the request back whole
    // (reply channel and encodings intact) without a heap round trip.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, request: RoutedRequest) -> Result<usize, RoutedRequest> {
        let mut state = self.state.lock().expect("shard poisoned");
        if state.queue.len() >= self.capacity || state.drained {
            return Err(request);
        }
        state.queue.push_back(request);
        let depth = state.queue.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Whether a push would be admitted at depth `depth` of an empty queue:
    /// the shard is open, its worker has not drained it, nothing is queued,
    /// and the queue holds more than `depth` requests. A caller that already
    /// runs `depth` requests of its own on the shard's executor may run one
    /// more only then.
    fn idle_below(&self, depth: usize) -> bool {
        let state = self.state.lock().expect("shard poisoned");
        !self.closed.load(Ordering::Acquire)
            && !state.drained
            && state.queue.is_empty()
            && depth < self.capacity
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("shard poisoned").queue.len()
    }

    /// Move the head request plus every queued request for the same table
    /// (up to `max`, preserving arrival order) into `batch`.
    fn take_head_table(state: &mut ShardState, batch: &mut Vec<RoutedRequest>, max: usize) {
        if let Some(first) = state.queue.pop_front() {
            let table_id = first.table_id;
            batch.push(first);
            Self::take_matching(state, batch, table_id, max);
        }
    }

    /// Move queued requests for `table_id` into `batch` (order-preserving).
    ///
    /// One front-to-back pass: matches go to `batch`, scanned non-matches
    /// are staged in the reused scratch buffer and reinstated at the queue
    /// front in their original order — O(scanned) moves total, instead of a
    /// `VecDeque::remove` memmove per match, which would go quadratic on a
    /// deep queue of interleaved tables while holding the shard lock.
    fn take_matching(
        state: &mut ShardState,
        batch: &mut Vec<RoutedRequest>,
        table_id: u32,
        max: usize,
    ) {
        debug_assert!(state.scratch.is_empty());
        while batch.len() < max {
            match state.queue.pop_front() {
                Some(request) if request.table_id == table_id => batch.push(request),
                Some(request) => state.scratch.push(request),
                None => break,
            }
        }
        for request in state.scratch.drain(..).rev() {
            state.queue.push_front(request);
        }
    }

    /// Blocking dequeue for the production worker: waits for work, then
    /// forms a same-table batch from the queue head (up to `max_batch`) out
    /// of whatever is already queued — no close-out wait for stragglers.
    ///
    /// With `idle_park: Some(park)`, the wait-for-work phase gives up after
    /// `park` with [`Popped::Idle`] so the worker can go look for stealable
    /// work on other shards; with `None` it parks indefinitely.
    ///
    /// After [`Shard::close`], keeps returning batches until the queue is
    /// empty (graceful drain), then reports [`Popped::Closed`] and refuses
    /// every later push.
    pub(crate) fn pop_batch_blocking(
        &self,
        max_batch: usize,
        idle_park: Option<Duration>,
        batch: &mut Vec<RoutedRequest>,
    ) -> Popped {
        batch.clear();
        let mut state = self.state.lock().expect("shard poisoned");
        while state.queue.is_empty() {
            if self.closed.load(Ordering::Acquire) {
                state.drained = true;
                return Popped::Closed;
            }
            match idle_park {
                None => state = self.available.wait(state).expect("shard poisoned"),
                Some(park) => {
                    let (s, timeout) =
                        self.available.wait_timeout(state, park).expect("shard poisoned");
                    state = s;
                    if timeout.timed_out()
                        && state.queue.is_empty()
                        && !self.closed.load(Ordering::Acquire)
                    {
                        return Popped::Idle;
                    }
                }
            }
        }
        Self::take_head_table(&mut state, batch, max_batch.max(1));
        Popped::Batch
    }

    /// Non-blocking dequeue for the deterministic harness: form one
    /// same-table batch if any work is queued. Returns `false` when idle.
    pub(crate) fn try_pop_batch(&self, max_batch: usize, batch: &mut Vec<RoutedRequest>) -> bool {
        batch.clear();
        let mut state = self.state.lock().expect("shard poisoned");
        if state.queue.is_empty() {
            return false;
        }
        Self::take_head_table(&mut state, batch, max_batch.max(1));
        true
    }

    /// Mark the shard closed and wake its worker so it can drain and exit.
    ///
    /// The flag is set while holding the queue mutex: a worker is then
    /// either parked in `wait` (and receives the `notify_all`), or has not
    /// yet re-checked `closed` under the lock (and will observe it before
    /// parking). Setting the flag outside the lock would race a worker
    /// sitting between its `closed` check and `wait`, missing the only
    /// wakeup and hanging the server's shutdown join forever.
    fn close(&self) {
        let state = self.state.lock().expect("shard poisoned");
        self.closed.store(true, Ordering::Release);
        drop(state);
        self.available.notify_all();
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("depth", &self.depth())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// The routing layer: a fixed pool of bounded worker shards with consistent
/// table assignment, shared by every registered table.
///
/// A `Router` is owned by its [`crate::DuetServer`]; inspect it through
/// [`crate::DuetServer::router`]:
///
/// ```
/// use duet_core::{DuetConfig, DuetEstimator};
/// use duet_data::datasets::census_like;
/// use duet_serve::{shard_for, DuetServer, RouterConfig, ServeConfig};
///
/// let table = census_like(200, 1);
/// let cfg = DuetConfig::small().with_epochs(1);
/// let estimator = DuetEstimator::train_data_only(&table, &cfg, 1);
///
/// let config = ServeConfig {
///     router: RouterConfig { num_shards: 2, queue_capacity: 64, default_deadline: None },
///     ..ServeConfig::default()
/// };
/// let server = DuetServer::new(config);
/// server.register("census", estimator);
///
/// let router = server.router();
/// assert_eq!(router.num_shards(), 2);
/// // Assignment is a pure function of the name and the pool size.
/// assert_eq!(router.shard_index("census"), shard_for("census", 2));
/// assert_eq!(router.queue_depth(), 0, "nothing queued while idle");
/// ```
#[derive(Debug)]
pub struct Router {
    shards: Vec<Arc<Shard>>,
    clock: Arc<dyn Clock>,
    metrics: Arc<ServeMetrics>,
    config: RouterConfig,
}

impl Router {
    /// A router with `config.num_shards` empty shards.
    pub(crate) fn new(
        config: RouterConfig,
        clock: Arc<dyn Clock>,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let num = config.num_shards.max(1);
        Self {
            shards: (0..num).map(|_| Arc::new(Shard::new(config.queue_capacity))).collect(),
            clock,
            metrics,
            config,
        }
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `table` (consistent: depends only on the name and
    /// the pool size).
    pub fn shard_index(&self, table: &str) -> usize {
        shard_for(table, self.shards.len())
    }

    /// The shard at `index` (workers hold their own `Arc`).
    pub(crate) fn shard(&self, index: usize) -> &Arc<Shard> {
        &self.shards[index]
    }

    /// Every shard of the pool (workers clone this set so an idle worker
    /// can scan its siblings for stealable work).
    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The one admission path of every front door (in-process, wire, sim):
    /// `request` arrives encoded against `table`'s id space and leaves
    /// answered from the cache, to run now, queued, or shed. `budget`
    /// overrides the router's default deadline budget.
    ///
    /// `caller` is a door's hold on the table's shard executor: the
    /// in-process door's, or a wire acceptor's for a connection's lone
    /// request (see [`crate::wire::WireConn`]). It is `None` for every other
    /// wire request and from the sim, which queue. A miss runs
    /// now — on the caller's thread, without a reply sink — when the shard
    /// would have admitted it at the depth of the caller's own batch on an
    /// empty queue ([`Shard`] open, not drained, nothing queued, capacity
    /// left) and the caller holds, or can take at once, the executor.
    /// Otherwise `reply` builds the reply sink and the request is queued;
    /// `reply` runs only then, so a hit or a run-now miss never allocates
    /// one.
    pub(crate) fn admit(
        &self,
        table: &TableResources,
        mut request: RoutedRequest,
        budget: Option<Duration>,
        caller: Option<&mut CallerBatch<'_>>,
        reply: impl FnOnce() -> ReplyTo,
    ) -> Admission {
        request.key = if table.cache.capacity() > 0 {
            let ndvs = table.slot.ndvs();
            let key =
                key_from_ids(table.slot.generation(), &request.preds, &request.intervals, |col| {
                    ndvs[col] as usize
                });
            // Hits never reach a worker, so admission is the only place the
            // hottest keys are visible.
            table.hot.observe(&key, &request.preds, &request.intervals);
            if let Some(value) = table.cache.get(&key) {
                return Admission::Cached(value);
            }
            Some(key)
        } else {
            None
        };
        // Bind the request to the table's current registration: if the table
        // is re-registered before a worker dequeues it, the uid mismatch
        // rejects it there instead of decoding it against the wrong schema.
        request.slot_uid = table.slot.uid();
        request.deadline =
            budget.or(self.config.default_deadline).map(|budget| self.clock.now() + budget);
        let shard = &self.shards[table.shard];
        if let Some(caller) = caller {
            if shard.idle_below(caller.staged()) && caller.hold() {
                return Admission::RunNow(request);
            }
        }
        request.reply = reply();
        match shard.try_push(request) {
            Ok(depth) => Admission::Queued { depth },
            Err(request) => {
                self.metrics.incr(Counter::ShedOverload);
                Admission::Shed { depth: shard.depth(), request }
            }
        }
    }

    /// Total queued requests across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.depth()).sum()
    }

    /// Close every shard (workers drain their queues, then exit).
    pub(crate) fn close(&self) {
        for shard in &self.shards {
            shard.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shard(capacity: usize) -> Shard {
        Shard::new(capacity)
    }

    fn request(table_id: u32, deadline: Option<Duration>) -> RoutedRequest {
        RoutedRequest {
            table_id,
            slot_uid: 0,
            preds: Vec::new(),
            intervals: Vec::new(),
            key: None,
            deadline,
            reply: ReplyTo::Discard,
        }
    }

    #[test]
    fn shard_assignment_is_consistent_and_covers_pool() {
        for shards in [1usize, 2, 4, 7] {
            for name in ["census", "dmv", "kddcup98", "orders", "lineitem"] {
                let a = shard_for(name, shards);
                let b = shard_for(name, shards);
                assert_eq!(a, b, "assignment must be deterministic");
                assert!(a < shards);
            }
        }
        // Enough distinct names spread over more than one shard.
        let hit: std::collections::HashSet<usize> =
            (0..32).map(|i| shard_for(&format!("table-{i}"), 4)).collect();
        assert!(hit.len() > 1, "32 tables should not all hash to one of 4 shards");
    }

    #[test]
    fn bounded_queue_rejects_at_capacity() {
        let shard = test_shard(2);
        assert_eq!(shard.try_push(request(0, None)).unwrap(), 1);
        assert_eq!(shard.try_push(request(0, None)).unwrap(), 2);
        assert!(shard.try_push(request(0, None)).is_err(), "third push must be rejected");
        assert_eq!(shard.depth(), 2);

        let zero = test_shard(0);
        assert!(zero.try_push(request(0, None)).is_err(), "capacity 0 rejects everything");
    }

    #[test]
    fn pop_groups_head_table_and_preserves_order() {
        let shard = test_shard(16);
        for table_id in [1u32, 2, 1, 1, 2, 1] {
            shard.try_push(request(table_id, None)).unwrap();
        }
        let mut batch = Vec::new();
        assert!(shard.try_pop_batch(64, &mut batch));
        assert_eq!(batch.iter().map(|r| r.table_id).collect::<Vec<_>>(), vec![1, 1, 1, 1]);
        assert!(shard.try_pop_batch(64, &mut batch));
        assert_eq!(batch.iter().map(|r| r.table_id).collect::<Vec<_>>(), vec![2, 2]);
        assert!(!shard.try_pop_batch(64, &mut batch), "queue should be drained");
        assert_eq!(shard.depth(), 0);
    }

    #[test]
    fn pop_respects_max_batch_size() {
        let shard = test_shard(16);
        for _ in 0..5 {
            shard.try_push(request(3, None)).unwrap();
        }
        let mut batch = Vec::new();
        assert!(shard.try_pop_batch(2, &mut batch));
        assert_eq!(batch.len(), 2);
        assert_eq!(shard.depth(), 3, "remaining requests stay queued");
    }

    #[test]
    fn pop_batch_blocking_batches_idles_and_drains_on_close() {
        let shard = test_shard(16);
        let park = Some(Duration::from_millis(2));
        for table_id in [1u32, 2, 1, 1, 1] {
            shard.try_push(request(table_id, None)).unwrap();
        }
        let mut batch = Vec::new();
        let mut pop = |max: usize| {
            let popped = shard.pop_batch_blocking(max, park, &mut batch);
            (popped, batch.iter().map(|r| r.table_id).collect::<Vec<_>>())
        };

        // Batch: the head table's requests, in arrival order, capped at max.
        assert!(matches!(pop(2), (Popped::Batch, ids) if ids == [1, 1]));
        assert!(matches!(pop(64), (Popped::Batch, ids) if ids == [2]));
        assert!(matches!(pop(64), (Popped::Batch, ids) if ids == [1, 1]));
        // Idle: the park elapses on an empty queue.
        assert!(matches!(pop(64), (Popped::Idle, ids) if ids.is_empty()));
        // Closed: the queued remainder still comes out first, then Closed.
        shard.try_push(request(3, None)).unwrap();
        shard.close();
        assert!(matches!(pop(64), (Popped::Batch, ids) if ids == [3]));
        assert!(matches!(pop(64), (Popped::Closed, ids) if ids.is_empty()));
    }

    #[test]
    fn virtual_clock_is_monotonic_and_manual() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.set(Duration::from_millis(3)); // backwards jump ignored
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.set(Duration::from_millis(9));
        assert_eq!(clock.now(), Duration::from_millis(9));
    }

    #[test]
    fn system_clock_advances() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
