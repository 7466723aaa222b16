//! The shard worker: dequeues same-table batches from its routed queue and
//! runs each through one `N×W` forward pass.
//!
//! A worker serves **every table hashed onto its shard**, not one fixed
//! table: each popped batch holds requests for a single table (the router
//! groups at dequeue), and the worker runs every batch through one
//! persistent [`duet_core::DuetWorkspace`]. The workspace is scratch only
//! (each model carries its own weights and packs) and its buffers keep
//! their capacity when they reshape, so it grows to the widest table on the
//! shard and then stops allocating, however the tables alternate; its
//! memory does not grow with the number of tables. In steady state the hot
//! loop — admission,
//! dequeue/grouping, deadline triage, and the batched forward pass —
//! performs **zero heap allocation of its own** (asserted by
//! `tests/zero_alloc.rs`); the only allocations on the serving path are the
//! per-request encodings the clients hand in (and their eventual frees).
//! Every batch runs on a shard executor (`ShardWorker`, one per shard, owned
//! by the serving core behind a mutex), entirely on the thread that holds
//! it: a shard's worker thread on its own shard's executor (also for a
//! batch it stole from a sibling), or a caller that found its table's shard
//! idle, on that shard's executor (`CallerBatch`): an in-process caller
//! with its misses, or a wire acceptor with a connection's lone request. An
//! executor runs one batch at a time, so the shards are the serving path's
//! only source of parallelism and memory is one workspace per shard.
//!
//! The scheduling policy is two constants, not settings: a batch holds at
//! most `MAX_BATCH` (64) requests and forms without waiting for stragglers,
//! and an idle worker steals from a sibling shard whose queue is at least
//! `STEAL_THRESHOLD` (2) deep.
//!
//! Because the batched path is bit-identical to the single-query path (see
//! `duet_core::estimator`), neither the shard a table hashes to nor the
//! batch composition a request lands in can ever change its answer:
//! concurrent clients always observe the same estimates a serial client
//! would.

use crate::core::ServeCore;
use crate::metrics::{Counter, ServeMetrics};
use crate::router::{Popped, ReplyTo, RoutedRequest, ShedReason, TableResources};
use crate::tier::ModelTier;
use duet_core::DuetWorkspace;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Largest number of queries fused into one forward pass — the only value
/// the batcher has ever been configured with.
pub(crate) const MAX_BATCH: usize = 64;

/// Queue depth a sibling shard must reach before an idle worker steals a
/// batch from it — the default since stealing was added, never tuned
/// (`docs/PERFORMANCE.md` records the one reading with stealing off).
const STEAL_THRESHOLD: usize = 2;

/// How long an idle worker parks on its own empty queue before scanning
/// other shards for stealable work (only when there is more than one shard).
const IDLE_PARK: Duration = Duration::from_micros(500);

/// A shard's executor, reused across every batch the shard runs: the
/// workspace, the results buffer, the ticket outcome log, the requests a
/// caller stages, and the fault hook. None of these reallocate once they
/// have grown to the steady-state shape of every table on the shard.
///
/// The serving core holds one per shard behind a mutex; whoever runs a
/// batch of the shard holds it for the batch.
pub(crate) struct ShardWorker {
    /// The forward workspace every batch runs through, whatever its table.
    ws: DuetWorkspace,
    /// Cardinalities of the live prefix of the batch, in order.
    results: Vec<f64>,
    /// Ticket outcomes of the batches run since the holder last drained
    /// it, in delivery order.
    pub(crate) outcomes: Vec<(u64, Result<f64, ShedReason>)>,
    /// The misses a [`CallerBatch`] stages to run on its own thread.
    staged: Vec<RoutedRequest>,
    /// Fault-injection hook, fired once per executed batch right before the
    /// forward pass. Production never arms it (the `None` check is free and
    /// allocation-free); the deterministic harness and the tests inject
    /// panics here to exercise the supervision path.
    pub(crate) fault: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl ShardWorker {
    pub(crate) fn new() -> Self {
        Self {
            ws: DuetWorkspace::new(),
            results: Vec::new(),
            outcomes: Vec::new(),
            staged: Vec::new(),
            fault: None,
        }
    }

    /// Reset execution state after a caught panic: the workspace and results
    /// may have been poisoned mid-forward, so both are rebuilt; the fault
    /// hook stays armed.
    pub(crate) fn respawn(&mut self) {
        self.ws = DuetWorkspace::new();
        self.results = Vec::new();
    }

    /// Execute `batch` (all requests share one table): triage expired
    /// requests, run the live ones through a single batched forward pass on
    /// the shard's workspace, store tagged cache entries, and deliver every
    /// reply. Returns the number of queries the forward pass ran (0 when
    /// none ran).
    ///
    /// `batch` is left holding the processed requests (live ones first)
    /// so callers can recycle or drop them; ticket replies are appended to
    /// `self.outcomes`.
    pub(crate) fn execute(
        &mut self,
        batch: &mut [RoutedRequest],
        tables: &[TableResources],
        now: Duration,
        metrics: &ServeMetrics,
        tier: &ModelTier,
    ) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let table_id = batch[0].table_id as usize;
        let resources = &tables[table_id];
        let outcomes = &mut self.outcomes;

        // Triage at dequeue, compacting live requests to the batch front
        // (stable, in-place, allocation-free). A request whose slot uid no
        // longer matches was queued against a *previous registration* of
        // this table id: its predicates were encoded with that
        // registration's schema, so decoding them against the current model
        // would silently misread columns. Reject it instead of answering
        // wrong. Then reply-and-drop requests whose deadline budget ran out
        // while queued.
        let slot_uid = resources.slot.uid();
        let mut live = 0;
        for i in 0..batch.len() {
            let stale = batch[i].slot_uid != slot_uid;
            let expired = batch[i].deadline.is_some_and(|deadline| now > deadline);
            if stale {
                metrics.incr(Counter::ShedStale);
                deliver(&mut batch[i].reply, Err(ShedReason::StaleRegistration), outcomes);
            } else if expired {
                metrics.incr(Counter::ShedDeadline);
                deliver(&mut batch[i].reply, Err(ShedReason::DeadlineExpired), outcomes);
            } else {
                batch.swap(live, i);
                live += 1;
            }
        }
        if live == 0 {
            return 0;
        }
        tier.observe(table_id, live as u64);

        // Snapshot the cache epoch BEFORE resolving the model, then resolve
        // the model once per batch: requests enqueued after a hot-swap can
        // only ever be served by the new (or a newer) model. A swap landing
        // anywhere after the epoch snapshot bumps the epoch (the server
        // invalidates the cache on swap), so the tagged inserts below are
        // either rejected or removed by the purge — the stranded-entry
        // window is closed entirely. The generation travels with the
        // weights so every insert is labelled with the model that actually
        // computed it.
        //
        // Resolving may lazily reload a model the tier evicted; if the
        // reload fails (spill I/O, corrupt checkpoint) the batch is shed on
        // the retryable overload path rather than crashing the worker.
        let epoch = resources.cache.epoch();
        let Ok((generation, estimator)) = resources.slot.resolve(metrics) else {
            for request in &mut batch[..live] {
                metrics.incr(Counter::ShedOverload);
                deliver(&mut request.reply, Err(ShedReason::QueueFull), outcomes);
            }
            return 0;
        };
        if let Some(fault) = &self.fault {
            fault();
        }
        estimator.estimate_encoded_batch_with(
            &batch[..live],
            &batch[..live],
            &mut self.ws,
            &mut self.results,
        );
        metrics.record_batch(live);

        for (request, &value) in batch[..live].iter_mut().zip(self.results.iter()) {
            if let Some(key) = &request.key {
                resources.cache.insert_tagged(key.with_generation(generation), value, epoch);
            }
            deliver(&mut request.reply, Ok(value), outcomes);
        }

        // Serving this batch may have pushed (or kept) the directory over
        // the model-memory budget: evict cold models until it fits again.
        // The table just served is never the victim.
        tier.enforce(tables, table_id, metrics);
        live
    }
}

impl std::fmt::Debug for ShardWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWorker")
            .field("staged", &self.staged.len())
            .field("fault", &self.fault.is_some())
            .finish_non_exhaustive()
    }
}

/// A caller's hold on its table's shard executor for one run of misses: an
/// in-process caller's, or a wire acceptor's for a connection's lone request.
/// Empty until a miss finds the shard idle ([`crate::Router::admit`]
/// decides), then held, with every miss admitted to run now staged on it,
/// until [`CallerBatch::run`] executes them as one batch on the caller's
/// thread. Dropping it unrun releases the executor and drops what it
/// staged.
pub(crate) struct CallerBatch<'e> {
    executor: &'e Mutex<ShardWorker>,
    held: Option<MutexGuard<'e, ShardWorker>>,
}

impl<'e> CallerBatch<'e> {
    /// A hold on `executor`, not yet taken.
    pub(crate) fn new(executor: &'e Mutex<ShardWorker>) -> Self {
        Self { executor, held: None }
    }

    /// Requests staged so far.
    pub(crate) fn staged(&self) -> usize {
        self.held.as_ref().map_or(0, |executor| executor.staged.len())
    }

    /// Hold the executor, taking it now if no other thread has it; `false`
    /// when another thread does (the shard's worker, running its own or a
    /// stolen batch, or another caller).
    pub(crate) fn hold(&mut self) -> bool {
        if self.held.is_none() {
            self.held = match self.executor.try_lock() {
                Ok(executor) => Some(executor),
                Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => None,
            };
        }
        self.held.is_some()
    }

    /// Stage `request` (its reply a [`ReplyTo::Ticket`]) into the batch.
    /// Only a request [`crate::Router::admit`] admitted to run now, which
    /// holds the executor, comes here.
    pub(crate) fn stage(&mut self, request: RoutedRequest) {
        self.held
            .as_mut()
            .expect("a request runs now only on a held executor")
            .staged
            .push(request);
    }

    /// Run the staged requests as one supervised batch through
    /// [`ServeCore::run_batch`] on this thread, against `tables` (the
    /// directory the caller holds read-locked), hand each ticket outcome to
    /// `answer` and each executed request to `retire`, and release the
    /// executor. A batch whose forward pass ran counts as a caller batch.
    pub(crate) fn run(
        mut self,
        core: &ServeCore,
        tables: &[TableResources],
        mut answer: impl FnMut(u64, Result<f64, ShedReason>),
        retire: impl FnMut(RoutedRequest),
    ) {
        let Some(executor) = self.held.as_deref_mut() else { return };
        let mut batch = std::mem::take(&mut executor.staged);
        if core.run_batch(executor, tables, &mut batch) > 0 {
            core.metrics.incr(Counter::CallerBatches);
        }
        batch.drain(..).for_each(retire);
        executor.staged = batch;
        for (ticket, outcome) in executor.outcomes.drain(..) {
            answer(ticket, outcome);
        }
    }
}

impl Drop for CallerBatch<'_> {
    fn drop(&mut self) {
        if let Some(executor) = &mut self.held {
            // A door that failed before running its batch drops its misses.
            executor.staged.clear();
        }
    }
}

/// Send one outcome to its sink and **detach the reply** (a vanished client
/// is not an error).
///
/// Detaching — `Channel`/`Ticket` become `Discard`, `Wire` becomes
/// `WireAnswered` — is the exactly-once guarantee: whatever happens to the
/// batch afterwards (a caught panic, a supervised retry, recycling), a
/// request whose reply has already been delivered can never be answered a
/// second time, and [`fail_batch`] can tell exactly which requests still owe
/// a terminal reply.
fn deliver(
    reply: &mut ReplyTo,
    outcome: Result<f64, ShedReason>,
    outcomes: &mut Vec<(u64, Result<f64, ShedReason>)>,
) {
    match std::mem::replace(reply, ReplyTo::Discard) {
        ReplyTo::Channel(tx) => {
            let _ = tx.send(outcome);
        }
        ReplyTo::Wire { outbox, request_id } => {
            outbox.complete(request_id, outcome);
            // Keep the outbox handle so the request can be recycled into
            // its connection's pool after the batch retires.
            *reply = ReplyTo::WireAnswered(outbox);
        }
        ReplyTo::WireAnswered(outbox) => *reply = ReplyTo::WireAnswered(outbox),
        ReplyTo::Ticket(ticket) => outcomes.push((ticket, outcome)),
        ReplyTo::Discard => {}
    }
}

/// Terminate every not-yet-answered request of a poisoned batch with
/// [`ShedReason::WorkerPanicked`] — the reply half of shard supervision.
///
/// Requests whose replies were already delivered (detached by [`deliver`])
/// are left alone, so a panic after partial delivery fails exactly the
/// remainder: every request still receives exactly one terminal reply.
pub(crate) fn fail_batch(
    batch: &mut [RoutedRequest],
    metrics: &ServeMetrics,
    outcomes: &mut Vec<(u64, Result<f64, ShedReason>)>,
) {
    for request in batch.iter_mut() {
        if matches!(request.reply, ReplyTo::Channel(_) | ReplyTo::Wire { .. } | ReplyTo::Ticket(_))
        {
            metrics.incr(Counter::ShedInternal);
            deliver(&mut request.reply, Err(ShedReason::WorkerPanicked), outcomes);
        }
    }
}

/// Execute `batch` on the shard executor `worker` under supervision: a
/// panic anywhere in batch execution (a poisoned model forward, a failing
/// cache shard — any bug or injected fault) is caught here instead of
/// killing the thread that runs it, a shard worker or an in-process caller.
/// Returns the number of queries the forward pass ran, 0 when none ran or
/// the batch panicked.
///
/// On a caught panic every unanswered request in the batch is terminated
/// with a typed internal error ([`fail_batch`]) and the executor is
/// respawned with a fresh workspace, since a panic mid-forward can leave
/// workspace buffers in an arbitrary state. The thread never dies:
/// supervision is in-thread, so respawn costs one workspace rebuild —
/// no thread spawn, no queue handoff, and the `catch_unwind` itself is free
/// on the no-panic path.
pub(crate) fn execute_supervised(
    worker: &mut ShardWorker,
    batch: &mut [RoutedRequest],
    tables: &[TableResources],
    now: Duration,
    metrics: &ServeMetrics,
    tier: &ModelTier,
) -> usize {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker.execute(batch, tables, now, metrics, tier)
    }));
    caught.unwrap_or_else(|_| {
        metrics.incr(Counter::PanicsCaught);
        fail_batch(batch, metrics, &mut worker.outcomes);
        worker.respawn();
        metrics.incr(Counter::ShardRestarts);
        0
    })
}

/// Hand an executed batch's wire requests (their predicate/interval buffers
/// intact) back to their connection's outbox pool so the next decode on that
/// connection reuses the allocations. Every other request stays in the batch
/// for its owner: the harness hands it back to its driver, and the next pop
/// clears it. This is what keeps the steady-state wire path
/// allocation-free.
///
/// It is also where the listener threads behind those connections are told
/// to look: every completion of the batch is in its outbox by now, so each
/// thread is woken once per batch (if it is blocked at all — see
/// [`crate::wire::readiness`]) and finds all of its replies on one pump.
pub(crate) fn recycle_batch(batch: &mut Vec<RoutedRequest>, metrics: &ServeMetrics) {
    let wire = |request: &mut RoutedRequest| {
        matches!(request.reply, ReplyTo::Wire { .. } | ReplyTo::WireAnswered(_))
    };
    for mut request in batch.extract_if(.., wire) {
        // Detach the reply first: a pooled request must not keep a cyclic
        // strong reference to the outbox that owns the pool.
        if let ReplyTo::Wire { outbox, .. } | ReplyTo::WireAnswered(outbox) =
            std::mem::replace(&mut request.reply, ReplyTo::Discard)
        {
            outbox.recycle(request);
            if outbox.waker().is_some_and(|waker| waker.wake()) {
                metrics.incr(Counter::WireWakeSignals);
            }
        }
    }
}

/// Lock a shard's executor for one batch. Nothing poisons it: every batch
/// runs supervised.
pub(crate) fn lock(executor: &Mutex<ShardWorker>) -> MutexGuard<'_, ShardWorker> {
    executor.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Production worker loop: one thread per shard, runs until the router is
/// closed and its own shard's queue is drained.
///
/// Each batch is whatever the queue holds for the head request's table when
/// the worker wakes, up to [`MAX_BATCH`] — there is no close-out wait, so
/// batching emerges from backlog under load and a lone request pays no
/// artificial delay. The worker pops into its own batch buffer, then locks
/// its shard's executor to run the batch (an in-process caller may be
/// running one of its own on it). With more than one shard, a worker whose
/// own queue stays empty for a full idle park scans the other shards and
/// **steals one batch** from the deepest queue at least
/// [`STEAL_THRESHOLD`] deep. Batch execution is shard-agnostic (the thief
/// runs it on its own shard's executor and answers are bit-identical
/// wherever they run), so stealing only changes *when* a backlogged
/// request is served — one cold shard can no longer idle next to a
/// drowning neighbor.
pub(crate) fn run_shard_worker(shard_index: usize, core: Arc<ServeCore>) {
    let shards = core.router.shards();
    let stealing = shards.len() > 1;
    let executor = core.executor(shard_index);
    let mut batch = Vec::new();
    loop {
        let idle_park = stealing.then_some(IDLE_PARK);
        match shards[shard_index].pop_batch_blocking(MAX_BATCH, idle_park, &mut batch) {
            Popped::Closed => break,
            Popped::Batch => {
                core.run_batch(&mut lock(executor), &core.tables(), &mut batch);
            }
            Popped::Idle => {
                // Own queue empty for a whole park: steal one batch from the
                // deepest sibling at or above the threshold, if any.
                let victim = shards
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != shard_index)
                    .map(|(_, s)| (s.depth(), s))
                    .max_by_key(|(depth, _)| *depth);
                if let Some((depth, victim)) = victim {
                    if depth >= STEAL_THRESHOLD && victim.try_pop_batch(MAX_BATCH, &mut batch) {
                        core.metrics.incr(Counter::Steals);
                        core.run_batch(&mut lock(executor), &core.tables(), &mut batch);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::canonical_key;
    use crate::registry::ModelSlot;
    use crate::router::{Admission, RouterConfig, Shard, SystemClock};
    use crate::ServeConfig;
    use duet_core::{DuetConfig, DuetEstimator};
    use duet_data::datasets::census_like;
    use duet_query::{CardinalityEstimator, Query, WorkloadSpec};
    use std::sync::mpsc;
    use std::sync::mpsc::SyncSender;

    fn test_shard(capacity: usize) -> Shard {
        Shard::new(capacity)
    }

    fn resources_for(estimator: &DuetEstimator, name: &str) -> TableResources {
        resources_with(estimator, name, ServeConfig { cache_capacity: 0, ..ServeConfig::default() })
    }

    fn resources_with(
        estimator: &DuetEstimator,
        name: &str,
        config: ServeConfig,
    ) -> TableResources {
        TableResources::new(name, Arc::new(ModelSlot::new(estimator.clone())), 0, &config)
    }

    /// Build a request against the table's *current registration*: encoded
    /// with its schema and stamped with its slot uid, exactly as the server
    /// front door does.
    fn request_for(
        resources: &TableResources,
        table_id: u32,
        query: &Query,
        deadline: Option<Duration>,
        reply: SyncSender<Result<f64, ShedReason>>,
    ) -> RoutedRequest {
        let (preds, intervals) = resources.slot.encode(query);
        RoutedRequest {
            table_id,
            slot_uid: resources.slot.uid(),
            preds,
            intervals,
            key: None,
            deadline,
            reply: ReplyTo::Channel(reply),
        }
    }

    #[test]
    fn worker_batches_backlog_and_answers_bit_identically() {
        let table = census_like(300, 31);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 11);
        let queries = WorkloadSpec::random(&table, 16, 5).generate(&table);
        let expected = est.estimate_batch(&queries);

        let shard = test_shard(64);
        let tables = vec![resources_for(&est, "census")];
        let mut replies = Vec::new();
        for q in &queries {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            shard.try_push(request_for(&tables[0], 0, q, None, reply)).unwrap();
            replies.push(reply_rx);
        }
        let metrics = ServeMetrics::new();
        let tier = ModelTier::new(0);
        let mut worker = ShardWorker::new();
        let mut batch = Vec::new();
        assert!(shard.try_pop_batch(64, &mut batch));
        worker.execute(&mut batch, &tables, Duration::ZERO, &metrics, &tier);

        let got: Vec<f64> = replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();
        assert_eq!(got, expected);
        let snapshot = metrics.snapshot(0, 0, 0);
        assert_eq!(snapshot.batches, 1, "a pre-queued backlog should fuse into one batch");
        assert!((snapshot.mean_batch_size - 16.0).abs() < 1e-9);
        assert!(worker.outcomes.is_empty(), "channel replies must not leak into the ticket log");
    }

    #[test]
    fn worker_interleaves_tables_through_one_workspace() {
        let (t1, t2) = (census_like(250, 31), census_like(350, 52));
        let cfg = DuetConfig::small().with_epochs(1);
        let est1 = DuetEstimator::train_data_only(&t1, &cfg, 3);
        let est2 = DuetEstimator::train_data_only(&t2, &cfg, 4);
        let q1 = WorkloadSpec::random(&t1, 6, 6).generate(&t1);
        let q2 = WorkloadSpec::random(&t2, 6, 7).generate(&t2);
        let (e1, e2) = (est1.estimate_batch(&q1), est2.estimate_batch(&q2));

        let shard = test_shard(64);
        let tables = vec![resources_for(&est1, "t1"), resources_for(&est2, "t2")];
        let mut replies = Vec::new();
        // Interleave the two tables in one queue.
        for i in 0..6 {
            for (table_id, queries) in [(0u32, &q1), (1, &q2)] {
                let (reply, reply_rx) = mpsc::sync_channel(1);
                let resources = &tables[table_id as usize];
                shard.try_push(request_for(resources, table_id, &queries[i], None, reply)).unwrap();
                replies.push((table_id, i, reply_rx));
            }
        }
        let metrics = ServeMetrics::new();
        let tier = ModelTier::new(0);
        let mut worker = ShardWorker::new();
        let mut batch = Vec::new();
        // Two pops: one per table (head-of-queue grouping).
        for _ in 0..2 {
            assert!(shard.try_pop_batch(64, &mut batch));
            worker.execute(&mut batch, &tables, Duration::ZERO, &metrics, &tier);
            batch.clear();
        }
        for (table_id, i, rx) in replies {
            let expected = if table_id == 0 { e1[i] } else { e2[i] };
            assert_eq!(rx.recv().unwrap().unwrap(), expected, "table {table_id} query {i}");
        }
        let snapshot = metrics.snapshot(0, 0, 0);
        assert_eq!(snapshot.batches, 2, "one batch per table");
    }

    #[test]
    fn expired_requests_are_dropped_at_dequeue() {
        let table = census_like(200, 32);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 3);
        let queries = WorkloadSpec::random(&table, 4, 6).generate(&table);
        let expected = est.estimate_batch(&queries);

        let shard = test_shard(64);
        let tables = vec![resources_for(&est, "census")];
        let mut replies = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            // Odd requests carry an already-tight deadline.
            let deadline = if i % 2 == 1 {
                Some(Duration::from_millis(1))
            } else {
                Some(Duration::from_secs(60))
            };
            let (reply, reply_rx) = mpsc::sync_channel(1);
            shard.try_push(request_for(&tables[0], 0, q, deadline, reply)).unwrap();
            replies.push(reply_rx);
        }
        let metrics = ServeMetrics::new();
        let tier = ModelTier::new(0);
        let mut worker = ShardWorker::new();
        let mut batch = Vec::new();
        assert!(shard.try_pop_batch(64, &mut batch));
        // Dequeue happens at t = 2ms: the 1ms deadlines have expired.
        worker.execute(&mut batch, &tables, Duration::from_millis(2), &metrics, &tier);

        for (i, rx) in replies.iter().enumerate() {
            let got = rx.recv().unwrap();
            if i % 2 == 1 {
                assert_eq!(got, Err(ShedReason::DeadlineExpired), "request {i}");
            } else {
                assert_eq!(got, Ok(expected[i]), "live request {i} must still be bit-identical");
            }
        }
        let snapshot = metrics.snapshot(0, 0, 0);
        assert_eq!(snapshot.shed_deadline, 2);
        assert!((snapshot.mean_batch_size - 2.0).abs() < 1e-9, "only live requests count");
    }

    #[test]
    fn worker_fills_cache_entries() {
        let table = census_like(200, 33);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 4);
        let query = WorkloadSpec::random(&table, 1, 7).generate(&table).remove(0);
        let key = canonical_key(&est, 0, &query);
        let expected = est.estimate_batch(std::slice::from_ref(&query))[0];

        let config = ServeConfig { cache_capacity: 16, cache_shards: 2, ..ServeConfig::default() };
        let tables = vec![resources_with(&est, "census", config)];
        let cache = tables[0].cache.clone();
        let shard = test_shard(8);
        let (reply, reply_rx) = mpsc::sync_channel(1);
        let mut request = request_for(&tables[0], 0, &query, None, reply);
        request.key = Some(key.clone());
        shard.try_push(request).unwrap();

        let metrics = ServeMetrics::new();
        let tier = ModelTier::new(0);
        let mut worker = ShardWorker::new();
        let mut batch = Vec::new();
        assert!(shard.try_pop_batch(8, &mut batch));
        worker.execute(&mut batch, &tables, Duration::ZERO, &metrics, &tier);

        assert_eq!(reply_rx.recv().unwrap().unwrap(), expected);
        assert_eq!(cache.get(&key), Some(expected));
    }

    /// A core of `num_shards` shards serving `est` as table 0, cache off.
    fn core_with(est: &DuetEstimator, num_shards: usize) -> Arc<ServeCore> {
        let config = ServeConfig {
            router: RouterConfig { num_shards, ..RouterConfig::default() },
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let core = Arc::new(ServeCore::new(&config, Arc::new(SystemClock::new())));
        core.register("census", est.clone());
        core
    }

    /// Encode `query` for table 0 of `core` and admit it through the door
    /// `caller` stands for; a queued request's reply receiver comes back
    /// beside the admission.
    fn admit_miss(
        core: &ServeCore,
        query: &Query,
        caller: &mut CallerBatch<'_>,
    ) -> (Admission, Option<mpsc::Receiver<Result<f64, ShedReason>>>) {
        let record = core.table(0);
        let request = core.prepare(0, &record, query);
        let mut receiver = None;
        let admission = core.router.admit(&record, request, None, Some(caller), || {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            receiver = Some(reply_rx);
            ReplyTo::Channel(reply)
        });
        (admission, receiver)
    }

    #[test]
    fn an_idle_shard_runs_the_callers_misses_as_one_batch_on_its_thread() {
        let table = census_like(250, 38);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 9);
        let queries = WorkloadSpec::random(&table, 8, 13).generate(&table);
        let mut reference = est.clone();
        let expected: Vec<f64> = queries.iter().map(|q| reference.estimate(q)).collect();

        let core = core_with(&est, 1);
        let mut caller = CallerBatch::new(core.executor(0));
        for (i, query) in queries.iter().enumerate() {
            match admit_miss(&core, query, &mut caller) {
                (Admission::RunNow(mut request), None) => {
                    request.reply = ReplyTo::Ticket(i as u64);
                    caller.stage(request);
                }
                (other, _) => panic!("query {i} on an idle shard: {other:?}"),
            }
        }
        assert_eq!(caller.staged(), queries.len());
        assert!(core.executor(0).try_lock().is_err(), "the caller holds the executor");
        let mut got = vec![f64::NAN; queries.len()];
        caller.run(
            &core,
            &core.tables(),
            |ticket, outcome| got[ticket as usize] = outcome.unwrap(),
            drop,
        );
        assert_eq!(got, expected);
        assert!(core.executor(0).try_lock().is_ok(), "running the batch releases the executor");

        let snapshot = core.metrics();
        assert_eq!((snapshot.batches, snapshot.caller_batches), (1, 1), "one batch, not eight");
        assert_eq!(snapshot.batched_queries, queries.len() as u64);
    }

    #[test]
    fn a_miss_queues_when_the_executor_is_held_or_the_queue_is_not_empty() {
        let table = census_like(250, 39);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 10);
        let queries = WorkloadSpec::random(&table, 2, 14).generate(&table);
        let expected = est.estimate_batch(&queries);

        let core = core_with(&est, 1);
        let mut replies = Vec::new();
        // Another thread is mid-batch on the shard: the miss queues.
        let held = lock(core.executor(0));
        let mut caller = CallerBatch::new(core.executor(0));
        match admit_miss(&core, &queries[0], &mut caller) {
            (Admission::Queued { depth: 1 }, Some(reply_rx)) => replies.push(reply_rx),
            (other, _) => panic!("a held executor must queue the miss: {other:?}"),
        }
        drop(caller);
        drop(held);
        // The executor is free, but a request is queued ahead: the miss
        // queues behind it and the caller never takes the executor.
        let mut caller = CallerBatch::new(core.executor(0));
        match admit_miss(&core, &queries[1], &mut caller) {
            (Admission::Queued { depth: 2 }, Some(reply_rx)) => replies.push(reply_rx),
            (other, _) => panic!("a non-empty queue must queue the miss: {other:?}"),
        }
        assert_eq!(caller.staged(), 0);
        assert!(core.executor(0).try_lock().is_ok(), "the caller took no executor");
        drop(caller);

        let mut batch = Vec::new();
        assert!(core.router.shard(0).try_pop_batch(MAX_BATCH, &mut batch));
        core.run_batch(&mut lock(core.executor(0)), &core.tables(), &mut batch);
        let got: Vec<f64> = replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();
        assert_eq!(got, expected);
        let snapshot = core.metrics();
        assert_eq!((snapshot.batches, snapshot.caller_batches), (1, 0));
    }

    #[test]
    fn a_shard_that_admits_nothing_never_runs_a_miss_on_the_caller() {
        let table = census_like(250, 40);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 12);
        let query = WorkloadSpec::random(&table, 1, 15).generate(&table).remove(0);

        // No queue capacity: shed, as the queue would shed it.
        let config = ServeConfig {
            router: RouterConfig { num_shards: 1, queue_capacity: 0, default_deadline: None },
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let core = ServeCore::new(&config, Arc::new(SystemClock::new()));
        core.register("census", est.clone());
        let mut caller = CallerBatch::new(core.executor(0));
        assert!(matches!(
            admit_miss(&core, &query, &mut caller).0,
            Admission::Shed { depth: 0, .. }
        ));

        // Closed: queued for the draining worker, not run on the caller...
        let core = core_with(&est, 1);
        core.router.close();
        let mut caller = CallerBatch::new(core.executor(0));
        let (admission, reply_rx) = admit_miss(&core, &query, &mut caller);
        assert!(matches!(admission, Admission::Queued { depth: 1 }), "{admission:?}");
        drop(caller);
        run_shard_worker(0, core.clone());
        assert_eq!(
            reply_rx.unwrap().recv().unwrap(),
            Ok(est.estimate_batch(std::slice::from_ref(&query))[0])
        );
        // ...and once the worker has drained and left, shed.
        let mut caller = CallerBatch::new(core.executor(0));
        assert!(matches!(
            admit_miss(&core, &query, &mut caller).0,
            Admission::Shed { depth: 0, .. }
        ));
        assert_eq!(core.metrics().caller_batches, 0);
    }

    #[test]
    fn run_shard_worker_drains_and_exits_on_close() {
        let table = census_like(250, 34);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 5);
        let queries = WorkloadSpec::random(&table, 8, 9).generate(&table);
        let expected = est.estimate_batch(&queries);

        let core = core_with(&est, 1);
        let resources = core.table(0);
        let mut replies = Vec::new();
        for q in &queries {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            core.router.shard(0).try_push(request_for(&resources, 0, q, None, reply)).unwrap();
            replies.push(reply_rx);
        }

        let handle = {
            let core = core.clone();
            std::thread::spawn(move || run_shard_worker(0, core))
        };
        let got: Vec<f64> = replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();
        assert_eq!(got, expected);
        core.router.close();
        handle.join().unwrap();
    }

    #[test]
    fn idle_worker_steals_backlog_from_deep_sibling() {
        let table = census_like(250, 35);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 6);
        let queries = WorkloadSpec::random(&table, 6, 10).generate(&table);
        let expected = est.estimate_batch(&queries);

        let core = core_with(&est, 2);
        let resources = core.table(0);
        // Backlog lands on shard 1, but only shard 0 gets a worker: every
        // answer must come from a steal.
        let mut replies = Vec::new();
        for q in &queries {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            core.router.shard(1).try_push(request_for(&resources, 0, q, None, reply)).unwrap();
            replies.push(reply_rx);
        }

        let handle = {
            let core = core.clone();
            std::thread::spawn(move || run_shard_worker(0, core))
        };
        let got: Vec<f64> = replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();
        assert_eq!(got, expected, "stolen batches must stay bit-identical");
        core.router.close();
        handle.join().unwrap();
        assert!(
            core.metrics().steals >= 1,
            "serving a foreign shard's backlog must be recorded as a steal"
        );
    }

    #[test]
    fn a_panicking_batch_fails_typed_and_the_worker_respawns() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let table = census_like(250, 37);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 8);
        let queries = WorkloadSpec::random(&table, 6, 12).generate(&table);
        let expected = est.estimate_batch(&queries);

        let shard = test_shard(64);
        let tables = vec![resources_for(&est, "census")];
        let metrics = ServeMetrics::new();
        let tier = ModelTier::new(0);
        let mut worker = ShardWorker::new();
        // Panic on the first executed batch only.
        let executions = Arc::new(AtomicU64::new(0));
        let hook_counter = executions.clone();
        worker.fault = Some(Arc::new(move || {
            if hook_counter.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("injected model fault");
            }
        }));
        let mut batch = Vec::new();

        // Round 1: the batch poisons the worker; every request must still
        // get a typed terminal reply.
        let mut replies = Vec::new();
        for q in &queries {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            shard.try_push(request_for(&tables[0], 0, q, None, reply)).unwrap();
            replies.push(reply_rx);
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        assert!(shard.try_pop_batch(64, &mut batch));
        execute_supervised(&mut worker, &mut batch, &tables, Duration::ZERO, &metrics, &tier);
        std::panic::set_hook(prev);
        recycle_batch(&mut batch, &metrics);
        for rx in &replies {
            assert_eq!(rx.recv().unwrap(), Err(ShedReason::WorkerPanicked));
        }

        // Round 2: the respawned worker serves bit-identically.
        let mut replies = Vec::new();
        for q in &queries {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            shard.try_push(request_for(&tables[0], 0, q, None, reply)).unwrap();
            replies.push(reply_rx);
        }
        assert!(shard.try_pop_batch(64, &mut batch));
        execute_supervised(&mut worker, &mut batch, &tables, Duration::ZERO, &metrics, &tier);
        recycle_batch(&mut batch, &metrics);
        let got: Vec<f64> = replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();
        assert_eq!(got, expected, "post-respawn answers must stay bit-identical");

        let snapshot = metrics.snapshot(0, 0, 0);
        assert_eq!(snapshot.panics_caught, 1);
        assert_eq!(snapshot.shard_restarts, 1);
        assert_eq!(snapshot.shed_internal, queries.len() as u64);
        assert!(worker.outcomes.is_empty(), "channel replies must not leak into the ticket log");
    }

    /// Regression test for the in-flight re-register race: requests queued
    /// against one registration of a table id must never be decoded by a
    /// model registered later under the same id — their predicate encodings
    /// belong to the old schema.
    #[test]
    fn requests_for_a_replaced_registration_are_rejected_at_dequeue() {
        use duet_core::DuetModel;
        use duet_data::{TableBuilder, Value};

        let table = census_like(250, 36);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 7);
        let queries = WorkloadSpec::random(&table, 5, 11).generate(&table);

        let shard = test_shard(64);
        let mut tables = vec![resources_for(&est, "t")];
        let mut replies = Vec::new();
        for q in &queries {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            shard.try_push(request_for(&tables[0], 0, q, None, reply)).unwrap();
            replies.push(reply_rx);
        }

        // While those requests sit queued, the table id is re-registered
        // with a model for a *different schema* — the race this guards
        // against. The new slot carries a fresh uid.
        let mut b = TableBuilder::new("tiny", vec!["a".into(), "b".into()]);
        for i in 0..20 {
            b.push_row(vec![Value::Int(i % 4), Value::Int(i % 3)]);
        }
        let tiny = b.build();
        let replacement = DuetEstimator::from_model(
            DuetModel::new(&tiny, &DuetConfig::small(), 1),
            &tiny,
            "tiny",
        );
        tables[0] = resources_for(&replacement, "t");

        let metrics = ServeMetrics::new();
        let tier = ModelTier::new(0);
        let mut worker = ShardWorker::new();
        let mut batch = Vec::new();
        assert!(shard.try_pop_batch(64, &mut batch));
        worker.execute(&mut batch, &tables, Duration::ZERO, &metrics, &tier);

        for rx in &replies {
            assert_eq!(rx.recv().unwrap(), Err(ShedReason::StaleRegistration));
        }
        let snapshot = metrics.snapshot(0, 0, 0);
        assert_eq!(snapshot.shed_stale, queries.len() as u64);
        assert_eq!(snapshot.batches, 0, "no forward pass may run on mismatched encodings");
    }
}
