//! The estimation server: the serving core (registry, router, table
//! directory, model tier, online directory, metrics) plus the shard worker
//! threads that run its batches, behind a blocking, thread-safe `estimate`
//! call.
//!
//! A [`DuetServer`] is `Sync`; wrap it in an `Arc` and call
//! [`DuetServer::estimate`] from as many client threads as you like. Model
//! slots live in an embedded [`crate::ModelRegistry`]; registered tables are hashed
//! onto a **shared pool of worker shards** (see [`crate::router`]) instead
//! of one thread per table, each table gets its own result cache, and
//! metrics are aggregated server-wide.
//!
//! A miss that finds its shard idle — nothing queued, no batch running —
//! is run by the calling thread itself, on the shard's executor, through
//! the same supervised batch path a worker runs: a lone request pays no
//! reply channel and no hand-off to the worker thread. The wire door
//! ([`DuetServer::serve_wire`]) does the same for a connection's lone
//! request (one frame read, nothing in flight): its acceptor runs it and
//! writes the reply, with no wake byte. Every other miss queues on its
//! shard and is answered by the shard's worker.
//!
//! Overload semantics: every shard queue is bounded
//! ([`RouterConfig::queue_capacity`]); a request that would overflow its
//! shard is rejected immediately with [`ServeError::Overloaded`] — the
//! server sheds load instead of queueing unboundedly. With a configured
//! [`RouterConfig::default_deadline`], a request that is still queued when
//! its budget expires is dropped at dequeue and fails with
//! [`ServeError::DeadlineExceeded`].

use crate::batcher::{run_shard_worker, CallerBatch, MAX_BATCH};
use crate::core::ServeCore;
use crate::metrics::MetricsSnapshot;
use crate::online::{OnlineConfig, OnlineTickReport, OnlineTrainerHandle};
use crate::registry::SwapError;
use crate::router::{Admission, ReplyTo, Router, RouterConfig, ShedReason, SystemClock};
use crate::tier::ModelTier;
use duet_core::DuetEstimator;
use duet_data::Table;
use duet_query::Query;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Routing and admission control: shard count, per-shard queue bound,
    /// per-request deadline budget.
    pub router: RouterConfig,
    /// Total result-cache entries per table; 0 disables caching. The cache
    /// fronts both doors: in-process estimates and wire requests probe it at
    /// admission, so a hit never reaches a shard queue.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards per table.
    pub cache_shards: usize,
    /// Per-table capacity of the hot-key tracker replayed into the cache
    /// after a model hot-swap (see [`crate::HotSet`]); 0 disables the
    /// post-swap warm-up replay. Only effective when caching is enabled;
    /// requests through either door are observed.
    pub hot_keys: usize,
    /// Upper bound on the summed resident weight bytes of all registered
    /// models; 0 (the default) keeps every model resident. With a positive
    /// budget the shard workers evict the coldest models to checkpoint
    /// bytes and lazily reload them on demand (see [`crate::ModelTier`]).
    pub model_budget_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            cache_capacity: 4096,
            cache_shards: 8,
            hot_keys: 64,
            model_budget_bytes: 0,
        }
    }
}

/// Why a serving call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No model is registered under the given table name.
    UnknownTable(String),
    /// The table's worker shard is gone (server shutting down).
    WorkerUnavailable(String),
    /// The table's shard queue was at capacity, or its worker had already
    /// drained it and stopped (the server shut down): the request was shed
    /// at admission instead of queued. Retry later or against another
    /// replica.
    Overloaded {
        /// Table the request addressed.
        table: String,
        /// Shard whose queue was full.
        shard: usize,
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The request's deadline budget expired while it was queued; it was
    /// dropped at dequeue without running a forward pass.
    DeadlineExceeded(String),
    /// The table was re-registered (new model, possibly a new schema) while
    /// the request sat in its shard queue; the request's encoding belongs
    /// to the old registration. Re-issue it against the current model.
    StaleRegistration(String),
    /// The table's model could not be brought resident (an evicted model's
    /// checkpoint failed to reload). Retry later.
    ModelUnavailable(String),
    /// The request's batch hit an internal fault: a panic caught by shard
    /// supervision. The worker was respawned with a fresh workspace;
    /// the request itself may be fine — retrying usually succeeds. A
    /// synchronous online tick that panicked answers this too; its table is
    /// then no longer online-enabled.
    Internal(String),
    /// A model swap failed; the previous model keeps serving.
    Swap(SwapError),
    /// An online ingest or feedback payload was refused: the table is not
    /// online-enabled, the row was invalid (wrong width or unknown value
    /// id), or the feedback's cardinality was not usable.
    Rejected {
        /// Table the payload addressed.
        table: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTable(t) => write!(f, "no model registered for table {t:?}"),
            ServeError::WorkerUnavailable(t) => {
                write!(f, "worker for table {t:?} is unavailable")
            }
            ServeError::Overloaded { table, shard, depth } => write!(
                f,
                "table {table:?} overloaded: shard {shard} queue full at depth {depth}, \
                 request shed"
            ),
            ServeError::DeadlineExceeded(t) => {
                write!(f, "deadline expired before a worker dequeued the request for table {t:?}")
            }
            ServeError::StaleRegistration(t) => {
                write!(f, "table {t:?} was re-registered while the request was queued")
            }
            ServeError::ModelUnavailable(t) => {
                write!(f, "model for table {t:?} could not be reloaded")
            }
            ServeError::Internal(t) => {
                write!(f, "internal fault while serving table {t:?} (worker respawned; retry)")
            }
            ServeError::Swap(e) => write!(f, "{e}"),
            ServeError::Rejected { table, reason } => {
                write!(f, "online payload for table {table:?} rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A concurrent, batched estimation server over registered Duet models: the
/// serving core plus the worker threads that run its batches, and the stop
/// flags of the trainers and listeners opened through it.
#[derive(Debug)]
pub struct DuetServer {
    /// Shared with every shard worker and wire acceptor.
    core: Arc<ServeCore>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Stop flags of every background trainer spawned through this server,
    /// so [`DuetServer::shutdown`] can halt training promptly without owning
    /// the handles (callers keep those and join on drop).
    trainer_stops: Mutex<Vec<Arc<std::sync::atomic::AtomicBool>>>,
    /// Stop signals of every wire listener opened through this server;
    /// raised by [`DuetServer::shutdown`] so listeners stop accepting and
    /// start their graceful drain.
    wire_stops: Mutex<Vec<Arc<crate::wire::readiness::StopSignal>>>,
}

impl DuetServer {
    /// A server with the given configuration and no tables; the worker pool
    /// (one thread per router shard) starts immediately.
    pub fn new(config: ServeConfig) -> Self {
        let core = Arc::new(ServeCore::new(&config, Arc::new(SystemClock::new())));
        let workers = (0..core.router.num_shards())
            .map(|shard_index| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("duet-serve-shard-{shard_index}"))
                    .spawn(move || run_shard_worker(shard_index, core))
                    .expect("failed to spawn shard worker")
            })
            .collect();
        Self {
            core,
            workers: Mutex::new(workers),
            trainer_stops: Mutex::new(Vec::new()),
            wire_stops: Mutex::new(Vec::new()),
        }
    }

    /// Register (or replace) the model serving `table`: the table is hashed
    /// onto its worker shard and gets a fresh result cache. No thread is
    /// spawned — all tables share the router's worker pool.
    pub fn register(&self, table: impl Into<String>, estimator: DuetEstimator) {
        self.core.register(&table.into(), estimator);
    }

    /// The in-process door `estimate` and `estimate_many` go through:
    /// answer `queries` against `table` into `values`, [`MAX_BATCH`] at a
    /// time. Each query is encoded and handed to [`Router::admit`]; the
    /// misses it admits to run now (their shard idle, its executor free)
    /// run as one batch on this thread, and the rest queue on the shard and
    /// are waited for. Every answer is recorded as a completed request, its
    /// latency measured from its own submission. Fails fast on the first
    /// shed ([`ServeError::Overloaded`]) or failed answer.
    fn serve(&self, table: &str, queries: &[Query], values: &mut [f64]) -> Result<(), ServeError> {
        let (id, record) = self.core.record(table)?;
        let executor = self.core.executor(record.shard);
        let metrics = &self.core.metrics;
        for (queries, values) in queries.chunks(MAX_BATCH).zip(values.chunks_mut(MAX_BATCH)) {
            let mut submitted = [Instant::now(); MAX_BATCH];
            let mut caller = CallerBatch::new(executor);
            let mut pending = Vec::new();
            for (i, query) in queries.iter().enumerate() {
                submitted[i] = Instant::now();
                let request = self.core.prepare(id, &record, query);
                let mut receiver = None;
                let admission =
                    self.core.router.admit(&record, request, None, Some(&mut caller), || {
                        let (reply, reply_rx) = mpsc::sync_channel(1);
                        receiver = Some(reply_rx);
                        ReplyTo::Channel(reply)
                    });
                match admission {
                    Admission::Cached(value) => {
                        values[i] = value;
                        metrics.record_request(submitted[i].elapsed());
                    }
                    Admission::RunNow(mut request) => {
                        request.reply = ReplyTo::Ticket(i as u64);
                        caller.stage(request);
                    }
                    Admission::Queued { .. } => {
                        pending.push((i, receiver.expect("a queued request carries its reply")));
                    }
                    Admission::Shed { depth, .. } => {
                        let table = table.to_string();
                        return Err(ServeError::Overloaded { table, shard: record.shard, depth });
                    }
                }
            }
            // Run this thread's batch first: it releases the executor the
            // queued requests' worker may be waiting for. Only a hold with
            // misses staged runs, and it reads the directory after taking
            // the executor, as the worker does.
            let mut failed = None;
            if caller.staged() > 0 {
                let answer = |ticket: u64, outcome| {
                    let i = ticket as usize;
                    match Self::resolve_reply(table, Ok(outcome)) {
                        Ok(value) => {
                            values[i] = value;
                            metrics.record_request(submitted[i].elapsed());
                        }
                        Err(e) => {
                            failed.get_or_insert(e);
                        }
                    }
                };
                caller.run(&self.core, &self.core.tables(), answer, drop);
            }
            if let Some(e) = failed {
                return Err(e);
            }
            for (i, reply_rx) in pending {
                values[i] = Self::resolve_reply(table, reply_rx.recv())?;
                metrics.record_request(submitted[i].elapsed());
            }
        }
        Ok(())
    }

    /// Map one reply for `table` onto the public error surface.
    fn resolve_reply(
        table: &str,
        received: Result<Result<f64, ShedReason>, mpsc::RecvError>,
    ) -> Result<f64, ServeError> {
        match received {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(ShedReason::DeadlineExpired)) => {
                Err(ServeError::DeadlineExceeded(table.to_string()))
            }
            Ok(Err(ShedReason::StaleRegistration)) => {
                Err(ServeError::StaleRegistration(table.to_string()))
            }
            // QueueFull reaches a reply only when the batch could not reload
            // an evicted model (the batch sheds on the retryable overload
            // path); a full queue is answered at admission.
            Ok(Err(ShedReason::QueueFull)) => Err(ServeError::ModelUnavailable(table.to_string())),
            Ok(Err(ShedReason::WorkerPanicked)) => Err(ServeError::Internal(table.to_string())),
            Err(_) => Err(ServeError::WorkerUnavailable(table.to_string())),
        }
    }

    /// Estimate `query`'s cardinality against `table`'s current model.
    ///
    /// Blocks until the result is available: a cache hit, or the forward
    /// pass containing this request completes. On a miss, when the table's
    /// shard is idle (nothing queued, no batch running), that pass runs on
    /// the calling thread, with no hand-off to the shard's worker; otherwise
    /// the request queues and micro-batches with the shard's backlog. The
    /// value is always exactly what a serial `DuetEstimator::estimate` call
    /// would return. Under overload the call fails fast with
    /// [`ServeError::Overloaded`] (admission) or
    /// [`ServeError::DeadlineExceeded`] (expired before its batch ran). A
    /// table the tier evicted is reloaded by the batch that serves the
    /// request; a reload that fails answers [`ServeError::ModelUnavailable`],
    /// while a cached key is still answered from the cache.
    pub fn estimate(&self, table: &str, query: &Query) -> Result<f64, ServeError> {
        let mut value = [0.0];
        self.serve(table, std::slice::from_ref(query), &mut value)?;
        Ok(value[0])
    }

    /// Estimate a whole workload through the serving path. The misses of
    /// each run of up to 64 queries run as one batch: on the calling thread
    /// when the table's shard is idle, otherwise queued together, so they
    /// batch with each other as well as with concurrent clients.
    ///
    /// Fails fast on the first shed or error; with the default configuration
    /// (ample queues, no deadline) this only happens when the server is
    /// shutting down.
    pub fn estimate_many(&self, table: &str, queries: &[Query]) -> Result<Vec<f64>, ServeError> {
        let mut values = vec![0.0f64; queries.len()];
        self.serve(table, queries, &mut values)?;
        Ok(values)
    }

    /// Hot-swap `table`'s weights from a [`duet_core::save_weights`]
    /// checkpoint without dropping in-flight requests.
    ///
    /// The checkpoint is published the way the online trainer publishes a
    /// retrain (`online::publish`, which states the ordering rule): swap,
    /// then purge the cache, then replay the table's **hot set**. Old cache
    /// entries become unreachable at once (keys embed the model generation)
    /// and the purge frees them; its epoch bump makes a shard worker that
    /// resolved the old model drop what it computed mid-swap. The replay
    /// re-estimates the top-K keys the front door observed (see
    /// [`crate::HotSet`]) in one batch under the new weights, so the hottest
    /// traffic keeps hitting the cache straight through the swap instead of
    /// stampeding the forward pass (the post-swap p99 cliff).
    pub fn hot_swap(&self, table: &str, checkpoint: &[u8]) -> Result<(), ServeError> {
        let (_, record) = self.core.record(table)?;
        self.core.hot_swap(&record, checkpoint)
    }

    /// Enable online learning for `table`: ingest, drift detection against
    /// `data`'s statistics (which must be the table the serving model was
    /// trained on — its dictionaries define the valid ingest domain), query
    /// feedback, and drift-triggered retraining published through the
    /// hot-swap path. Replaces any previous online state for the table.
    ///
    /// Drive the loop either synchronously with
    /// [`DuetServer::maintain_online`] or from a background thread via
    /// [`DuetServer::spawn_online_trainer`].
    pub fn enable_online(
        &self,
        table: &str,
        data: Table,
        config: OnlineConfig,
    ) -> Result<(), ServeError> {
        let (id, _) = self.core.record(table)?;
        self.core.enable_online(id, data, config).map(drop)
    }

    /// Append one dictionary-encoded row to `table`'s online state; returns
    /// the table's new row count. Fails with [`ServeError::Rejected`] when
    /// the table is not online-enabled or the row is invalid.
    pub fn ingest(&self, table: &str, ids: &[u32]) -> Result<u64, ServeError> {
        let (record, online) = self.core.online_record(table)?;
        self.core.ingest(&online, &record, ids)
    }

    /// Report the observed true cardinality of `query` against `table`,
    /// feeding the query-driven half of the next online retrain.
    ///
    /// The feedback is stamped with the uid of the slot currently registered
    /// under `table`; if the table was re-registered since online learning
    /// was enabled, the stamp is stale and the call fails with
    /// [`ServeError::StaleRegistration`] (re-enable online learning against
    /// the new registration). `query` is encoded against the table's schema,
    /// which the slot holds, so feedback never reaches (nor reloads) the
    /// model.
    pub fn feedback(&self, table: &str, query: &Query, actual: f64) -> Result<(), ServeError> {
        let (record, online) = self.core.online_record(table)?;
        self.core.feedback(&online, &record, record.slot.encode(query), actual)
    }

    /// Run one trainer tick for `table` synchronously: check drift and, if
    /// triggered, retrain and publish. Returns what the tick did. A tick that
    /// panics is caught and answered [`ServeError::Internal`]; the table is
    /// then not online-enabled until [`DuetServer::enable_online`] again.
    pub fn maintain_online(&self, table: &str) -> Result<OnlineTickReport, ServeError> {
        let (record, online) = self.core.online_record(table)?;
        self.core.tick(&online, &record)
    }

    /// Spawn a background trainer thread ticking every online-enabled table
    /// each `interval`, each tick supervised as in
    /// [`DuetServer::maintain_online`]. The returned handle stops and joins
    /// the thread on [`OnlineTrainerHandle::shutdown`] or drop; the server
    /// can outlive it or vice versa (the thread holds its own `Arc`s).
    pub fn spawn_online_trainer(&self, interval: std::time::Duration) -> OnlineTrainerHandle {
        let handle = OnlineTrainerHandle::spawn(self.core.online.clone(), interval);
        // Remember the stop flag so a server-wide shutdown halts training
        // without waiting for the caller to drop the handle.
        self.trainer_stops.lock().expect("server poisoned").push(handle.stop_flag());
        handle
    }

    /// The swap generation of `table`'s model (0 until the first swap).
    pub fn generation(&self, table: &str) -> Option<u64> {
        self.core.registry.slot(table).map(|s| s.generation())
    }

    /// Names of every registered table (unordered).
    pub fn tables(&self) -> Vec<String> {
        self.core.registry.tables()
    }

    /// The worker shard `table` is (or would be) routed to.
    pub fn shard_of(&self, table: &str) -> usize {
        self.core.router.shard_index(table)
    }

    /// The routing layer (shard count, queue depths).
    pub fn router(&self) -> &Router {
        &self.core.router
    }

    /// The model-memory tier enforcing [`ServeConfig::model_budget_bytes`].
    pub fn model_tier(&self) -> &ModelTier {
        &self.core.tier
    }

    /// Spill evicted model checkpoints to files under `dir` instead of
    /// holding them in memory (see [`crate::ModelTier::set_spill_dir`]).
    pub fn set_model_spill_dir(&self, dir: impl Into<std::path::PathBuf>) {
        self.core.tier.set_spill_dir(Some(dir.into()));
    }

    /// Open the TCP front door: bind `addr` and serve the binary wire
    /// protocol (see [`crate::wire`]) against this server's tables.
    ///
    /// Wire requests flow through the same shard queues, micro-batchers,
    /// admission control, and metrics as in-process [`DuetServer::estimate`]
    /// calls — `Overloaded` and `DeadlineExceeded` come back as wire status
    /// codes instead of errors. The returned handle owns the acceptor
    /// threads; drop it (or call [`crate::WireHandle::shutdown`]) to stop
    /// listening. The server itself must outlive the handle's connections
    /// only logically — sockets hold their own `Arc`s, so shutdown order is
    /// safe either way.
    pub fn serve_wire(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: crate::wire::WireConfig,
    ) -> std::io::Result<crate::wire::WireHandle> {
        let handle = crate::wire::listener::serve(addr, config, self.core.clone())?;
        // Remember the stop signal so a server-wide shutdown closes the front
        // door without owning the handle (the caller keeps it for joins).
        self.wire_stops.lock().expect("server poisoned").push(handle.stop_signal());
        Ok(handle)
    }

    /// Gracefully drain and stop the server, bounded by `deadline`.
    ///
    /// The sequence, ordered so nothing admitted is lost and nothing
    /// half-finished is published:
    ///
    /// 1. **Stop background trainers** spawned through
    ///    [`DuetServer::spawn_online_trainer`]. A retrain inside a tick is
    ///    atomic — it either publishes a fully trained model or nothing — so
    ///    flipping the stop flag can never publish half-trained weights.
    /// 2. **Close the wire front door**: listeners opened through
    ///    [`DuetServer::serve_wire`] are woken, stop accepting and begin
    ///    their graceful drain (flush queued responses for work already
    ///    admitted, within [`crate::wire::WireConfig::drain`]).
    /// 3. **Close the router**: shard workers keep executing until their
    ///    queues are empty, then exit — every admitted request still gets
    ///    its terminal reply.
    /// 4. **Join the worker pool**, up to the deadline.
    ///
    /// Returns `true` when every shard worker drained and exited within the
    /// deadline; `false` if time ran out first (remaining workers are joined
    /// blockingly on drop). Idempotent: a second call finds everything
    /// already closed and returns quickly.
    pub fn shutdown(&self, deadline: std::time::Duration) -> bool {
        use std::sync::atomic::Ordering;
        let give_up_at = Instant::now() + deadline;
        for stop in self.trainer_stops.lock().expect("server poisoned").drain(..) {
            stop.store(true, Ordering::Relaxed);
        }
        for stop in self.wire_stops.lock().expect("server poisoned").drain(..) {
            // Sets the flag and wakes the acceptors blocked in `poll`.
            stop.request();
        }
        self.core.router.close();
        let mut workers = self.workers.lock().expect("server poisoned");
        loop {
            let mut i = 0;
            while i < workers.len() {
                if workers[i].is_finished() {
                    let _ = workers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            if workers.is_empty() {
                return true;
            }
            if Instant::now() >= give_up_at {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A point-in-time snapshot of all serving metrics, with cache counters
    /// summed across tables and the router's current total queue depth.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics()
    }
}

impl Drop for DuetServer {
    fn drop(&mut self) {
        // Close the router so every worker drains its queue and exits, then
        // join the pool.
        self.core.router.close();
        let workers: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().expect("server poisoned");
            workers.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::NOT_ONLINE;
    use crate::online::PANICKING_RETRAINS;
    use crate::wire::conn::{ConnConfig, WireConn};
    use crate::wire::frame::{self, FrameView, Status, DEFAULT_MAX_FRAME_LEN};
    use duet_core::{DuetConfig, DuetModel};
    use duet_data::datasets::census_like;
    use duet_query::WorkloadSpec;

    /// A batch shed mid-flight (an evicted model's reload failed) answers
    /// `ModelUnavailable` for its table, wherever the table is sharded.
    #[test]
    fn a_mid_batch_overload_names_the_tables_own_shard() {
        let server = DuetServer::new(ServeConfig {
            router: RouterConfig { num_shards: 4, ..RouterConfig::default() },
            ..ServeConfig::default()
        });
        let table = (0..).map(|i| format!("t{i}")).find(|t| server.shard_of(t) != 0).unwrap();
        let data = census_like(50, 1);
        let model = DuetModel::new(&data, &DuetConfig::small(), 1);
        server.register(table.as_str(), DuetEstimator::from_model(model, &data, "census"));

        let reply = DuetServer::resolve_reply(&table, Ok(Err(ShedReason::QueueFull)));
        assert_ne!(server.shard_of(&table), 0);
        assert_eq!(reply, Err(ServeError::ModelUnavailable(table)));
    }

    fn census_server(config: ServeConfig) -> (DuetServer, DuetEstimator, Vec<Query>) {
        let data = census_like(250, 41);
        let est = DuetEstimator::train_data_only(&data, &DuetConfig::small().with_epochs(1), 13);
        let queries = WorkloadSpec::random(&data, 12, 16).generate(&data);
        let server = DuetServer::new(config);
        server.register("census", est.clone());
        (server, est, queries)
    }

    /// Wait (bounded) until `done` holds.
    fn wait_until(mut done: impl FnMut() -> bool) {
        let give_up_at = Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < give_up_at, "timed out");
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }

    /// Every way the in-process door answers — a miss run on the caller, a
    /// cache hit, `estimate_many`'s caller batch, a miss queued behind a
    /// busy shard — equals a serial `DuetEstimator::estimate` bit for bit,
    /// and every batch is either a worker's or a caller's.
    #[test]
    fn inline_queued_cached_and_many_answers_are_bit_identical() {
        use duet_query::CardinalityEstimator;
        let (server, est, queries) = census_server(ServeConfig {
            router: RouterConfig { num_shards: 1, ..RouterConfig::default() },
            ..ServeConfig::default()
        });
        let mut reference = est.clone();
        let expected: Vec<f64> = queries.iter().map(|q| reference.estimate(q)).collect();
        let batches = |server: &DuetServer| {
            let m = server.metrics();
            (m.batches, m.caller_batches)
        };

        // Idle shard: each miss runs on this thread.
        for i in 0..4 {
            assert_eq!(server.estimate("census", &queries[i]), Ok(expected[i]));
        }
        assert_eq!(batches(&server), (4, 4));
        // A hit runs no batch.
        assert_eq!(server.estimate("census", &queries[0]), Ok(expected[0]));
        assert_eq!(server.metrics().cache_hits, 1);
        // Four misses, one caller batch.
        assert_eq!(server.estimate_many("census", &queries[4..8]), Ok(expected[4..8].to_vec()));
        assert_eq!(batches(&server), (5, 5));

        // Queued: hold the shard's executor, queue a blocker the worker
        // pops and then waits on, and a client's miss must queue behind it.
        let (id, record) = server.core.record("census").unwrap();
        let held = crate::batcher::lock(server.core.executor(0));
        let (reply, blocker_rx) = mpsc::sync_channel(1);
        let blocker = server.core.prepare(id, &record, &queries[8]);
        let admitted =
            server.core.router.admit(&record, blocker, None, None, || ReplyTo::Channel(reply));
        assert!(matches!(admitted, Admission::Queued { depth: 1 }));
        wait_until(|| server.router().queue_depth() == 0);
        std::thread::scope(|scope| {
            let client = scope.spawn(|| server.estimate("census", &queries[9]));
            wait_until(|| server.router().queue_depth() == 1);
            drop(held);
            assert_eq!(client.join().unwrap(), Ok(expected[9]));
        });
        assert_eq!(blocker_rx.recv().unwrap(), Ok(expected[8]));
        assert_eq!(batches(&server), (7, 5), "two worker batches beside five caller batches");
    }

    /// A fault on the shard's executor fails the caller's own batch typed;
    /// the executor respawns and the next miss is answered on the caller.
    #[test]
    fn a_panicking_caller_batch_answers_internal_and_the_next_estimate_succeeds() {
        let (server, est, queries) =
            census_server(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
        let shard = server.shard_of("census");
        let fired = std::sync::atomic::AtomicBool::new(false);
        crate::batcher::lock(server.core.executor(shard)).fault = Some(Arc::new(move || {
            if !fired.swap(true, std::sync::atomic::Ordering::Relaxed) {
                panic!("injected model fault");
            }
        }));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let failed = server.estimate("census", &queries[0]);
        std::panic::set_hook(prev);
        assert_eq!(failed, Err(ServeError::Internal("census".into())));
        assert_eq!(
            server.estimate("census", &queries[0]),
            Ok(est.estimate_batch(&queries[..1])[0])
        );

        let m = server.metrics();
        assert_eq!((m.panics_caught, m.shard_restarts, m.shed_internal), (1, 1, 1));
        assert_eq!((m.batches, m.caller_batches, m.requests), (1, 1, 1));
    }

    /// After `shutdown` an idle shard still sheds: its worker has drained
    /// and left, and nothing runs on the caller past a shard that admits
    /// nothing.
    #[test]
    fn after_shutdown_an_estimate_is_overloaded() {
        let (server, _, queries) =
            census_server(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
        assert!(server.shutdown(std::time::Duration::from_secs(10)));
        let shard = server.shard_of("census");
        assert_eq!(
            server.estimate("census", &queries[0]),
            Err(ServeError::Overloaded { table: "census".into(), shard, depth: 0 })
        );
        assert_eq!(
            server.estimate_many("census", &queries).map(drop),
            Err(ServeError::Overloaded { table: "census".into(), shard, depth: 0 })
        );
        let m = server.metrics();
        assert_eq!((m.shed_overload, m.batches, m.caller_batches), (2, 0, 0));
    }

    /// The statuses a fresh wire connection is answered with for one ingest
    /// frame (`row`) and one feedback frame (no predicates) to table 0.
    fn wire_online_statuses(server: &DuetServer, row: &[u32]) -> Vec<Status> {
        let mut bytes = Vec::new();
        frame::encode_preamble(&mut bytes);
        frame::encode_ingest(&mut bytes, 1, 0, row);
        let unconstrained = vec![(0, 1); row.len()];
        frame::encode_feedback(&mut bytes, 2, 0, 3.0, &vec![Vec::new(); row.len()], &unconstrained);
        let mut conn = WireConn::new(ConnConfig::default());
        conn.feed(&bytes);
        conn.pump(&server.core, false).expect("valid bytes");
        let (mut statuses, mut read) = (Vec::new(), 0);
        while let Some((view, used)) =
            frame::next_frame(&conn.output()[read..], DEFAULT_MAX_FRAME_LEN).unwrap()
        {
            read += used;
            if let FrameView::Response(response) = view {
                statuses.push(response.status);
            }
        }
        statuses
    }

    /// A tick that panics is supervised like a batch: caught and counted,
    /// its own tier pin released, its table taken offline (both doors answer as
    /// for a table that was never online-enabled), and the other tables keep
    /// ticking; `enable_online` brings the table back.
    #[test]
    fn a_panicking_tick_is_caught_and_takes_only_its_table_offline() {
        let cfg = DuetConfig::small().with_epochs(1);
        let data: Vec<Table> = (0..2).map(|i| census_like(200 + 40 * i, 90 + i as u64)).collect();
        let server = DuetServer::new(ServeConfig {
            model_budget_bytes: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let online = OnlineConfig {
            feedback_trigger: 1,
            retrain_steps: 2,
            train_batch_size: 8,
            ..OnlineConfig::default()
        };
        let queries: Vec<Query> = data
            .iter()
            .enumerate()
            .map(|(i, table)| {
                let name = format!("t{i}");
                server.register(name.as_str(), DuetEstimator::train_data_only(table, &cfg, 3));
                server.enable_online(&name, table.clone(), online).unwrap();
                let query = WorkloadSpec::random(table, 1, 5).generate(table).remove(0);
                server.feedback(&name, &query, 7.0).unwrap();
                query
            })
            .collect();
        let row = vec![0u32; data[0].num_columns()];
        let uid = server.core.table(0).slot.uid();
        PANICKING_RETRAINS.lock().unwrap().push(uid);

        assert_eq!(server.core.online.tick_all(), 1, "t1 still retrains");
        let counted = server.metrics();
        assert_eq!((counted.panics_caught, counted.swaps_published), (1, 1));
        assert!(!server.model_tier().is_pinned(0), "the panicked retrain's pin is released");

        // Unpinned, t0 is the over-budget victim of a batch for t1.
        server.estimate("t1", &queries[1]).unwrap();
        let give_up_at = Instant::now() + std::time::Duration::from_secs(10);
        while server.metrics().model_evictions == 0 {
            assert!(Instant::now() < give_up_at, "t0 is never evicted");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        let offline = ServeError::Rejected { table: "t0".into(), reason: NOT_ONLINE.into() };
        assert_eq!(server.ingest("t0", &row), Err(offline.clone()));
        assert_eq!(server.feedback("t0", &queries[0], 7.0), Err(offline.clone()));
        assert_eq!(server.maintain_online("t0"), Err(offline));
        assert_eq!(wire_online_statuses(&server, &row), [Status::UnknownTable; 2]);

        // Re-enabled, t0 answers again; its retrain still panics, now on the
        // synchronous path, which answers `Internal`. The unwind releases
        // the tick's own pin and leaves a pin another holder took.
        server.enable_online("t0", data[0].clone(), online).unwrap();
        assert_eq!(wire_online_statuses(&server, &row), [Status::Ok; 2]);
        server.model_tier().pin(0);
        assert_eq!(server.maintain_online("t0"), Err(ServeError::Internal("t0".into())));
        assert_eq!(server.metrics().panics_caught, 2);
        assert!(server.model_tier().is_pinned(0), "the other holder's pin survives");
        server.model_tier().unpin(0);
        assert!(!server.model_tier().is_pinned(0));
        PANICKING_RETRAINS.lock().unwrap().retain(|&panicking| panicking != uid);
    }
}
