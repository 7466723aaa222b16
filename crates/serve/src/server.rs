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
//! Overload semantics: every shard queue is bounded
//! ([`RouterConfig::queue_capacity`]); a request that would overflow its
//! shard is rejected immediately with [`ServeError::Overloaded`] — the
//! server sheds load instead of queueing unboundedly. With a configured
//! [`RouterConfig::default_deadline`], a request that is still queued when
//! its budget expires is dropped at dequeue and fails with
//! [`ServeError::DeadlineExceeded`].

use crate::batcher::run_shard_worker;
use crate::core::ServeCore;
use crate::metrics::MetricsSnapshot;
use crate::online::{
    FeedbackError, OnlineConfig, OnlineTable, OnlineTickReport, OnlineTrainerHandle,
};
use crate::registry::SwapError;
use crate::router::{
    Admission, ReplyTo, Router, RouterConfig, ShedReason, SystemClock, TableResources,
};
use crate::tier::ModelTier;
use duet_core::{query_to_id_predicates, DuetEstimator};
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
    /// supervision. The worker was respawned with a fresh workspace pool;
    /// the request itself may be fine — retrying usually succeeds.
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

impl From<SwapError> for ServeError {
    fn from(e: SwapError) -> Self {
        match e {
            // Flatten so callers see one UnknownTable variant regardless of
            // which layer noticed.
            SwapError::UnknownTable(t) => ServeError::UnknownTable(t),
            e => ServeError::Swap(e),
        }
    }
}

/// Outcome of submitting one query: answered from cache, or in a shard's
/// queue with a receiver for the eventual result.
enum Submitted {
    Cached(f64),
    Pending(mpsc::Receiver<Result<f64, ShedReason>>),
}

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

    /// Encode `query` and hand it to [`Router::admit`] — the in-process
    /// door both `estimate` and `estimate_many` go through. The same
    /// encoding feeds the cache key and, on a miss, the batched forward
    /// pass; a full shard queue fails here with [`ServeError::Overloaded`].
    fn submit(
        &self,
        name: &str,
        table_id: u32,
        table: &TableResources,
        query: &Query,
    ) -> Result<Submitted, ServeError> {
        let request = self
            .core
            .prepare(table_id, query)
            .map_err(|_| ServeError::ModelUnavailable(name.to_string()))?;
        let mut receiver = None;
        let admission = self.core.router.admit(table, request, None, || {
            let (reply, reply_rx) = mpsc::sync_channel(1);
            receiver = Some(reply_rx);
            ReplyTo::Channel(reply)
        });
        match admission {
            Admission::Cached(value) => Ok(Submitted::Cached(value)),
            Admission::Queued { .. } => {
                Ok(Submitted::Pending(receiver.expect("a queued request carries its reply")))
            }
            Admission::Shed { depth, .. } => {
                Err(ServeError::Overloaded { table: name.to_string(), shard: table.shard, depth })
            }
        }
    }

    /// Map one worker reply for `table` (queued on shard `shard`) onto the
    /// public error surface.
    fn resolve_reply(
        table: &str,
        shard: usize,
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
            // QueueFull reaches a reply channel only when an evicted model's
            // reload failed mid-batch (the worker sheds on the retryable
            // overload path); at admission it is raised synchronously.
            Ok(Err(ShedReason::QueueFull)) => {
                Err(ServeError::Overloaded { table: table.to_string(), shard, depth: 0 })
            }
            Ok(Err(ShedReason::WorkerPanicked)) => Err(ServeError::Internal(table.to_string())),
            Err(_) => Err(ServeError::WorkerUnavailable(table.to_string())),
        }
    }

    /// Estimate `query`'s cardinality against `table`'s current model.
    ///
    /// Blocks until the result is available: either a cache hit, or the
    /// micro-batched forward pass containing this request completes. The
    /// value is always exactly what a serial `DuetEstimator::estimate` call
    /// would return. Under overload the call fails fast with
    /// [`ServeError::Overloaded`] (admission) or
    /// [`ServeError::DeadlineExceeded`] (expired while queued).
    pub fn estimate(&self, table: &str, query: &Query) -> Result<f64, ServeError> {
        let started = Instant::now();
        let (id, record) = self.core.record(table)?;
        let value = match self.submit(table, id, &record, query)? {
            Submitted::Cached(value) => value,
            Submitted::Pending(reply_rx) => {
                Self::resolve_reply(table, record.shard, reply_rx.recv())?
            }
        };
        self.core.metrics.record_request(started.elapsed());
        Ok(value)
    }

    /// Estimate a whole workload through the serving path (requests are
    /// submitted together, so they batch with each other as well as with
    /// concurrent clients).
    ///
    /// Fails fast on the first shed or error; with the default configuration
    /// (ample queues, no deadline) this only happens when the server is
    /// shutting down.
    pub fn estimate_many(&self, table: &str, queries: &[Query]) -> Result<Vec<f64>, ServeError> {
        let (id, record) = self.core.record(table)?;
        let mut results = vec![0.0f64; queries.len()];
        let mut pending = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            // Latency is per query, from its own submission.
            let submitted = Instant::now();
            match self.submit(table, id, &record, query)? {
                Submitted::Cached(value) => {
                    results[i] = value;
                    self.core.metrics.record_request(submitted.elapsed());
                }
                Submitted::Pending(reply_rx) => pending.push((i, submitted, reply_rx)),
            }
        }
        for (i, submitted, reply_rx) in pending {
            results[i] = Self::resolve_reply(table, record.shard, reply_rx.recv())?;
            self.core.metrics.record_request(submitted.elapsed());
        }
        Ok(results)
    }

    /// Hot-swap `table`'s weights from a [`duet_core::save_weights`]
    /// checkpoint without dropping in-flight requests.
    ///
    /// Old cache entries become unreachable immediately (keys embed the
    /// model generation) and are additionally purged to free memory; the
    /// purge bumps the cache epoch, so a shard worker that resolved the old
    /// model cannot strand entries computed mid-swap (its inserts carry the
    /// pre-swap epoch and are rejected).
    ///
    /// After the purge the table's **hot set is replayed**: the top-K keys
    /// the front door observed (see [`crate::HotSet`]) are re-estimated in
    /// one batch under the new weights and inserted at the new generation —
    /// so the hottest traffic keeps hitting the cache straight through the
    /// swap instead of stampeding the forward pass (the post-swap p99
    /// cliff). Replayed inserts are epoch-tagged like worker inserts: a
    /// second swap racing this one drops them.
    pub fn hot_swap(&self, table: &str, checkpoint: &[u8]) -> Result<(), ServeError> {
        let (_, record) = self.core.record(table)?;
        record
            .slot
            .hot_swap_checkpoint(checkpoint)
            .map_err(|e| ServeError::Swap(SwapError::Checkpoint(e)))?;
        record.cache.invalidate();
        // One batched forward pass over the hot set, shared with the online
        // trainer's publish path.
        crate::online::replay_hot_keys(&record.slot, &record.cache, &record.hot);
        Ok(())
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
        let (id, _) = self.core.record(table)?;
        let online = self.online_state(table, id)?;
        let mut online = online.lock().expect("online table poisoned");
        online
            .ingest_row(ids)
            .map_err(|e| ServeError::Rejected { table: table.to_string(), reason: e.to_string() })
    }

    /// Report the observed true cardinality of `query` against `table`,
    /// feeding the query-driven half of the next online retrain.
    ///
    /// The feedback is stamped with the uid of the slot currently registered
    /// under `table`; if the table was re-registered since online learning
    /// was enabled, the stamp is stale and the call fails with
    /// [`ServeError::StaleRegistration`] (re-enable online learning against
    /// the new registration).
    pub fn feedback(&self, table: &str, query: &Query, actual: f64) -> Result<(), ServeError> {
        let (id, record) = self.core.record(table)?;
        let online = self.online_state(table, id)?;
        let estimator = record
            .slot
            .try_current()
            .map_err(|_| ServeError::ModelUnavailable(table.to_string()))?;
        let schema = estimator.schema();
        let preds = query_to_id_predicates(schema, query);
        let intervals = query.column_intervals(schema);
        let mut online = online.lock().expect("online table poisoned");
        online.push_feedback(record.slot.uid(), preds, intervals, actual).map_err(|e| match e {
            FeedbackError::StaleSlot { .. } => ServeError::StaleRegistration(table.to_string()),
            FeedbackError::OutsideIdSpace | FeedbackError::InvalidCardinality => {
                ServeError::Rejected { table: table.to_string(), reason: e.to_string() }
            }
        })
    }

    /// Run one trainer tick for `table` synchronously: check drift and, if
    /// triggered, retrain and publish. Returns what the tick did.
    pub fn maintain_online(&self, table: &str) -> Result<OnlineTickReport, ServeError> {
        let (id, _) = self.core.record(table)?;
        let online = self.online_state(table, id)?;
        let report = online.lock().expect("online table poisoned").tick();
        Ok(report)
    }

    /// Spawn a background trainer thread ticking every online-enabled table
    /// each `interval`. The returned handle stops and joins the thread on
    /// [`OnlineTrainerHandle::shutdown`] or drop; the server can outlive it
    /// or vice versa (the thread holds its own `Arc`s).
    pub fn spawn_online_trainer(&self, interval: std::time::Duration) -> OnlineTrainerHandle {
        let handle = OnlineTrainerHandle::spawn(self.core.online.clone(), interval);
        // Remember the stop flag so a server-wide shutdown halts training
        // without waiting for the caller to drop the handle.
        self.trainer_stops.lock().expect("server poisoned").push(handle.stop_flag());
        handle
    }

    /// Resolve `table`'s online state or explain why it has none.
    fn online_state(&self, table: &str, id: u32) -> Result<Arc<Mutex<OnlineTable>>, ServeError> {
        self.core.online.get(id as usize).ok_or_else(|| ServeError::Rejected {
            table: table.to_string(),
            reason: "online learning is not enabled for this table".to_string(),
        })
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
    use duet_core::{DuetConfig, DuetModel};
    use duet_data::datasets::census_like;

    /// A batch shed mid-flight (an evicted model's reload failed) reports
    /// the shard its table actually lives on.
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

        let (_, record) = server.core.record(&table).unwrap();
        let reply = DuetServer::resolve_reply(&table, record.shard, Ok(Err(ShedReason::QueueFull)));
        let shard = server.shard_of(&table);
        assert_ne!(shard, 0);
        assert_eq!(reply, Err(ServeError::Overloaded { table, shard, depth: 0 }));
    }
}
