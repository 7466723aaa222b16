//! Deterministic serving test harness: a virtual-clock, seeded-RNG
//! multi-client driver over the **real** router/worker code.
//!
//! Concurrency tests that rely on wall-clock timing are flaky by
//! construction: whether a burst overflows a queue depends on how fast the
//! machine drains it. This module removes time and thread scheduling from
//! the equation while changing *nothing else*:
//!
//! * the same shard queues, the same admission check, the same
//!   deadline triage, and the same shard-worker batch execution as the
//!   production [`crate::DuetServer`] — just driven single-threaded;
//! * a [`VirtualClock`] that only moves when the driver says so, making
//!   deadline expiry a pure function of the script;
//! * scripted arrival patterns (uniform, bursty, hot-table-skewed)
//!   generated from a seeded RNG, so a scenario replays **bit-identically**:
//!   the same seed always produces the same shed/served counts, the same
//!   batches, and the same estimates.
//!
//! Two layers are exposed: [`RouterHarness`], a low-level single-step driver
//! (also used by `tests/zero_alloc.rs` to prove the routed hot loop is
//! allocation-free), and [`run_scenario`], which replays a full scripted
//! multi-client workload and folds the outcomes into a [`ScenarioReport`]
//! whose equality across runs *is* the determinism assertion.

use crate::batcher::{execute_supervised, BatchConfig, ShardWorker};
use crate::cache::{canonical_key_from_parts, HotSet, ShardedCache};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::online::{OnlineConfig, OnlineDirectory, OnlineHooks, OnlineTable, OnlineTickReport};
use crate::registry::ModelSlot;
use crate::router::{
    shard_for, Clock, ReplyTo, RoutedRequest, Router, RouterConfig, ShedReason, TableResources,
    VirtualClock,
};
use crate::tier::ModelTier;
use crate::wire::conn::{ConnConfig, WireConn};
use crate::wire::frame::{self, DecodeError, FrameView, Status};
use duet_core::{query_to_id_predicates, DuetEstimator};
use duet_data::Table;
use duet_query::{exact_cardinality, CardinalityEstimator, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a [`RouterHarness`] (a [`crate::ServeConfig`] minus the
/// production-only knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Routing and admission control under test.
    pub router: RouterConfig,
    /// Micro-batcher tuning.
    pub batch: BatchConfig,
    /// Result-cache entries per table; defaults to 0 (off) so every request
    /// exercises the queue/batch path.
    pub cache_capacity: usize,
    /// Cache shards per table.
    pub cache_shards: usize,
    /// Model-memory budget in bytes enforced by the workers (see
    /// [`crate::ModelTier`]); defaults to 0 (unlimited, no eviction).
    pub model_budget_bytes: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            batch: BatchConfig::default(),
            cache_capacity: 0,
            cache_shards: 1,
            model_budget_bytes: 0,
        }
    }
}

/// An encoded request ready for admission, produced by
/// [`RouterHarness::prepare`]. Opaque; re-submittable after
/// [`RouterHarness::turn_recycling`] hands it back.
pub struct PreparedRequest(pub(crate) RoutedRequest);

impl PreparedRequest {
    /// The dense table index this request addresses.
    pub fn table(&self) -> usize {
        self.0.table_id as usize
    }
}

/// Outcome of submitting one query to the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitResult {
    /// Served from the table's result cache (only with a cache configured).
    Cached(f64),
    /// Admitted; the outcome will appear in [`RouterHarness::outcomes`]
    /// after a worker turn executes it. `depth` is the post-admission queue
    /// depth of the target shard.
    Queued {
        /// Queue depth of the target shard after admission.
        depth: usize,
    },
    /// Rejected at admission: the target shard's queue was full.
    Shed {
        /// Queue depth of the target shard at rejection.
        depth: usize,
    },
}

/// A single-threaded driver over the production routing/batching code.
///
/// The harness owns everything a [`crate::DuetServer`] would spread across
/// threads — router shards, one shard worker per shard, the id-indexed
/// table directory — and exposes explicit steps: [`RouterHarness::submit_query`]
/// admits, [`RouterHarness::turn`] runs one batch per shard, the
/// [`VirtualClock`] moves only via [`RouterHarness::clock`]. Ticket replies
/// land in an outcome log instead of channels, so no call ever blocks.
pub struct RouterHarness {
    clock: Arc<VirtualClock>,
    router: Router,
    workers: Vec<ShardWorker>,
    directory: Vec<TableResources>,
    /// Shard each table id routes to (precomputed from the table names).
    table_shard: Vec<usize>,
    /// Per-table hot-query trackers (capacity 0 — disabled — until
    /// [`RouterHarness::enable_hot_set`]).
    hot: Vec<Arc<HotSet>>,
    /// Online-learning state for tables with
    /// [`RouterHarness::enable_online`] called; shared with the simulated
    /// wire connections' ingest/feedback handlers.
    online: Arc<OnlineDirectory>,
    metrics: Arc<ServeMetrics>,
    tier: Arc<ModelTier>,
    outcomes: Vec<(u64, Result<f64, ShedReason>)>,
    config: HarnessConfig,
}

impl RouterHarness {
    /// Build a harness serving `tables` (name + trained estimator; the index
    /// in the vector becomes the table id).
    pub fn new(tables: Vec<(String, DuetEstimator)>, config: HarnessConfig) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Arc::new(ServeMetrics::new());
        let clock_dyn: Arc<dyn Clock> = clock.clone();
        let router = Router::new(config.router, clock_dyn, metrics.clone());
        let num_shards = router.num_shards();
        let mut directory = Vec::with_capacity(tables.len());
        let mut table_shard = Vec::with_capacity(tables.len());
        for (name, estimator) in tables {
            table_shard.push(shard_for(&name, num_shards));
            directory.push(TableResources {
                name: Arc::from(name.as_str()),
                slot: Arc::new(ModelSlot::new(estimator)),
                cache: Arc::new(ShardedCache::new(config.cache_capacity, config.cache_shards)),
            });
        }
        let hot = directory.iter().map(|_| Arc::new(HotSet::new(0))).collect();
        Self {
            clock,
            router,
            workers: (0..num_shards).map(|_| ShardWorker::new()).collect(),
            directory,
            table_shard,
            hot,
            online: Arc::new(OnlineDirectory::new()),
            metrics,
            tier: Arc::new(ModelTier::new(config.model_budget_bytes)),
            outcomes: Vec::new(),
            config,
        }
    }

    /// Track up to `capacity` hot queries for `table` (replayed into the
    /// cache after an online publish, exactly as the production server
    /// does after a hot-swap).
    pub fn enable_hot_set(&mut self, table: usize, capacity: usize) {
        self.hot[table] = Arc::new(HotSet::new(capacity));
    }

    /// Enable the online-learning loop for `table`: `data` is the table the
    /// serving model was trained on (ingest appends to it; it is also the
    /// retrain substrate). Returns the shared state so the driver can
    /// ingest, feed back, and tick directly.
    pub fn enable_online(
        &mut self,
        table: usize,
        data: Table,
        cfg: OnlineConfig,
    ) -> Arc<Mutex<OnlineTable>> {
        let resources = &self.directory[table];
        let hooks = OnlineHooks {
            slot: resources.slot.clone(),
            cache: resources.cache.clone(),
            hot: self.hot[table].clone(),
            tier: self.tier.clone(),
            metrics: self.metrics.clone(),
            table_id: table,
        };
        self.online.enable(table, OnlineTable::new(data, cfg, hooks))
    }

    /// The online-learning directory (shared with simulated wire
    /// connections).
    pub fn online(&self) -> &Arc<OnlineDirectory> {
        &self.online
    }

    /// Run one trainer tick on `table`'s online state.
    ///
    /// Panics if online learning was not enabled for `table`.
    pub fn online_tick(&self, table: usize) -> OnlineTickReport {
        let state = self.online.get(table).expect("online learning not enabled for table");
        let report = state.lock().expect("online table poisoned").tick();
        report
    }

    /// The model-memory tier enforcing
    /// [`HarnessConfig::model_budget_bytes`] (e.g. to set a spill
    /// directory, or inspect heat).
    pub fn tier(&self) -> &ModelTier {
        &self.tier
    }

    /// Arm an injected fault hook on every shard worker. The hook runs
    /// inside the supervised batch execution (after model resolve, before
    /// the forward pass); a panic it throws is caught by the exact
    /// `catch_unwind` supervision the production shard threads run, failing
    /// the batch typed and respawning the worker.
    pub fn arm_fault(&mut self, fault: Arc<dyn Fn() + Send + Sync>) {
        for worker in &mut self.workers {
            worker.fault = Some(fault.clone());
        }
    }

    /// Arm a seeded panic plan: the batch executions whose global ordinal
    /// (0-based, counted across all shards in execution order) appears in
    /// `batches` panic mid-execution. Under the single-threaded harness the
    /// ordinal sequence is a pure function of the script, so a replay hits
    /// the identical batches.
    pub fn arm_panic_batches(&mut self, batches: &[u64]) {
        let mut panic_at = batches.to_vec();
        panic_at.sort_unstable();
        panic_at.dedup();
        let executed = Arc::new(AtomicU64::new(0));
        self.arm_fault(Arc::new(move || {
            let ordinal = executed.fetch_add(1, Ordering::Relaxed);
            if panic_at.binary_search(&ordinal).is_ok() {
                panic!("injected model fault (batch {ordinal})");
            }
        }));
    }

    /// The harness's virtual clock (advance it to make deadlines expire).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.directory.len()
    }

    /// The shard table `table` routes to.
    pub fn shard_of_table(&self, table: usize) -> usize {
        self.table_shard[table]
    }

    /// The name table `table` was registered under.
    pub fn table_name(&self, table: usize) -> &str {
        &self.directory[table].name
    }

    /// The estimator currently serving `table`.
    pub fn estimator(&self, table: usize) -> Arc<DuetEstimator> {
        self.directory[table].slot.current()
    }

    /// Encode `query` against `table`'s schema into a routable request.
    /// With `ticket: Some(t)`, the outcome is logged under `t`; with `None`
    /// it is discarded (allocation-probe mode).
    ///
    /// # Panics
    /// Panics if the table's model is evicted and cannot be reloaded
    /// (corrupt or unreadable spilled checkpoint); fault-tolerant callers
    /// use [`RouterHarness::try_prepare`].
    pub fn prepare(&self, table: usize, query: &Query, ticket: Option<u64>) -> PreparedRequest {
        self.try_prepare(table, query, ticket).expect("model unavailable (reload failed)")
    }

    /// [`RouterHarness::prepare`], but a failed lazy reload (the tier
    /// evicted the model and its checkpoint has gone bad) comes back as a
    /// typed error instead of a panic — mirroring the production front
    /// door's [`crate::ServeError::ModelUnavailable`] path, including its
    /// metric.
    pub fn try_prepare(
        &self,
        table: usize,
        query: &Query,
        ticket: Option<u64>,
    ) -> Result<PreparedRequest, crate::registry::ReloadError> {
        let resources = &self.directory[table];
        // Resolving may lazily reload a model the tier evicted (encoding
        // needs its schema) — mirror the production front door's counting.
        let was_resident = resources.slot.is_resident();
        let (generation, estimator) = resources
            .slot
            .try_current_versioned()
            .inspect_err(|_| self.metrics.record_reload_failure())?;
        if !was_resident {
            self.metrics.record_model_reload();
        }
        let schema = estimator.schema();
        let preds = query_to_id_predicates(schema, query);
        let intervals = query.column_intervals(schema);
        let key = (self.config.cache_capacity > 0)
            .then(|| canonical_key_from_parts(schema, generation, &preds, &intervals));
        Ok(PreparedRequest(RoutedRequest {
            table_id: table as u32,
            slot_uid: resources.slot.uid(),
            preds,
            intervals,
            key,
            deadline: self.router.admission_deadline(),
            reply: match ticket {
                Some(t) => ReplyTo::Ticket(t),
                None => ReplyTo::Discard,
            },
        }))
    }

    /// Admit a prepared request to its table's shard. On rejection the
    /// request is handed back (encodings intact) and the overload shed is
    /// recorded. Allocation-free on a warm queue.
    // Mirrors `Shard::try_push`: the rejected request comes back by value so
    // the recycling driver loops stay allocation-free.
    #[allow(clippy::result_large_err)]
    pub fn submit_prepared(&mut self, request: PreparedRequest) -> Result<usize, PreparedRequest> {
        let shard = self.table_shard[request.0.table_id as usize];
        match self.router.shard(shard).try_push(request.0) {
            Ok(depth) => Ok(depth),
            Err(rejected) => {
                self.metrics.record_shed_overload();
                Err(PreparedRequest(rejected))
            }
        }
    }

    /// Encode, cache-probe, and admit one query (the driver-facing
    /// equivalent of [`crate::DuetServer::estimate`]'s submit pipeline).
    /// A table whose evicted model cannot be reloaded sheds at admission
    /// (counted as a reload failure, never a panic).
    pub fn submit_query(&mut self, table: usize, query: &Query, ticket: u64) -> SubmitResult {
        let request = match self.try_prepare(table, query, Some(ticket)) {
            Ok(request) => request,
            Err(_unloadable) => {
                return SubmitResult::Shed {
                    depth: self.router.shard(self.table_shard[table]).depth(),
                };
            }
        };
        if let Some(key) = &request.0.key {
            // Popularity is observed on every cacheable request — hit or
            // miss — mirroring the production submit path, so the hot set
            // reflects what clients actually ask.
            self.hot[table].observe(key, &request.0.preds, &request.0.intervals);
            if let Some(value) = self.directory[table].cache.get(key) {
                return SubmitResult::Cached(value);
            }
        }
        match self.submit_prepared(request) {
            Ok(depth) => SubmitResult::Queued { depth },
            Err(_rejected) => {
                SubmitResult::Shed { depth: self.router.shard(self.table_shard[table]).depth() }
            }
        }
    }

    /// Run one worker turn: every shard pops and executes at most one
    /// same-table batch at the current virtual time. Returns the number of
    /// requests processed (served + deadline-shed). Allocation-free once
    /// warm.
    pub fn turn(&mut self) -> usize {
        let now = self.clock.now();
        let max_batch = self.config.batch.max_batch_size;
        let mut processed = 0;
        for shard_index in 0..self.workers.len() {
            let worker = &mut self.workers[shard_index];
            if self.router.shard(shard_index).try_pop_batch(max_batch, &mut worker.batch) {
                processed += worker.batch.len();
                // The same supervised execution the production shard threads
                // run: a panicking batch is failed typed and the worker state
                // respawned, so fault-injection scenarios exercise the real
                // recovery path.
                execute_supervised(
                    worker,
                    &self.directory,
                    now,
                    &self.metrics,
                    &self.tier,
                    &mut self.outcomes,
                );
                // Recycle rather than drop: wire-originated requests go back
                // to their connection's pool, keeping the simulated wire hot
                // loop allocation-free (ticket/discard requests just drop,
                // exactly as `clear` did).
                crate::batcher::recycle_batch(&mut worker.batch, &self.metrics);
            }
        }
        processed
    }

    /// [`RouterHarness::turn`], but hand the processed requests back (their
    /// encodings intact) instead of dropping them, so an allocation probe
    /// can recycle one fixed request set through the hot loop indefinitely.
    pub fn turn_recycling(&mut self, recycled: &mut Vec<PreparedRequest>) -> usize {
        let now = self.clock.now();
        let max_batch = self.config.batch.max_batch_size;
        let mut processed = 0;
        for shard_index in 0..self.workers.len() {
            let worker = &mut self.workers[shard_index];
            if self.router.shard(shard_index).try_pop_batch(max_batch, &mut worker.batch) {
                processed += worker.batch.len();
                execute_supervised(
                    worker,
                    &self.directory,
                    now,
                    &self.metrics,
                    &self.tier,
                    &mut self.outcomes,
                );
                for request in worker.batch.drain(..) {
                    recycled.push(PreparedRequest(request));
                }
            }
        }
        processed
    }

    /// Run worker turns (without advancing the clock) until every queue is
    /// empty; returns the number of requests processed.
    pub fn drain(&mut self) -> usize {
        let mut total = 0;
        while self.router.queue_depth() > 0 {
            total += self.turn();
        }
        total
    }

    /// Ticket outcomes recorded so far, in execution order.
    pub fn outcomes(&self) -> &[(u64, Result<f64, ShedReason>)] {
        &self.outcomes
    }

    /// Clear the ticket outcome log.
    pub fn clear_outcomes(&mut self) {
        self.outcomes.clear();
    }

    /// Total queued requests across all shards.
    pub fn queue_depth(&self) -> usize {
        self.router.queue_depth()
    }

    /// Per-shard queue depths.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.router.queue_depths()
    }

    /// Snapshot of the harness metrics (batches, sheds, queue depth).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (hits, misses) = self
            .directory
            .iter()
            .fold((0u64, 0u64), |(h, m), r| (h + r.cache.hits(), m + r.cache.misses()));
        self.metrics.snapshot(hits, misses, self.router.queue_depth())
    }
}

impl std::fmt::Debug for RouterHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHarness")
            .field("tables", &self.directory.len())
            .field("shards", &self.workers.len())
            .field("queue_depth", &self.router.queue_depth())
            .finish()
    }
}

/// How scripted clients spread their requests over tables and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Jittered-uniform inter-arrival gaps, tables chosen uniformly.
    Uniform,
    /// Clients emit `burst_size` back-to-back requests (zero gap), then go
    /// idle for `burst_size` mean gaps — the queue-overflow scenario.
    Bursty {
        /// Requests per burst.
        burst_size: usize,
    },
    /// Jittered-uniform gaps, but `hot_permille`/1000 of all requests target
    /// `hot_table` — the skew scenario for routing fairness.
    HotTable {
        /// Index of the hot table.
        hot_table: usize,
        /// Probability (per mille) that a request targets the hot table.
        hot_permille: u16,
    },
}

/// A scripted multi-client replay.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Seed for the arrival script (same seed ⇒ identical replay).
    pub seed: u64,
    /// Number of scripted clients.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Mean virtual inter-arrival gap per client.
    pub mean_gap: Duration,
    /// Virtual cadence of worker turns (each shard pops one batch per turn).
    pub service_every: Duration,
    /// Arrival pattern under test.
    pub pattern: ArrivalPattern,
    /// Harness (router/batch/cache) configuration.
    pub harness: HarnessConfig,
}

/// Deterministic summary of one scenario replay: integer counters only, so
/// two replays with the same seed can be compared with `==` — that equality
/// *is* the determinism assertion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioReport {
    /// Requests the script submitted.
    pub submitted: u64,
    /// Requests answered with an estimate.
    pub served: u64,
    /// Requests rejected at admission (shard queue full).
    pub shed_overload: u64,
    /// Requests dropped at dequeue (deadline expired).
    pub shed_deadline: u64,
    /// Requests answered with a typed internal fault: their batch panicked,
    /// the panic was caught by shard supervision, and every request in it
    /// was failed [`ShedReason::WorkerPanicked`].
    pub shed_internal: u64,
    /// Per-table submissions.
    pub per_table_submitted: Vec<u64>,
    /// Per-table served counts.
    pub per_table_served: Vec<u64>,
    /// Per-table shed counts (admission + deadline).
    pub per_table_shed: Vec<u64>,
    /// Forward batches executed.
    pub batches: u64,
    /// Highest single-shard queue depth observed at any admission.
    pub max_shard_depth: usize,
    /// Served results whose bits differed from the unbatched per-query
    /// reference (must be 0: routing/batching never changes an answer).
    pub mismatches: u64,
    /// Models evicted to checkpoint bytes by the memory tier (0 without a
    /// [`HarnessConfig::model_budget_bytes`] budget).
    pub model_evictions: u64,
    /// Evicted models lazily reloaded on a later request.
    pub model_reloads: u64,
    /// Rows ingested through the online path (0 without online learning).
    pub ingested_rows: u64,
    /// Drift confirmations (threshold + hysteresis) across all trainer
    /// ticks.
    pub drift_detections: u64,
    /// Online retrains that ran.
    pub retrains: u64,
    /// Retrained models published through the hot-swap path.
    pub swaps_published: u64,
    /// Feedback entries rejected (stale slot uid or invalid cardinality).
    pub feedback_rejected: u64,
    /// Requests served after the first online publish.
    pub post_swap_served: u64,
    /// Hot-set entries replayed into the cache by online publishes.
    pub hot_replayed: u64,
    /// Worker panics caught by shard supervision (0 without injected
    /// faults).
    pub panics_caught: u64,
    /// Shard workers respawned (fresh workspace pool) after a caught panic.
    pub shard_restarts: u64,
    /// Lazy reloads of evicted models that failed (corrupt, truncated, or
    /// unreadable spilled checkpoint); the affected requests shed instead.
    pub reload_failures: u64,
    /// Evictions abandoned because spilling the checkpoint failed (the
    /// model stayed resident, over budget).
    pub spill_failures: u64,
}

impl ScenarioReport {
    /// `served + shed_overload + shed_deadline + shed_internal` — every
    /// submitted request must be accounted for exactly once, faults
    /// included.
    pub fn accounted(&self) -> u64 {
        self.served + self.shed_overload + self.shed_deadline + self.shed_internal
    }

    /// Copy the harness-metric counters into the report.
    fn fold_metrics(&mut self, snapshot: &MetricsSnapshot) {
        self.batches = snapshot.batches;
        self.model_evictions = snapshot.model_evictions;
        self.model_reloads = snapshot.model_reloads;
        self.ingested_rows = snapshot.ingested_rows;
        self.drift_detections = snapshot.drift_detections;
        self.retrains = snapshot.retrains;
        self.swaps_published = snapshot.swaps_published;
        self.feedback_rejected = snapshot.feedback_rejected;
        self.panics_caught = snapshot.panics_caught;
        self.shard_restarts = snapshot.shard_restarts;
        self.reload_failures = snapshot.reload_failures;
        self.spill_failures = snapshot.spill_failures;
    }
}

/// One scripted arrival.
#[derive(Debug, Clone, Copy)]
struct Event {
    at_ns: u64,
    /// Scripted client (wire scenarios map this to a connection).
    client: usize,
    table: usize,
    query: usize,
}

fn pick_table(rng: &mut SmallRng, pattern: ArrivalPattern, num_tables: usize) -> usize {
    match pattern {
        ArrivalPattern::HotTable { hot_table, hot_permille } => {
            let hot = hot_table.min(num_tables - 1);
            if rng.gen_range(0u32..1000) < u32::from(hot_permille) || num_tables == 1 {
                hot
            } else {
                // Uniform over the other tables.
                let mut t = rng.gen_range(0..num_tables - 1);
                if t >= hot {
                    t += 1;
                }
                t
            }
        }
        _ => rng.gen_range(0..num_tables),
    }
}

/// Generate the deterministic arrival script for a scenario.
fn script(cfg: &ScenarioConfig, workloads: &[Vec<Query>]) -> Vec<Event> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let gap_ns = cfg.mean_gap.as_nanos().max(1) as u64;
    let mut events = Vec::with_capacity(cfg.clients * cfg.requests_per_client);
    for client in 0..cfg.clients {
        // Stagger client start times across one mean gap.
        let mut at_ns = gap_ns * client as u64 / cfg.clients.max(1) as u64;
        for k in 0..cfg.requests_per_client {
            let table = pick_table(&mut rng, cfg.pattern, workloads.len());
            let query = rng.gen_range(0..workloads[table].len());
            events.push(Event { at_ns, client, table, query });
            at_ns += match cfg.pattern {
                ArrivalPattern::Bursty { burst_size } => {
                    let burst = burst_size.max(1);
                    if (k + 1) % burst == 0 {
                        gap_ns * burst as u64
                    } else {
                        0
                    }
                }
                // 50%..150% jitter around the mean gap.
                _ => gap_ns * rng.gen_range(50u64..=150) / 100,
            };
        }
    }
    // Stable sort: simultaneous arrivals keep client order, so the replay
    // order is a pure function of the script.
    events.sort_by_key(|e| e.at_ns);
    events
}

/// Replay a scripted multi-client scenario against the real routing code
/// and fold the outcomes into a [`ScenarioReport`].
///
/// `tables[i]` pairs a table name (which determines its shard) with its
/// trained estimator; `workloads[i]` is the query pool scripted clients
/// draw from for that table. Served results are compared bit-for-bit
/// against the unbatched per-query reference path.
pub fn run_scenario(
    tables: &[(String, DuetEstimator)],
    workloads: &[Vec<Query>],
    cfg: &ScenarioConfig,
) -> ScenarioReport {
    assert_eq!(tables.len(), workloads.len(), "one workload per table");
    assert!(!tables.is_empty(), "need at least one table");

    // Unbatched per-query reference values (the bit-identity baseline).
    let expected: Vec<Vec<f64>> = tables
        .iter()
        .zip(workloads)
        .map(|((_, estimator), queries)| {
            let mut reference = estimator.clone();
            queries.iter().map(|q| reference.estimate(q)).collect()
        })
        .collect();

    let mut harness = RouterHarness::new(tables.to_vec(), cfg.harness);
    let events = script(cfg, workloads);
    let service_ns = cfg.service_every.as_nanos().max(1) as u64;
    let mut next_service = service_ns;

    let mut report = ScenarioReport {
        per_table_submitted: vec![0; tables.len()],
        per_table_served: vec![0; tables.len()],
        per_table_shed: vec![0; tables.len()],
        ..ScenarioReport::default()
    };
    // ticket -> (table, query); rejected tickets are folded immediately.
    let mut ticket_source = Vec::with_capacity(events.len());

    for event in &events {
        // Run the worker cadence up to this arrival.
        while next_service <= event.at_ns {
            harness.clock().set(Duration::from_nanos(next_service));
            harness.turn();
            next_service += service_ns;
        }
        harness.clock().set(Duration::from_nanos(event.at_ns));

        let ticket = ticket_source.len() as u64;
        ticket_source.push((event.table, event.query));
        report.submitted += 1;
        report.per_table_submitted[event.table] += 1;
        match harness.submit_query(event.table, &workloads[event.table][event.query], ticket) {
            SubmitResult::Cached(value) => {
                report.served += 1;
                report.per_table_served[event.table] += 1;
                if value.to_bits() != expected[event.table][event.query].to_bits() {
                    report.mismatches += 1;
                }
            }
            SubmitResult::Queued { depth } => {
                report.max_shard_depth = report.max_shard_depth.max(depth);
            }
            SubmitResult::Shed { .. } => {
                report.shed_overload += 1;
                report.per_table_shed[event.table] += 1;
            }
        }
    }

    // Drain the backlog on the same cadence (so deadlines keep expiring in
    // virtual time, not all at once).
    while harness.queue_depth() > 0 {
        harness.clock().advance(cfg.service_every);
        harness.turn();
    }

    for (ticket, outcome) in harness.outcomes() {
        let (table, query) = ticket_source[*ticket as usize];
        match outcome {
            Ok(value) => {
                report.served += 1;
                report.per_table_served[table] += 1;
                if value.to_bits() != expected[table][query].to_bits() {
                    report.mismatches += 1;
                }
            }
            Err(ShedReason::WorkerPanicked) => {
                report.shed_internal += 1;
                report.per_table_shed[table] += 1;
            }
            Err(_) => {
                report.shed_deadline += 1;
                report.per_table_shed[table] += 1;
            }
        }
    }
    report.fold_metrics(&harness.metrics_snapshot());
    report
}

// ---------------------------------------------------------------------------
// Wire simulation: seeded byte-level clients over the real frame codec and
// connection state machine.
// ---------------------------------------------------------------------------

/// How a simulated client's written bytes are delivered to its connection.
///
/// Real TCP makes no promise that one `write` becomes one `read`; this knob
/// recreates both failure shapes deterministically so the framing layer is
/// tested against them, not around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkMode {
    /// Every written byte is delivered immediately, whole — the "one write,
    /// one read" best case.
    Exact,
    /// Bytes are delivered in seeded random chunks of `1..=max` bytes, and a
    /// tail is sometimes held back until the client's next activity — so
    /// frames arrive split across reads *and* coalesced with later frames.
    Random {
        /// Largest single delivery, in bytes (≥ 1).
        max: usize,
    },
}

/// A byte-level wire simulator: a [`RouterHarness`] fronted by real
/// [`WireConn`] state machines, with the transport replaced by in-memory
/// byte buffers.
///
/// This is the low-level layer: callers write protocol bytes with
/// [`WireSim::feed`], step the server with [`WireSim::pump`] (decode +
/// admission + response encode) and [`WireSim::turn`] (one worker batch per
/// shard), and read response bytes back with [`WireSim::output`]. Nothing
/// here touches a socket or a thread, so `tests/zero_alloc.rs` can hold an
/// allocation counter over the whole loop. [`run_wire_scenario`] builds the
/// scripted multi-client replay on top.
pub struct WireSim {
    harness: RouterHarness,
    conns: Vec<WireConn>,
    conn_config: ConnConfig,
    /// Connections torn down via [`WireSim::disconnect`].
    drops: u64,
}

impl WireSim {
    /// A simulator over `tables` with `connections` wire connections, each
    /// running the given connection config.
    pub fn new(
        tables: Vec<(String, DuetEstimator)>,
        config: HarnessConfig,
        conn_config: ConnConfig,
        connections: usize,
    ) -> Self {
        Self {
            harness: RouterHarness::new(tables, config),
            conns: (0..connections).map(|_| WireConn::new(conn_config)).collect(),
            conn_config,
            drops: 0,
        }
    }

    /// Simulate a mid-stream client disconnect: connection `conn` is torn
    /// down — half-received request bytes, in-flight tracking, and unsent
    /// response bytes all dropped, exactly what closing the socket does —
    /// and replaced with a fresh connection awaiting a new preamble.
    /// Requests the old connection had already admitted still execute;
    /// their completions land in the orphaned outbox and are never read,
    /// which is the documented fate of replies to a dead peer.
    pub fn disconnect(&mut self, conn: usize) {
        self.conns[conn] = WireConn::new(self.conn_config);
        self.drops += 1;
    }

    /// Connections dropped via [`WireSim::disconnect`] so far.
    pub fn conn_drops(&self) -> u64 {
        self.drops
    }

    /// The underlying single-step harness (clock, queue depths, metrics).
    pub fn harness(&self) -> &RouterHarness {
        &self.harness
    }

    /// The simulator's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        self.harness.clock()
    }

    /// Number of simulated connections.
    pub fn num_connections(&self) -> usize {
        self.conns.len()
    }

    /// Deliver raw client bytes to connection `conn` (the simulated
    /// counterpart of a socket read).
    pub fn feed(&mut self, conn: usize, bytes: &[u8]) {
        self.conns[conn].feed(bytes);
    }

    /// Run connection `conn`'s state machine: decode complete frames, admit
    /// requests to the real shard queues, and encode any finished responses
    /// into the connection's output buffer. Returns whether anything
    /// happened; a [`DecodeError`] means the byte stream was corrupt (a real
    /// listener would close the connection).
    pub fn pump(&mut self, conn: usize) -> Result<bool, DecodeError> {
        self.conns[conn].pump(
            &self.harness.router,
            &self.harness.directory,
            &self.harness.online,
            self.harness.clock.as_ref(),
            &self.harness.metrics,
        )
    }

    /// One worker turn at the current virtual time (see
    /// [`RouterHarness::turn`]); wire-originated requests are recycled back
    /// to their connections' pools.
    pub fn turn(&mut self) -> usize {
        self.harness.turn()
    }

    /// Response bytes waiting to be "read" by connection `conn`'s client.
    pub fn output(&self, conn: usize) -> &[u8] {
        self.conns[conn].output()
    }

    /// Discard `n` bytes of connection `conn`'s output (the client read
    /// them).
    pub fn consume_output(&mut self, conn: usize, n: usize) {
        self.conns[conn].consume_output(n);
    }

    /// Requests admitted on connection `conn` whose responses have not been
    /// encoded yet.
    pub fn inflight(&self, conn: usize) -> usize {
        self.conns[conn].inflight()
    }
}

impl std::fmt::Debug for WireSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireSim")
            .field("connections", &self.conns.len())
            .field("harness", &self.harness)
            .finish()
    }
}

/// A scripted multi-client wire replay: [`ScenarioConfig`] plus the
/// transport knobs.
#[derive(Debug, Clone)]
pub struct WireScenarioConfig {
    /// The arrival script and harness configuration; `scenario.clients` is
    /// the number of wire connections.
    pub scenario: ScenarioConfig,
    /// How client bytes reach the server (split/coalesced delivery).
    pub chunk: ChunkMode,
    /// Per-connection in-flight cap before the server answers `Overloaded`
    /// from the wire layer itself.
    pub max_pipeline: usize,
}

/// One simulated client endpoint: bytes written but not yet delivered, and
/// bytes received but not yet decoded.
#[derive(Default)]
struct SimClient {
    /// Written, undelivered bytes ("in flight" on the simulated wire).
    pending: Vec<u8>,
    /// Received, undecoded response bytes.
    recv: Vec<u8>,
}

/// Replay a scripted workload through the **wire path**: every request is
/// encoded to protocol bytes by a scripted client, delivered (possibly
/// split/coalesced per [`ChunkMode`]), decoded and admitted by the real
/// [`WireConn`] state machine, batched by the real workers, and read back as
/// response frames — all under the virtual clock.
///
/// The resulting [`ScenarioReport`] has the same shape and invariants as
/// [`run_scenario`]'s (`accounted() == submitted`, `mismatches == 0`), and
/// replaying the same config twice must produce an identical report — that
/// equality is the wire layer's determinism assertion.
pub fn run_wire_scenario(
    tables: &[(String, DuetEstimator)],
    workloads: &[Vec<Query>],
    cfg: &WireScenarioConfig,
) -> ScenarioReport {
    assert_eq!(tables.len(), workloads.len(), "one workload per table");
    assert!(!tables.is_empty(), "need at least one table");
    assert!(cfg.scenario.clients > 0, "need at least one wire client");

    // Unbatched per-query reference values (the bit-identity baseline).
    let expected: Vec<Vec<f64>> = tables
        .iter()
        .zip(workloads)
        .map(|((_, estimator), queries)| {
            let mut reference = estimator.clone();
            queries.iter().map(|q| reference.estimate(q)).collect()
        })
        .collect();

    let conn_config = ConnConfig { max_pipeline: cfg.max_pipeline.max(1), ..ConnConfig::default() };
    let mut sim =
        WireSim::new(tables.to_vec(), cfg.scenario.harness, conn_config, cfg.scenario.clients);
    let events = script(&cfg.scenario, workloads);
    let service_ns = cfg.scenario.service_every.as_nanos().max(1) as u64;
    let mut next_service = service_ns;
    // Transport chunking gets its own seeded stream so arrival scripting and
    // delivery fragmentation are independent dimensions of the same seed.
    let mut chunk_rng = SmallRng::seed_from_u64(cfg.scenario.seed ^ 0x57_49_52_45); // "WIRE"

    let mut clients: Vec<SimClient> =
        (0..cfg.scenario.clients).map(|_| SimClient::default()).collect();
    // Every connection starts by writing the protocol preamble.
    for client in &mut clients {
        frame::encode_preamble(&mut client.pending);
    }

    let mut report = ScenarioReport {
        per_table_submitted: vec![0; tables.len()],
        per_table_served: vec![0; tables.len()],
        per_table_shed: vec![0; tables.len()],
        ..ScenarioReport::default()
    };
    // request id -> (table, query); ids are global across connections.
    let mut ticket_source: Vec<(usize, usize)> = Vec::with_capacity(events.len());
    let mut responses_seen: u64 = 0;

    /// Move up to the whole pending buffer from `client` into the server
    /// connection, split/held-back per `chunk`.
    fn deliver(
        sim: &mut WireSim,
        conn: usize,
        client: &mut SimClient,
        chunk: ChunkMode,
        rng: &mut SmallRng,
        everything: bool,
    ) {
        while !client.pending.is_empty() {
            let take = match chunk {
                ChunkMode::Exact => client.pending.len(),
                ChunkMode::Random { max } => {
                    if !everything && rng.gen_range(0u32..4) == 0 {
                        // Hold the tail back: it will coalesce with the
                        // client's next write.
                        break;
                    }
                    rng.gen_range(1..=max.max(1)).min(client.pending.len())
                }
            };
            sim.feed(conn, &client.pending[..take]);
            client.pending.drain(..take);
            sim.pump(conn).expect("simulated clients speak the protocol");
        }
    }

    /// Decode every complete response frame the server has produced for
    /// `conn` and fold it into the report.
    #[allow(clippy::too_many_arguments)]
    fn collect(
        sim: &mut WireSim,
        conn: usize,
        client: &mut SimClient,
        ticket_source: &[(usize, usize)],
        expected: &[Vec<f64>],
        report: &mut ScenarioReport,
        responses_seen: &mut u64,
    ) {
        let produced = sim.output(conn).len();
        if produced > 0 {
            client.recv.extend_from_slice(sim.output(conn));
            sim.consume_output(conn, produced);
        }
        let mut pos = 0;
        while let Some((view, consumed)) =
            frame::next_frame(&client.recv[pos..], frame::DEFAULT_MAX_FRAME_LEN)
                .expect("server frames are well-formed")
        {
            if let FrameView::Response(response) = view {
                *responses_seen += 1;
                let (table, query) = ticket_source[response.request_id as usize];
                match response.status {
                    Status::Ok => {
                        report.served += 1;
                        report.per_table_served[table] += 1;
                        if response.value.to_bits() != expected[table][query].to_bits() {
                            report.mismatches += 1;
                        }
                    }
                    Status::Overloaded => {
                        report.shed_overload += 1;
                        report.per_table_shed[table] += 1;
                    }
                    Status::DeadlineExceeded => {
                        report.shed_deadline += 1;
                        report.per_table_shed[table] += 1;
                    }
                    Status::Internal => {
                        report.shed_internal += 1;
                        report.per_table_shed[table] += 1;
                    }
                    Status::UnknownTable => {
                        unreachable!("scripted clients only address registered tables")
                    }
                    Status::Rejected => {
                        unreachable!("scripted clients send no ingest or feedback frames")
                    }
                }
            }
            pos += consumed;
        }
        client.recv.drain(..pos);
    }

    for event in &events {
        // Run the worker cadence up to this arrival, draining responses as
        // they are produced.
        while next_service <= event.at_ns {
            sim.clock().set(Duration::from_nanos(next_service));
            sim.turn();
            for (conn, client) in clients.iter_mut().enumerate() {
                sim.pump(conn).expect("pump after turn cannot hit new input");
                collect(
                    &mut sim,
                    conn,
                    client,
                    &ticket_source,
                    &expected,
                    &mut report,
                    &mut responses_seen,
                );
            }
            next_service += service_ns;
        }
        sim.clock().set(Duration::from_nanos(event.at_ns));

        // The scripted client encodes its request and writes it to the wire.
        let ticket = ticket_source.len() as u64;
        ticket_source.push((event.table, event.query));
        report.submitted += 1;
        report.per_table_submitted[event.table] += 1;
        {
            let estimator = sim.harness().estimator(event.table);
            let schema = estimator.schema();
            let query = &workloads[event.table][event.query];
            let preds = duet_core::query_to_id_predicates(schema, query);
            let intervals = query.column_intervals(schema);
            frame::encode_request(
                &mut clients[event.client].pending,
                ticket,
                event.table as u32,
                0, // defer to the router's configured deadline budget
                &preds,
                &intervals,
            );
        }
        deliver(
            &mut sim,
            event.client,
            &mut clients[event.client],
            cfg.chunk,
            &mut chunk_rng,
            false,
        );
        collect(
            &mut sim,
            event.client,
            &mut clients[event.client],
            &ticket_source,
            &expected,
            &mut report,
            &mut responses_seen,
        );
        report.max_shard_depth =
            report.max_shard_depth.max(sim.harness().queue_depths().into_iter().max().unwrap_or(0));
    }

    // All arrivals are in: flush every held-back byte, then keep the worker
    // cadence going until each request has produced exactly one response.
    for (conn, client) in clients.iter_mut().enumerate() {
        deliver(&mut sim, conn, client, cfg.chunk, &mut chunk_rng, true);
    }
    let mut idle_turns = 0u32;
    while responses_seen < report.submitted {
        sim.clock().advance(cfg.scenario.service_every);
        let processed = sim.turn();
        for (conn, client) in clients.iter_mut().enumerate() {
            sim.pump(conn).expect("pump after turn cannot hit new input");
            collect(
                &mut sim,
                conn,
                client,
                &ticket_source,
                &expected,
                &mut report,
                &mut responses_seen,
            );
        }
        idle_turns = if processed == 0 { idle_turns + 1 } else { 0 };
        assert!(idle_turns < 1000, "wire drain stalled: a request produced no response");
    }

    report.fold_metrics(&sim.harness().metrics_snapshot());
    report
}

// ---------------------------------------------------------------------------
// Drift scenario: train-while-serving under the virtual clock.
// ---------------------------------------------------------------------------

/// A seeded train-while-serving replay: warm traffic over one table, a
/// mid-run distribution shift injected through the online ingest path,
/// trainer ticks and query feedback on fixed cadences, then post-shift
/// traffic — the whole drift → retrain → hot-swap sequence as one scripted
/// scenario.
#[derive(Debug, Clone)]
pub struct DriftScenarioConfig {
    /// Seed of the scenario script (query picks + skewed-row generation).
    /// Same seed ⇒ identical [`ScenarioReport`].
    pub seed: u64,
    /// Queries served before the shift (builds the hot set and the cache).
    pub warm_queries: usize,
    /// Skewed rows ingested at the shift: every column's value is drawn
    /// from the top eighth of its dictionary, moving histogram mass the
    /// drift monitor must notice.
    pub shift_rows: usize,
    /// Queries served after the shift (the trainer runs during this phase).
    pub post_queries: usize,
    /// Trainer-tick cadence: one [`OnlineTable::tick`] every this many
    /// post-shift queries (0 disables ticking — the drift is never acted
    /// on).
    pub tick_every: usize,
    /// Feedback cadence: every this many post-shift queries, the true
    /// cardinality of the query just served is pushed back (0 disables
    /// feedback).
    pub feedback_every: usize,
    /// Hot-set capacity (hottest keys replayed into the cache after an
    /// online publish).
    pub hot_keys: usize,
    /// Online-learning tuning (threshold, hysteresis, retrain budget).
    pub online: OnlineConfig,
    /// Router/batch/cache configuration.
    pub harness: HarnessConfig,
}

impl Default for DriftScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            warm_queries: 64,
            shift_rows: 512,
            post_queries: 64,
            tick_every: 8,
            feedback_every: 4,
            hot_keys: 16,
            online: OnlineConfig::default(),
            harness: HarnessConfig { cache_capacity: 256, ..HarnessConfig::default() },
        }
    }
}

/// Replay a seeded drift scenario: serve `workload` over a model trained on
/// `table`, inject a skewed ingest burst mid-run, and let the online
/// trainer detect the drift, retrain, and publish through the hot-swap +
/// hot-set-replay path — all under the virtual clock, so replaying the same
/// inputs twice produces an identical [`ScenarioReport`] (generation bumps,
/// retrain counts, and post-swap serving included). That equality is the
/// online loop's determinism assertion.
pub fn run_drift_scenario(
    table: &Table,
    estimator: &DuetEstimator,
    workload: &[Query],
    cfg: &DriftScenarioConfig,
) -> ScenarioReport {
    assert!(!workload.is_empty(), "need a workload to replay");
    let mut harness =
        RouterHarness::new(vec![("drift".to_string(), estimator.clone())], cfg.harness);
    harness.enable_hot_set(0, cfg.hot_keys);
    let online = harness.enable_online(0, table.clone(), cfg.online);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x44_52_49_46); // "DRIF"
    let mut report = ScenarioReport {
        per_table_submitted: vec![0; 1],
        per_table_served: vec![0; 1],
        per_table_shed: vec![0; 1],
        ..ScenarioReport::default()
    };
    // ticket -> whether it was submitted after the first publish.
    let mut post_swap_ticket: Vec<bool> = Vec::new();
    let mut swapped = false;

    let total = cfg.warm_queries + cfg.post_queries;
    for i in 0..total {
        if i == cfg.warm_queries {
            // The shift: a burst of rows skewed onto the top of every
            // column's dictionary, appended through the validated ingest
            // path (so the live histograms move incrementally, exactly as
            // production ingest would move them).
            let mut guard = online.lock().expect("online table poisoned");
            let ndvs: Vec<usize> =
                (0..guard.table().num_columns()).map(|c| guard.table().column(c).ndv()).collect();
            let mut row = Vec::with_capacity(ndvs.len());
            for _ in 0..cfg.shift_rows {
                row.clear();
                for &ndv in &ndvs {
                    let band = (ndv / 8).max(1).min(ndv);
                    row.push((ndv - 1 - rng.gen_range(0..band)) as u32);
                }
                guard.ingest_row(&row).expect("skewed rows stay inside the dictionary");
            }
        }

        let q = rng.gen_range(0..workload.len());
        harness.clock().advance(Duration::from_micros(100));
        let ticket = post_swap_ticket.len() as u64;
        post_swap_ticket.push(swapped);
        report.submitted += 1;
        report.per_table_submitted[0] += 1;
        match harness.submit_query(0, &workload[q], ticket) {
            SubmitResult::Cached(_) => {
                report.served += 1;
                report.per_table_served[0] += 1;
                if swapped {
                    report.post_swap_served += 1;
                }
            }
            SubmitResult::Queued { depth } => {
                report.max_shard_depth = report.max_shard_depth.max(depth);
            }
            SubmitResult::Shed { .. } => {
                report.shed_overload += 1;
                report.per_table_shed[0] += 1;
            }
        }
        harness.drain();

        if i >= cfg.warm_queries {
            let k = i - cfg.warm_queries;
            if cfg.feedback_every > 0 && k.is_multiple_of(cfg.feedback_every) {
                // Feed back the true cardinality of the query just served,
                // stamped with the currently registered slot's uid (the
                // same stamp the wire front door applies).
                let uid = harness.directory[0].slot.uid();
                let serving = harness.estimator(0);
                let schema = serving.schema();
                let query = &workload[q];
                let preds = query_to_id_predicates(schema, query);
                let intervals = query.column_intervals(schema);
                let mut guard = online.lock().expect("online table poisoned");
                let actual = exact_cardinality(guard.table(), query) as f64;
                guard
                    .push_feedback(uid, preds, intervals, actual)
                    .expect("in-run feedback is never stale");
            }
            if cfg.tick_every > 0 && (k + 1).is_multiple_of(cfg.tick_every) {
                let tick = online.lock().expect("online table poisoned").tick();
                report.hot_replayed += tick.replayed as u64;
                swapped |= tick.swapped;
            }
        }
    }

    for (ticket, outcome) in harness.outcomes() {
        match outcome {
            Ok(_) => {
                report.served += 1;
                report.per_table_served[0] += 1;
                if post_swap_ticket[*ticket as usize] {
                    report.post_swap_served += 1;
                }
            }
            Err(ShedReason::WorkerPanicked) => {
                report.shed_internal += 1;
                report.per_table_shed[0] += 1;
            }
            Err(_) => {
                report.shed_deadline += 1;
                report.per_table_shed[0] += 1;
            }
        }
    }
    report.fold_metrics(&harness.metrics_snapshot());
    report
}

// ---------------------------------------------------------------------------
// Fault injection: seeded faults layered over the scripted replay.
// ---------------------------------------------------------------------------

/// A seeded fault-injection plan for [`run_fault_scenario`]. Faults are
/// addressed in deterministic script coordinates — global batch-execution
/// ordinals and arrival-event indices — so replaying the same plan over the
/// same [`ScenarioConfig`] injects the identical faults at the identical
/// points, and the two [`ScenarioReport`]s compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Batch executions (0-based global ordinals, in execution order) that
    /// panic mid-forward: supervision fails every request of the batch
    /// typed ([`ShedReason::WorkerPanicked`]) and respawns the worker.
    pub panic_batches: Vec<u64>,
    /// `(event index, table)`: flip one payload byte of the table's spilled
    /// checkpoint file just before that arrival, so subsequent lazy reloads
    /// fail the frame checksum until the file is restored.
    pub corrupt_checkpoint_at: Option<(u64, usize)>,
    /// `(event index, table)`: truncate the table's spilled checkpoint to
    /// half its length instead (the torn-write shape).
    pub truncate_checkpoint_at: Option<(u64, usize)>,
    /// Event index at which the damaged file's original bytes are written
    /// back — the "repaired checkpoint heals the slot on the very next
    /// request" path.
    pub restore_checkpoint_at: Option<u64>,
    /// Event index at which the tier's spill directory is replaced with a
    /// path blocked by a plain file, making every subsequent spill attempt
    /// an IO error (counted as `spill_failures`; the victim model stays
    /// resident, over budget).
    pub break_spill_dir_at: Option<u64>,
    /// Event index at which the real spill directory is restored.
    pub fix_spill_dir_at: Option<u64>,
    /// The real spill directory evictions write to. Required by every
    /// checkpoint/spill fault above; the caller owns its lifetime.
    pub spill_dir: Option<PathBuf>,
}

/// Find the spilled checkpoint file of the slot with `uid` under `dir`.
fn spilled_checkpoint(dir: &Path, uid: u64) -> Option<PathBuf> {
    let prefix = format!("slot-{uid}-");
    std::fs::read_dir(dir).ok()?.flatten().map(|entry| entry.path()).find(|path| {
        path.file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with(&prefix) && name.ends_with(".duetckpt"))
    })
}

/// How [`damage_checkpoint`] mangles a spilled checkpoint file.
#[derive(Clone, Copy)]
enum Damage {
    /// Flip the final byte (checksum-covered payload corruption).
    FlipByte,
    /// Cut the file to half its length (a torn write).
    Truncate,
}

/// Damage `table`'s spilled checkpoint on disk; returns the path and the
/// original bytes so the plan can restore them later.
///
/// The fault being modeled is "the on-disk checkpoint went bad", so if the
/// model is still resident it is first evicted to the spill directory —
/// guaranteeing there is a file to damage regardless of where the tier's
/// own eviction schedule happens to be at this event.
fn damage_checkpoint(
    harness: &RouterHarness,
    plan: &FaultPlan,
    table: usize,
    damage: Damage,
) -> (PathBuf, Vec<u8>) {
    let dir = plan.spill_dir.as_ref().expect("checkpoint faults require FaultPlan::spill_dir");
    let slot = &harness.directory[table].slot;
    if slot.is_resident() {
        slot.evict(Some(dir)).expect("spilling the checkpoint about to be damaged");
    }
    let uid = slot.uid();
    let path =
        spilled_checkpoint(dir, uid).expect("an evicted slot always has a spilled checkpoint file");
    let original = std::fs::read(&path).expect("reading the spilled checkpoint");
    let mut bytes = original.clone();
    match damage {
        Damage::FlipByte => {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
        }
        Damage::Truncate => bytes.truncate(bytes.len() / 2),
    }
    std::fs::write(&path, &bytes).expect("writing the damaged checkpoint");
    (path, original)
}

/// Replay a scripted scenario with seeded faults injected per `plan` and
/// fold the outcomes — faults included — into a [`ScenarioReport`].
///
/// The contract under fault is the no-fault contract plus typed failure:
/// `accounted() == submitted` (every request still gets exactly one
/// terminal outcome — panicking batches answer
/// [`ShedReason::WorkerPanicked`], unreloadable models shed at admission),
/// `mismatches == 0` (a request that *is* served is still bit-identical to
/// the unbatched reference), and replaying the same plan over the same
/// config yields an `==` report, fault counters included.
pub fn run_fault_scenario(
    tables: &[(String, DuetEstimator)],
    workloads: &[Vec<Query>],
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
) -> ScenarioReport {
    assert_eq!(tables.len(), workloads.len(), "one workload per table");
    assert!(!tables.is_empty(), "need at least one table");
    let needs_spill_dir = plan.corrupt_checkpoint_at.is_some()
        || plan.truncate_checkpoint_at.is_some()
        || plan.break_spill_dir_at.is_some();
    assert!(
        !needs_spill_dir || plan.spill_dir.is_some(),
        "checkpoint/spill faults require FaultPlan::spill_dir"
    );

    // Unbatched per-query reference values (the bit-identity baseline for
    // everything that is served despite the faults).
    let expected: Vec<Vec<f64>> = tables
        .iter()
        .zip(workloads)
        .map(|((_, estimator), queries)| {
            let mut reference = estimator.clone();
            queries.iter().map(|q| reference.estimate(q)).collect()
        })
        .collect();

    let mut harness = RouterHarness::new(tables.to_vec(), cfg.harness);
    harness.tier().set_spill_dir(plan.spill_dir.clone());
    harness.arm_panic_batches(&plan.panic_batches);
    let events = script(cfg, workloads);
    let service_ns = cfg.service_every.as_nanos().max(1) as u64;
    let mut next_service = service_ns;

    let mut report = ScenarioReport {
        per_table_submitted: vec![0; tables.len()],
        per_table_served: vec![0; tables.len()],
        per_table_shed: vec![0; tables.len()],
        ..ScenarioReport::default()
    };
    let mut ticket_source = Vec::with_capacity(events.len());
    // Original bytes of the damaged checkpoint, for `restore_checkpoint_at`.
    let mut damaged: Option<(PathBuf, Vec<u8>)> = None;

    for (index, event) in events.iter().enumerate() {
        let index = index as u64;

        // Scripted checkpoint/spill faults fire just before this arrival.
        if let Some((at, table)) = plan.corrupt_checkpoint_at {
            if at == index {
                damaged = Some(damage_checkpoint(&harness, plan, table, Damage::FlipByte));
            }
        }
        if let Some((at, table)) = plan.truncate_checkpoint_at {
            if at == index {
                damaged = Some(damage_checkpoint(&harness, plan, table, Damage::Truncate));
            }
        }
        if plan.restore_checkpoint_at == Some(index) {
            let (path, original) =
                damaged.take().expect("restore scripted before any checkpoint damage");
            std::fs::write(&path, original).expect("restoring the checkpoint file");
        }
        if plan.break_spill_dir_at == Some(index) {
            let dir =
                plan.spill_dir.as_ref().expect("spill-dir faults require FaultPlan::spill_dir");
            // A plain file where the spill directory should be: every
            // subsequent spill fails `create_dir_all` with a real IO error.
            let blocker = dir.join("spill-blocker");
            std::fs::write(&blocker, b"x").expect("writing the spill-dir blocker");
            harness.tier().set_spill_dir(Some(blocker));
        }
        if plan.fix_spill_dir_at == Some(index) {
            harness.tier().set_spill_dir(plan.spill_dir.clone());
        }

        // Run the worker cadence up to this arrival.
        while next_service <= event.at_ns {
            harness.clock().set(Duration::from_nanos(next_service));
            harness.turn();
            next_service += service_ns;
        }
        harness.clock().set(Duration::from_nanos(event.at_ns));

        let ticket = ticket_source.len() as u64;
        ticket_source.push((event.table, event.query));
        report.submitted += 1;
        report.per_table_submitted[event.table] += 1;
        match harness.submit_query(event.table, &workloads[event.table][event.query], ticket) {
            SubmitResult::Cached(value) => {
                report.served += 1;
                report.per_table_served[event.table] += 1;
                if value.to_bits() != expected[event.table][event.query].to_bits() {
                    report.mismatches += 1;
                }
            }
            SubmitResult::Queued { depth } => {
                report.max_shard_depth = report.max_shard_depth.max(depth);
            }
            SubmitResult::Shed { .. } => {
                report.shed_overload += 1;
                report.per_table_shed[event.table] += 1;
            }
        }
    }

    // Drain the backlog on the same cadence.
    while harness.queue_depth() > 0 {
        harness.clock().advance(cfg.service_every);
        harness.turn();
    }

    for (ticket, outcome) in harness.outcomes() {
        let (table, query) = ticket_source[*ticket as usize];
        match outcome {
            Ok(value) => {
                report.served += 1;
                report.per_table_served[table] += 1;
                if value.to_bits() != expected[table][query].to_bits() {
                    report.mismatches += 1;
                }
            }
            Err(ShedReason::WorkerPanicked) => {
                report.shed_internal += 1;
                report.per_table_shed[table] += 1;
            }
            Err(_) => {
                report.shed_deadline += 1;
                report.per_table_shed[table] += 1;
            }
        }
    }
    report.fold_metrics(&harness.metrics_snapshot());
    report
}
