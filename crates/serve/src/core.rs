//! The serving core: the one assembly of the parts every front door admits
//! through and every shard worker executes against.
//!
//! [`crate::DuetServer`] is this core plus worker threads, stop flags and
//! wire listeners; the deterministic harness ([`crate::sim`]) is this core
//! plus a [`crate::VirtualClock`], a hand-stepped turn over the core's shard
//! executors, and an outcome log. Both build their parts here, register
//! tables here, encode requests here and run batches here, so the harness
//! replays the code the server ships rather than a copy of it.
//!
//! The core owns one executor per shard ([`ShardWorker`] behind a mutex),
//! and every batch runs on one of them: a shard's worker runs on its own
//! shard's (also a batch it stole from a sibling), an in-process caller
//! running its own misses while its table's shard is idle on that shard's.
//! So an executor runs one batch at a time, and memory is one workspace
//! per shard.
//!
//! Ingest, feedback, the trainer tick and the checkpoint hot-swap are
//! written here once too: every door only decodes, calls them and encodes.
//!
//! Encoding reads the slot's schema and never reaches the model: a model is
//! reached, and reloaded if the tier evicted it, only by the batch that
//! runs it (and by the trainer tick and the hot-set replay, which run it
//! too). A failed reload therefore sheds the batch, whichever door its
//! requests came through.

use crate::batcher::{execute_supervised, recycle_batch, ShardWorker};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::online::{
    lock, publish, FeedbackError, OnlineConfig, OnlineDirectory, OnlineHooks, OnlineTable,
    OnlineTickReport,
};
use crate::registry::{Encoded, ModelRegistry, SwapError};
use crate::router::{Clock, ReplyTo, RoutedRequest, Router, TableResources};
use crate::server::{ServeConfig, ServeError};
use crate::tier::ModelTier;
use duet_core::DuetEstimator;
use duet_data::Table;
use duet_query::Query;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// The reason [`ServeError::Rejected`] gives for ingest or feedback to a
/// table that is not online-enabled (the wire answers it `UnknownTable`).
pub(crate) const NOT_ONLINE: &str = "online learning is not enabled for this table";

/// Router, shard executors, table directory, metrics, clock, model tier and
/// online directory, built once from a [`ServeConfig`].
#[derive(Debug)]
pub(crate) struct ServeCore {
    /// Sizes the cache and hot set of every registered table.
    config: ServeConfig,
    /// Name → model slot and dense table id.
    pub(crate) registry: ModelRegistry,
    pub(crate) router: Router,
    /// One executor per router shard, indexed like the shards.
    executors: Vec<Mutex<ShardWorker>>,
    /// Every table's serving record, indexed by registry id.
    pub(crate) directory: RwLock<Vec<TableResources>>,
    pub(crate) metrics: Arc<ServeMetrics>,
    /// The clock deadlines are measured against.
    pub(crate) clock: Arc<dyn Clock>,
    /// Model-memory budgeting, enforced after every batch.
    pub(crate) tier: Arc<ModelTier>,
    /// Online-learning state of online-enabled tables, shared with any
    /// background trainer.
    pub(crate) online: Arc<OnlineDirectory>,
}

impl ServeCore {
    /// A core with no tables whose deadlines run on `clock`.
    pub(crate) fn new(config: &ServeConfig, clock: Arc<dyn Clock>) -> Self {
        let metrics = Arc::new(ServeMetrics::new());
        let router = Router::new(config.router, clock.clone(), metrics.clone());
        Self {
            config: *config,
            registry: ModelRegistry::new(),
            executors: (0..router.num_shards()).map(|_| Mutex::new(ShardWorker::new())).collect(),
            router,
            directory: RwLock::new(Vec::new()),
            metrics,
            clock,
            tier: Arc::new(ModelTier::new(config.model_budget_bytes)),
            online: Arc::new(OnlineDirectory::new()),
        }
    }

    /// Register (or replace) the model serving `table` and return its dense
    /// id: the `n`-th distinct name gets id `n`. The table is hashed onto
    /// its shard and gets a fresh cache and hot set; a replaced table leaves
    /// online learning until it is enabled again.
    pub(crate) fn register(&self, table: &str, estimator: DuetEstimator) -> u32 {
        // Hold the directory lock across the registry update so two
        // concurrent registrations of one table cannot interleave and leave
        // the registry and the directory on different slots.
        let mut directory = self.directory.write().expect("directory poisoned");
        let (id, slot) = self.registry.register_indexed(table, estimator);
        let resources =
            TableResources::new(table, slot, self.router.shard_index(table), &self.config);
        let index = id as usize;
        if index < directory.len() {
            directory[index] = resources; // re-registration reuses the id
                                          // The table's online state hooks the replaced slot: a retrain
                                          // would publish where nothing serves.
            self.online.disable(index);
        } else {
            // A real invariant, not a debug assertion: the workers index
            // this vector by registry id, so a gap would misroute every
            // later table.
            assert_eq!(index, directory.len(), "registry ids are dense");
            directory.push(resources);
        }
        id
    }

    /// The dense id and serving record of `table`.
    pub(crate) fn record(&self, table: &str) -> Result<(u32, TableResources), ServeError> {
        let id =
            self.registry.table_id(table).ok_or_else(|| ServeError::UnknownTable(table.into()))?;
        // `register` holds the directory lock while it updates the registry,
        // so an id the registry hands out already has its record.
        Ok((id, self.table(id)))
    }

    /// The serving record of the table with dense id `table_id`.
    pub(crate) fn table(&self, table_id: u32) -> TableResources {
        self.tables()[table_id as usize].clone()
    }

    /// The executor of shard `shard`.
    pub(crate) fn executor(&self, shard: usize) -> &Mutex<ShardWorker> {
        &self.executors[shard]
    }

    /// Encode `query` against the schema of `record`, the serving record of
    /// table `table_id`, into a request for [`Router::admit`]; the door that
    /// admits it supplies the reply. The one place an in-process request is
    /// built.
    pub(crate) fn prepare(
        &self,
        table_id: u32,
        record: &TableResources,
        query: &Query,
    ) -> RoutedRequest {
        let (preds, intervals) = record.slot.encode(query);
        RoutedRequest {
            table_id,
            slot_uid: 0,
            preds,
            intervals,
            key: None,
            deadline: None,
            reply: ReplyTo::Discard,
        }
    }

    /// Enable (or replace) online learning for table `table_id` over `data`,
    /// the table its model was trained on; returns the shared state. Fails
    /// with [`ServeError::Rejected`] when `data`'s width differs from the
    /// serving schema's, or `data` has no rows.
    pub(crate) fn enable_online(
        &self,
        table_id: u32,
        data: Table,
        config: OnlineConfig,
    ) -> Result<Arc<Mutex<OnlineTable>>, ServeError> {
        let record = self.table(table_id);
        let schema_columns = record.slot.ndvs().len();
        if data.num_columns() != schema_columns {
            let columns = data.num_columns();
            let reason =
                format!("online table has {columns} columns, serving schema has {schema_columns}");
            return Err(rejected(&record, reason));
        }
        if data.num_rows() == 0 {
            // A retrain draws its anchors from these rows.
            return Err(rejected(&record, "online table has no rows".into()));
        }
        let hooks = OnlineHooks {
            slot: record.slot,
            cache: record.cache,
            hot: record.hot,
            tier: self.tier.clone(),
            metrics: self.metrics.clone(),
            table_id: table_id as usize,
        };
        Ok(self.online.enable(table_id as usize, OnlineTable::new(data, config, hooks)))
    }

    /// `table`'s serving record and online state, or the refusal the
    /// in-process doors give for a table that is missing or not
    /// online-enabled (the wire, which reads `online` itself, answers both
    /// `UnknownTable`).
    pub(crate) fn online_record(
        &self,
        table: &str,
    ) -> Result<(TableResources, Arc<Mutex<OnlineTable>>), ServeError> {
        let (id, record) = self.record(table)?;
        match self.online.get(id as usize) {
            Some(online) => Ok((record, online)),
            None => Err(rejected(&record, NOT_ONLINE.into())),
        }
    }

    /// Append one dictionary-encoded row to `online`, the online state of
    /// the table `record` serves; returns the new row count.
    pub(crate) fn ingest(
        &self,
        online: &Mutex<OnlineTable>,
        record: &TableResources,
        ids: &[u32],
    ) -> Result<u64, ServeError> {
        let ingested = lock(online).ingest_row(ids);
        ingested.map_err(|e| rejected(record, e.to_string()))
    }

    /// Queue one observed true cardinality on `online` for the next retrain,
    /// stamped with the uid of `record`'s slot: a table re-registered since
    /// online learning was enabled answers `StaleRegistration`. `observed`
    /// is the query in the table's id space.
    pub(crate) fn feedback(
        &self,
        online: &Mutex<OnlineTable>,
        record: &TableResources,
        observed: Encoded,
        actual: f64,
    ) -> Result<(), ServeError> {
        let (preds, intervals) = observed;
        let pushed = lock(online).push_feedback(record.slot.uid(), preds, intervals, actual);
        pushed.map_err(|e| match e {
            FeedbackError::StaleSlot { .. } => {
                ServeError::StaleRegistration(record.name.to_string())
            }
            FeedbackError::OutsideIdSpace | FeedbackError::InvalidCardinality => {
                rejected(record, e.to_string())
            }
        })
    }

    /// One trainer tick on `online`, supervised (see
    /// [`OnlineDirectory::tick`]); a tick that panicked answers `Internal`.
    pub(crate) fn tick(
        &self,
        online: &Arc<Mutex<OnlineTable>>,
        record: &TableResources,
    ) -> Result<OnlineTickReport, ServeError> {
        self.online.tick(online).ok_or_else(|| ServeError::Internal(record.name.to_string()))
    }

    /// Replace `record`'s weights from a checkpoint and [`publish`] them
    /// (see [`crate::DuetServer::hot_swap`]).
    pub(crate) fn hot_swap(
        &self,
        record: &TableResources,
        checkpoint: &[u8],
    ) -> Result<(), ServeError> {
        let TableResources { slot, cache, hot, .. } = record;
        publish(slot, cache, hot, &self.metrics, |slot| slot.hot_swap_checkpoint(checkpoint))
            .map(drop)
            .map_err(|e| ServeError::Swap(SwapError::Checkpoint(e)))
    }

    /// A point-in-time snapshot of every metric, with cache counters summed
    /// across tables and the router's current total queue depth.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let (hits, misses) = self
            .tables()
            .iter()
            .fold((0u64, 0u64), |(h, m), r| (h + r.cache.hits(), m + r.cache.misses()));
        self.metrics.snapshot(hits, misses, self.router.queue_depth())
    }

    /// The table directory, read-locked.
    pub(crate) fn tables(&self) -> RwLockReadGuard<'_, Vec<TableResources>> {
        self.directory.read().expect("directory poisoned")
    }

    /// Execute `batch` on the shard executor `executor`, supervised, at the
    /// clock's current reading, then hand its wire requests back to their
    /// connections. Ticket outcomes are appended to the executor's log.
    /// Returns the number of queries the forward pass ran.
    ///
    /// `tables` is the directory, read-locked by the caller. The worker, the
    /// sim and the in-process door hold the executor before they read the
    /// directory; the wire pump already holds the directory, so it only
    /// `try_lock`s an executor and never waits for one while holding it.
    /// Nobody reads the directory twice on one thread: the second read can
    /// queue behind a waiting `register` and deadlock.
    pub(crate) fn run_batch(
        &self,
        executor: &mut ShardWorker,
        tables: &[TableResources],
        batch: &mut Vec<RoutedRequest>,
    ) -> usize {
        let now = self.clock.now();
        let forwarded = execute_supervised(executor, batch, tables, now, &self.metrics, &self.tier);
        recycle_batch(batch, &self.metrics);
        forwarded
    }
}

/// An online payload for `record`'s table refused for `reason`.
fn rejected(record: &TableResources, reason: String) -> ServeError {
    ServeError::Rejected { table: record.name.to_string(), reason }
}
