//! The serving core: the one assembly of the parts every front door admits
//! through and every shard worker executes against.
//!
//! [`crate::DuetServer`] is this core plus worker threads, stop flags and
//! wire listeners; the deterministic harness ([`crate::sim`]) is this core
//! plus a [`crate::VirtualClock`], shard workers it steps by hand, and an
//! outcome log. Both build their parts here, register tables here, encode
//! requests here and run batches here, so the harness replays the code the
//! server ships rather than a copy of it.

use crate::batcher::{execute_supervised, recycle_batch, ShardWorker};
use crate::metrics::{Counter, MetricsSnapshot, ServeMetrics};
use crate::online::{OnlineConfig, OnlineDirectory, OnlineHooks, OnlineTable};
use crate::registry::{ModelRegistry, ReloadError};
use crate::router::{Clock, ReplyTo, RoutedRequest, Router, ShedReason, TableResources};
use crate::server::{ServeConfig, ServeError};
use crate::tier::ModelTier;
use duet_core::{query_to_id_predicates, DuetEstimator};
use duet_data::Table;
use duet_query::Query;
use std::sync::{Arc, Mutex, RwLock};

/// Router, table directory, metrics, clock, model tier and online directory,
/// built once from a [`ServeConfig`].
#[derive(Debug)]
pub(crate) struct ServeCore {
    /// Sizes the cache and hot set of every registered table.
    config: ServeConfig,
    /// Name → model slot and dense table id.
    pub(crate) registry: ModelRegistry,
    pub(crate) router: Router,
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
        Self {
            config: *config,
            registry: ModelRegistry::new(),
            router: Router::new(config.router, clock.clone(), metrics.clone()),
            directory: RwLock::new(Vec::new()),
            metrics,
            clock,
            tier: Arc::new(ModelTier::new(config.model_budget_bytes)),
            online: Arc::new(OnlineDirectory::new()),
        }
    }

    /// Register (or replace) the model serving `table` and return its dense
    /// id: the `n`-th distinct name gets id `n`. The table is hashed onto
    /// its shard and gets a fresh cache and hot set.
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
        self.directory.read().expect("directory poisoned")[table_id as usize].clone()
    }

    /// Encode `query` against the current schema of table `table_id` into a
    /// request for [`Router::admit`]; the door that admits it supplies the
    /// reply. The one place an in-process request is built.
    ///
    /// Resolving may lazily reload a model the tier evicted. A reload that
    /// fails is counted (`reload_failures`) and the request is shed as
    /// `shed_overload`, the counter a batch whose reload fails uses too.
    pub(crate) fn prepare(
        &self,
        table_id: u32,
        query: &Query,
    ) -> Result<RoutedRequest, ReloadError> {
        let slot =
            self.directory.read().expect("directory poisoned")[table_id as usize].slot.clone();
        let (_, estimator) = slot
            .resolve(&self.metrics)
            .inspect_err(|_| self.metrics.incr(Counter::ShedOverload))?;
        let schema = estimator.schema();
        Ok(RoutedRequest {
            table_id,
            slot_uid: 0,
            preds: query_to_id_predicates(schema, query),
            intervals: query.column_intervals(schema),
            key: None,
            deadline: None,
            reply: ReplyTo::Discard,
        })
    }

    /// Enable (or replace) online learning for table `table_id` over `data`,
    /// the table its model was trained on; returns the shared state. Fails
    /// with [`ServeError::Rejected`] when `data`'s width differs from the
    /// serving schema's.
    pub(crate) fn enable_online(
        &self,
        table_id: u32,
        data: Table,
        config: OnlineConfig,
    ) -> Result<Arc<Mutex<OnlineTable>>, ServeError> {
        let record = self.table(table_id);
        let schema_columns = record.slot.ndvs().len();
        if data.num_columns() != schema_columns {
            return Err(ServeError::Rejected {
                table: record.name.to_string(),
                reason: format!(
                    "online table has {} columns, serving schema has {schema_columns}",
                    data.num_columns()
                ),
            });
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

    /// A point-in-time snapshot of every metric, with cache counters summed
    /// across tables and the router's current total queue depth.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let (hits, misses) = self
            .directory
            .read()
            .expect("directory poisoned")
            .iter()
            .fold((0u64, 0u64), |(h, m), r| (h + r.cache.hits(), m + r.cache.misses()));
        self.metrics.snapshot(hits, misses, self.router.queue_depth())
    }

    /// Execute the batch `worker` holds, supervised, at the clock's current
    /// reading, then hand its wire requests back to their connections. Ticket
    /// outcomes are appended to `outcomes`.
    pub(crate) fn run_batch(
        &self,
        worker: &mut ShardWorker,
        outcomes: &mut Vec<(u64, Result<f64, ShedReason>)>,
    ) {
        let now = self.clock.now();
        let tables = self.directory.read().expect("directory poisoned");
        execute_supervised(worker, &tables, now, &self.metrics, &self.tier, outcomes);
        drop(tables);
        recycle_batch(&mut worker.batch, &self.metrics);
    }
}
