//! Online learning: in-process drift detection, query-feedback accumulation,
//! and background retraining that publishes through the zero-downtime
//! hot-swap path.
//!
//! The paper's hybrid estimator is cheap enough to *retrain while serving*:
//! a single train step is one forward/backward over a small batch, so a
//! background trainer can track a shifting data distribution without a
//! separate training cluster. This module closes that loop inside the
//! server:
//!
//! * **Ingest** ([`OnlineTable::ingest_row`]) appends dictionary-encoded
//!   rows to the table a model was trained on and incrementally maintains
//!   the per-column [`ColumnStats`] histograms — `O(1)` count bump plus an
//!   `O(ndv)` summary refresh per touched column, no full-table rescan;
//! * **Drift detection** ([`DriftMonitor`]) compares the live histograms
//!   against the snapshot the serving model was trained on, using
//!   total-variation distance ([`duet_data::histogram_distance`]) with a
//!   configurable threshold and hysteresis (N consecutive over-threshold
//!   ticks) so a single burst cannot thrash the trainer;
//! * **Feedback** ([`OnlineTable::push_feedback`]) accumulates observed true
//!   cardinalities — the query-driven half of the paper's hybrid loss — as
//!   weighted [`PreparedQuery`]s. Feedback is stamped with the slot uid the
//!   online table is bound to; feedback for a re-registered table is
//!   rejected (the stale-registration path, extended from the router);
//! * **Retrain & publish** ([`OnlineTable::tick`]): on drift or enough
//!   accumulated feedback, the trainer pins the table in the
//!   [`ModelTier`] (a mid-retrain model must not be paged out), warm-starts
//!   from the serving weights, runs [`duet_core::train_step`] over
//!   recency-biased virtual-tuple batches plus the weighted feedback
//!   queries, and publishes via [`ModelSlot::swap`] → cache invalidation →
//!   [`crate::HotSet`] warm replay. In-flight batches finish on their `Arc`
//!   clone of the old weights; the generation bump makes stale cache keys
//!   unreachable; the hottest keys are re-seeded in one batched pass.
//!
//! Everything is deterministic given the config seed: the trainer owns a
//! seeded [`SmallRng`], ticks run on the caller's cadence (the sim drives
//! them from the virtual clock), and no wall-clock time is read — which is
//! what lets the sim's drift script (`sim::DriftScenarioConfig::generate`)
//! replay the whole drift → retrain → hot-swap sequence bit-identically.

use crate::cache::{HotSet, ShardedCache};
use crate::metrics::{Counter, ServeMetrics};
use crate::registry::{ModelSlot, SwapError};
use crate::tier::ModelTier;
use duet_core::{
    sample_virtual_batch, train_step, DuetEstimator, DuetWorkspace, IdPredicate, PreparedQuery,
    SamplerConfig, TrainStepScratch,
};
use duet_data::{histogram_distance, table_stats, ColumnStats, Table};
use duet_nn::Adam;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for one table's online-learning loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Total-variation distance (max over columns, in `[0, 1]`) above which
    /// a tick counts as drifted.
    pub drift_threshold: f64,
    /// Consecutive drifted ticks required before a retrain triggers
    /// (hysteresis; 1 = trigger immediately).
    pub drift_hysteresis: u32,
    /// Bounded feedback queue size (a ring: the oldest entry is overwritten
    /// once full).
    pub feedback_capacity: usize,
    /// Retrain once this many feedback entries have accumulated, even
    /// without drift; 0 disables the feedback trigger (drift-only).
    pub feedback_trigger: usize,
    /// SGD steps per retrain.
    pub retrain_steps: usize,
    /// Anchor rows sampled per step (each expands into
    /// [`OnlineConfig::expand_mu`] virtual tuples).
    pub train_batch_size: usize,
    /// Virtual-tuple replication factor µ (paper Algorithm 1).
    pub expand_mu: usize,
    /// Per-column wildcard probability of the virtual-tuple sampler.
    pub wildcard_prob: f64,
    /// Hybrid-loss weight λ applied to the feedback (query-driven) term.
    pub lambda: f64,
    /// Per-query weight of feedback entries in the hybrid loss (1.0 = like
    /// one training workload query; higher = trust observed cardinalities
    /// more).
    pub feedback_weight: f64,
    /// Adam learning rate of the retrain loop.
    pub learning_rate: f32,
    /// Probability an anchor row is drawn from the most recently ingested
    /// quarter of the table instead of uniformly — biases the retrain
    /// toward the shifted distribution.
    pub recent_fraction: f64,
    /// Seed of the trainer's private RNG (anchor rows + virtual tuples).
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            drift_threshold: 0.15,
            drift_hysteresis: 2,
            feedback_capacity: 256,
            feedback_trigger: 0,
            retrain_steps: 48,
            train_batch_size: 32,
            expand_mu: 2,
            wildcard_prob: 0.3,
            lambda: 0.1,
            feedback_weight: 2.0,
            learning_rate: 1e-3,
            recent_fraction: 0.5,
            seed: 0x0D1F7,
        }
    }
}

/// Histogram-distance drift detector with hysteresis.
///
/// Holds the per-column [`ColumnStats`] snapshot the serving model was
/// trained against (the *baseline*) and compares live statistics against it
/// on every [`DriftMonitor::check`]. Checking is allocation-free, so the
/// detector can tick inside the serving hot loop (see `tests/zero_alloc.rs`
/// phase eight).
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    baseline: Vec<ColumnStats>,
    threshold: f64,
    hysteresis: u32,
    consecutive: u32,
}

impl DriftMonitor {
    /// A monitor comparing against `baseline` with the given threshold and
    /// hysteresis (`hysteresis` is clamped to at least 1).
    pub fn new(baseline: Vec<ColumnStats>, threshold: f64, hysteresis: u32) -> Self {
        Self { baseline, threshold, hysteresis: hysteresis.max(1), consecutive: 0 }
    }

    /// The configured trigger threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Consecutive over-threshold checks so far.
    pub fn consecutive(&self) -> u32 {
        self.consecutive
    }

    /// Largest per-column total-variation distance between `live` and the
    /// baseline (columns beyond the shorter side are ignored).
    /// Allocation-free.
    pub fn max_distance(&self, live: &[ColumnStats]) -> f64 {
        self.baseline
            .iter()
            .zip(live.iter())
            .map(|(b, l)| histogram_distance(b, l))
            .fold(0.0f64, f64::max)
    }

    /// Record one observation of the live statistics; returns `true` when
    /// the distance has exceeded the threshold for `hysteresis` consecutive
    /// checks (drift confirmed). Allocation-free.
    pub fn check(&mut self, live: &[ColumnStats]) -> bool {
        if self.max_distance(live) > self.threshold {
            self.consecutive = self.consecutive.saturating_add(1);
        } else {
            self.consecutive = 0;
        }
        self.consecutive >= self.hysteresis
    }

    /// Adopt `live` as the new baseline (called after a retrain publishes,
    /// so drift is measured against what the *new* model saw) and re-arm
    /// the hysteresis counter.
    pub fn rebaseline(&mut self, live: &[ColumnStats]) {
        self.baseline.clear();
        self.baseline.extend_from_slice(live);
        self.consecutive = 0;
    }
}

/// Why an ingested row was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The row has the wrong number of columns.
    WidthMismatch {
        /// Columns in the table.
        expected: usize,
        /// Columns in the rejected row.
        got: usize,
    },
    /// A value id is outside its column's dictionary. Online ingest is
    /// append-only over the *existing* dictionary: admitting new values
    /// would change the model's input domain and make every retrained model
    /// swap-incompatible with the serving slot.
    UnknownValueId {
        /// Column of the offending id.
        column: usize,
        /// The rejected value id.
        id: u32,
        /// The column's dictionary size.
        ndv: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::WidthMismatch { expected, got } => {
                write!(f, "ingest row has {got} columns, table has {expected}")
            }
            IngestError::UnknownValueId { column, id, ndv } => {
                write!(f, "ingest value id {id} out of range for column {column} (ndv {ndv})")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a feedback entry was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackError {
    /// The feedback was stamped with a slot uid other than the one this
    /// online table is bound to — the table was re-registered while the
    /// feedback was in flight, so the observation describes a model that no
    /// longer serves.
    StaleSlot {
        /// Uid the online table is bound to.
        bound: u64,
        /// Uid the feedback was stamped with.
        got: u64,
    },
    /// The predicates or intervals fall outside the table's id space (wrong
    /// column count, an interval past a column's domain, an unknown literal
    /// id): training on them would index past the column's domain.
    OutsideIdSpace,
    /// The observed cardinality was not a finite non-negative number.
    InvalidCardinality,
}

impl std::fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedbackError::StaleSlot { bound, got } => {
                write!(f, "stale feedback: stamped slot uid {got}, online table bound to {bound}")
            }
            FeedbackError::OutsideIdSpace => {
                write!(f, "feedback predicates fall outside the table's id space")
            }
            FeedbackError::InvalidCardinality => {
                write!(f, "feedback cardinality must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for FeedbackError {}

/// The serving-side resources an online table publishes through: the model
/// slot it retrains, the cache/hot-set pair it re-seeds after a swap, the
/// tier it pins mid-retrain, and the metrics sink. All shared `Arc`s with
/// the worker directory — publishing through them is exactly the hot-swap
/// path the front door uses.
#[derive(Debug, Clone)]
pub struct OnlineHooks {
    /// The model slot serving this table (swap target).
    pub slot: Arc<ModelSlot>,
    /// The table's result cache (invalidated on publish).
    pub cache: Arc<ShardedCache>,
    /// The table's hot set (replayed into the cache after a swap).
    pub hot: Arc<HotSet>,
    /// The registry-wide model tier (pinned for the retrain's duration).
    pub tier: Arc<ModelTier>,
    /// Serving metrics (ingest/drift/retrain counters).
    pub metrics: Arc<ServeMetrics>,
    /// The table's dense directory id (tier pin key).
    pub table_id: usize,
}

/// One accumulated feedback observation: an executed query's encoded
/// predicates plus its observed true cardinality.
#[derive(Debug, Clone)]
struct FeedbackEntry {
    preds: Vec<Vec<IdPredicate>>,
    intervals: Vec<(u32, u32)>,
    actual: f64,
}

/// What one trainer tick did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineTickReport {
    /// Largest per-column histogram distance at the tick.
    pub max_distance: f64,
    /// Whether drift was confirmed (threshold + hysteresis) this tick.
    pub drift: bool,
    /// Whether a retrain ran (not when the serving model failed to reload).
    pub retrained: bool,
    /// Whether the retrained model was published (swap succeeded).
    pub swapped: bool,
    /// Hot-set entries replayed into the cache after the swap.
    pub replayed: usize,
}

/// One table's online-learning state: the growing table, its live column
/// statistics, the drift monitor, the bounded feedback ring, and the
/// trainer. Drive it with [`OnlineTable::ingest_row`],
/// [`OnlineTable::push_feedback`] and [`OnlineTable::tick`]; wrap it in the
/// server's [`OnlineDirectory`] to share it between the wire front door and
/// a background trainer thread.
pub struct OnlineTable {
    cfg: OnlineConfig,
    hooks: OnlineHooks,
    /// The full (growing) table — the training substrate. The serving
    /// estimator only carries a schema snapshot; the data lives here.
    table: Table,
    /// Live per-column statistics, updated incrementally on every ingest.
    live: Vec<ColumnStats>,
    monitor: DriftMonitor,
    /// Slot uid this table is bound to; feedback stamped with any other uid
    /// is stale (the table was re-registered) and rejected.
    bound_uid: u64,
    feedback: Vec<FeedbackEntry>,
    /// Next overwrite position once the feedback ring is full.
    feedback_cursor: usize,
    rng: SmallRng,
    ingested: u64,
}

impl OnlineTable {
    /// Bind online learning for `table` (the data the serving model was
    /// trained on) to the serving resources in `hooks`. The drift baseline
    /// is the table's statistics *now* — i.e. what the serving model saw.
    pub fn new(table: Table, cfg: OnlineConfig, hooks: OnlineHooks) -> Self {
        let live = table_stats(&table);
        let monitor = DriftMonitor::new(live.clone(), cfg.drift_threshold, cfg.drift_hysteresis);
        let bound_uid = hooks.slot.uid();
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            hooks,
            table,
            live,
            monitor,
            bound_uid,
            feedback: Vec::new(),
            feedback_cursor: 0,
            rng,
            ingested: 0,
        }
    }

    /// Rows currently in the table (original + ingested).
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// Rows ingested since construction.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Feedback entries currently queued.
    pub fn feedback_len(&self) -> usize {
        self.feedback.len()
    }

    /// The slot uid this table is bound to.
    pub fn bound_uid(&self) -> u64 {
        self.bound_uid
    }

    /// The growing table (e.g. to compute true cardinalities in tests).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The drift monitor (inspection).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Largest per-column histogram distance between the live statistics
    /// and the serving model's baseline.
    pub fn drift_distance(&self) -> f64 {
        self.monitor.max_distance(&self.live)
    }

    /// Append one dictionary-encoded row and fold it into the live column
    /// statistics. Returns the new row count. The row is validated before
    /// anything mutates, so a rejected ingest leaves no partial state.
    pub fn ingest_row(&mut self, ids: &[u32]) -> Result<u64, IngestError> {
        let expected = self.table.num_columns();
        if ids.len() != expected {
            return Err(IngestError::WidthMismatch { expected, got: ids.len() });
        }
        for (column, &id) in ids.iter().enumerate() {
            let ndv = self.table.column(column).ndv();
            if id as usize >= ndv {
                return Err(IngestError::UnknownValueId { column, id, ndv });
            }
        }
        self.table.append_row_ids(ids);
        for (column, &id) in ids.iter().enumerate() {
            self.live[column].observe(id);
        }
        self.ingested += 1;
        self.hooks.metrics.incr(Counter::IngestedRows);
        Ok(self.table.num_rows() as u64)
    }

    /// Queue one observed true cardinality for the next retrain.
    ///
    /// `slot_uid` must be the uid of the slot the *caller* resolved for this
    /// table; if the table was re-registered since this online state was
    /// bound, the uids differ and the feedback is rejected as stale. Feedback
    /// outside the bound slot's id space, or with an unusable cardinality, is
    /// rejected too. Every rejection is counted in
    /// [`crate::MetricsSnapshot::feedback_rejected`] and leaves the queue
    /// untouched. Both front doors feed this one sink.
    pub fn push_feedback(
        &mut self,
        slot_uid: u64,
        preds: Vec<Vec<IdPredicate>>,
        intervals: Vec<(u32, u32)>,
        actual: f64,
    ) -> Result<(), FeedbackError> {
        if slot_uid != self.bound_uid {
            self.hooks.metrics.incr(Counter::FeedbackRejected);
            return Err(FeedbackError::StaleSlot { bound: self.bound_uid, got: slot_uid });
        }
        if !self.hooks.slot.fits_id_space(&preds, &intervals) {
            self.hooks.metrics.incr(Counter::FeedbackRejected);
            return Err(FeedbackError::OutsideIdSpace);
        }
        if !actual.is_finite() || actual < 0.0 {
            self.hooks.metrics.incr(Counter::FeedbackRejected);
            return Err(FeedbackError::InvalidCardinality);
        }
        let entry = FeedbackEntry { preds, intervals, actual };
        if self.cfg.feedback_capacity == 0 {
            return Ok(()); // feedback disabled; accept and drop
        }
        if self.feedback.len() < self.cfg.feedback_capacity {
            self.feedback.push(entry);
        } else {
            self.feedback[self.feedback_cursor] = entry;
            self.feedback_cursor = (self.feedback_cursor + 1) % self.cfg.feedback_capacity;
        }
        Ok(())
    }

    /// One trainer tick: check drift, and if drift is confirmed (or enough
    /// feedback has accumulated) retrain from the serving weights and
    /// publish through swap → invalidate → hot-set replay.
    ///
    /// The table is pinned in the tier for the retrain's duration, so the
    /// model being replaced (and the retrained one about to publish) cannot
    /// be evicted mid-flight. A serving model that no longer reloads skips
    /// the retrain (`retrained == false`); the next tick retries.
    pub fn tick(&mut self) -> OnlineTickReport {
        let mut report = OnlineTickReport {
            max_distance: self.monitor.max_distance(&self.live),
            ..OnlineTickReport::default()
        };
        report.drift = self.monitor.check(&self.live);
        if report.drift {
            self.hooks.metrics.incr(Counter::DriftDetections);
        }
        let feedback_due =
            self.cfg.feedback_trigger > 0 && self.feedback.len() >= self.cfg.feedback_trigger;
        if !(report.drift || feedback_due) {
            return report;
        }
        // Pin before announcing the retrain and unpin only after the publish
        // is fully accounted: any observer that sees `retrains` ticked but
        // `swaps_published` not yet ticked is looking at a window where the
        // pin is guaranteed held, which is what makes the mid-retrain
        // no-eviction regression test race-free. A tick that unwinds
        // releases this pin, and only this one, as the guard drops.
        self.hooks.tier.pin(self.hooks.table_id);
        let _pin = Pinned(self.hooks.tier.clone(), self.hooks.table_id);
        if let Ok((_, serving)) = self.hooks.slot.resolve(&self.hooks.metrics) {
            report.retrained = true;
            self.hooks.metrics.incr(Counter::Retrains);
            // A failed swap keeps the baseline and feedback: the next tick
            // retries.
            if let Ok(replayed) = self.retrain_and_publish(&serving) {
                report.swapped = true;
                report.replayed = replayed;
                self.hooks.metrics.incr(Counter::SwapsPublished);
                // Drift is now measured against what the new model saw, and
                // consumed feedback does not re-trigger.
                self.monitor.rebaseline(&self.live);
                self.feedback.clear();
                self.feedback_cursor = 0;
            }
        }
        report
    }

    /// Warm-start from `serving`'s weights, run the retrain loop over
    /// recency-biased virtual-tuple batches plus the weighted feedback
    /// queries, and publish the result. Returns the number of hot-set
    /// entries replayed into the cache.
    fn retrain_and_publish(&mut self, serving: &DuetEstimator) -> Result<usize, SwapError> {
        retrain_fault(self);
        let mut model = serving.model().clone();
        let mut adam = Adam::new(self.cfg.learning_rate);
        let mut scratch = TrainStepScratch::new();
        let sampler = SamplerConfig {
            expand_mu: self.cfg.expand_mu.max(1),
            wildcard_prob: self.cfg.wildcard_prob,
            max_predicates_per_column: 1,
        };
        let num_rows = self.table.num_rows();
        // Recency window: the last quarter of the table (at least one row).
        let recent_start = num_rows - (num_rows / 4).max(1).min(num_rows);
        let queries: Vec<PreparedQuery> = self
            .feedback
            .iter()
            .map(|f| {
                PreparedQuery::from_parts(f.preds.clone(), f.intervals.clone(), f.actual)
                    .with_weight(self.cfg.feedback_weight)
            })
            .collect();
        let mut anchors = Vec::with_capacity(self.cfg.train_batch_size.max(1));
        for _ in 0..self.cfg.retrain_steps.max(1) {
            anchors.clear();
            for _ in 0..self.cfg.train_batch_size.max(1) {
                let row = if self.rng.gen::<f64>() < self.cfg.recent_fraction {
                    self.rng.gen_range(recent_start..num_rows)
                } else {
                    self.rng.gen_range(0..num_rows)
                };
                anchors.push(row);
            }
            let batch = sample_virtual_batch(&self.table, &anchors, &sampler, &mut self.rng);
            train_step(
                &mut model,
                &mut adam,
                &batch,
                &queries,
                num_rows as f64,
                self.cfg.lambda,
                &mut scratch,
            );
        }
        // The online table's dictionaries are the serving id space (ingest
        // is dictionary-closed), so the retrain is published on the slot's
        // schema, which the serving estimator shares, not on a copy.
        let schema = serving.shared_schema().clone();
        let retrained =
            DuetEstimator::from_shared_schema(model, schema, num_rows, "online-retrained");
        let OnlineHooks { slot, cache, hot, metrics, .. } = &self.hooks;
        publish(slot, cache, hot, metrics, |slot| slot.swap(retrained))
    }
}

impl std::fmt::Debug for OnlineTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineTable")
            .field("table_id", &self.hooks.table_id)
            .field("num_rows", &self.table.num_rows())
            .field("ingested", &self.ingested)
            .field("feedback_len", &self.feedback.len())
            .field("bound_uid", &self.bound_uid)
            .finish_non_exhaustive()
    }
}

/// Releases one tier pin of a table when dropped.
struct Pinned(Arc<ModelTier>, usize);

impl Drop for Pinned {
    fn drop(&mut self) {
        self.0.unpin(self.1);
    }
}

/// Where the unit tests inject a panicking retrain (defined beside them).
#[cfg(not(test))]
fn retrain_fault(_: &OnlineTable) {}

/// Publish a new model of `slot`'s table: `swap` installs it, `cache` is
/// purged, and the hot set is replayed into it. The one publish path of
/// [`crate::DuetServer::hot_swap`] and the online trainer. Returns the
/// number of replayed keys, or `swap`'s error with nothing else done.
///
/// The order is the rule: the swap lands before the purge bumps the cache
/// epoch, so a batch that resolved the old model snapshotted the old epoch
/// and its inserts are rejected or purged; the replay then resolves the new
/// model and tags its inserts with the new epoch, so a later swap racing it
/// drops them.
pub(crate) fn publish<E>(
    slot: &ModelSlot,
    cache: &ShardedCache,
    hot: &HotSet,
    metrics: &ServeMetrics,
    swap: impl FnOnce(&ModelSlot) -> Result<(), E>,
) -> Result<usize, E> {
    swap(slot)?;
    cache.invalidate();
    Ok(replay_hot_keys(slot, cache, hot, metrics))
}

/// Re-estimate the hottest observed keys under `slot`'s current model and
/// seed `cache` with the results — one batched forward pass, epoch-tagged so
/// a racing swap drops them. Returns the number of replayed keys (none if
/// the model no longer reloads: the cache then starts cold).
fn replay_hot_keys(
    slot: &ModelSlot,
    cache: &ShardedCache,
    hot: &HotSet,
    metrics: &ServeMetrics,
) -> usize {
    let hot_queries = hot.snapshot();
    if hot_queries.is_empty() {
        return 0;
    }
    let Ok((generation, estimator)) = slot.resolve(metrics) else { return 0 };
    let epoch = cache.epoch();
    let mut ws = DuetWorkspace::new();
    let mut values = Vec::with_capacity(hot_queries.len());
    estimator.estimate_encoded_batch_with(&hot_queries, &hot_queries, &mut ws, &mut values);
    for (query, &value) in hot_queries.iter().zip(values.iter()) {
        cache.insert_tagged(query.key.with_generation(generation), value, epoch);
    }
    hot_queries.len()
}

/// The server's id-indexed registry of online-enabled tables, shared
/// between the in-process front door, the wire connections, and the
/// background trainer thread.
#[derive(Default)]
pub struct OnlineDirectory {
    tables: RwLock<Vec<Option<Arc<Mutex<OnlineTable>>>>>,
}

impl OnlineDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable (or replace) online learning for the table with dense id
    /// `table_id`; returns the shared state.
    pub fn enable(&self, table_id: usize, online: OnlineTable) -> Arc<Mutex<OnlineTable>> {
        let shared = Arc::new(Mutex::new(online));
        let mut tables = self.tables.write().expect("online directory poisoned");
        if tables.len() <= table_id {
            tables.resize_with(table_id + 1, || None);
        }
        tables[table_id] = Some(shared.clone());
        shared
    }

    /// Take table `table_id` out of online learning (its online state
    /// hooks a slot that a re-registration replaced).
    pub(crate) fn disable(&self, table_id: usize) {
        if let Some(entry) =
            self.tables.write().expect("online directory poisoned").get_mut(table_id)
        {
            *entry = None;
        }
    }

    /// The online state of table `table_id`, if enabled.
    pub fn get(&self, table_id: usize) -> Option<Arc<Mutex<OnlineTable>>> {
        self.tables.read().expect("online directory poisoned").get(table_id).cloned().flatten()
    }

    /// Tick every online-enabled table once, each supervised (a table whose
    /// tick panics leaves this directory, and the others keep ticking);
    /// returns the number of retrains that ran. The background trainer's
    /// body.
    pub fn tick_all(&self) -> usize {
        let tables: Vec<_> = {
            let guard = self.tables.read().expect("online directory poisoned");
            guard.iter().flatten().cloned().collect()
        };
        tables.iter().filter_map(|table| self.tick(table)).filter(|r| r.retrained).count()
    }

    /// One tick of `online` under the in-thread `catch_unwind` a batch runs
    /// under (`batcher::execute_supervised`), with the guard held outside it
    /// so the mutex is never poisoned. `None` when the tick panicked: that
    /// counts `panics_caught` and takes the table out of this directory, so
    /// ingest and feedback answer as for a table that is not online-enabled.
    /// The unwind has already released the retrain's tier pin.
    pub(crate) fn tick(&self, online: &Arc<Mutex<OnlineTable>>) -> Option<OnlineTickReport> {
        let mut table = lock(online);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| table.tick()));
        if caught.is_err() {
            let OnlineHooks { metrics, table_id, .. } = &table.hooks;
            metrics.incr(Counter::PanicsCaught);
            let mut tables = self.tables.write().expect("online directory poisoned");
            // Unless `enable` has replaced it meanwhile.
            if tables[*table_id].as_ref().is_some_and(|current| Arc::ptr_eq(current, online)) {
                tables[*table_id] = None;
            }
        }
        caught.ok()
    }
}

/// Lock one table's online state, which nothing poisons: ingest and feedback
/// validate before they mutate, and ticks run supervised.
pub(crate) fn lock(online: &Mutex<OnlineTable>) -> std::sync::MutexGuard<'_, OnlineTable> {
    online.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl std::fmt::Debug for OnlineDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tables = self.tables.read().expect("online directory poisoned");
        write!(f, "OnlineDirectory({} slots)", tables.len())
    }
}

/// Owner of a background trainer thread (see
/// [`crate::DuetServer::spawn_online_trainer`]): ticks every online table on
/// a fixed interval until shut down or dropped.
#[derive(Debug)]
pub struct OnlineTrainerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl OnlineTrainerHandle {
    /// Spawn a trainer ticking `directory` every `interval`.
    pub(crate) fn spawn(directory: Arc<OnlineDirectory>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("duet-online-trainer".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    directory.tick_all();
                    // Sleep in short slices so shutdown is prompt even with
                    // a long interval.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stop_flag.load(Ordering::Relaxed) {
                        let slice = remaining.min(Duration::from_millis(10));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("failed to spawn online trainer");
        Self { stop, thread: Some(thread) }
    }

    /// A clone of the trainer's stop flag, so [`crate::DuetServer::shutdown`]
    /// can halt training without owning (or joining) the handle.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Stop the trainer and join its thread (also happens on drop).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for OnlineTrainerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Slot uids whose online tables panic at the start of every retrain: the
/// fault the tick-supervision tests inject.
#[cfg(test)]
pub(crate) static PANICKING_RETRAINS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

#[cfg(test)]
fn retrain_fault(online: &OnlineTable) {
    if PANICKING_RETRAINS.lock().unwrap().contains(&online.bound_uid) {
        panic!("injected retrain fault (slot {})", online.bound_uid);
    }
}

#[cfg(test)]
impl OnlineDirectory {
    /// Feedback entries queued on table `table_id`'s online state.
    pub(crate) fn feedback_len(&self, table_id: usize) -> usize {
        lock(&self.get(table_id).expect("online-enabled")).feedback_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_core::DuetConfig;
    use duet_data::datasets::census_like;

    fn hooks_for(estimator: DuetEstimator) -> OnlineHooks {
        OnlineHooks {
            slot: Arc::new(ModelSlot::new(estimator)),
            cache: Arc::new(ShardedCache::new(64, 1)),
            hot: Arc::new(HotSet::new(8)),
            tier: Arc::new(ModelTier::new(0)),
            metrics: Arc::new(ServeMetrics::new()),
            table_id: 0,
        }
    }

    fn small_setup() -> (Table, OnlineHooks) {
        let table = census_like(300, 11);
        let cfg = DuetConfig::small().with_epochs(1);
        let estimator = DuetEstimator::train_data_only(&table, &cfg, 11);
        let hooks = hooks_for(estimator);
        (table, hooks)
    }

    #[test]
    fn ingest_validates_before_mutating() {
        let (table, hooks) = small_setup();
        let ncols = table.num_columns();
        let mut online = OnlineTable::new(table, OnlineConfig::default(), hooks);
        let before = online.num_rows();
        assert!(matches!(
            online.ingest_row(&vec![0; ncols + 1]),
            Err(IngestError::WidthMismatch { .. })
        ));
        let mut bad = vec![0u32; ncols];
        bad[0] = u32::MAX;
        assert!(matches!(
            online.ingest_row(&bad),
            Err(IngestError::UnknownValueId { column: 0, .. })
        ));
        assert_eq!(online.num_rows(), before, "rejected ingests leave no partial state");
        assert_eq!(online.ingested(), 0);
        let good = vec![0u32; ncols];
        assert_eq!(online.ingest_row(&good).unwrap(), before as u64 + 1);
        assert_eq!(online.ingested(), 1);
    }

    #[test]
    fn drift_monitor_hysteresis_and_rebaseline() {
        let (table, _hooks) = small_setup();
        let baseline = table_stats(&table);
        let mut monitor = DriftMonitor::new(baseline.clone(), 0.2, 2);
        assert!(!monitor.check(&baseline), "identical stats never drift");
        // Shift all mass of column 0 onto its last id.
        let mut shifted = baseline.clone();
        let last = shifted[0].counts.len() - 1;
        let total: u64 = shifted[0].counts.iter().sum();
        shifted[0].counts.iter_mut().for_each(|c| *c = 0);
        shifted[0].counts[last] = total;
        assert!(monitor.max_distance(&shifted) > 0.2);
        assert!(!monitor.check(&shifted), "hysteresis: first over-threshold tick arms only");
        assert!(monitor.check(&shifted), "second consecutive tick confirms");
        monitor.rebaseline(&shifted);
        assert!(!monitor.check(&shifted), "rebaselined: the shifted stats are the new normal");
        assert_eq!(monitor.consecutive(), 0);
    }

    /// Feedback in `slot`'s id space that constrains no column.
    fn unconstrained(slot: &ModelSlot) -> (Vec<Vec<IdPredicate>>, Vec<(u32, u32)>) {
        (vec![Vec::new(); slot.ndvs().len()], slot.ndvs().iter().map(|&ndv| (0, ndv)).collect())
    }

    #[test]
    fn stale_feedback_is_rejected_and_counted() {
        let (table, hooks) = small_setup();
        let metrics = hooks.metrics.clone();
        let bound = hooks.slot.uid();
        let (preds, intervals) = unconstrained(&hooks.slot);
        let mut online = OnlineTable::new(table, OnlineConfig::default(), hooks);
        assert!(online.push_feedback(bound, preds.clone(), intervals.clone(), 5.0).is_ok());
        assert_eq!(online.feedback_len(), 1);
        assert_eq!(
            online.push_feedback(bound + 1, preds.clone(), intervals.clone(), 5.0),
            Err(FeedbackError::StaleSlot { bound, got: bound + 1 })
        );
        assert_eq!(
            online.push_feedback(bound, preds, intervals, f64::NAN),
            Err(FeedbackError::InvalidCardinality)
        );
        assert_eq!(online.feedback_len(), 1, "rejected feedback is not queued");
        assert_eq!(metrics.snapshot(0, 0, 0).feedback_rejected, 2);
    }

    /// Feedback whose interval runs past its column's domain would index
    /// past the column in the next retrain; it is refused at the sink, and
    /// the retrain it would have triggered never sees it.
    #[test]
    fn feedback_outside_the_id_space_is_rejected_before_it_can_train() {
        let (table, hooks) = small_setup();
        let metrics = hooks.metrics.clone();
        let bound = hooks.slot.uid();
        let (preds, mut intervals) = unconstrained(&hooks.slot);
        let ndv = intervals[0].1;
        intervals[0] = (0, ndv + 1000);
        let cfg = OnlineConfig {
            feedback_trigger: 1,
            retrain_steps: 1,
            train_batch_size: 4,
            ..OnlineConfig::default()
        };
        let mut online = OnlineTable::new(table, cfg, hooks);
        assert!(online.push_feedback(bound, preds.clone(), intervals, 5.0).is_err());
        let mut wrong_width = unconstrained(&online.hooks.slot).1;
        wrong_width.pop();
        assert!(online.push_feedback(bound, preds, wrong_width, 5.0).is_err());
        assert_eq!(online.feedback_len(), 0, "rejected feedback is not queued");
        assert_eq!(metrics.snapshot(0, 0, 0).feedback_rejected, 2);
        assert!(!online.tick().retrained, "nothing queued, nothing to train on");
    }

    #[test]
    fn feedback_ring_is_bounded() {
        let (table, hooks) = small_setup();
        let bound = hooks.slot.uid();
        let (preds, intervals) = unconstrained(&hooks.slot);
        let cfg = OnlineConfig { feedback_capacity: 3, ..OnlineConfig::default() };
        let mut online = OnlineTable::new(table, cfg, hooks);
        for i in 0..10 {
            online.push_feedback(bound, preds.clone(), intervals.clone(), i as f64).unwrap();
        }
        assert_eq!(online.feedback_len(), 3);
    }

    #[test]
    fn tick_without_drift_is_a_no_op() {
        let (table, hooks) = small_setup();
        let slot = hooks.slot.clone();
        let mut online = OnlineTable::new(table, OnlineConfig::default(), hooks);
        let report = online.tick();
        assert!(!report.drift && !report.retrained && !report.swapped);
        assert_eq!(slot.generation(), 0, "no publish without a trigger");
    }

    #[test]
    fn drift_triggers_retrain_and_publishes_a_new_generation() {
        let (table, hooks) = small_setup();
        let slot = hooks.slot.clone();
        let metrics = hooks.metrics.clone();
        let ncols = table.num_columns();
        let skew: Vec<u32> =
            (0..ncols).map(|c| (table.column(c).ndv() as u32).saturating_sub(1)).collect();
        let cfg = OnlineConfig {
            drift_threshold: 0.1,
            drift_hysteresis: 1,
            retrain_steps: 4,
            train_batch_size: 8,
            ..OnlineConfig::default()
        };
        let mut online = OnlineTable::new(table, cfg, hooks);
        // Ingest a large skewed block: every row takes each column's last id.
        for _ in 0..400 {
            online.ingest_row(&skew).unwrap();
        }
        assert!(online.drift_distance() > 0.1, "the skewed block must move the histograms");
        let report = online.tick();
        assert!(report.drift && report.retrained && report.swapped);
        assert_eq!(slot.generation(), 1, "publish bumps the generation");
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!((snap.drift_detections, snap.retrains, snap.swaps_published), (1, 1, 1));
        assert_eq!(snap.ingested_rows, 400);
        // The monitor rebaselined: an immediate second tick is quiet.
        let second = online.tick();
        assert!(!second.drift && !second.retrained);
        // The published estimator carries the grown row count.
        assert_eq!(slot.resolve(&metrics).unwrap().1.num_rows(), online.num_rows());
    }

    /// A retrain is published on the slot's own schema, not on a copy of the
    /// online table's dictionaries, and answers exactly as the same weights
    /// over a copied schema would.
    #[test]
    fn a_retrain_is_published_on_the_slots_schema() {
        let (table, hooks) = small_setup();
        let (slot, metrics) = (hooks.slot.clone(), hooks.metrics.clone());
        let schema = slot.resolve(&metrics).unwrap().1.shared_schema().clone();
        let queries = duet_query::WorkloadSpec::random(&table, 16, 3).generate(&table);
        let data = table.clone();
        let cfg = OnlineConfig {
            feedback_trigger: 1,
            retrain_steps: 2,
            train_batch_size: 8,
            ..OnlineConfig::default()
        };
        let mut online = OnlineTable::new(table, cfg, hooks);
        let (preds, intervals) = slot.encode(&queries[0]);
        online.push_feedback(slot.uid(), preds, intervals, 40.0).unwrap();
        assert!(online.tick().swapped);

        let published = slot.resolve(&metrics).unwrap().1;
        assert_eq!(slot.generation(), 1);
        assert!(Arc::ptr_eq(published.shared_schema(), &schema), "published on the slot's schema");
        // The same weights over a copy of the table's dictionaries.
        let reference = DuetEstimator::from_model(published.model().clone(), &data, "copied");
        assert_eq!(published.num_rows(), reference.num_rows());
        assert_eq!(published.estimate_batch(&queries), reference.estimate_batch(&queries));
    }

    #[test]
    fn feedback_trigger_retrains_without_drift() {
        let (table, hooks) = small_setup();
        let slot = hooks.slot.clone();
        let bound = hooks.slot.uid();
        let schema = slot.resolve(&hooks.metrics).unwrap().1.schema().clone();
        let cfg = OnlineConfig {
            feedback_trigger: 2,
            retrain_steps: 2,
            train_batch_size: 4,
            ..OnlineConfig::default()
        };
        let mut online = OnlineTable::new(table, cfg, hooks);
        let ncols = schema.num_columns();
        for i in 0..2 {
            let preds = vec![Vec::new(); ncols];
            let intervals: Vec<(u32, u32)> =
                (0..ncols).map(|c| (0, schema.column(c).ndv() as u32)).collect();
            online.push_feedback(bound, preds, intervals, 100.0 + i as f64).unwrap();
        }
        let report = online.tick();
        assert!(!report.drift, "no data drifted");
        assert!(report.retrained && report.swapped, "feedback volume alone triggers");
        assert_eq!(slot.generation(), 1);
        assert_eq!(online.feedback_len(), 0, "consumed feedback is cleared");
    }
}
