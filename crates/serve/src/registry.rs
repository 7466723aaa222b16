//! The model registry: named, atomically hot-swappable estimator slots.
//!
//! Each table is served from a [`ModelSlot`] holding an `Arc<DuetEstimator>`.
//! Readers grab the `Arc` once per batch, so a swap never blocks or corrupts
//! in-flight work: requests already holding the old `Arc` finish against the
//! old weights, requests arriving afterwards see the new ones.
//!
//! The generation counter and the estimator live under one lock, so
//! [`ModelSlot::current_versioned`] always returns a matching
//! `(generation, weights)` pair. `duet-serve` keys cache entries by
//! generation; the batch worker labels every insert with the generation it
//! actually resolved, so a cached value is always one that *those* weights
//! computed — even for requests in flight across a swap.
//!
//! ## Residency
//!
//! A slot's model is either **resident** (the live `Arc<DuetEstimator>`) or
//! **evicted**: reduced to its [`duet_core::save_weights`] checkpoint bytes
//! (in memory, or spilled to a file) plus the schema/config needed to
//! rebuild it. Eviction is how [`crate::ModelTier`] enforces a registry-wide
//! memory budget over many registered tables. Because Duet's architecture is
//! a pure function of `(schema, config)` — the masks use no randomness — an
//! evicted model reloads **bit-identically**: the next request rebuilds the
//! network, restores the checkpointed weights, and produces exactly the
//! estimates the evicted instance would have. Evict/reload therefore does
//! **not** bump the generation: cached results stay valid.

use crate::metrics::{Counter, ServeMetrics};
use duet_core::{load_weights, CheckpointError, DuetConfig, DuetEstimator, IdPredicate};
use duet_data::Table;
use duet_query::CardinalityEstimator;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Source of [`ModelSlot::uid`] values: process-wide, never reused.
static NEXT_SLOT_UID: AtomicU64 = AtomicU64::new(1);

/// Where an evicted model's checkpoint bytes live.
///
/// Both forms hold **sealed** [`duet_core::save_weights`] frames: a magic
/// header, the payload length, and an FNV-1a checksum ahead of the codec
/// bytes. Spilled files are written via temp-file + rename and verified by
/// read-back before the resident model is dropped, so the store can only
/// ever contain a frame that validated at least once; any later damage
/// (truncation, bit rot, an operator overwriting the file) is caught by the
/// same frame check at reload time and surfaces as a typed error.
#[derive(Debug)]
enum CheckpointStore {
    /// Held in memory (the default warm-evict form).
    Memory(Vec<u8>),
    /// Spilled to a file (see [`crate::ModelTier::set_spill_dir`]).
    Spilled(PathBuf),
}

impl CheckpointStore {
    /// The checkpoint bytes, reading the spill file if necessary. A spilled
    /// file is length-validated against its frame header here; full
    /// checksum verification happens when the frame is unsealed on reload.
    fn load(&self) -> std::io::Result<std::borrow::Cow<'_, [u8]>> {
        match self {
            CheckpointStore::Memory(bytes) => Ok(std::borrow::Cow::Borrowed(bytes)),
            CheckpointStore::Spilled(path) => std::fs::read(path).map(std::borrow::Cow::Owned),
        }
    }

    /// Best-effort removal of the spill file (memory stores are a no-op).
    fn discard(&self) {
        if let CheckpointStore::Spilled(path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Everything needed to rebuild an evicted model bit-identically: the
/// checkpoint plus the deterministic-architecture inputs.
#[derive(Debug)]
struct EvictedModel {
    store: CheckpointStore,
    schema: Table,
    config: DuetConfig,
    num_rows: usize,
    label: String,
}

/// A slot's model: live, or reduced to checkpoint bytes.
#[derive(Debug)]
enum Residency {
    Resident(Arc<DuetEstimator>),
    // Boxed: the evicted payload is cold by definition, and boxing keeps the
    // enum the size of the hot Resident arm.
    Evicted(Box<EvictedModel>),
}

#[derive(Debug)]
struct VersionedModel {
    generation: u64,
    state: Residency,
}

/// Why an evicted model could not be brought back to residency.
#[derive(Debug)]
pub enum ReloadError {
    /// The spilled checkpoint file could not be read.
    Io(std::io::Error),
    /// The checkpoint bytes were rejected by the codec.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Io(e) => write!(f, "spilled checkpoint unreadable: {e}"),
            ReloadError::Checkpoint(e) => write!(f, "checkpoint rejected on reload: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// A single table's serving slot: the current estimator plus a monotonically
/// increasing generation counter bumped on every swap, updated as one unit.
#[derive(Debug)]
pub struct ModelSlot {
    inner: RwLock<VersionedModel>,
    /// Process-unique registration id: every `ModelSlot` ever constructed
    /// gets a fresh uid, so a queued request stamped with the uid it was
    /// encoded against can be rejected at dequeue if the table has since
    /// been **re-registered** (a new slot under the same dense table id).
    /// Hot-swaps and evict/reload keep the slot — and its uid — intact.
    uid: u64,
    /// Per-column domain sizes of the slot's id space. Fixed for the slot's
    /// lifetime: a swap must keep every dictionary, and eviction keeps the
    /// schema.
    ndvs: Box<[u32]>,
    /// Models evicted from this slot so far.
    evictions: AtomicU64,
    /// Spill files written by this slot so far, successful eviction or not.
    /// Part of the file name, so two workers evicting the slot at once
    /// never share a path: the loser of that race discards *its* file, not
    /// the one the winner's store points at.
    spills: AtomicU64,
    /// Evicted models rebuilt from their checkpoint so far.
    reloads: AtomicU64,
    /// Reload attempts that failed (unreadable spill file, corrupt or
    /// truncated checkpoint). Each failure sheds the requesting batch on the
    /// retryable overload path; the store is kept so a later attempt — after
    /// the file is repaired or a fresh model is swapped in — can still
    /// succeed. The slot degrades, it never wedges into a panic.
    reload_failures: AtomicU64,
}

impl ModelSlot {
    /// Wrap an estimator in a fresh slot (generation 0).
    pub fn new(estimator: DuetEstimator) -> Self {
        let schema = estimator.schema();
        let ndvs = schema.columns().iter().map(|c| c.ndv().min(u32::MAX as usize) as u32).collect();
        Self {
            ndvs,
            inner: RwLock::new(VersionedModel {
                generation: 0,
                state: Residency::Resident(Arc::new(estimator)),
            }),
            uid: NEXT_SLOT_UID.fetch_add(1, Ordering::Relaxed),
            evictions: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
        }
    }

    /// This slot's process-unique registration id (see the field docs).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Per-column domain sizes of the id space requests to this slot are
    /// encoded in (see the field docs).
    pub(crate) fn ndvs(&self) -> &[u32] {
        &self.ndvs
    }

    /// Whether decoded predicates and intervals are expressed in this slot's
    /// id space: one column each, every interval `lo <= hi <= ndv`, every
    /// literal id `< ndv`. Checked before a wire request queues and before
    /// feedback reaches a retrain, so neither can index past a column's
    /// domain.
    pub(crate) fn fits_id_space(
        &self,
        preds: &[Vec<IdPredicate>],
        intervals: &[(u32, u32)],
    ) -> bool {
        let ndvs = &self.ndvs;
        preds.len() == ndvs.len()
            && intervals.len() == ndvs.len()
            && ndvs.iter().zip(preds).zip(intervals).all(|((&ndv, column), &(lo, hi))| {
                lo <= hi && hi <= ndv && column.iter().all(|p| p.value_id < ndv)
            })
    }

    /// Whether the model is currently resident (not evicted to checkpoint
    /// bytes).
    pub fn is_resident(&self) -> bool {
        matches!(self.inner.read().expect("model slot poisoned").state, Residency::Resident(_))
    }

    /// The resident model's weight footprint in bytes, or `None` while the
    /// slot is evicted — the quantity [`crate::ModelTier`] budgets.
    pub fn resident_weight_bytes(&self) -> Option<usize> {
        match &self.inner.read().expect("model slot poisoned").state {
            Residency::Resident(estimator) => Some(estimator.model().size_bytes()),
            Residency::Evicted(_) => None,
        }
    }

    /// Models evicted from this slot so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Evicted models rebuilt from their checkpoint so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Reload attempts that failed with a typed error so far (see the
    /// `reload_failures` field docs for the recovery contract).
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// The estimator currently serving this slot.
    ///
    /// Cheap (`Arc` clone under a read lock) while resident; an evicted slot
    /// is transparently reloaded first.
    ///
    /// # Panics
    ///
    /// If an evicted model cannot be reloaded (spill file unreadable). The
    /// serving hot path uses [`ModelSlot::try_current_versioned`] and sheds
    /// instead.
    pub fn current(&self) -> Arc<DuetEstimator> {
        self.current_versioned().1
    }

    /// The current `(generation, estimator)` pair, read atomically — the
    /// returned generation is exactly the one these weights were installed
    /// under. Panics like [`ModelSlot::current`] if a reload fails.
    pub fn current_versioned(&self) -> (u64, Arc<DuetEstimator>) {
        self.try_current_versioned().expect("evicted model failed to reload")
    }

    /// Fallible [`ModelSlot::current`].
    pub fn try_current(&self) -> Result<Arc<DuetEstimator>, ReloadError> {
        self.try_current_versioned().map(|(_, estimator)| estimator)
    }

    /// The current `(generation, estimator)` pair, transparently rebuilding
    /// an evicted model from its checkpoint (lazy reload).
    ///
    /// The reload is **bit-identical**: Duet's architecture is a pure
    /// function of `(schema, config)`, so rebuilding the network and
    /// restoring the checkpointed weights reproduces the evicted model's
    /// estimates exactly, under the same generation. On a resident slot this
    /// is a read-lock `Arc` clone, same as before eviction.
    pub fn try_current_versioned(&self) -> Result<(u64, Arc<DuetEstimator>), ReloadError> {
        self.resolve_counting(None)
    }

    /// [`ModelSlot::try_current_versioned`] for the serving paths, with the
    /// lazy reload accounted on `metrics`: `model_reloads` when *this call*
    /// rebuilt the model, `reload_failures` when the rebuild failed. Both are
    /// recorded under the slot's write lock, beside the slot's own counters,
    /// so callers racing on one evicted slot record exactly the reloads
    /// [`ModelSlot::reloads`] counts.
    pub(crate) fn resolve(
        &self,
        metrics: &ServeMetrics,
    ) -> Result<(u64, Arc<DuetEstimator>), ReloadError> {
        self.resolve_counting(Some(metrics))
    }

    fn resolve_counting(
        &self,
        metrics: Option<&ServeMetrics>,
    ) -> Result<(u64, Arc<DuetEstimator>), ReloadError> {
        {
            let inner = self.inner.read().expect("model slot poisoned");
            if let Residency::Resident(estimator) = &inner.state {
                return Ok((inner.generation, estimator.clone()));
            }
        }
        let mut inner = self.inner.write().expect("model slot poisoned");
        match &inner.state {
            // Another thread reloaded while we waited for the write lock.
            Residency::Resident(estimator) => Ok((inner.generation, estimator.clone())),
            Residency::Evicted(evicted) => {
                let rebuilt = evicted.store.load().map_err(ReloadError::Io).and_then(|bytes| {
                    DuetEstimator::rebuild_from_checkpoint(
                        &evicted.schema,
                        evicted.num_rows,
                        &evicted.config,
                        evicted.label.clone(),
                        &bytes,
                    )
                    .map_err(ReloadError::Checkpoint)
                });
                let estimator = match rebuilt {
                    Ok(estimator) => estimator,
                    Err(e) => {
                        // Typed failure, counted, store kept: the caller
                        // sheds this batch on the retryable overload path
                        // and the *next* request tries again — a repaired
                        // spill file or a hot-swap publish heals the slot
                        // without a restart. Never a panic, never garbage
                        // weights (the checksum frame rejects those).
                        self.reload_failures.fetch_add(1, Ordering::Relaxed);
                        if let Some(metrics) = metrics {
                            metrics.incr(Counter::ReloadFailures);
                        }
                        return Err(e);
                    }
                };
                evicted.store.discard();
                let estimator = Arc::new(estimator);
                inner.state = Residency::Resident(estimator.clone());
                self.reloads.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = metrics {
                    metrics.incr(Counter::ModelReloads);
                }
                Ok((inner.generation, estimator))
            }
        }
    }

    /// Evict the resident model to its checkpoint bytes, freeing its weight
    /// memory until the next request reloads it.
    ///
    /// With `spill_dir: Some(dir)` the checkpoint is written to a file under
    /// `dir` (created if missing) and only a path is kept; otherwise the
    /// bytes are held in memory (still ~4× smaller than the live model,
    /// which materializes masked weight panels per layer). Returns the
    /// resident weight bytes freed, or 0 if the slot was already evicted or
    /// a concurrent swap/reload won the race (the slot is then left as that
    /// racer installed it). The generation is **not** bumped — reload is
    /// bit-identical, so cached results keyed on it stay valid.
    pub fn evict(&self, spill_dir: Option<&Path>) -> std::io::Result<usize> {
        // Snapshot under the read lock and serialize outside any lock, so
        // concurrent readers are never blocked behind checkpoint encoding.
        let (generation, estimator) = {
            let inner = self.inner.read().expect("model slot poisoned");
            match &inner.state {
                Residency::Resident(estimator) => (inner.generation, estimator.clone()),
                Residency::Evicted(_) => return Ok(0),
            }
        };
        let mut snapshot = (*estimator).clone();
        let checkpoint = duet_core::save_weights(&mut snapshot);
        drop(snapshot);
        let weight_bytes = estimator.model().size_bytes();
        let store = match spill_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let spill = self.spills.fetch_add(1, Ordering::Relaxed);
                let name = format!("slot-{}-gen-{generation}-spill-{spill}.duetckpt", self.uid);
                let path = dir.join(&name);
                // Crash-safe spill: write to a temporary sibling and rename
                // into place, so a crash or full disk mid-write can never
                // leave a half-written file under the final name. Then read
                // the renamed file back and verify its integrity frame
                // BEFORE dropping the resident model — the checkpoint is
                // about to become the only copy of these weights, so a torn
                // or bit-flipped write must keep the model resident instead.
                let tmp = dir.join(format!("{name}.tmp"));
                std::fs::write(&tmp, &checkpoint)?;
                std::fs::rename(&tmp, &path)?;
                let written = std::fs::read(&path)?;
                if let Err(e) = duet_core::verify_checkpoint(&written) {
                    let _ = std::fs::remove_file(&path);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("spilled checkpoint failed read-back verification: {e}"),
                    ));
                }
                CheckpointStore::Spilled(path)
            }
            None => CheckpointStore::Memory(checkpoint.to_vec()),
        };
        let evicted = Box::new(EvictedModel {
            store,
            schema: estimator.schema().schema_only(),
            config: estimator.model().config().clone(),
            num_rows: estimator.num_rows(),
            label: estimator.name().to_string(),
        });
        let mut inner = self.inner.write().expect("model slot poisoned");
        let still_current = inner.generation == generation
            && matches!(&inner.state, Residency::Resident(current) if Arc::ptr_eq(current, &estimator));
        if !still_current {
            // A swap or reload landed in between; keep what it installed.
            evicted.store.discard();
            return Ok(0);
        }
        inner.state = Residency::Evicted(evicted);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(weight_bytes)
    }

    /// The swap generation: 0 for a freshly registered model, +1 per swap.
    pub fn generation(&self) -> u64 {
        self.inner.read().expect("model slot poisoned").generation
    }

    /// Atomically replace the estimator (zero-downtime model refresh).
    ///
    /// The replacement must serve the **same id space** (column count and
    /// identical per-column dictionaries, value for value): requests already
    /// encoded against the old model may execute on the new one, which is
    /// only sound when every value id still means the same literal. A
    /// mismatch is rejected and the slot is left untouched; register a new
    /// slot to serve a re-schematized table. The full dictionary comparison
    /// is O(total distinct values), which is fine at swap frequency.
    ///
    /// In-flight requests holding the previous `Arc` are unaffected; the
    /// dictionary comparison runs against a snapshot taken under the read
    /// lock, so concurrent readers are never blocked behind it (the id space
    /// is invariant across successful swaps, which keeps the pre-checked
    /// compatibility valid even if another same-space swap lands in
    /// between). Only the pointer/generation update takes the write lock.
    pub fn swap(&self, estimator: DuetEstimator) -> Result<(), SwapError> {
        // Snapshot a comparable schema without forcing a reload: an evicted
        // slot keeps its schema alongside the checkpoint, so a swap can land
        // on it directly — this is also the heal path for a slot whose
        // checkpoint has gone bad (reloads fail typed; a publish installs a
        // fresh resident model and retires the broken store).
        let old_schema = {
            let inner = self.inner.read().expect("model slot poisoned");
            match &inner.state {
                Residency::Resident(est) => est.schema().schema_only(),
                Residency::Evicted(evicted) => evicted.schema.schema_only(),
            }
        };
        let (old, new) = (&old_schema, estimator.schema());
        let compatible = old.num_columns() == new.num_columns()
            && (0..old.num_columns()).all(|c| {
                let (oc, nc) = (old.column(c), new.column(c));
                oc.ndv() == nc.ndv()
                    && (0..oc.ndv() as u32).all(|id| oc.value_of_id(id) == nc.value_of_id(id))
            });
        if !compatible {
            return Err(SwapError::IncompatibleSchema {
                expected_columns: old.num_columns(),
                found_columns: new.num_columns(),
            });
        }
        let mut inner = self.inner.write().expect("model slot poisoned");
        if let Residency::Evicted(evicted) = &inner.state {
            // The swap replaces the evicted model outright; drop its spill
            // file rather than orphaning it on disk.
            evicted.store.discard();
        }
        inner.generation += 1;
        inner.state = Residency::Resident(Arc::new(estimator));
        Ok(())
    }

    /// Hot-swap from a [`duet_core::save_weights`] checkpoint.
    ///
    /// While resident, the current estimator provides the architecture: its
    /// clone receives the checkpointed weights (frame- and shape-checked by
    /// the codec), then replaces the original atomically. While evicted, the
    /// architecture is rebuilt from the slot's retained `(schema, config)` —
    /// the checkpoint is loaded into a fresh network without ever touching
    /// the (possibly corrupt) evicted store, which makes this the heal path
    /// for a slot whose spilled checkpoint has gone bad. On error the slot
    /// is left untouched.
    pub fn hot_swap_checkpoint(&self, checkpoint: &[u8]) -> Result<(), CheckpointError> {
        // Snapshot the architecture source under the read lock, then do the
        // (comparatively expensive) decode outside it.
        enum Arch {
            Live(Arc<DuetEstimator>),
            Rebuild { schema: Table, config: DuetConfig, num_rows: usize, label: String },
        }
        let arch = {
            let inner = self.inner.read().expect("model slot poisoned");
            match &inner.state {
                Residency::Resident(est) => Arch::Live(est.clone()),
                Residency::Evicted(evicted) => Arch::Rebuild {
                    schema: evicted.schema.schema_only(),
                    config: evicted.config.clone(),
                    num_rows: evicted.num_rows,
                    label: evicted.label.clone(),
                },
            }
        };
        let fresh = match arch {
            Arch::Live(current) => {
                let mut fresh = (*current).clone();
                load_weights(&mut fresh, checkpoint)?;
                fresh
            }
            Arch::Rebuild { schema, config, num_rows, label } => {
                DuetEstimator::rebuild_from_checkpoint(
                    &schema, num_rows, &config, label, checkpoint,
                )?
            }
        };
        self.swap(fresh).expect("a model rebuilt from the slot's schema cannot change schema");
        Ok(())
    }
}

/// Why a registry-level swap failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// No model is registered under the given table name.
    UnknownTable(String),
    /// The checkpoint was rejected (bad magic, truncation, shape mismatch).
    Checkpoint(CheckpointError),
    /// The replacement model serves a different schema than the current one.
    IncompatibleSchema {
        /// Column count of the model currently serving the slot.
        expected_columns: usize,
        /// Column count (or differing-dictionary marker) of the replacement.
        found_columns: usize,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::UnknownTable(t) => write!(f, "no model registered for table {t:?}"),
            SwapError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            SwapError::IncompatibleSchema { expected_columns, found_columns } => write!(
                f,
                "replacement model serves a different schema \
                 ({found_columns} columns or differing dictionaries vs {expected_columns}); \
                 register a new slot instead of swapping"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

impl From<CheckpointError> for SwapError {
    fn from(e: CheckpointError) -> Self {
        SwapError::Checkpoint(e)
    }
}

/// A registered slot plus the dense id the serving router addresses it by.
#[derive(Debug)]
struct RegisteredSlot {
    id: u32,
    slot: Arc<ModelSlot>,
}

/// A collection of [`ModelSlot`]s keyed by table name.
///
/// Besides the name→slot map, the registry hands every table a **dense,
/// stable `u32` id** at first registration (0, 1, 2, … in registration
/// order; re-registering a name reuses its id). The serving layer uses the
/// id to index the worker-shared table directory and each worker's
/// per-table workspace pool without hashing the name on the hot path.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    slots: RwLock<HashMap<String, RegisteredSlot>>,
    /// Next dense id to hand out. A dedicated monotonic counter — not
    /// `slots.len()` — so the density invariant (`n`-th distinct name gets
    /// id `n`) holds structurally rather than by the accident of the map
    /// never shrinking; id reuse would silently alias two tables in the
    /// server's id-indexed directory.
    next_id: AtomicU32,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) the model serving `table`, returning its slot.
    ///
    /// Replacing through `register` creates a *new* slot (generation resets)
    /// but keeps the table's dense id; use [`ModelRegistry::hot_swap`] to
    /// refresh weights in place.
    pub fn register(&self, table: impl Into<String>, estimator: DuetEstimator) -> Arc<ModelSlot> {
        self.register_indexed(table, estimator).1
    }

    /// [`ModelRegistry::register`], also returning the table's dense id.
    ///
    /// Ids are assigned in registration order (the `n`-th distinct name gets
    /// id `n`), so a caller serializing registrations can mirror them in an
    /// id-indexed directory.
    pub fn register_indexed(
        &self,
        table: impl Into<String>,
        estimator: DuetEstimator,
    ) -> (u32, Arc<ModelSlot>) {
        let table = table.into();
        let slot = Arc::new(ModelSlot::new(estimator));
        let mut slots = self.slots.write().expect("registry poisoned");
        let id = match slots.get(&table) {
            Some(existing) => existing.id,
            // The write lock serializes id assignment; the counter advances
            // only for distinct names, so ids stay dense and are never
            // reused even if the map were ever to shrink.
            None => self.next_id.fetch_add(1, Ordering::Relaxed),
        };
        debug_assert!(id < self.next_id.load(Ordering::Relaxed), "ids precede the counter");
        slots.insert(table, RegisteredSlot { id, slot: slot.clone() });
        (id, slot)
    }

    /// The slot serving `table`, if any.
    pub fn slot(&self, table: &str) -> Option<Arc<ModelSlot>> {
        self.slots.read().expect("registry poisoned").get(table).map(|r| r.slot.clone())
    }

    /// The dense id of `table`, if registered.
    pub fn table_id(&self, table: &str) -> Option<u32> {
        self.slots.read().expect("registry poisoned").get(table).map(|r| r.id)
    }

    /// Names of all registered tables (unordered).
    pub fn tables(&self) -> Vec<String> {
        self.slots.read().expect("registry poisoned").keys().cloned().collect()
    }

    /// Hot-swap `table`'s weights from a checkpoint (see
    /// [`ModelSlot::hot_swap_checkpoint`]).
    pub fn hot_swap(&self, table: &str, checkpoint: &[u8]) -> Result<(), SwapError> {
        let slot = self.slot(table).ok_or_else(|| SwapError::UnknownTable(table.to_string()))?;
        slot.hot_swap_checkpoint(checkpoint)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_core::{save_weights, DuetConfig};
    use duet_data::datasets::census_like;
    use duet_query::WorkloadSpec;

    fn trained(seed: u64) -> (duet_data::Table, DuetEstimator) {
        let table = census_like(300, 21);
        let cfg = DuetConfig::small().with_epochs(1);
        (table.clone(), DuetEstimator::train_data_only(&table, &cfg, seed))
    }

    #[test]
    fn register_and_lookup() {
        let registry = ModelRegistry::new();
        let (_, est) = trained(1);
        registry.register("census", est);
        assert!(registry.slot("census").is_some());
        assert!(registry.slot("missing").is_none());
        assert_eq!(registry.tables(), vec!["census".to_string()]);
    }

    #[test]
    fn table_ids_are_dense_and_stable_across_replacement() {
        let registry = ModelRegistry::new();
        let (_, est) = trained(1);
        let (id_a, _) = registry.register_indexed("alpha", est.clone());
        let (id_b, _) = registry.register_indexed("beta", est.clone());
        assert_eq!((id_a, id_b), (0, 1), "ids follow registration order");
        assert_eq!(registry.table_id("alpha"), Some(0));
        assert_eq!(registry.table_id("missing"), None);

        // Re-registering a name replaces the slot but keeps the id.
        let old_slot = registry.slot("alpha").unwrap();
        let (id_a2, new_slot) = registry.register_indexed("alpha", est);
        assert_eq!(id_a2, 0);
        assert!(!Arc::ptr_eq(&old_slot, &new_slot), "replacement creates a fresh slot");
        assert_eq!(registry.table_id("beta"), Some(1));
    }

    #[test]
    fn hot_swap_changes_estimates_and_generation() {
        let (table, est_a) = trained(1);
        let (_, mut est_b) = trained(2);
        let queries = WorkloadSpec::random(&table, 10, 5).generate(&table);
        let expect_b = est_b.estimate_batch(&queries);

        let registry = ModelRegistry::new();
        let slot = registry.register("census", est_a);
        assert_eq!(slot.generation(), 0);
        let before = slot.current().estimate_batch(&queries);
        assert_ne!(before, expect_b, "differently seeded models should disagree");

        let checkpoint = save_weights(&mut est_b);
        registry.hot_swap("census", &checkpoint).expect("swap should succeed");
        assert_eq!(slot.generation(), 1);
        assert_eq!(slot.current().estimate_batch(&queries), expect_b);
    }

    #[test]
    fn in_flight_arc_survives_swap() {
        let (_, est_a) = trained(1);
        let (_, est_b) = trained(2);
        let slot = ModelSlot::new(est_a);
        let held = slot.current();
        slot.swap(est_b).expect("same-schema swap should succeed");
        // The old Arc is still alive and usable after the swap.
        assert!(held.num_rows() > 0);
        assert_eq!(slot.generation(), 1);
    }

    #[test]
    fn swapping_a_different_schema_is_rejected() {
        use duet_core::{DuetConfig, DuetModel};
        use duet_data::{TableBuilder, Value};

        let (_, est) = trained(1);
        let slot = ModelSlot::new(est);

        let mut b = TableBuilder::new("tiny", vec!["a".into(), "b".into()]);
        for i in 0..20 {
            b.push_row(vec![Value::Int(i % 4), Value::Int(i % 3)]);
        }
        let tiny = b.build();
        let foreign_model = DuetModel::new(&tiny, &DuetConfig::small(), 1);
        let foreign = DuetEstimator::from_model(foreign_model, &tiny, "foreign");

        let err = slot.swap(foreign).unwrap_err();
        assert!(matches!(err, SwapError::IncompatibleSchema { .. }));
        assert_eq!(slot.generation(), 0, "rejected swap must not bump the generation");
    }

    #[test]
    fn evict_and_reload_is_bit_identical() {
        let (table, est) = trained(9);
        let queries = WorkloadSpec::random(&table, 12, 3).generate(&table);
        let slot = ModelSlot::new(est);
        let before = slot.current().estimate_batch(&queries);
        let bytes = slot.resident_weight_bytes().expect("fresh slot is resident");
        assert!(bytes > 0);

        let freed = slot.evict(None).expect("in-memory eviction cannot fail");
        assert_eq!(freed, bytes);
        assert!(!slot.is_resident());
        assert_eq!(slot.resident_weight_bytes(), None);
        assert_eq!(slot.evict(None).expect("double evict is a no-op"), 0);
        assert_eq!(slot.generation(), 0, "evict must not bump the generation");

        // The next access reloads transparently and bit-identically.
        let after = slot.current().estimate_batch(&queries);
        assert_eq!(after, before, "reload must reproduce the evicted model exactly");
        assert!(slot.is_resident());
        assert_eq!((slot.evictions(), slot.reloads()), (1, 1));
        assert_eq!(slot.generation(), 0);
    }

    #[test]
    fn racing_resolves_of_one_evicted_slot_record_one_reload() {
        let (_, est) = trained(9);
        let slot = ModelSlot::new(est);
        slot.evict(None).unwrap();
        let metrics = ServeMetrics::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    slot.resolve(&metrics).expect("the in-memory checkpoint reloads");
                });
            }
        });
        // Exactly one of the two calls rebuilt the model, and only that one
        // is counted — the metric agrees with the slot's own counter.
        assert_eq!(slot.reloads(), 1);
        assert_eq!(metrics.snapshot(0, 0, 0).model_reloads, 1);
    }

    #[test]
    fn evicted_slot_still_hot_swaps() {
        let (table, est_a) = trained(1);
        let (_, mut est_b) = trained(2);
        let queries = WorkloadSpec::random(&table, 8, 4).generate(&table);
        let expect_b = est_b.estimate_batch(&queries);

        let slot = ModelSlot::new(est_a);
        slot.evict(None).unwrap();
        let checkpoint = save_weights(&mut est_b);
        slot.hot_swap_checkpoint(&checkpoint).expect("swap through an evicted slot");
        assert_eq!(slot.generation(), 1);
        assert_eq!(slot.current().estimate_batch(&queries), expect_b);
    }

    #[test]
    fn re_registration_issues_a_fresh_uid_but_swaps_keep_it() {
        let registry = ModelRegistry::new();
        let (_, est) = trained(1);
        let (_, mut other) = trained(2);
        let first = registry.register("census", est.clone());
        let uid = first.uid();
        assert!(uid > 0);

        let checkpoint = save_weights(&mut other);
        first.hot_swap_checkpoint(&checkpoint).unwrap();
        assert_eq!(first.uid(), uid, "hot-swap keeps the registration");
        first.evict(None).unwrap();
        assert_eq!(first.uid(), uid, "evict/reload keeps the registration");

        let second = registry.register("census", est);
        assert_ne!(second.uid(), uid, "re-registering mints a new slot uid");
    }

    #[test]
    fn ids_come_from_a_monotonic_counter() {
        let registry = ModelRegistry::new();
        let (_, est) = trained(1);
        let (a, _) = registry.register_indexed("a", est.clone());
        let (b, _) = registry.register_indexed("b", est.clone());
        // Replacements never consume an id.
        let (a2, _) = registry.register_indexed("a", est.clone());
        let (b2, _) = registry.register_indexed("b", est.clone());
        let (c, _) = registry.register_indexed("c", est);
        assert_eq!((a, b, a2, b2, c), (0, 1, 0, 1, 2));
    }

    #[test]
    fn bad_checkpoint_is_rejected_and_slot_untouched() {
        let (table, est) = trained(1);
        let queries = WorkloadSpec::random(&table, 5, 9).generate(&table);
        let registry = ModelRegistry::new();
        let slot = registry.register("census", est);
        let before = slot.current().estimate_batch(&queries);

        let err = registry.hot_swap("census", b"not a checkpoint").unwrap_err();
        assert!(matches!(err, SwapError::Checkpoint(_)));
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.current().estimate_batch(&queries), before);

        let err = registry.hot_swap("missing", b"x").unwrap_err();
        assert!(matches!(err, SwapError::UnknownTable(_)));
    }
}
