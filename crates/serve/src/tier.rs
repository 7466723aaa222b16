//! Fleet-scale model tiering: a registry-wide weight-memory budget enforced
//! by LFU-aged eviction of cold models.
//!
//! A server hosting many tables cannot keep every model resident: weights
//! are the dominant per-table footprint, and most fleets are heavily skewed
//! — a few hot tables take nearly all traffic while the long tail idles.
//! [`ModelTier`] turns that skew into a memory bound:
//!
//! * every executed batch feeds a **per-table heat counter** (an LFU with
//!   aging, the same popularity shape as [`crate::HotSet`], but at model
//!   granularity — batches served rather than cache keys touched);
//! * after each batch the worker runs the crate-internal enforcement sweep
//!   (`ModelTier::enforce`): while the
//!   summed resident weight bytes exceed the budget, the **coldest**
//!   resident model that is not the one just served is evicted to its
//!   checkpoint bytes ([`crate::ModelSlot::evict`] — in memory, or spilled
//!   to a file under the configured spill directory);
//! * the next batch for an evicted model's table **lazily reloads** it,
//!   bit-identically, when it resolves the slot (counted in
//!   `model_reloads`) — no client-visible state, no generation bump, no
//!   cache invalidation. Requests are encoded against the slot's schema, so
//!   nothing else reloads a model.
//!
//! Every eviction halves all heat counters, so a table that was hot last
//! hour cannot pin its model forever on stale popularity — the aging half of
//! LFU-with-aging. The model actively being served is never the victim, so
//! a budget smaller than one model still serves every request (it just
//! thrashes, visibly, in the eviction/reload counters).
//!
//! Heat updates and victim selection are pure functions of the executed
//! batch sequence, so under the deterministic harness ([`crate::sim`]) a
//! seeded scenario replays with identical eviction/reload counts.

use crate::metrics::{Counter, ServeMetrics};
use crate::router::TableResources;
use std::path::PathBuf;
use std::sync::Mutex;

/// Registry-wide model-memory budgeting: per-table heat plus the eviction
/// policy over a table directory. One instance is shared by every shard
/// worker of a [`crate::DuetServer`] (or harness).
#[derive(Debug)]
pub struct ModelTier {
    /// Upper bound on summed resident weight bytes; 0 = unlimited (the
    /// tier never evicts).
    budget_bytes: usize,
    /// Where evicted checkpoints go: `None` keeps the bytes in memory,
    /// `Some(dir)` spills them to files under `dir`.
    spill_dir: Mutex<Option<PathBuf>>,
    /// Per-table served-request counters, indexed by dense table id; halved
    /// on every eviction (LFU with aging).
    heat: Mutex<Vec<u64>>,
    // All three locks tolerate poisoning (`into_inner`): shard workers take
    // them inside the supervised `catch_unwind` region, and every guarded
    // mutation (a counter bump, a Vec resize, a PathBuf replace) leaves the
    // data structurally valid even if a panic lands between lock and unlock
    // — so a recovered worker can keep enforcing the budget instead of
    // wedging on a poisoned mutex.
    /// Per-table pin counters, indexed by dense table id. A pinned table is
    /// never chosen as an eviction victim — the online trainer pins a table
    /// for the duration of a retrain so the model it is about to hot-swap
    /// (and the resident instance serving in the meantime) cannot be paged
    /// out from under it.
    pins: Mutex<Vec<u32>>,
}

impl ModelTier {
    /// A tier enforcing `budget_bytes` of resident model weights (0 =
    /// unlimited), evicting to in-memory checkpoints.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            spill_dir: Mutex::new(None),
            heat: Mutex::new(Vec::new()),
            pins: Mutex::new(Vec::new()),
        }
    }

    /// The configured budget in bytes (0 = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Redirect future evictions to checkpoint files under `dir` (`None`
    /// returns to in-memory checkpoints). Already-evicted models keep their
    /// current store until reloaded.
    pub fn set_spill_dir(&self, dir: Option<PathBuf>) {
        *self.spill_dir.lock().unwrap_or_else(|e| e.into_inner()) = dir;
    }

    /// A table's current heat (testing/inspection).
    pub fn heat_of(&self, table_id: usize) -> u64 {
        self.heat.lock().unwrap_or_else(|e| e.into_inner()).get(table_id).copied().unwrap_or(0)
    }

    /// Pin `table_id`: until the matching [`ModelTier::unpin`], the table is
    /// never selected as an eviction victim. Pins nest (a counter, not a
    /// flag), so overlapping retrain and inspection pins compose.
    pub fn pin(&self, table_id: usize) {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        if pins.len() <= table_id {
            pins.resize(table_id + 1, 0);
        }
        pins[table_id] += 1;
    }

    /// Release one [`ModelTier::pin`] of `table_id`.
    ///
    /// # Panics
    /// Panics if the table is not currently pinned (unbalanced unpin).
    pub fn unpin(&self, table_id: usize) {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        let pin = pins.get_mut(table_id).expect("unpin of a never-pinned table");
        assert!(*pin > 0, "unbalanced ModelTier::unpin");
        *pin -= 1;
    }

    /// Whether `table_id` is currently pinned non-evictable.
    pub fn is_pinned(&self, table_id: usize) -> bool {
        self.pins.lock().unwrap_or_else(|e| e.into_inner()).get(table_id).copied().unwrap_or(0) > 0
    }

    /// Fold `served` requests for `table_id` into its heat counter. Called
    /// by the shard worker once per executed batch; allocation-free once
    /// the heat vector has grown to the directory size.
    pub(crate) fn observe(&self, table_id: usize, served: u64) {
        let mut heat = self.heat.lock().unwrap_or_else(|e| e.into_inner());
        if heat.len() <= table_id {
            heat.resize(table_id + 1, 0);
        }
        heat[table_id] = heat[table_id].saturating_add(served);
    }

    /// Bring the directory back under the budget: while resident weights
    /// exceed it, evict the coldest resident model other than `active` (the
    /// table just served) or any pinned table (lowest dense id breaks heat
    /// ties), halving all
    /// heat counters per eviction. Stops when within budget, when no
    /// evictable model remains (only `active` resident), or when an
    /// eviction fails (spill I/O) — the tier then stays over budget rather
    /// than lose a model.
    pub(crate) fn enforce(&self, tables: &[TableResources], active: usize, metrics: &ServeMetrics) {
        if self.budget_bytes == 0 {
            return;
        }
        loop {
            let resident: usize =
                tables.iter().filter_map(|r| r.slot.resident_weight_bytes()).sum();
            if resident <= self.budget_bytes {
                return;
            }
            let victim = {
                let heat = self.heat.lock().unwrap_or_else(|e| e.into_inner());
                let pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
                tables
                    .iter()
                    .enumerate()
                    .filter(|(id, r)| {
                        *id != active
                            && r.slot.is_resident()
                            && pins.get(*id).copied().unwrap_or(0) == 0
                    })
                    .min_by_key(|(id, _)| (heat.get(*id).copied().unwrap_or(0), *id))
                    .map(|(id, r)| (id, r.slot.clone()))
            };
            let Some((_victim_id, slot)) = victim else {
                // Only the active model and pinned tables are resident;
                // never evict either.
                return;
            };
            let spill = self.spill_dir.lock().unwrap_or_else(|e| e.into_inner()).clone();
            match slot.evict(spill.as_deref()) {
                Ok(0) => return, // raced with a concurrent evict; don't spin
                Ok(_freed) => {
                    metrics.incr(Counter::ModelEvictions);
                    let mut heat = self.heat.lock().unwrap_or_else(|e| e.into_inner());
                    for h in heat.iter_mut() {
                        *h /= 2;
                    }
                }
                Err(_) => {
                    // Spill failed (IO error or read-back verification):
                    // keep the model resident — over budget beats losing the
                    // only copy of its weights — and make the failure
                    // visible instead of silently retrying every batch.
                    metrics.incr(Counter::SpillFailures);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSlot;
    use crate::ServeConfig;
    use duet_core::{DuetConfig, DuetEstimator};
    use duet_data::datasets::census_like;
    use std::sync::Arc;

    fn directory(n: usize) -> Vec<TableResources> {
        let table = census_like(200, 7);
        let cfg = DuetConfig::small().with_epochs(1);
        let serve = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
        (0..n)
            .map(|i| {
                let estimator = DuetEstimator::train_data_only(&table, &cfg, i as u64);
                let slot = Arc::new(ModelSlot::new(estimator));
                TableResources::new(&format!("t{i}"), slot, 0, &serve)
            })
            .collect()
    }

    #[test]
    fn heat_accumulates_and_ages() {
        let tier = ModelTier::new(1);
        tier.observe(2, 5);
        tier.observe(0, 1);
        assert_eq!((tier.heat_of(0), tier.heat_of(1), tier.heat_of(2)), (1, 0, 5));
    }

    #[test]
    fn enforce_evicts_coldest_non_active_until_within_budget() {
        let tables = directory(3);
        let per_model = tables[0].slot.resident_weight_bytes().unwrap();
        // Budget fits exactly two models.
        let tier = ModelTier::new(2 * per_model);
        let metrics = ServeMetrics::new();
        // Table 0 is hot, table 2 was just served, table 1 is cold.
        tier.observe(0, 10);
        tier.observe(1, 1);
        tier.observe(2, 3);
        tier.enforce(&tables, 2, &metrics);
        assert!(tables[0].slot.is_resident(), "hot model stays");
        assert!(!tables[1].slot.is_resident(), "coldest model is evicted");
        assert!(tables[2].slot.is_resident(), "the active model is never the victim");
        assert_eq!(metrics.snapshot(0, 0, 0).model_evictions, 1);
        // One eviction brought the directory within budget and aged heat.
        assert_eq!(tier.heat_of(0), 5);
    }

    #[test]
    fn pinned_tables_are_never_victims() {
        let tables = directory(3);
        let per_model = tables[0].slot.resident_weight_bytes().unwrap();
        let tier = ModelTier::new(2 * per_model);
        let metrics = ServeMetrics::new();
        // Table 1 is the coldest — but pinned (mid-retrain), so the next
        // coldest unpinned table must be the victim instead.
        tier.observe(0, 2);
        tier.observe(1, 1);
        tier.observe(2, 5);
        tier.pin(1);
        assert!(tier.is_pinned(1));
        tier.enforce(&tables, 2, &metrics);
        assert!(tables[1].slot.is_resident(), "a pinned table is never evicted");
        assert!(!tables[0].slot.is_resident(), "the coldest unpinned table is the victim");
        // Unpinning rearms eviction; pins nest.
        tier.pin(1);
        tier.unpin(1);
        assert!(tier.is_pinned(1), "pins are a counter, not a flag");
        tier.unpin(1);
        assert!(!tier.is_pinned(1));
    }

    #[test]
    fn an_all_pinned_directory_stays_over_budget() {
        let tables = directory(2);
        let tier = ModelTier::new(1);
        let metrics = ServeMetrics::new();
        tier.pin(0);
        tier.pin(1);
        tier.enforce(&tables, 0, &metrics);
        assert!(tables.iter().all(|t| t.slot.is_resident()), "nothing evictable");
        assert_eq!(metrics.snapshot(0, 0, 0).model_evictions, 0);
    }

    #[test]
    fn zero_budget_disables_the_tier() {
        let tables = directory(2);
        let tier = ModelTier::new(0);
        let metrics = ServeMetrics::new();
        tier.enforce(&tables, 0, &metrics);
        assert!(tables.iter().all(|t| t.slot.is_resident()));
    }

    #[test]
    fn the_active_model_survives_an_impossible_budget() {
        let tables = directory(2);
        let tier = ModelTier::new(1); // smaller than any single model
        let metrics = ServeMetrics::new();
        tier.enforce(&tables, 0, &metrics);
        assert!(tables[0].slot.is_resident(), "active model must keep serving");
        assert!(!tables[1].slot.is_resident());
    }
}
