//! Sharded LRU result cache keyed on canonicalized predicate intervals.
//!
//! A Duet estimate is a pure function of (a) the id-space predicates fed to
//! the encoder and (b) the per-column valid-id intervals used for the
//! probability mask — the textual form of the query is irrelevant. The cache
//! key therefore encodes exactly those two, plus the model generation, so:
//!
//! * queries that differ only in predicate order across columns, or in
//!   literals that map to the same dictionary ids, share one entry;
//! * a hit is guaranteed to return the very value a miss would have
//!   computed (same model inputs, deterministic forward pass);
//! * entries computed against an old model die with its generation — a
//!   hot-swap invalidates the whole table implicitly, with no flush stall.
//!
//! The store is a vector of independently locked LRU shards, selected by key
//! hash, so concurrent clients rarely contend on the same mutex.

use duet_core::{query_to_id_predicates, DuetEstimator, IdPredicate};
use duet_data::Table;
use duet_query::Query;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A canonical, hashable description of one estimation request.
///
/// The hash over the key words is computed once at construction and reused
/// for both shard selection and the shard map's probe, so a lookup never
/// hashes the word slice twice. Equality still compares the words, so hash
/// collisions cannot alias two different requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    words: Box<[u64]>,
    hash: u64,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CacheKey {
    fn new(words: Vec<u64>) -> Self {
        let mut hasher = DefaultHasher::new();
        words.hash(&mut hasher);
        Self { words: words.into_boxed_slice(), hash: hasher.finish() }
    }

    /// The same request re-labelled with a different model generation.
    ///
    /// The batch worker uses this to store results under the generation of
    /// the weights it *actually* ran, which can be newer than the generation
    /// the client observed when it built the key (a swap may land while the
    /// request is queued).
    pub fn with_generation(&self, generation: u64) -> CacheKey {
        if self.words[0] == generation {
            return self.clone();
        }
        let mut words = self.words.to_vec();
        words[0] = generation;
        CacheKey::new(words)
    }
}

/// Build the canonical key for `query` against `estimator`'s schema at the
/// given model `generation`.
///
/// Layout (all `u64` words): the generation, then for every constrained
/// column its index, its predicate list as `(op, value_id)` pairs in query
/// order (order matters to the encoder when no MPSN is configured), then the
/// column's canonical valid-id interval.
pub fn canonical_key(estimator: &DuetEstimator, generation: u64, query: &Query) -> CacheKey {
    let schema = estimator.schema();
    let preds = query_to_id_predicates(schema, query);
    let intervals = query.column_intervals(schema);
    canonical_key_from_parts(schema, generation, &preds, &intervals)
}

/// [`canonical_key`] for a query whose id-space predicates and column
/// intervals were already computed — the serving hot path uses this so the
/// same encoding feeds the key *and* the batched forward pass.
pub fn canonical_key_from_parts(
    schema: &Table,
    generation: u64,
    preds: &[Vec<IdPredicate>],
    intervals: &[(u32, u32)],
) -> CacheKey {
    key_from_ids(generation, preds, intervals, |col| schema.column(col).ndv())
}

/// The key layout behind [`canonical_key_from_parts`], for callers that know
/// the table only by its per-column domain sizes (`ndv(col)`) — the serving
/// admission path, which keys wire requests without touching a schema.
pub(crate) fn key_from_ids(
    generation: u64,
    preds: &[Vec<IdPredicate>],
    intervals: &[(u32, u32)],
    ndv: impl Fn(usize) -> usize,
) -> CacheKey {
    let num_preds: usize = preds.iter().map(Vec::len).sum();
    let mut words = Vec::with_capacity(1 + 3 * num_preds + 2);
    words.push(generation);
    for (col, col_preds) in preds.iter().enumerate() {
        let (lo, hi) = intervals[col];
        let full = lo == 0 && hi as usize == ndv(col);
        if col_preds.is_empty() && full {
            continue; // unconstrained column: contributes nothing
        }
        words.push((col as u64) << 32 | col_preds.len() as u64);
        for p in col_preds {
            words.push((p.op as u64) << 32 | u64::from(p.value_id));
        }
        words.push(u64::from(lo) << 32 | u64::from(hi));
    }
    CacheKey::new(words)
}

/// One entry of a [`HotSet`] snapshot: a hot request's canonical key
/// (generation 0) plus everything needed to re-estimate it under a new
/// model.
#[derive(Debug, Clone)]
pub struct HotQuery {
    /// Canonical cache key of the request, re-labelled to generation 0 (the
    /// per-generation label is re-applied at insert time).
    pub key: CacheKey,
    /// Per-column id-space predicates of the request.
    pub preds: Vec<Vec<IdPredicate>>,
    /// Per-column valid-id intervals of the request.
    pub intervals: Vec<(u32, u32)>,
    /// Observations recorded for this request (aged, not exact).
    pub hits: u64,
}

// Snapshots feed `DuetEstimator::estimate_encoded_batch_with` directly.
impl AsRef<[Vec<IdPredicate>]> for HotQuery {
    fn as_ref(&self) -> &[Vec<IdPredicate>] {
        &self.preds
    }
}

impl AsRef<[(u32, u32)]> for HotQuery {
    fn as_ref(&self) -> &[(u32, u32)] {
        &self.intervals
    }
}

/// A small, aged frequency tracker of a table's hottest cache keys, used to
/// **replay the hot set into the cache after a model hot-swap**.
///
/// A swap invalidates the whole result cache at once (keys embed the model
/// generation), so without help the post-swap window serves every request
/// through a forward pass — a p99 cliff exactly when the system also pays
/// for swap bookkeeping. The server records each cacheable request here at
/// admission (hit or miss, so the hottest keys — which by definition are
/// served from cache and never reach a worker — still accumulate counts),
/// and [`crate::DuetServer::hot_swap`] re-estimates the tracked set under
/// the new weights, seeding the fresh generation's cache before traffic
/// asks for it.
///
/// Replacement is LFU with aging: a new key observed while the set is full
/// decays the coldest entry's count and takes its slot once that reaches
/// zero, so yesterday's hot keys cannot squat forever. The set is
/// deliberately tiny (default 64 entries, see
/// [`crate::ServeConfig::hot_keys`]) — it exists to absorb the post-swap
/// stampede on the head of the popularity distribution, not to mirror the
/// cache.
#[derive(Debug)]
pub struct HotSet {
    capacity: usize,
    entries: Mutex<Vec<HotQuery>>,
}

impl HotSet {
    /// A tracker keeping at most `capacity` hot keys (0 disables tracking).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, entries: Mutex::new(Vec::with_capacity(capacity)) }
    }

    /// Record one observation of `key` (any generation). The encodings are
    /// cloned only when the key first enters the set; a repeat observation
    /// is a counter bump under the lock.
    ///
    /// **Best-effort under contention**: the tracker sits on the serving
    /// front door, ahead of the sharded cache, so it must never become the
    /// serialization point the cache sharding exists to avoid. If another
    /// thread holds the lock the observation is simply dropped — a
    /// popularity *sample* loses nothing from subsampling under load, and
    /// the hot path never blocks here.
    pub fn observe(&self, key: &CacheKey, preds: &[Vec<IdPredicate>], intervals: &[(u32, u32)]) {
        if self.capacity == 0 {
            return;
        }
        let Ok(mut entries) = self.entries.try_lock() else { return };
        // Generation-invariant match: compare every key word but the
        // generation label (word 0).
        if let Some(entry) = entries.iter_mut().find(|e| e.key.words[1..] == key.words[1..]) {
            entry.hits += 1;
            return;
        }
        if entries.len() < self.capacity {
            entries.push(HotQuery {
                key: key.with_generation(0),
                preds: preds.to_vec(),
                intervals: intervals.to_vec(),
                hits: 1,
            });
            return;
        }
        // Full: age the coldest entry; replace it once its count drains.
        let coldest = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.hits)
            .map(|(i, _)| i)
            .expect("capacity > 0");
        let entry = &mut entries[coldest];
        entry.hits = entry.hits.saturating_sub(1);
        if entry.hits == 0 {
            *entry = HotQuery {
                key: key.with_generation(0),
                preds: preds.to_vec(),
                intervals: intervals.to_vec(),
                hits: 1,
            };
        }
    }

    /// The current hot set, hottest first (clones; the tracker keeps
    /// recording while the caller replays).
    pub fn snapshot(&self) -> Vec<HotQuery> {
        let mut out = self.entries.lock().expect("hot set poisoned").clone();
        out.sort_by_key(|q| std::cmp::Reverse(q.hits));
        out
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("hot set poisoned").len()
    }

    /// True if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

const NIL: usize = usize::MAX;

struct Node {
    key: CacheKey,
    value: f64,
    prev: usize,
    next: usize,
}

/// One independently locked LRU shard: hash map into an intrusive
/// doubly-linked recency list stored in a slab.
struct LruShard {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<f64> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.nodes[idx].value)
    }

    fn insert(&mut self, key: CacheKey, value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let node = &self.nodes[victim];
            self.map.remove(&node.key);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node { key: key.clone(), value, prev: NIL, next: NIL };
                i
            }
            None => {
                self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded LRU cache of estimation results with hit/miss accounting.
///
/// The cache carries an **epoch counter** bumped by
/// [`ShardedCache::invalidate`] (which the server calls on every hot-swap).
/// A batch worker snapshots the epoch *before* resolving the model for a
/// batch and labels its inserts with it via [`ShardedCache::insert_tagged`]:
/// an insert whose epoch is stale by the time it reaches the shard lock is
/// dropped, and one that races ahead of the bump is removed by the purge
/// that follows it — so a swap landing mid-batch can no longer strand
/// unreachable old-generation entries in the LRU.
///
/// ```
/// use duet_core::{DuetConfig, DuetEstimator};
/// use duet_data::datasets::census_like;
/// use duet_query::WorkloadSpec;
/// use duet_serve::{canonical_key, ShardedCache};
///
/// let table = census_like(200, 2);
/// let cfg = DuetConfig::small().with_epochs(1);
/// let estimator = DuetEstimator::train_data_only(&table, &cfg, 2);
/// let query = WorkloadSpec::random(&table, 1, 3).generate(&table).remove(0);
///
/// let cache = ShardedCache::new(128, 4);
/// let key = canonical_key(&estimator, 0, &query); // generation 0 of this model
/// assert_eq!(cache.get(&key), None);
/// cache.insert(key.clone(), 42.0);
/// assert_eq!(cache.get(&key), Some(42.0));
///
/// // The hot-swap protocol: workers tag inserts with a pre-batch epoch
/// // snapshot; an invalidation in between drops the stale insert.
/// let epoch = cache.epoch();
/// cache.invalidate();
/// cache.insert_tagged(key.clone(), 7.0, epoch);
/// assert_eq!(cache.get(&key), None, "stale insert was rejected");
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 2);
/// ```
pub struct ShardedCache {
    shards: Vec<Mutex<LruShard>>,
    capacity: usize,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedCache {
    /// A cache holding up to `capacity` entries total, spread over
    /// `num_shards` independently locked shards (`num_shards` floored at 1;
    /// a zero `capacity` disables storage but keeps accounting).
    ///
    /// The capacity is distributed exactly: when it does not divide evenly,
    /// the first `capacity % num_shards` shards hold one extra entry, so the
    /// sum never exceeds `capacity`. With fewer entries than shards the
    /// shard count is clamped to the capacity, so no shard is a dead
    /// zero-capacity region that its keys could never cache into.
    pub fn new(capacity: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.clamp(1, capacity.max(1));
        let (base, remainder) = (capacity / num_shards, capacity % num_shards);
        Self {
            shards: (0..num_shards)
                .map(|i| Mutex::new(LruShard::new(base + usize::from(i < remainder))))
                .collect(),
            capacity,
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Total entries the cache may hold; 0 means caching is off.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    // Shard locks tolerate poisoning (`into_inner`): workers insert into the
    // cache inside the supervised `catch_unwind` region, and the intrusive
    // LRU mutates only after its reads, so a panic between lock and unlock
    // leaves the shard structurally valid. Worst case is a stale or missing
    // entry — a cache is allowed both — while propagating the poison would
    // take down every later request that hashes to the shard.
    fn shard(&self, key: &CacheKey) -> &Mutex<LruShard> {
        &self.shards[(key.hash as usize) % self.shards.len()]
    }

    /// Look up a cached estimate, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        let result = self.shard(key).lock().unwrap_or_else(|e| e.into_inner()).get(key);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Store an estimate, evicting the least recently used entry of the
    /// target shard when full.
    pub fn insert(&self, key: CacheKey, value: f64) {
        self.shard(&key).lock().unwrap_or_else(|e| e.into_inner()).insert(key, value);
    }

    /// Whether `key` is currently cached, **without** touching the LRU
    /// recency order or the hit/miss counters.
    ///
    /// This is an inspection hook for tests and invariant checks (e.g. the
    /// epoch-tagging proptests, which must observe the cache state after a
    /// simulated swap race without perturbing the statistics they also
    /// assert on); serving paths use [`ShardedCache::get`].
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shard(key).lock().unwrap_or_else(|e| e.into_inner()).map.contains_key(key)
    }

    /// The current invalidation epoch. Snapshot it *before* resolving the
    /// model a batch will run on, and hand it back to
    /// [`ShardedCache::insert_tagged`] with each result.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// [`ShardedCache::insert`], but only if no [`ShardedCache::invalidate`]
    /// has happened since `epoch` was snapshotted. The epoch is re-checked
    /// under the target shard's lock, so an insert either observes the bump
    /// (and is dropped) or completes before the purge locks that shard (and
    /// is removed by it) — never both missed.
    pub fn insert_tagged(&self, key: CacheKey, value: f64, epoch: u64) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        if self.epoch.load(Ordering::Acquire) == epoch {
            shard.insert(key, value);
        }
    }

    /// Bump the epoch, then drop every entry: the full invalidation a model
    /// hot-swap performs. In-flight [`ShardedCache::insert_tagged`] calls
    /// holding the old epoch can no longer land after this returns.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.clear();
    }

    /// Drop every entry (hit/miss counters and the epoch are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len()).sum()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_core::{DuetConfig, DuetEstimator};
    use duet_data::datasets::census_like;
    use duet_data::Value;
    use duet_query::{PredOp, WorkloadSpec};

    fn key_of(words: &[u64]) -> CacheKey {
        CacheKey::new(words.to_vec())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut shard = LruShard::new(2);
        shard.insert(key_of(&[1]), 1.0);
        shard.insert(key_of(&[2]), 2.0);
        assert_eq!(shard.get(&key_of(&[1])), Some(1.0)); // 1 is now most recent
        shard.insert(key_of(&[3]), 3.0); // evicts 2
        assert_eq!(shard.get(&key_of(&[2])), None);
        assert_eq!(shard.get(&key_of(&[1])), Some(1.0));
        assert_eq!(shard.get(&key_of(&[3])), Some(3.0));
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut shard = LruShard::new(4);
        shard.insert(key_of(&[7]), 1.0);
        shard.insert(key_of(&[7]), 2.0);
        assert_eq!(shard.map.len(), 1);
        assert_eq!(shard.get(&key_of(&[7])), Some(2.0));
    }

    #[test]
    fn sharded_cache_counts_hits_and_misses() {
        let cache = ShardedCache::new(64, 4);
        let k = key_of(&[1, 2, 3]);
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), 42.0);
        assert_eq!(cache.get(&k), Some(42.0));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1, "clear keeps counters");
    }

    #[test]
    fn capacity_is_respected_across_shards() {
        for (capacity, shards) in [(8, 4), (10, 8), (3, 8), (0, 4)] {
            let cache = ShardedCache::new(capacity, shards);
            for i in 0..1000u64 {
                cache.insert(key_of(&[i]), i as f64);
            }
            assert!(
                cache.len() <= capacity,
                "len {} exceeds capacity {capacity} ({shards} shards)",
                cache.len()
            );
        }
    }

    #[test]
    fn tagged_inserts_are_rejected_after_invalidate() {
        let cache = ShardedCache::new(16, 2);
        let epoch = cache.epoch();
        cache.insert_tagged(key_of(&[1]), 1.0, epoch);
        assert_eq!(cache.get(&key_of(&[1])), Some(1.0));

        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), epoch + 1);

        // A worker that snapshotted its epoch before the swap cannot strand
        // an entry, no matter when its insert lands.
        cache.insert_tagged(key_of(&[2]), 2.0, epoch);
        assert_eq!(cache.len(), 0, "stale-epoch insert must be dropped");

        // Inserts tagged with the current epoch land normally.
        cache.insert_tagged(key_of(&[3]), 3.0, cache.epoch());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_bumps_epoch_even_when_empty() {
        let cache = ShardedCache::new(4, 1);
        let e0 = cache.epoch();
        cache.invalidate();
        cache.invalidate();
        assert_eq!(cache.epoch(), e0 + 2);
        // Plain clear keeps the epoch.
        cache.clear();
        assert_eq!(cache.epoch(), e0 + 2);
    }

    #[test]
    fn hot_set_counts_across_generations_and_ages_out_cold_keys() {
        let hot = HotSet::new(2);
        let (preds_a, ints_a) = (vec![vec![]], vec![(0u32, 3u32)]);
        let key_a_gen0 = key_of(&[0, 7]);
        let key_a_gen5 = key_a_gen0.with_generation(5);

        hot.observe(&key_a_gen0, &preds_a, &ints_a);
        hot.observe(&key_a_gen5, &preds_a, &ints_a); // same request, newer generation
        hot.observe(&key_of(&[0, 8]), &preds_a, &ints_a);
        assert_eq!(hot.len(), 2);
        let snap = hot.snapshot();
        assert_eq!(snap[0].hits, 2, "generation must not split a key's count");
        assert_eq!(snap[0].key, key_a_gen0);

        // A third key only displaces the cold slot after its count drains.
        let key_c = key_of(&[0, 9]);
        hot.observe(&key_c, &preds_a, &ints_a); // ages [0,8] from 1 -> 0, replaced next
        hot.observe(&key_c, &preds_a, &ints_a);
        let snap = hot.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().any(|q| q.key == key_c.with_generation(0)));
        assert!(snap.iter().any(|q| q.key == key_a_gen0), "the hot key survives");
    }

    #[test]
    fn hot_set_zero_capacity_is_inert() {
        let hot = HotSet::new(0);
        hot.observe(&key_of(&[1, 2]), &[], &[]);
        assert!(hot.is_empty());
        assert!(hot.snapshot().is_empty());
    }

    #[test]
    fn canonical_key_identifies_equivalent_queries() {
        let table = census_like(400, 3);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 7);

        // Same predicates written in a different cross-column order.
        let a = Query::all().and(0, PredOp::Le, Value::Int(30)).and(3, PredOp::Ge, Value::Int(2));
        let b = Query::all().and(3, PredOp::Ge, Value::Int(2)).and(0, PredOp::Le, Value::Int(30));
        assert_eq!(canonical_key(&est, 0, &a), canonical_key(&est, 0, &b));

        // A different literal is a different key.
        let c = Query::all().and(0, PredOp::Le, Value::Int(31)).and(3, PredOp::Ge, Value::Int(2));
        assert_ne!(canonical_key(&est, 0, &a), canonical_key(&est, 0, &c));

        // A different generation is a different key.
        assert_ne!(canonical_key(&est, 0, &a), canonical_key(&est, 1, &a));
    }

    #[test]
    fn canonical_key_distinguishes_real_workload_queries() {
        let table = census_like(500, 4);
        let cfg = DuetConfig::small().with_epochs(1);
        let est = DuetEstimator::train_data_only(&table, &cfg, 9);
        let queries = WorkloadSpec::random(&table, 50, 11).generate(&table);
        let keys: Vec<CacheKey> = queries.iter().map(|q| canonical_key(&est, 0, q)).collect();
        // Spot-check: keyed estimates agree whenever keys collide.
        let mut est_mut = est.clone();
        use duet_query::CardinalityEstimator;
        for i in 0..queries.len() {
            for j in 0..queries.len() {
                if keys[i] == keys[j] {
                    assert_eq!(est_mut.estimate(&queries[i]), est_mut.estimate(&queries[j]));
                }
            }
        }
    }
}
