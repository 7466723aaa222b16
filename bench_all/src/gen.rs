//! Seeded input generation: everything a workload feeds the program is a
//! function of `--seed` and of nothing else.

use duet_core::{query_to_id_predicates, IdPredicate};
use duet_data::Table;
use duet_query::{Query, WorkloadSpec};
use duet_serve::canonical_key_from_parts;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// One query in the form the serving layers take it: per-column id-space
/// predicates and per-column valid-id intervals.
pub type Encoded = (Vec<Vec<IdPredicate>>, Vec<(u32, u32)>);

/// The served relation and its model are the same on every run: the table
/// is drawn from this constant and the weights from [`MODEL_SEED`], and
/// `--seed` draws the traffic. The forward pass picks its kernel per batch
/// from the share of zero activations (`duet_nn::kernels`, threshold 0.4),
/// which sits where freshly trained models land, so its cost moves by
/// 15-40 % from one trained model to the next (measured on `wire_burst`:
/// 1.5 ms to 2.9 ms per 64-row batch across seeds). Drawn per seed, that
/// would read as run-to-run noise three times the gate.
pub const TABLE_SEED: u64 = 0x7ab1e;
/// See [`TABLE_SEED`].
pub const MODEL_SEED: u64 = 0x0de1;

/// Independent sub-seeds, one per generated input, so that changing how one
/// input is drawn never shifts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The query pool the workload serves.
    pub queries: u64,
    /// The labelled training workload (`train_hybrid`).
    pub train_queries: u64,
    /// The order in which requests draw from the pool (`zipf_swap`).
    pub schedule: u64,
    /// The timed trainer's row order and virtual-tuple sampling.
    pub trainer: u64,
}

impl Seeds {
    /// Derive the sub-seeds from the command-line seed (one generator
    /// stream, so they are independent of each other).
    pub fn derive(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        Self {
            queries: rng.next_u64(),
            train_queries: rng.next_u64(),
            schedule: rng.next_u64(),
            trainer: rng.next_u64(),
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1 / (r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative distribution over `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// `count` draws from the stream `(seed, stream)`; a window's request
    /// order is one such stream per client thread.
    pub fn sequence(&self, seed: u64, stream: u64, count: usize) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        (0..count).map(|_| self.sample(&mut rng) as u32).collect()
    }
}

/// Translate `query` against `schema` the way every serving front door does.
pub fn encode(schema: &Table, query: &Query) -> Encoded {
    (query_to_id_predicates(schema, query), query.column_intervals(schema))
}

/// Reorder `queries` so that the number of predicates cycles through the
/// counts present (1, 2, 3, ... 1, 2, 3, ...) for as long as every count has
/// queries left; queries of one count keep their order.
///
/// The pool's order is the Zipf rank: the first ten ranks carry 28 % of
/// `zipf_swap`'s requests, and what a request costs on the hit path is what
/// translating its predicates costs. Drawn in random order, the head held
/// 2-predicate queries on one seed and 12-predicate ones on the next, and the
/// median request cost moved with it; cycled, the head has the same profile on
/// every seed and the seed still draws which queries they are.
pub fn cycle_predicate_counts(queries: Vec<Query>) -> Vec<Query> {
    let mut by_count: BTreeMap<usize, VecDeque<Query>> = BTreeMap::new();
    let total = queries.len();
    for query in queries {
        by_count.entry(query.num_predicates()).or_default().push_back(query);
    }
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for bucket in by_count.values_mut() {
            out.extend(bucket.pop_front());
        }
    }
    out
}

/// `n` random queries over `table` (the paper's Rand-Q generator) that are
/// pairwise distinct as the result cache sees them, so a working set of `n`
/// really occupies `n` cache entries.
pub fn distinct_queries(table: &Table, n: usize, seed: u64) -> Vec<Query> {
    let schema = table.schema_only();
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n {
        let batch = WorkloadSpec::random(table, n, seed.wrapping_add(round)).generate(table);
        for query in batch {
            let (preds, intervals) = encode(&schema, &query);
            if seen.insert(canonical_key_from_parts(&schema, 0, &preds, &intervals)) {
                out.push(query);
                if out.len() == n {
                    break;
                }
            }
        }
        round += 1;
        assert!(round < 64, "table too small to yield {n} distinct queries");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;

    #[test]
    fn sub_seeds_are_reproducible_and_independent() {
        let a = Seeds::derive(7);
        assert_eq!(a, Seeds::derive(7));
        assert_ne!(a, Seeds::derive(8));
        let all = [a.queries, a.train_queries, a.schedule, a.trainer];
        let distinct: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn zipf_is_seeded_skewed_and_in_range() {
        let zipf = Zipf::new(1_024, 1.0);
        let a = zipf.sequence(3, 0, 20_000);
        assert_eq!(a, zipf.sequence(3, 0, 20_000), "same seed, same stream");
        assert_ne!(a, zipf.sequence(4, 0, 20_000), "another seed differs");
        assert_ne!(a, zipf.sequence(3, 1, 20_000), "another stream differs");
        assert!(a.iter().all(|&r| (r as usize) < 1_024));
        // H(1024) ~ 7.51, so rank 0 carries ~13.3 % of the mass and the top
        // quarter of the ranks ~81 %.
        let head = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.12..0.15).contains(&head), "rank-0 share {head}");
        let top = a.iter().filter(|&&r| r < 256).count() as f64 / a.len() as f64;
        assert!((0.78..0.85).contains(&top), "top-quarter share {top}");
    }

    #[test]
    fn cycled_pool_has_the_same_head_on_every_seed() {
        let table = census_like(600, 5);
        let zipf_weighted_predicates = |pool: &[Query]| {
            let (mut sum, mut mass) = (0.0, 0.0);
            for (rank, q) in pool.iter().enumerate() {
                let w = 1.0 / (rank + 1) as f64;
                sum += w * q.num_predicates() as f64;
                mass += w;
            }
            sum / mass
        };
        let spread = |values: &[f64]| {
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            (hi - lo) / lo
        };
        let (mut drawn, mut cycled) = (Vec::new(), Vec::new());
        for seed in 0..8 {
            let pool = distinct_queries(&table, 2_048, seed);
            drawn.push(zipf_weighted_predicates(&pool));
            let mut sorted: Vec<Query> = pool.clone();
            let pool = cycle_predicate_counts(pool);
            cycled.push(zipf_weighted_predicates(&pool));
            // Same queries, other order.
            let key = |q: &Query| format!("{q:?}");
            let mut after = pool.clone();
            sorted.sort_by_key(key);
            after.sort_by_key(key);
            assert_eq!(sorted, after);
            // The head walks through the counts in turn.
            let head: Vec<usize> = pool[..4].iter().map(Query::num_predicates).collect();
            assert!(head.windows(2).all(|w| w[0] < w[1]), "{head:?}");
        }
        assert!(spread(&cycled) < 0.02, "cycled: {cycled:?}");
        assert!(spread(&drawn) > 3.0 * spread(&cycled), "drawn: {drawn:?} cycled: {cycled:?}");
    }

    #[test]
    fn query_pool_is_reproducible_distinct_and_seed_dependent() {
        let table = census_like(600, 5);
        let a = distinct_queries(&table, 300, 11);
        assert_eq!(a, distinct_queries(&table, 300, 11));
        assert_ne!(a, distinct_queries(&table, 300, 12));
        let schema = table.schema_only();
        let keys: HashSet<_> = a
            .iter()
            .map(|q| {
                let (p, i) = encode(&schema, q);
                canonical_key_from_parts(&schema, 0, &p, &i)
            })
            .collect();
        assert_eq!(keys.len(), 300);
    }
}
