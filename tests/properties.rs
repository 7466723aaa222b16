//! Property-based tests (proptest) over the core invariants: predicate
//! semantics vs ground truth, Q-Error bounds, sampler consistency, the
//! autoregressive masking of the Duet model, and the serving cache's
//! epoch-tagged insert protocol around hot-swaps.

use duet::core::{
    query_to_id_predicates, sample_predicate, DuetConfig, DuetEstimator, DuetModel, DuetWorkspace,
    MpsnKind,
};
use duet::data::datasets::census_like;
use duet::data::{Column, Table, Value};
use duet::nn::{seeded_rng, ForwardWorkspace, InferLayer, SoftmaxMode};
use duet::query::{exact_cardinality, q_error, CardinalityEstimator, PredOp, Query, WorkloadSpec};
use proptest::prelude::*;

/// Build a small random table from proptest-generated cell values.
fn table_from_cells(cells: &[Vec<i64>]) -> Table {
    let ncols = cells[0].len();
    let columns: Vec<Column> = (0..ncols)
        .map(|c| {
            let values: Vec<Value> = cells.iter().map(|row| Value::Int(row[c])).collect();
            Column::from_values(format!("c{c}"), &values)
        })
        .collect();
    Table::new("prop", columns)
}

fn op_from_index(i: usize) -> PredOp {
    PredOp::ALL[i % PredOp::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact evaluator agrees with a naive per-row predicate check for any
    /// random table and conjunctive query.
    #[test]
    fn exact_cardinality_matches_naive_scan(
        cells in prop::collection::vec(prop::collection::vec(0i64..8, 3), 1..60),
        ops in prop::collection::vec(0usize..5, 1..4),
        lits in prop::collection::vec(0i64..8, 1..4),
        cols in prop::collection::vec(0usize..3, 1..4),
    ) {
        let table = table_from_cells(&cells);
        let mut query = Query::all();
        for ((&op, &lit), &col) in ops.iter().zip(&lits).zip(&cols) {
            query = query.and(col % 3, op_from_index(op), Value::Int(lit));
        }
        let naive = (0..table.num_rows())
            .filter(|&r| query.matches_row(&table, r))
            .count() as u64;
        prop_assert_eq!(exact_cardinality(&table, &query), naive);
    }

    /// Q-Error is symmetric and always at least 1.
    #[test]
    fn q_error_is_symmetric_and_at_least_one(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let e1 = q_error(a, b);
        let e2 = q_error(b, a);
        prop_assert!((e1 - e2).abs() < 1e-9);
        prop_assert!(e1 >= 1.0);
    }

    /// Algorithm 1's per-predicate sampler always returns a predicate the
    /// anchor value satisfies, with a literal inside the domain.
    #[test]
    fn sampled_predicates_are_satisfied_by_their_anchor(
        ndv in 1u32..500,
        anchor_frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let anchor = ((ndv as f64 - 1.0) * anchor_frac).round() as u32;
        let mut rng = seeded_rng(seed);
        let pred = sample_predicate(anchor, ndv, &mut rng);
        prop_assert!(pred.value_id < ndv);
        let satisfied = match pred.op {
            PredOp::Eq => anchor == pred.value_id,
            PredOp::Gt => anchor > pred.value_id,
            PredOp::Lt => anchor < pred.value_id,
            PredOp::Ge => anchor >= pred.value_id,
            PredOp::Le => anchor <= pred.value_id,
        };
        prop_assert!(satisfied);
    }

    /// Column id intervals always agree with direct predicate evaluation over
    /// the dictionary.
    #[test]
    fn id_intervals_agree_with_predicate_semantics(
        dict_size in 1usize..40,
        op_idx in 0usize..5,
        lit in -5i64..45,
    ) {
        let values: Vec<Value> = (0..dict_size as i64).map(Value::Int).collect();
        let column = Column::from_values("c", &values);
        let pred = duet::query::ColumnPredicate::new(0, op_from_index(op_idx), Value::Int(lit));
        let (lo, hi) = pred.id_interval(&column);
        for id in 0..dict_size as u32 {
            let in_interval = id >= lo && id < hi;
            let matches = pred.matches(column.value_of_id(id));
            prop_assert_eq!(in_interval, matches);
        }
    }
}

proptest! {
    // The model-level properties are more expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Even an untrained Duet model always produces selectivities in [0, 1]
    /// and deterministic results.
    #[test]
    fn untrained_model_estimates_are_probabilities(
        seed in 0u64..50,
        col_a in 0usize..14,
        col_b in 0usize..14,
        lit_a in 0i64..60,
        lit_b in 0i64..60,
        op_a in 0usize..5,
        op_b in 0usize..5,
    ) {
        let table = census_like(300, 77);
        let model = DuetModel::new(&table, &DuetConfig::small(), seed);
        let query = Query::all()
            .and(col_a, op_from_index(op_a), Value::Int(lit_a))
            .and(col_b, op_from_index(op_b), Value::Int(lit_b));
        let preds = query_to_id_predicates(&table, &query);
        let intervals = query.column_intervals(&table);
        let mut sels = Vec::new();
        let mut estimate = || {
            model.estimate_selectivity_batch_with(
                std::slice::from_ref(&preds),
                std::slice::from_ref(&intervals),
                &mut DuetWorkspace::new(),
                &mut sels,
            );
            sels[0]
        };
        let sel = estimate();
        prop_assert!((0.0..=1.0).contains(&sel));
        prop_assert_eq!(sel, estimate());
    }

    /// The batched estimate, which computes only the output blocks of the
    /// columns each row constrains, equals the full-width composition it
    /// replaced — `infer_into` over every logit, then
    /// `selectivity_from_logits_mode(…, Fast)` per row — bit for bit, for
    /// every MPSN kind, with unconstrained, fully constrained and
    /// contradictory rows mixed into one batch.
    #[test]
    fn block_projected_estimate_equals_the_full_width_composition(
        batch in 1usize..=70,
        seed in 0u64..1_000,
    ) {
        let table = census_like(300, 77);
        let ncols = table.num_columns();
        let mut queries = WorkloadSpec::random(&table, batch, seed).generate(&table);
        for (r, query) in queries.iter_mut().enumerate() {
            let row = (r * 37 + seed as usize) % table.num_rows();
            let value = |c: usize| table.column(c).value_at(row).clone();
            match r % 5 {
                1 => *query = Query::all(),
                // Every column pinned to one value: every block is read.
                2 => *query = (0..ncols).fold(Query::all(), |q, c| q.and(c, PredOp::Eq, value(c))),
                // Two different literals on one column: nothing qualifies.
                3 => {
                    let c = r % ncols;
                    let other = table.column(c).value_of_id(0).clone();
                    let first = table.column(c).value_of_id(1).clone();
                    *query = query.clone().and(c, PredOp::Eq, first).and(c, PredOp::Eq, other);
                }
                _ => {}
            }
        }
        for kind in [MpsnKind::None, MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let config = match kind {
                MpsnKind::None => DuetConfig::small(),
                _ => DuetConfig::small().with_mpsn(kind, 2),
            };
            let model = DuetModel::new(&table, &config, seed);
            let rows: Vec<_> = queries.iter().map(|q| query_to_id_predicates(&table, q)).collect();
            let intervals: Vec<_> = queries.iter().map(|q| q.column_intervals(&table)).collect();
            let mut ws = DuetWorkspace::new();
            let mut got = Vec::new();
            model.estimate_selectivity_batch_with(&rows, &intervals, &mut ws, &mut got);

            model.fill_input(&rows, &mut ws);
            let logits = model.made().infer_into(ws.input(), &mut ForwardWorkspace::new()).clone();
            let mut probs = Vec::new();
            for (r, iv) in intervals.iter().enumerate() {
                let want = model.selectivity_from_logits_mode(logits.row(r), iv, &mut probs, SoftmaxMode::Fast);
                prop_assert_eq!(got[r].to_bits(), want.to_bits(), "{:?} row {} of {}", kind, r, batch);
            }
        }
    }

    /// A trained estimator never exceeds the table size and treats an
    /// unconstrained query as the full relation.
    #[test]
    fn estimator_respects_global_bounds(seed in 0u64..20) {
        let table = census_like(400, 78);
        let mut duet = DuetEstimator::train_data_only(
            &table,
            &DuetConfig::small().with_epochs(1),
            seed,
        );
        let q = Query::all().and((seed % 14) as usize, PredOp::Ge, Value::Int(1));
        let e = duet.estimate(&q);
        prop_assert!(e >= 0.0 && e <= table.num_rows() as f64 + 1e-6);
        prop_assert!((duet.estimate(&Query::all()) - table.num_rows() as f64).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Allocation-free kernel / workspace bit-identity
// ---------------------------------------------------------------------------

use duet::nn::{rowvec_matmul_into, Activation, Made, MadeConfig, Matrix, TrainWorkspace};

/// Deterministic pseudo-random matrix (LCG, no `rand` dependency).
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    })
}

/// What an `_into` kernel writes into a fresh, empty output.
fn fresh(kernel: impl FnOnce(&mut Matrix)) -> Matrix {
    let mut out = Matrix::default();
    kernel(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `_into` matmul kernel writes into a dirty, wrongly-shaped
    /// reused buffer results bit-identical to what it writes into a fresh one.
    #[test]
    fn matmul_into_kernels_are_bit_identical(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed ^ 1);
        let bt = lcg_matrix(n, k, seed ^ 2);
        let at = lcg_matrix(k, m, seed ^ 3);

        let mut out = lcg_matrix(7, 3, 99); // deliberately dirty and mis-shaped
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(out.as_slice(), fresh(|o| a.matmul_into(&b, o)).as_slice());

        a.matmul_nt_into(&bt, &mut out);
        prop_assert_eq!(out.as_slice(), fresh(|o| a.matmul_nt_into(&bt, o)).as_slice());

        at.matmul_tn_into(&b, &mut out);
        prop_assert_eq!(out.as_slice(), fresh(|o| at.matmul_tn_into(&b, o)).as_slice());
    }

    /// The fused matmul + bias + activation kernel is bit-identical to the
    /// unfused matmul / bias-row add / clamp pipeline, and the row
    /// vector kernel matches a `1 x k` matmul.
    #[test]
    fn fused_addmm_is_bit_identical(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let x = lcg_matrix(m, k, seed);
        let w = lcg_matrix(k, n, seed ^ 7);
        let bias = lcg_matrix(1, n, seed ^ 8).into_vec();

        let mut unfused = fresh(|o| x.matmul_into(&w, o));
        for r in 0..m {
            unfused.row_mut(r).iter_mut().zip(&bias).for_each(|(v, b)| *v += *b);
        }
        let mut fused = lcg_matrix(2, 2, 1); // dirty
        x.addmm_bias_act_into(&w, Some(&bias), Activation::Identity, &mut fused);
        prop_assert_eq!(fused.as_slice(), unfused.as_slice());

        unfused.as_mut_slice().iter_mut().for_each(|v| {
            if *v < 0.0 {
                *v = 0.0;
            }
        });
        x.addmm_bias_act_into(&w, Some(&bias), Activation::Relu, &mut fused);
        prop_assert_eq!(fused.as_slice(), unfused.as_slice());

        let xr = lcg_matrix(1, k, seed ^ 9);
        let mut out_v = vec![9.0f32; n];
        rowvec_matmul_into(xr.row(0), &w, &mut out_v);
        prop_assert_eq!(&out_v[..], fresh(|o| xr.matmul_into(&w, o)).as_slice());
    }

    /// A workspace-threaded MADE inference pass is bit-identical to the
    /// checkpointing training forward, including across reuses of both
    /// workspaces for different batch sizes (both plain MADE and ResMADE).
    #[test]
    fn made_infer_into_matches_training_forward(
        batch in 1usize..8,
        hidden in 2usize..24,
        residual in 0usize..2,
        seed in 0u64..500,
    ) {
        let config = MadeConfig {
            input_block_sizes: vec![3, 2, 4],
            output_block_sizes: vec![4, 2, 3],
            hidden_sizes: vec![hidden, hidden],
            residual: residual == 1,
        };
        let mut rng = seeded_rng(seed);
        let made = Made::new(config, &mut rng);
        let (mut ws, mut tws) = (ForwardWorkspace::new(), TrainWorkspace::new());
        for round in 0..3u64 {
            let rows = 1 + (batch + round as usize) % 8;
            let x = lcg_matrix(rows, 9, seed ^ round);
            let trained = made.forward_train(&x, None, &mut tws);
            let inferred = made.infer_into(&x, &mut ws);
            prop_assert_eq!(inferred.as_slice(), trained.as_slice());
        }
    }
}

// ---------------------------------------------------------------------------
// ShardedCache epoch tagging around hot-swaps
// ---------------------------------------------------------------------------

use duet::serve::{canonical_key_from_parts, CacheKey, ShardedCache};

/// A distinct cache key per `n` against a minimal schema: with no
/// constrained columns the canonical layout is just the generation word, so
/// varying it yields arbitrarily many distinct keys.
fn key_number(schema: &Table, n: u64) -> CacheKey {
    let preds: Vec<Vec<duet::core::IdPredicate>> = vec![Vec::new(); schema.num_columns()];
    let intervals: Vec<(u32, u32)> =
        (0..schema.num_columns()).map(|c| (0, schema.column(c).ndv() as u32)).collect();
    canonical_key_from_parts(schema, n, &preds, &intervals)
}

fn tiny_schema() -> Table {
    let values: Vec<Value> = (0..4i64).map(Value::Int).collect();
    Table::new("k", vec![Column::from_values("c", &values)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Epoch-tagged inserts can never resurrect entries from before a
    /// hot-swap invalidation, under *any* interleaving of batch-worker
    /// activity (snapshot → inserts) with invalidations.
    ///
    /// The interpreter below replays a random interleaving of 4 simulated
    /// batch workers and the invalidator as one serialized history — which
    /// is exactly the set of behaviors the real mutex+atomic protocol
    /// linearizes to (`insert_tagged` re-checks the epoch under the shard
    /// lock) — and checks the cache against an exact model of what must
    /// survive.
    #[test]
    fn epoch_tagged_inserts_never_resurrect_stale_entries(
        ops in prop::collection::vec(0u8..=8, 4..60),
    ) {
        let schema = tiny_schema();
        let cache = ShardedCache::new(256, 4);
        // Per-worker batch state: the epoch snapshotted at batch start.
        let mut snapshots: [Option<u64>; 4] = [None; 4];
        let mut next_key = 0u64;
        let mut invalidations = 0u64;
        // (key, snapshot epoch, epoch at insert, invalidations at insert)
        let mut inserted: Vec<(CacheKey, u64, u64, u64)> = Vec::new();

        for op in ops {
            match op {
                // Ops 0..=3: worker `op` takes its batch's epoch snapshot
                // (re-snapshotting starts a new batch).
                0..=3 => snapshots[op as usize] = Some(cache.epoch()),
                // Ops 4..=7: worker `op - 4` inserts a result tagged with
                // its snapshot — possibly long after an invalidation.
                4..=7 => {
                    let worker = (op - 4) as usize;
                    if let Some(snapshot) = snapshots[worker] {
                        let key = key_number(&schema, next_key);
                        next_key += 1;
                        cache.insert_tagged(key.clone(), 1.0, snapshot);
                        inserted.push((key, snapshot, cache.epoch(), invalidations));
                    }
                }
                // Op 8: a hot-swap lands — bump the epoch and purge.
                _ => {
                    cache.invalidate();
                    invalidations += 1;
                }
            }
        }

        // Exact model: an entry survives iff its tag matched the epoch at
        // insert time (otherwise `insert_tagged` dropped it) AND no
        // invalidation ran after the insert (otherwise the purge removed
        // it). `contains` leaves LRU order and counters untouched.
        let final_epoch = cache.epoch();
        let mut expected_live = 0usize;
        for (key, snapshot, epoch_at_insert, invals_at_insert) in &inserted {
            let should_live =
                snapshot == epoch_at_insert && *invals_at_insert == invalidations;
            prop_assert_eq!(
                cache.contains(key),
                should_live,
                "key tagged {} inserted at epoch {} ({} invalidations since)",
                snapshot,
                epoch_at_insert,
                invalidations - invals_at_insert
            );
            if should_live {
                expected_live += 1;
                // Corollary: everything that survived was inserted in the
                // current epoch — no stale-generation entry outlives a swap.
                prop_assert_eq!(*snapshot, final_epoch);
            }
        }
        prop_assert_eq!(cache.len(), expected_live);
    }
}

/// The same protocol under real concurrency: inserter threads hammer
/// `insert_tagged` with a pre-swap epoch snapshot while the main thread
/// invalidates midway. Whatever the interleaving, no stale-tagged entry may
/// survive — inserts that raced ahead of the bump are purged, inserts after
/// it are rejected.
#[test]
fn concurrent_stale_epoch_inserts_never_survive_invalidation() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    let schema = tiny_schema();
    let cache = Arc::new(ShardedCache::new(4096, 8));
    let stale_epoch = cache.epoch();
    let start = Arc::new(Barrier::new(5));
    let swapped = Arc::new(AtomicBool::new(false));

    let inserters: Vec<_> = (0..4u64)
        .map(|worker| {
            let (cache, start, swapped) = (cache.clone(), start.clone(), swapped.clone());
            let schema = schema.clone();
            std::thread::spawn(move || {
                start.wait();
                for i in 0..300u64 {
                    let key = key_number(&schema, worker * 1_000 + i);
                    cache.insert_tagged(key, 0.5, stale_epoch);
                    if i == 150 {
                        // Give the invalidator a chance to land mid-stream.
                        while !swapped.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                }
            })
        })
        .collect();

    start.wait();
    cache.invalidate(); // the hot-swap
    swapped.store(true, Ordering::Release);
    for t in inserters {
        t.join().unwrap();
    }

    assert_eq!(
        cache.len(),
        0,
        "every stale-tagged insert must be either purged or rejected; none may survive"
    );
    // A current-epoch insert still lands, so the cache is not bricked.
    cache.insert_tagged(key_number(&schema, 9_999), 1.0, cache.epoch());
    assert_eq!(cache.len(), 1);
}
