//! Proof of the zero-allocation property: a counting global allocator wraps
//! the system allocator, and the workspace-backed batched estimation path is
//! measured after warm-up — the steady-state serving hot loop must perform
//! **zero** heap allocations (and zero frees).
//!
//! Twelve phases: the raw batched estimation path (full batches of 32 and
//! 1 024 rows, and shrinking batches), the **routed multi-table hot loop** —
//! admission into a bounded shard queue, same-table batch formation at
//! dequeue, deadline triage, and batch execution through one workspace per
//! shard worker across two differently-shaped tables, driven through the
//! deterministic harness with two fixed request sets that constrain
//! different columns, alternated and recycled through the router — the
//! **steady-state training forward**: the data-driven forward (encode,
//! checkpointing backbone forward, grouped cross-entropy gradient staging)
//! plus the supervised Q-Error forward (per-column softmax into flat
//! staging), for both MADE and ResMADE, through one reused `TrainStepScratch` — the
//! **full training step**: forward + the gradient-ping-pong scratch
//! backward (fused sparse first layer included) + the Adam update with its
//! re-mask and repack of every masked layer, again for both backbone
//! variants — the **wire hot loop**: protocol-frame
//! decode, admission, batch execution, and response encode on a warmed
//! simulated connection, with request structs recycled through the
//! connection's outbox pool — and the **budgeted-tier hot loop**: the
//! routed loop again under a positive model-memory budget, so every batch
//! additionally passes through the tier's heat accounting and budget check
//! (`ModelTier::observe`/`enforce`), which must also be allocation-free
//! while the directory fits the budget (no eviction fires) — and the
//! **trainer tick interleaved with serving**: the online trainer's
//! steady-state body (the `DriftMonitor` histogram-distance check plus one
//! full `train_step` over a pre-staged batch) alternating with budgeted
//! routed serving rounds, proving that a background trainer sharing the
//! process with the hot loop adds no steady-state allocations of its own —
//! and the **supervised fault hot loop**: the routed loop with an armed
//! fault hook and `catch_unwind` supervision around every batch, proving
//! that the fault-domain machinery (the unwind guard plus the hook's
//! disarmed atomic check) is free on the happy path; the one injected
//! panic, the typed batch failure, and the worker respawn all happen
//! during warm-up — and the **MPSN training step**: the full hybrid
//! `train_step` again on models whose columns carry an MPSN (all three
//! kinds), so the input gradient, the re-staged predicate encodings and the
//! embedders' own forward/backward pairs (back-propagation through time for
//! the recurrent and recursive kinds) are inside the window too — and the
//! **in-process door on an idle shard**: `DuetServer::estimate` runs a miss
//! on the calling thread and allocates its request's encoding and nothing
//! else (no reply channel) — and the **wire door's inline lone request**:
//! over a real loopback socket, a warmed connection's depth-1 request runs
//! on its acceptor and is answered in the same pump, and the round trip
//! allocates and frees nothing, its request struct recycled into the
//! connection's pool.
//!
//! The same allocator also tracks live heap bytes and their peak. A second
//! test holds a served model's memory to what it is made of: a clone of a
//! trained estimator costs its weights and packs and nothing else, and
//! serving many tables under a model budget settles live heap at the budget
//! plus a small constant per table. A third holds a checkpoint to one
//! buffer: an eviction peaks at the checkpoint it keeps, and a load into a
//! model of the same architecture allocates nothing of weight size.
//!
//! This lives in its own integration-test binary so the
//! global allocator and the single-threaded measurement cannot interfere
//! with other tests; the tests in it take turns.

use duet::core::{
    data_forward, load_weights, query_forward, query_to_id_predicates, sample_virtual_batch,
    save_weights, train_step, DuetConfig, DuetEstimator, DuetModel, DuetWorkspace, MpsnKind,
    PreparedQuery, SamplerConfig, TrainStepScratch,
};
use duet::data::datasets::census_like;
use duet::data::table_stats;
use duet::data::Table;
use duet::nn::{seeded_rng, Adam};
use duet::query::{exact_cardinality, Query, WorkloadSpec};
use duet::serve::sim::{PreparedRequest, RouterHarness, WireSim};
use duet::serve::wire::frame::{self, Status};
use duet::serve::wire::ConnConfig;
use duet::serve::{
    DriftMonitor, DuetServer, ModelSlot, RouterConfig, ServeConfig, WireClient, WireConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most bytes allocated at once since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Counted as the size change alone: a moving realloc briefly also
        // holds the old block, which the peak misses. The buffers measured
        // below are reallocated only from a few bytes, if at all.
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Add `delta` to the live bytes and raise the peak to match.
fn grow(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counters are process-global, so the tests of this binary take
/// turns: two tests on parallel test threads would pollute each other's
/// windows.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Start a new peak window at the current live bytes, which it returns.
fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

// One #[test] drives all phases, so a regression is reported with the
// phase that allocated.
#[test]
fn steady_state_batched_inference_is_allocation_free() {
    let _turn = serial();
    full_batch_phase();
    shrinking_batch_phase();
    routed_multi_table_phase();
    training_step_phase();
    full_train_step_phase();
    wire_phase();
    budgeted_tier_phase();
    trainer_tick_phase();
    supervised_fault_phase();
    mpsn_train_step_phase();
    inline_inprocess_phase();
    inline_wire_phase();
}

fn full_batch_phase() {
    let table = census_like(400, 5);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 3);
    // A serving-sized batch, and one far past the batcher's 64-row cap.
    for (batch, seed) in [(32, 9), (1024, 17)] {
        let queries = WorkloadSpec::random(&table, batch, seed).generate(&table);
        let rows: Vec<_> =
            queries.iter().map(|q| query_to_id_predicates(est.schema(), q)).collect();
        let intervals: Vec<_> = queries.iter().map(|q| q.column_intervals(est.schema())).collect();

        let mut ws = DuetWorkspace::new();
        let mut out = Vec::new();
        // Warm-up: every workspace buffer grows to the batch shape.
        for _ in 0..2 {
            est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut out);
        }
        let expected = out.clone();

        let (allocs_before, frees_before) =
            (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
        for _ in 0..10 {
            est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut out);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        let frees = FREES.load(Ordering::Relaxed) - frees_before;

        assert_eq!(allocs, 0, "steady-state batched inference must not allocate ({batch} rows)");
        assert_eq!(frees, 0, "steady-state batched inference must not free ({batch} rows)");
        assert_eq!(out, expected, "reused workspace must not change results ({batch} rows)");
    }
}

fn shrinking_batch_phase() {
    let table = census_like(300, 6);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 4);
    let queries = WorkloadSpec::random(&table, 16, 11).generate(&table);
    let rows: Vec<_> = queries.iter().map(|q| query_to_id_predicates(est.schema(), q)).collect();
    let intervals: Vec<_> = queries.iter().map(|q| q.column_intervals(est.schema())).collect();

    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    // Warm on the full batch; then any batch size up to it fits the buffers.
    est.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut out);

    let before = ALLOCS.load(Ordering::Relaxed);
    for take in [1usize, 3, 8, 16] {
        est.estimate_encoded_batch_with(&rows[..take], &intervals[..take], &mut ws, &mut out);
        assert_eq!(out.len(), take);
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "shrinking batches on a warm workspace must not allocate"
    );
}

fn routed_multi_table_phase() {
    // Two differently-shaped tables multiplexed through one shard pool: each
    // worker's one workspace must absorb the alternation without re-growing
    // buffers, and the queue/admission machinery must be free of
    // allocations of its own. Consecutive rounds alternate between two
    // request sets that constrain different columns (the second one leads
    // each table's batch with an all-wildcard row), so the output
    // projection's plan, gather and block buffers change shape every batch.
    let cfg = DuetConfig::small().with_epochs(1);
    let table_a = census_like(300, 7);
    let table_b = census_like(200, 9);
    let est_a = DuetEstimator::train_data_only(&table_a, &cfg, 5);
    let est_b = DuetEstimator::train_data_only(&table_b, &cfg, 6);
    let queries_a = WorkloadSpec::random(&table_a, 8, 11).generate(&table_a);
    let queries_b = WorkloadSpec::random(&table_b, 8, 12).generate(&table_b);
    let mut other_a = WorkloadSpec::random(&table_a, 8, 13).generate(&table_a);
    let mut other_b = WorkloadSpec::random(&table_b, 8, 14).generate(&table_b);
    other_a[0] = Query::all();
    other_b[0] = Query::all();
    let constrained = |table: &Table, queries: &[Query]| -> Vec<Vec<bool>> {
        let full = |c: usize, iv: (u32, u32)| iv == (0, table.column(c).ndv() as u32);
        let intervals = queries.iter().map(|q| q.column_intervals(table));
        intervals.map(|iv| iv.iter().enumerate().map(|(c, &iv)| !full(c, iv)).collect()).collect()
    };
    assert_ne!(constrained(&table_a, &queries_a), constrained(&table_a, &other_a));
    assert_ne!(constrained(&table_b, &queries_b), constrained(&table_b, &other_b));

    let mut harness = RouterHarness::new(
        vec![("alpha".into(), est_a), ("beta".into(), est_b)],
        ServeConfig {
            router: RouterConfig { num_shards: 2, queue_capacity: 64, default_deadline: None },
            cache_capacity: 0,
            cache_shards: 1,
            hot_keys: 0,
            model_budget_bytes: 0,
        },
    );

    // Two fixed request sets, each interleaving the two tables; outcomes
    // are discarded (no channels, no ticket log) so the loop can recycle the
    // requests — their encodings included — indefinitely.
    let (mut stash, mut other): (Vec<PreparedRequest>, Vec<PreparedRequest>) = (vec![], vec![]);
    for i in 0..8 {
        stash.push(harness.prepare(0, &queries_a[i], None));
        stash.push(harness.prepare(1, &queries_b[i], None));
        other.push(harness.prepare(0, &other_a[i], None));
        other.push(harness.prepare(1, &other_b[i], None));
    }
    let mut returned: Vec<PreparedRequest> = Vec::with_capacity(stash.len());

    // One round serves one set; the sets trade places after every round.
    let mut round = |stash: &mut Vec<PreparedRequest>,
                     other: &mut Vec<PreparedRequest>,
                     returned: &mut Vec<PreparedRequest>| {
        for request in stash.drain(..) {
            harness.submit_prepared(request).unwrap_or_else(|_| panic!("queue overflow"));
        }
        while harness.queue_depth() > 0 {
            harness.turn(Some(returned));
        }
        std::mem::swap(stash, returned);
        std::mem::swap(stash, other);
    };

    // Warm-up: queues, batch containers, and the workers' workspaces grow
    // to the wider table's shapes, one round per request set.
    for _ in 0..2 {
        round(&mut stash, &mut other, &mut returned);
    }

    let (allocs_before, frees_before) =
        (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    for _ in 0..10 {
        round(&mut stash, &mut other, &mut returned);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let frees = FREES.load(Ordering::Relaxed) - frees_before;

    assert_eq!(allocs, 0, "steady-state routed multi-table serving must not allocate");
    assert_eq!(frees, 0, "steady-state routed multi-table serving must not free");
    assert_eq!(stash.len() + other.len(), 32, "all requests recycled each round");
    let snapshot = harness.metrics();
    assert_eq!(snapshot.shed_overload + snapshot.shed_deadline, 0);
    assert!(snapshot.batches >= 24, "12 rounds x 2 tables of batches, got {}", snapshot.batches);
}

fn training_step_phase() {
    // The steady-state training step's forward work — input encoding, the
    // checkpointing training forward, the grouped
    // cross-entropy gradient staging, and the supervised Q-Error pass with
    // its flat probability staging — must be allocation-free once the
    // scratch is warm. Backward and Adam are exercised separately by
    // `full_train_step_phase` below; this phase keeps the forward-only
    // window so a regression can be localized. Both backbone variants are
    // covered: plain MADE and ResMADE (residual blocks).
    let table = census_like(400, 9);
    for residual in [false, true] {
        let mut cfg = DuetConfig::small();
        cfg.residual = residual;
        let mut model = DuetModel::new(&table, &cfg, 13);
        let mut rng = seeded_rng(31);
        let sampler =
            SamplerConfig { expand_mu: 2, wildcard_prob: 0.3, max_predicates_per_column: 1 };
        let anchor_rows: Vec<usize> = (0..32).collect();
        let batch = sample_virtual_batch(&table, &anchor_rows, &sampler, &mut rng);
        let queries = WorkloadSpec::random(&table, 16, 21).generate(&table);
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
            .collect();
        let num_rows = table.num_rows() as f64;

        let mut scratch = TrainStepScratch::new();
        let step = |model: &mut DuetModel, scratch: &mut TrainStepScratch| {
            let data_loss = data_forward(model, &batch, scratch);
            let (query_loss, mean_q) = query_forward(model, &prepared, num_rows, 0.1, scratch);
            (data_loss, query_loss, mean_q)
        };

        // Warm-up: scratch activations, gradient staging and probability
        // staging all grow to shape.
        step(&mut model, &mut scratch);
        let expected = step(&mut model, &mut scratch);

        let (allocs_before, frees_before) =
            (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
        for _ in 0..10 {
            let got = step(&mut model, &mut scratch);
            assert_eq!(got, expected, "scratch reuse must not change training losses");
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        let frees = FREES.load(Ordering::Relaxed) - frees_before;
        assert_eq!(
            allocs, 0,
            "steady-state training forward must not allocate (residual={residual})"
        );
        assert_eq!(frees, 0, "steady-state training forward must not free (residual={residual})");
    }
}

fn full_train_step_phase() {
    // The complete training step — zeroing the gradient buffer, the
    // data-driven forward, the gradient-ping-pong scratch backward (taking
    // the fused sparse first-layer path: the one-hot training input is far
    // above the sparse dispatch threshold), the supervised Q-Error pass and
    // its backward, and the Adam parameter update with the re-mask and
    // in-place repack of every masked layer — must be allocation-free once
    // the scratch, the sparse capture, and Adam's moment buffers are warm. Both backbone
    // variants are covered: plain MADE and ResMADE (residual blocks).
    let table = census_like(400, 9);
    for residual in [false, true] {
        let mut cfg = DuetConfig::small();
        cfg.residual = residual;
        let mut model = DuetModel::new(&table, &cfg, 13);
        let mut rng = seeded_rng(31);
        let sampler =
            SamplerConfig { expand_mu: 2, wildcard_prob: 0.3, max_predicates_per_column: 1 };
        let anchor_rows: Vec<usize> = (0..32).collect();
        let batch = sample_virtual_batch(&table, &anchor_rows, &sampler, &mut rng);
        let queries = WorkloadSpec::random(&table, 16, 21).generate(&table);
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
            .collect();
        let num_rows = table.num_rows() as f64;

        let mut scratch = TrainStepScratch::new();
        let mut adam = Adam::new(1e-3);

        // Warm-up: scratch activations, gradient ping-pong buffers, the
        // gradient buffer, the sparse input capture, and Adam's first-step
        // moment buffers all grow to shape.
        for _ in 0..2 {
            train_step(&mut model, &mut adam, &batch, &prepared, num_rows, 0.1, &mut scratch);
        }

        let (allocs_before, frees_before) =
            (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
        for _ in 0..10 {
            let (data_loss, query_loss, mean_q) =
                train_step(&mut model, &mut adam, &batch, &prepared, num_rows, 0.1, &mut scratch);
            // Weights evolve each step, so losses drift; they must stay
            // finite (the step is actually learning, not diverging).
            assert!(data_loss.is_finite(), "data loss diverged (residual={residual})");
            assert!(query_loss.is_finite(), "query loss diverged (residual={residual})");
            assert!(mean_q.is_finite() && mean_q >= 1.0, "mean Q-Error out of range");
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        let frees = FREES.load(Ordering::Relaxed) - frees_before;
        assert_eq!(
            allocs, 0,
            "steady-state full train step must not allocate (residual={residual})"
        );
        assert_eq!(frees, 0, "steady-state full train step must not free (residual={residual})");
    }
}

fn mpsn_train_step_phase() {
    // The tenth phase: `full_train_step_phase` again, on models with an
    // MPSN per column and up to three predicates per column. On top of the
    // plain step this runs the backbone's input-gradient matmul, re-stages
    // every multi-predicate column's encodings through the workspace, and
    // drives each embedder's training pair — for the recurrent and
    // recursive kinds, back-propagation through time over the staged state
    // sequence. All of it must be allocation-free once warm, at a real
    // learning rate: training moves the hidden activations' density across
    // the kernels' 0.4 dispatch boundary, but every masked layer's pack is
    // rebuilt in place by each optimizer step, whichever kernel the next
    // batch picks.
    let table = census_like(400, 9);
    for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
        let cfg = DuetConfig::small().with_mpsn(kind, 3);
        let mut model = DuetModel::new(&table, &cfg, 13);
        let mut rng = seeded_rng(31);
        let sampler = SamplerConfig {
            expand_mu: cfg.expand_mu,
            wildcard_prob: cfg.wildcard_prob,
            max_predicates_per_column: cfg.max_predicates_per_column,
        };
        let anchor_rows: Vec<usize> = (0..32).collect();
        let batch = sample_virtual_batch(&table, &anchor_rows, &sampler, &mut rng);
        assert!(
            batch.iter().any(|vt| vt.predicates.iter().any(|p| p.len() > 1)),
            "the batch must carry multi-predicate columns ({kind:?})"
        );
        let queries = WorkloadSpec::random(&table, 16, 21).generate(&table);
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
            .collect();
        let num_rows = table.num_rows() as f64;

        let mut scratch = TrainStepScratch::new();
        let mut adam = Adam::new(1e-3);
        for _ in 0..2 {
            train_step(&mut model, &mut adam, &batch, &prepared, num_rows, 0.1, &mut scratch);
        }

        let (allocs_before, frees_before) =
            (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
        for _ in 0..10 {
            let (data_loss, query_loss, mean_q) =
                train_step(&mut model, &mut adam, &batch, &prepared, num_rows, 0.1, &mut scratch);
            assert!(data_loss.is_finite() && query_loss.is_finite(), "loss diverged ({kind:?})");
            assert!(mean_q.is_finite() && mean_q >= 1.0, "mean Q-Error out of range ({kind:?})");
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        let frees = FREES.load(Ordering::Relaxed) - frees_before;
        assert_eq!(allocs, 0, "steady-state MPSN train step must not allocate ({kind:?})");
        assert_eq!(frees, 0, "steady-state MPSN train step must not free ({kind:?})");
    }
}

fn wire_phase() {
    // The full wire hot loop on a warmed connection: frame decode →
    // admission → batch execution → response encode, with the request
    // structs recycled through the connection's outbox pool. One fixed blob
    // of pre-encoded request frames is replayed each round; after warm-up,
    // a round must not touch the heap at all.
    let table = census_like(300, 8);
    let cfg = DuetConfig::small().with_epochs(1);
    let est = DuetEstimator::train_data_only(&table, &cfg, 5);
    let queries = WorkloadSpec::random(&table, 16, 13).generate(&table);

    let mut sim = WireSim::new(
        vec![("wire".into(), est.clone())],
        ServeConfig {
            router: RouterConfig { num_shards: 1, queue_capacity: 64, default_deadline: None },
            cache_capacity: 0,
            cache_shards: 1,
            hot_keys: 0,
            model_budget_bytes: 0,
        },
        ConnConfig::default(),
        1,
    );

    // Handshake, then pre-encode the round's 16 request frames once.
    let mut blob = Vec::new();
    frame::encode_preamble(&mut blob);
    sim.feed(0, &blob);
    sim.pump(0).expect("preamble is valid");
    blob.clear();
    for (i, query) in queries.iter().enumerate() {
        let preds = query_to_id_predicates(est.schema(), query);
        let intervals = query.column_intervals(est.schema());
        frame::encode_request(&mut blob, i as u64, 0, 0, &preds, &intervals);
    }

    let requests = queries.len();
    let round = |sim: &mut WireSim| {
        sim.feed(0, &blob);
        sim.pump(0).expect("requests decode"); // decode + admit
        while sim.harness().queue_depth() > 0 {
            sim.turn(); // execute; completions land in the outbox
        }
        sim.pump(0).expect("responses encode"); // encode response frames
        let produced = sim.output(0).len();
        assert_eq!(produced, requests * (4 + frame::RESPONSE_BODY_LEN));
        sim.consume_output(0, produced);
        assert_eq!(sim.inflight(0), 0, "every request answered each round");
    };

    // Warm-up: connection buffers, the outbox pool, queue, and workspace
    // all grow to their steady-state shapes.
    for _ in 0..2 {
        round(&mut sim);
    }

    let (allocs_before, frees_before) =
        (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    for _ in 0..10 {
        round(&mut sim);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let frees = FREES.load(Ordering::Relaxed) - frees_before;
    assert_eq!(allocs, 0, "steady-state wire serving must not allocate");
    assert_eq!(frees, 0, "steady-state wire serving must not free");
}

fn budgeted_tier_phase() {
    // The routed hot loop again, but with a positive model-memory budget:
    // every executed batch now also runs the tier's heat accounting
    // (`ModelTier::observe`) and the budget check (`ModelTier::enforce`'s
    // resident-bytes sum). With a budget generous enough to keep both
    // models resident, the added bookkeeping must not touch the heap —
    // the heat vector grows once during warm-up and is reused forever.
    let cfg = DuetConfig::small().with_epochs(1);
    let table_a = census_like(300, 17);
    let table_b = census_like(200, 19);
    let est_a = DuetEstimator::train_data_only(&table_a, &cfg, 15);
    let est_b = DuetEstimator::train_data_only(&table_b, &cfg, 16);
    let queries_a = WorkloadSpec::random(&table_a, 8, 31).generate(&table_a);
    let queries_b = WorkloadSpec::random(&table_b, 8, 32).generate(&table_b);

    let mut harness = RouterHarness::new(
        vec![("gamma".into(), est_a), ("delta".into(), est_b)],
        ServeConfig {
            router: RouterConfig { num_shards: 2, queue_capacity: 64, default_deadline: None },
            cache_capacity: 0,
            cache_shards: 1,
            hot_keys: 0,
            // Generous: both models fit, so the tier observes and checks
            // every batch but never has to evict.
            model_budget_bytes: 1 << 40,
        },
    );

    let mut stash: Vec<PreparedRequest> = Vec::new();
    for i in 0..8 {
        stash.push(harness.prepare(0, &queries_a[i], None));
        stash.push(harness.prepare(1, &queries_b[i], None));
    }
    let mut returned: Vec<PreparedRequest> = Vec::with_capacity(stash.len());

    let mut round = |stash: &mut Vec<PreparedRequest>, returned: &mut Vec<PreparedRequest>| {
        for request in stash.drain(..) {
            harness.submit_prepared(request).unwrap_or_else(|_| panic!("queue overflow"));
        }
        while harness.queue_depth() > 0 {
            harness.turn(Some(returned));
        }
        std::mem::swap(stash, returned);
    };

    for _ in 0..2 {
        round(&mut stash, &mut returned);
    }

    let (allocs_before, frees_before) =
        (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    for _ in 0..10 {
        round(&mut stash, &mut returned);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let frees = FREES.load(Ordering::Relaxed) - frees_before;

    assert_eq!(allocs, 0, "budgeted-tier serving within budget must not allocate");
    assert_eq!(frees, 0, "budgeted-tier serving within budget must not free");
    let snapshot = harness.metrics();
    assert_eq!(snapshot.model_evictions, 0, "a generous budget must never evict");
    assert_eq!(snapshot.model_reloads, 0);
    assert!(harness.tier().heat_of(0) > 0 && harness.tier().heat_of(1) > 0);
}

fn trainer_tick_phase() {
    // The eighth phase: the online trainer's steady-state tick shares the
    // process with the serving hot loop, so its per-tick body must be as
    // allocation-clean as the loop it rides along with. Each measured round
    // interleaves (a) a budgeted routed serving round with a recycled
    // request set and (b) one trainer tick: the drift monitor's
    // histogram-distance check (allocation-free by construction) plus one
    // full `train_step` on a pre-staged virtual-tuple batch. Everything
    // that allocates — sampling the batch, preparing feedback queries,
    // growing the scratch and Adam moments — happens before the window.
    let cfg = DuetConfig::small().with_epochs(1);
    let table = census_like(300, 21);
    let est = DuetEstimator::train_data_only(&table, &cfg, 22);
    let queries = WorkloadSpec::random(&table, 8, 33).generate(&table);

    let mut harness = RouterHarness::new(
        vec![("online".into(), est)],
        ServeConfig {
            router: RouterConfig { num_shards: 1, queue_capacity: 64, default_deadline: None },
            cache_capacity: 0,
            cache_shards: 1,
            hot_keys: 0,
            model_budget_bytes: 1 << 40,
        },
    );
    let mut stash: Vec<PreparedRequest> =
        queries.iter().map(|q| harness.prepare(0, q, None)).collect();
    let mut returned: Vec<PreparedRequest> = Vec::with_capacity(stash.len());

    // Trainer state, all staged before the measured window.
    let live = table_stats(&table);
    let mut monitor = DriftMonitor::new(live.clone(), 0.15, 2);
    let mut model = DuetModel::new(&table, &cfg, 23);
    let mut rng = seeded_rng(41);
    let sampler = SamplerConfig { expand_mu: 2, wildcard_prob: 0.3, max_predicates_per_column: 1 };
    let anchor_rows: Vec<usize> = (0..16).collect();
    let batch = sample_virtual_batch(&table, &anchor_rows, &sampler, &mut rng);
    let prepared: Vec<PreparedQuery> = queries
        .iter()
        .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
        .collect();
    let num_rows = table.num_rows() as f64;
    let mut scratch = TrainStepScratch::new();
    let mut adam = Adam::new(1e-3);

    let mut round = |stash: &mut Vec<PreparedRequest>,
                     returned: &mut Vec<PreparedRequest>,
                     monitor: &mut DriftMonitor,
                     model: &mut DuetModel,
                     adam: &mut Adam,
                     scratch: &mut TrainStepScratch| {
        // Serving half: the budgeted routed hot loop.
        for request in stash.drain(..) {
            harness.submit_prepared(request).unwrap_or_else(|_| panic!("queue overflow"));
        }
        while harness.queue_depth() > 0 {
            harness.turn(Some(returned));
        }
        std::mem::swap(stash, returned);
        // Trainer half: one tick. The stats have not moved (serving does
        // not ingest), so the check stays quiet — which is exactly the
        // steady state a background trainer spends most of its life in.
        assert!(!monitor.check(&live), "identical stats must not drift");
        let (data_loss, query_loss, _) =
            train_step(model, adam, &batch, &prepared, num_rows, 0.1, scratch);
        assert!(data_loss.is_finite() && query_loss.is_finite(), "trainer tick diverged");
    };

    // Warm-up: queue, workspaces, scratch, and Adam moments grow to shape.
    for _ in 0..2 {
        round(&mut stash, &mut returned, &mut monitor, &mut model, &mut adam, &mut scratch);
    }

    let (allocs_before, frees_before) =
        (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    for _ in 0..10 {
        round(&mut stash, &mut returned, &mut monitor, &mut model, &mut adam, &mut scratch);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let frees = FREES.load(Ordering::Relaxed) - frees_before;

    assert_eq!(allocs, 0, "trainer tick interleaved with serving must not allocate");
    assert_eq!(frees, 0, "trainer tick interleaved with serving must not free");
}

fn supervised_fault_phase() {
    // The ninth phase: the supervision wrapper itself. Every batch in the
    // routed hot loop runs under `catch_unwind` with a fault hook armed on
    // the worker — in steady state the hook is one disarmed atomic check.
    // During warm-up the hook actually fires once: the panic is caught,
    // the batch is failed typed, and the worker respawns with a fresh
    // workspace pool that regrows over the remaining warm rounds. The
    // measured window then proves the fault-domain machinery (unwind-guard
    // entry/exit plus the hook check) adds zero steady-state allocations
    // on top of the bare routed loop.
    let cfg = DuetConfig::small().with_epochs(1);
    let table = census_like(300, 23);
    let est = DuetEstimator::train_data_only(&table, &cfg, 24);
    let queries = WorkloadSpec::random(&table, 8, 35).generate(&table);

    let mut harness = RouterHarness::new(
        vec![("supervised".into(), est)],
        ServeConfig {
            router: RouterConfig { num_shards: 1, queue_capacity: 64, default_deadline: None },
            cache_capacity: 0,
            cache_shards: 1,
            hot_keys: 0,
            model_budget_bytes: 0,
        },
    );
    let armed = Arc::new(AtomicBool::new(false));
    let flag = armed.clone();
    harness.arm_fault(Arc::new(move || {
        if flag.load(Ordering::Relaxed) {
            panic!("injected model fault (zero-alloc warm-up)");
        }
    }));

    let mut stash: Vec<PreparedRequest> =
        queries.iter().map(|q| harness.prepare(0, q, None)).collect();
    let mut returned: Vec<PreparedRequest> = Vec::with_capacity(stash.len());

    let mut round = |stash: &mut Vec<PreparedRequest>, returned: &mut Vec<PreparedRequest>| {
        for request in stash.drain(..) {
            harness.submit_prepared(request).unwrap_or_else(|_| panic!("queue overflow"));
        }
        while harness.queue_depth() > 0 {
            harness.turn(Some(returned));
        }
        std::mem::swap(stash, returned);
    };

    // Quiet the injected warm-up panic; everything else still prints.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected model fault"));
        if !injected {
            previous_hook(info);
        }
    }));

    // Warm-up: one clean round, then the armed round — the panic unwinds
    // through `catch_unwind`, the worker respawns — then two more clean
    // rounds so the respawned worker's fresh pool regrows to shape.
    round(&mut stash, &mut returned);
    armed.store(true, Ordering::Relaxed);
    round(&mut stash, &mut returned);
    armed.store(false, Ordering::Relaxed);
    for _ in 0..2 {
        round(&mut stash, &mut returned);
    }

    let (allocs_before, frees_before) =
        (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    for _ in 0..10 {
        round(&mut stash, &mut returned);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let frees = FREES.load(Ordering::Relaxed) - frees_before;

    assert_eq!(allocs, 0, "supervised routed serving must not allocate in steady state");
    assert_eq!(frees, 0, "supervised routed serving must not free in steady state");
    assert_eq!(stash.len(), queries.len(), "every request recycled each round");
    let snapshot = harness.metrics();
    assert!(snapshot.panics_caught >= 1, "the warm-up fault must actually fire");
    assert_eq!(
        snapshot.panics_caught, snapshot.shard_restarts,
        "every caught panic respawns its worker exactly once"
    );
}

fn inline_inprocess_phase() {
    // The eleventh phase: the server's in-process door with its shard idle.
    // A miss runs on the calling thread, on the shard's executor, answered
    // through a ticket into the executor's outcome log — no reply channel,
    // no hand-off to the worker thread. In steady state such an `estimate`
    // allocates (and frees) its request's encoding and nothing else.
    let cfg = DuetConfig::small().with_epochs(1);
    let table = census_like(300, 25);
    let est = DuetEstimator::train_data_only(&table, &cfg, 26);
    let queries = WorkloadSpec::random(&table, 8, 36).generate(&table);
    let server = DuetServer::new(ServeConfig {
        router: RouterConfig { num_shards: 1, queue_capacity: 64, default_deadline: None },
        cache_capacity: 0,
        cache_shards: 1,
        hot_keys: 0,
        model_budget_bytes: 0,
    });
    server.register("inline", est.clone());
    let counts = || (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));

    // What encoding the round's queries costs on its own: the same two
    // translations the door runs against the table's schema.
    let (allocs_before, frees_before) = counts();
    for query in &queries {
        let schema = est.schema();
        std::hint::black_box((
            query_to_id_predicates(schema, query),
            query.column_intervals(schema),
        ));
    }
    let (allocs, frees) = counts();
    let (encode_allocs, encode_frees) = (allocs - allocs_before, frees - frees_before);
    assert!(encode_allocs > 0, "an encoding is heap-allocated");

    let round = || {
        for query in &queries {
            server.estimate("inline", query).expect("an idle shard answers");
        }
    };
    // Warm-up: the executor's workspace, results, outcome log and staging
    // buffer grow to shape.
    for _ in 0..2 {
        round();
    }
    let (allocs_before, frees_before) = counts();
    for _ in 0..10 {
        round();
    }
    let (allocs, frees) = counts();
    assert_eq!(
        allocs - allocs_before,
        10 * encode_allocs,
        "an inline miss allocates its encoding only"
    );
    assert_eq!(frees - frees_before, 10 * encode_frees, "an inline miss frees its encoding only");
    let snapshot = server.metrics();
    assert_eq!(snapshot.caller_batches, 12 * queries.len() as u64, "every miss ran on the caller");
    assert_eq!(snapshot.batches, snapshot.caller_batches);
}

fn inline_wire_phase() {
    // The twelfth phase: the wire door with its shard idle, over a real
    // loopback socket. A warmed connection with nothing in flight sends one
    // request frame; its acceptor runs it as a one-row batch on the shard's
    // executor and writes the reply in the same pump, and the request struct
    // goes back to the connection's pool. No reply channel, no queue, no
    // wake byte: a steady-state round trip allocates and frees nothing, on
    // either end of the socket.
    let cfg = DuetConfig::small().with_epochs(1);
    let table = census_like(300, 27);
    let est = DuetEstimator::train_data_only(&table, &cfg, 28);
    let schema = est.schema();
    let encoded: Vec<_> = WorkloadSpec::random(&table, 8, 37)
        .generate(&table)
        .iter()
        .map(|q| (query_to_id_predicates(schema, q), q.column_intervals(schema)))
        .collect();
    let server = DuetServer::new(ServeConfig {
        router: RouterConfig { num_shards: 1, queue_capacity: 64, default_deadline: None },
        cache_capacity: 0,
        cache_shards: 1,
        hot_keys: 0,
        model_budget_bytes: 0,
    });
    server.register("inline", est.clone());
    let wire = WireConfig { acceptors: 1, ..WireConfig::default() };
    let handle = server.serve_wire("127.0.0.1:0", wire).expect("bind a loopback port");
    let mut client = WireClient::connect(handle.addr()).expect("connect over loopback");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("set a read timeout");
    let table_id = client.resolve("inline").expect("resolve").expect("table is registered").id;
    let counts = || (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));

    let mut round = || {
        for (i, (preds, intervals)) in encoded.iter().enumerate() {
            client.submit_request(i as u64, table_id, 0, preds, intervals);
            client.flush().expect("flush");
            let response = client.recv().expect("a reply");
            assert_eq!((response.request_id, response.status), (i as u64, Status::Ok));
        }
    };
    // Warm-up: the connection's byte queues, pool and completion scratch,
    // the executor's workspace and staging buffer, the client's buffers.
    for _ in 0..2 {
        round();
    }
    let before = server.metrics();
    let (allocs_before, frees_before) = counts();
    for _ in 0..10 {
        round();
    }
    let (allocs, frees) = counts();
    let after = server.metrics();
    assert_eq!(allocs - allocs_before, 0, "an inline wire request must not allocate");
    assert_eq!(frees - frees_before, 0, "an inline wire request must not free");
    let requests = 10 * encoded.len() as u64;
    assert_eq!(after.caller_batches - before.caller_batches, requests, "each ran on the acceptor");
    assert_eq!(after.batches - before.batches, requests);
    assert_eq!(after.wire_wake_signals, before.wire_wake_signals, "no wake byte was needed");
    drop(client);
    drop(handle);
}

#[test]
fn served_models_hold_their_weights_and_packs_only() {
    let _turn = serial();
    clone_phase();
    budgeted_heap_phase();
}

fn clone_phase() {
    // A clone of a trained estimator — what a hot-swap, an online retrain
    // or a registration copies — is its weights and the pack of every
    // masked layer: no gradient, no mask matrix, no cache. The remaining
    // tenth covers the schema dictionaries, the encoder and the layers'
    // degree lists.
    let table = census_like(400, 15);
    let mut cfg = DuetConfig::small().with_epochs(1);
    cfg.hidden_sizes = vec![256, 256];
    let est = DuetEstimator::train_data_only(&table, &cfg, 8);
    let held = est.model().resident_bytes();
    assert!(held > est.model().size_bytes(), "the packs are part of what a model holds");

    let before = live_bytes();
    let clone = est.clone();
    let cloned = (live_bytes() - before) as usize;
    eprintln!(
        "clone: {cloned} bytes, weights + packs {held}, parameters {}",
        est.model().size_bytes()
    );
    assert!(
        cloned as f64 <= 1.1 * held as f64,
        "a clone holds {cloned} bytes for {held} bytes of weights and packs"
    );
    drop(clone);
}

/// What the budgeted directory may hold per table besides its resident
/// models: the evicted slot's schema snapshot (about 16 KiB of dictionaries
/// for these tables), config and spill path, the table's cache, hot set and
/// router record, and a share of the shard workers' workspaces, which grow
/// to the widest table and no further. Measured at about 52 KiB.
const PER_TABLE_BYTES: usize = 64 << 10;

fn budgeted_heap_phase() {
    // Six tables, each served twice in turn under a one-model budget with
    // eviction spilling to disk: after the last batch, live heap above the
    // level before registration is at most one resident model plus a
    // constant per table. Nothing derived from a model outlives its
    // eviction: a worker's workspace is scratch sized by the widest table.
    const TABLES: usize = 6;
    let cfg = DuetConfig::small().with_epochs(1);
    let data: Vec<Table> = (0..TABLES).map(|t| census_like(300, 40 + t as u64)).collect();
    let tables: Vec<(String, DuetEstimator)> = data
        .iter()
        .enumerate()
        .map(|(t, table)| (format!("t{t}"), DuetEstimator::train_data_only(table, &cfg, t as u64)))
        .collect();
    let workloads: Vec<Vec<Query>> = data
        .iter()
        .enumerate()
        .map(|(t, table)| WorkloadSpec::random(table, 8, 60 + t as u64).generate(table))
        .collect();
    let per_model = tables.iter().map(|(_, e)| e.model().resident_bytes()).max().unwrap();
    let spill = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("zero-alloc-budgeted-heap");
    let _ = std::fs::remove_dir_all(&spill);

    let before = live_bytes();
    let mut harness = RouterHarness::new(
        tables.clone(),
        ServeConfig { model_budget_bytes: per_model, cache_capacity: 0, ..ServeConfig::default() },
    );
    harness.tier().set_spill_dir(Some(spill.clone()));
    let mut ticket = 0;
    for _ in 0..2 {
        for (t, queries) in workloads.iter().enumerate() {
            for query in queries {
                ticket += 1;
                harness.submit_query(t, query, ticket);
            }
            harness.drain();
        }
    }
    assert_eq!(harness.outcomes().len(), ticket as usize);
    assert!(harness.outcomes().iter().all(|(_, outcome)| outcome.is_ok()));
    harness.clear_outcomes();
    let snapshot = harness.metrics();
    assert!(snapshot.model_evictions >= TABLES as u64, "the budget must force evictions");

    let held = (live_bytes() - before) as usize;
    let bound = per_model + TABLES * PER_TABLE_BYTES;
    assert!(held <= bound, "{held} bytes held under a one-model budget of {per_model} bytes");
    drop(harness);
    let _ = std::fs::remove_dir_all(&spill);
}

/// What a checkpoint operation may allocate besides the checkpoint itself:
/// the evicted slot's schema snapshot, config and label.
const CHECKPOINT_SLACK: usize = 64 << 10;

#[test]
fn a_checkpoint_is_one_buffer_written_once_and_read_in_place() {
    let _turn = serial();
    let table = census_like(400, 16);
    let mut cfg = DuetConfig::small().with_epochs(1);
    cfg.hidden_sizes = vec![256, 256];
    let est = DuetEstimator::train_data_only(&table, &cfg, 9);
    let checkpoint = save_weights(&est);
    let params = est.model().size_bytes();
    assert!(checkpoint.len() > params, "a checkpoint holds every parameter");

    // Loading into a model of the same architecture decodes into the
    // weights it already has: no staging copy, no reallocation.
    let mut target = est.clone();
    let before = reset_peak();
    load_weights(&mut target, &checkpoint).expect("same architecture");
    let loaded = (peak_bytes() - before) as usize;
    eprintln!("load: peak {loaded} bytes above start, parameters {params}");
    assert!(loaded <= CHECKPOINT_SLACK, "a load allocated {loaded} bytes for {params} bytes");
    drop(target);

    // Evicting serializes the resident model where it lies: the only large
    // allocation is the checkpoint, held by the slot from then on.
    let slot = ModelSlot::new(est);
    let before = reset_peak();
    let freed = slot.evict(None).expect("in-memory eviction");
    let evicted = (peak_bytes() - before) as usize;
    eprintln!(
        "evict: peak {evicted} bytes above start, checkpoint {}, freed {freed}",
        checkpoint.len()
    );
    assert!(freed > 0 && !slot.is_resident());
    assert!(
        evicted <= checkpoint.len() + CHECKPOINT_SLACK,
        "an eviction peaked {evicted} bytes above its start for a {} byte checkpoint",
        checkpoint.len()
    );
}
