//! Criterion micro-benchmark: single-query estimation latency of Duet vs the
//! sampling-based and traditional estimators (the latency claim behind
//! Figure 7 and the O(1)-vs-O(n) analysis of §IV-E), plus the batched
//! inference path through a reused [`DuetWorkspace`] at batch 32 and 64.

use criterion::{criterion_group, criterion_main, BenchMeta, Criterion};
use duet_baselines::{IndependenceEstimator, MHist, NaruConfig, NaruEstimator};
use duet_core::{query_to_id_predicates, DuetConfig, DuetEstimator, DuetWorkspace};
use duet_data::datasets::census_like;
use duet_query::{CardinalityEstimator, WorkloadSpec};
use std::hint::black_box;

/// Batch size of the batched-inference comparison (a typical micro-batch the
/// serving layer forms under load).
const BATCH: usize = 32;

fn bench_estimation(c: &mut Criterion) {
    let table = census_like(4_000, 7);
    let queries = WorkloadSpec::random(&table, 64, 1234).generate(&table);

    let duet_cfg = DuetConfig::small().with_epochs(2);
    let mut duet = DuetEstimator::train_data_only(&table, &duet_cfg, 3);
    let naru_cfg = NaruConfig::small().with_epochs(2).with_samples(200);
    let mut naru = NaruEstimator::train(&table, &naru_cfg, 3);
    let mut indep = IndependenceEstimator::new(&table);
    let mut mhist = MHist::new(&table, 256);

    let mut group = c.benchmark_group("estimation_latency");
    let mut idx = 0usize;
    group.bench_function("duet_single_query", |b| {
        b.iter(|| {
            let q = &queries[idx % queries.len()];
            idx += 1;
            black_box(duet.estimate(q))
        })
    });
    group.bench_function("naru_progressive_sampling", |b| {
        b.iter(|| {
            let q = &queries[idx % queries.len()];
            idx += 1;
            black_box(naru.estimate(q))
        })
    });
    group.bench_function("independence", |b| {
        b.iter(|| {
            let q = &queries[idx % queries.len()];
            idx += 1;
            black_box(indep.estimate(q))
        })
    });
    group.bench_function("mhist", |b| {
        b.iter(|| {
            let q = &queries[idx % queries.len()];
            idx += 1;
            black_box(mhist.estimate(q))
        })
    });

    // Batched inference: the pre-encoded hot path the serving layer runs,
    // through a reused workspace.
    let batch_queries = &queries[..BATCH];
    let rows: Vec<_> =
        batch_queries.iter().map(|q| query_to_id_predicates(duet.schema(), q)).collect();
    let intervals: Vec<_> =
        batch_queries.iter().map(|q| q.column_intervals(duet.schema())).collect();
    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    group.bench_function_meta(
        "duet_batch32_workspace",
        BenchMeta { batch_size: Some(BATCH), mode: Some("fast") },
        |b| {
            b.iter(|| {
                duet.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut out);
                black_box(out.last().copied())
            })
        },
    );
    // Large batch: deep enough into the blocked/packed kernels that
    // per-batch fixed costs vanish; per-query throughput headroom of the
    // batched path (see docs/PERFORMANCE.md).
    let big = &queries[..64];
    let big_rows: Vec<_> = big.iter().map(|q| query_to_id_predicates(duet.schema(), q)).collect();
    let big_intervals: Vec<_> = big.iter().map(|q| q.column_intervals(duet.schema())).collect();
    group.bench_function_meta(
        "duet_batch64_workspace",
        BenchMeta { batch_size: Some(64), mode: Some("fast") },
        |b| {
            b.iter(|| {
                duet.estimate_encoded_batch_with(&big_rows, &big_intervals, &mut ws, &mut out);
                black_box(out.last().copied())
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_estimation
}
criterion_main!(benches);
