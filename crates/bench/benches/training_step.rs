//! Criterion micro-benchmarks for the training path: one epoch of Duet's
//! data-driven training vs Naru's (Table III context), plus **step-level**
//! benches: the `data_forward` / `query_forward` passes on their own
//! (activation checkpointing, in-place masked-weight memo, flat
//! gradient/probability staging) and the **full training step** (forward +
//! gradient-ping-pong scratch backward with the fused sparse first layer +
//! Adam), data-driven and hybrid.

use criterion::{criterion_group, criterion_main, BenchMeta, Criterion};
use duet_baselines::{NaruConfig, NaruEstimator};
use duet_core::{
    data_forward, query_forward, sample_virtual_batch, train_model, train_step, DuetConfig,
    DuetModel, PreparedQuery, SamplerConfig, TrainStepScratch, VirtualTuple,
};
use duet_data::datasets::census_like;
use duet_nn::{seeded_rng, Adam};
use duet_query::{exact_cardinality, WorkloadSpec};
use std::hint::black_box;

fn bench_training(c: &mut Criterion) {
    let table = census_like(2_048, 7);

    let mut group = c.benchmark_group("one_epoch_training");
    group.sample_size(10);
    group.bench_function_meta(
        "duet_data_driven",
        BenchMeta { batch_size: Some(256), mode: None },
        |b| {
            let cfg = DuetConfig::small().with_epochs(1).with_batch_size(256);
            b.iter(|| black_box(train_model(&table, &cfg, None, 3, |_| {})))
        },
    );
    group.bench_function_meta("naru_mle", BenchMeta { batch_size: Some(256), mode: None }, |b| {
        let mut cfg = NaruConfig::small().with_epochs(1);
        cfg.batch_size = 256;
        b.iter(|| black_box(NaruEstimator::train(&table, &cfg, 3)))
    });
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let table = census_like(2_048, 7);
    let cfg = DuetConfig::small();
    let mut model = DuetModel::new(&table, &cfg, 11);
    let mut rng = seeded_rng(17);
    let sampler = SamplerConfig {
        expand_mu: cfg.expand_mu,
        wildcard_prob: cfg.wildcard_prob,
        max_predicates_per_column: cfg.max_predicates_per_column,
    };
    // One fixed batch matching the trainer's shape: 128 anchors x mu=2.
    let anchors: Vec<usize> = (0..128).collect();
    let batch: Vec<VirtualTuple> = sample_virtual_batch(&table, &anchors, &sampler, &mut rng);
    let queries = WorkloadSpec::random(&table, 32, 5).generate(&table);
    let prepared: Vec<PreparedQuery> = queries
        .iter()
        .map(|q| PreparedQuery::prepare(&table, q, exact_cardinality(&table, q)))
        .collect();
    let num_rows = table.num_rows() as f64;
    let tuples = batch.len();

    let mut group = c.benchmark_group("train_step");
    group.sample_size(40);

    let mut scratch = TrainStepScratch::new();
    group.bench_function_meta(
        "data_forward_scratch",
        BenchMeta { batch_size: Some(tuples), mode: Some("scratch") },
        |b| {
            b.iter(|| {
                model.zero_grad();
                let loss = data_forward(&mut model, &batch, &mut scratch);
                black_box((loss, scratch.grad_logits().rows()))
            })
        },
    );

    group.bench_function_meta(
        "query_forward_scratch",
        BenchMeta { batch_size: Some(prepared.len()), mode: Some("scratch") },
        |b| {
            b.iter(|| {
                model.zero_grad();
                black_box(query_forward(&mut model, &prepared, num_rows, 0.1, &mut scratch))
            })
        },
    );

    // The full data-driven step through `train_step`: fused sparse first layer,
    // gradient ping-pong through scratch, zero allocations after warm-up.
    let mut adam_scratch = Adam::new(1e-4);
    group.bench_function_meta(
        "full_step_scratch",
        BenchMeta { batch_size: Some(tuples), mode: Some("scratch") },
        |b| {
            b.iter(|| {
                let empty: &[PreparedQuery] = &[];
                black_box(train_step(
                    &mut model,
                    &mut adam_scratch,
                    &batch,
                    empty,
                    num_rows,
                    0.1,
                    &mut scratch,
                ))
            })
        },
    );

    // The hybrid step (Algorithm 2): data pass + supervised Q-Error pass,
    // both backwards, one Adam update.
    let mut adam_hybrid = Adam::new(1e-4);
    group.bench_function_meta(
        "full_step_hybrid_scratch",
        BenchMeta { batch_size: Some(tuples), mode: Some("scratch") },
        |b| {
            b.iter(|| {
                black_box(train_step(
                    &mut model,
                    &mut adam_hybrid,
                    &batch,
                    &prepared,
                    num_rows,
                    0.1,
                    &mut scratch,
                ))
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_training, bench_train_step
}
criterion_main!(benches);
