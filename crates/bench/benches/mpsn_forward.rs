//! Criterion micro-benchmark: per-column MPSN embedding vs the merged
//! block-diagonal MPSN (the "Parallel Acceleration for MLP MPSN" of §IV-F),
//! on a 100-column table.

use criterion::{criterion_group, criterion_main, Criterion};
use duet_core::{build_mpsns, MergedMlpMpsn, MpsnKind, MpsnScratch};
use duet_nn::{ForwardWorkspace, Matrix};
use std::hint::black_box;

fn bench_mpsn(c: &mut Criterion) {
    // 100 columns, each with an 11-wide block (6 value bits + 5 op bits).
    let widths = vec![11usize; 100];
    let mpsns = build_mpsns(MpsnKind::Mlp, &widths, 64, 7);
    let merged = MergedMlpMpsn::from_columns(&mpsns);
    // One predicate on every other column, wildcard elsewhere.
    let preds_per_col: Vec<Vec<Vec<f32>>> = (0..100)
        .map(|c| {
            if c % 2 == 0 {
                vec![(0..11).map(|i| ((i + c) as f32 * 0.1).sin()).collect()]
            } else {
                Vec::new()
            }
        })
        .collect();

    // The per-column form stacks each predicate list one row per predicate,
    // as `DuetModel::fill_input` stages it.
    let stacked: Vec<Matrix> = preds_per_col
        .iter()
        .map(|preds| Matrix::from_vec(preds.len(), 11, preds.concat()))
        .collect();
    let mut out = vec![0.0f32; 100 * 11];

    let mut group = c.benchmark_group("mpsn_forward_100_columns");
    let mut scratch = MpsnScratch::new();
    group.bench_function("per_column_mpsns", |b| {
        b.iter(|| {
            for ((m, encs), slot) in mpsns.iter().zip(&stacked).zip(out.chunks_exact_mut(11)) {
                m.embed_into(encs, &mut scratch, slot);
            }
            black_box(out.last().copied())
        })
    });
    let mut ws = ForwardWorkspace::new();
    group.bench_function("merged_block_diagonal", |b| {
        b.iter(|| {
            merged.embed_all_into(&preds_per_col, &mut ws, &mut out);
            black_box(out.last().copied())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mpsn
}
criterion_main!(benches);
