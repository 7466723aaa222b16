//! Figure 6: scalability with the number of predicate columns. A model is
//! trained on all 100 Kddcup98-like columns; workloads constrain 2..=100
//! columns and per-query latency is reported, split into phases
//! (encoding vs inference for Duet; model forwards vs sampling for Naru/UAE).
//!
//! Run with `cargo run -p duet-bench --release --bin fig6`.

use duet_baselines::{NaruEstimator, UaeConfig, UaeEstimator};
use duet_bench::{build_workloads, BenchOptions, Dataset, RAND_SEED};
use duet_core::{DuetEstimator, DuetWorkspace};
use duet_query::WorkloadSpec;

fn main() {
    let opts = BenchOptions::from_args();
    println!("== Figure 6: scalability vs number of predicate columns (Kddcup98) ==");
    let table = Dataset::Kddcup98.table(&opts);
    let workloads = build_workloads(&table, &opts);

    println!("training Duet ...");
    let duet_cfg = Dataset::Kddcup98.duet_config(&opts);
    let duet =
        DuetEstimator::train_hybrid(&table, &workloads.train, &workloads.train_cards, &duet_cfg, 3);
    println!("training Naru ...");
    let naru_cfg = Dataset::Kddcup98.naru_config(&opts);
    let mut naru = NaruEstimator::train(&table, &naru_cfg, 3);
    println!("training UAE ...");
    let mut uae_cfg = UaeConfig::paper(naru_cfg);
    uae_cfg.train_samples = 32;
    let mut uae = UaeEstimator::train(
        &table,
        &workloads.train[..workloads.train.len().min(128)],
        &workloads.train_cards[..workloads.train.len().min(128)],
        &uae_cfg,
        3,
    );

    // Duet's forward scratch lives across queries like Naru's and UAE's own
    // (held inside those estimators), so all three columns read steady state.
    let mut duet_ws = DuetWorkspace::new();
    let mut csv = Vec::new();
    println!("{:>8} {:>16} {:>16} {:>16}", "columns", "duet (ms)", "naru (ms)", "uae (ms)");
    for &ncols in &[2usize, 4, 8, 16, 32, 64, 100] {
        let queries = WorkloadSpec::random(&table, 20, RAND_SEED + ncols as u64)
            .with_max_columns(ncols)
            .generate(&table);

        let mut duet_encode = 0.0;
        let mut duet_infer = 0.0;
        for q in &queries {
            let b = duet.estimate_with_breakdown(q, &mut duet_ws);
            duet_encode += b.encode_time.as_secs_f64() * 1e3;
            duet_infer += b.inference_time.as_secs_f64() * 1e3;
        }
        let n = queries.len() as f64;
        let (mut naru_fwd, mut naru_sample) = (0.0, 0.0);
        for q in &queries {
            let (_, f, s, _) = naru.estimate_with_breakdown(q);
            naru_fwd += f.as_secs_f64() * 1e3;
            naru_sample += s.as_secs_f64() * 1e3;
        }
        let (mut uae_fwd, mut uae_sample) = (0.0, 0.0);
        for q in &queries {
            let (_, f, s, _) = uae.estimate_with_breakdown(q);
            uae_fwd += f.as_secs_f64() * 1e3;
            uae_sample += s.as_secs_f64() * 1e3;
        }
        let duet_total = (duet_encode + duet_infer) / n;
        let naru_total = (naru_fwd + naru_sample) / n;
        let uae_total = (uae_fwd + uae_sample) / n;
        println!("{ncols:>8} {duet_total:>16.4} {naru_total:>16.4} {uae_total:>16.4}");
        csv.push(format!(
            "{ncols},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5}",
            duet_encode / n,
            duet_infer / n,
            duet_total,
            naru_fwd / n,
            naru_sample / n,
            naru_total,
            uae_fwd / n,
            uae_sample / n,
            uae_total
        ));
    }
    opts.write_csv(
        "fig6_scalability.csv",
        "columns,duet_encode_ms,duet_infer_ms,duet_total_ms,naru_forward_ms,naru_sampling_ms,naru_total_ms,uae_forward_ms,uae_sampling_ms,uae_total_ms",
        &csv,
    );
    println!(
        "\nDuet runs one forward pass whose output layer computes only the constrained columns' \
         blocks, so its cost grows with the column count up to one full-width pass; Naru/UAE \
         grow with it through one sampling pass per column."
    );
}
