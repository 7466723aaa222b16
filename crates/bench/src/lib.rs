//! # duet-bench
//!
//! Shared harness code for the experiment binaries under `src/bin/`, each of
//! which regenerates one table or figure of the paper's evaluation section
//! and writes it as CSV. The binaries are named after what they reproduce
//! (`table1`–`table3`, `fig3`–`fig8_9`); the README's "Experiments" section
//! lists them.
//!
//! All binaries accept the same flags, each followed by one value; an
//! unknown flag or a value that does not parse stops the run with status 2:
//!
//! * `--scale <f>` — multiply each dataset's CI-sized row count
//!   ([`Dataset::default_rows`]) by `f`, with a floor of 500 rows
//!   (`--scale 1` ≈ minutes on a laptop CPU; the paper's full row counts are
//!   reached around `--scale 100` for DMV).
//! * `--epochs <n>` — override the number of training epochs.
//! * `--queries <n>` — number of test queries per workload (paper: 2,000).
//! * `--train-queries <n>` — number of training-workload queries (paper: 1e5).
//! * `--out <dir>` — directory for the CSV output (default `results/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use duet_baselines::{
    DeepDbConfig, DeepDbEstimator, IndependenceEstimator, MHist, MscnConfig, MscnEstimator,
    NaruConfig, NaruEstimator, SamplingEstimator, UaeConfig, UaeEstimator,
};
use duet_core::{DuetConfig, DuetEstimator};
use duet_data::datasets;
use duet_data::Table;
use duet_query::{label_workload, CardinalityEstimator, QErrorSummary, Query, WorkloadSpec};
use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

/// Seed of the training workload generator (paper §V-A2).
pub const TRAIN_SEED: u64 = 42;
/// Seed of the in-workload test queries: drawn from the training spec (same
/// bounded column, allowed literals and predicate counts) on a stream of
/// their own, so In-Q never replays the training queries.
pub const IN_Q_SEED: u64 = 4242;
/// Seed of the random test workload (paper §V-A2).
pub const RAND_SEED: u64 = 1234;

/// Common command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Row-count multiplier on top of the CI-sized defaults.
    pub scale: f64,
    /// Training epochs for the learned estimators.
    pub epochs: usize,
    /// Number of test queries per workload.
    pub test_queries: usize,
    /// Number of training-workload queries.
    pub train_queries: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            epochs: 5,
            test_queries: 200,
            train_queries: 1_000,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// The flag list of the module docs, printed after a parse error.
const USAGE: &str =
    "flags: --scale <f>  --epochs <n>  --queries <n>  --train-queries <n>  --out <dir>";

impl BenchOptions {
    /// Parse the common flags from `std::env::args`. On an unknown flag, a
    /// missing value or a value that does not parse, print the error and the
    /// flag list and exit with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse the common flags (without the program name) over the defaults.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
        where
            T::Err: Display,
        {
            value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
        }
        let mut opts = Self::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => opts.scale = number(flag, value()?)?,
                "--epochs" => opts.epochs = number(flag, value()?)?,
                "--queries" => opts.test_queries = number(flag, value()?)?,
                "--train-queries" => opts.train_queries = number(flag, value()?)?,
                "--out" => opts.out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(opts)
    }

    /// Scaled row count for a dataset's CI-sized default.
    pub fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(500)
    }

    /// Write a CSV file into the output directory and echo its path.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("could not create {:?}: {e}", self.out_dir);
            return;
        }
        let path = self.out_dir.join(name);
        match fs::File::create(&path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{header}");
                for r in rows {
                    let _ = writeln!(f, "{r}");
                }
                println!("wrote {}", path.display());
            }
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// The three evaluation datasets at CI-friendly default sizes
/// (scaled by [`BenchOptions::scale`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// DMV-like: 11 columns, high cardinality.
    Dmv,
    /// Kddcup98-like: 100 columns.
    Kddcup98,
    /// Census-like: 14 columns, small.
    Census,
}

impl Dataset {
    /// All datasets in the paper's order.
    pub const ALL: [Dataset; 3] = [Dataset::Dmv, Dataset::Kddcup98, Dataset::Census];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Dmv => "dmv",
            Dataset::Kddcup98 => "kddcup98",
            Dataset::Census => "census",
        }
    }

    /// CI-sized default row count (the paper's full sizes are in
    /// [`datasets::DMV_PAPER_ROWS`] etc.).
    pub fn default_rows(&self) -> usize {
        match self {
            Dataset::Dmv => 20_000,
            Dataset::Kddcup98 => 5_000,
            Dataset::Census => 8_000,
        }
    }

    /// Generate the table at the requested scale.
    pub fn table(&self, opts: &BenchOptions) -> Table {
        let rows = opts.rows(self.default_rows());
        match self {
            Dataset::Dmv => datasets::dmv_like(rows, 7),
            Dataset::Kddcup98 => datasets::kddcup98_like(rows, 7),
            Dataset::Census => datasets::census_like(rows, 7),
        }
    }

    /// The Duet configuration the paper uses for this dataset, with the
    /// harness's epoch override applied.
    pub fn duet_config(&self, opts: &BenchOptions) -> DuetConfig {
        let mut cfg = match self {
            Dataset::Dmv => {
                let mut c = DuetConfig::paper_dmv();
                // CI-sized backbone; pass --scale/--epochs for larger runs.
                c.hidden_sizes = vec![128, 128];
                c.batch_size = 512;
                c
            }
            _ => DuetConfig::paper_resmade(),
        };
        cfg.epochs = opts.epochs;
        cfg
    }

    /// The Naru/UAE configuration for this dataset.
    pub fn naru_config(&self, opts: &BenchOptions) -> NaruConfig {
        let mut cfg = match self {
            Dataset::Dmv => {
                let mut c = NaruConfig::paper_dmv();
                c.hidden_sizes = vec![128, 128];
                c.batch_size = 512;
                c
            }
            _ => NaruConfig::paper_resmade(),
        };
        cfg.epochs = opts.epochs;
        cfg.num_samples = 200;
        cfg
    }
}

/// The training and test workloads of §V-A2 for one dataset.
#[derive(Debug, Clone)]
pub struct Workloads {
    /// Training workload (bounded column, Gamma predicate counts,
    /// [`TRAIN_SEED`]).
    pub train: Vec<Query>,
    /// Training-workload cardinality labels.
    pub train_cards: Vec<u64>,
    /// In-workload test queries (the training spec, [`IN_Q_SEED`]).
    pub in_q: Vec<Query>,
    /// In-workload ground truth.
    pub in_q_cards: Vec<u64>,
    /// Random test queries (uniform, [`RAND_SEED`]).
    pub rand_q: Vec<Query>,
    /// Random-workload ground truth.
    pub rand_q_cards: Vec<u64>,
}

/// Generate and label the workloads for a table.
pub fn build_workloads(table: &Table, opts: &BenchOptions) -> Workloads {
    let spec = WorkloadSpec::in_workload(table, opts.train_queries, TRAIN_SEED);
    let train = spec.generate(table);
    let in_q =
        WorkloadSpec { num_queries: opts.test_queries, seed: IN_Q_SEED, ..spec }.generate(table);
    let rand_q = WorkloadSpec::random(table, opts.test_queries, RAND_SEED).generate(table);
    let train_cards = label_workload(table, &train);
    let in_q_cards = label_workload(table, &in_q);
    let rand_q_cards = label_workload(table, &rand_q);
    Workloads { train, train_cards, in_q, in_q_cards, rand_q, rand_q_cards }
}

/// Result of evaluating one estimator on one workload.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Estimator name.
    pub estimator: String,
    /// Q-Error summary.
    pub summary: QErrorSummary,
    /// Mean per-query latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Estimator size in MB.
    pub size_mb: f64,
}

/// Evaluate an estimator on a labelled workload, measuring latency.
pub fn evaluate(
    estimator: &mut dyn CardinalityEstimator,
    queries: &[Query],
    cards: &[u64],
) -> EvalResult {
    let started = Instant::now();
    let estimates: Vec<f64> = queries.iter().map(|q| estimator.estimate(q)).collect();
    let elapsed = started.elapsed();
    EvalResult {
        estimator: estimator.name().to_string(),
        summary: QErrorSummary::from_estimates(&estimates, cards),
        mean_latency_ms: elapsed.as_secs_f64() * 1e3 / queries.len().max(1) as f64,
        size_mb: estimator.size_bytes() as f64 / (1024.0 * 1024.0),
    }
}

/// Build every estimator of Table II for a dataset. Returns `(name, estimator)`
/// pairs; the learned estimators are trained inside this call.
pub fn build_all_estimators(
    dataset: Dataset,
    table: &Table,
    workloads: &Workloads,
    opts: &BenchOptions,
) -> Vec<Box<dyn CardinalityEstimator>> {
    let mut out: Vec<Box<dyn CardinalityEstimator>> = Vec::new();
    println!("[{}] building traditional estimators", dataset.name());
    out.push(Box::new(SamplingEstimator::new(
        table,
        0.01_f64.max(500.0 / table.num_rows() as f64).min(1.0),
        3,
    )));
    out.push(Box::new(IndependenceEstimator::new(table)));
    out.push(Box::new(MHist::new(table, 512)));

    println!("[{}] training MSCN", dataset.name());
    let mut mscn_cfg = MscnConfig::small();
    mscn_cfg.epochs = (opts.epochs * 10).max(20);
    out.push(Box::new(MscnEstimator::train(
        table,
        &workloads.train,
        &workloads.train_cards,
        &mscn_cfg,
        3,
    )));

    println!("[{}] building DeepDB", dataset.name());
    out.push(Box::new(DeepDbEstimator::build(table, &DeepDbConfig::default_config())));

    println!("[{}] training Naru", dataset.name());
    let naru_cfg = dataset.naru_config(opts);
    out.push(Box::new(NaruEstimator::train(table, &naru_cfg, 3)));

    println!("[{}] training UAE", dataset.name());
    let mut uae_cfg = UaeConfig::paper(naru_cfg.clone());
    uae_cfg.train_samples = 64;
    uae_cfg.query_batch_size = 32;
    out.push(Box::new(UaeEstimator::train(
        table,
        &workloads.train,
        &workloads.train_cards,
        &uae_cfg,
        3,
    )));

    println!("[{}] training DuetD (data only)", dataset.name());
    let duet_cfg = dataset.duet_config(opts);
    out.push(Box::new(DuetEstimator::train_data_only(table, &duet_cfg, 3)));

    println!("[{}] training Duet (hybrid)", dataset.name());
    out.push(Box::new(DuetEstimator::train_hybrid(
        table,
        &workloads.train,
        &workloads.train_cards,
        &duet_cfg,
        3,
    )));
    out
}

/// Format one Table II-style CSV row.
pub fn result_csv_row(dataset: &str, workload: &str, r: &EvalResult) -> String {
    format!(
        "{dataset},{workload},{},{:.3},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3}",
        r.estimator,
        r.size_mb,
        r.mean_latency_ms,
        r.summary.mean,
        r.summary.median,
        r.summary.p75,
        r.summary.p99,
        r.summary.max
    )
}

/// Header matching [`result_csv_row`].
pub const RESULT_CSV_HEADER: &str =
    "dataset,workload,estimator,size_mb,latency_ms,mean,median,p75,p99,max";

/// Pretty-print an evaluation row to stdout.
pub fn print_result(dataset: &str, workload: &str, r: &EvalResult) {
    println!(
        "{dataset:>9} {workload:>7} {:>10}  size={:>8.3}MB  lat={:>8.4}ms  {}",
        r.estimator,
        r.size_mb,
        r.mean_latency_ms,
        r.summary.to_row()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_data::datasets::census_like;

    #[test]
    fn options_scale_rows() {
        let mut opts = BenchOptions { scale: 2.0, ..BenchOptions::default() };
        assert_eq!(opts.rows(1_000), 2_000);
        opts.scale = 0.001;
        assert_eq!(opts.rows(1_000), 500, "row counts are floored at 500");
    }

    #[test]
    fn dataset_tables_have_expected_shapes() {
        let opts = BenchOptions { scale: 0.1, ..BenchOptions::default() };
        assert_eq!(Dataset::Dmv.table(&opts).num_columns(), 11);
        assert_eq!(Dataset::Kddcup98.table(&opts).num_columns(), 100);
        assert_eq!(Dataset::Census.table(&opts).num_columns(), 14);
    }

    #[test]
    fn workloads_are_labelled_and_sized() {
        let opts = BenchOptions {
            scale: 0.1,
            test_queries: 20,
            train_queries: 30,
            ..BenchOptions::default()
        };
        let table = Dataset::Census.table(&opts);
        let w = build_workloads(&table, &opts);
        assert_eq!(w.train.len(), 30);
        assert_eq!(w.rand_q.len(), 20);
        assert_eq!(w.train.len(), w.train_cards.len());
        assert_eq!(w.in_q.len(), w.in_q_cards.len());
    }

    /// In-Q comes from the training distribution but not from the training
    /// queries themselves: it is not a prefix of `train`, and its literals on
    /// the bounded column are still drawn from the training spec's allowed set.
    #[test]
    fn in_workload_queries_are_not_training_queries() {
        let opts = BenchOptions { test_queries: 50, train_queries: 200, ..BenchOptions::default() };
        let table = census_like(2_000, 7);
        let w = build_workloads(&table, &opts);
        assert_eq!(w.in_q.len(), 50);
        assert_ne!(w.in_q[..], w.train[..w.in_q.len()], "In-Q replays the training queries");

        let bounded = WorkloadSpec::in_workload(&table, 1, TRAIN_SEED).bounded_column.unwrap();
        let column = table.column(bounded.column);
        let mut checked = 0;
        for p in w.in_q.iter().flat_map(|q| &q.predicates).filter(|p| p.column == bounded.column) {
            let id = column.id_of_value(&p.value).expect("literal in the dictionary");
            assert!(bounded.allowed_ids.contains(&id), "In-Q literal id {id} is not allowed");
            checked += 1;
        }
        assert!(checked > 0, "no In-Q query constrains the bounded column");
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_takes_the_fig6_smoke_flags() {
        let opts = BenchOptions::parse(&args(
            "--scale 0.1 --epochs 1 --queries 20 --train-queries 100 --out target/fig6-smoke",
        ))
        .unwrap();
        assert_eq!(opts.scale, 0.1);
        assert_eq!(opts.epochs, 1);
        assert_eq!(opts.test_queries, 20);
        assert_eq!(opts.train_queries, 100);
        assert_eq!(opts.out_dir, PathBuf::from("target/fig6-smoke"));
        assert_eq!(BenchOptions::parse(&[]).unwrap().epochs, BenchOptions::default().epochs);
    }

    #[test]
    fn parse_rejects_an_unknown_flag() {
        let err = BenchOptions::parse(&args("--epoch 1")).unwrap_err();
        assert!(err.contains("unknown flag --epoch"), "{err}");
    }

    #[test]
    fn parse_rejects_a_malformed_value() {
        let err = BenchOptions::parse(&args("--scale abc")).unwrap_err();
        assert!(err.contains("--scale \"abc\""), "{err}");
        assert!(BenchOptions::parse(&args("--epochs -1")).is_err());
    }

    #[test]
    fn parse_rejects_a_missing_value() {
        let err = BenchOptions::parse(&args("--epochs 2 --queries")).unwrap_err();
        assert_eq!(err, "--queries needs a value");
    }

    #[test]
    fn evaluate_reports_latency_and_errors() {
        let opts = BenchOptions { scale: 0.1, test_queries: 10, ..BenchOptions::default() };
        let table = Dataset::Census.table(&opts);
        let w = build_workloads(&table, &opts);
        let mut indep = IndependenceEstimator::new(&table);
        let r = evaluate(&mut indep, &w.rand_q, &w.rand_q_cards);
        assert_eq!(r.estimator, "indep");
        assert!(r.summary.max >= 1.0);
        assert!(r.mean_latency_ms >= 0.0);
        let row = result_csv_row("census", "rand", &r);
        assert!(row.starts_with("census,rand,indep,"));
    }
}
