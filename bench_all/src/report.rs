//! Turning windows into named metrics, printing them, and comparing two
//! result files.

use crate::json::Value;
use crate::run::WindowOut;
use crate::spec::{Better, MetricSpec, Sizing, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_of_sorted, quantile, sorted_us, tail_of_sorted, Summary};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Where in the order of a run's windows its reading is taken: this far in
/// from the good end (the low end of a time, the high end of a rate) — with
/// 32 windows, between the second and the third best.
///
/// Not the median. What disturbs a window on a shared host — a neighbour on
/// the sibling hyperthread, a descheduled virtual CPU — only ever makes it
/// slower, comes in episodes of seconds to tens of seconds, and is invisible
/// to the guest (no steal time is reported). In a bad quarter of an hour the
/// median over 32 windows moved by 10-20 % between runs of the same binary
/// and seed while almost every run still had a few windows at the
/// undisturbed level; the 5th percentile from the good end moved by a third
/// to a half of that, and by no more than the median when the host was calm.
/// A change to the program shifts every window, so it shifts this reading as
/// it shifts the median; one window that is good by a fluke does not set it.
pub const GOOD_SIDE_QUANTILE: f64 = 0.05;

/// The reading of a windowed metric: [`GOOD_SIDE_QUANTILE`] from the good
/// end of its per-window values.
pub fn good_side(per_window: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(per_window, GOOD_SIDE_QUANTILE),
        Better::Higher => quantile(per_window, 1.0 - GOOD_SIDE_QUANTILE),
    }
}

/// One end-to-end metric of one workload: its reading, and how its windows
/// were distributed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The metric's contract.
    pub spec: MetricSpec,
    /// The value reported: the good end of the windows for the windowed
    /// metrics (see [`GOOD_SIDE_QUANTILE`]), the median of the set-ups for
    /// `setup_s`, the run's own value for the q-errors.
    pub value: f64,
    /// Median and quartiles over `per_window`.
    pub summary: Summary,
    /// The value of each window (each set-up for `setup_s`; one entry for the
    /// q-errors, which are a property of the whole run).
    pub per_window: Vec<f64>,
}

/// The untraced pass of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// One reading per entry of [`END_TO_END`], in that order.
    pub readings: Vec<Reading>,
    /// Operations attempted over the timed windows.
    pub attempted: u64,
    /// Operations that failed the output check.
    pub failed: u64,
    /// Latency samples per window.
    pub samples_per_window: usize,
    /// The percentile `latency_p99_us` actually reports (99 when a window has
    /// at least 1 000 samples).
    pub tail_percentile: f64,
}

/// Throughput of one window: completed operations per second.
pub fn window_throughput(w: &WindowOut) -> f64 {
    (w.ops - w.failed) as f64 / w.wall_s
}

/// Per-window medians of the latency samples, µs.
pub fn window_p50_us(w: &WindowOut) -> f64 {
    percentile_of_sorted(&sorted_us(&w.latencies_ns), 50.0)
}

/// Compute every end-to-end metric from the set-up times, the timed windows
/// and the q-errors of what was served.
pub fn end_to_end(
    setup_s: &[f64],
    windows: &[WindowOut],
    qerrors: &[f64],
    extra_failed: u64,
) -> EndToEnd {
    let mut throughput = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu = Vec::new();
    let mut tail_percentile = 99.0f64;
    for w in windows {
        let sorted = sorted_us(&w.latencies_ns);
        let tail = tail_of_sorted(&sorted);
        throughput.push(window_throughput(w));
        p50.push(percentile_of_sorted(&sorted, 50.0));
        p99.push(tail.value);
        tail_percentile = tail_percentile.min(tail.percentile);
        cpu.push(w.cpu_s * 1e6 / w.ops.max(1) as f64);
    }
    let mut sorted_q = qerrors.to_vec();
    sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    let per_window: HashMap<&str, Vec<f64>> = HashMap::from([
        ("setup_s", setup_s.to_vec()),
        ("throughput_ops_s", throughput),
        ("latency_p50_us", p50),
        ("latency_p99_us", p99),
        ("cpu_us_per_op", cpu),
        ("qerror_p50", vec![percentile_of_sorted(&sorted_q, 50.0)]),
        ("qerror_p95", vec![percentile_of_sorted(&sorted_q, 95.0)]),
    ]);
    let readings = END_TO_END
        .iter()
        .map(|&spec| {
            let per_window = per_window[spec.name].clone();
            let value = match spec.name {
                "setup_s" | "qerror_p50" | "qerror_p95" => median(&per_window),
                _ => good_side(&per_window, spec.better),
            };
            Reading { spec, value, summary: Summary::of(&per_window), per_window }
        })
        .collect();
    EndToEnd {
        readings,
        attempted: windows.iter().map(|w| w.ops).sum(),
        failed: windows.iter().map(|w| w.failed).sum::<u64>() + extra_failed,
        samples_per_window: windows.first().map_or(0, |w| w.latencies_ns.len()),
        tail_percentile,
    }
}

/// The traced pass of one workload: every per-layer metric, in
/// [`PER_LAYER`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// `(contract, value)` per metric.
    pub values: Vec<(MetricSpec, f64)>,
    /// Operations attempted over the traced run's windows.
    pub attempted: u64,
    /// Operations (and replayed rows) that failed the output check.
    pub failed: u64,
}

impl PerLayer {
    /// Order `values` by the contract; a metric the traced pass did not
    /// produce is a bug in the benchmark, not a zero.
    pub fn from_values(values: &HashMap<&'static str, f64>, attempted: u64, failed: u64) -> Self {
        let values = PER_LAYER
            .iter()
            .map(|&spec| {
                let value = values
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("traced pass produced no {}", spec.name));
                (spec, *value)
            })
            .collect();
        Self { values, attempted, failed }
    }
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// Its fixed counts.
    pub sizing: Sizing,
    /// The untraced pass, when it ran.
    pub end_to_end: Option<EndToEnd>,
    /// The traced pass, when it ran.
    pub per_layer: Option<PerLayer>,
}

/// The line the contract asks for: `correct`, `attempted`, `failed`, and the
/// metrics of the pass that ran, each with its unit and every digit measured.
pub fn contract_line(result: &WorkloadResult) -> Value {
    let (attempted, failed, metrics): (u64, u64, Vec<(&str, Value)>) =
        match (&result.end_to_end, &result.per_layer) {
            (Some(e), _) => (
                e.attempted,
                e.failed,
                e.readings.iter().map(|r| (r.spec.name, metric(r.value, r.spec.unit))).collect(),
            ),
            (None, Some(p)) => (
                p.attempted,
                p.failed,
                p.values.iter().map(|(spec, v)| (spec.name, metric(*v, spec.unit))).collect(),
            ),
            (None, None) => panic!("a result without a pass"),
        };
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::Str(unit.to_string()))])
}

/// The full result of a run as JSON (what `--out` writes and `compare`
/// reads).
pub fn result_json(seed: u64, quick: bool, results: &[WorkloadResult]) -> Value {
    let workloads = results.iter().map(|r| {
        let mut fields = vec![
            ("ops_per_window", Value::Num(r.sizing.ops_per_window() as f64)),
            ("units_per_thread", Value::Num(r.sizing.units_per_thread as f64)),
            ("unit", Value::Str(r.workload.unit_name().to_string())),
        ];
        if let Some(e) = &r.end_to_end {
            fields.push(("attempted", Value::Num(e.attempted as f64)));
            fields.push(("failed", Value::Num(e.failed as f64)));
            fields.push(("samples_per_window", Value::Num(e.samples_per_window as f64)));
            fields.push(("tail_percentile", Value::Num(e.tail_percentile)));
            let readings = e.readings.iter().map(|r| {
                (
                    r.spec.name,
                    Value::obj([
                        ("unit", Value::Str(r.spec.unit.to_string())),
                        ("better", Value::Str(r.spec.better.as_str().to_string())),
                        ("bound", Value::Num(r.spec.bound.unwrap_or(0.0))),
                        ("value", Value::Num(r.value)),
                        ("median", Value::Num(r.summary.median)),
                        ("q1", Value::Num(r.summary.q1)),
                        ("q3", Value::Num(r.summary.q3)),
                        ("spread", Value::Num(r.summary.spread())),
                        (
                            "per_window",
                            Value::Arr(r.per_window.iter().map(|&v| Value::Num(v)).collect()),
                        ),
                    ]),
                )
            });
            fields.push(("end_to_end", Value::obj(readings)));
        }
        if let Some(p) = &r.per_layer {
            let values = p.values.iter().map(|(spec, v)| (spec.name, metric(*v, spec.unit)));
            fields.push(("per_layer", Value::obj(values)));
        }
        (r.workload.name(), Value::obj(fields))
    });
    Value::obj([
        ("benchmark", Value::Str("bench_all".to_string())),
        ("seed", Value::Num(seed as f64)),
        // A --quick run exercises the code paths; its numbers are not sized
        // to be compared and must not be claimed against.
        ("claimable", Value::Bool(!quick)),
        ("cores", Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("workloads", Value::obj(workloads)),
    ])
}

/// Human-readable report of one workload: every metric by name with its
/// unit; end-to-end ones with `(q3 - q1) / median` and the sample count.
pub fn render(result: &WorkloadResult) -> String {
    let mut out = String::new();
    let s = &result.sizing;
    let _ = writeln!(
        out,
        "== {} — {} {}s x {} thread(s) per window = {} ops",
        result.workload.name(),
        s.units_per_thread,
        result.workload.unit_name(),
        s.threads,
        s.ops_per_window()
    );
    if let Some(e) = &result.end_to_end {
        let _ = writeln!(
            out,
            "   attempted {} failed {} ({} latency samples per window; tail = p{:.1})",
            e.attempted, e.failed, e.samples_per_window, e.tail_percentile
        );
        for r in &e.readings {
            let _ = writeln!(
                out,
                "   {:<22} {:>14.4} {:<6} windows: median {:>14.4} spread {:>6.2}%  bound {:>4.0}%  n={}",
                r.spec.name,
                r.value,
                r.spec.unit,
                r.summary.median,
                100.0 * r.summary.spread(),
                100.0 * r.spec.bound.unwrap_or(0.0),
                r.per_window.len()
            );
        }
    }
    if let Some(p) = &result.per_layer {
        let _ = writeln!(
            out,
            "   -- per layer (traced pass; attempted {} failed {})",
            p.attempted, p.failed
        );
        for (spec, value) in &p.values {
            let _ = writeln!(out, "   {:<28} {:>16.4} {}", spec.name, value, spec.unit);
        }
    }
    out
}

/// How one metric of one workload moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse by more than the bound, and the runs are steady enough to
    /// say so.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The spread within a run is wider than the bound and the runs overlap:
    /// neither unchanged nor regressed can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's reading and its windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The reading (see [`Reading::value`]).
    pub value: f64,
    /// Median and quartiles over the windows.
    pub summary: Summary,
    /// The windows.
    pub windows: Vec<f64>,
}

/// Judge `b` against `a` (the base): worse when its reading is worse by more
/// than `bound`; unresolved when either run's spread exceeds the bound,
/// unless every window of `b` reads better than every window of `a`.
pub fn judge(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let (a_windows, b_windows) = (&a.windows[..], &b.windows[..]);
    let (a, b) = (&a.summary, &b.summary);
    if worse_by > bound {
        return Verdict::Worse;
    }
    if a.spread().max(b.spread()) <= bound {
        return Verdict::Ok;
    }
    let fold = |xs: &[f64], f: fn(f64, f64) -> f64, init: f64| xs.iter().copied().fold(init, f);
    let b_all_better = match better {
        Better::Lower => fold(b_windows, f64::max, f64::MIN) < fold(a_windows, f64::min, f64::MAX),
        Better::Higher => fold(b_windows, f64::min, f64::MAX) > fold(a_windows, f64::max, f64::MIN),
    };
    if b_all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn side_of(entry: &Value) -> Option<Side> {
    let num = |key: &str| entry.get(key).and_then(Value::as_f64);
    let windows = entry.get("per_window")?.as_array()?.iter().filter_map(Value::as_f64).collect();
    let summary = Summary { median: num("median")?, q1: num("q1")?, q3: num("q3")? };
    Some(Side { value: num("value")?, summary, windows })
}

/// Compare two result files: one row per workload x end-to-end metric with
/// both readings and the quartiles of their windows, the ratio (base = the first file), the bound
/// and the verdict; time-like metrics are also shown divided by each file's
/// own `canary.naive_matmul_us`, so runs from different days or machines can
/// be read side by side. Returns the table and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut any_worse = false;
    for (label, doc) in [("a (base)", a), ("b", b)] {
        if doc.get("claimable") != Some(&Value::Bool(true)) {
            let _ = writeln!(out, "note: {label} is a --quick run; its numbers are not claimable");
        }
    }
    let _ = writeln!(
        out,
        "{:<13} {:<17} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6} {:<10} {:>10} {:>10}",
        "workload",
        "metric",
        "a",
        "a windows [q1, q3]",
        "b",
        "b windows [q1, q3]",
        "b/a",
        "bound",
        "verdict",
        "a/canary",
        "b/canary"
    );
    let workloads_a = a.get("workloads").and_then(Value::as_object).ok_or("a has no workloads")?;
    for (name, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else { continue };
        let canary =
            |w: &Value| w.get("per_layer")?.get("canary.naive_matmul_us")?.get("value")?.as_f64();
        for spec in &END_TO_END {
            let entry = |w: &Value| w.get("end_to_end")?.get(spec.name).and_then(side_of);
            let (Some(sa), Some(sb)) = (entry(wa), entry(wb)) else { continue };
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = judge(spec.better, bound, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            // Throughput is time-like too: ops per canary-time.
            let normalised = |value: f64, canary: Option<f64>| match (spec.unit, canary) {
                ("us" | "s", Some(c)) => format!("{:.4}", value / c),
                ("op/s", Some(c)) => format!("{:.4}", value * c),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<13} {:<17} {:>12.4} {:>25} {:>12.4} {:>25} {:>8.4} {:>5.0}% {:<10} {:>10} {:>10}",
                name,
                spec.name,
                sa.value,
                format!("[{:.4}, {:.4}]", sa.summary.q1, sa.summary.q3),
                sb.value,
                format!("[{:.4}, {:.4}]", sb.summary.q1, sb.summary.q3),
                sb.value / sa.value,
                100.0 * bound,
                verdict.as_str(),
                normalised(sa.value, canary(wa)),
                normalised(sb.value, canary(wb)),
            );
        }
        let failed = |w: &Value| w.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            let _ = writeln!(
                out,
                "{name:<13} failed ops rose from {} to {}: worse",
                failed(wa),
                failed(wb)
            );
            any_worse = true;
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ops: u64, wall_s: f64, cpu_s: f64, latencies_us: std::ops::Range<u64>) -> WindowOut {
        WindowOut {
            wall_s,
            cpu_s,
            ops,
            failed: 0,
            latencies_ns: latencies_us.map(|us| us * 1_000).collect(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_reports_the_good_side_of_the_windows() {
        let windows = vec![
            window(2_000, 1.0, 1.5, 1..2_001),
            window(2_000, 2.0, 3.0, 1..2_001),
            window(2_000, 4.0, 6.0, 1..2_001),
        ];
        let qerrors: Vec<f64> = (1..=100).map(f64::from).collect();
        let e = end_to_end(&[0.5, 0.7, 0.6], &windows, &qerrors, 0);
        let reading = |name: &str| e.readings.iter().find(|r| r.spec.name == name).expect("listed");
        let median = |name: &str| reading(name).summary.median;
        assert_eq!(median("throughput_ops_s"), 1_000.0);
        assert_eq!(median("latency_p50_us"), 1_000.0);
        assert_eq!(median("latency_p99_us"), 1_980.0);
        assert_eq!(median("cpu_us_per_op"), 1_500.0);
        // The reading sits a twentieth of the way in from the good end:
        // windows of 2 000, 1 000 and 500 op/s; 750, 1 500 and 3 000 us of
        // CPU per op.
        let get = |name: &str| reading(name).value;
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        assert!(near(get("throughput_ops_s"), 2_000.0 - 0.1 * 1_000.0));
        assert!(near(get("cpu_us_per_op"), 750.0 + 0.1 * 750.0));
        assert_eq!(get("latency_p50_us"), 1_000.0);
        assert!(near(good_side(&[1.0, 2.0, 3.0, 4.0, 5.0], Better::Lower), 1.2));
        assert!(near(good_side(&[1.0, 2.0, 3.0, 4.0, 5.0], Better::Higher), 4.8));
        // Set-up is the median of the set-ups; a q-error is the run's own.
        assert_eq!(get("setup_s"), 0.6);
        assert_eq!((get("qerror_p50"), get("qerror_p95")), (50.0, 95.0));
        assert_eq!((e.attempted, e.failed, e.samples_per_window), (6_000, 0, 2_000));
        assert_eq!(e.tail_percentile, 99.0);
        assert_eq!(e.readings.len(), END_TO_END.len());
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let side = |m: f64, off: f64| Side {
            value: m,
            summary: Summary { median: m, q1: m * (1.0 - off), q3: m * (1.0 + off) },
            windows: vec![m * (1.0 - off), m, m * (1.0 + off)],
        };
        let steady = |m: f64| side(m, 0.01);
        let noisy = |m: f64| side(m, 0.2);
        let run = |better, a: Side, b: Side| judge(better, 0.10, &a, &b);
        assert_eq!(run(Better::Lower, steady(100.0), steady(105.0)), Verdict::Ok);
        assert_eq!(run(Better::Lower, steady(100.0), steady(115.0)), Verdict::Worse);
        assert_eq!(run(Better::Higher, steady(100.0), steady(85.0)), Verdict::Worse);
        assert_eq!(run(Better::Higher, steady(100.0), steady(115.0)), Verdict::Ok);
        assert_eq!(run(Better::Lower, noisy(100.0), noisy(102.0)), Verdict::Unresolved);
        // Noisy, but every window of b beats every window of a.
        assert_eq!(run(Better::Lower, noisy(100.0), noisy(50.0)), Verdict::Ok);
        assert_eq!(run(Better::Lower, noisy(100.0), noisy(130.0)), Verdict::Worse);
    }

    #[test]
    fn compare_reads_back_what_result_json_writes() {
        let windows = vec![window(2_000, 1.0, 1.5, 1..2_001), window(2_000, 1.0, 1.5, 1..2_001)];
        let e = end_to_end(&[0.5], &windows, &[1.0, 2.0], 0);
        let mut layer: HashMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.name, 1.0)).collect();
        layer.insert("canary.naive_matmul_us", 250.0);
        let result = |e: EndToEnd| WorkloadResult {
            workload: Workload::WirePoint,
            sizing: Workload::WirePoint.sizing(false),
            end_to_end: Some(e),
            per_layer: Some(PerLayer::from_values(&layer, 10, 0)),
        };
        let a = result_json(1, false, &[result(e.clone())]);
        let mut slower = e;
        for r in &mut slower.readings {
            if r.spec.name == "latency_p50_us" {
                r.value = 2_000.0;
                r.summary = Summary { median: 2_000.0, q1: 2_000.0, q3: 2_000.0 };
                r.per_window = vec![2_000.0, 2_000.0];
            }
        }
        let b = result_json(1, true, &[result(slower)]);
        let a = Value::parse(&a.to_string()).expect("round trip");
        let b = Value::parse(&b.to_string()).expect("round trip");
        let (same, worse) = compare(&a, &a).expect("comparable");
        assert!(!worse && !same.contains("worse") && same.contains("wire_point"));
        let (table, worse) = compare(&a, &b).expect("comparable");
        assert!(worse);
        let row = table.lines().find(|l| l.contains("latency_p50_us")).expect("row");
        assert!(row.contains("worse") && row.contains("2.0000"), "{row}");
        assert!(row.contains("4.0000") && row.contains("8.0000"), "canary-normalised: {row}");
        assert!(table.contains("--quick"), "a quick run is flagged: {table}");
        let line = contract_line(&result(end_to_end(&[0.5], &windows, &[1.0], 0)));
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            line.get("metrics").and_then(Value::as_object).map(<[_]>::len),
            Some(END_TO_END.len())
        );
    }
}
