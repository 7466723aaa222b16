//! `--quick` smoke: all five workloads, both passes, output check on — so the
//! benchmark cannot rot unnoticed. Numbers from a quick run are not sized to
//! be compared; only their presence and the output check are asserted.

use duet_bench_all::json::Value;
use duet_bench_all::spec::{Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn bench_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_all")).args(args).output().expect("bench_all starts")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

struct QuickRun {
    result: Value,
    result_path: PathBuf,
    trace: Value,
    stdout: String,
    elapsed: Duration,
}

/// One full `--quick` invocation shared by the tests below.
fn quick_run() -> &'static QuickRun {
    static RUN: OnceLock<QuickRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let (result_path, trace_path) = (tmp("quick.json"), tmp("quick.trace.json"));
        let started = Instant::now();
        let out = bench_all(&[
            "--seed",
            "7",
            "--quick",
            "--out",
            result_path.to_str().expect("utf-8 path"),
            "--trace-out",
            trace_path.to_str().expect("utf-8 path"),
        ]);
        let elapsed = started.elapsed();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "quick run failed its output check or crashed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let read = |path: &PathBuf| {
            Value::parse(&std::fs::read_to_string(path).expect("file written")).expect("valid JSON")
        };
        QuickRun {
            result: read(&result_path),
            result_path,
            trace: read(&trace_path),
            stdout,
            elapsed,
        }
    })
}

#[test]
fn quick_run_reports_every_metric_of_every_workload() {
    let run = quick_run();
    assert_eq!(run.result.get("claimable"), Some(&Value::Bool(false)), "--quick is not claimable");
    assert_eq!(run.result.get("seed").and_then(Value::as_f64), Some(7.0));
    for workload in Workload::ALL {
        let w = run
            .result
            .get("workloads")
            .and_then(|all| all.get(workload.name()))
            .unwrap_or_else(|| panic!("{} missing", workload.name()));
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{}", workload.name());
        assert!(w.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
        for spec in &END_TO_END {
            let reading = |field: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(spec.name))
                    .and_then(|m| m.get(field))
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("{}: no {} {field}", workload.name(), spec.name))
            };
            let (value, median) = (reading("value"), reading("median"));
            assert!(
                value.is_finite() && value > 0.0 && median.is_finite() && median > 0.0,
                "{} {} = {value} (windows' median {median})",
                workload.name(),
                spec.name
            );
            assert!(run.stdout.contains(spec.name), "{} is printed by name", spec.name);
        }
        for spec in &PER_LAYER {
            let value = w
                .get("per_layer")
                .and_then(|p| p.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{}: no {}", workload.name(), spec.name));
            assert!(value.is_finite(), "{} {} = {value}", workload.name(), spec.name);
        }
        let layer = |name: &str| {
            w.get("per_layer")
                .and_then(|p| p.get(name)?.get("value")?.as_f64())
                .expect("checked above")
        };
        assert_eq!(layer("failed_share"), 0.0);
        assert!(layer("trace.spans") > 0.0);
        assert!(layer("nn.flops_per_row") > 0.0 && layer("canary.naive_matmul_us") > 0.0);
    }
    // The smoke is meant to stay a smoke (well under 15 s in release; this
    // build is the slower test profile, on a possibly busy machine).
    assert!(run.elapsed < Duration::from_secs(90), "quick run took {:?}", run.elapsed);
}

#[test]
fn trace_file_holds_nested_spans_with_self_times() {
    let spans = quick_run().trace.as_array().expect("an array of spans");
    assert!(spans.len() > 1_000, "only {} spans", spans.len());
    let field = |s: &Value, key: &str| s.get(key).and_then(Value::as_f64).expect("numeric field");
    let mut with_parent = 0;
    for s in spans {
        assert!(field(s, "end_ns") >= field(s, "start_ns"));
        assert!(field(s, "self_ns") <= field(s, "end_ns") - field(s, "start_ns"));
        with_parent += usize::from(field(s, "parent") > 0.0);
    }
    assert!(with_parent > 0, "client bursts and replay chunks have children");
    for name in ["wire.recv", "server.estimate", "server.hot_swap", "train.step", "nn.infer"] {
        assert!(
            spans.iter().any(|s| s.get("name").and_then(Value::as_str) == Some(name)),
            "no {name} span"
        );
    }
}

#[test]
fn compare_of_a_run_with_itself_is_all_ok() {
    let path = quick_run().result_path.to_str().expect("utf-8 path");
    let out = bench_all(&["compare", path, path]);
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    assert!(table.contains("ok") && !table.contains("worse"), "{table}");
    assert!(table.contains("not claimable"), "{table}");
    assert_eq!(table.lines().filter(|l| l.contains("latency_p50_us")).count(), Workload::ALL.len());
}

/// The driven form: one pass, closing JSON line; counts and q-errors repeat
/// exactly for a seed, and another seed still passes the output check.
#[test]
fn driven_form_repeats_counts_and_qerrors_for_a_seed() {
    let closing_line = |seed: &str, trace: &str| {
        let out = bench_all(&[
            "--workload",
            "zipf_swap",
            "--seed",
            seed,
            "--seconds",
            "2",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        Value::parse(stdout.lines().last().expect("a closing line")).expect("closing line is JSON")
    };
    let (a, b, other) = (closing_line("3", "0"), closing_line("3", "0"), closing_line("4", "0"));
    let metric = |line: &Value, name: &str| {
        line.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64()).expect("metric")
    };
    for line in [&a, &b, &other] {
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        let keys: Vec<&str> =
            line.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names = line.get("metrics").and_then(Value::as_object).expect("metrics");
        assert_eq!(names.len(), END_TO_END.len());
    }
    assert_eq!(a.get("attempted"), b.get("attempted"));
    assert_eq!(a.get("attempted"), other.get("attempted"), "op counts do not depend on the seed");
    for name in ["qerror_p50", "qerror_p95"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name} repeats for a seed");
    }
    assert_ne!(metric(&a, "qerror_p95"), metric(&other, "qerror_p95"));

    let traced = closing_line("3", "1");
    let names = traced.get("metrics").and_then(Value::as_object).expect("metrics");
    assert_eq!(names.len(), PER_LAYER.len(), "--trace 1 reports the per-layer metrics");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "wire_point"][..], &["--seed", "x"], &["--seed", "1", "--nope"]] {
        let out = bench_all(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
