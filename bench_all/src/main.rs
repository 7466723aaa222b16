//! `bench_all`: run the benchmark, or compare two of its result files.
//!
//! ```text
//! bench_all --seed <u64> [--workload <name>] [--seconds <n>] [--trace <0|1>]
//!           [--quick] [--out <file>] [--trace-out <file>]
//! bench_all compare <a.json> <b.json>
//! ```
//!
//! With `--workload` and `--trace` it runs one pass of one workload and ends
//! its standard output with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`) — the form `BENCHMARK.json`'s command is driven in. Without
//! them it runs both passes of every workload and writes the whole result to
//! `--out`. It exits non-zero when any operation failed its output check.

use duet_bench_all::bench::{run, Passes, Plan};
use duet_bench_all::json::Value;
use duet_bench_all::report::{compare, contract_line, render, result_json};
use duet_bench_all::spec::Workload;
use duet_bench_all::trace;
use std::process::ExitCode;

const USAGE: &str = "usage: bench_all --seed <u64> [--workload <name>] [--seconds <n>] \
[--trace <0|1>] [--quick] [--out <file>] [--trace-out <file>]\n       \
bench_all compare <a.json> <b.json>";

struct Args {
    seed: u64,
    workload: Option<Workload>,
    seconds: u64,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 0,
        workload: None,
        seconds: 16,
        trace: None,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                seed = Some(value()?.parse().map_err(|_| "--seed takes a u64".to_string())?)
            }
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seconds" => {
                parsed.seconds =
                    value()?.parse().map_err(|_| "--seconds takes a whole number".to_string())?
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required: every input is generated from it")?;
    Ok(parsed)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else { return Err(USAGE.to_string()) };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn run_benchmark(args: &Args) -> Result<bool, String> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes = match args.trace {
        Some(false) => Passes::Untraced,
        Some(true) => Passes::Traced,
        None => Passes::Both,
    };
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for workload in workloads {
        let plan =
            Plan { workload, seed: args.seed, seconds: args.seconds, quick: args.quick, passes };
        let (result, traced) = run(&plan);
        print!("{}", render(&result));
        spans.extend(traced);
        results.push(result);
    }
    let failed: u64 = results
        .iter()
        .map(|r| {
            r.end_to_end.as_ref().map_or(0, |e| e.failed)
                + r.per_layer.as_ref().map_or(0, |p| p.failed)
        })
        .sum();
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace::to_json(&spans).to_string())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {} spans to {path}", spans.len());
    }
    let document = result_json(args.seed, args.quick, &results);
    if let Some(path) = &args.out {
        std::fs::write(path, document.to_string()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    // The driven form: one pass of one workload, one closing JSON line.
    match (&results[..], args.trace) {
        ([result], Some(_)) => println!("{}", contract_line(result)),
        _ if args.out.is_none() => println!("{document}"),
        _ => {}
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => parse(&args).and_then(|parsed| run_benchmark(&parsed)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
