//! One workload, start to finish: set-up, warm-up window, the untraced pass
//! the end-to-end metrics come from, and the traced pass the per-layer
//! numbers come from.

use crate::affinity;
use crate::fixture::{self, Fixture};
use crate::layers::{self, ClientSide};
use crate::report::{
    end_to_end, window_p50_us, window_throughput, EndToEnd, PerLayer, WorkloadResult,
};
use crate::run::{Runner, WindowOut};
use crate::spec::{
    windows_for, Workload, MIN_WINDOWS, OVERRUN_LIMIT, SETUP_REPEATS, SETUP_REPEATS_MAX,
    TRACE_WINDOW_PAIRS, WARMUP_WINDOWS,
};
use crate::stats::median;
use crate::trace::{Span, ThreadTrace};
use std::time::{Duration, Instant};

/// Which passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// End-to-end metrics only (`--trace 0`).
    Untraced,
    /// Per-layer metrics only (`--trace 1`).
    Traced,
    /// Both, on one fixture (a full `bench_all` invocation).
    Both,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the untraced pass measures.
    pub seconds: u64,
    /// `--quick`: tiny counts, not claimable.
    pub quick: bool,
    /// Which passes.
    pub passes: Passes,
}

/// Set up `SETUP_REPEATS` times — more, up to `SETUP_REPEATS_MAX`, while all
/// of them together took under a second, so the median of a set-up of a tenth
/// of a second does not rest on three samples — and keep the last fixture.
/// Once when only the traced pass runs, which does not report `setup_s` as a
/// gated metric.
fn set_up(plan: &Plan) -> (Fixture, Vec<f64>) {
    let (least, most) = if plan.passes == Passes::Traced || plan.quick {
        (1, 1)
    } else {
        (SETUP_REPEATS, SETUP_REPEATS_MAX)
    };
    let mut times: Vec<f64> = Vec::with_capacity(most);
    let mut fixture = None;
    while times.len() < least || (times.len() < most && times.iter().sum::<f64>() < 1.0) {
        // Drop the previous server and listener before timing the next.
        drop(fixture.take());
        let fx = fixture::build(plan.workload, plan.seed, plan.quick);
        times.push(fx.timings.total_s);
        fixture = Some(fx);
    }
    (fixture.expect("at least one set-up"), times)
}

fn untraced_pass(plan: &Plan, runner: &mut Runner<'_>, setup_s: &[f64]) -> EndToEnd {
    // `--seconds` buys a fixed number of windows of a fixed operation count.
    // On a host running well below the speed they were sized at, the pass
    // stops early instead of overrunning the time the caller planned for.
    let limit = Duration::from_secs_f64(plan.seconds as f64 * OVERRUN_LIMIT);
    let started = Instant::now();
    let mut windows: Vec<WindowOut> = Vec::new();
    for _ in 0..windows_for(plan.seconds) {
        if windows.len() >= MIN_WINDOWS && started.elapsed() > limit {
            break;
        }
        windows.push(runner.window(false));
    }
    let (qerrors, extra_failed) = runner.finish();
    end_to_end(setup_s, &windows, &qerrors, extra_failed)
}

fn traced_pass(fx: &Fixture, runner: &mut Runner<'_>, epoch: Instant) -> (PerLayer, Vec<Span>) {
    // Untraced and traced windows alternate, so the overhead is a ratio of
    // neighbours, not of two passes minutes apart.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_WINDOW_PAIRS {
        plain.push(runner.window(false));
        traced.push(runner.window(true));
    }
    let rate = |ws: &[WindowOut]| median(&ws.iter().map(window_throughput).collect::<Vec<_>>());
    let client = ClientSide {
        latency_p50_us: median(&plain.iter().map(window_p50_us).collect::<Vec<_>>()),
        throughput_ops_s: rate(&plain),
    };
    let (_, extra_failed) = runner.finish();
    let estimator = runner.trained_estimator().unwrap_or_else(|| fx.estimators[0].clone());
    let served = fx.server.as_ref().map(|s| s.metrics());
    let report = layers::measure(
        fx,
        &estimator,
        served,
        client,
        ThreadTrace::new(u64::from(u16::MAX), epoch),
    );

    let mut spans: Vec<Span> =
        traced.iter_mut().flat_map(|w| std::mem::take(&mut w.spans)).collect();
    spans.extend(report.spans);
    let attempted: u64 = plain.iter().chain(&traced).map(|w| w.ops).sum();
    let failed: u64 =
        plain.iter().chain(&traced).map(|w| w.failed).sum::<u64>() + extra_failed + report.failed;
    let mut values = report.values;
    values.insert("trace.overhead_share", 1.0 - rate(&traced) / rate(&plain));
    values.insert("trace.spans", spans.len() as f64);
    values.insert("failed_share", failed as f64 / attempted.max(1) as f64);
    (PerLayer::from_values(&values, attempted, failed), spans)
}

/// Run one workload as planned. Returns its result and the spans of the
/// traced pass (empty when it did not run).
pub fn run(plan: &Plan) -> (WorkloadResult, Vec<Span>) {
    let epoch = Instant::now();
    // First of all, so that every thread the program starts inherits it.
    affinity::confine_to_one_cpu();
    let (fx, setup_s) = set_up(plan);
    let mut runner = Runner::new(&fx, epoch);
    // Warm-up: connections, workspaces, caches and lazily built weight
    // panels reach steady state before anything is timed.
    for _ in 0..WARMUP_WINDOWS {
        runner.window(false);
    }
    let end_to_end =
        (plan.passes != Passes::Traced).then(|| untraced_pass(plan, &mut runner, &setup_s));
    let (per_layer, spans) = if plan.passes != Passes::Untraced {
        let (per_layer, spans) = traced_pass(&fx, &mut runner, epoch);
        (Some(per_layer), spans)
    } else {
        (None, Vec::new())
    };
    let result =
        WorkloadResult { workload: plan.workload, sizing: fx.sizing, end_to_end, per_layer };
    (result, spans)
}
