//! What the benchmark is: the five workloads, the metric names with their
//! units, directions and bounds, and the fixed operation counts. The names
//! here are the ones `BENCHMARK.json` lists (a unit test keeps the two in
//! step) and the ones later changes claim against, so they do not change
//! once the benchmark is accepted.

use duet_core::DuetConfig;

/// Client threads (and wire connections) of every serving workload. Closed
/// loop — each blocks on its reply. The whole process runs on one CPU (see
/// [`crate::affinity`]); two clients keep a second request in the system
/// while the first is being answered.
pub const CLIENT_THREADS: usize = 2;

/// A timed window is sized to about this long at the commit that defined the
/// benchmark; `--seconds` buys `seconds / WINDOW_TARGET_S` windows.
///
/// Short windows, many of them: the shared hosts the benchmark is judged on
/// slow down by a quarter for a second or three at a time, several times a
/// minute, with no steal time reported to the guest. A window of half a
/// second is either inside such a dip or outside it, and a few dozen of them
/// always include some that read the undisturbed machine (which is where a
/// run's reading is taken, see `report::GOOD_SIDE_QUANTILE`); windows of two
/// seconds each caught a piece of a dip, and the median of five of them
/// moved by 10 % and more between runs.
pub const WINDOW_TARGET_S: f64 = 0.5;

/// The untraced pass stops adding windows once it has measured for this many
/// times `--seconds` (never at the speed the windows were sized at), as long
/// as it has [`MIN_WINDOWS`]: the caller's time budget outranks the window
/// count when the host is slow.
pub const OVERRUN_LIMIT: f64 = 1.15;
/// See [`OVERRUN_LIMIT`].
pub const MIN_WINDOWS: usize = 8;

/// Untimed windows before the first timed one (about two seconds):
/// connections, workspaces, caches and lazily built weight panels reach
/// steady state.
pub const WARMUP_WINDOWS: usize = 4;

/// Full set-ups per untraced run; `setup_s` is their median. A set-up so
/// short that three of them take under a second (`train_hybrid`: a table and
/// two query sets, ≈ 0.1 s) is repeated until they add up to one, at most
/// [`SETUP_REPEATS_MAX`] times.
pub const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`].
pub const SETUP_REPEATS_MAX: usize = 9;

/// Window pairs (one untraced, one traced) of a traced run.
pub const TRACE_WINDOW_PAIRS: usize = 6;

/// Requests per replay chunk, and chunks replayed per traced run.
pub const REPLAY_CHUNK: usize = 64;
/// See [`REPLAY_CHUNK`].
pub const REPLAY_CHUNKS: usize = 48;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Wire path, one request in flight per connection, tiny model.
    WirePoint,
    /// Wire path, bursts of 64 pipelined requests, large-output model.
    WireBurst,
    /// In-process `estimate_many` slices of 32 over a 100-column table.
    WideBatch,
    /// In-process `estimate` over a Zipf working set 4x the cache, beside
    /// periodic hot-swaps.
    ZipfSwap,
    /// Hybrid training steps; nothing in `duet-serve` runs.
    TrainHybrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::WirePoint,
        Workload::WireBurst,
        Workload::WideBatch,
        Workload::ZipfSwap,
        Workload::TrainHybrid,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WirePoint => "wire_point",
            Workload::WireBurst => "wire_burst",
            Workload::WideBatch => "wide_batch",
            Workload::ZipfSwap => "zipf_swap",
            Workload::TrainHybrid => "train_hybrid",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of a client's loop is called.
    pub fn unit_name(self) -> &'static str {
        match self {
            Workload::WirePoint | Workload::ZipfSwap => "request",
            Workload::WireBurst => "burst",
            Workload::WideBatch => "call",
            Workload::TrainHybrid => "step",
        }
    }

    /// The model this workload serves or trains.
    pub fn model_config(self) -> DuetConfig {
        match self {
            Workload::WirePoint | Workload::ZipfSwap | Workload::TrainHybrid => DuetConfig::small(),
            Workload::WireBurst => {
                let mut c = DuetConfig::paper_dmv();
                c.hidden_sizes = vec![128, 128];
                c
            }
            Workload::WideBatch => DuetConfig::paper_resmade(),
        }
    }

    /// Rows the serving layer fuses into one forward pass on this workload
    /// when it batches fully; the replay runs the kernels at this size.
    pub fn replay_batch(self) -> usize {
        match self {
            Workload::WirePoint | Workload::ZipfSwap | Workload::TrainHybrid => 1,
            Workload::WireBurst => 64,
            Workload::WideBatch => 32,
        }
    }

    /// Fixed operation counts, full size or `--quick`.
    pub fn sizing(self, quick: bool) -> Sizing {
        let full = match self {
            Workload::WirePoint => Sizing {
                rows: 8_000,
                pool: 4_096,
                setup_steps: 126,
                anchors: 128,
                threads: CLIENT_THREADS,
                units_per_thread: 750,
                unit_ops: 1,
                swap_every: 0,
                think_us: 400,
                train_queries: 0,
            },
            Workload::WireBurst => Sizing {
                rows: 10_000,
                pool: 4_096,
                setup_steps: 30,
                anchors: 32,
                threads: CLIENT_THREADS,
                units_per_thread: 80,
                unit_ops: 64,
                swap_every: 0,
                think_us: 0,
                train_queries: 0,
            },
            Workload::WideBatch => Sizing {
                rows: 5_000,
                pool: 4_096,
                setup_steps: 30,
                anchors: 32,
                threads: CLIENT_THREADS,
                units_per_thread: 170,
                unit_ops: 32,
                swap_every: 0,
                think_us: 0,
                train_queries: 0,
            },
            Workload::ZipfSwap => Sizing {
                rows: 8_000,
                pool: 16_384,
                setup_steps: 126,
                anchors: 128,
                threads: CLIENT_THREADS,
                units_per_thread: 54_000,
                unit_ops: 1,
                swap_every: 27_000,
                think_us: 0,
                train_queries: 0,
            },
            Workload::TrainHybrid => Sizing {
                rows: 8_000,
                pool: 6_000,
                setup_steps: 0,
                anchors: 128,
                threads: 1,
                units_per_thread: 170,
                unit_ops: 128,
                swap_every: 0,
                think_us: 0,
                train_queries: 1_000,
            },
        };
        if !quick {
            return full;
        }
        // Same shapes, tiny counts: exercises every code path and the output
        // check in seconds. Not comparable with a full run.
        Sizing {
            rows: full.rows / 8,
            pool: (full.pool / 16).max(128),
            setup_steps: full.setup_steps.min(4),
            units_per_thread: match self {
                Workload::ZipfSwap => 2_000,
                Workload::TrainHybrid => 6,
                _ => 24,
            },
            swap_every: full.swap_every.min(500),
            train_queries: full.train_queries / 8,
            ..full
        }
    }
}

/// The fixed counts of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Table rows.
    pub rows: usize,
    /// Distinct queries in the served pool (`train_hybrid`: held-out queries
    /// the trained model is scored on).
    pub pool: usize,
    /// Optimizer steps the set-up trains the served model for.
    pub setup_steps: usize,
    /// Anchor tuples per optimizer step (set-up training and `train_hybrid`).
    pub anchors: usize,
    /// Client threads.
    pub threads: usize,
    /// Units (requests, bursts, calls, steps) per thread per window.
    pub units_per_thread: usize,
    /// Operations per unit: requests per burst, queries per call, anchor
    /// tuples per step.
    pub unit_ops: usize,
    /// `zipf_swap`: thread 0 hot-swaps after every this many of its requests.
    pub swap_every: usize,
    /// `wire_point`: before each request the client thinks (sleeps) for a
    /// seeded time drawn uniformly from `0..think_us` microseconds. Without
    /// it the two closed loops lock to the acceptor's 200 µs poll cycle in
    /// one of two phases, a request takes one cycle (≈ 300 µs) or two
    /// (≈ 550 µs), and the share of each drifts around one half from run to
    /// run — so the median latency jumped between ≈ 400 and ≈ 535 µs (3 of
    /// 10 runs) while throughput did not move. Two poll periods of jitter
    /// make every request arrive at a random phase, as a planner's would.
    pub think_us: u64,
    /// `train_hybrid`: labelled training queries.
    pub train_queries: usize,
}

impl Sizing {
    /// Operations one window attempts.
    pub fn ops_per_window(&self) -> usize {
        self.threads * self.units_per_thread * self.unit_ops
    }

    /// Latency samples one window yields (one per op on the request
    /// workloads, one per call or step otherwise).
    pub fn samples_per_window(&self, workload: Workload) -> usize {
        match workload {
            Workload::WideBatch | Workload::TrainHybrid => self.threads * self.units_per_thread,
            _ => self.ops_per_window(),
        }
    }
}

/// How many timed windows `--seconds` buys (at least one).
pub fn windows_for(seconds: u64) -> usize {
    ((seconds as f64 / WINDOW_TARGET_S).round() as usize).max(1)
}

/// Which direction is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before it
    /// is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricSpec; 7] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_ops_s", "op/s", Better::Higher, 0.15),
    gated("latency_p50_us", "us", Better::Lower, 0.15),
    gated("latency_p99_us", "us", Better::Lower, 0.25),
    gated("cpu_us_per_op", "us", Better::Lower, 0.25),
    gated("qerror_p50", "ratio", Better::Lower, 0.10),
    gated("qerror_p95", "ratio", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer metrics of the traced pass, grouped by the module they
/// measure. Every workload reports every one; where a layer does not run on
/// a workload the number comes from the replay of that workload's own
/// requests through the layer's public functions.
pub const PER_LAYER: [MetricSpec; 62] = [
    // duet-core::model / encoding / estimator
    layer("core.translate_us", "us", Lower),
    layer("core.fill_input_us", "us", Lower),
    layer("core.softmax_mass_us", "us", Lower),
    layer("core.estimate_batch_us", "us", Lower),
    layer("core.waterfall_gap_share", "ratio", Lower),
    // duet-nn
    layer("nn.infer_us", "us", Lower),
    layer("nn.infer_b1_us", "us", Lower),
    layer("nn.flops_per_row", "flop", Lower),
    layer("nn.weight_bytes", "bytes", Lower),
    // duet-core::trainer / virtual_table
    layer("train.sample_us", "us", Lower),
    layer("train.data_forward_us", "us", Lower),
    layer("train.query_forward_us", "us", Lower),
    layer("train.step_us", "us", Lower),
    layer("train.backward_adam_us", "us", Lower),
    // duet-core::persist
    layer("persist.save_us", "us", Lower),
    layer("persist.load_us", "us", Lower),
    layer("persist.checkpoint_bytes", "bytes", Lower),
    // duet-serve::wire::frame
    layer("wire.encode_request_ns", "ns", Lower),
    layer("wire.decode_request_ns", "ns", Lower),
    layer("wire.encode_response_ns", "ns", Lower),
    layer("wire.request_bytes", "bytes", Lower),
    layer("wire.frames_in", "count", Lower),
    layer("wire.frames_out", "count", Lower),
    layer("wire.decode_errors", "count", Lower),
    layer("wire.pipeline_depth_mean", "count", Higher),
    // duet-serve::cache
    layer("cache.key_ns", "ns", Lower),
    layer("cache.get_hit_ns", "ns", Lower),
    layer("cache.get_miss_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.invalidate_us", "us", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    // duet-serve::router / batcher
    layer("batcher.mean_batch_size", "count", Higher),
    layer("batcher.batches", "count", Lower),
    layer("router.steals", "count", Lower),
    layer("router.shed_overload", "count", Lower),
    layer("router.shed_deadline", "count", Lower),
    layer("router.queue_depth_end", "count", Lower),
    // duet-serve::server
    layer("server.inproc_roundtrip_us", "us", Lower),
    layer("server.handoff_us", "us", Lower),
    layer("server.reported_p50_us", "us", Lower),
    layer("server.reported_p99_us", "us", Lower),
    layer("server.unattributed_us", "us", Lower),
    // duet-serve::registry / tier
    layer("registry.hot_swap_us", "us", Lower),
    layer("registry.evict_us", "us", Lower),
    layer("registry.reload_us", "us", Lower),
    layer("registry.resident_bytes", "bytes", Lower),
    // duet-serve::online / metrics
    layer("online.ingest_row_ns", "ns", Lower),
    layer("online.drift_distance_us", "us", Lower),
    layer("metrics.record_request_ns", "ns", Lower),
    layer("metrics.snapshot_us", "us", Lower),
    // set-up, canaries, baseline, trace
    layer("setup.table_gen_s", "s", Lower),
    layer("setup.train_s", "s", Lower),
    layer("setup.truth_label_s", "s", Lower),
    layer("canary.independence_ns", "ns", Lower),
    layer("canary.mhist_ns", "ns", Lower),
    layer("canary.naive_matmul_us", "us", Lower),
    layer("baseline.naru_estimate_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    // the run's own health, ungated because a passing run always reads 0
    layer("failed_share", "ratio", Lower),
    // client-side numbers of the traced run's own windows, for reading the
    // layers against (the gated ones come from the untraced run)
    layer("client.latency_p50_us", "us", Lower),
    layer("client.throughput_ops_s", "op/s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in workloads.chain(metrics) {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert_eq!(Workload::from_name("zipf_swap"), Some(Workload::ZipfSwap));
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Value::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).expect("name").to_string())
                .collect()
        };
        let expect = |specs: &[MetricSpec]| -> Vec<String> {
            specs.iter().map(|m| m.name.to_string()).collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        for (entry, spec) in
            doc.get("end_to_end").and_then(Value::as_array).expect("array").iter().zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(spec.unit));
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(spec.better.as_str()));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), spec.bound);
        }
        for (entry, spec) in
            doc.get("per_layer").and_then(Value::as_array).expect("array").iter().zip(&PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(spec.unit));
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(spec.better.as_str()));
        }
    }

    #[test]
    fn op_counts_are_fixed_and_windows_follow_seconds() {
        for w in Workload::ALL {
            assert_eq!(w.sizing(false), w.sizing(false));
            assert!(w.sizing(true).ops_per_window() < w.sizing(false).ops_per_window());
            // A window of single requests supports a p99 (>= 1 000 samples,
            // ten beyond it); where a sample is a whole call or step the tail
            // percentile is picked from what the window has, and named.
            match w {
                Workload::WideBatch | Workload::TrainHybrid => {
                    assert!(w.sizing(false).samples_per_window(w) >= 100, "{}", w.name())
                }
                _ => assert!(w.sizing(false).samples_per_window(w) >= 1_000, "{}", w.name()),
            }
        }
        assert_eq!(
            (windows_for(16), windows_for(4), windows_for(1), windows_for(0)),
            (32, 8, 2, 1)
        );
    }
}
