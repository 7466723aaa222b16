//! The per-layer numbers of the traced pass.
//!
//! Every layer is timed from outside, through its public functions, on the
//! workload's own model and query mix: a sample of the workload's requests
//! is **replayed** stage by stage on the harness thread (encode request →
//! decode → translate → cache key → cache probe → fill input → forward →
//! softmax mass → encode response), and the layers no request passes through
//! one at a time (trainer, checkpoints, registry, online hooks, metrics) are
//! probed the same way. Every timed call is a span; a metric is the median
//! over its spans of `duration / work inside`.

use crate::fixture::{Fixture, TABLE};
use crate::gen::{self, Zipf, MODEL_SEED};
use crate::run::ZIPF_S;
use crate::spec::{Workload, REPLAY_CHUNK, REPLAY_CHUNKS};
use crate::trace::{median_ns_per_op, Span, ThreadTrace};
use duet_baselines::{IndependenceEstimator, MHist, NaruConfig, NaruEstimator};
use duet_core::{
    data_forward, load_weights, query_forward, sample_virtual_batch, save_weights, train_step,
    DuetEstimator, DuetWorkspace, PreparedQuery, SamplerConfig, SoftmaxMode, TrainStepScratch,
};
use duet_nn::{seeded_rng, Adam, ForwardWorkspace, InferLayer};
use duet_query::CardinalityEstimator;
use duet_serve::wire::frame::{encode_request, encode_response, next_frame, DEFAULT_MAX_FRAME_LEN};
use duet_serve::wire::{FrameView, Status};
use duet_serve::{
    canonical_key_from_parts, CacheKey, DuetServer, HotSet, MetricsSnapshot, ModelSlot, ModelTier,
    OnlineConfig, OnlineHooks, OnlineTable, ServeConfig, ServeMetrics, ShardedCache,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Repetitions of each one-call-at-a-time probe.
const PROBE_REPS: usize = 5;

/// Progressive samples of the Naru comparator: enough for the O(columns x
/// samples) shape to show, few enough to time on the 100-column table.
const NARU_SAMPLES: usize = 100;

/// What the layers are read against: the client-side numbers of the traced
/// run's own untraced windows.
#[derive(Debug, Clone, Copy)]
pub struct ClientSide {
    /// Median client-observed latency per sample, µs.
    pub latency_p50_us: f64,
    /// Completed ops per second.
    pub throughput_ops_s: f64,
}

/// Named per-layer values (name → value), plus failures the replay's own
/// output check found.
pub struct LayerReport {
    /// Every per-layer metric this module produces.
    pub values: HashMap<&'static str, f64>,
    /// Replayed rows whose staged result disagreed with the one-call result.
    pub failed: u64,
    /// The spans behind the values.
    pub spans: Vec<Span>,
}

/// FLOPs of one row's forward pass, computed from the layer shapes (dense
/// multiply-adds; the autoregressive masks zero about half of them, which
/// the kernels do not skip).
pub fn flops_per_row(estimator: &DuetEstimator) -> f64 {
    let made = estimator.model().made().config();
    let (input, output) = (made.input_width(), made.output_width());
    let hidden = &made.hidden_sizes;
    let mut macs = input * hidden[0];
    if made.residual {
        // Every block after the first layer is two square layers.
        macs += (hidden.len() - 1) * 2 * hidden[0] * hidden[0];
    } else {
        macs += hidden.windows(2).map(|w| w[0] * w[1]).sum::<usize>();
    }
    macs += hidden[hidden.len() - 1] * output;
    2.0 * macs as f64
}

/// Mean of a bucketed histogram, each bucket counted at the middle of its
/// range (`(previous bound, bound]`); the open-ended bucket counts at its
/// lower edge.
fn histogram_mean(histogram: &[(usize, u64)]) -> f64 {
    let mut previous = 0usize;
    let (mut weighted, mut total) = (0.0f64, 0u64);
    for &(upper, count) in histogram {
        let middle = if upper == usize::MAX {
            (previous + 1) as f64
        } else {
            (previous + 1 + upper) as f64 / 2.0
        };
        weighted += middle * count as f64;
        total += count;
        previous = upper;
    }
    if total == 0 {
        0.0
    } else {
        weighted / total as f64
    }
}

/// The fixed canary: a 64x128x128 triple loop nobody optimises, so a run on
/// a slower day shows here as well and timings can be normalised by it.
fn naive_matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    const M: usize = 64;
    const K: usize = 128;
    const N: usize = 128;
    for i in 0..M {
        for j in 0..N {
            let mut acc = 0.0f32;
            for k in 0..K {
                acc += a[i * K + k] * b[k * N + j];
            }
            c[i * N + j] = acc;
        }
    }
}

/// A result cache shaped like the one a default server gives each table.
fn default_cache() -> ShardedCache {
    let config = ServeConfig::default();
    ShardedCache::new(config.cache_capacity, config.cache_shards)
}

/// Replay a sample of the workload's requests stage by stage. Returns the
/// mean request-frame size and the number of rows whose staged result
/// (fill → infer → softmax) disagreed with `estimate_encoded_batch_with`.
fn replay(fx: &Fixture, estimator: &DuetEstimator, t: &mut ThreadTrace) -> (f64, u64) {
    let model = estimator.model();
    let schema = estimator.schema();
    let batch = fx.workload.replay_batch();
    let chunk = REPLAY_CHUNK;
    assert_eq!(chunk % batch, 0, "a chunk is a whole number of forward passes");
    let pool = fx.encoded.len();
    // The sample: the order the workload itself asks in.
    let order: Vec<usize> = match fx.workload {
        Workload::ZipfSwap => Zipf::new(pool, ZIPF_S)
            .sequence(fx.seeds.schedule, u64::MAX, chunk * REPLAY_CHUNKS)
            .into_iter()
            .map(|i| i as usize)
            .collect(),
        _ => (0..chunk * REPLAY_CHUNKS).map(|i| i % pool).collect(),
    };

    let out_width: usize = model.output_sizes_ref().iter().sum();
    let num_rows = estimator.num_rows() as f64;
    let cache = default_cache();
    let (mut ws, mut fws) = (DuetWorkspace::new(), ForwardWorkspace::new());
    let (mut frames, mut responses) = (Vec::new(), Vec::new());
    let (mut preds, mut intervals) = (Vec::new(), Vec::new());
    let (mut probs, mut staged, mut direct) = (Vec::new(), Vec::new(), Vec::new());
    let mut logits = vec![0.0f32; chunk * out_width];
    let mut keys: Vec<CacheKey> = Vec::with_capacity(chunk);
    let (mut frame_bytes, mut mismatched) = (0usize, 0u64);

    for (c, indices) in order.chunks(chunk).enumerate() {
        let request = c as u64;
        let ops = chunk as u32;
        let rows: Vec<&[_]> = indices.iter().map(|&i| fx.encoded[i].0.as_slice()).collect();
        let ivals: Vec<&[_]> = indices.iter().map(|&i| fx.encoded[i].1.as_slice()).collect();
        t.enter("replay.chunk", request, ops);

        frames.clear();
        t.leaf("wire.encode_request", request, ops, || {
            for (k, &i) in indices.iter().enumerate() {
                let (p, iv) = &fx.encoded[i];
                encode_request(&mut frames, k as u64, 0, 0, p, iv);
            }
        });
        frame_bytes += frames.len();

        t.leaf("wire.decode_request", request, ops, || {
            let mut at = 0;
            while at < frames.len() {
                match next_frame(&frames[at..], DEFAULT_MAX_FRAME_LEN) {
                    Ok(Some((FrameView::Request(view), used))) => {
                        view.read_into(&mut preds, &mut intervals);
                        at += used;
                    }
                    other => panic!("own request frame did not decode: {other:?}"),
                }
            }
        });

        t.leaf("core.translate", request, ops, || {
            for &i in indices {
                black_box(gen::encode(schema, &fx.queries[i]));
            }
        });

        // Keys carry the chunk number as their generation, so a chunk's
        // first probe misses even where the Zipf order repeats a query.
        keys.clear();
        t.leaf("cache.key", request, ops, || {
            for &i in indices {
                let (p, iv) = &fx.encoded[i];
                keys.push(canonical_key_from_parts(schema, request + 1, p, iv));
            }
        });
        let owned = keys.clone();
        t.leaf("cache.get_miss", request, ops, || {
            for key in &keys {
                black_box(cache.get(key));
            }
        });
        t.leaf("cache.insert", request, ops, || {
            for key in owned {
                cache.insert(key, 1.0);
            }
        });
        t.leaf("cache.get_hit", request, ops, || {
            for key in &keys {
                black_box(cache.get(key));
            }
        });

        t.leaf("core.fill_input", request, ops, || {
            for sub in rows.chunks(batch) {
                model.fill_input(sub, &mut ws);
            }
        });

        for (s, sub) in rows.chunks(batch).enumerate() {
            model.fill_input(sub, &mut ws);
            t.enter("nn.infer", request, 1);
            let out = model.made().infer_into(ws.input(), &mut fws);
            t.exit();
            for r in 0..sub.len() {
                let at = (s * batch + r) * out_width;
                logits[at..at + out_width].copy_from_slice(out.row(r));
            }
        }
        if batch > 1 {
            for row in &rows {
                model.fill_input(std::slice::from_ref(row), &mut ws);
                t.enter("nn.infer_b1", request, 1);
                black_box(model.made().infer_into(ws.input(), &mut fws));
                t.exit();
            }
        }

        staged.clear();
        t.leaf("core.softmax_mass", request, ops, || {
            for (r, iv) in ivals.iter().enumerate() {
                let row = &logits[r * out_width..(r + 1) * out_width];
                staged.push(model.selectivity_from_logits_mode(
                    row,
                    iv,
                    &mut probs,
                    SoftmaxMode::Fast,
                ));
            }
        });

        let mut values = Vec::with_capacity(chunk);
        for (sub, sub_ivals) in rows.chunks(batch).zip(ivals.chunks(batch)) {
            t.enter("core.estimate_batch", request, 1);
            estimator.estimate_encoded_batch_with(sub, sub_ivals, &mut ws, &mut direct);
            t.exit();
            values.extend_from_slice(&direct);
        }
        if batch > 1 {
            for (row, iv) in rows.iter().zip(&ivals) {
                t.enter("core.estimate_b1", request, 1);
                estimator.estimate_encoded_batch_with(
                    std::slice::from_ref(row),
                    std::slice::from_ref(iv),
                    &mut ws,
                    &mut direct,
                );
                t.exit();
            }
        }

        responses.clear();
        t.leaf("wire.encode_response", request, ops, || {
            for (k, &value) in values.iter().enumerate() {
                encode_response(&mut responses, k as u64, Status::Ok, value);
            }
        });
        t.exit();

        // The stages, run apart, must compute what the one call computes.
        mismatched += staged
            .iter()
            .zip(&values)
            .filter(|(&sel, &value)| (sel * num_rows).to_bits() != value.to_bits())
            .count() as u64;
    }
    (frame_bytes as f64 / order.len() as f64, mismatched)
}

/// Time the trainer's pieces on a copy of the workload's model.
fn probe_trainer(fx: &Fixture, estimator: &DuetEstimator, t: &mut ThreadTrace) {
    let mut model = estimator.model().clone();
    let config = &fx.config;
    let anchors = fx.sizing.anchors.min(fx.table.num_rows());
    let mut rng = seeded_rng(fx.seeds.trainer);
    let sampler = SamplerConfig {
        expand_mu: config.expand_mu,
        wildcard_prob: config.wildcard_prob,
        max_predicates_per_column: config.max_predicates_per_column,
    };
    let prepared: Vec<PreparedQuery> = match &fx.train {
        Some(inputs) => inputs.prepared.iter().take(32).cloned().collect(),
        None => fx
            .encoded
            .iter()
            .zip(&fx.truth)
            .take(32)
            .map(|((p, iv), &card)| PreparedQuery::from_parts(p.clone(), iv.clone(), card as f64))
            .collect(),
    };
    let rows: Vec<usize> = (0..anchors).collect();
    let num_rows = fx.table.num_rows() as f64;
    let mut adam = Adam::new(config.learning_rate);
    let mut scratch = TrainStepScratch::new();
    // One untimed step first: scratch buffers grow on first use.
    let warm = sample_virtual_batch(&fx.table, &rows, &sampler, &mut rng);
    train_step(&mut model, &mut adam, &warm, &prepared, num_rows, config.lambda, &mut scratch);
    for rep in 0..PROBE_REPS as u64 {
        let batch = t.leaf("train.sample", rep, 1, || {
            sample_virtual_batch(&fx.table, &rows, &sampler, &mut rng)
        });
        t.leaf("train.data_forward", rep, 1, || data_forward(&mut model, &batch, &mut scratch));
        t.leaf("train.query_forward", rep, 1, || {
            query_forward(&mut model, &prepared, num_rows, config.lambda, &mut scratch)
        });
        t.leaf("train.step", rep, 1, || {
            train_step(
                &mut model,
                &mut adam,
                &batch,
                &prepared,
                num_rows,
                config.lambda,
                &mut scratch,
            )
        });
    }
}

/// Drive `calls` blocking estimates through `server`, one at a time.
fn roundtrips(fx: &Fixture, server: &DuetServer, calls: usize, mut t: Option<&mut ThreadTrace>) {
    for (k, query) in fx.queries.iter().cycle().take(calls).enumerate() {
        if let Some(t) = t.as_deref_mut() {
            t.enter("server.inproc_roundtrip", k as u64, 1);
        }
        server.estimate(TABLE, query).expect("an idle probe server answers");
        if let Some(t) = t.as_deref_mut() {
            t.exit();
        }
    }
}

/// Checkpoints, registry, server round trip, online hooks, metrics.
/// Returns the idle probe server's metrics, which stand in for the
/// workload's where the workload runs no server (`train_hybrid`), and the
/// checkpoint size.
fn probe_serving(
    fx: &Fixture,
    estimator: &DuetEstimator,
    t: &mut ThreadTrace,
) -> (MetricsSnapshot, usize) {
    let mut scratch_copy = estimator.clone();
    let mut checkpoint = Vec::new();
    for rep in 0..PROBE_REPS as u64 {
        checkpoint = t.leaf("persist.save", rep, 1, || save_weights(&mut scratch_copy)).to_vec();
        t.leaf("persist.load", rep, 1, || load_weights(&mut scratch_copy, &checkpoint))
            .expect("own checkpoint loads");
    }

    // One caller, one estimate at a time, cache off: the in-process floor.
    let calls = 256.min(fx.queries.len() * 4);
    let idle = DuetServer::new(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
    idle.register(TABLE, estimator.clone());
    roundtrips(fx, &idle, 32, None);
    roundtrips(fx, &idle, calls, Some(t));
    let idle_metrics = idle.metrics();

    // Swap cost with a warm cache and hot set, as `zipf_swap` pays it.
    let caching = DuetServer::new(ServeConfig::default());
    caching.register(TABLE, estimator.clone());
    for rep in 0..PROBE_REPS as u64 {
        roundtrips(fx, &caching, calls, None);
        t.leaf("registry.hot_swap", rep, 1, || caching.hot_swap(TABLE, &checkpoint))
            .expect("own checkpoint swaps in");
    }

    let slot = Arc::new(ModelSlot::new(estimator.clone()));
    for rep in 0..PROBE_REPS as u64 {
        t.leaf("registry.evict", rep, 1, || slot.evict(None)).expect("in-memory evict");
        t.leaf("registry.reload", rep, 1, || slot.try_current()).expect("reload own checkpoint");
    }

    let pool_keys: Vec<CacheKey> = fx
        .encoded
        .iter()
        .take(ServeConfig::default().cache_capacity)
        .map(|(p, iv)| canonical_key_from_parts(estimator.schema(), 0, p, iv))
        .collect();
    let cache = Arc::new(default_cache());
    for rep in 0..PROBE_REPS as u64 {
        for key in &pool_keys {
            cache.insert(key.clone(), 1.0);
        }
        t.leaf("cache.invalidate", rep, 1, || cache.invalidate());
    }

    let metrics = Arc::new(ServeMetrics::new());
    let hooks = OnlineHooks {
        slot,
        cache,
        hot: Arc::new(HotSet::new(ServeConfig::default().hot_keys)),
        tier: Arc::new(ModelTier::new(0)),
        metrics: metrics.clone(),
        table_id: 0,
    };
    let mut online = OnlineTable::new(fx.table.clone(), OnlineConfig::default(), hooks);
    let ingest: Vec<Vec<u32>> =
        (0..256.min(fx.table.num_rows())).map(|r| fx.table.row_ids(r)).collect();
    for rep in 0..PROBE_REPS as u64 {
        t.leaf("online.ingest_row", rep, ingest.len() as u32, || {
            for ids in &ingest {
                online.ingest_row(ids).expect("rows of the table itself are valid");
            }
        });
        t.leaf("online.drift_distance", rep, 16, || {
            for _ in 0..16 {
                black_box(online.drift_distance());
            }
        });
        t.leaf("metrics.record_request", rep, 4_096, || {
            for k in 0..4_096u64 {
                metrics.record_request(Duration::from_nanos(1_000 + k));
            }
        });
        t.leaf("metrics.snapshot", rep, 1, || black_box(metrics.snapshot(0, 0, 0)));
    }
    (idle_metrics, checkpoint.len())
}

/// Untouched comparators: two classical estimators, the fixed matmul, and
/// the paper's sampling-based baseline on the workload's architecture.
fn probe_canaries(fx: &Fixture, t: &mut ThreadTrace) {
    let sample: Vec<_> = fx.queries.iter().take(256).collect();
    let mut independence = IndependenceEstimator::new(&fx.table);
    let mut mhist = MHist::new(&fx.table, 64);
    let a: Vec<f32> = (0..64 * 128).map(|i| (i % 13) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..128 * 128).map(|i| (i % 7) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; 64 * 128];
    for rep in 0..(2 * PROBE_REPS + 1) as u64 {
        t.leaf("canary.independence", rep, sample.len() as u32, || {
            for q in &sample {
                black_box(independence.estimate(q));
            }
        });
        t.leaf("canary.mhist", rep, sample.len() as u32, || {
            for q in &sample {
                black_box(mhist.estimate(q));
            }
        });
        t.leaf("canary.naive_matmul", rep, 1, || {
            naive_matmul(black_box(&a), black_box(&b), &mut c);
            black_box(&mut c);
        });
    }

    // Naru's cost is forward passes, not training: one step on a prefix of
    // the table (same dictionaries, so the same architecture) is enough.
    let naru_config = NaruConfig {
        hidden_sizes: fx.config.hidden_sizes.clone(),
        residual: fx.config.residual,
        epochs: 1,
        batch_size: 128,
        learning_rate: fx.config.learning_rate,
        wildcard_prob: fx.config.wildcard_prob,
        num_samples: NARU_SAMPLES,
    };
    let mut naru = NaruEstimator::train(&fx.table.sample_prefix(128), &naru_config, MODEL_SEED);
    for (rep, query) in fx.queries.iter().take(3).enumerate() {
        t.leaf("baseline.naru_estimate", rep as u64, 1, || black_box(naru.estimate(query)));
    }
}

/// Measure every layer for one workload. `estimator` is the model the
/// workload serves (`train_hybrid`: the one it has trained); `served` is the
/// workload's own server metrics after its windows, if it runs a server.
pub fn measure(
    fx: &Fixture,
    estimator: &DuetEstimator,
    served: Option<MetricsSnapshot>,
    client: ClientSide,
    mut t: ThreadTrace,
) -> LayerReport {
    let (request_bytes, failed) = replay(fx, estimator, &mut t);
    probe_trainer(fx, estimator, &mut t);
    let (idle_metrics, checkpoint_bytes) = probe_serving(fx, estimator, &mut t);
    probe_canaries(fx, &mut t);
    let spans = t.into_spans();

    let ns =
        |name: &str| median_ns_per_op(&spans, name).unwrap_or_else(|| panic!("no {name} span"));
    let us = |name: &str| ns(name) / 1_000.0;
    let batch = fx.workload.replay_batch() as f64;
    let b1 = |batched: &str, single: &str| if batch > 1.0 { us(single) } else { us(batched) };
    let mut v: HashMap<&'static str, f64> = HashMap::new();

    // duet-core / duet-nn: the replay.
    v.insert("core.translate_us", us("core.translate"));
    v.insert("core.fill_input_us", us("core.fill_input"));
    v.insert("core.softmax_mass_us", us("core.softmax_mass"));
    v.insert("core.estimate_batch_us", us("core.estimate_batch"));
    let parts = batch * (us("core.fill_input") + us("core.softmax_mass")) + us("nn.infer");
    v.insert("core.waterfall_gap_share", 1.0 - parts / us("core.estimate_batch"));
    v.insert("nn.infer_us", us("nn.infer"));
    v.insert("nn.infer_b1_us", b1("nn.infer", "nn.infer_b1"));
    v.insert("nn.flops_per_row", flops_per_row(estimator));
    v.insert("nn.weight_bytes", estimator.model().made().size_bytes() as f64);

    // duet-core::trainer: per call, at the workload's anchors per step.
    for (metric, span) in [
        ("train.sample_us", "train.sample"),
        ("train.data_forward_us", "train.data_forward"),
        ("train.query_forward_us", "train.query_forward"),
        ("train.step_us", "train.step"),
    ] {
        v.insert(metric, us(span));
    }
    let forwards = v["train.data_forward_us"] + v["train.query_forward_us"];
    v.insert("train.backward_adam_us", (v["train.step_us"] - forwards).max(0.0));

    v.insert("persist.save_us", us("persist.save"));
    v.insert("persist.load_us", us("persist.load"));
    v.insert("persist.checkpoint_bytes", checkpoint_bytes as f64);

    // duet-serve::wire / cache: the replay, plus what the server counted.
    let counted = served.as_ref().unwrap_or(&idle_metrics);
    v.insert("wire.encode_request_ns", ns("wire.encode_request"));
    v.insert("wire.decode_request_ns", ns("wire.decode_request"));
    v.insert("wire.encode_response_ns", ns("wire.encode_response"));
    v.insert("wire.request_bytes", request_bytes);
    v.insert("wire.frames_in", counted.frames_in as f64);
    v.insert("wire.frames_out", counted.frames_out as f64);
    v.insert("wire.decode_errors", counted.wire_decode_errors as f64);
    v.insert("wire.pipeline_depth_mean", histogram_mean(&counted.pipeline_depth_histogram));
    v.insert("cache.key_ns", ns("cache.key"));
    v.insert("cache.get_hit_ns", ns("cache.get_hit"));
    v.insert("cache.get_miss_ns", ns("cache.get_miss"));
    v.insert("cache.insert_ns", ns("cache.insert"));
    v.insert("cache.invalidate_us", us("cache.invalidate"));
    v.insert("cache.hit_rate", counted.cache_hit_rate);
    v.insert("batcher.mean_batch_size", counted.mean_batch_size);
    v.insert("batcher.batches", counted.batches as f64);
    v.insert("router.steals", counted.steals as f64);
    v.insert("router.shed_overload", counted.shed_overload as f64);
    v.insert("router.shed_deadline", counted.shed_deadline as f64);
    v.insert("router.queue_depth_end", counted.queue_depth as f64);

    // duet-serve::server: the idle round trip against its own stages.
    let roundtrip = us("server.inproc_roundtrip");
    let estimate_b1 = b1("core.estimate_batch", "core.estimate_b1");
    v.insert("server.inproc_roundtrip_us", roundtrip);
    v.insert("server.handoff_us", roundtrip - us("core.translate") - estimate_b1);
    v.insert("server.reported_p50_us", counted.p50_latency_us);
    v.insert("server.reported_p99_us", counted.p99_latency_us);
    // What a client-observed sample (request, call or step) spends in stages
    // the replay can reproduce; the rest is socket, poll, queue and wake-up
    // time only spans inside the program can split.
    let kernels = parts;
    let framing = batch
        * (us("wire.encode_request") + us("wire.decode_request") + us("wire.encode_response"));
    let replayed = match fx.workload {
        Workload::WirePoint | Workload::WireBurst => framing + kernels,
        Workload::WideBatch => batch * us("core.translate") + kernels,
        Workload::ZipfSwap => us("core.translate") + us("cache.key") + us("cache.get_hit"),
        Workload::TrainHybrid => v["train.sample_us"] + v["train.step_us"],
    };
    v.insert("server.unattributed_us", client.latency_p50_us - replayed);

    v.insert("registry.hot_swap_us", us("registry.hot_swap"));
    v.insert("registry.evict_us", us("registry.evict"));
    v.insert("registry.reload_us", us("registry.reload"));
    v.insert("registry.resident_bytes", estimator.model().size_bytes() as f64);
    v.insert("online.ingest_row_ns", ns("online.ingest_row"));
    v.insert("online.drift_distance_us", us("online.drift_distance"));
    v.insert("metrics.record_request_ns", ns("metrics.record_request"));
    v.insert("metrics.snapshot_us", us("metrics.snapshot"));

    v.insert("setup.table_gen_s", fx.timings.table_gen_s);
    v.insert("setup.train_s", fx.timings.train_s);
    v.insert("setup.truth_label_s", fx.timings.truth_label_s);
    v.insert("canary.independence_ns", ns("canary.independence"));
    v.insert("canary.mhist_ns", ns("canary.mhist"));
    v.insert("canary.naive_matmul_us", us("canary.naive_matmul"));
    v.insert("baseline.naru_estimate_us", us("baseline.naru_estimate"));
    v.insert("client.latency_p50_us", client.latency_p50_us);
    v.insert("client.throughput_ops_s", client.throughput_ops_s);
    LayerReport { values: v, failed, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_counts_buckets_at_their_middle() {
        // 10 samples of depth 1, 10 in (2, 4] (middle 3.5), 5 beyond 128.
        let h = [(1, 10), (2, 0), (4, 10), (128, 0), (usize::MAX, 5)];
        assert_eq!(histogram_mean(&h), (10.0 + 35.0 + 5.0 * 129.0) / 25.0);
        assert_eq!(histogram_mean(&[(1, 0)]), 0.0);
    }

    #[test]
    fn flops_follow_the_layer_shapes() {
        let made = crate::fixture::build(Workload::WirePoint, 1, true);
        let estimator = &made.estimators[0];
        let config = estimator.model().made().config();
        let (i, o) = (config.input_width(), config.output_width());
        // small(): plain MADE, hidden 32 x 32.
        assert_eq!(flops_per_row(estimator), 2.0 * (i * 32 + 32 * 32 + 32 * o) as f64);
        let wide = crate::fixture::build(Workload::WideBatch, 1, true);
        let estimator = &wide.estimators[0];
        let config = estimator.model().made().config();
        let (i, o) = (config.input_width(), config.output_width());
        // paper_resmade(): first layer, one residual block of two, output.
        assert_eq!(flops_per_row(estimator), 2.0 * (i * 128 + 2 * 128 * 128 + 128 * o) as f64);
    }

    #[test]
    fn naive_matmul_multiplies() {
        let a = vec![1.0f32; 64 * 128];
        let b = vec![0.5f32; 128 * 128];
        let mut c = vec![0.0f32; 64 * 128];
        naive_matmul(&a, &b, &mut c);
        assert!(c.iter().all(|&x| x == 64.0));
    }
}
