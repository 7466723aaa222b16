//! The timed windows: closed-loop client threads driving one workload for a
//! fixed number of operations, checking every reply.
//!
//! A window's clients start together behind a barrier; wall time and process
//! CPU are read by the coordinating thread just before it releases them and
//! just after the last one returns. A reply is correct when it is `Ok` and
//! equals, bit for bit, the value
//! `estimate_encoded_batch_with` gave for that query during set-up; anything
//! else — error, refusal, wrong or out-of-range value — is a failed operation.

use crate::fixture::{direct_estimates, Fixture, Trainer, TABLE};
use crate::gen::Zipf;
use crate::spec::Workload;
use crate::stats::process_cpu_seconds;
use crate::trace::{leaf, Span, ThreadTrace};
use duet_core::DuetEstimator;
use duet_query::q_error;
use duet_serve::wire::{Status, WireClient};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Zipf exponent of the `zipf_swap` request stream.
pub const ZIPF_S: f64 = 1.0;

/// What one window measured.
#[derive(Debug, Default)]
pub struct WindowOut {
    /// Barrier release to last client done.
    pub wall_s: f64,
    /// Process CPU (user + system) over the same interval.
    pub cpu_s: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed the output check.
    pub failed: u64,
    /// One sample per request (`wire_*`, `zipf_swap`), call (`wide_batch`)
    /// or step (`train_hybrid`).
    pub latencies_ns: Vec<u64>,
    /// Spans, when the window was traced.
    pub spans: Vec<Span>,
}

/// What one client thread brings back from a window.
#[derive(Debug, Default)]
struct ThreadOut {
    ops: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
}

/// Per-thread state that outlives a window.
struct Client {
    /// The thread's connection (`wire_*`).
    wire: Option<WireClient>,
    /// Last value this thread was served per pool entry (NaN = never).
    served: Vec<f64>,
}

/// State only thread 0 touches: which model its last swap installed, and
/// the model it trains.
struct Lead<'a> {
    installed: &'a mut usize,
    trainer: Option<&'a mut Trainer>,
    window_losses: &'a mut Vec<f64>,
}

/// Drives one fixture window after window.
pub struct Runner<'f> {
    fx: &'f Fixture,
    epoch: Instant,
    clients: Vec<Client>,
    zipf: Option<Zipf>,
    /// `zipf_swap`: index of the model thread 0's last completed swap
    /// installed (0 = the registered one).
    installed: usize,
    trainer: Option<Trainer>,
    /// Mean data loss of every `train_hybrid` window so far.
    window_losses: Vec<f64>,
    windows_run: u64,
}

/// A served value passes when it carries exactly the expected bits and is a
/// cardinality at all: finite and within `[0, |T|]`.
fn reply_ok(value: f64, expected: &[f64], rows: f64) -> bool {
    value.is_finite()
        && (0.0..=rows).contains(&value)
        && expected.iter().any(|e| e.to_bits() == value.to_bits())
}

impl<'f> Runner<'f> {
    /// Connect the clients (`wire_*`) and prepare per-thread state.
    pub fn new(fx: &'f Fixture, epoch: Instant) -> Self {
        let clients = (0..fx.sizing.threads)
            .map(|_| Client {
                wire: fx
                    .wire
                    .as_ref()
                    .map(|front| WireClient::connect(front.addr).expect("loopback connect")),
                served: vec![f64::NAN; fx.queries.len()],
            })
            .collect();
        let zipf = (fx.workload == Workload::ZipfSwap).then(|| Zipf::new(fx.queries.len(), ZIPF_S));
        let trainer = (fx.workload == Workload::TrainHybrid)
            .then(|| Trainer::new(&fx.table, &fx.config, fx.sizing.anchors, fx.seeds.trainer));
        Self {
            fx,
            epoch,
            clients,
            zipf,
            installed: 0,
            trainer,
            window_losses: Vec::new(),
            windows_run: 0,
        }
    }

    /// Run one window of the fixture's fixed operation count.
    pub fn window(&mut self, traced: bool) -> WindowOut {
        let fx = self.fx;
        let window = self.windows_run;
        self.windows_run += 1;
        let threads = fx.sizing.threads;
        let mut traces: Vec<Option<ThreadTrace>> = (0..threads)
            .map(|t| traced.then(|| ThreadTrace::new(window * 16 + t as u64 + 1, self.epoch)))
            .collect();
        // Request order is drawn before the clock starts.
        let schedules: Vec<Vec<u32>> = (0..threads)
            .map(|t| match &self.zipf {
                Some(zipf) => zipf.sequence(
                    fx.seeds.schedule,
                    window * threads as u64 + t as u64,
                    fx.sizing.units_per_thread,
                ),
                None => Vec::new(),
            })
            .collect();

        let (start_line, go) = (Barrier::new(threads + 1), Barrier::new(threads + 1));
        // Thread 0 alone swaps and trains.
        let mut lead = Some(Lead {
            installed: &mut self.installed,
            trainer: self.trainer.as_mut(),
            window_losses: &mut self.window_losses,
        });

        let (wall_s, cpu_s, outs) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&mut traces)
                .zip(&schedules)
                .enumerate()
                .map(|(t, ((client, trace), schedule))| {
                    let (start_line, go) = (&start_line, &go);
                    let lead = if t == 0 { lead.take() } else { None };
                    scope.spawn(move || {
                        start_line.wait();
                        go.wait();
                        match fx.workload {
                            Workload::WirePoint | Workload::WireBurst => {
                                wire_client(fx, t, window, client, trace)
                            }
                            Workload::WideBatch => batch_client(fx, t, window, client, trace),
                            Workload::ZipfSwap => {
                                let installed = lead.map(|l| l.installed);
                                zipf_client(fx, t, window, schedule, installed, client, trace)
                            }
                            Workload::TrainHybrid => {
                                train_client(fx, window, lead.expect("one thread, thread 0"), trace)
                            }
                        }
                    })
                })
                .collect();
            start_line.wait();
            let cpu_before = process_cpu_seconds().expect("a process CPU clock");
            let started = Instant::now();
            go.wait();
            let outs: Vec<ThreadOut> =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            let wall_s = started.elapsed().as_secs_f64();
            let cpu_after = process_cpu_seconds().expect("a process CPU clock");
            (wall_s, cpu_after - cpu_before, outs)
        });

        let mut out = WindowOut { wall_s, cpu_s, ..WindowOut::default() };
        for thread in outs {
            out.ops += thread.ops;
            out.failed += thread.failed;
            out.latencies_ns.extend(thread.latencies_ns);
        }
        for trace in traces.into_iter().flatten() {
            out.spans.extend(trace.into_spans());
        }
        out
    }

    /// The model `train_hybrid` has trained so far, as an estimator.
    pub fn trained_estimator(&self) -> Option<DuetEstimator> {
        let trainer = self.trainer.as_ref()?;
        Some(DuetEstimator::from_model(trainer.model.clone(), &self.fx.table, "duet"))
    }

    /// Close the books after the last window: the q-errors of what was
    /// served (`train_hybrid`: of the trained model on the held-out pool)
    /// and any failure only visible at the end.
    ///
    /// On `zipf_swap` only thread 0's replies are scored: the model behind
    /// each of them follows from its own swap schedule, so the numbers repeat
    /// exactly for a seed, while thread 1's depend on how the race fell.
    pub fn finish(&self) -> (Vec<f64>, u64) {
        let fx = self.fx;
        let mut failed = 0u64;
        let values: Vec<f64> = match self.trained_estimator() {
            Some(estimator) => {
                let values = direct_estimates(&estimator, &fx.encoded);
                let rows = fx.table.num_rows() as f64;
                failed +=
                    values.iter().filter(|v| !v.is_finite() || !(0.0..=rows).contains(*v)).count()
                        as u64;
                // Training that does not learn is a wrong output too.
                let (first, last) = (self.window_losses.first(), self.window_losses.last());
                if self.window_losses.len() > 1 && first <= last {
                    failed += 1;
                }
                values
            }
            None => {
                let scored = if fx.workload == Workload::ZipfSwap { 1 } else { self.clients.len() };
                (0..fx.queries.len())
                    .map(|i| {
                        self.clients[..scored]
                            .iter()
                            .map(|c| c.served[i])
                            .find(|v| !v.is_nan())
                            .unwrap_or(f64::NAN)
                    })
                    .collect()
            }
        };
        let qerrors = values
            .iter()
            .zip(&fx.truth)
            .filter(|(v, _)| !v.is_nan())
            .map(|(&v, &truth)| q_error(v, truth as f64))
            .collect();
        (qerrors, failed)
    }
}

/// First pool index of `(window, thread)`'s stretch of `span` entries per
/// unit: consecutive windows and threads walk on through the pool.
fn pool_cursor(fx: &Fixture, thread: usize, window: u64, span: usize) -> usize {
    let per_thread = fx.sizing.units_per_thread * span;
    (window as usize * fx.sizing.threads + thread) * per_thread
}

/// `wire_point` / `wire_burst`: submit a burst, flush, drain the replies.
/// Latency runs from the start of the burst's flush to each own reply.
fn wire_client(
    fx: &Fixture,
    thread: usize,
    window: u64,
    client: &mut Client,
    trace: &mut Option<ThreadTrace>,
) -> ThreadOut {
    let front = fx.wire.as_ref().expect("wire workloads have a listener");
    let wire = client.wire.as_mut().expect("wire workloads have connections");
    let (burst, units, pool) = (fx.sizing.unit_ops, fx.sizing.units_per_thread, fx.encoded.len());
    let rows = fx.table.num_rows() as f64;
    let cursor = pool_cursor(fx, thread, window, burst);
    let mut think = SmallRng::seed_from_u64(fx.seeds.schedule ^ (cursor as u64 + 1));
    let mut out =
        ThreadOut { latencies_ns: Vec::with_capacity(units * burst), ..Default::default() };
    'units: for unit in 0..units {
        let first = cursor + unit * burst;
        let request = (first / burst) as u64;
        if fx.sizing.think_us > 0 {
            std::thread::sleep(Duration::from_micros(think.gen_range(0..fx.sizing.think_us)));
        }
        if let Some(t) = trace {
            t.enter("client.burst", request, burst as u32);
        }
        out.ops += burst as u64;
        for k in 0..burst {
            let (preds, intervals) = &fx.encoded[(first + k) % pool];
            leaf(trace, "wire.submit_request", request, 1, || {
                wire.submit_request(k as u64, front.table_id, 0, preds, intervals)
            });
        }
        let flushed_at = Instant::now();
        let mut alive = leaf(trace, "wire.flush", request, burst as u32, || wire.flush()).is_ok();
        let mut answered = 0;
        while alive && answered < burst {
            match leaf(trace, "wire.recv", request, 1, || wire.recv()) {
                Ok(reply) => {
                    out.latencies_ns.push(flushed_at.elapsed().as_nanos() as u64);
                    answered += 1;
                    let index = (first + (reply.request_id as usize).min(burst - 1)) % pool;
                    let expected = [fx.expected[0][index]];
                    if reply.status == Status::Ok && reply_ok(reply.value, &expected, rows) {
                        client.served[index] = reply.value;
                    } else {
                        out.failed += 1;
                    }
                }
                Err(_) => alive = false,
            }
        }
        if let Some(t) = trace {
            t.exit();
        }
        if !alive {
            // A dead connection fails this burst's unanswered requests and
            // everything the thread still had to send.
            out.failed += (burst - answered) as u64;
            let unsent = (units - unit - 1) * burst;
            out.ops += unsent as u64;
            out.failed += unsent as u64;
            break 'units;
        }
    }
    out
}

/// `wide_batch`: blocking `estimate_many` calls over slices of the pool.
fn batch_client(
    fx: &Fixture,
    thread: usize,
    window: u64,
    client: &mut Client,
    trace: &mut Option<ThreadTrace>,
) -> ThreadOut {
    let server = fx.server.as_ref().expect("serving workloads have a server");
    let (slice, units, pool) = (fx.sizing.unit_ops, fx.sizing.units_per_thread, fx.queries.len());
    assert_eq!(pool % slice, 0, "slices must not wrap around the pool");
    let rows = fx.table.num_rows() as f64;
    let cursor = pool_cursor(fx, thread, window, slice);
    let mut out = ThreadOut { latencies_ns: Vec::with_capacity(units), ..Default::default() };
    for unit in 0..units {
        let first = (cursor + unit * slice) % pool;
        let queries = &fx.queries[first..first + slice];
        let request = ((cursor + unit * slice) / slice) as u64;
        let called_at = Instant::now();
        let reply = leaf(trace, "server.estimate_many", request, slice as u32, || {
            server.estimate_many(TABLE, queries)
        });
        out.latencies_ns.push(called_at.elapsed().as_nanos() as u64);
        out.ops += slice as u64;
        match reply {
            Ok(values) if values.len() == slice => {
                for (k, value) in values.into_iter().enumerate() {
                    if reply_ok(value, &[fx.expected[0][first + k]], rows) {
                        client.served[first + k] = value;
                    } else {
                        out.failed += 1;
                    }
                }
            }
            _ => out.failed += slice as u64,
        }
    }
    out
}

/// `zipf_swap`: blocking `estimate` calls in Zipf order; thread 0 also
/// alternates the table between its two checkpoints.
fn zipf_client(
    fx: &Fixture,
    thread: usize,
    window: u64,
    schedule: &[u32],
    mut installed: Option<&mut usize>,
    client: &mut Client,
    trace: &mut Option<ThreadTrace>,
) -> ThreadOut {
    let server = fx.server.as_ref().expect("serving workloads have a server");
    let rows = fx.table.num_rows() as f64;
    let base = pool_cursor(fx, thread, window, 1) as u64;
    let mut out =
        ThreadOut { latencies_ns: Vec::with_capacity(schedule.len()), ..Default::default() };
    for (j, &index) in schedule.iter().enumerate() {
        let index = index as usize;
        let request = base + j as u64;
        if let Some(installed) = installed.as_deref_mut() {
            if j > 0 && j % fx.sizing.swap_every == 0 {
                let next = 1 - *installed;
                let swapped = leaf(trace, "server.hot_swap", request, 1, || {
                    server.hot_swap(TABLE, &fx.checkpoints[next])
                });
                match swapped {
                    Ok(()) => *installed = next,
                    // A refused swap is a failed operation of its own.
                    Err(_) => {
                        out.ops += 1;
                        out.failed += 1;
                    }
                }
            }
        }
        let called_at = Instant::now();
        let reply = leaf(trace, "server.estimate", request, 1, || {
            server.estimate(TABLE, &fx.queries[index])
        });
        out.latencies_ns.push(called_at.elapsed().as_nanos() as u64);
        out.ops += 1;
        // The swapping thread knows which model must have answered; the
        // other may see either side of a swap in flight.
        let ok = match (&reply, installed.as_deref()) {
            (Ok(value), Some(&model)) => reply_ok(*value, &[fx.expected[model][index]], rows),
            (Ok(value), None) => {
                reply_ok(*value, &[fx.expected[0][index], fx.expected[1][index]], rows)
            }
            (Err(_), _) => false,
        };
        match reply {
            Ok(value) if ok => client.served[index] = value,
            _ => out.failed += 1,
        }
    }
    out
}

/// `train_hybrid`: sample a virtual batch, take one hybrid optimizer step.
/// One op is one anchor tuple; one latency sample is one whole step.
fn train_client(
    fx: &Fixture,
    window: u64,
    lead: Lead<'_>,
    trace: &mut Option<ThreadTrace>,
) -> ThreadOut {
    let trainer = lead.trainer.expect("train_hybrid owns a trainer");
    let inputs = fx.train.as_ref().expect("train_hybrid has training inputs");
    let (units, anchors) = (fx.sizing.units_per_thread, fx.sizing.unit_ops);
    let mut out = ThreadOut { latencies_ns: Vec::with_capacity(units), ..Default::default() };
    let mut loss_sum = 0.0f64;
    for unit in 0..units {
        let request = window * units as u64 + unit as u64;
        let started = Instant::now();
        if let Some(t) = trace {
            t.enter("client.step", request, anchors as u32);
        }
        let batch =
            leaf(trace, "train.sample", request, anchors as u32, || trainer.sample(&fx.table));
        let queries = trainer.next_queries(&inputs.prepared);
        let loss =
            leaf(trace, "train.step", request, anchors as u32, || trainer.step(&batch, &queries));
        if let Some(t) = trace {
            t.exit();
        }
        out.latencies_ns.push(started.elapsed().as_nanos() as u64);
        out.ops += anchors as u64;
        if !loss.is_finite() {
            out.failed += anchors as u64;
        }
        loss_sum += f64::from(loss);
    }
    lead.window_losses.push(loss_sum / units.max(1) as f64);
    out
}
