//! Deterministic serving test harness: a virtual-clock, seeded-RNG
//! multi-client driver over the **server's own serving core**.
//!
//! Concurrency tests that rely on wall-clock timing are flaky by
//! construction: whether a burst overflows a queue depends on how fast the
//! machine drains it. This module removes time and thread scheduling from
//! the equation while changing *nothing else*:
//!
//! * the harness holds the same serving core a [`crate::DuetServer`] holds,
//!   built by the same constructor from the same [`ServeConfig`]: tables are
//!   registered, requests encoded (`prepare`, reload failures counted as the
//!   server counts them), admitted (`Router::admit`: cache, hot set, slot
//!   uid, deadline, shard queue) and batches run on the core's shard
//!   executors (`run_batch`: supervised execution, then wire recycling) by
//!   the code the server ships, and wire bytes go through the same
//!   connection state machine — just driven single-threaded. Both
//!   transports always queue, where the server's doors run a miss on the
//!   calling thread when the shard is idle (the in-process caller, or a
//!   connection's acceptor for its lone request): a single-threaded replay
//!   has no caller thread for that, and its virtual-time scenarios count on
//!   requests waiting for a turn. The in-process transport also differs
//!   from the server's door in its reply sink (a ticket instead of a
//!   channel), and counts what it serves and sheds exactly as that door
//!   does;
//! * a [`VirtualClock`] that only moves when the driver says so, making
//!   deadline expiry a pure function of the script;
//! * scripts generated from a seeded RNG, so a scenario replays
//!   **bit-identically**: the same seed always produces the same
//!   shed/served counts, the same batches, and the same estimates.
//!
//! Two layers are exposed: the single-step [`RouterHarness`] and
//! [`WireSim`] (also used by `tests/zero_alloc.rs` to prove the hot loops
//! allocation-free), and one scripted layer on top — a [`Setup`] says what
//! exists before time starts, a [`Script`] what happens when, and
//! [`replay`] runs the script over either [`Transport`], folding every
//! outcome into a [`ScenarioReport`] whose equality across runs *is* the
//! determinism assertion. The suites differ only in how they generate a
//! script: [`ScenarioConfig::generate`] (seeded arrivals),
//! [`DriftScenarioConfig::generate`] (train-while-serving),
//! [`FaultPlan::inject`] (faults merged into either).

use crate::batcher::{lock, MAX_BATCH};
use crate::core::ServeCore;
use crate::metrics::{Counter, CounterTable, MetricsSnapshot};
use crate::online::{OnlineConfig, OnlineTable};
use crate::registry::Encoded;
use crate::router::{Admission, ReplyTo, RoutedRequest, ShedReason, VirtualClock};
use crate::tier::ModelTier;
use crate::wire::conn::{ConnConfig, WireConn};
use crate::wire::frame::{self, DecodeError, FrameView, ResponseFrame, Status};
use crate::ServeConfig;
use duet_core::{query_to_id_predicates, DuetEstimator};
use duet_data::Table;
use duet_query::{exact_cardinality, CardinalityEstimator, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// An encoded request ready for admission, produced by
/// [`RouterHarness::prepare`]. Opaque; re-submittable after a recycling
/// [`RouterHarness::turn`] hands it back.
pub struct PreparedRequest(pub(crate) RoutedRequest);

impl PreparedRequest {
    /// The dense table index this request addresses.
    pub fn table(&self) -> usize {
        self.0.table_id as usize
    }
}

/// Outcome of submitting one query to the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitResult {
    /// Served from the table's result cache (only with a cache configured).
    Cached(f64),
    /// Admitted; the outcome will appear in [`RouterHarness::outcomes`]
    /// after a worker turn executes it. `depth` is the post-admission queue
    /// depth of the target shard.
    Queued {
        /// Queue depth of the target shard after admission.
        depth: usize,
    },
    /// Rejected at admission: the target shard's queue was full.
    Shed {
        /// Queue depth of the target shard at rejection.
        depth: usize,
    },
}

/// A single-threaded driver over the server's own serving core.
///
/// The harness is the [`crate::DuetServer`]'s core — router, table
/// directory, metrics, model tier and online directory, built and registered
/// exactly as the server builds them from the same [`ServeConfig`] — plus a
/// [`VirtualClock`], a hand-stepped turn over the core's shard executors,
/// and an outcome log. [`RouterHarness::submit_query`] admits,
/// [`RouterHarness::turn`] runs one batch per shard, the clock moves only via
/// [`RouterHarness::clock`]. Ticket replies land in the outcome log instead
/// of channels, so no call ever blocks.
pub struct RouterHarness {
    core: ServeCore,
    clock: Arc<VirtualClock>,
    /// The batch a turn pops into, reused across shards and turns.
    batch: Vec<RoutedRequest>,
    outcomes: Vec<(u64, Result<f64, ShedReason>)>,
}

impl RouterHarness {
    /// Build a harness serving `tables` (name + trained estimator; the index
    /// in the vector becomes the table id, so names must be distinct),
    /// registered in order exactly as [`crate::DuetServer::register`]
    /// registers them under `config`.
    pub fn new(tables: Vec<(String, DuetEstimator)>, config: ServeConfig) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let core = ServeCore::new(&config, clock.clone());
        for (index, (name, estimator)) in tables.into_iter().enumerate() {
            let id = core.register(&name, estimator);
            assert_eq!(id as usize, index, "table names are distinct");
        }
        Self { core, clock, batch: Vec::new(), outcomes: Vec::new() }
    }

    /// Enable the online-learning loop for `table`: `data` is the table the
    /// serving model was trained on (ingest appends to it; it is also the
    /// retrain substrate). Returns the shared state so the driver can
    /// ingest, feed back, and tick directly.
    ///
    /// Panics if `data`'s width differs from the serving schema's.
    pub fn enable_online(
        &mut self,
        table: usize,
        data: Table,
        cfg: OnlineConfig,
    ) -> Arc<Mutex<OnlineTable>> {
        self.core.enable_online(table as u32, data, cfg).expect("online table matches the schema")
    }

    /// The model-memory tier enforcing
    /// [`ServeConfig::model_budget_bytes`] (e.g. to set a spill directory,
    /// or inspect heat).
    pub fn tier(&self) -> &ModelTier {
        &self.core.tier
    }

    /// Arm an injected fault hook on every shard executor. The hook runs
    /// inside the supervised batch execution (after model resolve, before
    /// the forward pass); a panic it throws is caught by the exact
    /// `catch_unwind` supervision the production shard threads run, failing
    /// the batch typed and respawning the executor.
    pub fn arm_fault(&mut self, fault: Arc<dyn Fn() + Send + Sync>) {
        for shard in 0..self.core.router.num_shards() {
            lock(self.core.executor(shard)).fault = Some(fault.clone());
        }
    }

    /// Arm a seeded panic plan: the batch executions whose global ordinal
    /// (0-based, counted across all shards in execution order) appears in
    /// `batches` panic mid-execution. Under the single-threaded harness the
    /// ordinal sequence is a pure function of the script, so a replay hits
    /// the identical batches.
    pub fn arm_panic_batches(&mut self, batches: &[u64]) {
        let mut panic_at = batches.to_vec();
        panic_at.sort_unstable();
        panic_at.dedup();
        let executed = Arc::new(AtomicU64::new(0));
        self.arm_fault(Arc::new(move || {
            let ordinal = executed.fetch_add(1, Ordering::Relaxed);
            if panic_at.binary_search(&ordinal).is_ok() {
                panic!("injected model fault (batch {ordinal})");
            }
        }));
    }

    /// The harness's virtual clock (advance it to make deadlines expire).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The estimator currently serving `table`, resolved as a request
    /// resolves it; panics if an evicted model no longer reloads.
    pub fn estimator(&self, table: usize) -> Arc<DuetEstimator> {
        let slot = self.core.table(table as u32).slot;
        slot.resolve(&self.core.metrics).expect("the serving model reloads").1
    }

    /// Encode `query` against `table`'s schema into a request ready for
    /// admission, through the server's own request builder. With
    /// `ticket: Some(t)`, the outcome is logged under `t`; with `None` it is
    /// discarded (allocation-probe mode).
    pub fn prepare(&self, table: usize, query: &Query, ticket: Option<u64>) -> PreparedRequest {
        let table_id = table as u32;
        let mut request = self.core.prepare(table_id, &self.core.table(table_id), query);
        if let Some(ticket) = ticket {
            request.reply = ReplyTo::Ticket(ticket);
        }
        PreparedRequest(request)
    }

    /// Admit a prepared request through the production admission path. On
    /// rejection the request is handed back (encodings intact) and the
    /// overload shed is recorded; a cache hit is a completed request, as on
    /// the server's in-process door. Allocation-free on a warm queue with
    /// the cache off.
    // The rejected request comes back by value so the recycling driver
    // loops stay allocation-free.
    #[allow(clippy::result_large_err)]
    pub fn submit_prepared(
        &mut self,
        mut request: PreparedRequest,
    ) -> Result<SubmitResult, PreparedRequest> {
        let reply = std::mem::replace(&mut request.0.reply, ReplyTo::Discard);
        let directory = self.core.tables();
        match self.core.router.admit(&directory[request.table()], request.0, None, None, || reply) {
            Admission::Cached(value) => {
                self.core.metrics.incr(Counter::Requests);
                Ok(SubmitResult::Cached(value))
            }
            Admission::RunNow(_) => unreachable!("the harness holds no executor"),
            Admission::Queued { depth } => Ok(SubmitResult::Queued { depth }),
            Admission::Shed { request, .. } => Err(PreparedRequest(request)),
        }
    }

    /// Encode and admit one query (the driver-facing equivalent of
    /// [`crate::DuetServer::estimate`]'s submit pipeline). A table whose
    /// evicted model cannot be reloaded is admitted like any other; the
    /// batch sheds it (counted as a reload failure and an overload shed,
    /// never a panic).
    pub fn submit_query(&mut self, table: usize, query: &Query, ticket: u64) -> SubmitResult {
        let request = self.prepare(table, query, Some(ticket));
        self.submit_prepared(request).unwrap_or_else(|_| SubmitResult::Shed {
            depth: self.core.router.shard(self.core.table(table as u32).shard).depth(),
        })
    }

    /// Run one worker turn: every shard pops and executes at most one
    /// same-table batch at the current virtual time. Returns the number of
    /// requests processed (served + deadline-shed). Allocation-free once
    /// warm. Every estimate a turn delivers to the outcome log is a
    /// completed request (`requests`), as on the server's in-process door;
    /// virtual time is not a latency, so none is sampled.
    ///
    /// With `recycled: Some(sink)` the processed requests are handed back
    /// (their encodings intact) instead of dropped, so an allocation probe
    /// can recycle one fixed request set through the hot loop indefinitely.
    /// Wire-originated requests always go back to their connection's pool.
    pub fn turn(&mut self, mut recycled: Option<&mut Vec<PreparedRequest>>) -> usize {
        let mut processed = 0;
        for shard_index in 0..self.core.router.num_shards() {
            if !self.core.router.shard(shard_index).try_pop_batch(MAX_BATCH, &mut self.batch) {
                continue;
            }
            processed += self.batch.len();
            let mut executor = lock(self.core.executor(shard_index));
            self.core.run_batch(&mut executor, &self.core.tables(), &mut self.batch);
            for (ticket, outcome) in executor.outcomes.drain(..) {
                if outcome.is_ok() {
                    self.core.metrics.incr(Counter::Requests);
                }
                self.outcomes.push((ticket, outcome));
            }
            if let Some(sink) = recycled.as_deref_mut() {
                sink.extend(self.batch.drain(..).map(PreparedRequest));
            }
        }
        processed
    }

    /// Run worker turns (without advancing the clock) until every queue is
    /// empty; returns the number of requests processed.
    pub fn drain(&mut self) -> usize {
        let mut total = 0;
        while self.queue_depth() > 0 {
            total += self.turn(None);
        }
        total
    }

    /// Ticket outcomes recorded so far, in execution order.
    pub fn outcomes(&self) -> &[(u64, Result<f64, ShedReason>)] {
        &self.outcomes
    }

    /// Clear the ticket outcome log.
    pub fn clear_outcomes(&mut self) {
        self.outcomes.clear();
    }

    /// Total queued requests across all shards.
    pub fn queue_depth(&self) -> usize {
        self.core.router.queue_depth()
    }

    /// Depth of the deepest shard queue.
    fn deepest_shard(&self) -> usize {
        self.core.router.shards().iter().map(|shard| shard.depth()).max().unwrap_or(0)
    }

    /// A point-in-time snapshot of the harness's metrics, taken as
    /// [`crate::DuetServer::metrics`] takes it.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics()
    }
}

impl std::fmt::Debug for RouterHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHarness")
            .field("tables", &self.core.tables().len())
            .field("shards", &self.core.router.num_shards())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// How scripted clients spread their requests over tables and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Jittered-uniform inter-arrival gaps, tables chosen uniformly.
    Uniform,
    /// Clients emit `burst_size` back-to-back requests (zero gap), then go
    /// idle for `burst_size` mean gaps — the queue-overflow scenario.
    Bursty {
        /// Requests per burst.
        burst_size: usize,
    },
    /// Jittered-uniform gaps, but `hot_permille`/1000 of all requests target
    /// `hot_table` — the skew scenario for routing fairness.
    HotTable {
        /// Index of the hot table.
        hot_table: usize,
        /// Probability (per mille) that a request targets the hot table.
        hot_permille: u16,
    },
}

/// Deterministic summary of one scenario replay: integer counters only, so
/// two replays with the same seed can be compared with `==` — that equality
/// *is* the determinism assertion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioReport {
    /// Requests the script submitted.
    pub submitted: u64,
    /// Requests answered with an estimate.
    pub served: u64,
    /// Requests answered "retry": rejected at admission (model could not be
    /// reloaded to encode the request, shard queue or connection pipeline
    /// full), or failed at dequeue because the model could not be reloaded
    /// or the table had been re-registered. Every one but the last is a
    /// `shed_overload` the server counted too, on either transport.
    pub shed_overload: u64,
    /// Requests dropped at dequeue (deadline expired).
    pub shed_deadline: u64,
    /// Requests answered with a typed internal fault: their batch panicked,
    /// the panic was caught by shard supervision, and every request in it
    /// was failed [`ShedReason::WorkerPanicked`].
    pub shed_internal: u64,
    /// Per-table submissions.
    pub per_table_submitted: Vec<u64>,
    /// Per-table served counts.
    pub per_table_served: Vec<u64>,
    /// Per-table shed counts (every shed reason).
    pub per_table_shed: Vec<u64>,
    /// Highest single-shard queue depth observed after any arrival.
    pub max_shard_depth: usize,
    /// Served results whose bits differed from the unbatched per-query
    /// reference (must be 0: routing/batching never changes an answer).
    pub mismatches: u64,
    /// Requests served that were submitted after their table's first online
    /// publish.
    pub post_swap_served: u64,
    /// Hot-set entries replayed into the cache by online publishes.
    pub hot_replayed: u64,
    /// What the *server* counted: every [`Counter`] of the harness's
    /// [`crate::ServeMetrics`] at the end of the replay (`counters[Counter::Batches]`,
    /// `counters[Counter::ModelReloads]`, …). The fields above are what the
    /// client saw; this is the server's own table, not a copy of it, so the
    /// two can be checked against each other.
    pub counters: CounterTable,
}

impl ScenarioReport {
    /// `served + shed_overload + shed_deadline + shed_internal` — every
    /// submitted request must be accounted for exactly once, faults
    /// included.
    pub fn accounted(&self) -> u64 {
        self.served + self.shed_overload + self.shed_deadline + self.shed_internal
    }

    /// File the one terminal outcome of the query behind `ticket` — the only
    /// outcome fold, whichever transport delivered it. `expected` holds the
    /// table's reference values per model generation; any generation from
    /// the one current at submission onwards may have answered (a request
    /// admitted before a publish can execute after it).
    fn record(&mut self, ticket: Ticket, expected: &[Vec<f64>], outcome: Result<f64, ShedReason>) {
        match outcome {
            Ok(value) => {
                self.served += 1;
                self.per_table_served[ticket.table] += 1;
                self.post_swap_served += u64::from(ticket.generation > 0);
                let matched = expected[ticket.generation..]
                    .iter()
                    .any(|values| values[ticket.query].to_bits() == value.to_bits());
                self.mismatches += u64::from(!matched);
            }
            Err(reason) => {
                self.per_table_shed[ticket.table] += 1;
                match reason {
                    // Neither is about time: the client is told to retry
                    // (after re-resolving the table, if it was re-registered).
                    ShedReason::QueueFull | ShedReason::StaleRegistration => {
                        self.shed_overload += 1;
                    }
                    ShedReason::DeadlineExpired => self.shed_deadline += 1,
                    ShedReason::WorkerPanicked => self.shed_internal += 1,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire simulation: the real frame codec and connection state machine over
// in-memory byte buffers.
// ---------------------------------------------------------------------------

/// How a simulated client's written bytes are delivered to its connection.
///
/// Real TCP makes no promise that one `write` becomes one `read`; this knob
/// recreates both failure shapes deterministically so the framing layer is
/// tested against them, not around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkMode {
    /// Every written byte is delivered immediately, whole — the "one write,
    /// one read" best case.
    Exact,
    /// Bytes are delivered in seeded random chunks of `1..=max` bytes, and a
    /// tail is sometimes held back until the client's next activity — so
    /// frames arrive split across reads *and* coalesced with later frames.
    Random {
        /// Largest single delivery, in bytes (≥ 1).
        max: usize,
    },
}

/// A byte-level wire simulator: a [`RouterHarness`] fronted by real
/// [`WireConn`] state machines, with the transport replaced by in-memory
/// byte buffers.
///
/// This is the low-level layer: callers write protocol bytes with
/// [`WireSim::feed`], step the server with [`WireSim::pump`] (decode +
/// admission + response encode) and [`WireSim::turn`] (one worker batch per
/// shard), and read response bytes back with [`WireSim::output`]. Nothing
/// here touches a socket or a thread, so `tests/zero_alloc.rs` can hold an
/// allocation counter over the whole loop. [`replay`] drives it from a
/// [`Script`] under [`Transport::Wire`].
pub struct WireSim {
    harness: RouterHarness,
    conns: Vec<WireConn>,
    conn_config: ConnConfig,
    /// Connections torn down via [`WireSim::disconnect`].
    drops: u64,
}

impl WireSim {
    /// A simulator over `tables` with `connections` wire connections, each
    /// running the given connection config.
    pub fn new(
        tables: Vec<(String, DuetEstimator)>,
        config: ServeConfig,
        conn_config: ConnConfig,
        connections: usize,
    ) -> Self {
        Self {
            harness: RouterHarness::new(tables, config),
            conns: (0..connections).map(|_| WireConn::new(conn_config)).collect(),
            conn_config,
            drops: 0,
        }
    }

    /// Simulate a mid-stream client disconnect: connection `conn` is torn
    /// down — half-received request bytes, in-flight tracking, and unsent
    /// response bytes all dropped, exactly what closing the socket does —
    /// and replaced with a fresh connection awaiting a new preamble.
    /// Requests the old connection had already admitted still execute;
    /// their completions land in the orphaned outbox and are never read,
    /// which is the documented fate of replies to a dead peer.
    pub fn disconnect(&mut self, conn: usize) {
        self.conns[conn] = WireConn::new(self.conn_config);
        self.drops += 1;
    }

    /// Connections dropped via [`WireSim::disconnect`] so far.
    pub fn conn_drops(&self) -> u64 {
        self.drops
    }

    /// The underlying single-step harness (clock, queue depths, metrics).
    pub fn harness(&self) -> &RouterHarness {
        &self.harness
    }

    /// The simulator's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        self.harness.clock()
    }

    /// Deliver raw client bytes to connection `conn` (the simulated
    /// counterpart of a socket read).
    pub fn feed(&mut self, conn: usize, bytes: &[u8]) {
        self.conns[conn].feed(bytes);
    }

    /// Run connection `conn`'s state machine: decode complete frames, admit
    /// requests to the real shard queues (a lone request too: the sim
    /// pumps without an acceptor's hold), and encode any finished responses
    /// into the connection's output buffer. Returns whether anything
    /// happened; a [`DecodeError`] means the byte stream was corrupt (a real
    /// listener would close the connection).
    pub fn pump(&mut self, conn: usize) -> Result<bool, DecodeError> {
        self.conns[conn].pump(&self.harness.core, false)
    }

    /// One worker turn at the current virtual time (see
    /// [`RouterHarness::turn`]); wire-originated requests are recycled back
    /// to their connections' pools.
    pub fn turn(&mut self) -> usize {
        self.harness.turn(None)
    }

    /// Response bytes waiting to be "read" by connection `conn`'s client.
    pub fn output(&self, conn: usize) -> &[u8] {
        self.conns[conn].output()
    }

    /// Discard `n` bytes of connection `conn`'s output (the client read
    /// them).
    pub fn consume_output(&mut self, conn: usize, n: usize) {
        self.conns[conn].consume_output(n);
    }

    /// Requests admitted on connection `conn` whose responses have not been
    /// encoded yet.
    pub fn inflight(&self, conn: usize) -> usize {
        self.conns[conn].inflight()
    }
}

impl std::fmt::Debug for WireSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireSim")
            .field("connections", &self.conns.len())
            .field("harness", &self.harness)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Scripts: a setup, time-ordered steps, and the transport that carries them.
// ---------------------------------------------------------------------------

/// What exists before virtual time starts. Built by the generators below;
/// [`replay`] only reads it.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Table name (which determines its shard) and trained estimator; the
    /// index is the table id.
    tables: Vec<(String, DuetEstimator)>,
    /// `workloads[t]` is the query pool steps against table `t` index into.
    workloads: Vec<Vec<Query>>,
    harness: ServeConfig,
    /// Tables running the online loop: `(table, the rows its model was
    /// trained on, tuning)`.
    online: Vec<(usize, Table, OnlineConfig)>,
    /// Where evictions spill (`None`: checkpoints stay in memory).
    spill_dir: Option<PathBuf>,
}

/// What happens when. A script says nothing about how its client steps
/// reach the server: [`replay`] runs it over either [`Transport`].
#[derive(Debug, Clone)]
pub struct Script {
    /// The generator's seed; the wire transport derives its chunking stream
    /// from it.
    seed: u64,
    /// Scripted clients (one wire connection each).
    clients: usize,
    /// Virtual cadence of worker turns (each shard pops one batch per turn).
    service_every: Duration,
    /// `(virtual ns, step)` in time order; ties run in list order.
    steps: Vec<(u64, Step)>,
    /// See [`RouterHarness::arm_panic_batches`].
    panic_batches: Vec<u64>,
}

#[derive(Debug, Clone)]
enum Step {
    /// `client` asks for `workloads[table][query]`.
    Query {
        client: usize,
        table: usize,
        query: usize,
    },
    /// `client` appends dictionary-encoded rows to `table`.
    Ingest {
        client: usize,
        table: usize,
        rows: Vec<Vec<u32>>,
    },
    /// `client` reports `actual`, the true cardinality of
    /// `workloads[table][query]` over the rows `table` holds at this instant.
    Feedback {
        client: usize,
        table: usize,
        query: usize,
        actual: f64,
    },
    /// One trainer tick on `table`'s online state.
    Tick {
        table: usize,
    },
    // The checkpoint/spill faults of a [`FaultPlan`].
    DamageCheckpoint {
        table: usize,
        damage: Damage,
    },
    RestoreCheckpoint,
    BreakSpillDir,
    FixSpillDir,
}

/// How [`Step::DamageCheckpoint`] mangles a spilled checkpoint file.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Flip the final byte (checksum-covered payload corruption).
    FlipByte,
    /// Cut the file to half its length (a torn write).
    Truncate,
}

/// How a script's client steps reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Queries are tickets through [`RouterHarness::submit_query`]; ingest,
    /// feedback and ticks are calls into the serving core, the calls the
    /// server's own door makes.
    InProcess,
    /// Every client step is encoded to protocol bytes, delivered (possibly
    /// split/coalesced), decoded and admitted by the real [`WireConn`]
    /// state machine, and read back as a response frame.
    Wire {
        /// How client bytes reach the server.
        chunk: ChunkMode,
        /// Per-connection in-flight cap before the server answers
        /// `Overloaded` from the wire layer itself.
        max_pipeline: usize,
    },
}

/// Seeded multi-client arrivals (see [`ScenarioConfig::generate`]).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Seed for the arrival script (same seed ⇒ identical replay).
    pub seed: u64,
    /// Number of scripted clients.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Mean virtual inter-arrival gap per client.
    pub mean_gap: Duration,
    /// Virtual cadence of worker turns (each shard pops one batch per turn).
    pub service_every: Duration,
    /// Arrival pattern under test.
    pub pattern: ArrivalPattern,
    /// Server (router/cache/tier) configuration of the harness.
    pub harness: ServeConfig,
}

fn pick_table(rng: &mut SmallRng, pattern: ArrivalPattern, num_tables: usize) -> usize {
    match pattern {
        ArrivalPattern::HotTable { hot_table, hot_permille } => {
            let hot = hot_table.min(num_tables - 1);
            if rng.gen_range(0u32..1000) < u32::from(hot_permille) || num_tables == 1 {
                hot
            } else {
                // Uniform over the other tables.
                let mut t = rng.gen_range(0..num_tables - 1);
                if t >= hot {
                    t += 1;
                }
                t
            }
        }
        _ => rng.gen_range(0..num_tables),
    }
}

impl ScenarioConfig {
    /// The setup and the deterministic arrival script of this scenario.
    ///
    /// `tables[i]` pairs a table name with its trained estimator;
    /// `workloads[i]` is the query pool scripted clients draw from for that
    /// table.
    pub fn generate(
        &self,
        tables: &[(String, DuetEstimator)],
        workloads: &[Vec<Query>],
    ) -> (Setup, Script) {
        assert_eq!(tables.len(), workloads.len(), "one workload per table");
        assert!(!tables.is_empty(), "need at least one table");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let gap_ns = self.mean_gap.as_nanos().max(1) as u64;
        let mut steps = Vec::with_capacity(self.clients * self.requests_per_client);
        for client in 0..self.clients {
            // Stagger client start times across one mean gap.
            let mut at_ns = gap_ns * client as u64 / self.clients.max(1) as u64;
            for k in 0..self.requests_per_client {
                let table = pick_table(&mut rng, self.pattern, workloads.len());
                let query = rng.gen_range(0..workloads[table].len());
                steps.push((at_ns, Step::Query { client, table, query }));
                at_ns += match self.pattern {
                    ArrivalPattern::Bursty { burst_size } => {
                        let burst = burst_size.max(1);
                        if (k + 1) % burst == 0 {
                            gap_ns * burst as u64
                        } else {
                            0
                        }
                    }
                    // 50%..150% jitter around the mean gap.
                    _ => gap_ns * rng.gen_range(50u64..=150) / 100,
                };
            }
        }
        // Stable sort: simultaneous arrivals keep client order, so the replay
        // order is a pure function of the script.
        steps.sort_by_key(|&(at_ns, _)| at_ns);
        let setup = Setup {
            tables: tables.to_vec(),
            workloads: workloads.to_vec(),
            harness: self.harness,
            online: Vec::new(),
            spill_dir: None,
        };
        let script = Script {
            seed: self.seed,
            clients: self.clients,
            service_every: self.service_every,
            steps,
            panic_batches: Vec::new(),
        };
        (setup, script)
    }
}

/// A seeded train-while-serving scenario: warm traffic over one table, a
/// mid-run distribution shift injected through the online ingest path,
/// trainer ticks and query feedback on fixed cadences, then post-shift
/// traffic — the whole drift → retrain → hot-swap sequence (see
/// [`DriftScenarioConfig::generate`]).
#[derive(Debug, Clone)]
pub struct DriftScenarioConfig {
    /// Seed of the scenario script (query picks + skewed-row generation).
    /// Same seed ⇒ identical [`ScenarioReport`].
    pub seed: u64,
    /// Queries served before the shift (builds the hot set and the cache).
    pub warm_queries: usize,
    /// Skewed rows ingested at the shift: every column's value is drawn
    /// from the top eighth of its dictionary, moving histogram mass the
    /// drift monitor must notice.
    pub shift_rows: usize,
    /// Queries served after the shift (the trainer runs during this phase).
    pub post_queries: usize,
    /// Trainer-tick cadence: one [`OnlineTable::tick`] every this many
    /// post-shift queries (0 disables ticking — the drift is never acted
    /// on).
    pub tick_every: usize,
    /// Feedback cadence: every this many post-shift queries, the true
    /// cardinality of the query just served is pushed back (0 disables
    /// feedback).
    pub feedback_every: usize,
    /// Online-learning tuning (threshold, hysteresis, retrain budget).
    pub online: OnlineConfig,
    /// Server (router/cache/tier) configuration of the harness; its
    /// `hot_keys` sizes the hot set replayed after an online publish.
    pub harness: ServeConfig,
}

impl Default for DriftScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            warm_queries: 64,
            shift_rows: 512,
            post_queries: 64,
            tick_every: 8,
            feedback_every: 4,
            online: OnlineConfig::default(),
            harness: ServeConfig {
                cache_capacity: 256,
                cache_shards: 1,
                hot_keys: 16,
                ..ServeConfig::default()
            },
        }
    }
}

impl DriftScenarioConfig {
    /// The setup and script of this scenario: one client replays `workload`
    /// against `estimator`, which was trained on `table`. Report equality
    /// across replays (generation bumps, retrain counts and post-swap
    /// serving included) is the online loop's determinism assertion.
    pub fn generate(
        &self,
        table: &Table,
        estimator: &DuetEstimator,
        workload: &[Query],
    ) -> (Setup, Script) {
        assert!(!workload.is_empty(), "need a workload to replay");
        // One query per period, and the workers turn on the same period: the
        // turn at `at_ns + PERIOD_NS` runs before the steps scripted for that
        // instant, so the order is always serve query `i` → its feedback →
        // the tick → query `i + 1`.
        const PERIOD_NS: u64 = 100_000;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x44_52_49_46); // "DRIF"
        let ndvs: Vec<usize> = (0..table.num_columns()).map(|c| table.column(c).ndv()).collect();
        // The rows the server's online table holds as the script runs, so
        // feedback reports the cardinality the server's rows give.
        let mut live = table.clone();
        let mut steps = Vec::new();
        for i in 0..self.warm_queries + self.post_queries {
            let at_ns = PERIOD_NS * (i as u64 + 1);
            if i == self.warm_queries {
                // The shift: a burst of rows skewed onto the top of every
                // column's dictionary, appended through the validated ingest
                // path (so the live histograms move incrementally, exactly as
                // production ingest would move them).
                let mut rows = Vec::with_capacity(self.shift_rows);
                for _ in 0..self.shift_rows {
                    let skewed = ndvs.iter().map(|&ndv| {
                        let band = (ndv / 8).max(1).min(ndv);
                        (ndv - 1 - rng.gen_range(0..band)) as u32
                    });
                    let row: Vec<u32> = skewed.collect();
                    live.append_row_ids(&row);
                    rows.push(row);
                }
                steps.push((at_ns, Step::Ingest { client: 0, table: 0, rows }));
            }
            let query = rng.gen_range(0..workload.len());
            steps.push((at_ns, Step::Query { client: 0, table: 0, query }));
            if let Some(k) = i.checked_sub(self.warm_queries) {
                let served_ns = at_ns + PERIOD_NS;
                if self.feedback_every > 0 && k.is_multiple_of(self.feedback_every) {
                    let actual = exact_cardinality(&live, &workload[query]) as f64;
                    steps.push((served_ns, Step::Feedback { client: 0, table: 0, query, actual }));
                }
                if self.tick_every > 0 && (k + 1).is_multiple_of(self.tick_every) {
                    steps.push((served_ns, Step::Tick { table: 0 }));
                }
            }
        }
        let setup = Setup {
            tables: vec![("drift".to_string(), estimator.clone())],
            workloads: vec![workload.to_vec()],
            harness: self.harness,
            online: vec![(0, table.clone(), self.online)],
            spill_dir: None,
        };
        let script = Script {
            seed: self.seed,
            clients: 1,
            service_every: Duration::from_nanos(PERIOD_NS),
            steps,
            panic_batches: Vec::new(),
        };
        (setup, script)
    }
}

/// A seeded fault-injection plan, merged into a generated scenario by
/// [`FaultPlan::inject`]. Faults are addressed in deterministic script
/// coordinates — global batch-execution ordinals and arrival indices — so
/// replaying the same plan over the same scenario injects the identical
/// faults at the identical points, and the two [`ScenarioReport`]s compare
/// equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Batch executions (0-based global ordinals, in execution order) that
    /// panic mid-forward: supervision fails every request of the batch
    /// typed ([`ShedReason::WorkerPanicked`]) and respawns the worker.
    pub panic_batches: Vec<u64>,
    /// `(event index, table)`: flip one payload byte of the table's spilled
    /// checkpoint file just before that arrival, so subsequent lazy reloads
    /// fail the frame checksum until the file is restored.
    pub corrupt_checkpoint_at: Option<(u64, usize)>,
    /// `(event index, table)`: truncate the table's spilled checkpoint to
    /// half its length instead (the torn-write shape).
    pub truncate_checkpoint_at: Option<(u64, usize)>,
    /// Event index at which the damaged file's original bytes are written
    /// back — the "repaired checkpoint heals the slot on the very next
    /// request" path.
    pub restore_checkpoint_at: Option<u64>,
    /// Event index at which the tier's spill directory is replaced with a
    /// path blocked by a plain file, making every subsequent spill attempt
    /// an IO error (counted as `spill_failures`; the victim model stays
    /// resident, over budget).
    pub break_spill_dir_at: Option<u64>,
    /// Event index at which the real spill directory is restored.
    pub fix_spill_dir_at: Option<u64>,
    /// The real spill directory evictions write to. Required by every
    /// checkpoint/spill fault above; the caller owns its lifetime.
    pub spill_dir: Option<PathBuf>,
}

impl FaultPlan {
    /// Merge this plan into a generated scenario: the spill directory goes
    /// into the setup, the panic ordinals and one step per scheduled fault
    /// into the script.
    ///
    /// An event index counts the script's queries. A fault at index `n`
    /// fires just before query `n` — after everything up to the previous
    /// step, before the worker turns that lead up to the query — so it takes
    /// the previous step's timestamp.
    pub fn inject(&self, setup: &mut Setup, script: &mut Script) {
        setup.spill_dir = self.spill_dir.clone();
        script.panic_batches = self.panic_batches.clone();
        let damage = |at: Option<(u64, usize)>, damage| {
            at.map(|(index, table)| (index, Step::DamageCheckpoint { table, damage }))
        };
        let faults: Vec<(u64, Step)> = [
            damage(self.corrupt_checkpoint_at, Damage::FlipByte),
            damage(self.truncate_checkpoint_at, Damage::Truncate),
            self.restore_checkpoint_at.map(|index| (index, Step::RestoreCheckpoint)),
            self.break_spill_dir_at.map(|index| (index, Step::BreakSpillDir)),
            self.fix_spill_dir_at.map(|index| (index, Step::FixSpillDir)),
        ]
        .into_iter()
        .flatten()
        .collect();

        let mut merged: Vec<(u64, Step)> = Vec::with_capacity(script.steps.len() + faults.len());
        let mut queries = 0u64;
        for (at_ns, step) in script.steps.drain(..) {
            if matches!(step, Step::Query { .. }) {
                let fault_ns = merged.last().map_or(0, |&(previous_ns, _)| previous_ns);
                for (_, fault) in faults.iter().filter(|&&(index, _)| index == queries) {
                    merged.push((fault_ns, fault.clone()));
                }
                queries += 1;
            }
            merged.push((at_ns, step));
        }
        script.steps = merged;
    }
}

// ---------------------------------------------------------------------------
// Replay: the one driver.
// ---------------------------------------------------------------------------

/// Replay `script` over `setup`, with every client step carried by
/// `transport`, and fold the outcomes into a [`ScenarioReport`].
///
/// The workers turn every `service_every` of virtual time and the script's
/// steps run at their own timestamps in between; after the last step the
/// cadence continues until every request has its one terminal outcome. The
/// contract, faults or not, on either transport: `accounted() == submitted`
/// (a panicking batch answers [`ShedReason::WorkerPanicked`], an
/// unreloadable model sheds), `mismatches == 0` (whatever *is* served is
/// bit-identical to the unbatched per-query reference of a model that could
/// have served it), and replaying the same inputs yields an `==` report,
/// every counter included.
pub fn replay(setup: &Setup, script: &Script, transport: Transport) -> ScenarioReport {
    let mut run = Replay::new(setup, script, transport);
    let service_ns = script.service_every.as_nanos().max(1) as u64;
    let mut next_service = service_ns;
    for (at_ns, step) in &script.steps {
        // Run the worker cadence up to this step.
        while next_service <= *at_ns {
            run.sim.clock().set(Duration::from_nanos(next_service));
            run.service();
            next_service += service_ns;
        }
        run.sim.clock().set(Duration::from_nanos(*at_ns));
        run.apply(step);
    }

    // Every step is in: flush the bytes clients still hold back, then keep
    // the cadence going (so deadlines keep expiring in virtual time, not all
    // at once) until each request id has had its one response.
    for conn in 0..run.pending.len() {
        run.deliver(conn, true);
    }
    let mut idle_turns = 0u32;
    while run.answered < run.tickets.len() {
        run.sim.clock().advance(script.service_every);
        let processed = run.service();
        idle_turns = if processed == 0 { idle_turns + 1 } else { 0 };
        assert!(idle_turns < 1000, "drain stalled: a request produced no response");
    }

    run.report.counters = run.sim.harness.metrics().counters();
    run.report
}

/// Unbatched per-query estimates of `queries`: the bit-identity baseline.
fn reference_values(estimator: &DuetEstimator, queries: &[Query]) -> Vec<f64> {
    let mut reference = estimator.clone();
    queries.iter().map(|q| reference.estimate(q)).collect()
}

/// What a replay remembers about one submitted query, by request id.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    table: usize,
    query: usize,
    /// Online publishes `table` had seen at submission (an index into the
    /// table's reference values).
    generation: usize,
}

/// The state of one [`replay`]: the server under test, the simulated
/// clients, and the report being folded.
struct Replay<'a> {
    setup: &'a Setup,
    transport: Transport,
    /// The server; it has no connections under [`Transport::InProcess`].
    sim: WireSim,
    /// Per wire client, the bytes written but not yet delivered.
    pending: Vec<Vec<u8>>,
    /// Transport chunking gets its own seeded stream so arrival scripting
    /// and delivery fragmentation are independent dimensions of one seed.
    chunk_rng: SmallRng,
    /// By request id (global across clients). `None` is an ingest or
    /// feedback frame, which expects an `Ok` acknowledgement and nothing
    /// else; in-process those steps are plain calls and take no id.
    tickets: Vec<Option<Ticket>>,
    /// Request ids that have had their response.
    answered: usize,
    /// `expected[table][generation][query]`: reference values under every
    /// model `table` has served, the registered one first.
    expected: Vec<Vec<Vec<f64>>>,
    /// Original bytes of the damaged checkpoint, for the restore step.
    damaged: Option<(PathBuf, Vec<u8>)>,
    report: ScenarioReport,
}

impl<'a> Replay<'a> {
    fn new(setup: &'a Setup, script: &Script, transport: Transport) -> Self {
        let (connections, conn_config) = match transport {
            Transport::InProcess => (0, ConnConfig::default()),
            Transport::Wire { max_pipeline, .. } => (
                script.clients,
                ConnConfig { max_pipeline: max_pipeline.max(1), ..ConnConfig::default() },
            ),
        };
        let mut sim = WireSim::new(setup.tables.clone(), setup.harness, conn_config, connections);
        sim.harness.tier().set_spill_dir(setup.spill_dir.clone());
        sim.harness.arm_panic_batches(&script.panic_batches);
        for (table, data, config) in &setup.online {
            sim.harness.enable_online(*table, data.clone(), *config);
        }
        // Every connection starts by writing the protocol preamble.
        let mut preamble = Vec::new();
        frame::encode_preamble(&mut preamble);
        let models = setup.tables.iter().zip(&setup.workloads);
        Self {
            setup,
            transport,
            sim,
            pending: vec![preamble; connections],
            chunk_rng: SmallRng::seed_from_u64(script.seed ^ 0x57_49_52_45), // "WIRE"
            tickets: Vec::new(),
            answered: 0,
            expected: models
                .map(|((_, model), pool)| vec![reference_values(model, pool)])
                .collect(),
            damaged: None,
            report: ScenarioReport {
                per_table_submitted: vec![0; setup.tables.len()],
                per_table_served: vec![0; setup.tables.len()],
                per_table_shed: vec![0; setup.tables.len()],
                ..ScenarioReport::default()
            },
        }
    }

    /// One worker turn at the current virtual time, then pick up whatever it
    /// answered: ticket outcomes from the harness log, response frames from
    /// every connection. Returns the number of requests processed.
    fn service(&mut self) -> usize {
        let processed = self.sim.turn();
        for (id, outcome) in std::mem::take(&mut self.sim.harness.outcomes) {
            self.record(id, outcome);
        }
        for conn in 0..self.pending.len() {
            self.sim.pump(conn).expect("pump after turn cannot hit new input");
            self.collect(conn);
        }
        processed
    }

    /// Run one scripted step at the current virtual time.
    fn apply(&mut self, step: &Step) {
        let setup = self.setup;
        let wire = matches!(self.transport, Transport::Wire { .. });
        match *step {
            Step::Query { client, table, query } => {
                let generation = self.expected[table].len() - 1;
                let id = self.issue(Some(Ticket { table, query, generation }));
                self.report.submitted += 1;
                self.report.per_table_submitted[table] += 1;
                let query = &setup.workloads[table][query];
                if wire {
                    let (preds, intervals) = encode(setup, table, query);
                    // Deadline 0: defer to the router's configured budget.
                    let buf = &mut self.pending[client];
                    frame::encode_request(buf, id, table as u32, 0, &preds, &intervals);
                    self.exchange(client);
                } else {
                    match self.sim.harness.submit_query(table, query, id) {
                        SubmitResult::Cached(value) => self.record(id, Ok(value)),
                        SubmitResult::Queued { .. } => {}
                        SubmitResult::Shed { .. } => self.record(id, Err(ShedReason::QueueFull)),
                    }
                }
                self.report.max_shard_depth =
                    self.report.max_shard_depth.max(self.sim.harness.deepest_shard());
            }
            Step::Ingest { client, table, ref rows } => {
                if wire {
                    for row in rows {
                        let id = self.issue(None);
                        frame::encode_ingest(&mut self.pending[client], id, table as u32, row);
                    }
                    self.exchange(client);
                } else {
                    let core = &self.sim.harness.core;
                    let record = core.table(table as u32);
                    let online = core.online.get(table).expect("scripted rows go to online tables");
                    for row in rows {
                        let ingested = core.ingest(&online, &record, row);
                        ingested.expect("scripted rows stay inside the dictionary");
                    }
                }
            }
            Step::Feedback { client, table, query, actual } => {
                let (preds, intervals) = encode(setup, table, &setup.workloads[table][query]);
                if wire {
                    let id = self.issue(None);
                    let buf = &mut self.pending[client];
                    frame::encode_feedback(buf, id, table as u32, actual, &preds, &intervals);
                    self.exchange(client);
                } else {
                    let core = &self.sim.harness.core;
                    let record = core.table(table as u32);
                    let online = core.online.get(table).expect("scripted feedback is online");
                    let pushed = core.feedback(&online, &record, (preds, intervals), actual);
                    pushed.expect("in-run feedback is never stale");
                }
            }
            Step::Tick { table } => {
                let core = &self.sim.harness.core;
                let record = core.table(table as u32);
                let online = core.online.get(table).expect("scripted ticks address online tables");
                let tick = core.tick(&online, &record).expect("scripted ticks never panic");
                self.report.hot_replayed += tick.replayed as u64;
                if tick.swapped {
                    // Replies from here on are checked against the model just
                    // published.
                    let published = self.sim.harness.estimator(table);
                    self.expected[table]
                        .push(reference_values(&published, &setup.workloads[table]));
                }
            }
            Step::DamageCheckpoint { table, damage } => {
                let dir = setup.spill_dir.as_ref().expect("checkpoint faults need a spill dir");
                self.damaged = Some(damage_checkpoint(&self.sim.harness, dir, table, damage));
            }
            Step::RestoreCheckpoint => {
                let (path, original) =
                    self.damaged.take().expect("restore scripted before any checkpoint damage");
                std::fs::write(&path, original).expect("restoring the checkpoint file");
            }
            Step::BreakSpillDir => {
                let dir = setup.spill_dir.as_ref().expect("spill-dir faults need a spill dir");
                // A plain file where the spill directory should be: every
                // subsequent spill fails `create_dir_all` with a real IO error.
                let blocker = dir.join("spill-blocker");
                std::fs::write(&blocker, b"x").expect("writing the spill-dir blocker");
                self.sim.harness.tier().set_spill_dir(Some(blocker));
            }
            Step::FixSpillDir => self.sim.harness.tier().set_spill_dir(setup.spill_dir.clone()),
        }
    }

    /// Allot the next request id.
    fn issue(&mut self, ticket: Option<Ticket>) -> u64 {
        self.tickets.push(ticket);
        self.tickets.len() as u64 - 1
    }

    /// `client` was active: deliver what the chunking lets through, then
    /// read back what the server has to say.
    fn exchange(&mut self, client: usize) {
        self.deliver(client, false);
        self.collect(client);
    }

    /// Move up to the whole pending buffer of client `conn` into its server
    /// connection, split/held-back per the transport's [`ChunkMode`].
    fn deliver(&mut self, conn: usize, everything: bool) {
        let Transport::Wire { chunk, .. } = self.transport else { return };
        let pending = &mut self.pending[conn];
        while !pending.is_empty() {
            let take = match chunk {
                ChunkMode::Exact => pending.len(),
                ChunkMode::Random { max } => {
                    if !everything && self.chunk_rng.gen_range(0u32..4) == 0 {
                        // Hold the tail back: it will coalesce with the
                        // client's next write.
                        break;
                    }
                    self.chunk_rng.gen_range(1..=max.max(1)).min(pending.len())
                }
            };
            self.sim.feed(conn, &pending[..take]);
            pending.drain(..take);
            self.sim.pump(conn).expect("simulated clients speak the protocol");
        }
    }

    /// Read every response frame the server has produced for `conn`: query
    /// answers are folded into the report, ingest and feedback
    /// acknowledgements must be `Ok`.
    fn collect(&mut self, conn: usize) {
        let mut read = 0;
        while let Some((view, consumed)) =
            frame::next_frame(&self.sim.output(conn)[read..], frame::DEFAULT_MAX_FRAME_LEN)
                .expect("server frames are well-formed")
        {
            read += consumed;
            let FrameView::Response(response) = view else { continue };
            match self.tickets[response.request_id as usize] {
                Some(_) => self.record(response.request_id, wire_outcome(&response)),
                None => {
                    assert_eq!(response.status, Status::Ok, "scripted ingest/feedback is valid");
                    self.answered += 1;
                }
            }
        }
        self.sim.consume_output(conn, read);
    }

    /// Fold the terminal outcome of query `id` into the report.
    fn record(&mut self, id: u64, outcome: Result<f64, ShedReason>) {
        let ticket = self.tickets[id as usize].expect("only queries have outcomes");
        self.answered += 1;
        self.report.record(ticket, &self.expected[ticket.table], outcome);
    }
}

/// `query` in the canonical per-column id layout, encoded with the schema
/// the client was set up with (publishes keep the id space, so it never goes
/// stale, and encoding never touches the server's model).
fn encode(setup: &Setup, table: usize, query: &Query) -> Encoded {
    let schema = setup.tables[table].1.schema();
    (query_to_id_predicates(schema, query), query.column_intervals(schema))
}

/// The outcome a query's response frame reports — the inverse of the
/// connection's outcome → status mapping, so both transports feed one fold.
fn wire_outcome(response: &ResponseFrame) -> Result<f64, ShedReason> {
    match response.status {
        Status::Ok => Ok(response.value),
        Status::Overloaded => Err(ShedReason::QueueFull),
        Status::DeadlineExceeded => Err(ShedReason::DeadlineExpired),
        Status::Internal => Err(ShedReason::WorkerPanicked),
        // Scripts only address registered table ids, which leaves the stale
        // registration as the one way a query is answered `UnknownTable`.
        Status::UnknownTable => Err(ShedReason::StaleRegistration),
        Status::Rejected => {
            unreachable!("scripted requests are encoded against their table's schema")
        }
    }
}

/// Find the spilled checkpoint file of the slot with `uid` under `dir`.
fn spilled_checkpoint(dir: &Path, uid: u64) -> Option<PathBuf> {
    let prefix = format!("slot-{uid}-");
    std::fs::read_dir(dir).ok()?.flatten().map(|entry| entry.path()).find(|path| {
        path.file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with(&prefix) && name.ends_with(".duetckpt"))
    })
}

/// Damage `table`'s spilled checkpoint under `dir`; returns the path and the
/// original bytes so a later step can restore them.
///
/// The fault being modeled is "the on-disk checkpoint went bad", so if the
/// model is still resident it is first evicted to the spill directory —
/// guaranteeing there is a file to damage regardless of where the tier's
/// own eviction schedule happens to be at this step.
fn damage_checkpoint(
    harness: &RouterHarness,
    dir: &Path,
    table: usize,
    damage: Damage,
) -> (PathBuf, Vec<u8>) {
    let slot = harness.core.table(table as u32).slot;
    if slot.is_resident() {
        slot.evict(Some(dir)).expect("spilling the checkpoint about to be damaged");
    }
    let uid = slot.uid();
    let path =
        spilled_checkpoint(dir, uid).expect("an evicted slot always has a spilled checkpoint file");
    let original = std::fs::read(&path).expect("reading the spilled checkpoint");
    let mut bytes = original.clone();
    match damage {
        Damage::FlipByte => {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
        }
        Damage::Truncate => bytes.truncate(bytes.len() / 2),
    }
    std::fs::write(&path, &bytes).expect("writing the damaged checkpoint");
    (path, original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_core::DuetConfig;
    use duet_data::datasets::census_like;
    use duet_query::WorkloadSpec;

    /// A tick whose evicted model no longer reloads skips its retrain, and
    /// the table's online state keeps acknowledging ingest frames.
    #[test]
    fn an_ingest_frame_after_a_tick_over_a_corrupt_checkpoint_is_answered_ok() {
        let cfg = DuetConfig::small().with_epochs(1);
        let data: Vec<Table> = (0..2).map(|i| census_like(200 + 40 * i, 70 + i as u64)).collect();
        let tables = (0..2)
            .map(|i| (format!("t{i}"), DuetEstimator::train_data_only(&data[i], &cfg, 3)))
            .collect();
        let config =
            ServeConfig { model_budget_bytes: 1, cache_capacity: 0, ..ServeConfig::default() };
        let mut sim = WireSim::new(tables, config, ConnConfig::default(), 1);
        let dir = std::env::temp_dir().join(format!("duet-sim-tick-{}", std::process::id()));
        sim.harness.tier().set_spill_dir(Some(dir.clone()));
        let online = OnlineConfig {
            feedback_trigger: 1,
            retrain_steps: 2,
            train_batch_size: 8,
            ..OnlineConfig::default()
        };
        sim.harness.enable_online(0, data[0].clone(), online);
        let core = &sim.harness.core;
        let columns = core.table(0).slot.ndvs().len();
        let observed = (vec![Vec::new(); columns], vec![(0, 1); columns]);
        let online = core.online.get(0).expect("online-enabled");
        core.feedback(&online, &core.table(0), observed, 7.0).unwrap();

        // The batch for t1 evicts t0, whose spilled checkpoint then rots.
        let query = WorkloadSpec::random(&data[1], 1, 5).generate(&data[1]).remove(0);
        sim.harness.submit_query(1, &query, 0);
        sim.turn();
        damage_checkpoint(&sim.harness, &dir, 0, Damage::FlipByte);
        let core = &sim.harness.core;
        let tick = core.tick(&online, &core.table(0)).expect("a failed reload is not an error");
        assert!(!tick.retrained, "nothing to retrain from: {tick:?}");
        assert_eq!(sim.harness.metrics().reload_failures, 1);

        let mut bytes = Vec::new();
        frame::encode_preamble(&mut bytes);
        frame::encode_ingest(&mut bytes, 5, 0, &vec![0; columns]);
        sim.feed(0, &bytes);
        sim.pump(0).expect("valid bytes");
        let (view, _) = frame::next_frame(sim.output(0), frame::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("a complete response frame");
        let FrameView::Response(response) = view else { panic!("expected a response frame") };
        assert_eq!((response.request_id, response.status), (5, Status::Ok));
        assert_eq!(response.value, (data[0].num_rows() + 1) as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
