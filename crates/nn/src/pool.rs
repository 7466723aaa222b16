//! A persistent worker pool for data-parallel kernel execution.
//!
//! Before this module existed, every matmul large enough to parallelize
//! spawned fresh threads through `std::thread::scope` — paying thread
//! start-up latency *and* heap allocations on the supposedly
//! allocation-free inference path whenever a batch crossed the parallelism
//! threshold. A [`ComputePool`] replaces that with a fixed set of **parked
//! worker threads**: submitting a job is a mutex/condvar wake-up, chunks are
//! claimed from an epoch-tagged atomic dispenser, and completion is
//! signalled by an atomic counter — no heap allocation anywhere on the
//! submit/execute/wait path, so very large batches stay inside the
//! zero-allocation envelope (`tests/zero_alloc.rs` asserts this through the
//! pool).
//!
//! One pool is shared by everything in the process — the trainer, the
//! `duet-serve` shard workers, bench loops — via [`ComputePool::global`],
//! which sizes itself to the machine. Kernels pick the pool up through a
//! thread-local *current pool* reference, so tests and benches can run a
//! scoped pool of any size with [`with_pool`] (e.g. to exercise the parallel
//! path deterministically on a single-core CI runner).
//!
//! Scheduling is intentionally simple and deterministic-friendly: the job is
//! a `Fn(chunk_index)` closure, workers and the submitting thread race to
//! claim chunk indices, and *which* thread runs a chunk never affects the
//! result — kernels map chunk indices to fixed disjoint row ranges, so
//! outputs are bit-identical to a serial run. Per-worker scratch (e.g. the
//! packed-panel buffers of the blocked matmul kernels) lives in
//! thread-locals on the worker threads and is likewise reused across jobs.
//!
//! # Example
//!
//! ```
//! use duet_nn::pool::ComputePool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ComputePool::new(2); // two parked workers + the caller
//! assert_eq!(pool.parallelism(), 3);
//!
//! let cells: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
//! pool.run(8, &|chunk| cells[chunk].store((chunk * chunk) as u64, Ordering::Relaxed));
//! assert_eq!(cells[7].load(Ordering::Relaxed), 49);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased pending job: a shim function that downcasts the data
/// pointer back to the caller's closure type, plus the chunk count.
///
/// The raw pointer references a closure on the submitting thread's stack;
/// [`ComputePool::run`] does not return until every chunk has completed, so
/// workers never observe it dangling.
#[derive(Clone, Copy)]
struct JobDesc {
    call: unsafe fn(*const (), usize),
    data: *const (),
    num_chunks: usize,
}

// SAFETY: `call` is a plain fn pointer and `num_chunks` plain data; the
// closure behind `data` is `Sync` (enforced by `run`'s bound), so calling it
// from another thread is sound, and it outlives the job (enforced by `run`
// blocking until completion).
unsafe impl Send for JobDesc {}

/// Downcast `data` back to the submitter's closure and run `chunk` of it.
///
/// # Safety
/// `data` must be a `&F` cast to a pointer whose referent is still alive;
/// [`ComputePool::run`], the only place a [`JobDesc`] is built, guarantees
/// it by blocking until every chunk has finished.
unsafe fn call_shim<F: Fn(usize) + Sync>(data: *const (), chunk: usize) {
    // SAFETY: `data` was produced from `&F` in `run` and is still alive.
    unsafe { (*(data as *const F))(chunk) };
}

/// The chunk dispenser packs the job epoch (high 32 bits) next to the next
/// chunk index (low 32 bits), so claiming a chunk and checking that it
/// belongs to the claimer's job is **one** atomic compare-exchange. A
/// straggler worker that is still looping when a new job is published can
/// therefore never steal (or corrupt the count of) the new job's chunks —
/// its CAS fails on the epoch bits and it goes back to sleep.
fn pack(epoch: u32, chunk: u32) -> u64 {
    (u64::from(epoch) << 32) | u64::from(chunk)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// State broadcast from the submitter to the parked workers.
struct JobState {
    /// Bumped once per submitted job; workers wake when it moves.
    epoch: u32,
    /// The job for the current epoch.
    job: Option<JobDesc>,
}

/// Everything shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<JobState>,
    work_ready: Condvar,
    /// Epoch-tagged chunk dispenser (see [`pack`]).
    dispenser: AtomicU64,
    /// Chunks not yet finished; the submitter spins on this reaching zero.
    remaining: AtomicUsize,
    /// Set when a chunk panicked; the submitter re-raises after the job
    /// completes (see [`ComputePool::run`]).
    poisoned: AtomicBool,
    shutdown: AtomicBool,
}

impl Shared {
    /// Claim and run chunks of `job` (published under `epoch`) until the
    /// dispenser is exhausted or a newer job replaces it.
    ///
    /// Never unwinds: a panicking chunk is caught, recorded in `poisoned`,
    /// and still counted as finished. This is load-bearing for memory
    /// safety — the job's closure and output buffer live on the submitting
    /// thread's stack, and the SAFETY contract that `run` outlives every
    /// chunk only holds if neither a worker (which would die holding an
    /// undecremented chunk, hanging the submitter) nor the submitter itself
    /// (which would tear the frame down under the workers) can unwind
    /// mid-job.
    fn run_chunks(&self, epoch: u32, job: &JobDesc) {
        loop {
            let current = self.dispenser.load(Ordering::Acquire);
            let (seen_epoch, chunk) = unpack(current);
            if seen_epoch != epoch || chunk as usize >= job.num_chunks {
                return;
            }
            if self
                .dispenser
                .compare_exchange_weak(
                    current,
                    pack(epoch, chunk + 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue; // lost the race for this chunk; try the next
            }
            // SAFETY: the submitter blocks in `run` until `remaining` hits
            // zero, so the closure behind the pointer is still alive.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (job.call)(job.data, chunk as usize)
            }));
            if outcome.is_err() {
                self.poisoned.store(true, Ordering::Release);
            }
            self.remaining.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A fixed set of parked worker threads executing data-parallel jobs.
///
/// See the [module docs](self) for the design; in short: persistent threads,
/// allocation-free submission, chunk outputs bit-identical to a serial run.
pub struct ComputePool {
    shared: Arc<Shared>,
    /// Serializes submissions: one job occupies the pool at a time. A
    /// concurrent submitter falls back to running its job inline (same
    /// result, no blocking, no deadlock).
    submit: Mutex<()>,
    /// Jobs that were actually dispatched to the workers (observability for
    /// tests asserting the parallel path ran).
    dispatched: AtomicU64,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool").field("workers", &self.handles.len()).finish()
    }
}

impl ComputePool {
    /// A pool with `workers` parked threads (plus the submitting thread,
    /// which always participates in its own jobs).
    ///
    /// `workers == 0` is valid: every job runs inline on the caller.
    pub fn new(workers: usize) -> Self {
        // Pool init is the natural once-per-process moment to pick the
        // kernels' register-tile variant from the CPU, so the first hot-path
        // matmul never pays for feature detection.
        let _ = crate::kernels::native_tile();
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState { epoch: 0, job: None }),
            work_ready: Condvar::new(),
            dispenser: AtomicU64::new(pack(0, 0)),
            remaining: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("duet-compute-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn compute worker")
            })
            .collect();
        Self { shared, submit: Mutex::new(()), dispatched: AtomicU64::new(0), handles }
    }

    /// The process-wide pool shared by training, serving, and benches:
    /// `available_parallelism - 1` workers, created on first use and kept
    /// for the lifetime of the process.
    pub fn global() -> &'static ComputePool {
        static POOL: OnceLock<ComputePool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            ComputePool::new(threads.saturating_sub(1))
        })
    }

    /// Number of threads a job can occupy: the workers plus the caller.
    pub fn parallelism(&self) -> usize {
        self.handles.len() + 1
    }

    /// Number of jobs that were dispatched to the worker threads (jobs run
    /// inline — zero/one chunk, zero workers, or a busy pool — don't count).
    pub fn dispatched_jobs(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Execute `task(0..num_chunks)` across the pool and the calling thread,
    /// returning once **every** chunk has completed.
    ///
    /// Chunks may run in any order on any thread, so `task` must map the
    /// chunk index to work that is independent of execution order (the
    /// kernels map it to disjoint output row ranges). The submit path
    /// performs no heap allocation. If another thread's job currently
    /// occupies the pool, the task runs inline on the caller instead —
    /// same chunks, same results, no waiting.
    ///
    /// # Panics
    ///
    /// If any chunk panics, the panic is caught where it happened (workers
    /// survive, the job still runs to completion so no chunk is left
    /// uncounted) and re-raised from this method once every chunk has
    /// finished — so the caller's closure and buffers are never torn down
    /// while another thread might still reference them.
    pub fn run<F: Fn(usize) + Sync>(&self, num_chunks: usize, task: &F) {
        if num_chunks <= 1 || self.handles.is_empty() {
            for chunk in 0..num_chunks {
                task(chunk);
            }
            return;
        }
        let Ok(_guard) = self.submit.try_lock() else {
            for chunk in 0..num_chunks {
                task(chunk);
            }
            return;
        };
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        let desc =
            JobDesc { call: call_shim::<F>, data: task as *const F as *const (), num_chunks };
        // Publish order: completion counter, then the epoch-tagged dispenser,
        // then the job + epoch under the mutex (which is what wakes workers).
        // A worker that sees the new epoch through the mutex therefore also
        // sees the dispenser and counter for this job; a straggler from the
        // previous job has no pending decrements (its final decrement is what
        // let the previous `run` return) and cannot pass the dispenser's
        // epoch check.
        self.shared.remaining.store(num_chunks, Ordering::Relaxed);
        let epoch = {
            let mut state = self.shared.state.lock().expect("compute pool poisoned");
            let epoch = state.epoch.wrapping_add(1);
            self.shared.dispenser.store(pack(epoch, 0), Ordering::Release);
            state.epoch = epoch;
            state.job = Some(desc);
            epoch
        };
        self.shared.work_ready.notify_all();

        // Participate: the submitter is one of the pool's compute threads.
        self.shared.run_chunks(epoch, &desc);

        // Wait for straggler workers. Spin briefly (chunks are sized to
        // finish together), then yield so an oversubscribed machine can
        // schedule the workers we are waiting on.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Every chunk has finished — no thread references the task or the
        // caller's buffers anymore, so unwinding is safe now.
        if self.shared.poisoned.swap(false, Ordering::AcqRel) {
            panic!("a ComputePool task panicked (re-raised on the submitting thread)");
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        {
            let _state = self.shared.state.lock().expect("compute pool poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u32;
    loop {
        let (epoch, job) = {
            let mut state = shared.state.lock().expect("compute pool poisoned");
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break (state.epoch, state.job.expect("epoch bumped without a job"));
                }
                state = shared.work_ready.wait(state).expect("compute pool poisoned");
            }
        };
        shared.run_chunks(epoch, &job);
    }
}

thread_local! {
    /// The pool kernels on this thread dispatch into; `None` means the
    /// process-global pool.
    static CURRENT: Cell<Option<*const ComputePool>> = const { Cell::new(None) };
}

/// Run `f` with `pool` installed as the *current* compute pool on this
/// thread: every parallel kernel executed inside `f` dispatches into `pool`
/// instead of [`ComputePool::global`]. Restores the previous pool on exit
/// (also on panic).
///
/// This is how tests and benches pin kernel parallelism regardless of the
/// machine (e.g. forcing the pooled path on a single-core CI runner).
pub fn with_pool<R>(pool: &ComputePool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const ComputePool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|current| current.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|current| current.replace(Some(pool as *const _))));
    f()
}

/// Invoke `f` with this thread's current pool: the [`with_pool`] override if
/// one is active, the process-global pool otherwise.
pub(crate) fn with_current<R>(f: impl FnOnce(&ComputePool) -> R) -> R {
    let override_ptr = CURRENT.with(|current| current.get());
    match override_ptr {
        // SAFETY: the pointer was installed by `with_pool`, whose stack
        // frame (and therefore the pool borrow) is still live while any
        // nested code runs.
        Some(pool) => f(unsafe { &*pool }),
        None => f(ComputePool::global()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = ComputePool::new(3);
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(64, &|chunk| {
            counts[chunk].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i} must run exactly once");
        }
    }

    #[test]
    fn zero_workers_runs_inline() {
        let pool = ComputePool::new(0);
        assert_eq!(pool.parallelism(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(pool.dispatched_jobs(), 0, "inline jobs are not dispatched");
    }

    #[test]
    fn reuses_workers_across_many_jobs() {
        let pool = ComputePool::new(2);
        let total = AtomicUsize::new(0);
        for round in 0..100 {
            pool.run(8, &|chunk| {
                total.fetch_add(chunk + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 36 * (round + 1));
        }
        assert_eq!(pool.dispatched_jobs(), 100);
    }

    #[test]
    fn concurrent_submitters_fall_back_inline() {
        let pool = Arc::new(ComputePool::new(1));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (pool, total) = (pool.clone(), total.clone());
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(4, &|chunk| {
                            total.fetch_add(chunk + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 threads x 50 jobs x (1+2+3+4): every chunk ran exactly once no
        // matter which submissions won the pool and which ran inline.
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 10);
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let pool = ComputePool::new(1);
        with_current(|p| assert!(std::ptr::eq(p, ComputePool::global())));
        with_pool(&pool, || {
            with_current(|p| assert!(std::ptr::eq(p, &pool)));
        });
        with_current(|p| assert!(std::ptr::eq(p, ComputePool::global())));
    }

    #[test]
    fn panicking_task_poisons_job_but_workers_survive() {
        let pool = ComputePool::new(2);
        let ran = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|chunk| {
                ran.fetch_add(1, Ordering::Relaxed);
                if chunk == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(outcome.is_err(), "the chunk panic must re-raise from run()");
        assert_eq!(ran.load(Ordering::Relaxed), 8, "the job still runs every chunk to completion");

        // The pool is fully usable afterwards: workers survived, the poison
        // flag was consumed, and new jobs run clean.
        let total = AtomicUsize::new(0);
        pool.run(8, &|chunk| {
            total.fetch_add(chunk + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ComputePool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
