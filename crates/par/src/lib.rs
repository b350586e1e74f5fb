#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! `cap-par` — a zero-dependency scoped thread pool with a determinism
//! contract, sized for the matmul/conv/training hot paths of this
//! workspace.
//!
//! # Model
//!
//! A single process-global [`Pool`] owns `threads() - 1` worker threads
//! fed from one shared FIFO injector; the thread that submits a batch
//! participates in draining it ("work-stealing-lite": no per-worker
//! deques, but no thread ever blocks while runnable tasks exist).
//! Batches are scoped — [`Pool::run`] does not return until every task
//! of the batch has finished, so tasks may borrow from the caller's
//! stack.
//!
//! # Determinism contract
//!
//! Every helper hands out **deterministic, index-ordered chunks**: which
//! output range a task owns depends only on the input length and the
//! chunk size, never on scheduling. Callers keep all floating-point
//! *reductions* in a fixed order (each output element is computed by
//! exactly one task, or partial results are combined serially in
//! ascending index order). Under that discipline, results are **bitwise
//! identical for every thread count**, and `CAP_THREADS=1` reproduces
//! the plain serial loops exactly.
//!
//! # Sizing
//!
//! The pool is sized on first use from the `CAP_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`].
//! [`set_threads`] overrides the target at runtime (useful for `--threads`
//! CLI flags and for A/B benchmarks in one process); raising it beyond
//! the spawned worker count only increases task granularity, which is
//! harmless because of the determinism contract.
//!
//! # Nesting
//!
//! A parallel region that starts inside another parallel region runs
//! inline on the current thread. This keeps the pool deadlock-free
//! without continuation stealing and avoids oversubscription when e.g.
//! a per-sample-parallel convolution calls the row-parallel matmul.
//!
//! # Work floor
//!
//! Handing a region to the pool costs a worker wake-up whatever the
//! region holds, so a fine-grained region states its work in FLOPs and
//! [`run_region`] runs it inline below [`WORK_FLOOR`], as a region of
//! one: every region it starts runs inline too. At or above the floor
//! each of its tasks is one pool task.
//!
//! # Telemetry
//!
//! When `cap-obs` instrumentation is enabled, the pool publishes live
//! metrics: per-worker busy-time and task-count gauges
//! (`par.worker.<i>.busy_seconds`, `par.worker.<i>.tasks_total`),
//! queue-depth and batch counters (`par.queue_depth`,
//! `par.batches_total`, `par.tasks_submitted_total`,
//! `par.caller_tasks_total`), and the pool size (`par.threads`) — all
//! scrapeable from the `/metrics` endpoint of `cap_obs::serve`.
//!
//! # Example
//!
//! ```
//! let mut out = vec![0u64; 1000];
//! // 1000 element writes: far below the floor, so this runs inline.
//! cap_par::run_region(out.len(), out.chunks_mut(100).enumerate().map(|(c, chunk)| {
//!     move || {
//!         for (i, v) in chunk.iter_mut().enumerate() {
//!             *v = (c * 100 + i) as u64 * 2;
//!         }
//!     }
//! }));
//! assert_eq!(out[777], 1554);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of work borrowed from the submitting scope. [`Pool::run`]
/// guarantees the task does not outlive the call, which is what makes
/// the non-`'static` borrow sound.
pub type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

thread_local! {
    /// True on pool worker threads (everything they run is already
    /// inside a parallel region).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Nesting depth of [`Pool::run`] dispatches and inline
    /// [`run_region`]s on this (non-worker) thread.
    static RUN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Target thread count; 0 means "not yet resolved from the environment".
static CURRENT_THREADS: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: OnceLock<Pool> = OnceLock::new();

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CAP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The current target thread count (`CAP_THREADS`, else the machine's
/// available parallelism, else the last [`set_threads`] override).
pub fn threads() -> usize {
    match CURRENT_THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = default_threads();
            CURRENT_THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the target thread count (clamped to at least 1). With `1`,
/// every helper in this crate degenerates to plain serial loops on the
/// calling thread.
pub fn set_threads(n: usize) {
    CURRENT_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Whether the current thread is already inside a parallel region (a
/// pool worker, or a caller thread that is dispatching/draining a
/// batch). Parallel helpers called here run inline.
pub fn in_parallel() -> bool {
    IN_WORKER.with(Cell::get) || RUN_DEPTH.with(Cell::get) > 0
}

/// How many ways a parallel region started *now* would actually split:
/// [`threads`], or 1 when already inside a parallel region. Use this to
/// size chunk counts and scratch buffers.
pub fn effective_parallelism() -> usize {
    if in_parallel() {
        1
    } else {
        threads()
    }
}

/// Work, in FLOPs, below which [`run_region`] runs a region inline on
/// the calling thread: about 100 µs of one-thread work at the direct
/// conv kernels' 40 GFLOP/s. Call sites whose work runs slower per
/// element or per FLOP scale it by a measured cost.
///
/// Measured on a 2-vCPU AVX-512 VM at `CAP_THREADS=2`, two runs, 32
/// tasks per region between stretches of serial work: handing a region
/// of 8–96 µs of work to the pool cost 15–33 µs more CPU than running
/// it on one thread (the worker's wake-up, the boxed tasks, the queue
/// lock). Wall time fell only from 30–45 µs of work on: by 12–26 µs at
/// 64 µs, 34–42 µs at 96 µs and 65–85 µs at 160 µs. At the floor a
/// split buys back about as much wall time as the CPU it adds; below
/// it the extra CPU is mostly wake-up.
pub const WORK_FLOOR: usize = 4_000_000;

/// How many ways a region doing `work` FLOPs, started now, would split:
/// 1 below [`WORK_FLOOR`], else [`effective_parallelism`]. Use this to
/// size the tasks of such a region.
pub fn parallelism_for(work: usize) -> usize {
    if work < WORK_FLOOR {
        1
    } else {
        effective_parallelism()
    }
}

/// Marks the current thread as inside a parallel region until dropped,
/// also when a task unwinds through it.
struct RegionGuard;

impl RegionGuard {
    fn enter() -> Self {
        RUN_DEPTH.with(|d| d.set(d.get() + 1));
        RegionGuard
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        RUN_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Completion latch for one submitted batch; also carries the first
/// panic payload so the submitting thread can resume it.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<PanicPayload>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<PanicPayload>) {
        let mut st = self.state.lock().unwrap();
        if st.panic.is_none() {
            if let Some(p) = panic {
                st.panic = Some(p);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        self.state.lock().unwrap().remaining == 0
    }

    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.state.lock().unwrap().panic.take()
    }
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// A scoped thread pool. Most callers want the process-global
/// [`Pool::global`] through the free helpers ([`run_region`],
/// [`parallel_map`]); constructing private pools is supported for
/// tests.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool that splits work `threads` ways: `threads - 1`
    /// workers plus the submitting thread.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = threads.max(1) - 1;
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cap-par-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn cap-par worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// The process-global pool, created on first use and sized from
    /// [`threads`] at that moment.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(threads()))
    }

    /// Number of worker threads (the submitting thread is an extra
    /// participant on top of this).
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Runs a batch of scoped tasks and returns when all of them have
    /// finished. Tasks run serially inline when the batch has one task,
    /// the pool has no workers, the target thread count is 1, or the
    /// caller is already inside a parallel region.
    ///
    /// # Panics
    ///
    /// If a task panics, the batch still runs to completion and the
    /// first payload is resumed on the calling thread.
    pub fn run<'scope>(&self, tasks: Vec<ScopedTask<'scope>>) {
        let count = tasks.len();
        if count == 0 {
            return;
        }
        if count == 1 || self.handles.is_empty() || threads() == 1 || in_parallel() {
            for task in tasks {
                task();
            }
            return;
        }
        let latch = Arc::new(Latch::new(count));
        let queue_depth;
        {
            let mut st = self.shared.state.lock().unwrap();
            for task in tasks {
                // SAFETY: `run` blocks until the latch has been signalled
                // by every task, so no task outlives the 'scope borrows it
                // captures; the transmute only erases that lifetime so the
                // task can sit in the 'static queue.
                let task: Job = unsafe { std::mem::transmute::<ScopedTask<'scope>, Job>(task) };
                let latch = Arc::clone(&latch);
                st.queue.push_back(Box::new(move || {
                    // The fault hook runs INSIDE the catch_unwind so an
                    // injected panic takes the same recovery path as a
                    // real task panic: latch completion, batch drain,
                    // resume_unwind at the submitter. Outside it, the
                    // worker would die without completing the latch and
                    // the batch would deadlock.
                    let outcome = catch_unwind(AssertUnwindSafe(move || {
                        cap_faults::maybe_panic_task();
                        task();
                    }));
                    latch.complete(outcome.err());
                }));
            }
            queue_depth = st.queue.len();
        }
        self.shared.work.notify_all();
        if cap_obs::enabled() {
            // Queue depth is sampled at submit time (post-push peak);
            // the counters make submit rate and batch sizes visible on
            // /metrics without touching the drain hot path.
            cap_obs::gauge_set("par.queue_depth", queue_depth as f64);
            cap_obs::gauge_set("par.threads", threads() as f64);
            cap_obs::counter_add("par.batches_total", 1);
            cap_obs::counter_add("par.tasks_submitted_total", count as u64);
        }
        // Participate: drain jobs until this batch is complete. The FIFO
        // may interleave jobs of concurrent batches; helping them is
        // harmless and keeps every runnable task moving.
        {
            let _region = RegionGuard::enter();
            loop {
                if latch.done() {
                    break;
                }
                let job = self.shared.state.lock().unwrap().queue.pop_front();
                match job {
                    Some(job) => {
                        job();
                        cap_obs::counter_add("par.caller_tasks_total", 1);
                    }
                    None => {
                        latch.wait();
                        break;
                    }
                }
            }
        }
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    IN_WORKER.with(|w| w.set(true));
    // Per-worker telemetry: names are built once, counters accumulate
    // locally, and the registry is touched only on the (instrumented)
    // enabled path — each gauge has exactly one writer, this thread.
    let busy_gauge = format!("par.worker.{index}.busy_seconds");
    let tasks_gauge = format!("par.worker.{index}.tasks_total");
    let mut busy = Duration::ZERO;
    let mut tasks = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        match job {
            Some(job) => {
                if cap_obs::enabled() {
                    let started = cap_obs::clock::now();
                    job();
                    busy += started.elapsed();
                    tasks += 1;
                    cap_obs::gauge_set(&busy_gauge, busy.as_secs_f64());
                    cap_obs::gauge_set(&tasks_gauge, tasks as f64);
                } else {
                    job();
                }
            }
            None => return,
        }
    }
}

/// Runs a batch of scoped tasks on the global pool (inline when the
/// batch is trivial or parallelism is unavailable). The global pool is
/// not instantiated for inline execution.
fn run_tasks(tasks: Vec<ScopedTask<'_>>) {
    if tasks.len() <= 1 || effective_parallelism() == 1 {
        for task in tasks {
            task();
        }
        return;
    }
    Pool::global().run(tasks);
}

/// Runs `tasks` as one parallel region that does `work` FLOPs in all.
///
/// This is the pool's one entry point for fine-grained regions. At or
/// above [`WORK_FLOOR`] each task is one pool task (a region of one
/// task runs inline). Below it the tasks run in order on the calling
/// thread, none of them boxed, with [`in_parallel`] true, so every
/// region they start runs inline as well. A task's panic reaches the
/// caller with its payload either way; inline, the tasks after it do
/// not run.
pub fn run_region<'scope, T>(work: usize, tasks: impl IntoIterator<Item = T>)
where
    T: FnOnce() + Send + 'scope,
{
    if parallelism_for(work) > 1 {
        run_tasks(
            tasks
                .into_iter()
                .map(|task| Box::new(task) as ScopedTask<'scope>)
                .collect(),
        );
        return;
    }
    let _region = RegionGuard::enter();
    for task in tasks {
        task();
    }
}

/// Evaluates `f(0..n)` in parallel (one task per index — size tasks
/// accordingly) and collects the results in index order. It has no
/// work floor: it is for regions whose every task is worth a wake-up,
/// such as a scoring shard; state a fine-grained region's work with
/// [`run_region`].
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    {
        let f = &f;
        let tasks: Vec<ScopedTask<'_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = Some(f(i))) as ScopedTask<'_>)
            .collect();
        run_tasks(tasks);
    }
    slots
        .into_iter()
        .map(|s| s.expect("parallel_map task filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serialises tests that override the global thread target.
    fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// `f(chunk_index, chunk)` over `data` in chunks of `chunk_len`, as
    /// one region of `work` FLOPs.
    fn region_over_chunks<T: Send>(
        work: usize,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let f = &f;
        run_region(
            work,
            data.chunks_mut(chunk_len)
                .enumerate()
                .map(|(i, chunk)| move || f(i, chunk)),
        );
    }

    /// `par.batches_total` after `body` runs with instrumentation on:
    /// how many batches it handed the pool.
    fn pool_batches(body: impl FnOnce()) -> u64 {
        let _obs = cap_obs::test_lock();
        cap_obs::reset();
        cap_obs::enable();
        body();
        cap_obs::disable();
        let batches = cap_obs::registry()
            .snapshot()
            .into_iter()
            .find_map(|(name, m)| match (name.as_str(), m) {
                ("par.batches_total", cap_obs::Metric::Counter(n)) => Some(n),
                _ => None,
            })
            .unwrap_or(0);
        cap_obs::reset();
        batches
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        let _guard = threads_lock();
        set_threads(4);
        let mut data = vec![0u32; 1003];
        region_over_chunks(WORK_FLOOR, &mut data, 17, |ci, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (ci * 17 + i) as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1, "index {i} touched wrong number of times");
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let _guard = threads_lock();
        set_threads(3);
        let out = parallel_map(57, |i| i * i);
        assert_eq!(out.len(), 57);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn results_bitwise_identical_across_thread_counts() {
        let _guard = threads_lock();
        let input: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut runs = Vec::new();
        for t in [1usize, 4, 7] {
            set_threads(t);
            let mut out = vec![0.0f32; input.len()];
            region_over_chunks(WORK_FLOOR, &mut out, 129, |ci, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    let x = input[ci * 129 + i];
                    *v = x.mul_add(1.5, x * x);
                }
            });
            runs.push(out);
        }
        for run in &runs[1..] {
            let same = runs[0]
                .iter()
                .zip(run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "thread-count changed bits");
        }
        set_threads(default_threads());
    }

    #[test]
    fn nested_regions_run_inline() {
        let _guard = threads_lock();
        set_threads(4);
        let saw_nested_parallel = AtomicU64::new(0);
        let counter = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    if effective_parallelism() != 1 || !in_parallel() {
                        saw_nested_parallel.fetch_add(1, Ordering::Relaxed);
                    }
                    // A nested batch must still run (inline).
                    let inner: Vec<ScopedTask<'_>> = (0..3)
                        .map(|_| {
                            Box::new(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }) as ScopedTask<'_>
                        })
                        .collect();
                    run_tasks(inner);
                }) as ScopedTask<'_>
            })
            .collect();
        run_tasks(tasks);
        assert_eq!(saw_nested_parallel.load(Ordering::Relaxed), 0);
        assert_eq!(counter.load(Ordering::Relaxed), 24);
        assert!(!in_parallel(), "caller flag must be restored");
    }

    #[test]
    fn region_below_the_floor_runs_inline_as_a_region_of_one() {
        let _guard = threads_lock();
        set_threads(4);
        let caller = std::thread::current().id();
        let nested = AtomicU64::new(0);
        let batches = pool_batches(|| {
            run_region(
                WORK_FLOOR - 1,
                (0..8).map(|_| {
                    || {
                        assert_eq!(std::thread::current().id(), caller);
                        assert!(in_parallel() && effective_parallelism() == 1);
                        assert_eq!(parallelism_for(usize::MAX), 1);
                        // A region at the floor, started inside, stays
                        // on this thread too.
                        run_region(
                            WORK_FLOOR,
                            (0..3).map(|_| {
                                || {
                                    assert_eq!(std::thread::current().id(), caller);
                                    nested.fetch_add(1, Ordering::Relaxed);
                                }
                            }),
                        );
                    }
                }),
            );
        });
        assert_eq!(batches, 0, "an inline region handed work to the pool");
        assert_eq!(nested.load(Ordering::Relaxed), 24);
        assert!(!in_parallel(), "caller flag must be restored");
        set_threads(default_threads());
    }

    #[test]
    fn region_at_the_floor_dispatches() {
        let _guard = threads_lock();
        set_threads(4);
        assert_eq!(parallelism_for(WORK_FLOOR), 4);
        let sum = AtomicU64::new(0);
        let region = |work: usize| {
            pool_batches(|| {
                run_region(
                    work,
                    (0..8u64).map(|i| {
                        let sum = &sum;
                        move || {
                            sum.fetch_add(i, Ordering::Relaxed);
                        }
                    }),
                );
            })
        };
        assert_eq!(
            region(WORK_FLOOR),
            1,
            "a region at the floor runs on the pool"
        );
        assert_eq!(region(WORK_FLOOR - 1), 0, "a region below it does not");
        assert_eq!(sum.load(Ordering::Relaxed), 56);
        set_threads(1);
        assert_eq!(region(WORK_FLOOR), 0, "one thread never dispatches");
        set_threads(default_threads());
    }

    #[test]
    fn panic_in_an_inline_region_reaches_the_caller_with_its_payload() {
        let _guard = threads_lock();
        set_threads(4);
        for work in [WORK_FLOOR - 1, WORK_FLOOR] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_region(
                    work,
                    (0..6).map(|i| {
                        move || {
                            if i == 2 {
                                panic!("task 2 exploded");
                            }
                        }
                    }),
                );
            }));
            let payload = result.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"task 2 exploded"),
                "work {work}: payload lost"
            );
            assert!(!in_parallel(), "work {work}: caller flag must be restored");
        }
        set_threads(default_threads());
    }

    #[test]
    fn panic_in_task_propagates_after_batch_completes() {
        let _guard = threads_lock();
        set_threads(4);
        let completed = AtomicU64::new(0);
        let completed = &completed;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> = (0..6)
                .map(|i| {
                    Box::new(move || {
                        if i == 2 {
                            panic!("task 2 exploded");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }) as ScopedTask<'_>
                })
                .collect();
            Pool::global().run(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            5,
            "other tasks still ran"
        );
    }

    #[test]
    fn private_pool_drops_cleanly() {
        let pool = Pool::new(3);
        assert_eq!(pool.worker_count(), 2);
        let sum = AtomicU64::new(0);
        let sum = &sum;
        let tasks: Vec<ScopedTask<'_>> = (0..10)
            .map(|i| {
                Box::new(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        drop(pool); // joins workers
    }

    #[test]
    fn set_threads_one_is_fully_serial() {
        let _guard = threads_lock();
        set_threads(1);
        let main_thread = std::thread::current().id();
        let ran_on = parallel_map(4, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|id| *id == main_thread));
        set_threads(default_threads());
    }
}
