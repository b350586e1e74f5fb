//! `capprof` — a sampling wall-clock profiler over the span stack.
//!
//! A sampler thread (`cap-obs-prof`, off by default, started by
//! `CAP_PROF_HZ=<rate>`) periodically snapshots every registered
//! thread's live span stack and aggregates the snapshots into
//! folded-stack counts (`frame;frame;frame count`), the input format
//! of flamegraph tooling and of [`crate::flame`]. The aggregate is
//! written durably (via [`crate::fsx::atomic_write`]) to
//! `profile.folded` — in the run directory when a prune run is active,
//! or to `CAP_PROF_OUT` otherwise — roughly once a second and again on
//! [`stop_global`], so a crash loses at most the last second of
//! samples and the file is never torn.
//!
//! # How stacks become visible across threads
//!
//! [`crate::SpanGuard`] keeps its nesting in a plain `thread_local!`
//! stack, which the sampler cannot read from another thread. When
//! profiling is active, each span push/pop is *mirrored* into a small
//! per-thread `Arc<Mutex<Vec<&'static str>>>` registered in a global
//! list (the same registration pattern as the flight recorder's
//! per-thread rings). The mirror is gated on one relaxed atomic load,
//! so with the profiler off the enabled-span path gains a single
//! predictable branch and the disabled-span path is completely
//! unchanged (~2 ns, still allocation-free — both recorded in
//! `BENCH_obs.json`'s `profiler` object by `bench_baseline`).
//!
//! Mirroring is best-effort by design: a span entered before the
//! profiler started is absent from the mirror (its children still
//! attribute correctly to whatever prefix is mirrored), and pops only
//! remove their own frame. A sampling profiler tolerates both — the
//! aggregate converges on where wall-clock time is actually spent.
//!
//! # Quickstart
//!
//! ```text
//! CAP_PROF_HZ=97 capctl prune --run-dir run --iters 4
//! capctl flame run --export flame.svg
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on distinct stacks kept in the aggregate; beyond it, samples
/// land in the [`OVERFLOW_FRAME`] bucket so memory stays bounded no
/// matter how pathological the span nesting gets.
const MAX_STACKS: usize = 10_000;
/// Bucket absorbing samples once [`MAX_STACKS`] distinct stacks exist.
const OVERFLOW_FRAME: &str = "(overflow)";
/// Deepest mirrored stack the sampler will fold; deeper frames are
/// dropped from the sample (bounds the folded line length).
const MAX_DEPTH: usize = 64;

/// Fast gate read by the span hooks: true while a profiler is running.
static PROF_ON: AtomicBool = AtomicBool::new(false);

type SharedStack = Arc<Mutex<Vec<&'static str>>>;

thread_local! {
    /// This thread's mirror stack, registered globally on first use.
    static LOCAL: RefCell<Option<SharedStack>> = const { RefCell::new(None) };
}

fn stacks() -> &'static Mutex<Vec<SharedStack>> {
    static STACKS: OnceLock<Mutex<Vec<SharedStack>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(Vec::new()))
}

fn with_local<R>(f: impl FnOnce(&SharedStack) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let stack: SharedStack = Arc::new(Mutex::new(Vec::new()));
            stacks().lock().unwrap().push(Arc::clone(&stack));
            *slot = Some(stack);
        }
        f(slot.as_ref().unwrap())
    })
}

/// Registers the calling thread with the profiler so its span stack is
/// visible to the sampler from the very first span. Span guards
/// register lazily anyway; cap-par workers call this once at spawn so
/// registration cost never lands inside a timed kernel.
pub fn register_current_thread() {
    with_local(|_| {});
}

/// Whether span pushes/pops are currently being mirrored.
#[inline]
pub(crate) fn mirroring() -> bool {
    PROF_ON.load(Ordering::Relaxed)
}

/// Span-enter hook: mirror `name` onto this thread's shared stack.
pub(crate) fn on_span_enter(name: &'static str) {
    with_local(|stack| stack.lock().unwrap().push(name));
}

/// Span-drop hook: remove `name` if it is the mirrored top. A span
/// entered before the profiler started has no mirrored frame; popping
/// only our own name keeps the mirror consistent in that case.
pub(crate) fn on_span_exit(name: &'static str) {
    with_local(|stack| {
        let mut stack = stack.lock().unwrap();
        if stack.last() == Some(&name) {
            stack.pop();
        }
    });
}

/// Shared state between the sampler thread and the control API.
struct Shared {
    /// Folded stack -> sample count.
    agg: Mutex<BTreeMap<String, u64>>,
    /// Total sampling passes taken.
    samples: AtomicU64,
    /// Where to write `profile.folded`; retargetable mid-run.
    out: Mutex<Option<PathBuf>>,
    stop: AtomicBool,
}

struct Profiler {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

fn global_slot() -> &'static Mutex<Option<Profiler>> {
    static PROFILER: OnceLock<Mutex<Option<Profiler>>> = OnceLock::new();
    PROFILER.get_or_init(|| Mutex::new(None))
}

/// Parses `CAP_PROF_HZ` into a sampling rate. Unset, empty, zero,
/// non-numeric, or absurd (> 10 kHz) values all mean "off".
pub fn hz_from_env() -> Option<u32> {
    let raw = std::env::var("CAP_PROF_HZ").ok()?;
    let hz: u32 = raw.trim().parse().ok()?;
    if hz == 0 || hz > 10_000 {
        return None;
    }
    Some(hz)
}

/// Whether the global profiler is currently running.
pub fn active() -> bool {
    PROF_ON.load(Ordering::Acquire)
}

/// Starts the global sampler at `hz` samples/second, writing the
/// aggregate to `out` (if given) about once a second and on stop.
/// Enables instrumentation as a side effect (samples need live spans).
///
/// Returns `Ok(false)` if a profiler is already running — first start
/// wins, matching [`crate::recorder`] and [`crate::serve`].
///
/// # Errors
///
/// Returns a message when the sampler thread cannot be spawned.
pub fn start_global(hz: u32, out: Option<PathBuf>) -> Result<bool, String> {
    let mut slot = global_slot().lock().unwrap();
    if slot.is_some() {
        return Ok(false);
    }
    crate::enable();
    // Drop any residue a previous profiling session left in the
    // mirrors (spans that closed while mirroring was off never pop).
    for stack in stacks().lock().unwrap().iter() {
        stack.lock().unwrap().clear();
    }
    let shared = Arc::new(Shared {
        agg: Mutex::new(BTreeMap::new()),
        samples: AtomicU64::new(0),
        out: Mutex::new(out),
        stop: AtomicBool::new(false),
    });
    PROF_ON.store(true, Ordering::Release);
    let interval = Duration::from_secs_f64(1.0 / f64::from(hz));
    let thread_shared = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name("cap-obs-prof".to_string())
        .spawn(move || run_loop(&thread_shared, interval))
        .map_err(|e| {
            PROF_ON.store(false, Ordering::Release);
            format!("failed to spawn profiler thread: {e}")
        })?;
    *slot = Some(Profiler {
        shared,
        handle: Some(handle),
    });
    Ok(true)
}

/// Retargets where the running profiler writes `profile.folded` (used
/// when a run directory appears after process-level startup). No-op
/// when the profiler is not running.
pub fn set_output(path: PathBuf) {
    if let Some(prof) = global_slot().lock().unwrap().as_ref() {
        *prof.shared.out.lock().unwrap() = Some(path);
    }
}

/// Stops the global profiler: joins the sampler thread, writes the
/// final `profile.folded`, and clears the thread mirrors. Idempotent.
pub fn stop_global() {
    let Some(mut prof) = global_slot().lock().unwrap().take() else {
        return;
    };
    prof.shared.stop.store(true, Ordering::Release);
    if let Some(handle) = prof.handle.take() {
        let _ = handle.join();
    }
    PROF_ON.store(false, Ordering::Release);
    flush_shared(&prof.shared);
    for stack in stacks().lock().unwrap().iter() {
        stack.lock().unwrap().clear();
    }
}

/// Takes one sampling pass synchronously (same aggregation as the
/// sampler thread). A deterministic hook for tests; no-op when the
/// profiler is not running.
pub fn sample_now() {
    if let Some(prof) = global_slot().lock().unwrap().as_ref() {
        sample_pass(&prof.shared);
    }
}

/// Writes the current aggregate to the configured output now (atomic
/// tmp+rename). No-op without a running profiler or output path.
pub fn flush_profile() {
    if let Some(prof) = global_slot().lock().unwrap().as_ref() {
        flush_shared(&prof.shared);
    }
}

/// The live aggregate as folded-stack lines (`a;b;c 12`, sorted).
/// Empty when the profiler is not running or nothing was sampled yet.
pub fn live_stacks() -> Vec<(String, u64)> {
    match global_slot().lock().unwrap().as_ref() {
        Some(prof) => {
            let agg = prof.shared.agg.lock().unwrap();
            agg.iter().map(|(k, v)| (k.clone(), *v)).collect()
        }
        None => Vec::new(),
    }
}

/// Renders folded-stack lines from `stacks` (one `stack count` line
/// each, trailing newline; empty input renders to the empty string).
pub fn folded_string(stacks: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (stack, count) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

fn run_loop(shared: &Shared, interval: Duration) {
    // Flush roughly once a second regardless of rate.
    let flush_every = (1.0 / interval.as_secs_f64()).ceil().max(1.0) as u64;
    let slice = Duration::from_millis(20).min(interval);
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(slice);
            slept += slice;
        }
        sample_pass(shared);
        let n = shared.samples.load(Ordering::Relaxed);
        if n.is_multiple_of(flush_every) {
            flush_shared(shared);
        }
    }
}

/// Snapshots every registered thread's mirror and folds the non-empty
/// ones into the aggregate.
fn sample_pass(shared: &Shared) {
    let captured: Vec<Vec<&'static str>> = {
        let stacks = stacks().lock().unwrap();
        stacks
            .iter()
            .map(|s| {
                let stack = s.lock().unwrap();
                let depth = stack.len().min(MAX_DEPTH);
                stack[..depth].to_vec()
            })
            .filter(|s| !s.is_empty())
            .collect()
    };
    shared.samples.fetch_add(1, Ordering::Relaxed);
    crate::counter_add("obs.prof.samples_total", 1);
    if captured.is_empty() {
        return;
    }
    crate::counter_add("obs.prof.stacks_captured_total", captured.len() as u64);
    let mut agg = shared.agg.lock().unwrap();
    for stack in captured {
        let key = stack.join(";");
        if agg.len() >= MAX_STACKS && !agg.contains_key(&key) {
            *agg.entry(OVERFLOW_FRAME.to_string()).or_insert(0) += 1;
        } else {
            *agg.entry(key).or_insert(0) += 1;
        }
    }
}

fn flush_shared(shared: &Shared) {
    let path = match shared.out.lock().unwrap().clone() {
        Some(p) => p,
        None => return,
    };
    let folded = {
        let agg = shared.agg.lock().unwrap();
        let stacks: Vec<(String, u64)> = agg.iter().map(|(k, v)| (k.clone(), *v)).collect();
        folded_string(&stacks)
    };
    match crate::fsx::atomic_write(&path, folded.as_bytes()) {
        Ok(()) => crate::counter_add("obs.prof.flushes_total", 1),
        Err(_) => crate::counter_add("obs.prof.flush_errors_total", 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cap_prof_{tag}_{}.folded", std::process::id()))
    }

    #[test]
    fn sampler_folds_live_span_stacks_and_writes_durably() {
        let _guard = crate::test_lock();
        crate::reset();
        let out = temp_path("basic");
        let _ = std::fs::remove_file(&out);
        // Slow nominal rate: the test drives sampling via sample_now().
        assert!(start_global(1, Some(out.clone())).unwrap());
        assert!(active());
        assert!(!start_global(1, None).unwrap(), "first start wins");
        {
            let _a = crate::SpanGuard::enter("outer");
            let _b = crate::SpanGuard::enter("inner");
            sample_now();
            sample_now();
        }
        {
            let _a = crate::SpanGuard::enter("outer");
            sample_now();
        }
        let live = live_stacks();
        assert_eq!(
            live,
            vec![("outer".to_string(), 1), ("outer;inner".to_string(), 2)]
        );
        stop_global();
        assert!(!active());
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text, "outer 1\nouter;inner 2\n");
        let _ = std::fs::remove_file(&out);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn spans_entered_before_profiling_do_not_corrupt_the_mirror() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        let pre = crate::SpanGuard::enter("pre_existing");
        assert!(start_global(1, None).unwrap());
        {
            let _in = crate::SpanGuard::enter("during");
            sample_now();
        }
        drop(pre); // not mirrored; must not pop "during"'s residue
        let live = live_stacks();
        assert_eq!(live, vec![("during".to_string(), 1)]);
        stop_global();
        crate::disable();
        crate::reset();
    }

    #[test]
    fn empty_samples_count_but_record_no_stacks() {
        let _guard = crate::test_lock();
        crate::reset();
        assert!(start_global(1, None).unwrap());
        sample_now();
        assert!(live_stacks().is_empty());
        stop_global();
        crate::disable();
        crate::reset();
    }

    #[test]
    fn folded_string_round_trips_through_the_parser() {
        let stacks = vec![
            ("a;b".to_string(), 3_u64),
            ("a;c d".to_string(), 1), // frame with a space still parses
        ];
        let text = folded_string(&stacks);
        assert_eq!(text, "a;b 3\na;c d 1\n");
        assert_eq!(crate::flame::parse_folded(&text), stacks);
    }
}
