#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! `cap-obs` — zero-dependency observability for the class-aware
//! pruning workspace: scoped span timers, a metrics registry, and
//! pluggable event sinks.
//!
//! # Model
//!
//! - **Spans** ([`span!`]) are RAII scope timers. They nest via a
//!   thread-local stack, so per-layer forward/backward time and the
//!   im2col/matmul kernel time inside it roll up into a call tree,
//!   folded into self-time stacks for flamegraphs ([`span_stacks`]).
//!   Disabled spans cost one relaxed atomic load.
//! - **Metrics** live in a process-global [`Registry`]: counters,
//!   gauges, and log-bucketed histograms with p50/p95/max summaries.
//! - **Events** ([`Event`]) are structured records (epoch finished,
//!   pruning iteration done, …) routed to the installed [`Sink`]: a
//!   human-readable pretty printer on stderr or a machine-readable
//!   JSONL file compatible with the `BENCH_*.json` perf-record style.
//!
//! Everything is **off by default** and cheap when off: no allocation,
//! no clock reads, no locks on the disabled path (measured by
//! `bench_baseline` in `cap-bench`, which records the disabled-span
//! cost and its allocation count in `BENCH_obs.json`).
//!
//! # Quickstart
//!
//! ```
//! // Programmatic: enable + capture events in memory.
//! use cap_obs as obs;
//! let sink = obs::sink::CaptureSink::new();
//! let handle = sink.handle();
//! let _obs = obs::test_lock(); // serialise global state (tests only)
//! obs::reset();
//! obs::set_sink(Box::new(sink));
//! obs::enable();
//! {
//!     let _span = obs::span!("demo.work");
//!     obs::emit(obs::Event::new("demo").u64("n", 1));
//! }
//! obs::flush();
//! assert_eq!(handle.lines().len(), 1);
//! obs::disable();
//! obs::reset();
//! ```
//!
//! From a binary, configuration comes from one environment variable or
//! CLI flag (`--trace` in `capctl` and the bench binaries):
//!
//! ```text
//! CAP_TRACE=pretty                 narrate lifecycle events to stderr
//! CAP_TRACE=jsonl:run.jsonl        stream events to run.jsonl
//! CAP_TRACE=jsonl:run.jsonl,detail also emit per-span and per-batch events
//! ```
//!
//! Span names follow `crate.component.op` (see DESIGN.md §7), e.g.
//! `tensor.matmul`, `nn.conv2d.forward`, `core.prune.finetune`.

pub mod clock;
pub mod dash;
pub mod expo;
pub mod flame;
pub mod fsx;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod serve;
pub mod sink;
pub mod tsdb;

mod event;
mod span;

pub use event::{Event, Value};
pub use metrics::{Histogram, Metric, Registry};
pub use sink::Sink;
pub use span::{span_stacks, SpanGuard};

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Master gate: when false every instrumentation point is a no-op.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Detail gate: when true, per-span and per-batch events are emitted
/// too (high volume; lifecycle events only by default).
static DETAIL: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static SINK: OnceLock<Mutex<Option<Box<dyn Sink>>>> = OnceLock::new();
static START: OnceLock<Instant> = OnceLock::new();
static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

/// Opens a timed span; expands to a [`SpanGuard`] that must be bound:
/// `let _span = obs::span!("tensor.matmul");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Turns instrumentation on.
pub fn enable() {
    let _ = START.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Release);
}

/// Turns instrumentation off (spans/metrics/events become no-ops).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether instrumentation is on. One relaxed atomic load — this is the
/// entire cost of a disabled span or event.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether high-volume detail events (per-span, per-batch) are on.
#[inline]
pub fn detail() -> bool {
    DETAIL.load(Ordering::Relaxed)
}

/// Switches high-volume detail events on or off.
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Release);
}

/// Seconds since instrumentation was first enabled (0.0 before that).
pub fn uptime_secs() -> f64 {
    START
        .get()
        .map(|s| s.elapsed().as_secs_f64())
        .unwrap_or(0.0)
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

fn sink_slot() -> &'static Mutex<Option<Box<dyn Sink>>> {
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs the global event sink, flushing and replacing any previous
/// one.
pub fn set_sink(sink: Box<dyn Sink>) {
    let mut slot = sink_slot().lock().unwrap();
    if let Some(old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
}

/// Removes the global sink (flushing it).
pub fn clear_sink() {
    let mut slot = sink_slot().lock().unwrap();
    if let Some(old) = slot.take() {
        old.flush();
    }
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = sink_slot().lock().unwrap().as_ref() {
        sink.flush();
    }
}

/// Routes `event` to the installed sink. No-op (without rendering the
/// event) when instrumentation is disabled or no sink is installed.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    if let Some(sink) = sink_slot().lock().unwrap().as_ref() {
        sink.emit(&event);
    }
}

/// Adds `n` to global counter `name` (no-op when disabled).
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        registry().counter_add(name, n);
    }
}

/// Sets global gauge `name` (no-op when disabled).
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        registry().gauge_set(name, v);
    }
}

/// Records into global histogram `name` (no-op when disabled).
pub fn histogram_record(name: &str, v: f64) {
    if enabled() {
        registry().histogram_record(name, v);
    }
}

/// Clears the registry and removes the sink. Leaves the enable flags
/// untouched; meant for test isolation together with [`test_lock`].
pub fn reset() {
    registry().reset();
    clear_sink();
    set_detail(false);
}

/// Serialises tests that touch the process-global observability state
/// (enable flag, registry, sink). Hold the returned guard for the whole
/// test.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Configures observability from a spec string (the `--trace` argument
/// / `CAP_TRACE` value): `pretty`, `jsonl:<path>`, with an optional
/// `,detail` suffix enabling per-span/per-batch events.
///
/// # Errors
///
/// Returns a description of an unknown mode or an unopenable file.
pub fn init_from_spec(spec: &str) -> Result<(), String> {
    let (mode, detail_flag) = match spec.strip_suffix(",detail") {
        Some(rest) => (rest, true),
        None => (spec, false),
    };
    if mode == "pretty" {
        set_sink(Box::new(sink::PrettySink));
    } else if let Some(path) = mode.strip_prefix("jsonl:") {
        if path.is_empty() {
            return Err("jsonl: requires a path, e.g. jsonl:run.jsonl".to_string());
        }
        set_sink(Box::new(sink::JsonlSink::create(path)?));
    } else {
        return Err(format!(
            "unknown trace spec {spec:?}; expected pretty or jsonl:<path> (optionally ,detail)"
        ));
    }
    set_detail(detail_flag);
    enable();
    Ok(())
}

/// Reads `CAP_TRACE` and calls [`init_from_spec`]. Returns whether
/// observability was enabled.
///
/// # Errors
///
/// Propagates [`init_from_spec`] errors (the variable being unset is
/// `Ok(false)`, not an error).
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var("CAP_TRACE") {
        Ok(spec) if !spec.is_empty() => init_from_spec(&spec).map(|()| true),
        _ => Ok(false),
    }
}

/// What [`init_telemetry`] switched on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Telemetry {
    /// Whether an event sink was installed (via the CLI spec or
    /// `CAP_TRACE`).
    pub tracing: bool,
    /// Address of the live telemetry server, when `CAP_METRICS_ADDR`
    /// started one.
    pub serving: Option<SocketAddr>,
}

/// One-call telemetry setup shared by every binary in the workspace
/// (`capctl`, `capfleet` and all `cap-bench` bins route through this),
/// so `CAP_TRACE` and `CAP_METRICS_ADDR` behave identically everywhere:
///
/// 1. installs the event sink from `cli_trace` (a `--trace` argument)
///    when given, else from `CAP_TRACE`;
/// 2. when `CAP_METRICS_ADDR` is set (e.g. `127.0.0.1:9184`), starts
///    the process-global [`serve`] server there — which also enables
///    instrumentation.
///
/// # Errors
///
/// Propagates [`init_from_spec`] errors and server bind failures.
pub fn init_telemetry(cli_trace: Option<&str>) -> Result<Telemetry, String> {
    let tracing = match cli_trace {
        Some(spec) => init_from_spec(spec).map(|()| true)?,
        None => init_from_env()?,
    };
    // Resilient bind: an address squatted by another process retries
    // with backoff, then degrades to disabled-with-warning — telemetry
    // loss must not error the run it observes.
    let serving = match std::env::var("CAP_METRICS_ADDR") {
        Ok(addr) if !addr.is_empty() => serve::start_global_resilient(&addr)?,
        _ => None,
    };
    Ok(Telemetry { tracing, serving })
}

/// The shared end-of-process counterpart to [`init_telemetry`], routed
/// through by `capctl`, `capfleet` and `cap-bench`'s
/// `finalize_telemetry` so every binary tears telemetry down the same
/// way:
///
/// 1. stops the sampling [`recorder`] (final fsync'd sample);
/// 2. stops the global [`serve`] server;
/// 3. flushes the event sink.
pub fn finalize_process() {
    recorder::stop_global();
    serve::stop_global();
    flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_routes_to_sink_only_when_enabled() {
        let _guard = test_lock();
        reset();
        disable();
        let sink = sink::CaptureSink::new();
        let handle = sink.handle();
        set_sink(Box::new(sink));
        emit(Event::new("dropped"));
        assert!(handle.lines().is_empty());
        enable();
        emit(Event::new("kept").u64("n", 7));
        assert_eq!(handle.lines().len(), 1);
        assert!(handle.lines()[0].contains("\"kept\""));
        disable();
        reset();
    }

    #[test]
    fn metric_helpers_respect_gate() {
        let _guard = test_lock();
        reset();
        disable();
        counter_add("c", 1);
        gauge_set("g", 1.0);
        histogram_record("h", 1.0);
        assert!(registry().snapshot().is_empty());
        enable();
        counter_add("c", 2);
        gauge_set("g", 3.0);
        histogram_record("h", 4.0);
        let snap = registry().snapshot();
        assert_eq!(snap.len(), 3);
        match snap.iter().find(|(n, _)| n == "c").map(|(_, m)| m) {
            Some(Metric::Counter(2)) => {}
            other => panic!("bad counter {other:?}"),
        }
        match snap.iter().find(|(n, _)| n == "h").map(|(_, m)| m) {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("bad histogram {other:?}"),
        }
        disable();
        reset();
    }

    #[test]
    fn init_from_spec_variants() {
        let _guard = test_lock();
        reset();
        assert!(init_from_spec("nonsense").is_err());
        assert!(init_from_spec("jsonl:").is_err());
        init_from_spec("pretty").unwrap();
        assert!(enabled());
        assert!(!detail());
        let path = std::env::temp_dir().join(format!("cap_obs_spec_{}.jsonl", std::process::id()));
        init_from_spec(&format!("jsonl:{},detail", path.display())).unwrap();
        assert!(detail());
        emit(Event::new("ping"));
        flush();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"ping\""));
        let _ = std::fs::remove_file(&path);
        disable();
        reset();
    }

    /// Pins the stable-output contract: metrics render in sorted-name
    /// order with the fixed float format in the Prometheus exposition.
    #[test]
    fn report_and_exposition_are_sorted_with_fixed_floats() {
        let _guard = test_lock();
        reset();
        enable();
        // Insert deliberately out of order.
        gauge_set("zeta.gauge", 1.25);
        counter_add("alpha.count", 7);
        histogram_record("mid.hist", 3.0);
        gauge_set("beta.gauge", 2.0);

        let body = expo::render(registry());
        expo::validate(&body).unwrap();
        let families: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        assert_eq!(
            families,
            vec![
                "cap_obs_uptime_seconds",
                "cap_alpha_count",
                "cap_beta_gauge",
                "cap_mid_hist",
                "cap_zeta_gauge",
            ],
            "{body}"
        );
        assert!(body.contains("cap_beta_gauge 2.000000\n"), "{body}");
        // Two scrapes of an unchanged registry are byte-identical
        // modulo the uptime gauge line.
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.contains("cap_obs_uptime_seconds"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&body), strip(&expo::render(registry())));
        disable();
        reset();
    }

    #[test]
    fn concurrent_emitters_do_not_lose_events() {
        let _guard = test_lock();
        reset();
        enable();
        let sink = sink::CaptureSink::new();
        let handle = sink.handle();
        set_sink(Box::new(sink));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..250 {
                        emit(Event::new("tick").u64("i", i));
                        counter_add("ticks", 1);
                        let _span = crate::span!("ticker");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.lines().len(), 1000);
        let snap = registry().snapshot();
        match snap.iter().find(|(n, _)| n == "ticks").map(|(_, m)| m) {
            Some(Metric::Counter(c)) => assert_eq!(*c, 1000),
            other => panic!("bad counter {other:?}"),
        }
        match snap
            .iter()
            .find(|(n, _)| n == "span.ticker")
            .map(|(_, m)| m)
        {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 1000),
            other => panic!("bad span histogram {other:?}"),
        }
        disable();
        reset();
    }
}
