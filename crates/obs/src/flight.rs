//! The flight recorder: bounded per-thread ring buffers of recent
//! telemetry, exportable as chrome://tracing "trace event" JSON.
//!
//! # Model
//!
//! Each thread that records gets its own fixed-capacity ring guarded by
//! its own mutex; the hot path locks only that (uncontended) mutex, so
//! recording never serialises threads against each other — the global
//! lock is taken only when a new thread registers its ring and when an
//! exporter walks all rings. When a ring is full the oldest record is
//! overwritten, which is exactly the "last N seconds before the stall"
//! semantics a post-mortem wants.
//!
//! # What gets recorded
//!
//! * Completed spans (from [`crate::span!`] guards) as chrome "complete"
//!   (`ph:"X"`) events with microsecond `ts`/`dur`.
//! * Emitted [`crate::Event`]s as chrome "instant" (`ph:"i"`) events.
//!
//! Recording happens only while both the master obs gate and the
//! flight gate ([`enable`]) are on; the extra cost on the disabled path
//! is one relaxed atomic load inside already-enabled code.
//!
//! # Export
//!
//! [`export_chrome_trace`] renders every ring as one JSON array in the
//! trace-event format, sorted by timestamp — load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>. [`dump_to_file`]
//! writes the same artifact to disk (the `cap-par` watchdog calls this
//! when a batch blows its deadline).

use crate::json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default per-thread ring capacity (records, not bytes).
pub const DEFAULT_CAPACITY: usize = 4096;

static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonic recorder thread ids (`ThreadId::as_u64` is unstable).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// One record in a ring.
#[derive(Debug, Clone)]
enum Record {
    /// A completed span: full nested path, start offset and duration in
    /// microseconds since obs start.
    Span {
        path: String,
        ts_us: f64,
        dur_us: f64,
    },
    /// An emitted event, as an instant marker.
    Instant { kind: &'static str, ts_us: f64 },
}

struct Ring {
    slots: Vec<Record>,
    /// Next write position once the ring has wrapped.
    next: usize,
    /// Total records ever written (≥ `slots.len()` once wrapped).
    written: u64,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity.min(1024)),
            next: 0,
            written: 0,
            capacity: capacity.max(1),
        }
    }

    fn push(&mut self, record: Record) {
        if self.slots.len() < self.capacity {
            self.slots.push(record);
        } else {
            self.slots[self.next] = record;
            self.next = (self.next + 1) % self.capacity;
        }
        self.written += 1;
    }

    /// Records in insertion order (oldest first).
    fn ordered(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }
}

struct ThreadRing {
    tid: u64,
    name: String,
    ring: Arc<Mutex<Ring>>,
}

fn rings() -> &'static Mutex<Vec<ThreadRing>> {
    static RINGS: OnceLock<Mutex<Vec<ThreadRing>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// Whether the flight recorder is on. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on, with [`DEFAULT_CAPACITY`] records per
/// thread. Also requires the master obs gate ([`crate::enable`]) for
/// anything to be recorded.
pub fn enable() {
    FLIGHT_ENABLED.store(true, Ordering::Release);
}

/// Turns the recorder off (rings keep their contents for export).
pub fn disable() {
    FLIGHT_ENABLED.store(false, Ordering::Release);
}

/// Empties every ring (test isolation).
pub fn clear() {
    let mut all = rings().lock().unwrap();
    all.retain(|tr| Arc::strong_count(&tr.ring) > 1);
    for tr in all.iter() {
        let mut ring = tr.ring.lock().unwrap();
        *ring = Ring::new(DEFAULT_CAPACITY);
    }
}

/// Runs `f` with the calling thread's ring, creating and registering it
/// on first use.
fn with_local_ring(f: impl FnOnce(&mut Ring)) {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let ring = Arc::new(Mutex::new(Ring::new(DEFAULT_CAPACITY)));
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .unwrap_or("thread")
                .to_string();
            rings().lock().unwrap().push(ThreadRing {
                tid,
                name,
                ring: Arc::clone(&ring),
            });
            *slot = Some(ring);
        }
        let ring = slot.as_ref().expect("local ring installed above");
        f(&mut ring.lock().unwrap());
    });
}

/// Records a completed span. Called by the span guard on drop when both
/// gates are on; `ts_us`/`dur_us` are microseconds since obs start.
pub(crate) fn record_span(path: &str, ts_us: f64, dur_us: f64) {
    with_local_ring(|ring| {
        ring.push(Record::Span {
            path: path.to_string(),
            ts_us,
            dur_us,
        });
    });
}

/// Records an emitted event as an instant marker. Called by
/// [`crate::emit`] when both gates are on.
pub(crate) fn record_instant(kind: &'static str, t_secs: f64) {
    with_local_ring(|ring| {
        ring.push(Record::Instant {
            kind,
            ts_us: t_secs * 1e6,
        });
    });
}

/// Total records currently buffered across every thread's ring.
pub fn buffered_records() -> usize {
    rings()
        .lock()
        .unwrap()
        .iter()
        .map(|tr| tr.ring.lock().unwrap().slots.len())
        .sum()
}

/// Renders every ring as one chrome://tracing "trace event" JSON array,
/// sorted by timestamp. Spans become `ph:"X"` complete events
/// (microsecond `ts` + `dur`), emitted events become `ph:"i"` instants,
/// and each recording thread contributes a `thread_name` metadata
/// record.
pub fn export_chrome_trace() -> String {
    struct Row {
        ts_us: f64,
        json: String,
    }
    let mut meta = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    {
        let all = rings().lock().unwrap();
        for tr in all.iter() {
            let mut m = String::new();
            m.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            m.push_str(&tr.tid.to_string());
            m.push_str(",\"args\":{\"name\":");
            json::write_str(&mut m, &tr.name);
            m.push_str("}}");
            meta.push(m);
            for record in tr.ring.lock().unwrap().ordered() {
                let mut s = String::with_capacity(96);
                match &record {
                    Record::Span {
                        path,
                        ts_us,
                        dur_us,
                    } => {
                        s.push_str("{\"name\":");
                        json::write_str(&mut s, path);
                        s.push_str(",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":");
                        s.push_str(&tr.tid.to_string());
                        s.push_str(",\"ts\":");
                        json::write_f64(&mut s, (ts_us * 1e3).round() / 1e3);
                        s.push_str(",\"dur\":");
                        json::write_f64(&mut s, (dur_us * 1e3).round() / 1e3);
                        s.push('}');
                        rows.push(Row {
                            ts_us: *ts_us,
                            json: s,
                        });
                    }
                    Record::Instant { kind, ts_us } => {
                        s.push_str("{\"name\":");
                        json::write_str(&mut s, kind);
                        s.push_str(
                            ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":",
                        );
                        s.push_str(&tr.tid.to_string());
                        s.push_str(",\"ts\":");
                        json::write_f64(&mut s, (ts_us * 1e3).round() / 1e3);
                        s.push('}');
                        rows.push(Row {
                            ts_us: *ts_us,
                            json: s,
                        });
                    }
                }
            }
        }
    }
    rows.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    let mut out = String::with_capacity(2 + meta.len() * 64 + rows.len() * 96);
    out.push('[');
    let mut first = true;
    for piece in meta.into_iter().chain(rows.into_iter().map(|r| r.json)) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&piece);
    }
    out.push_str("\n]\n");
    out
}

/// Writes [`export_chrome_trace`] to `path` atomically (temp file +
/// rename via [`crate::fsx::atomic_write`]), so a crash mid-dump can
/// never leave a torn trace that chrome://tracing half-parses.
///
/// # Errors
///
/// Returns the formatted I/O error when the file cannot be written.
pub fn dump_to_file(path: &str) -> Result<(), String> {
    crate::fsx::atomic_write_str(path, export_chrome_trace().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_flight(f: impl FnOnce()) {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        enable();
        clear();
        f();
        disable();
        crate::disable();
        crate::reset();
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(Record::Instant {
                kind: "tick",
                ts_us: i as f64,
            });
        }
        assert_eq!(ring.written, 5);
        let ordered = ring.ordered();
        assert_eq!(ordered.len(), 3);
        let ts: Vec<f64> = ordered
            .iter()
            .map(|r| match r {
                Record::Instant { ts_us, .. } => *ts_us,
                Record::Span { ts_us, .. } => *ts_us,
            })
            .collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn spans_and_events_become_a_valid_trace() {
        with_flight(|| {
            {
                let _outer = crate::SpanGuard::enter("outer");
                let _inner = crate::SpanGuard::enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            crate::emit(crate::Event::new("marker").u64("n", 1));
            assert!(buffered_records() >= 3);
            let trace = export_chrome_trace();
            let parsed = json::parse(&trace).unwrap();
            let json::Json::Arr(items) = parsed else {
                panic!("trace must be a JSON array");
            };
            let mut saw_span = false;
            let mut saw_instant = false;
            let mut last_ts = f64::NEG_INFINITY;
            for item in &items {
                let ph = item.get("ph").and_then(|p| p.as_str()).unwrap();
                if ph == "M" {
                    continue;
                }
                let ts = item.get("ts").and_then(|t| t.as_f64()).unwrap();
                assert!(ts >= last_ts, "events must be ts-sorted");
                last_ts = ts;
                if ph == "X" {
                    saw_span = true;
                    let dur = item.get("dur").and_then(|d| d.as_f64()).unwrap();
                    assert!(dur >= 0.0);
                }
                if ph == "i" {
                    saw_instant = true;
                }
            }
            assert!(saw_span && saw_instant, "{trace}");
        });
    }

    #[test]
    fn disabled_recorder_buffers_nothing() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        disable();
        clear();
        {
            let _span = crate::SpanGuard::enter("ghost");
        }
        assert_eq!(buffered_records(), 0);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn worker_threads_get_their_own_rings() {
        with_flight(|| {
            let threads: Vec<_> = (0..3)
                .map(|_| {
                    std::thread::spawn(|| {
                        let _span = crate::SpanGuard::enter("worker_side");
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            {
                let _span = crate::SpanGuard::enter("main_side");
            }
            let trace = export_chrome_trace();
            let parsed = json::parse(&trace).unwrap();
            let json::Json::Arr(items) = parsed else {
                panic!("not an array")
            };
            let tids: std::collections::BTreeSet<u64> = items
                .iter()
                .filter(|i| i.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .map(|i| i.get("tid").and_then(|t| t.as_u64()).unwrap())
                .collect();
            assert!(tids.len() >= 4, "expected ≥4 distinct tids, got {tids:?}");
        });
    }
}
