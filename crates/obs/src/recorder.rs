//! The sampling recorder: a background thread that snapshots the
//! metrics registry into a run directory's `series.capts` on a fixed
//! cadence, plus an explicit hook for pruning-iteration boundaries.
//!
//! One recorder runs per process (like the [`crate::serve`] global
//! server). Cadence samples are buffered appends — crash safety comes
//! from the store's torn-tail truncation — while boundary samples and
//! shutdown are fsync'd, so the durable history always includes every
//! completed pruning iteration. Every ingested sample is also pushed
//! into a bounded in-memory ring that backs the `/api/series` and
//! `/dash` routes.
//!
//! The recorder only *reads* shared state (the registry) and writes a
//! side file; it never feeds anything back into the computation, so the
//! workspace determinism contract (bit-identical results at any
//! `CAP_THREADS`, with or without telemetry) is unaffected by the
//! sampling cadence.

use crate::tsdb::{Sample, SeriesWriter, TsdbError};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Samples kept in the in-memory ring for live queries.
const MEM_CAP: usize = 4096;

/// The sampling cadence of every run-dir recording.
pub const DEFAULT_INTERVAL_MS: u64 = 250;

struct Shared {
    writer: Mutex<SeriesWriter>,
    mem: Mutex<VecDeque<Sample>>,
    stop: AtomicBool,
}

struct Recorder {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

fn global_slot() -> &'static Mutex<Option<Recorder>> {
    static GLOBAL: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Takes one sample: snapshot → append → memory ring.
fn sample_once(shared: &Shared, durable: bool) -> Result<(), TsdbError> {
    let points = crate::tsdb::snapshot_points();
    let t = crate::uptime_secs();
    let sample = {
        let mut writer = shared.writer.lock().unwrap();
        writer.append(t, points, durable)?
    };
    let mut mem = shared.mem.lock().unwrap();
    if mem.len() == MEM_CAP {
        mem.pop_front();
    }
    mem.push_back(sample);
    Ok(())
}

/// Starts the process-global recorder writing to `path`, sampling every
/// `interval`. Returns `false` (and leaves the running recorder alone)
/// if one is already active — the first run-scoped start wins.
///
/// Turns the master obs gate on: a history recording with the
/// gauge/counter pipeline disabled would be a file of empty samples.
///
/// # Errors
///
/// Propagates store open/append failures as strings.
pub fn start_global(path: &Path, interval: Duration) -> Result<bool, String> {
    let mut slot = global_slot().lock().unwrap();
    if slot.is_some() {
        return Ok(false);
    }
    crate::enable();
    let writer = SeriesWriter::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let shared = Arc::new(Shared {
        writer: Mutex::new(writer),
        mem: Mutex::new(VecDeque::new()),
        stop: AtomicBool::new(false),
    });
    // First sample immediately, durable: a run that crashes before the
    // first cadence tick still leaves a history anchor behind.
    sample_once(&shared, true).map_err(|e| format!("series append: {e}"))?;
    let thread_shared = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name("cap-obs-recorder".to_string())
        .spawn(move || run_loop(&thread_shared, interval))
        .map_err(|e| format!("spawn cap-obs-recorder: {e}"))?;
    *slot = Some(Recorder {
        shared,
        handle: Some(handle),
    });
    Ok(true)
}

fn run_loop(shared: &Shared, interval: Duration) {
    // Sleep in short slices so stop_global() never waits a full
    // interval; 20 ms keeps shutdown prompt at any cadence.
    let slice = Duration::from_millis(20).min(interval);
    let mut elapsed = Duration::ZERO;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(slice);
        elapsed += slice;
        if elapsed >= interval {
            elapsed = Duration::ZERO;
            if sample_once(shared, false).is_err() {
                // A dead disk should not kill the run; stop sampling.
                return;
            }
        }
    }
}

/// Whether the global recorder is running.
pub fn active() -> bool {
    global_slot().lock().unwrap().is_some()
}

/// Takes one fsync'd sample right now (pruning-iteration boundaries).
/// No-op without a running recorder.
pub fn record_boundary_sample() {
    let slot = global_slot().lock().unwrap();
    if let Some(rec) = slot.as_ref() {
        let _ = sample_once(&rec.shared, true);
    }
}

/// Stops the global recorder: one final fsync'd sample, joins the
/// thread. No-op when none is running.
pub fn stop_global() {
    let rec = global_slot().lock().unwrap().take();
    let Some(mut rec) = rec else {
        return;
    };
    rec.shared.stop.store(true, Ordering::Release);
    if let Some(handle) = rec.handle.take() {
        let _ = handle.join();
    }
    let _ = sample_once(&rec.shared, true);
}

/// A copy of the in-memory sample ring (live `/dash` and `/api/series`
/// source). Empty when no recorder is running.
pub fn memory_samples() -> Vec<Sample> {
    let slot = global_slot().lock().unwrap();
    match slot.as_ref() {
        Some(rec) => rec.shared.mem.lock().unwrap().iter().cloned().collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_boundary_samples_and_survives_restart() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        let dir = std::env::temp_dir().join(format!("cap_recorder_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.capts");

        crate::gauge_set("rec.test.gauge", 1.5);
        assert!(start_global(&path, Duration::from_secs(3600)).unwrap());
        assert!(!start_global(&path, Duration::from_secs(3600)).unwrap());
        assert!(active());
        crate::gauge_set("rec.test.gauge", 2.5);
        record_boundary_sample();
        stop_global();
        assert!(!active());

        let first = crate::tsdb::read_samples(&path).unwrap();
        // Start sample + boundary + stop sample.
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].value("rec.test.gauge"), Some(1.5));
        assert_eq!(first[1].value("rec.test.gauge"), Some(2.5));
        let last_seq = first.last().unwrap().seq;

        // A second session appends contiguously.
        assert!(start_global(&path, Duration::from_secs(3600)).unwrap());
        assert_eq!(memory_samples().len(), 1);
        stop_global();
        let second = crate::tsdb::read_samples(&path).unwrap();
        assert_eq!(second.first().map(|s| s.seq), Some(0));
        assert_eq!(second.len(), first.len() + 2);
        assert_eq!(second[first.len()].seq, last_seq + 1);

        let _ = std::fs::remove_dir_all(&dir);
        crate::disable();
        crate::reset();
    }
}
