//! Process-global liveness heartbeat for supervised worker processes.
//!
//! A fleet supervisor (`capfleet`) cannot tell a slow worker from a
//! wedged one by exit status alone — a wedged process never exits. The
//! heartbeat closes that gap: the worker [`arm`]s a file path once, and
//! every durable progress point ([`RunDir::append_journal`],
//! [`RunDir::save_generation`], each fine-tune epoch in [`crate::fit`])
//! calls [`beat`], which atomically rewrites the file with a strictly
//! monotonic counter and fsyncs it. The supervisor polls the file: a
//! counter that stops advancing for longer than the stall timeout means
//! the worker is wedged and must be killed and rescheduled.
//!
//! Unarmed, [`beat`] is one relaxed atomic load — ordinary (non-fleet)
//! runs pay nothing.
//!
//! The file content is a single line, `"<count>\n"`.
//!
//! [`RunDir::append_journal`]: crate::rundir::RunDir::append_journal
//! [`RunDir::save_generation`]: crate::rundir::RunDir::save_generation

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Fast-path gate: true once [`arm`] has installed a target path.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Strictly monotonic beat counter for this process.
static COUNT: AtomicU64 = AtomicU64::new(0);
/// The armed target path.
static TARGET: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Arms the heartbeat: subsequent [`beat`] calls write to `path`.
/// Re-arming replaces the target; the counter keeps its monotonicity
/// across re-arms. An initial beat is written immediately so the
/// supervisor sees the file as soon as the worker starts.
pub fn arm(path: impl Into<PathBuf>) {
    {
        let mut slot = TARGET.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(path.into());
    }
    ARMED.store(true, Ordering::Release);
    beat();
}

/// Disarms the heartbeat (beats become no-ops again). Meant for tests.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    let mut slot = TARGET.lock().unwrap_or_else(|p| p.into_inner());
    *slot = None;
}

/// Records one unit of liveness: bumps the monotonic counter and
/// atomically rewrites the armed file (temp + fsync + rename, so a
/// reader never observes a torn line). No-op when unarmed — one
/// relaxed atomic load.
pub fn beat() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let count = COUNT.fetch_add(1, Ordering::Relaxed) + 1;
    let target = {
        let slot = TARGET.lock().unwrap_or_else(|p| p.into_inner());
        slot.clone()
    };
    let Some(path) = target else { return };
    let line = format!("{count}\n");
    // Liveness is best-effort by nature: a failed beat must not fail
    // the run it is reporting on.
    if let Err(e) = cap_obs::fsx::atomic_write(&path, line.as_bytes()) {
        eprintln!("heartbeat: write {} failed: {e}", path.display());
    }
}

/// Reads a heartbeat file's count. Returns `None` when the file is
/// missing or malformed (a supervisor treats both as "no beat yet").
pub fn read(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_is_noop_until_armed_and_monotonic_after() {
        let _guard = cap_obs::test_lock();
        let path = std::env::temp_dir().join(format!("cap_hb_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        disarm();
        beat();
        assert!(!path.exists(), "unarmed beat must not write");
        arm(&path);
        let c1 = read(&path).expect("arming writes an initial beat");
        beat();
        beat();
        let c2 = read(&path).unwrap();
        assert!(c2 >= c1 + 2, "counter must advance: {c1} -> {c2}");
        disarm();
        beat();
        let c3 = read(&path).unwrap();
        assert_eq!(c3, c2, "disarmed beats must not write");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("cap_hb_bad_{}", std::process::id()));
        std::fs::write(&path, "not a heartbeat").unwrap();
        assert_eq!(read(&path), None);
        assert_eq!(read(Path::new("/nonexistent/heartbeat")), None);
        let _ = std::fs::remove_file(&path);
    }
}
