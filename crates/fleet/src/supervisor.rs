//! The supervisor: N worker children, one durable queue.
//!
//! ## Failure policy
//!
//! - **Death** — a child that exits nonzero (or is killed by a signal)
//!   failed its attempt. The attempt is charged durably to the queue.
//! - **Wedge** — a child whose heartbeat file stops advancing for
//!   longer than `stall_timeout_ms` is SIGKILLed and charged like a
//!   death. Heartbeats come for free from the run's durable progress
//!   points ([`cap_nn::heartbeat`]).
//! - **Retry** — failed specs return to `pending` with capped
//!   exponential backoff (`backoff_base_ms * 2^(attempt-1)`, capped at
//!   `backoff_cap_ms`). After `retry_budget` failed attempts the spec
//!   is marked `poisoned` and never retried, so one broken spec cannot
//!   starve the fleet.
//! - **Resume** — a rescheduled run re-enters through the run dir: the
//!   journal makes
//!   [`ClassAwarePruner::resume`](cap_core::ClassAwarePruner::resume)
//!   replay completed iterations bit-identically, so a
//!   crashed-and-rescheduled run's final checkpoint equals an
//!   uninterrupted run's.
//! - **Supervisor death** — the queue and the run dirs are the truth,
//!   not this process's memory. [`reconcile`] (run at every startup)
//!   first SIGKILLs every live `capfleet worker` of the fleet dir: each
//!   is an orphan of the previous supervisor, whatever the queue or its
//!   heartbeat say (two writers on one run dir would corrupt it). It
//!   then resolves stale `running` entries: a run dir holding
//!   `DONE.json` is done (a completed spec is never executed twice);
//!   any other is requeued.
//!
//! ## Telemetry
//!
//! Each tick publishes the queue gauges
//! (`fleet.specs_{pending,running,done,poisoned}`), per-slot
//! `fleet.worker.<slot>.{up,restarts,backoff_ms}` gauges and the
//! `fleet.restarts_total` counter. They are live when telemetry is on
//! (`capfleet run` serves them on `/metrics` when `CAP_METRICS_ADDR` is
//! set). Workers serve nothing: each one's record is its run dir, read
//! with `capctl tail|dash|flame <fleet-dir>/runs/<id>`.

use crate::queue::{Queue, SpecState};
use crate::worker::{DONE_FILE, HEARTBEAT_FILE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Supervisor tuning knobs (every one has a CLI flag).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent worker children.
    pub workers: usize,
    /// Failed attempts before a spec is poisoned.
    pub retry_budget: u64,
    /// First retry delay; doubles per failed attempt.
    pub backoff_base_ms: u64,
    /// Upper bound on the retry delay.
    pub backoff_cap_ms: u64,
    /// Heartbeat silence that counts as a wedge.
    pub stall_timeout_ms: u64,
    /// Supervisor loop tick.
    pub poll_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            retry_budget: 3,
            backoff_base_ms: 200,
            backoff_cap_ms: 5_000,
            stall_timeout_ms: 15_000,
            poll_ms: 200,
        }
    }
}

/// Final tally returned by [`run_fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetReport {
    /// Specs completed successfully.
    pub done: u64,
    /// Specs abandoned after exhausting their retry budget.
    pub poisoned: u64,
    /// Worker child restarts across the sweep.
    pub restarts: u64,
}

struct Slot {
    child: Child,
    spec_id: String,
    attempt: u64,
    beat: u64,
    beat_at: Instant,
    killed_for_stall: bool,
}

/// Capped exponential backoff after the `attempt`-th failure.
fn backoff_ms(cfg: &FleetConfig, attempt: u64) -> u64 {
    let shift = attempt.saturating_sub(1).min(20) as u32;
    cfg.backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(cfg.backoff_cap_ms)
}

/// The path a supervisor passes its workers as `--fleet-dir`, so a
/// worker's command line names its fleet exactly.
fn canonical(fleet_dir: &Path) -> PathBuf {
    std::fs::canonicalize(fleet_dir).unwrap_or_else(|_| fleet_dir.to_path_buf())
}

/// Whether `pid` is a live `capfleet worker --fleet-dir <fleet_dir>`
/// (its `/proc/<pid>/cmdline`; a zombie's is empty).
fn is_worker_of(pid: u32, fleet_dir: &str) -> bool {
    let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
        return false;
    };
    let args: Vec<_> = cmdline
        .split(|&b| b == 0)
        .map(String::from_utf8_lossy)
        .collect();
    args.len() > 3
        && Path::new(args[0].as_ref()).file_name() == Some(std::ffi::OsStr::new("capfleet"))
        && args[1] == "worker"
        && args
            .windows(2)
            .any(|w| w[0] == "--fleet-dir" && w[1] == fleet_dir)
}

/// SIGKILLs every live worker of `fleet_dir` and waits for them to die.
/// [`reconcile`] runs it before touching the queue; tests run it so no
/// worker outlives them.
///
/// # Errors
///
/// Names the workers still alive 5 s after SIGKILL.
pub fn kill_workers(fleet_dir: &Path) -> Result<(), String> {
    let dir = canonical(fleet_dir);
    let dir = dir.to_string_lossy();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Ok(());
    };
    let orphans: Vec<u32> = procs
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&pid| is_worker_of(pid, &dir))
        .collect();
    for pid in &orphans {
        eprintln!("capfleet: killing orphan worker pid {pid} of {dir}");
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    let deadline = cap_obs::clock::now() + Duration::from_secs(5);
    loop {
        let alive: Vec<u32> = orphans
            .iter()
            .copied()
            .filter(|&pid| is_worker_of(pid, &dir))
            .collect();
        if alive.is_empty() {
            return Ok(());
        }
        if cap_obs::clock::now() >= deadline {
            return Err(format!(
                "orphan worker(s) {alive:?} of {dir} survived SIGKILL"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Kills the previous supervisor's orphan workers, then resolves stale
/// `running` entries against run-dir truth (see module docs). Also
/// promotes any entry whose run dir already holds `DONE.json` —
/// completed work is never redone, whatever state the dying supervisor
/// managed to record.
///
/// # Errors
///
/// Propagates [`kill_workers`] and queue-append failures.
pub fn reconcile(queue: &mut Queue, fleet_dir: &Path) -> Result<(), String> {
    kill_workers(fleet_dir)?;
    let snapshot: Vec<(String, SpecState, u64)> = queue
        .entries()
        .iter()
        .map(|e| (e.spec.id.clone(), e.state, e.attempts))
        .collect();
    for (id, state, attempts) in snapshot {
        if state == SpecState::Done || state == SpecState::Poisoned {
            continue;
        }
        let run_dir = crate::worker::run_dir_path(fleet_dir, &id);
        if run_dir.join(DONE_FILE).exists() {
            eprintln!("capfleet: reconcile: {id} already completed (DONE.json), marking done");
            queue.mark(&id, SpecState::Done, attempts)?;
            continue;
        }
        if state != SpecState::Running {
            continue;
        }
        // A stale running entry: the previous supervisor died, and its
        // worker is dead too.
        eprintln!("capfleet: reconcile: requeueing interrupted spec {id}");
        queue.mark(&id, SpecState::Pending, attempts)?;
    }
    Ok(())
}

/// Runs the fleet in `fleet_dir` until the queue drains (every spec
/// `done` or `poisoned`). Always reconciles first, so `run` after a
/// supervisor SIGKILL behaves like `resume`.
///
/// # Errors
///
/// Returns setup failures (queue, spawn path) and queue-append
/// failures.
pub fn run_fleet(fleet_dir: &Path, cfg: &FleetConfig) -> Result<FleetReport, String> {
    let mut queue = Queue::load(fleet_dir)?;
    reconcile(&mut queue, fleet_dir)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let worker_fleet_dir = canonical(fleet_dir);

    let mut slots: Vec<Option<Slot>> = (0..cfg.workers.max(1)).map(|_| None).collect();
    let mut slot_restarts = vec![0u64; slots.len()];
    let mut slot_backoff_ms = vec![0u64; slots.len()];
    let mut restarts_total = 0u64;
    let mut eligible_at: BTreeMap<String, Instant> = BTreeMap::new();

    loop {
        // 1. Reap exited children and charge failures.
        for (i, slot_opt) in slots.iter_mut().enumerate() {
            let Some(slot) = slot_opt else { continue };
            match slot.child.try_wait() {
                Ok(Some(status)) => {
                    let run_dir = crate::worker::run_dir_path(fleet_dir, &slot.spec_id);
                    let completed = status.success() && run_dir.join(DONE_FILE).exists();
                    if completed {
                        eprintln!("capfleet: {} done (attempt {})", slot.spec_id, slot.attempt);
                        queue.mark(&slot.spec_id, SpecState::Done, slot.attempt)?;
                    } else {
                        restarts_total += 1;
                        slot_restarts[i] += 1;
                        cap_obs::counter_add("fleet.restarts_total", 1);
                        let why = if slot.killed_for_stall {
                            "wedged (heartbeat stall)".to_string()
                        } else {
                            format!("exited {status}")
                        };
                        if slot.attempt >= cfg.retry_budget {
                            eprintln!(
                                "capfleet: {} {why}; retry budget ({}) exhausted — poisoned",
                                slot.spec_id, cfg.retry_budget
                            );
                            queue.mark(&slot.spec_id, SpecState::Poisoned, slot.attempt)?;
                        } else {
                            let delay = backoff_ms(cfg, slot.attempt);
                            slot_backoff_ms[i] = delay;
                            eprintln!(
                                "capfleet: {} {why}; retrying in {delay}ms (attempt {}/{})",
                                slot.spec_id, slot.attempt, cfg.retry_budget
                            );
                            queue.mark_failed(&slot.spec_id, slot.attempt)?;
                            eligible_at.insert(
                                slot.spec_id.clone(),
                                cap_obs::clock::now() + Duration::from_millis(delay),
                            );
                        }
                    }
                    *slot_opt = None;
                }
                Ok(None) => {
                    // Still running: advance the heartbeat watch.
                    let run_dir = crate::worker::run_dir_path(fleet_dir, &slot.spec_id);
                    if let Some(beat) = cap_nn::heartbeat::read(&run_dir.join(HEARTBEAT_FILE)) {
                        if beat != slot.beat {
                            slot.beat = beat;
                            slot.beat_at = cap_obs::clock::now();
                        }
                    }
                    let silent = cap_obs::clock::now().duration_since(slot.beat_at);
                    if !slot.killed_for_stall
                        && silent > Duration::from_millis(cfg.stall_timeout_ms)
                    {
                        eprintln!(
                            "capfleet: {} heartbeat silent {}ms > {}ms — SIGKILL",
                            slot.spec_id,
                            silent.as_millis(),
                            cfg.stall_timeout_ms
                        );
                        slot.killed_for_stall = true;
                        let _ = slot.child.kill();
                    }
                }
                Err(e) => return Err(format!("wait on {}: {e}", slot.spec_id)),
            }
        }

        if queue.drained() {
            break;
        }

        // 2. Fill idle slots with eligible pending specs.
        for i in 0..slots.len() {
            if slots[i].is_some() {
                continue;
            }
            let now = cap_obs::clock::now();
            let running_ids: Vec<String> =
                slots.iter().flatten().map(|s| s.spec_id.clone()).collect();
            let next = queue.entries().into_iter().find_map(|e| {
                if e.state != SpecState::Pending || running_ids.contains(&e.spec.id) {
                    return None;
                }
                if eligible_at.get(&e.spec.id).is_some_and(|t| *t > now) {
                    return None;
                }
                Some((e.spec.clone(), e.attempts))
            });
            let Some((spec, attempts)) = next else { break };
            let attempt = attempts + 1;
            let mut cmd = Command::new(&exe);
            cmd.arg("worker")
                .arg("--fleet-dir")
                .arg(&worker_fleet_dir)
                .arg("--spec")
                .arg(&spec.id)
                .env_remove("CAP_METRICS_ADDR")
                .env_remove("CAP_FAULT")
                .stdout(Stdio::null());
            // Inject the spec's fault directive only on its early
            // attempts: the clean retry then proves recovery.
            if !spec.fault.is_empty() && attempt <= spec.fault_attempts {
                cmd.env("CAP_FAULT", &spec.fault);
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn worker for {}: {e}", spec.id))?;
            eprintln!(
                "capfleet: slot {i}: {} attempt {attempt} (pid {})",
                spec.id,
                child.id()
            );
            queue.mark(&spec.id, SpecState::Running, attempt)?;
            slots[i] = Some(Slot {
                child,
                spec_id: spec.id,
                attempt,
                beat: 0,
                beat_at: cap_obs::clock::now(),
                killed_for_stall: false,
            });
        }

        // 3. Publish the queue and slot gauges.
        let (pending, running, done, poisoned) = queue.counts();
        cap_obs::gauge_set("fleet.specs_pending", pending as f64);
        cap_obs::gauge_set("fleet.specs_running", running as f64);
        cap_obs::gauge_set("fleet.specs_done", done as f64);
        cap_obs::gauge_set("fleet.specs_poisoned", poisoned as f64);
        for (i, slot_opt) in slots.iter().enumerate() {
            let up = slot_opt.is_some();
            cap_obs::gauge_set(&format!("fleet.worker.{i}.up"), f64::from(u8::from(up)));
            cap_obs::gauge_set(
                &format!("fleet.worker.{i}.restarts"),
                slot_restarts[i] as f64,
            );
            cap_obs::gauge_set(
                &format!("fleet.worker.{i}.backoff_ms"),
                slot_backoff_ms[i] as f64,
            );
        }

        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(10)));
    }

    let (_, _, done, poisoned) = queue.counts();
    cap_obs::gauge_set("fleet.specs_done", done as f64);
    cap_obs::gauge_set("fleet.specs_poisoned", poisoned as f64);
    eprintln!(
        "capfleet: sweep complete — {done} done, {poisoned} poisoned, {restarts_total} restarts"
    );
    Ok(FleetReport {
        done,
        poisoned,
        restarts: restarts_total,
    })
}

/// Renders the queue as the `capfleet status` table.
pub fn render_status(queue: &Queue) -> String {
    let mut out = String::new();
    let (pending, running, done, poisoned) = queue.counts();
    out.push_str(&format!(
        "{pending} pending · {running} running · {done} done · {poisoned} poisoned\n"
    ));
    let report = &queue.load_report;
    if *report != crate::queue::LoadReport::default() {
        out.push_str(&format!(
            "queue.jsonl: {} dropped line(s), {} duplicate spec(s), {} orphan event(s)\n",
            report.dropped_lines, report.duplicate_specs, report.orphan_events
        ));
    }
    out.push_str(&format!(
        "{:<28} {:<10} {:>8}  {}\n",
        "SPEC", "STATE", "ATTEMPTS", "KIND"
    ));
    for entry in queue.entries() {
        let state = match entry.state {
            SpecState::Pending => "pending",
            SpecState::Running => "running",
            SpecState::Done => "done",
            SpecState::Poisoned => "poisoned",
        };
        let fault = if entry.spec.fault.is_empty() {
            String::new()
        } else {
            format!(
                " fault={} (attempts<={})",
                entry.spec.fault, entry.spec.fault_attempts
            )
        };
        out.push_str(&format!(
            "{:<28} {:<10} {:>8}  {}{fault}\n",
            entry.spec.id, state, entry.attempts, entry.spec.kind
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = FleetConfig {
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
            ..FleetConfig::default()
        };
        assert_eq!(backoff_ms(&cfg, 1), 100);
        assert_eq!(backoff_ms(&cfg, 2), 200);
        assert_eq!(backoff_ms(&cfg, 3), 400);
        assert_eq!(backoff_ms(&cfg, 5), 1_000, "capped");
        assert_eq!(backoff_ms(&cfg, 60), 1_000, "no shift overflow");
    }

    #[test]
    fn reconcile_trusts_run_dir_truth() {
        let dir = std::env::temp_dir().join(format!("cap_fleet_rec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut queue = Queue::create(
            &dir,
            &[Spec::demo("finished", 1), Spec::demo("interrupted", 2)],
        )
        .unwrap();
        // Both were marked running by a supervisor that then died.
        queue.mark("finished", SpecState::Running, 1).unwrap();
        queue.mark("interrupted", SpecState::Running, 1).unwrap();
        // "finished" completed (DONE.json landed); "interrupted" did not.
        let done_dir = crate::worker::run_dir_path(&dir, "finished");
        std::fs::create_dir_all(&done_dir).unwrap();
        cap_obs::fsx::atomic_write(&done_dir.join(DONE_FILE), b"{}").unwrap();
        reconcile(&mut queue, &dir).unwrap();
        assert_eq!(
            queue.get("finished").unwrap().state,
            SpecState::Done,
            "completed spec must not be re-executed"
        );
        assert_eq!(
            queue.get("interrupted").unwrap().state,
            SpecState::Pending,
            "interrupted spec requeued"
        );
        // Reconciliation is durable: a reload agrees.
        drop(queue);
        let queue = Queue::load(&dir).unwrap();
        assert_eq!(queue.get("finished").unwrap().state, SpecState::Done);
        assert_eq!(queue.get("interrupted").unwrap().state, SpecState::Pending);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_renders_counts_and_fault_annotations() {
        let dir = std::env::temp_dir().join(format!("cap_fleet_status_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut faulty = Spec::demo("chaotic", 3);
        faulty.fault = "crash_after_iter=1".to_string();
        faulty.fault_attempts = 1;
        let mut queue = Queue::create(&dir, &[Spec::demo("plain", 1), faulty]).unwrap();
        queue.mark("plain", SpecState::Done, 1).unwrap();
        let status = render_status(&queue);
        assert!(status.contains("1 pending · 0 running · 1 done · 0 poisoned"));
        assert!(status.contains("chaotic"));
        assert!(status.contains("fault=crash_after_iter=1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
