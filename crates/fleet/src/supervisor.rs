//! The supervisor: N worker children, one durable queue, one federated
//! telemetry surface.
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
//!   resolves stale `running` entries: a run dir holding `DONE.json`
//!   is done (a completed spec is never executed twice); a live orphan
//!   worker from the previous supervisor is SIGKILLed before its spec
//!   is requeued (two writers on one run dir would corrupt it).
//!
//! ## Federation
//!
//! Every worker serves its own ephemeral `/metrics` and publishes the
//! address into its run dir; each supervisor tick scrapes them and
//! republishes every sample as `fleet.worker.<slot>.<name>` gauges,
//! alongside the supervisor's own queue gauges
//! (`fleet.specs_{pending,running,done,poisoned}`), per-slot
//! `up`/`restarts`/`backoff_ms` gauges and the `fleet.restarts_total`
//! counter — one scrape shows the whole fleet. The `/fleet` route
//! (registered dynamically on the supervisor's server) renders the
//! same view as HTML.

use crate::queue::{Queue, SpecState};
use crate::worker::{DONE_FILE, HEARTBEAT_FILE, METRICS_ADDR_FILE};
use cap_obs::dash::{FleetSummary, FleetWorkerRow};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
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
    /// Supervisor telemetry bind address; empty disables the server.
    pub metrics_addr: String,
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
            metrics_addr: "127.0.0.1:0".to_string(),
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

/// Whether `pid` is a live `capfleet` process (guards against pid
/// reuse before we SIGKILL an orphan).
fn is_live_capfleet(pid: u32) -> bool {
    match std::fs::read(format!("/proc/{pid}/cmdline")) {
        Ok(cmdline) => String::from_utf8_lossy(&cmdline).contains("capfleet"),
        Err(_) => false,
    }
}

fn kill_pid(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

/// Resolves stale `running` entries against run-dir truth (see module
/// docs). Also promotes any entry whose run dir already holds
/// `DONE.json` — completed work is never redone, whatever state the
/// dying supervisor managed to record.
///
/// # Errors
///
/// Propagates queue-append failures.
pub fn reconcile(queue: &mut Queue, fleet_dir: &Path) -> Result<(), String> {
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
        // A stale running entry: the previous supervisor died. Its
        // worker may still be alive — kill it before requeueing, two
        // writers on one run dir would corrupt the journal.
        if let Some((_, pid)) = cap_nn::heartbeat::read(&run_dir.join(HEARTBEAT_FILE)) {
            if is_live_capfleet(pid) {
                eprintln!("capfleet: reconcile: killing orphan worker pid {pid} for {id}");
                kill_pid(pid);
                let deadline = cap_obs::clock::now() + Duration::from_secs(5);
                while is_live_capfleet(pid) && cap_obs::clock::now() < deadline {
                    std::thread::sleep(Duration::from_millis(20));
                }
                if is_live_capfleet(pid) {
                    return Err(format!("orphan worker pid {pid} for {id} survived SIGKILL"));
                }
            }
        }
        eprintln!("capfleet: reconcile: requeueing interrupted spec {id}");
        queue.mark(&id, SpecState::Pending, attempts)?;
    }
    Ok(())
}

/// Scrapes one worker's `/metrics` and republishes every sample under
/// `fleet.worker.<slot>.`. Returns a short status for the dashboard.
fn federate_slot(slot_idx: usize, run_dir: &Path) -> String {
    let Ok(addr_text) = std::fs::read_to_string(run_dir.join(METRICS_ADDR_FILE)) else {
        return "no metrics.addr yet".to_string();
    };
    let Ok(addr) = addr_text.trim().parse::<std::net::SocketAddr>() else {
        return format!("bad metrics.addr {addr_text:?}");
    };
    match cap_obs::serve::http_get(addr, "/metrics") {
        Ok(body) => {
            let samples = cap_obs::expo::parse_exposition(&body);
            let n = samples.len();
            for (name, value) in samples {
                cap_obs::gauge_set(&format!("fleet.worker.{slot_idx}.{name}"), value);
            }
            format!("scrape ok ({n} series)")
        }
        Err(e) => format!("scrape failed: {e}"),
    }
}

/// Runs the fleet in `fleet_dir` until the queue drains (every spec
/// `done` or `poisoned`). Always reconciles first, so `run` after a
/// supervisor SIGKILL behaves like `resume`.
///
/// # Errors
///
/// Returns setup failures (queue, spawn path, telemetry bind errors
/// other than `EADDRINUSE`) and queue-append failures.
pub fn run_fleet(fleet_dir: &Path, cfg: &FleetConfig) -> Result<FleetReport, String> {
    let mut queue = Queue::load(fleet_dir)?;
    reconcile(&mut queue, fleet_dir)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let server = if cfg.metrics_addr.is_empty() {
        None
    } else {
        cap_obs::serve::Server::start_resilient(&cfg.metrics_addr)?
    };
    let view: Arc<Mutex<(FleetSummary, Vec<FleetWorkerRow>)>> =
        Arc::new(Mutex::new((FleetSummary::default(), Vec::new())));
    if let Some(server) = &server {
        cap_obs::fsx::atomic_write(
            &fleet_dir.join("supervisor.addr"),
            server.addr().to_string().as_bytes(),
        )
        .map_err(|e| format!("write supervisor.addr: {e}"))?;
        let route_view = Arc::clone(&view);
        let title = fleet_dir.display().to_string();
        cap_obs::serve::register_route("/fleet", move |_query| {
            let guard = route_view.lock().unwrap_or_else(|p| p.into_inner());
            (
                "text/html; charset=utf-8",
                cap_obs::dash::render_fleet(&guard.0, &guard.1, &title),
            )
        });
        eprintln!(
            "capfleet: supervisor metrics on http://{}/metrics (fleet view: /fleet)",
            server.addr()
        );
    }
    cap_obs::enable();

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
                    if let Some((beat, _)) = cap_nn::heartbeat::read(&run_dir.join(HEARTBEAT_FILE))
                    {
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
                .arg(fleet_dir)
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

        // 3. Publish the federated view.
        let (pending, running, done, poisoned) = queue.counts();
        cap_obs::gauge_set("fleet.specs_pending", pending as f64);
        cap_obs::gauge_set("fleet.specs_running", running as f64);
        cap_obs::gauge_set("fleet.specs_done", done as f64);
        cap_obs::gauge_set("fleet.specs_poisoned", poisoned as f64);
        let mut rows = Vec::with_capacity(slots.len());
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
            let mut row = FleetWorkerRow {
                slot: i,
                up,
                restarts: slot_restarts[i],
                ..FleetWorkerRow::default()
            };
            if let Some(slot) = slot_opt {
                row.pid = slot.child.id();
                row.spec = slot.spec_id.clone();
                row.heartbeat = slot.beat;
                let run_dir = crate::worker::run_dir_path(fleet_dir, &slot.spec_id);
                row.detail = federate_slot(i, &run_dir);
            } else {
                row.detail = format!("idle (last backoff {}ms)", slot_backoff_ms[i]);
            }
            rows.push(row);
        }
        {
            let mut guard = view.lock().unwrap_or_else(|p| p.into_inner());
            guard.0 = FleetSummary {
                pending,
                running,
                done,
                poisoned,
                restarts_total,
            };
            guard.1 = rows;
        }

        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(10)));
    }

    let (_, _, done, poisoned) = queue.counts();
    cap_obs::gauge_set("fleet.specs_done", done as f64);
    cap_obs::gauge_set("fleet.specs_poisoned", poisoned as f64);
    if server.is_some() {
        cap_obs::serve::unregister_route("/fleet");
    }
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
