//! The fleet chaos invariant, end-to-end through the real `capfleet`
//! binary:
//!
//! - six specs on two workers: two clean, two that SIGABRT
//!   mid-iteration, one that wedges (killed by the heartbeat-stall
//!   detector or, once the supervisor is gone, by reconciliation), one
//!   that always dies at startup (→ poisoned);
//! - the supervisor itself is SIGKILLed mid-sweep and `capfleet
//!   resume` carries the sweep to completion;
//! - every non-poisoned spec completes **exactly once** (one durable
//!   `done` event each);
//! - rescheduled runs resume through the journal, so their final
//!   checkpoints are **bit-identical** to an uninterrupted reference
//!   fleet's;
//! - restarts are observable in the supervisor's `/metrics`, served
//!   where `CAP_METRICS_ADDR` asks;
//! - every completed spec's run dir keeps its record: a seq-contiguous
//!   `series.capts` that reached every journaled iteration across the
//!   crashes, the wedge kill and the reschedule;
//! - no process publishes a server address file;
//! - under a supervisor that stays alive, a wedged worker is SIGKILLed
//!   once its heartbeat is silent past the stall timeout, the attempt
//!   is charged as a wedge, and the retry completes;
//! - a worker the queue and its heartbeat no longer name is still
//!   killed by reconciliation, and no worker outlives these tests.

use cap_fleet::queue::{Queue, SpecState};
use cap_fleet::spec::Spec;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_capfleet");

/// SIGKILLs every worker of its fleet dirs still alive when dropped, so
/// a failing test leaves no orphan holding the test harness's stderr.
struct Reaper(Vec<PathBuf>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = cap_fleet::supervisor::kill_workers(dir);
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cap_fleet_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The chaos roster. Faulty specs first so failures happen early in
/// the sweep (the supervisor gets SIGKILLed shortly after the first).
fn chaos_specs() -> Vec<Spec> {
    let mut c1 = Spec::demo("c1-crash", 41);
    c1.fault = "crash_after_iter=1".to_string();
    c1.fault_attempts = 1;
    let mut c2 = Spec::demo("c2-crash", 42);
    c2.fault = "crash_after_iter=1".to_string();
    c2.fault_attempts = 1;
    let mut w1 = Spec::demo("w1-wedge", 43);
    w1.fault = "wedge_after_iter=1".to_string();
    w1.fault_attempts = 1;
    let mut p1 = Spec::demo("p1-poison", 44);
    p1.fault = "exit_at_start=23".to_string();
    p1.fault_attempts = 99; // never runs clean → exhausts the budget
    vec![
        c1,
        c2,
        w1,
        p1,
        Spec::demo("n1-clean", 45),
        Spec::demo("n2-clean", 46),
    ]
}

fn init_fleet(dir: &Path, specs: &[Spec]) {
    Queue::create(dir, specs).unwrap();
}

fn fleet_cmd(sub: &str, dir: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        sub,
        "--fleet-dir",
        dir.to_str().unwrap(),
        "--workers",
        "2",
        "--poll-ms",
        "100",
        "--stall-timeout-ms",
        "4000",
        "--retry-budget",
        "2",
        "--backoff-base-ms",
        "100",
        "--backoff-cap-ms",
        "1000",
    ])
    .env_remove("CAP_FAULT")
    .env_remove("CAP_METRICS_ADDR")
    .stdout(Stdio::null());
    cmd
}

fn queue_text(dir: &Path) -> String {
    std::fs::read_to_string(Queue::path_in(dir)).unwrap_or_default()
}

/// The address `capfleet run` reports on stderr once `CAP_METRICS_ADDR`
/// has started its server.
fn supervisor_addr(stderr_path: &Path) -> Option<SocketAddr> {
    std::fs::read_to_string(stderr_path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("capfleet: supervisor metrics on http://"))?
        .strip_suffix("/metrics")?
        .parse()
        .ok()
}

/// The value of the unlabelled sample `name` in a `/metrics` body.
fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

fn done_json(dir: &Path, id: &str) -> cap_obs::json::Json {
    let path = dir.join("runs").join(id).join("DONE.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    cap_obs::json::parse(&text).unwrap()
}

#[test]
fn fleet_survives_chaos_and_supervisor_sigkill_with_bit_identical_reruns() {
    let chaos_dir = tmp_dir("sweep");
    let ref_dir = tmp_dir("reference");
    let _reaper = Reaper(vec![chaos_dir.clone(), ref_dir.clone()]);
    let specs = chaos_specs();
    init_fleet(&chaos_dir, &specs);

    // Phase 1: run the chaos sweep, scrape the supervisor's /metrics
    // until a restart is visible, then SIGKILL the supervisor.
    let stderr_path = chaos_dir.join("supervisor.stderr");
    let mut supervisor = fleet_cmd("run", &chaos_dir)
        .env("CAP_METRICS_ADDR", "127.0.0.1:0")
        .stderr(std::fs::File::create(&stderr_path).unwrap())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(180);
    let mut metrics_with_restart = String::new();
    loop {
        assert!(
            Instant::now() < deadline,
            "no worker failure within 180s:\n{}",
            std::fs::read_to_string(&stderr_path).unwrap_or_default()
        );
        if let Some(addr) = supervisor_addr(&stderr_path) {
            if let Ok(body) = cap_obs::serve::http_get(addr, "/metrics") {
                if sample(&body, "cap_fleet_restarts_total").is_some_and(|v| v >= 1.0) {
                    metrics_with_restart = body;
                }
            }
        }
        // Kill only once the restart was both durably recorded and
        // observed through /metrics — mid-sweep by construction (the
        // wedge spec alone needs its 4s stall plus a clean rerun).
        if !metrics_with_restart.is_empty()
            && queue_text(&chaos_dir).contains("\"state\":\"failed\"")
        {
            break;
        }
        if supervisor.try_wait().unwrap().is_some() {
            panic!("sweep finished before a failure was observed — chaos not exercised");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    supervisor.kill().unwrap(); // SIGKILL: no cleanup, no final queue writes
    supervisor.wait().unwrap();

    // The supervisor's /metrics saw the fleet: the restart counter and
    // the per-slot gauges.
    assert!(
        sample(&metrics_with_restart, "cap_fleet_restarts_total").is_some_and(|v| v >= 1.0),
        "restart counter missing from supervisor /metrics:\n{metrics_with_restart}"
    );
    assert!(
        sample(&metrics_with_restart, "cap_fleet_worker_0_up").is_some(),
        "per-slot gauges missing from supervisor /metrics:\n{metrics_with_restart}"
    );

    // Phase 2: resume reconciles the torn queue and drains the sweep.
    // Exit 1 = drained with poisoned specs (p1 never runs clean).
    let status = fleet_cmd("resume", &chaos_dir).status().unwrap();
    assert_eq!(
        status.code(),
        Some(1),
        "resume exits 1 when specs were poisoned"
    );

    let queue = Queue::load(&chaos_dir).unwrap();
    assert_eq!(
        queue.load_report,
        cap_fleet::queue::LoadReport::default(),
        "resume left a contiguous, fully-parsable queue.jsonl"
    );
    for spec in &specs {
        let entry = queue.get(&spec.id).unwrap();
        if spec.id == "p1-poison" {
            assert_eq!(entry.state, SpecState::Poisoned, "{}", spec.id);
            assert_eq!(entry.attempts, 2, "poisoned after the full retry budget");
        } else {
            assert_eq!(entry.state, SpecState::Done, "{}", spec.id);
        }
    }

    // No spec is ever executed to completion twice: exactly one
    // durable `done` event per non-poisoned spec across run + resume.
    let history = queue_text(&chaos_dir);
    for spec in &specs {
        let done_events = history
            .lines()
            .filter(|l| {
                l.contains(&format!("\"id\":\"{}\"", spec.id)) && l.contains("\"state\":\"done\"")
            })
            .count();
        let expected = usize::from(spec.id != "p1-poison");
        assert_eq!(done_events, expected, "done events for {}", spec.id);
    }

    // Each completed spec's run dir kept its record through the
    // SIGABRTs, the wedge SIGKILL and the reschedule: one history,
    // seq-contiguous across attempts, that reached every iteration
    // the journal holds.
    for spec in specs.iter().filter(|s| s.id != "p1-poison") {
        let run_dir = chaos_dir.join("runs").join(&spec.id);
        let samples = cap_obs::tsdb::read_samples(&run_dir.join("series.capts"))
            .unwrap_or_else(|e| panic!("{}: series.capts: {e}", spec.id));
        assert!(!samples.is_empty(), "{}: empty series.capts", spec.id);
        assert!(
            samples.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "{}: series.capts seq not contiguous",
            spec.id
        );
        let journaled = std::fs::read_to_string(run_dir.join("journal.jsonl"))
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"type\":\"iter\""))
            .count();
        assert!(journaled > 0, "{}: no journaled iteration", spec.id);
        let reached = samples
            .iter()
            .filter_map(|s| s.value("core.prune.iteration"))
            .fold(0.0, f64::max);
        assert!(
            reached >= journaled as f64,
            "{}: series reached iteration {reached}, journal holds {journaled}",
            spec.id
        );
    }

    // Nothing published a server address: no `*.addr` file in the
    // fleet dir or in any run dir.
    let addr_files: Vec<PathBuf> = std::iter::once(chaos_dir.clone())
        .chain(specs.iter().map(|s| chaos_dir.join("runs").join(&s.id)))
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flatten()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "addr"))
        .collect();
    assert!(addr_files.is_empty(), "address files: {addr_files:?}");

    // Phase 3: the bit-identical invariant. An uninterrupted reference
    // fleet (same specs, no fault injection) must produce byte-equal
    // final checkpoints for every spec the chaos fleet completed.
    let clean_specs: Vec<Spec> = specs
        .iter()
        .filter(|s| s.id != "p1-poison")
        .map(|s| {
            let mut c = s.clone();
            c.fault = String::new();
            c.fault_attempts = 0;
            c
        })
        .collect();
    init_fleet(&ref_dir, &clean_specs);
    let status = fleet_cmd("run", &ref_dir).status().unwrap();
    assert!(status.success(), "reference fleet failed: {status}");

    for spec in &clean_specs {
        let chaos_done = done_json(&chaos_dir, &spec.id);
        let ref_done = done_json(&ref_dir, &spec.id);
        let ckpt = chaos_done
            .get("ckpt")
            .and_then(|j| j.as_str().map(str::to_string));
        let ckpt = ckpt.unwrap_or_else(|| panic!("{}: DONE.json lacks ckpt", spec.id));
        assert_eq!(
            ref_done.get("ckpt").and_then(|j| j.as_str()),
            Some(ckpt.as_str()),
            "{}: same final generation",
            spec.id
        );
        assert_eq!(
            chaos_done
                .get("ckpt_crc")
                .and_then(cap_obs::json::Json::as_u64),
            ref_done
                .get("ckpt_crc")
                .and_then(cap_obs::json::Json::as_u64),
            "{}: checkpoint CRC differs from uninterrupted run",
            spec.id
        );
        let chaos_bytes = std::fs::read(
            chaos_dir
                .join("runs")
                .join(&spec.id)
                .join("ckpt")
                .join(&ckpt),
        )
        .unwrap();
        let ref_bytes =
            std::fs::read(ref_dir.join("runs").join(&spec.id).join("ckpt").join(&ckpt)).unwrap();
        assert_eq!(
            chaos_bytes, ref_bytes,
            "{}: rescheduled run's checkpoint is not bit-identical",
            spec.id
        );
    }

    // The faulted specs really were retried (attempts charged), so the
    // bit-identical equality above covers resumed-after-crash runs.
    for id in ["c1-crash", "c2-crash", "w1-wedge"] {
        assert!(
            queue.get(id).unwrap().attempts >= 2,
            "{id} should have needed more than one attempt"
        );
    }

    let _ = std::fs::remove_dir_all(&chaos_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The stall detector end to end: a spec that wedges after its first
/// iteration on attempt 1, under a supervisor that is never killed.
/// The demo spec's heartbeats come tens of milliseconds apart, so only
/// the wedge can stay silent past the 1.5 s timeout.
#[test]
fn stall_detector_kills_a_wedged_worker_and_the_retry_completes() {
    let dir = tmp_dir("stall");
    let _reaper = Reaper(vec![dir.clone()]);
    let mut spec = Spec::demo("s1-wedge", 48);
    spec.fault = "wedge_after_iter=1".to_string();
    spec.fault_attempts = 1;
    init_fleet(&dir, &[spec]);
    let stderr_path = dir.join("supervisor.stderr");
    let mut supervisor = Command::new(BIN)
        .arg("run")
        .arg("--fleet-dir")
        .arg(&dir)
        .args(["--workers", "1", "--poll-ms", "50"])
        .args(["--stall-timeout-ms", "1500", "--retry-budget", "2"])
        .args(["--backoff-base-ms", "50", "--backoff-cap-ms", "200"])
        .env_remove("CAP_FAULT")
        .env_remove("CAP_METRICS_ADDR")
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&stderr_path).unwrap())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = supervisor.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = supervisor.kill();
            panic!(
                "sweep did not finish within 120s:\n{}",
                std::fs::read_to_string(&stderr_path).unwrap_or_default()
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let stderr = std::fs::read_to_string(&stderr_path).unwrap();
    assert!(status.success(), "the sweep failed: {status}\n{stderr}");

    // The detector fired on attempt 1, and only there.
    let kills: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("heartbeat silent"))
        .collect();
    assert_eq!(kills.len(), 1, "one stall kill:\n{stderr}");
    assert!(
        kills[0].starts_with("capfleet: s1-wedge heartbeat silent ")
            && kills[0].ends_with("ms > 1500ms — SIGKILL"),
        "{}",
        kills[0]
    );
    assert!(
        stderr.contains("capfleet: s1-wedge wedged (heartbeat stall); retrying in"),
        "the attempt was not charged as a wedge:\n{stderr}"
    );
    assert!(
        stderr.contains("capfleet: s1-wedge done (attempt 2)"),
        "{stderr}"
    );

    // The queue charged one failed attempt and recorded one completion.
    let history = queue_text(&dir);
    let events = |state: &str| history.matches(&format!("\"state\":\"{state}\"")).count();
    assert_eq!((events("failed"), events("done")), (1, 1), "{history}");
    let queue = Queue::load(&dir).unwrap();
    let entry = queue.get("s1-wedge").unwrap();
    assert_eq!((entry.state, entry.attempts), (SpecState::Done, 2));
    assert!(dir.join("runs/s1-wedge/DONE.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A supervisor killed between spawning a worker and recording it (or
/// before the worker's first heartbeat) leaves a worker that neither
/// the queue nor a heartbeat names. Reconciliation must still kill it.
#[test]
fn reconcile_kills_a_worker_neither_queue_nor_heartbeat_names() {
    let dir = tmp_dir("orphan");
    let _reaper = Reaper(vec![dir.clone()]);
    init_fleet(&dir, &[Spec::demo("o1-wedge", 47)]);
    let mut worker = Command::new(BIN)
        .arg("worker")
        .arg("--fleet-dir")
        .arg(std::fs::canonicalize(&dir).unwrap())
        .args(["--spec", "o1-wedge"])
        .env("CAP_FAULT", "wedge_after_iter=1")
        .env_remove("CAP_METRICS_ADDR")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let run_dir = dir.join("runs").join("o1-wedge");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !std::fs::read_to_string(run_dir.join("journal.jsonl"))
        .unwrap_or_default()
        .contains("\"type\":\"iter\"")
    {
        assert!(
            Instant::now() < deadline,
            "no iteration journaled within 120s"
        );
        assert!(
            worker.try_wait().unwrap().is_none(),
            "worker exited instead of wedging"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::fs::remove_file(run_dir.join("heartbeat")).unwrap();
    let mut queue = Queue::load(&dir).unwrap();
    assert_eq!(queue.get("o1-wedge").unwrap().state, SpecState::Pending);

    cap_fleet::supervisor::reconcile(&mut queue, &dir).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = worker.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "reconcile left the worker alive");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "the wedged worker was killed: {status}");
    assert_eq!(queue.get("o1-wedge").unwrap().state, SpecState::Pending);
    let _ = std::fs::remove_dir_all(&dir);
}
