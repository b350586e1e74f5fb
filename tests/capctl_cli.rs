//! Exit-code audit of the `capctl` binary: every failure class maps to
//! its documented, distinct code, and the cause chain is printed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn capctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capctl"))
        .args(args)
        .output()
        .expect("spawn capctl")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("capctl_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(capctl(&[]).status.code(), Some(2));
    assert_eq!(capctl(&["bogus"]).status.code(), Some(2));
    assert_eq!(capctl(&["info"]).status.code(), Some(2));
    assert_eq!(capctl(&["flops", "x.capn", "3"]).status.code(), Some(2));
    assert_eq!(
        capctl(&["prune"]).status.code(),
        Some(2),
        "--run-dir is required"
    );
    assert_eq!(
        capctl(&["prune", "--run-dir", "d", "--iters", "zero"])
            .status
            .code(),
        Some(2)
    );
    let out = capctl(&["bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr was: {stderr}");
}

#[test]
fn missing_file_exits_3() {
    let out = capctl(&["info", "/nonexistent/path/model.capn"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("caused by:"),
        "I/O failures must print the cause chain, got: {stderr}"
    );
}

#[test]
fn corrupt_checkpoint_exits_4() {
    let dir = scratch("corrupt");
    let path = dir.join("garbage.capn");
    std::fs::write(&path, b"CAPNgarbage-not-a-checkpoint").unwrap();
    let out = capctl(&["info", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_dir_misuse_exits_4() {
    let dir = scratch("rundir");
    // Resuming a directory that holds no run.
    let missing = dir.join("no_such_run");
    let out = capctl(&["prune", "--run-dir", missing.to_str().unwrap(), "--resume"]);
    assert_eq!(out.status.code(), Some(4));
    // Starting a fresh run where one already exists.
    let taken = dir.join("taken");
    std::fs::create_dir_all(&taken).unwrap();
    std::fs::write(taken.join("journal.jsonl"), "{}\n").unwrap();
    let out = capctl(&["prune", "--run-dir", taken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("caused by:"), "stderr was: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tail_and_dash_on_history_less_run_dir_exit_0() {
    // A run dir with no recorded history (telemetry disabled, or the
    // run died before the first flush) is a normal state: both
    // commands say so and exit 0 instead of failing.
    let dir = scratch("nohistory");
    let out = capctl(&["tail", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "tail on empty run dir");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no history recorded"),
        "stdout was: {stdout}"
    );
    let export = dir.join("dash.html");
    let out = capctl(&[
        "dash",
        dir.to_str().unwrap(),
        "--export",
        export.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "dash on empty run dir");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no history recorded"),
        "stdout was: {stdout}"
    );
    assert!(!export.exists(), "nothing should be exported");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_trace_spec_exits_7() {
    let out = capctl(&["--trace", "nonsense-spec", "info", "x.capn"]);
    assert_eq!(out.status.code(), Some(7));
}

/// An injected NaN gradient, skipped by the fault policy, shows in the
/// run dir's last durable `series.capts` sample: the fault counter and
/// the skipped-batch counter both rose, and the run still exits 0.
#[test]
fn injected_nan_shows_in_the_numeric_faults_counter() {
    let dir = scratch("nan");
    let run = dir.join("nan_run");
    let out = Command::new(env!("CARGO_BIN_EXE_capctl"))
        .args(["prune", "--run-dir", run.to_str().unwrap()])
        .args(["--iters", "2", "--fault-policy", "skip:8"])
        .env("CAP_FAULT", "nan_grad_at=step:3")
        .env_remove("CAP_METRICS_ADDR")
        .env_remove("CAP_TRACE")
        .output()
        .expect("spawn capctl");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr was: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let samples = cap_obs::tsdb::read_samples(&run.join("series.capts")).expect("series.capts");
    let last = samples.last().expect("at least one sample");
    for counter in ["nn.numeric_faults_total", "nn.fault_skipped_batches_total"] {
        let value = last.value(counter).unwrap_or(0.0);
        assert!(value >= 1.0, "{counter} = {value} in {:?}", last.points);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes stdout before the command writes ends the
/// output, not the command: exit 0 and no panic message.
#[test]
fn closed_stdout_ends_a_command_quietly() {
    let dir = scratch("pipe");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_capctl"))
        .args(["tail", dir.to_str().unwrap()])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("spawn capctl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr was: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr was: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
