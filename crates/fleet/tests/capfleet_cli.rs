//! Usage errors of the `capfleet` binary: each command takes only its
//! own flags and needs `--fleet-dir`, and any slip exits 2 with the
//! usage text before the fleet dir is touched.

use std::process::{Command, Output};

fn capfleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capfleet"))
        .args(args)
        .env_remove("CAP_METRICS_ADDR")
        .output()
        .expect("spawn capfleet")
}

fn assert_usage_error(args: &[&str]) {
    let out = capfleet(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flags_exit_2() {
    let dir = std::env::temp_dir().join(format!("capfleet_cli_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    assert_usage_error(&["status", "--fleet-dir", d, "--bogus", "1"]);
    assert_usage_error(&["status", "--fleet-dir", d, "stray"]);
    // A flag of another command is unknown here.
    assert_usage_error(&["status", "--fleet-dir", d, "--workers", "2"]);
    assert_usage_error(&["run", "--fleet-dir", d, "--demo", "2"]);
    assert_usage_error(&["init", "--fleet-dir", d, "--demo", "2", "--poll-ms", "5"]);
    assert_usage_error(&["worker", "--fleet-dir", d, "--spec", "x", "--demo", "2"]);
    assert_usage_error(&["bogus", "--fleet-dir", d]);
    assert!(!dir.exists(), "a usage error must not create the fleet dir");
}

#[test]
fn missing_fleet_dir_exits_2() {
    for command in ["init", "run", "resume", "status", "worker"] {
        assert_usage_error(&[command]);
    }
    assert_usage_error(&["init", "--demo", "2"]);
    assert_usage_error(&["run", "--workers", "2"]);
}
