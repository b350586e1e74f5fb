//! Exit codes of the `capfleet` binary: each command takes only its own
//! flags, needs `--fleet-dir` and the flags it cannot run without, and
//! any slip, a value that does not parse included, exits 2 with the
//! usage text before the fleet dir is touched. A failure at run time
//! exits 3.

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

/// A flag the command needs that is missing, and a value that does not
/// parse, are usage mistakes too.
#[test]
fn missing_or_malformed_values_exit_2() {
    let dir = std::env::temp_dir().join(format!("capfleet_cli_values_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    assert_usage_error(&["init", "--fleet-dir", d]);
    assert_usage_error(&["init", "--fleet-dir", d, "--scale", "small"]);
    assert_usage_error(&["worker", "--fleet-dir", d]);
    assert_usage_error(&["init", "--fleet-dir", d, "--suite", "--scale", "huge"]);
    assert_usage_error(&["init", "--fleet-dir", d, "--demo", "2", "--scale", "tiny"]);
    for value in ["two", "1.5", "-1", ""] {
        assert_usage_error(&["init", "--fleet-dir", d, "--demo", value]);
    }
    for flag in [
        "--workers",
        "--retry-budget",
        "--backoff-base-ms",
        "--backoff-cap-ms",
        "--stall-timeout-ms",
        "--poll-ms",
    ] {
        for value in ["abc", "1.5", "-3"] {
            assert_usage_error(&["run", "--fleet-dir", d, flag, value]);
            assert_usage_error(&["resume", "--fleet-dir", d, flag, value]);
        }
    }
    assert!(!dir.exists(), "a usage error must not create the fleet dir");
}

/// Failures at run time keep exit 3 and print no usage text: a specs
/// file that cannot be read, a fleet dir with no queue.
#[test]
fn runtime_failures_exit_3() {
    let dir = std::env::temp_dir().join(format!("capfleet_cli_runtime_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    let missing = dir.join("no-such-specs.jsonl");
    for args in [
        vec![
            "init",
            "--fleet-dir",
            d,
            "--specs",
            missing.to_str().unwrap(),
        ],
        vec!["status", "--fleet-dir", d],
        vec!["run", "--fleet-dir", d, "--workers", "1"],
    ] {
        let out = capfleet(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    assert!(
        !dir.exists(),
        "a failed command must not create the fleet dir"
    );
}
