//! `capfleet` — crash-supervised experiment fleet CLI.
//!
//! ```text
//! capfleet init   --fleet-dir D (--demo N | --suite [--scale S] | --specs FILE)
//! capfleet run    --fleet-dir D [--workers N] [--retry-budget K]
//!                 [--backoff-base-ms B] [--backoff-cap-ms C]
//!                 [--stall-timeout-ms T] [--poll-ms P]
//! capfleet resume --fleet-dir D [same flags as run]
//! capfleet status --fleet-dir D
//! capfleet worker --fleet-dir D --spec ID        (internal: one child run)
//! ```
//!
//! With `CAP_METRICS_ADDR` set, `run` and `resume` serve the
//! supervisor's queue and slot gauges on `/metrics` there and print the
//! bound address on stderr. Workers serve nothing; each spec's record is
//! its run dir, read with `capctl tail|dash|flame D/runs/ID`.
//!
//! Exit codes: `0` sweep drained with every spec done, `1` sweep
//! drained but some specs were poisoned, `2` usage (a flag the command
//! does not take, a flag it needs missing, or a value that does not
//! parse), `3` runtime error (say, an unreadable specs file or queue).

use cap_fleet::queue::Queue;
use cap_fleet::spec::Spec;
use cap_fleet::supervisor::{render_status, run_fleet, FleetConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: capfleet <init|run|resume|status|worker> --fleet-dir DIR [flags]
  init    --demo N | --suite [--scale smoke|small|full] | --specs FILE
  run     [--workers N] [--retry-budget K] [--backoff-base-ms B] [--backoff-cap-ms C]
          [--stall-timeout-ms T] [--poll-ms P]
  resume  same flags as run (reconciles a killed supervisor's queue first)
  status  print queue state
  worker  --spec ID (internal)
";

/// The flags `command` accepts, or `None` for an unknown command.
fn known_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "init" => &["fleet-dir", "demo", "suite", "scale", "specs"],
        "run" | "resume" => &[
            "fleet-dir",
            "workers",
            "retry-budget",
            "backoff-base-ms",
            "backoff-cap-ms",
            "stall-timeout-ms",
            "poll-ms",
        ],
        "status" => &["fleet-dir"],
        "worker" => &["fleet-dir", "spec"],
        _ => return None,
    })
}

struct Args {
    fleet_dir: PathBuf,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `--name value` pairs, accepting only the `known` flags and
    /// requiring `--fleet-dir`. Every error is a usage error.
    fn parse(raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .filter(|name| known.contains(name))
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            // Boolean flags take no value.
            if matches!(name, "suite") {
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        let fleet_dir = flags
            .iter()
            .rev()
            .find_map(|(n, v)| (n == "fleet-dir").then(|| PathBuf::from(v)))
            .ok_or_else(|| "--fleet-dir is required".to_string())?;
        Ok(Args { fleet_dir, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn u64_flag(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }
}

/// A command with every flag checked: each usage mistake surfaces here,
/// before anything runs.
enum Command {
    Init(InitFrom),
    Run(FleetConfig),
    Status,
    Worker(String),
}

/// Where `init` takes its specs from.
enum InitFrom {
    Demo(u64),
    Suite(String),
    Specs(String),
}

impl Command {
    /// Checks the flags of `command`, which `known_flags` admitted.
    fn parse(command: &str, args: &Args) -> Result<Command, String> {
        if let Some(scale) = args.flag("scale") {
            cap_bench::ExperimentScale::from_name(scale).map_err(|e| format!("--scale: {e}"))?;
        }
        Ok(match command {
            "init" => Command::Init(if let Some(n) = args.flag("demo") {
                InitFrom::Demo(n.parse().map_err(|e| format!("--demo {n:?}: {e}"))?)
            } else if args.flag("suite").is_some() {
                InitFrom::Suite(args.flag("scale").unwrap_or("smoke").to_string())
            } else if let Some(path) = args.flag("specs") {
                InitFrom::Specs(path.to_string())
            } else {
                return Err("init needs --demo N, --suite or --specs FILE".to_string());
            }),
            "run" | "resume" => Command::Run(fleet_config(args)?),
            "status" => Command::Status,
            _ => Command::Worker(
                args.flag("spec")
                    .ok_or("worker needs --spec ID")?
                    .to_string(),
            ),
        })
    }
}

fn fleet_config(args: &Args) -> Result<FleetConfig, String> {
    let defaults = FleetConfig::default();
    Ok(FleetConfig {
        workers: args.u64_flag("workers", defaults.workers as u64)?.max(1) as usize,
        retry_budget: args.u64_flag("retry-budget", defaults.retry_budget)?.max(1),
        backoff_base_ms: args.u64_flag("backoff-base-ms", defaults.backoff_base_ms)?,
        backoff_cap_ms: args.u64_flag("backoff-cap-ms", defaults.backoff_cap_ms)?,
        stall_timeout_ms: args.u64_flag("stall-timeout-ms", defaults.stall_timeout_ms)?,
        poll_ms: args.u64_flag("poll-ms", defaults.poll_ms)?,
    })
}

/// Reads a specs file: one JSON object per line, spec-shaped (the
/// `"type":"spec"` tag is optional). Blank lines and `#` comments skip.
fn read_specs_file(path: &str) -> Result<Vec<Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut specs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let obj = cap_obs::json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        specs.push(Spec::from_json(&obj).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?);
    }
    if specs.is_empty() {
        return Err(format!("{path}: no specs"));
    }
    Ok(specs)
}

fn cmd_init(fleet_dir: &Path, from: InitFrom) -> Result<(), String> {
    let specs = match from {
        InitFrom::Demo(n) => (0..n)
            .map(|i| Spec::demo(format!("demo-{i:03}"), 100 + i))
            .collect(),
        InitFrom::Suite(scale) => cap_bench::specs::suite_specs()
            .into_iter()
            .map(|s| Spec::suite(s.id, scale.clone()))
            .collect(),
        InitFrom::Specs(path) => read_specs_file(&path)?,
    };
    let n = specs.len();
    Queue::create(fleet_dir, &specs)?;
    println!(
        "initialised fleet at {} with {n} spec(s); `capfleet run --fleet-dir {}` starts it",
        fleet_dir.display(),
        fleet_dir.display()
    );
    Ok(())
}

fn cmd_run(fleet_dir: &Path, cfg: &FleetConfig) -> Result<ExitCode, String> {
    if let Some(addr) = cap_obs::init_telemetry(None)?.serving {
        eprintln!("capfleet: supervisor metrics on http://{addr}/metrics");
    }
    let report = run_fleet(fleet_dir, cfg)?;
    println!(
        "{} done, {} poisoned, {} restarts",
        report.done, report.poisoned, report.restarts
    );
    Ok(if report.poisoned == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_status(fleet_dir: &Path) -> Result<(), String> {
    let queue = Queue::load(fleet_dir)?;
    print!("{}", render_status(&queue));
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(known) = known_flags(&command) else {
        eprintln!("capfleet: unknown command {command:?}");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let parsed = Args::parse(&raw[1..], known)
        .and_then(|args| Ok((Command::parse(&command, &args)?, args.fleet_dir)));
    let (cmd, fleet_dir) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("capfleet {command}: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Command::Init(from) => cmd_init(&fleet_dir, from).map(|()| ExitCode::SUCCESS),
        // `run` and `resume` share one path: run_fleet always
        // reconciles, so resuming a SIGKILLed sweep is the same loop.
        Command::Run(cfg) => cmd_run(&fleet_dir, &cfg),
        Command::Status => cmd_status(&fleet_dir).map(|()| ExitCode::SUCCESS),
        Command::Worker(spec_id) => {
            cap_fleet::worker::run_worker(&fleet_dir, &spec_id).map(|()| ExitCode::SUCCESS)
        }
    };
    cap_obs::finalize_process();
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("capfleet: {e}");
            ExitCode::from(3)
        }
    }
}
