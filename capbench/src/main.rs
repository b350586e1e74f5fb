//! capbench — the repository's benchmark.
//!
//! ```text
//! capbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets up the named workload several times (the
//! median CPU time at the host's reference speed is `setup_s`), runs
//! closed-loop rounds for `--seconds`, checks every output and prints
//! the end-to-end metrics. With `--trace 1` it
//! runs the per-layer ledger (see [`ledger`]) instead. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Scratch files live under `.capbench/` in the working directory; the
//! traced run leaves its spans in `.capbench/trace-<workload>-s<seed>.jsonl`.

mod ledger;
mod spans;
mod stats;
mod workloads;
mod yardstick;

use cap_obs::json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Bench, MetricRow, Res, Scale, Workload};

const USAGE: &str =
    "usage: capbench --workload <prune-vgg16-c10|score-resnet56-c100|infer-vgg16-c10> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins the environment the libraries read: two threads, runtime SIMD
/// detection, no persisted autotune cache (a cache written by run 1
/// would make run 2 differ), and none of the tracing, profiling, fault
/// or metrics-server switches.
fn pin_environment() {
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CAP_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    std::env::set_var("CAP_THREADS", "2");
    std::env::set_var("CAP_SIMD", "auto");
    std::env::set_var("CAP_AUTOTUNE", "off");
}

/// The commit of the working directory's git checkout, if it is one.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().into();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Prints the pinned environment the run measures under.
fn print_environment() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# env nproc={nproc} cap_threads={} simd={} avx2_available={} autotune=off commit={}",
        cap_par::threads(),
        cap_tensor::simd_mode().name(),
        cap_tensor::avx2_available(),
        commit()
    );
}

/// What one run prints as its last line.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<MetricRow>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, name);
            out.push_str(": {\"value\": ");
            json::write_f64(&mut out, *value);
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A scratch directory under `.capbench/`, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Res<Scratch> {
        let path = Path::new(".capbench").join(format!("tmp-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One untraced run of `w`: repeated set-ups, then rounds for `window`.
fn run_untraced(
    w: Workload,
    seed: u64,
    window: Duration,
    scale: &Scale,
    tmp: &Path,
) -> Res<Report> {
    let mut setup_norm_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut bench = None;
    let mut stick = yardstick::Yardstick::default();
    for _ in 0..scale.setup_repeats {
        let (b, cost, speed) =
            workloads::measure_scaled(&mut stick, || Bench::setup(w, seed, scale, tmp))?;
        let b = b?;
        setup_norm_s.push(cost.cpu_ms * speed * 1e-3);
        fingerprints.push(b.fingerprint());
        bench = Some(b);
    }
    let mut bench = bench.ok_or("no set-up ran")?;
    ledger::print_gemm_plans(&bench)?;
    let mut tally = workloads::run_rounds(&mut bench, window)?;
    // Set-up is deterministic: every repeat must build the same networks.
    tally.attempted += 1;
    if fingerprints.windows(2).any(|p| p[0] != p[1]) {
        tally.failed += 1;
        eprintln!("capbench: failed check: repeated set-ups differ");
    }
    println!(
        "# samples: setups={} ops={} dense/pruned forward pairs={}",
        setup_norm_s.len(),
        tally.op.len(),
        tally.dense.len()
    );
    for (what, s) in [
        ("op", &tally.op),
        ("dense", &tally.dense),
        ("pruned", &tally.pruned),
    ] {
        for (clock, v) in [
            ("wall", &s.wall_ms),
            ("cpu", &s.cpu_ms),
            ("norm", &s.norm_ms),
        ] {
            if let Some([q1, q2, q3]) = stats::quartiles(v) {
                println!(
                    "# {what} {clock} ms: p10={:.3} quartiles={q1:.3}/{q2:.3}/{q3:.3} p90={:.3} (n={})",
                    stats::percentile(v, 0.1),
                    stats::percentile(v, 0.9),
                    v.len()
                );
            }
        }
    }
    println!(
        "# latency_reduction={:.4} flops_reduction={:.4} pruned_images_per_s={:.1}",
        tally.latency_reduction(),
        stats::median(&tally.flops_reduction),
        scale.batch as f64 * 1e3 / stats::median(&tally.pruned.wall_ms),
    );
    println!(
        "# op parallelism: {:.4} of wall, {:.4} of wall less {:.0} ms steal",
        tally.op.parallelism(false),
        tally.op.parallelism(true),
        tally.op.steal_ms.iter().sum::<f64>(),
    );
    println!(
        "# yardstick: set-up p50 {:.4} ms, rounds p50 {:.4} ms, reference {} ms",
        stick.median_ms(),
        tally.yardstick.median_ms(),
        yardstick::REFERENCE_MS
    );
    let metrics = workloads::end_to_end(&setup_norm_s, &tally);
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// One traced run: the ledger, with its spans written to `trace_path`.
fn run_traced(seed: u64, scale: &Scale, tmp: &Path, trace_path: &Path) -> Res<Report> {
    let l = ledger::run(seed, scale, tmp)?;
    let mut out = l.tracer.to_jsonl();
    for line in &l.captured {
        out.push_str(line);
        out.push('\n');
    }
    cap_obs::fsx::atomic_write(trace_path, out.as_bytes())?;
    Ok(Report {
        attempted: l.attempted,
        failed: l.failed,
        metrics: l.metrics,
    })
}

fn run(args: &Args) -> Res<Report> {
    let scratch = Scratch::new()?;
    println!(
        "# capbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_environment();
    let scale = Scale::FULL;
    let report = if args.trace {
        let path = Path::new(".capbench").join(format!(
            "trace-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let report = run_traced(args.seed, &scale, &scratch.0, &path)?;
        println!("# spans written to {}", path.display());
        report
    } else {
        let window = Duration::from_secs(args.seconds);
        run_untraced(args.workload, args.seed, window, &scale, &scratch.0)?
    };
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})").into());
        }
        println!("# {name} = {value:.6} {unit}");
    }
    Ok(report)
}

fn main() -> ExitCode {
    pin_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("capbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("capbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_obs::json::{parse, Json};

    fn strings(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(rows)) = json.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        rows.iter()
            .map(|r| {
                r.get("name")
                    .and_then(Json::as_str)
                    .expect("named metric")
                    .to_string()
            })
            .collect()
    }

    fn assert_valid(rows: &[MetricRow], declared: &[String]) {
        let names: Vec<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            declared.iter().map(String::as_str).collect::<Vec<_>>()
        );
        for (name, value, unit) in rows {
            assert!(value.is_finite(), "{name} = {value}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} is not [A-Za-z0-9_.-]+"
            );
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("capbench-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "score-resnet56-c100",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Score,
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "infer-vgg16-c10",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "infer-vgg16-c10",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "infer-vgg16-c10",
                "--seed",
                "1",
                "--seconds",
                "1",
            ],
            &["--seed"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn report_is_one_json_object_with_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![
                ("op_norm_ms_p50".into(), 1.25, "ms"),
                ("flops_speedup".into(), 2.0, "x"),
            ],
        };
        let json = parse(&report.to_json()).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
        let op = json
            .get("metrics")
            .and_then(|m| m.get("op_norm_ms_p50"))
            .unwrap();
        assert_eq!(op.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(op.get("unit").and_then(Json::as_str), Some("ms"));
    }

    /// A tiny-scale pass of every workload emits every end-to-end metric
    /// of `BENCHMARK.json`, finite, with every output check passing; a
    /// tiny traced run emits every per-layer metric.
    #[test]
    fn tiny_passes_emit_every_declared_metric() {
        let scale = Scale::TINY;
        let tmp = scratch("tiny");
        let end_to_end = declared("end_to_end");
        for w in Workload::ALL {
            let mut bench = Bench::setup(w, 3, &scale, &tmp).unwrap();
            let again = Bench::setup(w, 3, &scale, &tmp).unwrap();
            assert_eq!(
                bench.fingerprint(),
                again.fingerprint(),
                "{} set-up repeats",
                w.name()
            );
            let tally = workloads::run_rounds(&mut bench, Duration::ZERO).unwrap();
            assert_eq!(tally.failed, 0, "{} failed an output check", w.name());
            assert!(tally.attempted >= 2);
            let rows = workloads::end_to_end(&[0.5, 0.25], &tally);
            assert_valid(&rows, &end_to_end);
            for (name, value, _) in &rows {
                assert!(*value > 0.0, "{} {name} = {value}", w.name());
            }
        }
        let ledger = ledger::run(3, &scale, &tmp).unwrap();
        assert_valid(&ledger.metrics, &declared("per_layer"));
        let spans = ledger.tracer.to_jsonl();
        assert!(spans.lines().count() > ledger.metrics.len());
        assert!(spans.lines().all(|l| parse(l).is_ok()));
        assert_eq!(
            std::fs::read_dir(&tmp).unwrap().count(),
            0,
            "run dirs left behind"
        );
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
