//! `capctl` — command-line driver for `.capn` network checkpoints and
//! crash-safe pruning runs.
//!
//! ```text
//! capctl info  <file>                 print layer-by-layer structure and totals
//! capctl flops <file> <C> <H> <W>     cost analysis at an input size
//! capctl prune --run-dir <dir> [--resume] [--iters N] [--seed S]
//!              [--out <file>] [--csv <file>]
//!              [--fault-policy abort|skip:N|restore:N]
//!                                     run (or resume) a durable pruning run on
//!                                     the built-in synthetic benchmark
//! capctl tail <run-dir>               summarise a run's recorded history:
//!                                     series.capts (verifying seq contiguity)
//!                                     and class_attribution.jsonl
//! capctl dash <run-dir> --export <file.html>
//!                                     render the run's history dashboard to a
//!                                     self-contained HTML file
//! capctl flame <run-dir|file.folded> [--export <file.svg>]
//!                                     render a run's profile.folded (its span
//!                                     tree, µs of self time) as a flamegraph
//!                                     SVG
//! capctl flame --diff <A> <B> [--export <file.svg>]
//!                                     differential flamegraph: B relative to A
//! ```
//!
//! All commands accept `[--trace <spec>]` before the subcommand.
//! Tracing: `--trace pretty` narrates events on
//! stderr, `--trace jsonl:<path>` writes machine-readable JSON lines
//! (append `,detail` for per-span events). The `CAP_TRACE` environment
//! variable accepts the same grammar:
//!
//! ```text
//! CAP_TRACE=jsonl:run.jsonl cargo run --bin capctl -- info model.capn
//! ```
//!
//! Live telemetry: `CAP_METRICS_ADDR=<addr>` starts the cap-obs HTTP
//! server exposing `/metrics`, `/healthz`, `/api/series`, `/dash` and
//! `/prof` for the duration of the command.
//!
//! A reader that closes stdout early (`capctl tail run | head -1`) ends
//! the output, not the command: it still exits with its own code.
//!
//! # Exit codes
//!
//! Each failure class maps to a distinct code so scripts and the CI
//! crash-recovery job can tell a usage mistake from a corrupt
//! checkpoint:
//!
//! | code | meaning                                         |
//! |------|-------------------------------------------------|
//! | 0    | success                                         |
//! | 2    | usage error (bad flags/arguments)               |
//! | 3    | file I/O failure                                |
//! | 4    | checkpoint/run-dir failure (corrupt, missing)   |
//! | 5    | pruning/analysis failure                        |
//! | 6    | dataset failure                                 |
//! | 7    | telemetry initialisation failure                |
//! | 8    | training failure (incl. numeric faults)         |

use cap_core::{analyze_network, ClassAwarePruner, PruneConfig, PruneError, PruneStrategy};
use cap_data::{DataError, DatasetSpec, SyntheticDataset};
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, Relu};
use cap_nn::{checkpoint, fit, FaultPolicy, Network, NnError, RunDir, RunDirError, TrainConfig};
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::io::Write as _;
use std::process::ExitCode;

/// Everything that can fail, with one exit code per class (see the
/// module docs). `Display` prints only this level's context; `main`
/// walks [`Error::source`] for the cause chain.
#[derive(Debug)]
enum CtlError {
    Usage(String),
    Io {
        context: String,
        source: std::io::Error,
    },
    Checkpoint {
        context: String,
        source: checkpoint::CheckpointError,
    },
    RunDir {
        context: String,
        source: RunDirError,
    },
    Prune {
        context: String,
        source: PruneError,
    },
    Data {
        context: String,
        source: DataError,
    },
    Telemetry {
        reason: String,
    },
    Train {
        context: String,
        source: NnError,
    },
}

impl CtlError {
    fn exit_code(&self) -> u8 {
        match self {
            CtlError::Usage(_) => 2,
            CtlError::Io { .. } => 3,
            CtlError::Checkpoint { .. } | CtlError::RunDir { .. } => 4,
            CtlError::Prune { .. } => 5,
            CtlError::Data { .. } => 6,
            CtlError::Telemetry { .. } => 7,
            CtlError::Train { .. } => 8,
        }
    }
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::Usage(msg) => write!(f, "{msg}"),
            CtlError::Io { context, .. } => write!(f, "{context}"),
            CtlError::Checkpoint { context, .. } => write!(f, "{context}"),
            CtlError::RunDir { context, .. } => write!(f, "{context}"),
            CtlError::Prune { context, .. } => write!(f, "{context}"),
            CtlError::Data { context, .. } => write!(f, "{context}"),
            CtlError::Telemetry { reason } => write!(f, "telemetry: {reason}"),
            CtlError::Train { context, .. } => write!(f, "{context}"),
        }
    }
}

impl Error for CtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CtlError::Usage(_) | CtlError::Telemetry { .. } => None,
            CtlError::Io { source, .. } => Some(source),
            CtlError::Checkpoint { source, .. } => Some(source),
            CtlError::RunDir { source, .. } => Some(source),
            CtlError::Prune { source, .. } => Some(source),
            CtlError::Data { source, .. } => Some(source),
            CtlError::Train { source, .. } => Some(source),
        }
    }
}

/// Every command's stdout. A closed pipe drops this and every later
/// line and still counts as success; any other write error is kept
/// for [`Out::finish`], which fails the command with the I/O code.
#[derive(Default)]
struct Out {
    closed: bool,
    error: Option<std::io::Error>,
}

impl Out {
    fn write(&mut self, args: fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
            self.closed = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                self.error = Some(e);
            }
        }
    }

    fn finish(self) -> Result<(), CtlError> {
        match self.error {
            Some(source) => Err(CtlError::Io {
                context: "write stdout".to_string(),
                source,
            }),
            None => Ok(()),
        }
    }
}

/// `println!` through an [`Out`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        $out.write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

const USAGE: &str = "usage: capctl [--trace <spec>] <command>\n\
     commands:\n\
       info <file>\n\
       flops <file> <C> <H> <W>\n\
       prune --run-dir <dir> [--resume] [--iters N] [--seed S] [--out <file>] [--csv <file>]\n\
             [--fault-policy abort|skip:N|restore:N]\n\
       tail <run-dir>\n\
       dash <run-dir> --export <file.html>\n\
       flame <run-dir|file.folded> [--export <file.svg>]\n\
       flame --diff <A> <B> [--export <file.svg>]";

fn usage_err(detail: impl Into<String>) -> CtlError {
    let detail = detail.into();
    if detail.is_empty() {
        CtlError::Usage(USAGE.to_string())
    } else {
        CtlError::Usage(format!("{detail}\n{USAGE}"))
    }
}

fn describe(net: &Network, out: &mut Out) {
    outln!(
        out,
        "{} layers, {} parameters",
        net.layers().len(),
        net.num_params()
    );
    for (i, layer) in net.layers().iter().enumerate() {
        let detail = match layer {
            Layer::Conv(c) => format!(
                "conv {}→{} k{} s{} p{}{}",
                c.in_channels(),
                c.out_channels(),
                c.kernel(),
                c.stride(),
                c.padding(),
                if c.bias().is_some() { " +bias" } else { "" }
            ),
            Layer::BatchNorm(bn) => format!("batchnorm {} channels", bn.channels()),
            Layer::Relu(_) => "relu".to_string(),
            Layer::MaxPool(p) => format!("maxpool k{} s{}", p.kernel(), p.stride()),
            Layer::GlobalAvgPool(_) => "global avg pool".to_string(),
            Layer::Flatten(_) => "flatten".to_string(),
            Layer::Linear(l) => format!("linear {}→{}", l.in_features(), l.out_features()),
            Layer::Residual(b) => format!(
                "residual block {}→{} (internal width {}{})",
                b.conv1().in_channels(),
                b.out_channels(),
                b.conv1().out_channels(),
                if b.shortcut().is_some() {
                    ", projection shortcut"
                } else {
                    ", identity shortcut"
                }
            ),
        };
        outln!(out, "  [{i:>3}] {detail}  ({} params)", layer.num_params());
    }
}

/// Strips `--trace <spec>` from the argument list and initialises the
/// observability layer: the sink from the spec (or `CAP_TRACE` when
/// absent), the live telemetry server from `CAP_METRICS_ADDR`.
fn init_trace(args: &mut Vec<String>) -> Result<(), CtlError> {
    let spec = match args.iter().position(|a| a == "--trace") {
        Some(pos) if pos + 1 < args.len() => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            Some(value)
        }
        Some(_) => {
            return Err(usage_err(
                "--trace requires a spec (pretty | jsonl:<path>[,detail])",
            ))
        }
        None => None,
    };
    let telemetry = cap_obs::init_telemetry(spec.as_deref())
        .map_err(|reason| CtlError::Telemetry { reason })?;
    if let Some(addr) = telemetry.serving {
        eprintln!("cap-obs: live telemetry on http://{addr}/metrics");
    }
    Ok(())
}

fn load_net(path: &str) -> Result<Network, CtlError> {
    let file = std::fs::File::open(path).map_err(|source| CtlError::Io {
        context: format!("open {path}"),
        source,
    })?;
    checkpoint::load(std::io::BufReader::new(file)).map_err(|source| CtlError::Checkpoint {
        context: format!("load {path}"),
        source,
    })
}

/// The small CIFAR-like network used by `capctl prune` (matching the
/// framework's test topology so the run finishes in seconds).
fn prune_demo_net(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 12, 3, 1, 1, false, &mut rng).expect("valid conv"));
    net.push(BatchNorm2d::new(12).expect("valid bn"));
    net.push(Relu::new());
    net.push(Conv2d::new(12, 12, 3, 1, 1, false, &mut rng).expect("valid conv"));
    net.push(BatchNorm2d::new(12).expect("valid bn"));
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(12, 10, &mut rng).expect("valid linear"));
    net
}

fn cmd_prune(args: &[String], out: &mut Out) -> Result<(), CtlError> {
    let mut run_dir: Option<String> = None;
    let mut resume = false;
    let mut iters: usize = 3;
    let mut seed: u64 = 33;
    let mut out_file: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut fault_policy = FaultPolicy::Abort;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| usage_err(format!("{flag} requires {what}")))
        };
        match flag.as_str() {
            "--run-dir" => run_dir = Some(value("a directory")?),
            "--resume" => resume = true,
            "--iters" => {
                iters = value("a count")?
                    .parse()
                    .map_err(|e| usage_err(format!("bad --iters: {e}")))?;
            }
            "--seed" => {
                seed = value("a seed")?
                    .parse()
                    .map_err(|e| usage_err(format!("bad --seed: {e}")))?;
            }
            "--out" => out_file = Some(value("a file")?),
            "--csv" => csv = Some(value("a file")?),
            "--fault-policy" => fault_policy = parse_fault_policy(&value("a policy")?)?,
            other => return Err(usage_err(format!("unknown prune flag {other:?}"))),
        }
    }
    let run_dir = run_dir.ok_or_else(|| usage_err("prune requires --run-dir"))?;

    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(12, 4),
    )
    .map_err(|source| CtlError::Data {
        context: "generate synthetic dataset".to_string(),
        source,
    })?;
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 20,
        lr: 0.02,
        fault_policy,
        ..TrainConfig::default()
    };
    let pruner = ClassAwarePruner::new(PruneConfig {
        strategy: PruneStrategy::Percentage { fraction: 0.2 },
        finetune: train_cfg,
        max_iterations: iters,
        accuracy_drop_limit: 1.0,
        ..PruneConfig::default()
    })
    .map_err(|source| CtlError::Prune {
        context: "invalid prune configuration".to_string(),
        source,
    })?;

    let (net, outcome) = if resume {
        let dir = RunDir::open(&run_dir).map_err(|source| CtlError::RunDir {
            context: format!("open run dir {run_dir}"),
            source,
        })?;
        eprintln!("resuming run in {run_dir}");
        pruner
            .resume(data.train(), data.test(), &dir)
            .map_err(|source| CtlError::Prune {
                context: format!("resume pruning run in {run_dir}"),
                source,
            })?
    } else {
        let dir = RunDir::create(&run_dir).map_err(|source| CtlError::RunDir {
            context: format!("create run dir {run_dir}"),
            source,
        })?;
        let mut net = prune_demo_net(seed);
        fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            &train_cfg,
        )
        .map_err(|source| CtlError::Train {
            context: "pre-train demo network".to_string(),
            source,
        })?;
        let outcome = pruner
            .run_with_dir(&mut net, data.train(), data.test(), &dir)
            .map_err(|source| CtlError::Prune {
                context: format!("pruning run in {run_dir}"),
                source,
            })?;
        (net, outcome)
    };

    outln!(
        out,
        "stop: {:?} after {} iterations",
        outcome.stop_reason,
        outcome.iterations.len()
    );
    outln!(
        out,
        "accuracy {:.4} -> {:.4}, params {} -> {}, FLOPs {} -> {}",
        outcome.baseline_accuracy,
        outcome.final_accuracy,
        outcome.baseline_cost.total_params,
        outcome.final_cost.total_params,
        outcome.baseline_cost.total_flops,
        outcome.final_cost.total_flops
    );
    if let Some(path) = out_file {
        let bytes = checkpoint::to_bytes(&net).map_err(|source| CtlError::Checkpoint {
            context: format!("serialise final network for {path}"),
            source,
        })?;
        cap_obs::fsx::atomic_write(std::path::Path::new(&path), &bytes).map_err(|source| {
            CtlError::Io {
                context: format!("write {path}"),
                source,
            }
        })?;
        outln!(out, "final network written to {path}");
    }
    if let Some(path) = csv {
        cap_obs::fsx::atomic_write(
            std::path::Path::new(&path),
            outcome.iterations_csv().as_bytes(),
        )
        .map_err(|source| CtlError::Io {
            context: format!("write {path}"),
            source,
        })?;
        outln!(out, "iteration trajectory written to {path}");
    }
    Ok(())
}

/// Parses `abort`, `skip:N` or `restore:N` into a [`FaultPolicy`].
fn parse_fault_policy(spec: &str) -> Result<FaultPolicy, CtlError> {
    if spec == "abort" {
        return Ok(FaultPolicy::Abort);
    }
    let budget = |rest: &str| {
        rest.parse::<u32>()
            .map_err(|e| usage_err(format!("bad --fault-policy budget {rest:?}: {e}")))
    };
    if let Some(rest) = spec.strip_prefix("skip:") {
        return Ok(FaultPolicy::SkipBatch {
            budget: budget(rest)?,
        });
    }
    if let Some(rest) = spec.strip_prefix("restore:") {
        return Ok(FaultPolicy::RestoreAndHalveLr {
            budget: budget(rest)?,
        });
    }
    Err(usage_err(format!(
        "bad --fault-policy {spec:?} (want abort | skip:N | restore:N)"
    )))
}

/// Prints the last `n` lines of a JSONL sidecar, if it exists.
fn tail_jsonl(
    dir: &std::path::Path,
    name: &str,
    n: usize,
    out: &mut Out,
) -> Result<usize, CtlError> {
    let path = dir.join(name);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            outln!(out, "{name}: none");
            return Ok(0);
        }
        Err(source) => {
            return Err(CtlError::Io {
                context: format!("read {}", path.display()),
                source,
            })
        }
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    outln!(out, "{name}: {} records", lines.len());
    for line in lines.iter().rev().take(n).rev() {
        outln!(out, "  {line}");
    }
    Ok(lines.len())
}

/// `capctl tail <run-dir>`: summarises the recorded history — sample
/// count and seq contiguity of `series.capts`, the newest sample's
/// points, and the tail of `class_attribution.jsonl`. A seq gap (which
/// a correct writer can never produce) is a run-dir error.
fn cmd_tail(run_dir: &str, out: &mut Out) -> Result<(), CtlError> {
    let dir = std::path::Path::new(run_dir);
    let series = dir.join("series.capts");
    // A run that never recorded history (telemetry disabled, or died
    // before the first flush) is a normal state, not an error.
    if !series.exists() {
        outln!(out, "no history recorded ({} has no series.capts)", run_dir);
        tail_jsonl(dir, "class_attribution.jsonl", 5, out)?;
        return Ok(());
    }
    let samples = cap_obs::tsdb::read_samples(&series).map_err(|e| CtlError::RunDir {
        context: format!("read {}", series.display()),
        source: RunDirError::Corrupt {
            reason: e.to_string(),
        },
    })?;
    match (samples.first(), samples.last()) {
        (Some(first), Some(last)) => {
            for w in samples.windows(2) {
                if w[1].seq != w[0].seq + 1 {
                    return Err(CtlError::RunDir {
                        context: format!("series.capts seq gap: {} -> {}", w[0].seq, w[1].seq),
                        source: RunDirError::Corrupt {
                            reason: "non-contiguous sample sequence".to_string(),
                        },
                    });
                }
            }
            outln!(
                out,
                "series.capts: {} samples, seq {}..{} contiguous",
                samples.len(),
                first.seq,
                last.seq
            );
            outln!(out, "last sample (t={:.3}s):", last.t);
            for (name, value) in &last.points {
                outln!(out, "  {name} = {value}");
            }
        }
        _ => outln!(out, "series.capts: 0 samples"),
    }
    tail_jsonl(dir, "class_attribution.jsonl", 5, out)?;
    Ok(())
}

/// `capctl dash <run-dir> --export <file.html>`: renders the recorded
/// history to a self-contained HTML dashboard.
fn cmd_dash(args: &[String], out: &mut Out) -> Result<(), CtlError> {
    let mut run_dir: Option<String> = None;
    let mut export: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--export" => {
                export = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage_err("--export requires a file"))?,
                );
            }
            other if run_dir.is_none() && !other.starts_with('-') => {
                run_dir = Some(other.to_string());
            }
            other => return Err(usage_err(format!("unknown dash argument {other:?}"))),
        }
    }
    let run_dir = run_dir.ok_or_else(|| usage_err("dash requires a run dir"))?;
    let export = export.ok_or_else(|| usage_err("dash requires --export <file.html>"))?;
    let series = std::path::Path::new(&run_dir).join("series.capts");
    if !series.exists() {
        outln!(
            out,
            "no history recorded ({run_dir} has no series.capts); nothing to export"
        );
        return Ok(());
    }
    let samples = cap_obs::tsdb::read_samples(&series).map_err(|e| CtlError::RunDir {
        context: format!("read {}", series.display()),
        source: RunDirError::Corrupt {
            reason: e.to_string(),
        },
    })?;
    let html = cap_obs::dash::render(&samples, &run_dir);
    cap_obs::fsx::atomic_write(std::path::Path::new(&export), html.as_bytes()).map_err(
        |source| CtlError::Io {
            context: format!("write {export}"),
            source,
        },
    )?;
    outln!(
        out,
        "dashboard for {} samples written to {export}",
        samples.len()
    );
    Ok(())
}

/// Reads a folded-stack profile. A directory argument resolves to the
/// `profile.folded` every pruning run writes into its run dir.
fn read_folded(arg: &str) -> Result<Vec<(String, u64)>, CtlError> {
    let mut path = std::path::PathBuf::from(arg);
    if path.is_dir() {
        path.push("profile.folded");
    }
    let text = std::fs::read_to_string(&path).map_err(|source| CtlError::Io {
        context: format!("read {}", path.display()),
        source,
    })?;
    Ok(cap_obs::flame::parse_folded(&text))
}

/// `capctl flame <target> [--export f]` or
/// `capctl flame --diff <A> <B> [--export f]`: renders a run's span
/// profile (or the difference between two) as a self-contained SVG.
fn cmd_flame(args: &[String], out: &mut Out) -> Result<(), CtlError> {
    let mut diff = false;
    let mut export: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => diff = true,
            "--export" => {
                export = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage_err("--export requires a file"))?,
                );
            }
            other if !other.starts_with("--") => targets.push(other.to_string()),
            other => return Err(usage_err(format!("unknown flame argument {other:?}"))),
        }
    }
    let (svg, default_export) = if diff {
        if targets.len() != 2 {
            return Err(usage_err("flame --diff requires exactly two profiles"));
        }
        let base = read_folded(&targets[0])?;
        let new = read_folded(&targets[1])?;
        let title = format!("diff: {} vs {}", targets[0], targets[1]);
        (
            cap_obs::flame::render_diff_svg(&base, &new, &title),
            "flame-diff.svg",
        )
    } else {
        if targets.len() != 1 {
            return Err(usage_err("flame requires one run dir or .folded file"));
        }
        let stacks = read_folded(&targets[0])?;
        (
            cap_obs::flame::render_svg(&stacks, &targets[0]),
            "flame.svg",
        )
    };
    let export = export.unwrap_or_else(|| default_export.to_string());
    cap_obs::fsx::atomic_write(std::path::Path::new(&export), svg.as_bytes()).map_err(
        |source| CtlError::Io {
            context: format!("write {export}"),
            source,
        },
    )?;
    outln!(out, "flamegraph written to {export}");
    Ok(())
}

fn run(out: &mut Out) -> Result<(), CtlError> {
    let mut args: Vec<String> = std::env::args().collect();
    init_trace(&mut args)?;
    let _span = cap_obs::span!("capctl.run");
    if let Some(cmd) = args.get(1) {
        cap_obs::emit(cap_obs::Event::new("capctl").str("command", cmd.clone()));
    }
    match args.get(1).map(String::as_str) {
        Some("info") => {
            let path = args
                .get(2)
                .ok_or_else(|| usage_err("info requires a file"))?;
            let net = load_net(path)?;
            describe(&net, out);
            Ok(())
        }
        Some("flops") => {
            if args.len() < 6 {
                return Err(usage_err("flops requires <file> <C> <H> <W>"));
            }
            let path = &args[2];
            let parse = |s: &String| {
                s.parse::<usize>()
                    .map_err(|e| usage_err(format!("bad dim {s}: {e}")))
            };
            let (c, h, w) = (parse(&args[3])?, parse(&args[4])?, parse(&args[5])?);
            let net = load_net(path)?;
            let report = analyze_network(&net, c, h, w).map_err(|source| CtlError::Prune {
                context: format!("analyse {path}"),
                source,
            })?;
            outln!(out, "input [{c}, {h}, {w}]");
            outln!(out, "layer                    | FLOPs        | params");
            outln!(out, "-------------------------+--------------+--------");
            for l in &report.layers {
                outln!(out, "{:<25}| {:>12} | {:>6}", l.label, l.flops, l.params);
            }
            outln!(
                out,
                "total: {} FLOPs/sample, {} parameters",
                report.total_flops,
                report.total_params
            );
            Ok(())
        }
        Some("prune") => cmd_prune(&args[2..], out),
        Some("tail") => {
            let dir = args
                .get(2)
                .ok_or_else(|| usage_err("tail requires a run dir"))?;
            cmd_tail(dir, out)
        }
        Some("dash") => cmd_dash(&args[2..], out),
        Some("flame") => cmd_flame(&args[2..], out),
        _ => Err(usage_err("")),
    }
}

fn main() -> ExitCode {
    let mut out = Out::default();
    let result = run(&mut out).and(out.finish());
    cap_obs::finalize_process();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("capctl: {e}");
            let mut cause = e.source();
            while let Some(c) = cause {
                eprintln!("  caused by: {c}");
                cause = c.source();
            }
            ExitCode::from(e.exit_code())
        }
    }
}
