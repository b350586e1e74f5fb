//! The three closed-loop workloads. One client issues one op at a time;
//! every input derives from the run's seed.
//!
//! Each workload also runs an interleaved A/B of eval-mode forward
//! passes of its dense network against a class-aware-pruned copy, so
//! every workload reports the paper's claim as time (latency
//! reduction) next to the analytic FLOPs reduction.

use crate::stats::median;
use crate::yardstick::{self, Yardstick};
use cap_core::{
    analyze_network, apply_site_pruning, evaluate_scores, evaluate_scores_with_attribution,
    find_prunable_sites, select_filters, ClassAttribution, ClassAwarePruner, NetworkScores,
    PrunableSite, PruneConfig, PruneOutcome, PruneStrategy, ScoreConfig, TauMode,
};
use cap_data::{Dataset, DatasetSpec, SyntheticDataset};
use cap_models::{resnet56, vgg16, ModelConfig};
use cap_nn::TrainConfig;
use cap_nn::{evaluate, fit, gather_batch, FaultPolicy, Network, RegularizerConfig, RunDir};
use cap_tensor::Tensor;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Error type of the benchmark.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// A named metric value with its unit.
pub type MetricRow = (String, f64, &'static str);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 5 loop end to end through `ClassAwarePruner::run_with_dir`.
    Prune,
    /// Repeated 100-class scoring passes (Eq. 3–7) on ResNet56.
    Score,
    /// Dense-vs-pruned eval-mode inference on VGG16, batch by batch.
    Infer,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the score and infer
    /// workloads; the prune workload runs by name and in the ledger.
    pub const ALL: [Workload; 3] = [Workload::Prune, Workload::Score, Workload::Infer];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prune => "prune-vgg16-c10",
            Workload::Score => "score-resnet56-c100",
            Workload::Infer => "infer-vgg16-c10",
        }
    }

    /// Short tag used inside per-layer metric names.
    pub fn tag(self) -> &'static str {
        match self {
            Workload::Prune => "prune",
            Workload::Score => "score",
            Workload::Infer => "infer",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`]
/// runs every code path in seconds for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Image side of the CIFAR stand-ins.
    pub image: usize,
    /// Model width multiplier.
    pub width: f32,
    /// Train / test images per class of the 10-class stand-in.
    pub c10_counts: (usize, usize),
    /// Train / test images per class of the 100-class stand-in.
    pub c100_counts: (usize, usize),
    /// Training, evaluation and inference batch size.
    pub batch: usize,
    /// Images per class for scoring (`M`).
    pub images_per_class: usize,
    /// Iterations of the prune loop.
    pub prune_iterations: usize,
    /// Dense/pruned forward pairs after each prune run or scoring pass.
    pub ab_pairs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Inference pairs per round of the overhead measurement.
    pub overhead_pairs: usize,
    /// Repetitions of each timed call in the per-layer ledger.
    pub ledger_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        image: 16,
        width: 0.25,
        c10_counts: (32, 10),
        c100_counts: (10, 2),
        batch: 32,
        images_per_class: 10,
        prune_iterations: 4,
        ab_pairs: 32,
        setup_repeats: 5,
        overhead_pairs: 100,
        ledger_reps: 15,
    };

    /// Test sizes (VGG16 needs 16×16 images to keep its layer labels).
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        image: 16,
        width: 0.125,
        c10_counts: (4, 4),
        c100_counts: (2, 1),
        batch: 8,
        images_per_class: 2,
        prune_iterations: 2,
        ab_pairs: 2,
        setup_repeats: 2,
        overhead_pairs: 2,
        ledger_reps: 2,
    };
}

/// Pre-training epochs in the prune workload's set-up: a short pre-train
/// is enough, the workload times pruning, not accuracy.
const PRETRAIN_EPOCHS: usize = 1;
/// Rounds every run makes, even past its time window: the output checks
/// compare a round with the first one.
const MIN_ROUNDS: usize = 2;
/// Share of all filters the prune loop removes per iteration.
const LOOP_FRACTION: f64 = 0.1;
/// Share of all filters the one-shot pruned copies lose.
const ONE_SHOT_FRACTION: f64 = 0.5;
/// `M` of the one scoring pass that makes the pruned ResNet56 in set-up
/// (100 classes at the full `M` would triple the set-up time).
const ONE_SHOT_M_C100: usize = 2;
/// Taylor threshold of every scoring pass (the experiment scales' value).
const TAU: TauMode = TauMode::SiteRelative(3.0);

/// CPU time the process's live threads have used, in nanoseconds (the
/// first field of every `/proc/self/task/<tid>/schedstat`). Unlike wall
/// time it leaves out time the hypervisor steals from the VM.
///
/// # Errors
///
/// Fails where `/proc` has no per-thread schedstat (not Linux).
fn cpu_ns() -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir("/proc/self/task")? {
        let stat = std::fs::read_to_string(entry?.path().join("schedstat"))?;
        let first = stat.split_whitespace().next().ok_or("empty schedstat")?;
        total += first.parse::<u64>()?;
    }
    Ok(total)
}

/// Time the hypervisor has stolen from the machine, in milliseconds per
/// CPU: the `steal` column of the `cpu` line of `/proc/stat` (in
/// `USER_HZ` = 100 ticks per second) divided by the number of CPUs.
///
/// # Errors
///
/// Fails where `/proc/stat` is missing or has no steal column.
fn steal_ms_per_cpu() -> Res<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let total = stat.lines().next().ok_or("empty /proc/stat")?;
    let steal: f64 = total
        .split_whitespace()
        .nth(8)
        .ok_or("no steal column in /proc/stat")?
        .parse()?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
        .max(1);
    Ok(steal * 10.0 / cpus as f64)
}

/// Wall, CPU and stolen time of one call, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Elapsed wall time.
    pub wall_ms: f64,
    /// CPU time of all threads of the process.
    pub cpu_ms: f64,
    /// Time the hypervisor stole per CPU meanwhile (10 ms resolution).
    pub steal_ms: f64,
}

/// Runs `f` and measures its [`Cost`].
pub fn measure<T>(f: impl FnOnce() -> T) -> Res<(T, Cost)> {
    let steal = steal_ms_per_cpu()?;
    let cpu = cpu_ns()?;
    let wall = cap_obs::clock::now();
    let out = f();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = cpu_ns()?.saturating_sub(cpu) as f64 * 1e-6;
    let steal_ms = steal_ms_per_cpu()? - steal;
    Ok((
        out,
        Cost {
            wall_ms,
            cpu_ms,
            steal_ms,
        },
    ))
}

/// Runs `f` between two readings of `stick`: its [`Cost`], and the
/// factor that scales its CPU time to the host's reference speed.
pub fn measure_scaled<T>(stick: &mut Yardstick, f: impl FnOnce() -> T) -> Res<(T, Cost, f64)> {
    let before = stick.read();
    let (out, cost) = measure(f)?;
    let after = stick.read();
    Ok((out, cost, yardstick::scale(before, after)))
}

/// Wall, CPU and stolen times of repeated calls, ms.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time per call.
    pub wall_ms: Vec<f64>,
    /// CPU time per call.
    pub cpu_ms: Vec<f64>,
    /// CPU time per call at the host's reference speed (see [`yardstick`]).
    pub norm_ms: Vec<f64>,
    /// Stolen time per CPU per call.
    pub steal_ms: Vec<f64>,
}

impl Samples {
    fn push(&mut self, c: Cost, scale: f64) {
        self.wall_ms.push(c.wall_ms);
        self.cpu_ms.push(c.cpu_ms);
        self.norm_ms.push(c.cpu_ms * scale);
        self.steal_ms.push(c.steal_ms);
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.wall_ms.len()
    }

    /// CPU time over wall time summed over all calls: how many threads
    /// were busy on average. With `steal_corrected`, the time stolen
    /// from the VM is taken out of the wall time first.
    pub fn parallelism(&self, steal_corrected: bool) -> f64 {
        let cpu: f64 = self.cpu_ms.iter().sum();
        let wall: f64 = self.wall_ms.iter().sum();
        let steal: f64 = if steal_corrected {
            self.steal_ms.iter().sum()
        } else {
            0.0
        };
        cpu / (wall - steal)
    }
}

/// Samples collected by the rounds of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted: prune iterations, scoring passes or inference batches.
    pub attempted: u64,
    /// Ops that returned an error or failed an output check.
    pub failed: u64,
    /// Each successful op.
    pub op: Samples,
    /// Dense side of the forward A/B, per batch.
    pub dense: Samples,
    /// Pruned side of the forward A/B, per batch.
    pub pruned: Samples,
    /// Analytic FLOPs reduction of the pruned network, per op.
    pub flops_reduction: Vec<f64>,
    /// Reads the host's speed around every timed call.
    pub yardstick: Yardstick,
}

impl Tally {
    /// Measured latency reduction, `1 − pruned/dense` wall p50 of the
    /// interleaved forward A/B.
    pub fn latency_reduction(&self) -> f64 {
        1.0 - median(&self.pruned.wall_ms) / median(&self.dense.wall_ms)
    }

    fn fail(&mut self, what: &str, n: u64) {
        eprintln!("capbench: failed check: {what}");
        self.failed += n;
    }
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json`
/// order, with their units. `setup_norm_s` holds the set-ups' CPU
/// seconds at the host's reference speed.
///
/// Absolute times are CPU time at the host's reference speed: on the
/// 2-vCPU VM the benchmark was built on, hypervisor steal stretches wall
/// time by up to 60% for seconds at a time, and CPU time leaves it out;
/// the host's slow phases stretch CPU time too, and the [`yardstick`]
/// readings around each call take that out. Wall time enters through
/// `op_parallelism`, the op's CPU time over its wall time less steal,
/// which falls when the threads stop overlapping. The dense-vs-pruned
/// comparison is a wall-time ratio from interleaved batches, where the
/// stretch cancels, reported as a speedup (dense ÷ pruned): a reduction
/// of 0.2 moves by a fifth when the times move by 4%, a speedup by 4%.
/// `dense_norm_ms_p50` keeps a slower dense forward from passing as a
/// higher speedup.
pub fn end_to_end(setup_norm_s: &[f64], tally: &Tally) -> Vec<MetricRow> {
    vec![
        ("setup_s".into(), median(setup_norm_s), "s"),
        ("op_norm_ms_p50".into(), median(&tally.op.norm_ms), "ms"),
        (
            "dense_norm_ms_p50".into(),
            median(&tally.dense.norm_ms),
            "ms",
        ),
        (
            "op_parallelism".into(),
            tally.op.parallelism(true),
            "threads",
        ),
        (
            "latency_speedup".into(),
            1.0 / (1.0 - tally.latency_reduction()),
            "x",
        ),
        (
            "flops_speedup".into(),
            1.0 / (1.0 - median(&tally.flops_reduction)),
            "x",
        ),
    ]
}

/// A set-up workload, ready for rounds.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // a run holds one to three of these
pub enum Bench {
    /// See [`Workload::Prune`].
    Prune(PruneBench),
    /// See [`Workload::Score`].
    Score(ScoreBench),
    /// See [`Workload::Infer`].
    Infer(InferBench),
}

/// State of the prune workload.
#[derive(Debug)]
pub struct PruneBench {
    /// The CIFAR-10 stand-in.
    pub data: SyntheticDataset,
    /// The pre-trained dense VGG16 every run starts from.
    pub dense: Network,
    /// The configured Fig. 5 loop.
    pub pruner: ClassAwarePruner,
    /// Test batches of the forward A/B.
    pub batches: Vec<Tensor>,
    /// The most recent successful run: wall seconds and outcome.
    pub last: Option<(f64, PruneOutcome)>,
    tmp: PathBuf,
    runs: usize,
    ab_pairs: usize,
}

/// State of the scoring workload.
#[derive(Debug)]
pub struct ScoreBench {
    /// The CIFAR-100 stand-in.
    pub data: SyntheticDataset,
    /// The dense ResNet56 that is scored.
    pub dense: Network,
    /// Its class-aware-pruned copy (forward A/B only).
    pub pruned: Network,
    /// Prunable sites of `dense`.
    pub sites: Vec<PrunableSite>,
    /// Scoring settings (`M`, `τ`, seed).
    pub cfg: ScoreConfig,
    /// Test batches of the forward A/B.
    pub batches: Vec<Tensor>,
    flops_reduction: f64,
    reference: Option<(NetworkScores, ClassAttribution)>,
    ab_pairs: usize,
}

/// State of the inference workload.
#[derive(Debug)]
pub struct InferBench {
    /// The CIFAR-10 stand-in.
    pub data: SyntheticDataset,
    /// The dense VGG16.
    pub dense: Network,
    /// Its class-aware-pruned copy.
    pub pruned: Network,
    /// The 32-image batches, used round-robin.
    pub batches: Vec<Tensor>,
    flops_reduction: f64,
    reference: Vec<Option<(Vec<u32>, Vec<u32>)>>,
    step: usize,
}

fn dataset(
    classes: usize,
    counts: (usize, usize),
    scale: &Scale,
    seed: u64,
) -> Res<SyntheticDataset> {
    let spec = if classes == 100 {
        DatasetSpec::cifar100_like()
    } else {
        DatasetSpec::cifar10_like()
    };
    Ok(SyntheticDataset::generate(
        &spec
            .with_image_size(scale.image)
            .with_counts(counts.0, counts.1)
            .with_seed(seed),
    )?)
}

fn model_config(classes: usize, scale: &Scale) -> ModelConfig {
    ModelConfig::new(classes)
        .with_width(scale.width)
        .with_image_size(scale.image)
}

/// Training settings of pre-training and fine-tuning (the paper's SGD
/// setting with the modified cost of Eq. 1).
fn train_config(epochs: usize, scale: &Scale, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: scale.batch,
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 5e-4,
        lr_decay: 0.97,
        regularizer: RegularizerConfig::paper(),
        shuffle_seed: seed,
        fault_policy: FaultPolicy::Abort,
    }
}

/// Consecutive `batch`-image batches cut from the front of `images`
/// (at least one, fewer images than `batch` give one short batch).
fn batches_of(images: &Tensor, batch: usize) -> Res<Vec<Tensor>> {
    let n = images.dim(0);
    let count = (n / batch).max(1);
    (0..count)
        .map(|b| {
            let idx: Vec<usize> = (b * batch..((b + 1) * batch).min(n)).collect();
            Ok(gather_batch(images, &idx)?)
        })
        .collect()
}

/// One-shot class-aware pruning: one scoring pass, the globally lowest
/// [`ONE_SHOT_FRACTION`] of filters selected, surgery on a copy of `net`.
fn class_aware_copy(net: &Network, data: &Dataset, m: usize, seed: u64) -> Res<Network> {
    let mut pruned = net.clone();
    let sites = find_prunable_sites(&pruned);
    let cfg = ScoreConfig {
        images_per_class: m,
        tau: TAU,
        seed,
    };
    let scores = evaluate_scores(&mut pruned, &sites, data, &cfg)?;
    let selection = select_filters(
        &scores,
        &PruneStrategy::Percentage {
            fraction: ONE_SHOT_FRACTION,
        },
    )?;
    for (si, site) in sites.iter().enumerate() {
        if !selection.remove[si].is_empty() {
            let keep = selection.keep_for(si, scores.sites[si].scores.len());
            apply_site_pruning(&mut pruned, site, &keep)?;
        }
    }
    Ok(pruned)
}

fn flops_reduction(dense: &Network, pruned: &Network, data: &Dataset) -> Res<f64> {
    let s = data.images().shape();
    let before = analyze_network(dense, s[1], s[2], s[3])?;
    let after = analyze_network(pruned, s[1], s[2], s[3])?;
    Ok(after.flops_reduction_vs(&before))
}

/// FNV-1a over every parameter bit of `net`: equal fingerprints mean
/// bit-identical weights.
fn fingerprint(net: &Network) -> u64 {
    let mut net = net.clone();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    net.visit_params_mut(&mut |p, _| {
        for v in p.data() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    });
    h
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Times one eval-mode forward pass; returns its cost and the logits.
fn timed_forward(net: &mut Network, x: &Tensor) -> Res<(Cost, Tensor)> {
    let (y, cost) = measure(|| net.forward(x, false))?;
    Ok((cost, y?))
}

/// One dense/pruned forward pair on `x`, alternating which side runs
/// first so that neither always sees the other's cache state, between
/// two readings of `stick`. Returns both sides and the pair's scale to
/// the host's reference speed.
#[allow(clippy::type_complexity)]
fn ab_pair(
    stick: &mut Yardstick,
    dense: &mut Network,
    pruned: &mut Network,
    x: &Tensor,
    dense_first: bool,
) -> Res<((Cost, Tensor), (Cost, Tensor), f64)> {
    let before = stick.read();
    let (d, p) = if dense_first {
        let d = timed_forward(dense, x)?;
        (d, timed_forward(pruned, x)?)
    } else {
        let p = timed_forward(pruned, x)?;
        (timed_forward(dense, x)?, p)
    };
    let after = stick.read();
    Ok((d, p, yardstick::scale(before, after)))
}

fn ab_pairs(
    dense: &mut Network,
    pruned: &mut Network,
    batches: &[Tensor],
    pairs: usize,
    tally: &mut Tally,
) -> Res<()> {
    for i in 0..pairs {
        let ((d, _), (p, _), scale) = ab_pair(
            &mut tally.yardstick,
            dense,
            pruned,
            &batches[i % batches.len()],
            i.is_multiple_of(2),
        )?;
        tally.dense.push(d, scale);
        tally.pruned.push(p, scale);
    }
    Ok(())
}

impl Bench {
    /// Builds the workload's inputs and networks from `seed`. `tmp` is
    /// an empty directory the workload may write run dirs into.
    pub fn setup(w: Workload, seed: u64, scale: &Scale, tmp: &Path) -> Res<Bench> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Ok(match w {
            Workload::Prune => {
                let data = dataset(10, scale.c10_counts, scale, seed)?;
                let mut dense = vgg16(&model_config(10, scale), &mut rng)?;
                fit(
                    &mut dense,
                    data.train().images(),
                    data.train().labels(),
                    &train_config(PRETRAIN_EPOCHS, scale, seed),
                )?;
                let pruner = ClassAwarePruner::new(PruneConfig {
                    score: ScoreConfig {
                        images_per_class: scale.images_per_class,
                        tau: TAU,
                        seed,
                    },
                    strategy: PruneStrategy::Percentage {
                        fraction: LOOP_FRACTION,
                    },
                    finetune: train_config(1, scale, seed),
                    max_iterations: scale.prune_iterations,
                    // Accuracy lies in [0, 1], so a drop never exceeds
                    // 1.0: every run does all its iterations.
                    accuracy_drop_limit: 1.0,
                    eval_batch: scale.batch,
                })?;
                let batches = batches_of(data.test().images(), scale.batch)?;
                Bench::Prune(PruneBench {
                    data,
                    dense,
                    pruner,
                    batches,
                    last: None,
                    tmp: tmp.to_path_buf(),
                    runs: 0,
                    ab_pairs: scale.ab_pairs,
                })
            }
            Workload::Score => {
                let data = dataset(100, scale.c100_counts, scale, seed)?;
                let dense = resnet56(&model_config(100, scale), &mut rng)?;
                let m = scale.images_per_class.min(ONE_SHOT_M_C100);
                let pruned = class_aware_copy(&dense, data.train(), m, seed)?;
                let flops_reduction = flops_reduction(&dense, &pruned, data.train())?;
                let sites = find_prunable_sites(&dense);
                let batches = batches_of(data.test().images(), scale.batch)?;
                Bench::Score(ScoreBench {
                    data,
                    dense,
                    pruned,
                    sites,
                    cfg: ScoreConfig {
                        images_per_class: scale.images_per_class,
                        tau: TAU,
                        seed,
                    },
                    batches,
                    flops_reduction,
                    reference: None,
                    ab_pairs: scale.ab_pairs,
                })
            }
            Workload::Infer => {
                let data = dataset(10, scale.c10_counts, scale, seed)?;
                let dense = vgg16(&model_config(10, scale), &mut rng)?;
                let pruned = class_aware_copy(&dense, data.train(), scale.images_per_class, seed)?;
                let flops_reduction = flops_reduction(&dense, &pruned, data.train())?;
                let batches = batches_of(data.test().images(), scale.batch)?;
                let reference = vec![None; batches.len()];
                Bench::Infer(InferBench {
                    data,
                    dense,
                    pruned,
                    batches,
                    flops_reduction,
                    reference,
                    step: 0,
                })
            }
        })
    }

    /// The dense network and, where the set-up made one, its pruned copy.
    pub fn networks(&self) -> (&Network, Option<&Network>) {
        match self {
            Bench::Prune(b) => (&b.dense, None),
            Bench::Score(b) => (&b.dense, Some(&b.pruned)),
            Bench::Infer(b) => (&b.dense, Some(&b.pruned)),
        }
    }

    /// Input geometry `(channels, height, width)` of the workload's data.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        let data = match self {
            Bench::Prune(b) => &b.data,
            Bench::Score(b) => &b.data,
            Bench::Infer(b) => &b.data,
        };
        let s = data.train().images().shape();
        (s[1], s[2], s[3])
    }

    /// Fingerprint of everything the set-up produced that later rounds
    /// read: equal across repeated set-ups from one seed.
    pub fn fingerprint(&self) -> u64 {
        let (dense, pruned) = self.networks();
        fingerprint(dense) ^ pruned.map_or(0, |p| fingerprint(p).rotate_left(1))
    }

    /// Runs one round: a prune run, a scoring pass or an inference
    /// pair, each followed by its output checks.
    pub fn round(&mut self, tally: &mut Tally) -> Res<()> {
        match self {
            Bench::Prune(b) => b.round(tally),
            Bench::Score(b) => b.round(tally),
            Bench::Infer(b) => b.round(tally),
        }
    }
}

impl PruneBench {
    fn round(&mut self, tally: &mut Tally) -> Res<()> {
        let root = self.tmp.join(format!("prune-run-{}", self.runs));
        self.runs += 1;
        let dir = RunDir::create(&root)?;
        let iterations = self.pruner.config().max_iterations as u64;
        tally.attempted += iterations;
        let mut net = self.dense.clone();
        // A persisted run starts the history recorder, which switches the
        // global obs gate on; restore it so untraced rounds stay untraced.
        let traced = cap_obs::enabled();
        let (result, cost, scale) = measure_scaled(&mut tally.yardstick, || {
            self.pruner
                .run_with_dir(&mut net, self.data.train(), self.data.test(), &dir)
        })?;
        if !traced {
            cap_obs::disable();
        }
        match result {
            Err(e) => tally.fail(&format!("run_with_dir: {e}"), iterations),
            Ok(outcome) => {
                if self.check(&dir, &outcome)? {
                    tally.op.push(cost, scale);
                    tally.flops_reduction.push(outcome.flops_reduction());
                } else {
                    tally.fail("prune run checkpoint/accuracy", iterations);
                }
                ab_pairs(
                    &mut self.dense,
                    &mut net,
                    &self.batches,
                    self.ab_pairs,
                    tally,
                )?;
                self.last = Some((cost.wall_ms * 1e-3, outcome));
            }
        }
        std::fs::remove_dir_all(&root)?;
        Ok(())
    }

    /// The newest checkpoint validates, is the last iteration's, and
    /// evaluating it reproduces the reported final accuracy.
    fn check(&self, dir: &RunDir, outcome: &PruneOutcome) -> Res<bool> {
        let Some((gen, mut net)) = dir.latest_valid(None) else {
            return Ok(false);
        };
        let test = self.data.test();
        let accuracy = evaluate(
            &mut net,
            test.images(),
            test.labels(),
            self.pruner.config().eval_batch,
        )?;
        Ok(gen as usize == outcome.iterations.len()
            && outcome.iterations.len() == self.pruner.config().max_iterations
            && accuracy == outcome.final_accuracy
            && outcome.flops_reduction() > 0.0)
    }
}

impl ScoreBench {
    fn round(&mut self, tally: &mut Tally) -> Res<()> {
        tally.attempted += 1;
        let (result, cost, scale) = measure_scaled(&mut tally.yardstick, || {
            evaluate_scores_with_attribution(
                &mut self.dense,
                &self.sites,
                self.data.train(),
                &self.cfg,
            )
        })?;
        match result {
            Err(e) => tally.fail(&format!("scoring pass: {e}"), 1),
            Ok(pass) => {
                if scores_consistent(&pass.0, &pass.1, self.reference.as_ref()) {
                    tally.op.push(cost, scale);
                    tally.flops_reduction.push(self.flops_reduction);
                } else {
                    tally.fail("scores finite, attributed and repeatable", 1);
                }
                self.reference.get_or_insert(pass);
            }
        }
        ab_pairs(
            &mut self.dense,
            &mut self.pruned,
            &self.batches,
            self.ab_pairs,
            tally,
        )
    }
}

/// Every score is finite, each filter's attribution row sums (in class
/// order) exactly to its total, and the pass is bit-identical to the
/// first pass of the run.
fn scores_consistent(
    scores: &NetworkScores,
    attribution: &ClassAttribution,
    reference: Option<&(NetworkScores, ClassAttribution)>,
) -> bool {
    let rows_sum = scores.sites.len() == attribution.sites.len()
        && scores.sites.iter().zip(&attribution.sites).all(|(s, a)| {
            s.scores.len() == a.per_class.len()
                && s.scores.iter().zip(&a.per_class).all(|(&total, row)| {
                    total.is_finite() && row.iter().fold(0.0f64, |acc, &c| acc + c) == total
                })
        });
    let same_bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    let repeatable = reference.is_none_or(|(ref_scores, ref_attr)| {
        scores.sites.len() == ref_scores.sites.len()
            && scores
                .sites
                .iter()
                .zip(&ref_scores.sites)
                .all(|(a, b)| same_bits(&a.scores, &b.scores))
            && attribution.sites.iter().zip(&ref_attr.sites).all(|(a, b)| {
                a.per_class
                    .iter()
                    .zip(&b.per_class)
                    .all(|(x, y)| same_bits(x, y))
            })
    });
    rows_sum && repeatable
}

impl InferBench {
    fn round(&mut self, tally: &mut Tally) -> Res<()> {
        let i = self.step;
        self.step += 1;
        let b = i % self.batches.len();
        tally.attempted += 2;
        let ((d_cost, d_out), (p_cost, p_out), scale) = ab_pair(
            &mut tally.yardstick,
            &mut self.dense,
            &mut self.pruned,
            &self.batches[b],
            i.is_multiple_of(2),
        )?;
        let outputs = (bits(&d_out), bits(&p_out));
        let reference = self.reference[b].get_or_insert_with(|| outputs.clone());
        if *reference != outputs || self.flops_reduction <= 0.0 {
            tally.fail("dense/pruned logits repeat and pruned FLOPs are lower", 2);
            return Ok(());
        }
        tally.dense.push(d_cost, scale);
        tally.pruned.push(p_cost, scale);
        tally.op.push(p_cost, scale);
        tally.flops_reduction.push(self.flops_reduction);
        Ok(())
    }
}

/// Runs rounds until `window` has passed and at least [`MIN_ROUNDS`]
/// rounds are done.
pub fn run_rounds(bench: &mut Bench, window: Duration) -> Res<Tally> {
    let mut tally = Tally::default();
    let start = cap_obs::clock::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < window {
        bench.round(&mut tally)?;
        rounds += 1;
    }
    Ok(tally)
}
