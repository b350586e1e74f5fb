//! The traced run: the per-layer ledger.
//!
//! Every traced run measures the whole ledger, whatever workload it is
//! started for, so that each traced run reports every per-layer metric.
//! Layers are measured from outside: the benchmark times calls into the
//! public functions of `cap-tensor`, `cap-nn`, `cap-core` and `cap-data`
//! (one span per call, see [`crate::spans`]) and reads the counters and
//! gauges that `cap-tensor` and `cap-par` publish through `cap-obs`.
//! Per-layer names use the `LayerCost.label` of
//! `cap_core::analyze_network` (`conv0`, `conv3`, ...), so measured time
//! joins to analytic FLOPs.

use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{
    measure, Bench, InferBench, MetricRow, PruneBench, Res, Scale, ScoreBench, Tally, Workload,
};
use cap_core::evaluate_scores_with_attribution;
use cap_nn::layer::Layer;
use cap_nn::{gather_batch, CrossEntropyLoss, Network, Reduction, RunDir};
use cap_obs::sink::CaptureSink;
use cap_obs::Metric;
use cap_tensor::{conv_output_size, Tensor};
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;

/// Largest tolerated distance of `nn.fwd.*.layer_sum_ratio` from 1: the
/// per-layer forward times must add up to one whole `Network::forward`
/// on the same batch within 15%.
const LAYER_SUM_BOUND: f64 = 0.15;

/// Alternating pairs of a scoring pass and a replay of its forward and
/// backward calls that `core.score.reduce_s` takes the median over.
const REDUCE_PAIRS: usize = 3;

/// Output of a traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per-layer metrics, in emission order.
    pub metrics: Vec<MetricRow>,
    /// Ops attempted by the traced and untraced rounds, plus ledger checks.
    pub attempted: u64,
    /// Ops or checks that failed.
    pub failed: u64,
    /// The benchmark's spans.
    pub tracer: Tracer,
    /// Events `cap-obs` emitted to the capture sink during traced rounds.
    pub captured: Vec<String>,
}

impl Ledger {
    fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn absorb(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }
}

/// The GEMM each convolution runs per sample: `(label, M, K, N)` with
/// `M = out_c`, `K = in_c·k²`, `N = oh·ow`. Residual blocks contribute
/// `residual<i>.conv1`, `.conv2` and `.shortcut`.
pub fn conv_gemm_shapes(
    net: &Network,
    dims: (usize, usize, usize),
) -> Res<Vec<(String, usize, usize, usize)>> {
    let (_, mut h, mut w) = dims;
    let mut out = Vec::new();
    let mut conv =
        |label: String, cv: &cap_nn::layer::Conv2d, h: usize, w: usize| -> Res<(usize, usize)> {
            let oh = conv_output_size(h, cv.kernel(), cv.stride(), cv.padding())?;
            let ow = conv_output_size(w, cv.kernel(), cv.stride(), cv.padding())?;
            out.push((
                label,
                cv.out_channels(),
                cv.in_channels() * cv.kernel() * cv.kernel(),
                oh * ow,
            ));
            Ok((oh, ow))
        };
    for (i, layer) in net.layers().iter().enumerate() {
        let label = format!("{}{}", layer.kind(), i);
        match layer {
            Layer::Conv(cv) => {
                (h, w) = conv(label, cv, h, w)?;
            }
            Layer::MaxPool(p) => {
                h = conv_output_size(h, p.kernel(), p.stride(), 0)?;
                w = conv_output_size(w, p.kernel(), p.stride(), 0)?;
            }
            Layer::GlobalAvgPool(_) => (h, w) = (1, 1),
            Layer::Residual(block) => {
                let (oh, ow) = conv(format!("{label}.conv1"), block.conv1(), h, w)?;
                conv(format!("{label}.conv2"), block.conv2(), oh, ow)?;
                if let Some((sc, _)) = block.shortcut() {
                    conv(format!("{label}.shortcut"), sc, h, w)?;
                }
                (h, w) = (oh, ow);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Prints the kernel plan `cap_tensor::gemm_plan_summary` picks for
/// every distinct conv GEMM shape of the workload's networks.
pub fn print_gemm_plans(bench: &Bench) -> Res<()> {
    let (dense, pruned) = bench.networks();
    let mut seen = BTreeSet::new();
    for net in std::iter::once(dense).chain(pruned) {
        for (_, m, k, n) in conv_gemm_shapes(net, bench.input_dims())? {
            if seen.insert((m, k, n)) {
                println!(
                    "# gemm M={m} K={k} N={n} plan={}",
                    cap_tensor::gemm_plan_summary(m, n, k)
                );
            }
        }
    }
    Ok(())
}

/// Counters and gauges of the global `cap-obs` registry, as numbers.
fn obs_values() -> BTreeMap<String, f64> {
    cap_obs::registry()
        .snapshot()
        .into_iter()
        .filter_map(|(name, m)| match m {
            Metric::Counter(c) => Some((name, c as f64)),
            Metric::Gauge(g) => Some((name, g)),
            Metric::Histogram(_) => None,
        })
        .collect()
}

/// Sum of the registry values whose name satisfies `pred`.
fn sum_where(values: &BTreeMap<String, f64>, pred: impl Fn(&str) -> bool) -> f64 {
    values.iter().filter(|(k, _)| pred(k)).map(|(_, v)| v).sum()
}

fn rounds(bench: &mut Bench, n: usize, tally: &mut Tally) -> Res<()> {
    for _ in 0..n {
        bench.round(tally)?;
    }
    Ok(())
}

/// Runs one workload untraced and then traced with the same number of
/// rounds; records the trace overhead, GEMM selector counts and worker
/// busy share of the traced rounds. The prune workload has no untraced
/// round to compare with (`run_with_dir` starts the history recorder,
/// which turns `cap-obs` on), so it reports no trace overhead.
fn traced_pair(l: &mut Ledger, w: Workload, bench: &mut Bench, n: usize) -> Res<()> {
    let tag = w.tag();
    let mut untraced = Tally::default();
    let untraced_ns = if w == Workload::Prune {
        None
    } else {
        let (r, ns) = l.tracer.time(&format!("workload.{tag}.untraced"), |_| {
            rounds(bench, n, &mut untraced)
        });
        r?;
        Some(ns)
    };

    cap_obs::enable();
    // Registry values only grow, and each worker's busy gauge carries its
    // cumulative busy time, so differences span exactly the traced rounds.
    let before = obs_values();
    let mut traced = Tally::default();
    let (r, traced_ns) = l.tracer.time(&format!("workload.{tag}.traced"), |_| {
        rounds(bench, n, &mut traced)
    });
    let after = obs_values();
    cap_obs::disable();
    r?;

    let delta = |pred: &dyn Fn(&str) -> bool| sum_where(&after, pred) - sum_where(&before, pred);
    let calls = delta(&|k| k.starts_with("tensor.gemm.select.") && k.ends_with("_total"));
    let direct = delta(&|k| k == "tensor.gemm.select.direct_total");
    let busy = delta(&|k| k.starts_with("par.worker.") && k.ends_with(".busy_seconds"));
    let workers = cap_par::Pool::global().worker_count().max(1) as f64;
    l.push(format!("tensor.gemm.calls.{tag}"), calls, "count");
    l.push(
        format!("tensor.gemm.direct_frac.{tag}"),
        if calls > 0.0 { direct / calls } else { 0.0 },
        "ratio",
    );
    l.push(
        format!("par.busy_frac.{tag}"),
        busy / (workers * traced_ns * 1e-9),
        "ratio",
    );
    if let Some(untraced_ns) = untraced_ns {
        l.push(
            format!("obs.trace_overhead.{tag}"),
            traced_ns / untraced_ns - 1.0,
            "ratio",
        );
    }
    l.absorb(&traced);
    l.absorb(&untraced);
    Ok(())
}

/// Result of [`forward_walk`].
struct Walk {
    /// Median ns per layer, with the layer's label.
    per_layer: Vec<(String, f64)>,
    /// Median over repetitions of Σ per-layer ns ÷ the same
    /// repetition's whole `Network::forward` ns (`NaN` when not timed).
    layer_sum_ratio: f64,
    /// Output of the last layer walk.
    output: Tensor,
}

/// Times each layer of `net` on `x` (walking `layers_mut()`), `reps`
/// times, and with `whole` one whole `Network::forward` per repetition.
fn forward_walk(
    tr: &mut Tracer,
    prefix: &str,
    net: &mut Network,
    x: &Tensor,
    training: bool,
    reps: usize,
    whole: bool,
) -> Res<Walk> {
    let labels: Vec<String> = net
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| format!("{}{}", l.kind(), i))
        .collect();
    let names: Vec<String> = labels.iter().map(|l| format!("{prefix}.{l}")).collect();
    let whole_name = format!("{prefix}.network");
    let mut samples = vec![Vec::with_capacity(reps); labels.len()];
    let mut ratios = Vec::with_capacity(reps);
    let mut h = x.clone();
    for _ in 0..reps {
        h = x.clone();
        let mut sum = 0.0;
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let (y, ns) = tr.time(&names[i], |_| layer.forward(&h, training));
            h = black_box(y?);
            samples[i].push(ns);
            sum += ns;
        }
        if whole {
            let (y, ns) = tr.time(&whole_name, |_| net.forward(x, training));
            black_box(y?);
            ratios.push(sum / ns);
        }
    }
    let per_layer = labels
        .into_iter()
        .zip(samples.iter().map(|s| median(s)))
        .collect();
    Ok(Walk {
        per_layer,
        layer_sum_ratio: median(&ratios),
        output: h,
    })
}

/// Times each layer's backward pass in reverse order, one span per call;
/// the network must hold the caches of a forward pass. Returns per-layer
/// ns in layer order.
fn backward_walk(tr: &mut Tracer, prefix: &str, net: &mut Network, grad: &Tensor) -> Res<Vec<f64>> {
    let names: Vec<String> = net
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| format!("{prefix}.{}{}", l.kind(), i))
        .collect();
    let mut ns_per_layer = vec![0.0; names.len()];
    let mut g = grad.clone();
    for (i, layer) in net.layers_mut().iter_mut().enumerate().rev() {
        let (r, ns) = tr.time(&names[i], |_| layer.backward(&g));
        g = black_box(r?);
        ns_per_layer[i] = ns;
    }
    Ok(ns_per_layer)
}

/// The step a forward/backward walk reproduces.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Fine-tune: training-mode forward, batch-mean loss.
    FineTune,
    /// Scoring: eval-mode forward, summed loss (per-sample gradients).
    Scoring,
}

/// Forward and backward per layer, `reps` times. Returns per-layer
/// (`label`, median fwd ns, median bwd ns).
fn fwd_bwd_walk(
    tr: &mut Tracer,
    prefix: &str,
    net: &mut Network,
    x: &Tensor,
    labels: &[usize],
    step: Step,
    reps: usize,
) -> Res<Vec<(String, f64, f64)>> {
    let (training, reduction) = match step {
        Step::FineTune => (true, Reduction::Mean),
        Step::Scoring => (false, Reduction::Sum),
    };
    let loss = CrossEntropyLoss::new(reduction);
    let mut fwd = Vec::new();
    let mut bwd = vec![Vec::with_capacity(reps); net.layers().len()];
    for _ in 0..reps {
        let walk = forward_walk(tr, &format!("{prefix}.fwd"), net, x, training, 1, false)?;
        let out = loss.forward(&walk.output, labels)?;
        net.zero_grad();
        let ns = backward_walk(tr, &format!("{prefix}.bwd"), net, &out.grad)?;
        for (b, v) in bwd.iter_mut().zip(ns) {
            b.push(v);
        }
        fwd.push(walk.per_layer);
    }
    let layers = fwd[0].len();
    Ok((0..layers)
        .map(|i| {
            let f: Vec<f64> = fwd.iter().map(|rep| rep[i].1).collect();
            (fwd[0][i].0.clone(), median(&f), median(&bwd[i]))
        })
        .collect())
}

fn kind_of(label: &str) -> &str {
    label.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Median ns of `reps` calls of `f`, one span each.
fn median_ns(tr: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (r, t) = tr.time(name, |_| f());
        r?;
        ns.push(t);
    }
    Ok(median(&ns))
}

/// Inference-side rows: per-conv GEMM throughput and per-layer forward
/// time of the dense and pruned VGG16.
fn inference_rows(
    l: &mut Ledger,
    b: &mut InferBench,
    dims: (usize, usize, usize),
    scale: &Scale,
) -> Res<()> {
    let x = b.batches[0].clone();
    for (side, net) in [("dense", &mut b.dense), ("pruned", &mut b.pruned)] {
        for (label, m, k, n) in conv_gemm_shapes(net, dims)? {
            let index: usize = label["conv".len()..].parse()?;
            let weight = net.layers()[index]
                .as_conv()
                .ok_or("conv label names a non-conv layer")?
                .weight();
            let a = Tensor::from_vec(vec![m, k], weight.data().to_vec())?;
            let bmat = Tensor::from_vec(
                vec![k, n],
                (0..k * n)
                    .map(|i| ((i % 17) as f32 - 8.0) * 0.125)
                    .collect(),
            )?;
            let ns = median_ns(
                &mut l.tracer,
                &format!("tensor.matmul.{side}.{label}"),
                scale.ledger_reps,
                || {
                    black_box(cap_tensor::matmul(&a, &bmat)?);
                    Ok(())
                },
            )?;
            l.push(
                format!("tensor.matmul.{side}.{label}.gflops"),
                2.0 * (m * k * n) as f64 / ns,
                "GFLOP/s",
            );
        }
        let Walk {
            per_layer,
            layer_sum_ratio: ratio,
            ..
        } = forward_walk(
            &mut l.tracer,
            &format!("nn.fwd.{side}"),
            net,
            &x,
            false,
            scale.ledger_reps,
            true,
        )?;
        let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
        for (label, ns) in &per_layer {
            if kind_of(label) == "conv" {
                l.push(format!("nn.fwd.{side}.{label}.ns"), *ns, "ns");
            }
            *by_kind.entry(kind_of(label)).or_default() += ns;
        }
        for kind in ["batchnorm", "relu", "maxpool", "linear"] {
            l.push(
                format!("nn.fwd.{side}.{kind}.ns"),
                by_kind.get(kind).copied().unwrap_or(0.0),
                "ns",
            );
        }
        l.attempted += 1;
        if (ratio - 1.0).abs() > LAYER_SUM_BOUND {
            eprintln!("capbench: failed check: nn.fwd.{side}.layer_sum_ratio {ratio:.4} outside 1 ± {LAYER_SUM_BOUND}");
            l.failed += 1;
        }
        l.push(format!("nn.fwd.{side}.layer_sum_ratio"), ratio, "ratio");
    }
    Ok(())
}

/// Training-side rows: per-layer fine-tune forward/backward at the
/// fine-tune batch size, the phase split of the prune run, and the
/// checkpoint cost.
fn training_rows(l: &mut Ledger, b: &PruneBench, scale: &Scale, tmp: &Path) -> Res<()> {
    let train = b.data.train();
    let idx: Vec<usize> = (0..scale.batch.min(train.len())).collect();
    let x = gather_batch(train.images(), &idx)?;
    let labels: Vec<usize> = idx.iter().map(|&i| train.labels()[i]).collect();
    let mut net = b.dense.clone();
    let rows = fwd_bwd_walk(
        &mut l.tracer,
        "nn.train",
        &mut net,
        &x,
        &labels,
        Step::FineTune,
        scale.ledger_reps,
    )?;
    let (mut bn_fwd, mut bn_bwd) = (0.0, 0.0);
    for (label, f, bw) in &rows {
        match kind_of(label) {
            "conv" => {
                l.push(format!("nn.train.{label}.fwd_ns"), *f, "ns");
                l.push(format!("nn.train.{label}.bwd_ns"), *bw, "ns");
            }
            "batchnorm" => {
                bn_fwd += f;
                bn_bwd += bw;
            }
            _ => {}
        }
    }
    l.push("nn.train.batchnorm.fwd_ns".into(), bn_fwd, "ns");
    l.push("nn.train.batchnorm.bwd_ns".into(), bn_bwd, "ns");

    // Phase split of the traced prune run (IterationRecord sums).
    let (prune_s, outcome) = b.last.as_ref().ok_or("prune round left no outcome")?;
    let sum =
        |f: fn(&cap_core::IterationRecord) -> f64| outcome.iterations.iter().map(f).sum::<f64>();
    let phases = [
        ("score", sum(|r| r.secs_score)),
        ("surgery", sum(|r| r.secs_surgery)),
        ("finetune", sum(|r| r.secs_finetune)),
        ("eval", sum(|r| r.secs_eval)),
    ];
    let other = prune_s - phases.iter().map(|(_, s)| s).sum::<f64>();
    for (phase, secs) in phases {
        l.push(format!("core.{phase}_s"), secs, "s");
    }
    l.push("core.other_s".into(), other, "s");

    let dir = RunDir::create(tmp.join("ledger-rundir"))?;
    let mut gen = 0u64;
    let ms = median_ns(
        &mut l.tracer,
        "nn.rundir.save_generation",
        scale.ledger_reps,
        || {
            dir.save_generation(gen, &b.dense)?;
            gen += 1;
            Ok(())
        },
    )? * 1e-6;
    let bytes = std::fs::metadata(dir.checkpoint_path(gen - 1))?.len();
    l.push("nn.rundir.save_generation_ms".into(), ms, "ms");
    l.push("nn.checkpoint.bytes".into(), bytes as f64, "bytes");
    std::fs::remove_dir_all(dir.root())?;
    Ok(())
}

/// Scoring-side rows: per-kind forward/backward of the scoring step, and
/// the split of one scoring pass into forward/backward and the Eq. 5–7
/// reduction (pass time minus a replay of its forward/backward calls).
fn scoring_rows(l: &mut Ledger, b: &mut ScoreBench, scale: &Scale) -> Res<()> {
    let train = b.data.train();
    let m = b.cfg.images_per_class;
    let mut rng = rand::rngs::StdRng::seed_from_u64(b.cfg.seed);
    let x = train.sample_class_batch(0, m, &mut rng)?;
    let labels = vec![0; x.dim(0)];
    let mut net = b.dense.clone();
    net.set_record_activations(true);
    let rows = fwd_bwd_walk(
        &mut l.tracer,
        "nn.score",
        &mut net,
        &x,
        &labels,
        Step::Scoring,
        scale.ledger_reps,
    )?;
    for kind in ["residual", "conv", "linear"] {
        let (f, bw) = rows
            .iter()
            .filter(|(label, _, _)| kind_of(label) == kind)
            .fold((0.0, 0.0), |(f, bw), (_, x, y)| (f + x, bw + y));
        l.push(format!("nn.score.{kind}.fwd_ns"), f, "ns");
        l.push(format!("nn.score.{kind}.bwd_ns"), bw, "ns");
    }

    // Pass and replay alternate, so drift hits both alike; each pair gives
    // one difference of CPU times, which leave out hypervisor steal.
    let loss = CrossEntropyLoss::new(Reduction::Sum);
    let (mut replay_ms, mut reduce_ms) = (Vec::new(), Vec::new());
    for _ in 0..REDUCE_PAIRS {
        let (pass, _) = l.tracer.time("core.score.pass", |_| {
            measure(|| evaluate_scores_with_attribution(&mut b.dense, &b.sites, train, &b.cfg))
        });
        let (pass, pass_cost) = pass?;
        pass?;
        b.dense.set_record_activations(true);
        let (replay, _) = l.tracer.time("core.score.fwd_bwd", |_| {
            measure(|| -> Res<()> {
                let mut rng = rand::rngs::StdRng::seed_from_u64(b.cfg.seed);
                for class in 0..train.classes() {
                    let batch = train.sample_class_batch(class, m, &mut rng)?;
                    let logits = b.dense.forward(&batch, false)?;
                    let out = loss.forward(&logits, &vec![class; batch.dim(0)])?;
                    b.dense.zero_grad();
                    black_box(b.dense.backward(&out.grad)?);
                }
                Ok(())
            })
        });
        b.dense.set_record_activations(false);
        b.dense.zero_grad();
        let (replay, replay_cost) = replay?;
        replay?;
        replay_ms.push(replay_cost.cpu_ms);
        reduce_ms.push(pass_cost.cpu_ms - replay_cost.cpu_ms);
    }
    // The reduction is about 1% of a pass, near the run-to-run noise of
    // one pass: the printed spread of the differences says whether the
    // median resolves it.
    if let Some([q1, q2, q3]) = crate::stats::quartiles(&reduce_ms) {
        println!("# core.score.reduce_s pairs: quartiles {q1:.1}/{q2:.1}/{q3:.1} ms");
    }
    l.push(
        "core.score.fwd_bwd_s".into(),
        median(&replay_ms) * 1e-3,
        "s",
    );
    l.push("core.score.reduce_s".into(), median(&reduce_ms) * 1e-3, "s");

    let reps = scale.ledger_reps * 20;
    let mut class = 0;
    let us = median_ns(&mut l.tracer, "data.sample_class_batch", reps, || {
        black_box(train.sample_class_batch(class % train.classes(), m, &mut rng)?);
        class += 1;
        Ok(())
    })? * 1e-3;
    l.push("data.sample_class_batch_us".into(), us, "us");
    let idx: Vec<usize> = (0..scale.batch.min(train.len()))
        .map(|i| i * 7 % train.len())
        .collect();
    let us = median_ns(&mut l.tracer, "data.gather_batch", reps, || {
        black_box(gather_batch(train.images(), &idx)?);
        Ok(())
    })? * 1e-3;
    l.push("data.gather_batch_us".into(), us, "us");
    Ok(())
}

/// Runs the whole ledger from `seed`. `tmp` is an empty scratch
/// directory. `cap-obs` stays on, with an in-memory capture sink,
/// except for the untraced half of each overhead pair.
pub fn run(seed: u64, scale: &Scale, tmp: &Path) -> Res<Ledger> {
    let mut l = Ledger::default();
    let mut benches = Vec::new();
    for w in Workload::ALL {
        let (bench, _) = l.tracer.time(&format!("setup.{}", w.tag()), |_| {
            Bench::setup(w, seed, scale, tmp)
        });
        let bench = bench?;
        print_gemm_plans(&bench)?;
        benches.push((w, bench));
    }
    let sink = CaptureSink::new();
    let captured = sink.handle();
    cap_obs::set_sink(Box::new(sink));
    let result = (|| -> Res<()> {
        for (w, bench) in &mut benches {
            let n = if *w == Workload::Infer {
                scale.overhead_pairs
            } else {
                1
            };
            traced_pair(&mut l, *w, bench, n)?;
        }
        cap_obs::enable();
        for (_, bench) in &mut benches {
            let dims = bench.input_dims();
            match bench {
                Bench::Prune(b) => training_rows(&mut l, b, scale, tmp)?,
                Bench::Score(b) => scoring_rows(&mut l, b, scale)?,
                Bench::Infer(b) => inference_rows(&mut l, b, dims, scale)?,
            }
        }
        Ok(())
    })();
    cap_obs::disable();
    cap_obs::clear_sink();
    l.captured = captured.lines();
    result?;
    Ok(l)
}
