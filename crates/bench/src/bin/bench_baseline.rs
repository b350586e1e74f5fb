//! The kernel and observability gates, writing `BENCH_kernels.json` and
//! `BENCH_obs.json`. Timing the workloads end to end is capbench's job
//! (see `BENCHMARK.json`); this binary checks the two things it does not.
//!
//! Usage:
//!
//! ```text
//! bench_baseline [--smoke] [--out PATH] [--obs-out PATH]
//! ```
//!
//! `--smoke` shrinks the observability workloads for CI (the kernel
//! section runs the same schedule either way); `--out` overrides the
//! kernel JSON path (default `BENCH_kernels.json` in the current
//! directory) and `--obs-out` the observability one (default
//! `BENCH_obs.json`).
//!
//! The kernel section A/B-times the GEMM paths in one process, serial
//! and interleaved, and exits 1 if AVX2 runs under 2.5x the scalar
//! blocked kernel at 1024³ or any kernel falls behind the naive loop
//! (see [`kernel_regressions`]).
//!
//! The observability section then measures span/counter overhead with
//! telemetry disabled and enabled, plus `/metrics` scrape latency while
//! a smoke training loop runs. Its `profiler` object prices the
//! disabled span path per smoke epoch; the profile in every run
//! directory is folded from enabled spans, so that path is all it costs
//! when telemetry is off. Kernel timings always run first, before any
//! telemetry is switched on.

use cap_data::{DatasetSpec, SyntheticDataset};
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use cap_nn::{Network, TrainConfig};
use cap_obs::json::{write_f64, write_str};
use cap_tensor::{matmul, SimdMode, Tensor};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Heap allocations observed by [`CountingAlloc`] since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator so the obs section can
/// assert the telemetry-disabled span fast path allocates nothing.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller guarantees per `GlobalAlloc::alloc` are passed to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `System` allocation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller guarantees per `GlobalAlloc::realloc` are passed to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Options {
    smoke: bool,
    out: String,
    obs_out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_kernels.json".to_string(),
        obs_out: "BENCH_obs.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
            }
            "--obs-out" => {
                opts.obs_out = args.next().unwrap_or_else(|| {
                    eprintln!("--obs-out expects a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: bench_baseline [--smoke] [--out PATH] [--obs-out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Times `f`: one warmup call, then repeats until the budget elapses or
/// `max_iters` is hit, returning mean ns/iter.
fn measure<F: FnMut()>(mut f: F, budget: Duration, max_iters: usize) -> f64 {
    f();
    let start = cap_obs::clock::now();
    let mut iters = 0usize;
    loop {
        f();
        iters += 1;
        if iters >= max_iters || start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One timed call, in ns. The kernel gates combine these as the
/// *minimum* across interleaved rounds: background load only ever
/// inflates a sample, so the smallest one is the closest to the true
/// cost, while a mean of 1-2 samples can be 3x off and flake the
/// gates on a shared host.
fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t0 = cap_obs::clock::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// The plain serial i-k-j matmul loop: the floor gate 2 holds every
/// kernel to.
fn matmul_naive_ref(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(vec![m, n], out).expect("sized to shape")
}

/// A small conv net and a smoke-size synthetic dataset: the training
/// load the obs section times an epoch of and scrapes `/metrics` under.
fn smoke_training_setup() -> (Network, SyntheticDataset) {
    let mut r = rand::rngs::StdRng::seed_from_u64(0);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 16, 3, 1, 1, false, &mut r).expect("conv"));
    net.push(BatchNorm2d::new(16).expect("bn"));
    net.push(Relu::new());
    net.push(Conv2d::new(16, 16, 3, 1, 1, false, &mut r).expect("conv"));
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(16, 10, &mut r).expect("linear"));
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(4, 2),
    )
    .expect("synthetic data");
    (net, data)
}

/// One training epoch (batch 4) of the smoke set-up.
fn smoke_epoch(net: &mut Network, data: &SyntheticDataset) {
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 4,
        ..TrainConfig::default()
    };
    cap_nn::fit(net, data.train().images(), data.train().labels(), &cfg).expect("smoke epoch");
}

/// One per-kernel measurement from the SIMD A/B section.
struct KernelRecord {
    /// Pinned `CAP_SIMD` mode for this row (`none` for the naive
    /// reference loop, which has no kernel selection).
    mode: &'static str,
    op: &'static str,
    shape: String,
    /// The selector's verdict for this shape under this mode.
    selector: String,
    ns_per_iter: f64,
    gflops: f64,
}

/// A/B-times the GEMM kernel paths in one process via
/// `set_simd_mode`: scalar-blocked vs AVX2 (when available) at the
/// conv-typical 192³ and the cache-spilling 1024³, against the naive
/// triple loop. Serial (`threads = 1`): this isolates the kernels.
fn run_kernel_benches() -> Vec<KernelRecord> {
    cap_par::set_threads(1);
    // The perf gates compare these numbers, so sampling must be robust
    // to a noisy shared host. Two defences (see `time_once` for why
    // a mean of 1-2 samples flakes): every variant is timed once per
    // *round*, interleaved, so a background-load window inflates all
    // variants rather than whichever one happened to be running; and
    // each variant keeps the min across rounds, which any quiet window
    // anywhere in the schedule pins to the true cost. `--smoke` keeps
    // all ten rounds: with four, one noisy stretch could hold every
    // scalar sample and flake gate 2.
    let rounds = 10;
    let initial = cap_tensor::simd_mode();
    let mut recs = Vec::new();
    for &d in &[192usize, 1024] {
        let a = Tensor::from_fn(&[d, d], |i| (i as f32 * 0.013).sin());
        let b = Tensor::from_fn(&[d, d], |i| (i as f32 * 0.007).cos());
        let shape = format!("{d}x{d}x{d}");
        let flops = 2.0 * (d as f64).powi(3);
        let mut modes = vec![SimdMode::Scalar];
        if cap_tensor::avx2_available() {
            modes.push(SimdMode::Avx2);
        }
        // Warmup: touches the operands and the packing buffers so
        // round 0 measures steady state like every other round.
        black_box(matmul_naive_ref(black_box(&a), black_box(&b)));
        for &mode in &modes {
            cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
            black_box(matmul(black_box(&a), black_box(&b)).expect("matmul"));
        }
        let mut best_naive = f64::INFINITY;
        let mut best = vec![f64::INFINITY; modes.len()];
        for _ in 0..rounds {
            best_naive = best_naive.min(time_once(|| {
                black_box(matmul_naive_ref(black_box(&a), black_box(&b)));
            }));
            for (mode_idx, &mode) in modes.iter().enumerate() {
                cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
                best[mode_idx] = best[mode_idx].min(time_once(|| {
                    black_box(matmul(black_box(&a), black_box(&b)).expect("matmul"));
                }));
            }
        }
        recs.push(KernelRecord {
            mode: "none",
            op: "matmul_naive_ref",
            shape: shape.clone(),
            selector: "naive(i-p-j triple loop)".to_string(),
            ns_per_iter: best_naive,
            gflops: flops / best_naive,
        });
        for (mode_idx, &mode) in modes.iter().enumerate() {
            cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
            let ns = best[mode_idx];
            recs.push(KernelRecord {
                mode: mode.name(),
                op: "matmul",
                shape: shape.clone(),
                selector: cap_tensor::gemm_plan_summary(d, d, d),
                ns_per_iter: ns,
                gflops: flops / ns,
            });
        }
    }
    cap_tensor::set_simd_mode(initial).expect("restoring the initial mode");
    recs
}

fn kernel_ns(recs: &[KernelRecord], mode: &str, op: &str, shape: &str) -> Option<f64> {
    recs.iter()
        .find(|r| r.mode == mode && r.op == op && r.shape == shape)
        .map(|r| r.ns_per_iter)
}

/// Perf regression gates on the kernel section. Returns every failed
/// bound (empty = pass).
fn kernel_regressions(recs: &[KernelRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    // Gate 1: AVX2 must beat the scalar blocked kernel by >= 2.5x at
    // 1024^3 whenever both were measured.
    if let (Some(scalar), Some(avx2)) = (
        kernel_ns(recs, "scalar", "matmul", "1024x1024x1024"),
        kernel_ns(recs, "avx2", "matmul", "1024x1024x1024"),
    ) {
        let speedup = scalar / avx2;
        if speedup < 2.5 {
            failures.push(format!(
                "avx2 matmul at 1024^3 is only {speedup:.2}x scalar-blocked (need >= 2.5x)"
            ));
        }
    }
    // Gate 2: no measured shape may fall behind the naive loop. The
    // scalar direct path *is* the naive loop plus dispatch, so it gets
    // a noise margin; AVX2 must win outright.
    for r in recs.iter().filter(|r| r.op == "matmul") {
        let Some(naive) = kernel_ns(recs, "none", "matmul_naive_ref", &r.shape) else {
            continue;
        };
        let speedup = naive / r.ns_per_iter;
        let floor = if r.mode == "avx2" { 1.0 } else { 0.85 };
        if speedup < floor {
            failures.push(format!(
                "{} matmul at {} is {speedup:.2}x naive (floor {floor})",
                r.mode, r.shape
            ));
        }
    }
    failures
}

fn write_json(opts: &Options, kernels: &[KernelRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"machine\": {\"arch\": ");
    write_str(&mut out, std::env::consts::ARCH);
    out.push_str(", \"os\": ");
    write_str(&mut out, std::env::consts::OS);
    out.push_str(", \"available_parallelism\": ");
    let avail = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    out.push_str(&avail.to_string());
    out.push_str("},\n  \"smoke\": ");
    out.push_str(if opts.smoke { "true" } else { "false" });
    out.push_str(",\n  \"kernels\": {\n    \"simd_available\": ");
    out.push_str(if cap_tensor::avx2_available() {
        "\"avx2\""
    } else {
        "null"
    });
    out.push_str(",\n    \"results\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        out.push_str("      {\"mode\": ");
        write_str(&mut out, r.mode);
        out.push_str(", \"op\": ");
        write_str(&mut out, r.op);
        out.push_str(", \"shape\": ");
        write_str(&mut out, &r.shape);
        out.push_str(", \"selector\": ");
        write_str(&mut out, &r.selector);
        out.push_str(", \"ns_per_iter\": ");
        write_f64(&mut out, r.ns_per_iter);
        out.push_str(", \"gflops\": ");
        write_f64(&mut out, r.gflops);
        out.push('}');
        if i + 1 < kernels.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// One observability-overhead measurement.
struct ObsRecord {
    op: &'static str,
    mode: &'static str,
    ns_per_iter: f64,
}

/// Everything the observability benches produce for `BENCH_obs.json`.
struct ObsSummary {
    records: Vec<ObsRecord>,
    scrape_mean_ns: f64,
    scrape_max_ns: f64,
    scrape_bytes: usize,
    /// Server self-observation after the scrape loop.
    requests_metrics: f64,
    handle_us_count: f64,
    handle_us_mean: f64,
    /// History-recorder cost model: one full registry sample
    /// (snapshot + buffered tsdb append) vs one smoke training epoch.
    sample_ns: f64,
    epoch_ns: f64,
    overhead_fraction: f64,
    /// Heap allocations across 10k disabled-span iterations (min over
    /// rounds, so a concurrent allocation elsewhere cannot flake it).
    disabled_span_allocs: u64,
    /// Spans recorded during the smoke epoch (from the registry's
    /// `span.*.count` histogram deltas).
    spans_per_epoch: f64,
    /// The measured disabled-span cost net of the bench harness's own
    /// dispatch floor, the per-span price in the telemetry-off
    /// overhead model.
    disabled_span_ns: f64,
    /// Telemetry-off overhead bound: every span of the epoch charged
    /// the full disabled-path cost, as a fraction of the epoch.
    off_overhead_fraction: f64,
}

impl ObsSummary {
    /// Whether the recorder's steady-state cost stays under 1% of a
    /// smoke epoch at the default cadence (the acceptance bound).
    fn overhead_lt_1pct(&self) -> bool {
        self.overhead_fraction < 0.01
    }

    /// Whether the telemetry-off span overhead stays under 0.5% of a
    /// smoke epoch.
    fn off_overhead_lt_half_pct(&self) -> bool {
        self.off_overhead_fraction < 0.005
    }
}

/// Times the telemetry layer itself: the disabled fast path the hot
/// loops always pay and the enabled path; the series-store append
/// (buffered and fsync'd) plus the recorder-vs-epoch overhead model;
/// then `/metrics` scrape latency while a smoke training loop runs.
/// Toggles global obs state, so it must run after every kernel
/// measurement.
fn run_obs_benches(opts: &Options) -> ObsSummary {
    let budget = Duration::from_millis(if opts.smoke { 30 } else { 200 });
    let max_iters = 2_000_000;
    let mut records = Vec::new();
    let mut bench = |op: &'static str, mode: &'static str, f: &mut dyn FnMut()| {
        records.push(ObsRecord {
            op,
            mode,
            ns_per_iter: measure(f, budget, max_iters),
        });
    };

    // Empty closure first: the dispatch + loop floor of this harness,
    // to subtract from everything below.
    bench("empty", "harness_floor", &mut || {
        black_box(0u64);
    });

    cap_obs::disable();
    bench("span", "disabled", &mut || {
        let _s = cap_obs::span!("bench.obs.span");
        black_box(&_s);
    });
    bench("counter_add", "disabled", &mut || {
        cap_obs::counter_add("bench.obs.counter", 1);
    });

    // Zero-allocation check on the disabled span path: the fast path
    // every hot loop pays must never touch the heap. Min over rounds
    // so an unrelated allocation on another thread cannot flake it.
    let mut disabled_span_allocs = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            let _s = cap_obs::span!("bench.obs.span");
            black_box(&_s);
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        disabled_span_allocs = disabled_span_allocs.min(delta);
    }

    cap_obs::enable();
    bench("span", "enabled", &mut || {
        let _s = cap_obs::span!("bench.obs.span");
        black_box(&_s);
    });
    bench("counter_add", "enabled", &mut || {
        cap_obs::counter_add("bench.obs.counter", 1);
    });

    // Series-store appends: the cost of one recorder sample, with and
    // without the fsync that boundary samples pay. Uses the live
    // registry snapshot, so the point count matches a real recording.
    let tsdb_dir = std::env::temp_dir().join(format!("cap_bench_tsdb_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tsdb_dir);
    std::fs::create_dir_all(&tsdb_dir).expect("create tsdb bench dir");
    let mut writer =
        cap_obs::tsdb::SeriesWriter::open(&tsdb_dir.join("series.capts")).expect("open series");
    let mut tick = 0.0f64;
    bench("tsdb_sample", "buffered", &mut || {
        tick += 1.0;
        writer
            .append(tick, cap_obs::tsdb::snapshot_points(), false)
            .expect("buffered append");
    });
    bench("tsdb_sample", "fsync", &mut || {
        tick += 1.0;
        writer
            .append(tick, cap_obs::tsdb::snapshot_points(), true)
            .expect("durable append");
    });
    drop(writer);
    let _ = std::fs::remove_dir_all(&tsdb_dir);
    let sample_ns = records
        .iter()
        .find(|r| r.op == "tsdb_sample" && r.mode == "buffered")
        .map_or(0.0, |r| r.ns_per_iter);

    // Recorder overhead model: cadence samples per second × cost per
    // sample, relative to one smoke training epoch. The same epoch's
    // registry `span.*.count` deltas give spans-per-epoch for the
    // telemetry-off overhead bound.
    let span_count_total = || -> f64 {
        cap_obs::tsdb::snapshot_points()
            .iter()
            .filter(|(n, _)| n.starts_with("span.") && n.ends_with(".count"))
            .map(|(_, v)| *v)
            .sum()
    };
    let spans_before = span_count_total();
    let epoch_ns = {
        let (mut net, data) = smoke_training_setup();
        let t = cap_obs::clock::now();
        smoke_epoch(&mut net, &data);
        t.elapsed().as_nanos() as f64
    };
    let spans_per_epoch = (span_count_total() - spans_before).max(0.0);
    let samples_per_sec = 1000.0 / cap_obs::recorder::DEFAULT_INTERVAL_MS as f64;
    let overhead_fraction = samples_per_sec * sample_ns / 1e9;
    // Net span cost: the raw bench figure includes the harness's own
    // dispatch + loop floor (measured by the "empty" record, 30-60 ns
    // on this host and noisy), which a real epoch never pays per span.
    let raw_of = |op: &str, mode: &str| {
        records
            .iter()
            .find(|r| r.op == op && r.mode == mode)
            .map_or(0.0, |r| r.ns_per_iter)
    };
    let disabled_span_ns = (raw_of("span", "disabled") - raw_of("empty", "harness_floor")).max(0.0);
    let off_overhead_fraction = if epoch_ns > 0.0 {
        spans_per_epoch * disabled_span_ns / epoch_ns
    } else {
        0.0
    };

    // Scrape latency under load: serve on an ephemeral port while a
    // smoke-size training loop keeps the process busy, then time
    // repeated GET /metrics round-trips.
    let addr = cap_obs::serve::start_global("127.0.0.1:0").expect("bind metrics server");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let trainer = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut net, data) = smoke_training_setup();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                smoke_epoch(&mut net, &data);
            }
        })
    };
    let scrapes = if opts.smoke { 10 } else { 50 };
    let mut total_ns = 0.0f64;
    let mut max_ns = 0.0f64;
    let mut body_len = 0usize;
    for _ in 0..scrapes {
        let t = cap_obs::clock::now();
        let body = cap_obs::serve::http_get(addr, "/metrics").expect("scrape /metrics");
        let ns = t.elapsed().as_nanos() as f64;
        total_ns += ns;
        max_ns = max_ns.max(ns);
        body_len = body.len();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    trainer.join().expect("trainer thread");
    // Server self-observation: the per-route counters and handling
    // histogram the scrape loop just exercised.
    let self_points = cap_obs::tsdb::snapshot_points();
    let point = |name: &str| {
        self_points
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let requests_metrics = point("obs.http.requests.metrics");
    let handle_us_count = point("obs.http.handle_us.count");
    let handle_us_mean = point("obs.http.handle_us.mean");
    cap_obs::serve::stop_global();
    cap_obs::disable();
    ObsSummary {
        records,
        scrape_mean_ns: total_ns / scrapes as f64,
        scrape_max_ns: max_ns,
        scrape_bytes: body_len,
        requests_metrics,
        handle_us_count,
        handle_us_mean,
        sample_ns,
        epoch_ns,
        overhead_fraction,
        disabled_span_allocs,
        spans_per_epoch,
        disabled_span_ns,
        off_overhead_fraction,
    }
}

fn write_obs_json(opts: &Options, s: &ObsSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"smoke\": ");
    out.push_str(if opts.smoke { "true" } else { "false" });
    out.push_str(",\n  \"overhead\": [\n");
    for (i, r) in s.records.iter().enumerate() {
        out.push_str("    {\"op\": ");
        write_str(&mut out, r.op);
        out.push_str(", \"mode\": ");
        write_str(&mut out, r.mode);
        out.push_str(", \"ns_per_iter\": ");
        write_f64(&mut out, r.ns_per_iter);
        out.push('}');
        if i + 1 < s.records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"metrics_scrape\": {\"mean_ns\": ");
    write_f64(&mut out, s.scrape_mean_ns);
    out.push_str(", \"max_ns\": ");
    write_f64(&mut out, s.scrape_max_ns);
    out.push_str(", \"body_bytes\": ");
    out.push_str(&s.scrape_bytes.to_string());
    out.push_str("},\n  \"recorder\": {\"sample_ns\": ");
    write_f64(&mut out, s.sample_ns);
    out.push_str(", \"interval_ms\": ");
    out.push_str(&cap_obs::recorder::DEFAULT_INTERVAL_MS.to_string());
    out.push_str(", \"epoch_ns\": ");
    write_f64(&mut out, s.epoch_ns);
    out.push_str(", \"overhead_fraction\": ");
    write_f64(&mut out, s.overhead_fraction);
    out.push_str(", \"overhead_lt_1pct\": ");
    out.push_str(if s.overhead_lt_1pct() {
        "true"
    } else {
        "false"
    });
    out.push_str("},\n  \"profiler\": {\"disabled_span_allocs\": ");
    out.push_str(&s.disabled_span_allocs.to_string());
    out.push_str(", \"spans_per_epoch\": ");
    write_f64(&mut out, s.spans_per_epoch);
    out.push_str(", \"disabled_span_ns\": ");
    write_f64(&mut out, s.disabled_span_ns);
    out.push_str(", \"off_overhead_fraction\": ");
    write_f64(&mut out, s.off_overhead_fraction);
    out.push_str(", \"off_overhead_lt_half_pct\": ");
    out.push_str(if s.off_overhead_lt_half_pct() {
        "true"
    } else {
        "false"
    });
    out.push_str("},\n  \"server\": {\"requests_metrics\": ");
    write_f64(&mut out, s.requests_metrics);
    out.push_str(", \"handle_us_count\": ");
    write_f64(&mut out, s.handle_us_count);
    out.push_str(", \"handle_us_mean\": ");
    write_f64(&mut out, s.handle_us_mean);
    out.push_str("}\n}\n");
    out
}

fn main() {
    cap_bench::init_trace_quiet();
    let opts = parse_args();
    let kernels = run_kernel_benches();
    let json = write_json(&opts, &kernels);
    cap_obs::fsx::atomic_write(std::path::Path::new(&opts.out), json.as_bytes()).unwrap_or_else(
        |e| {
            eprintln!("failed to write {}: {e}", opts.out);
            std::process::exit(1);
        },
    );
    for r in &kernels {
        println!(
            "kernel {:<7} {:<18} {:<16} {:>12.0} ns/iter {:>7.2} GFLOP/s  {}",
            r.mode, r.op, r.shape, r.ns_per_iter, r.gflops, r.selector
        );
    }
    println!("wrote {}", opts.out);
    let failures = kernel_regressions(&kernels);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("kernel regression: {f}");
        }
        std::process::exit(1);
    }

    let obs = run_obs_benches(&opts);
    let obs_json = write_obs_json(&opts, &obs);
    cap_obs::fsx::atomic_write(std::path::Path::new(&opts.obs_out), obs_json.as_bytes())
        .unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", opts.obs_out);
            std::process::exit(1);
        });
    for r in &obs.records {
        println!(
            "obs {:<14} {:<16} {:>10.1} ns/iter",
            r.op, r.mode, r.ns_per_iter
        );
    }
    println!(
        "obs metrics_scrape mean {:.1} µs, max {:.1} µs, {} bytes",
        obs.scrape_mean_ns / 1e3,
        obs.scrape_max_ns / 1e3,
        obs.scrape_bytes
    );
    println!(
        "obs recorder sample {:.1} µs vs epoch {:.1} ms: overhead {:.4}% ({})",
        obs.sample_ns / 1e3,
        obs.epoch_ns / 1e6,
        obs.overhead_fraction * 100.0,
        if obs.overhead_lt_1pct() {
            "< 1%"
        } else {
            ">= 1%"
        }
    );
    println!(
        "obs telemetry-off bound: {} spans/epoch x {:.1} ns net = {:.5}% of epoch ({}), \
         disabled-span allocs {}",
        obs.spans_per_epoch as u64,
        obs.disabled_span_ns,
        obs.off_overhead_fraction * 100.0,
        if obs.off_overhead_lt_half_pct() {
            "< 0.5%"
        } else {
            ">= 0.5%"
        },
        obs.disabled_span_allocs
    );
    println!("wrote {}", opts.obs_out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic gate row: only `mode`, `op`, `shape` and the time
    /// reach `kernel_regressions`.
    fn row(mode: &'static str, shape: &str, ns_per_iter: f64) -> KernelRecord {
        KernelRecord {
            mode,
            op: if mode == "none" {
                "matmul_naive_ref"
            } else {
                "matmul"
            },
            shape: shape.to_string(),
            selector: "synthetic".to_string(),
            ns_per_iter,
            gflops: 0.0,
        }
    }

    const SMALL: &str = "192x192x192";
    const LARGE: &str = "1024x1024x1024";

    /// Naive 100 / 1000 ns; scalar 2x naive; AVX2 5x scalar at 1024³.
    fn healthy() -> Vec<KernelRecord> {
        vec![
            row("none", SMALL, 100.0),
            row("scalar", SMALL, 50.0),
            row("avx2", SMALL, 10.0),
            row("none", LARGE, 1000.0),
            row("scalar", LARGE, 500.0),
            row("avx2", LARGE, 100.0),
        ]
    }

    /// `recs` with the `mode` row at `shape` timed at `ns` instead.
    fn with_ns(mut recs: Vec<KernelRecord>, mode: &str, shape: &str, ns: f64) -> Vec<KernelRecord> {
        let r = recs
            .iter_mut()
            .find(|r| r.mode == mode && r.shape == shape)
            .expect("row present");
        r.ns_per_iter = ns;
        recs
    }

    /// The one failure `kernel_regressions` reports for `recs`.
    fn only_failure(recs: &[KernelRecord]) -> String {
        let failures = kernel_regressions(recs);
        assert_eq!(failures.len(), 1, "{failures:?}");
        failures[0].clone()
    }

    #[test]
    fn healthy_set_passes() {
        assert!(kernel_regressions(&healthy()).is_empty());
    }

    #[test]
    fn avx2_no_faster_than_scalar_at_1024_fails_gate_1() {
        let f = only_failure(&with_ns(healthy(), "avx2", LARGE, 500.0));
        assert!(f.contains("scalar-blocked"), "{f}");
    }

    #[test]
    fn avx2_just_behind_naive_fails_gate_2() {
        let f = only_failure(&with_ns(healthy(), "avx2", SMALL, 100.0 / 0.99));
        assert!(f.starts_with("avx2 matmul at 192x192x192"), "{f}");
    }

    #[test]
    fn scalar_below_its_noise_floor_fails_gate_2() {
        let f = only_failure(&with_ns(healthy(), "scalar", SMALL, 100.0 / 0.80));
        assert!(f.starts_with("scalar matmul at 192x192x192"), "{f}");
        assert!(f.contains("floor 0.85"), "{f}");
        // Inside the margin the scalar path passes: it is the naive
        // loop plus dispatch.
        let within = with_ns(healthy(), "scalar", SMALL, 100.0 / 0.90);
        assert!(kernel_regressions(&within).is_empty());
    }

    #[test]
    fn scalar_only_host_skips_gate_1() {
        let scalar_only: Vec<KernelRecord> =
            healthy().into_iter().filter(|r| r.mode != "avx2").collect();
        assert!(kernel_regressions(&scalar_only).is_empty());
    }
}
