//! End-to-end telemetry: a smoke training run under a live `/metrics`
//! server must (a) stay bit-identical across thread counts — telemetry
//! only observes, never steers — and (b) leave real `cap_par` worker
//! gauges, valid exposition text, and a span-tree flamegraph behind.

use cap_data::{DatasetSpec, SyntheticDataset};
use cap_nn::layer::{Conv2d, GlobalAvgPool, Linear, Relu};
use cap_nn::{fit, Network, TrainConfig};
use rand::SeedableRng;

/// A conv of 32 filters over 16×16 images: a batch of 15 is 6.6 MFLOP
/// a pass, above the pool's work floor, so training at 4 threads hands
/// its conv to the pool and the determinism check below crosses it.
fn toy_net(seed: u64) -> Network {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 32, 3, 1, 1, true, &mut r).unwrap());
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(32, 10, &mut r).unwrap());
    net
}

fn training_weights(threads: usize, data: &SyntheticDataset) -> Vec<u8> {
    cap_par::set_threads(threads);
    let mut net = toy_net(42);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 15,
        ..TrainConfig::default()
    };
    fit(&mut net, data.train().images(), data.train().labels(), &cfg).expect("fit");
    let eval = cap_nn::evaluate(&mut net, data.test().images(), data.test().labels(), 4)
        .expect("evaluate");
    assert!((0.0..=1.0).contains(&eval));
    let mut bytes = Vec::new();
    cap_nn::checkpoint::save(&net, &mut bytes).expect("serialise weights");
    bytes
}

/// Value of counter `name` in the metrics registry (0 when absent).
fn counter(name: &str) -> u64 {
    cap_obs::registry()
        .snapshot()
        .into_iter()
        .find_map(|(n, m)| match m {
            cap_obs::Metric::Counter(v) if n == name => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

/// Runs one 2-task batch arranged so a pool worker definitely executes
/// a task (the caller-side task spins until a worker claims it), then
/// waits until that worker has published its gauges, which it does
/// only after its task has released the caller. Returns the worker's
/// index: whichever worker wakes first takes the task, so it need not
/// be worker 0.
fn force_worker_task() -> usize {
    let caller = std::thread::current().id();
    let worker = std::sync::OnceLock::new();
    let task = |_| {
        let me = std::thread::current();
        if me.id() == caller {
            let patience = std::time::Instant::now();
            while worker.get().is_none() && patience.elapsed() < std::time::Duration::from_secs(5) {
                std::thread::yield_now();
            }
        } else {
            let index = me.name().and_then(|n| n.strip_prefix("cap-par-"));
            let _ = worker.set(index.and_then(|i| i.parse::<usize>().ok()));
        }
    };
    let tasks: Vec<cap_par::ScopedTask<'_>> = (0..2)
        .map(|i| Box::new(move || task(i)) as cap_par::ScopedTask<'_>)
        .collect();
    cap_par::Pool::global().run(tasks);
    let index = worker
        .get()
        .copied()
        .flatten()
        .expect("a pool worker ran the task");
    let gauge = format!("par.worker.{index}.tasks_total");
    let patience = std::time::Instant::now();
    while !cap_obs::registry()
        .snapshot()
        .iter()
        .any(|(name, _)| *name == gauge)
    {
        assert!(
            patience.elapsed() < std::time::Duration::from_secs(5),
            "worker {index} never published {gauge}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    index
}

#[test]
fn smoke_training_under_live_server_is_deterministic_and_scrapable() {
    let _lock = cap_obs::test_lock();
    cap_obs::reset();
    let prior_threads = cap_par::threads();
    let addr = cap_obs::serve::start_global("127.0.0.1:0").expect("bind server");

    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(16)
            .with_counts(3, 1),
    )
    .expect("synthetic data");

    // Determinism contract with the full telemetry stack live: server
    // scraping concurrently, metrics flowing.
    let scraper_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = std::sync::Arc::clone(&scraper_stop);
        std::thread::spawn(move || {
            let mut ok = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if cap_obs::serve::http_get(addr, "/metrics").is_ok() {
                    ok += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            ok
        })
    };
    let w1 = training_weights(1, &data);
    let w4 = training_weights(4, &data);
    assert!(
        counter("par.batches_total") > 0,
        "training at 4 threads never reached the pool"
    );
    let worker = force_worker_task();
    cap_par::set_threads(prior_threads);
    assert_eq!(w1.len(), w4.len());
    assert!(
        w1.iter().zip(w4.iter()).all(|(a, b)| a == b),
        "trained weights must be bit-identical at 1 vs 4 threads with the server live"
    );
    scraper_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "at least one concurrent scrape must succeed");

    // The final scrape carries training gauges and (with worker threads
    // active at 4 threads) per-worker cap_par gauges.
    let body = cap_obs::serve::http_get(addr, "/metrics").expect("final scrape");
    cap_obs::expo::validate(&body).expect("exposition grammar");
    assert!(body.contains("cap_nn_epochs_total"), "{body}");
    assert!(body.contains("cap_nn_fit_loss"), "{body}");
    assert!(
        body.contains(&format!(
            "# TYPE cap_par_worker_{worker}_busy_seconds gauge"
        )),
        "per-worker pool gauges missing:\n{body}"
    );
    assert!(
        body.contains(&format!("cap_par_worker_{worker}_tasks_total")),
        "{body}"
    );
    assert!(body.contains("cap_par_batches_total"), "{body}");

    // The span tree recorded the live run: /prof renders it, with the
    // training loop's top frame in it.
    let prof = cap_obs::serve::http_get(addr, "/prof").expect("prof scrape");
    assert!(prof.contains("<svg"), "{prof}");
    assert!(
        prof.contains("nn.fit"),
        "nn.fit span missing from /prof:\n{prof}"
    );

    cap_obs::serve::stop_global();
    cap_obs::disable();
    cap_obs::reset();
}
