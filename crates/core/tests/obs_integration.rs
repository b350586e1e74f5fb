//! End-to-end observability check: a tiny pruning run with the JSONL
//! sink attached must produce a parseable event stream whose
//! `prune_iteration` records mirror the returned [`PruneOutcome`]; a
//! scoring pass records one span per class shard.

use cap_core::{
    evaluate_scores, find_prunable_sites, ClassAwarePruner, PruneConfig, PruneStrategy, ScoreConfig,
};
use cap_data::{DatasetSpec, SyntheticDataset};
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use cap_nn::{fit, Network, TrainConfig};
use cap_obs::json::{parse, Json};
use rand::SeedableRng;

fn f64_field(e: &Json, key: &str) -> f64 {
    e.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("missing f64 field {key}: {e:?}"))
}

fn u64_field(e: &Json, key: &str) -> u64 {
    e.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("missing u64 field {key}: {e:?}"))
}

#[test]
fn pruning_run_emits_validated_jsonl_stream() {
    let _guard = cap_obs::test_lock();
    cap_obs::reset();
    let path = std::env::temp_dir().join(format!("cap_obs_prune_{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    cap_obs::set_sink(Box::new(
        cap_obs::sink::JsonlSink::create(&path_str).unwrap(),
    ));

    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(12, 4),
    )
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 12, 3, 1, 1, false, &mut rng).unwrap());
    net.push(BatchNorm2d::new(12).unwrap());
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(12, 10, &mut rng).unwrap());
    let quick_train = TrainConfig {
        epochs: 2,
        batch_size: 20,
        lr: 0.02,
        ..TrainConfig::default()
    };
    fit(
        &mut net,
        data.train().images(),
        data.train().labels(),
        &quick_train,
    )
    .unwrap();
    // Only trace the pruning run itself, not the pre-training above.
    cap_obs::enable();
    let pruner = ClassAwarePruner::new(PruneConfig {
        strategy: PruneStrategy::Percentage { fraction: 0.2 },
        finetune: quick_train,
        max_iterations: 2,
        accuracy_drop_limit: 1.0,
        ..PruneConfig::default()
    })
    .unwrap();
    let outcome = pruner.run(&mut net, data.train(), data.test()).unwrap();

    cap_obs::flush();
    cap_obs::disable();
    cap_obs::reset();

    let content = std::fs::read_to_string(&path).unwrap();
    let events: Vec<Json> = content.lines().map(|l| parse(l).unwrap()).collect();
    let _ = std::fs::remove_file(&path);
    assert!(!events.is_empty());

    let kind = |e: &Json| {
        e.get("type")
            .and_then(|t| t.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let starts: Vec<&Json> = events.iter().filter(|e| kind(e) == "prune_start").collect();
    assert_eq!(starts.len(), 1);
    assert!((f64_field(starts[0], "baseline_accuracy") - outcome.baseline_accuracy).abs() < 1e-9);
    assert_eq!(
        u64_field(starts[0], "baseline_params"),
        outcome.baseline_cost.total_params
    );

    // Fine-tuning inside each iteration emits its own epoch events.
    let epochs = events.iter().filter(|e| kind(e) == "epoch").count();
    assert_eq!(epochs, 2 * outcome.iterations.len());

    let iters: Vec<&Json> = events
        .iter()
        .filter(|e| kind(e) == "prune_iteration")
        .collect();
    assert_eq!(iters.len(), outcome.iterations.len());
    assert!(!iters.is_empty(), "pruning must make progress in this test");
    for (e, r) in iters.iter().zip(&outcome.iterations) {
        assert_eq!(u64_field(e, "iteration"), r.iteration as u64);
        assert_eq!(u64_field(e, "removed_filters"), r.removed_filters as u64);
        assert_eq!(
            u64_field(e, "remaining_filters"),
            r.remaining_filters as u64
        );
        assert_eq!(u64_field(e, "flops"), r.flops);
        assert_eq!(u64_field(e, "params"), r.params);
        assert!((f64_field(e, "mean_score") - r.mean_score).abs() < 1e-9);
        assert!((f64_field(e, "accuracy_after_prune") - r.accuracy_after_prune).abs() < 1e-9);
        assert!((f64_field(e, "accuracy_after_finetune") - r.accuracy_after_finetune).abs() < 1e-9);
        // Phase timings: present, non-negative, and the phases that do
        // real work must have measurably non-zero duration.
        for phase in ["secs_score", "secs_surgery", "secs_finetune", "secs_eval"] {
            assert!(f64_field(e, phase) >= 0.0, "{phase} negative");
        }
        assert!(f64_field(e, "secs_score") > 0.0);
        assert!(f64_field(e, "secs_finetune") > 0.0);
        assert!(r.secs_score > 0.0 && r.secs_finetune > 0.0);
    }

    let dones: Vec<&Json> = events.iter().filter(|e| kind(e) == "prune_done").collect();
    assert_eq!(dones.len(), 1);
    assert!((f64_field(dones[0], "final_accuracy") - outcome.final_accuracy).abs() < 1e-9);
    assert_eq!(
        u64_field(dones[0], "final_params"),
        outcome.final_cost.total_params
    );
    // Events arrive in causal order: start before iterations before done.
    let order: Vec<String> = events
        .iter()
        .map(kind)
        .filter(|k| k.starts_with("prune"))
        .collect();
    assert_eq!(order.first().map(String::as_str), Some("prune_start"));
    assert_eq!(order.last().map(String::as_str), Some("prune_done"));
}

/// Recorded span count per path (the registry's `span.<path>` histograms).
fn span_counts() -> Vec<(String, u64)> {
    cap_obs::registry()
        .snapshot()
        .into_iter()
        .filter_map(|(name, metric)| match metric {
            cap_obs::Metric::Histogram(h) => name
                .strip_prefix("span.")
                .map(|p| (p.to_string(), h.count())),
            _ => None,
        })
        .collect()
}

#[test]
fn scoring_records_one_shard_span_per_shard() {
    let _guard = cap_obs::test_lock();
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(12, 4),
    )
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(34);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 4, 3, 1, 1, false, &mut rng).unwrap());
    net.push(BatchNorm2d::new(4).unwrap());
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(4, 10, &mut rng).unwrap());
    let sites = find_prunable_sites(&net);
    let prior = cap_par::threads();
    // Ten classes: one shard per thread, at most one per class.
    for (threads, shards) in [(1, 1), (3, 3), (16, 10)] {
        cap_obs::reset();
        cap_obs::enable();
        cap_par::set_threads(threads);
        let result = evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default());
        cap_par::set_threads(prior);
        cap_obs::disable();
        result.unwrap();
        let counts = span_counts();
        cap_obs::reset();
        let count = |leaf: &str| -> u64 {
            counts
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
                .map(|(_, n)| n)
                .sum()
        };
        assert_eq!(count("core.score"), 1, "{threads} threads: {counts:?}");
        assert_eq!(
            count("core.score.shard"),
            shards,
            "{threads} threads: {counts:?}"
        );
        // A shard frame is the root of a worker's stack, or sits under
        // the pass on the calling thread.
        for (path, _) in &counts {
            if path.ends_with("core.score.shard") {
                assert!(
                    path == "core.score.shard" || path == "core.score/core.score.shard",
                    "{path}"
                );
            }
        }
    }
}
