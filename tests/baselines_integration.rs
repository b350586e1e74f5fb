//! Integration of the baseline criteria with the real model builders and
//! the pruning loop: every criterion must run end to end on VGG and
//! ResNet topologies and produce a functional pruned network, and a
//! baseline run resumes from its run dir like a class-aware one.

use cap_baselines::{standard_criteria, L1Criterion, TaylorCriterion};
use cap_core::{
    ClassAwarePruner, FilterCriterion, PruneConfig, PruneError, PruneStrategy, ScoreConfig,
};
use cap_data::{DatasetSpec, SyntheticDataset};
use cap_models::{resnet20, vgg16, ModelConfig};
use cap_nn::{fit, Network, RunDir, TrainConfig};
use cap_tensor::Tensor;
use rand::SeedableRng;
use std::path::Path;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(10, 3),
    )
    .expect("valid spec")
}

fn pretrain(net: &mut Network, data: &SyntheticDataset) {
    fit(
        net,
        data.train().images(),
        data.train().labels(),
        &TrainConfig {
            epochs: 2,
            batch_size: 20,
            ..TrainConfig::default()
        },
    )
    .expect("training");
}

fn trained_vgg(data: &SyntheticDataset) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let cfg = ModelConfig::new(10).with_width(0.125).with_image_size(8);
    let mut net = vgg16(&cfg, &mut rng).expect("model builds");
    pretrain(&mut net, data);
    net
}

/// The baseline schedule: 15% of the filters per iteration for two
/// iterations, fine-tuned under the criterion's regulariser, never
/// rolled back (accuracy lies in [0, 1], so no drop exceeds 1.0).
fn pruner(criterion: Box<dyn FilterCriterion>) -> ClassAwarePruner {
    let config = PruneConfig {
        score: ScoreConfig {
            seed: 7,
            ..ScoreConfig::default()
        },
        strategy: PruneStrategy::Percentage { fraction: 0.15 },
        finetune: TrainConfig {
            epochs: 1,
            batch_size: 20,
            regularizer: criterion.train_regularizer(),
            ..TrainConfig::default()
        },
        max_iterations: 2,
        accuracy_drop_limit: 1.0,
        eval_batch: 32,
    };
    ClassAwarePruner::with_criterion(config, criterion).expect("valid schedule")
}

#[test]
fn every_criterion_prunes_vgg() {
    let data = dataset();
    let base = trained_vgg(&data);
    for criterion in standard_criteria() {
        let pruner = pruner(criterion);
        let name = pruner.criterion().name();
        let mut net = base.clone();
        let outcome = pruner
            .run(&mut net, data.train(), data.test())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(
            outcome.pruning_ratio() > 0.0,
            "{name} should prune something"
        );
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        let y = net.forward(&x, false).expect("pruned net runs");
        assert_eq!(y.shape(), &[1, 10]);
    }
}

#[test]
fn every_criterion_prunes_resnet() {
    let data = dataset();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let cfg = ModelConfig::new(10).with_width(0.25).with_image_size(8);
    let mut base = resnet20(&cfg, &mut rng).expect("model builds");
    pretrain(&mut base, &data);
    for criterion in standard_criteria() {
        let pruner = pruner(criterion);
        let name = pruner.criterion().name();
        let mut net = base.clone();
        let outcome = pruner
            .run(&mut net, data.train(), data.test())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(outcome.pruning_ratio() > 0.0, "{name}");
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        assert_eq!(net.forward(&x, false).expect("runs").shape(), &[2, 10]);
    }
}

/// Copies run dir `src` to `dst` as a run killed right after journaling
/// iteration `upto` leaves it: the meta record and iterations `..= upto`
/// in the journal, checkpoints up to generation `upto`.
fn crash_copy(src: &Path, dst: &Path, upto: u64) {
    std::fs::create_dir_all(dst.join("ckpt")).unwrap();
    std::fs::copy(src.join("MANIFEST.json"), dst.join("MANIFEST.json")).unwrap();
    for gen in 0..=upto {
        let name = format!("ckpt/gen-{gen:06}.capn");
        std::fs::copy(src.join(&name), dst.join(&name)).unwrap();
    }
    let journal = std::fs::read_to_string(src.join("journal.jsonl")).unwrap();
    let kept: String = journal
        .lines()
        .filter(|l| {
            let j = cap_obs::json::parse(l).unwrap();
            match j.get("type").and_then(|t| t.as_str()) {
                Some("meta") => true,
                Some("iter") => j.get("iteration").and_then(|v| v.as_u64()).unwrap() <= upto,
                _ => false,
            }
        })
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(dst.join("journal.jsonl"), kept).unwrap();
}

#[test]
fn baseline_run_resumes_bit_identically_and_refuses_another_criterion() {
    let data = dataset();
    let mut net = trained_vgg(&data);
    let base = std::env::temp_dir().join(format!("cap_baseline_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let reference = base.join("reference");
    let l1 = pruner(Box::new(L1Criterion::new()));
    let outcome = l1
        .run_with_dir(
            &mut net,
            data.train(),
            data.test(),
            &RunDir::create(&reference).unwrap(),
        )
        .unwrap();
    assert_eq!(outcome.iterations.len(), 2);
    let reference_bytes = cap_nn::checkpoint::to_bytes(&net).unwrap();

    let killed = base.join("killed");
    crash_copy(&reference, &killed, 1);
    let dir = RunDir::open(&killed).unwrap();
    let (resumed, resumed_outcome) = l1.resume(data.train(), data.test(), &dir).unwrap();
    assert_eq!(
        cap_nn::checkpoint::to_bytes(&resumed).unwrap(),
        reference_bytes,
        "resumed L1 run must end bit-identical to the uninterrupted one"
    );
    assert_eq!(
        resumed_outcome.final_accuracy.to_bits(),
        outcome.final_accuracy.to_bits()
    );
    assert_eq!(resumed_outcome.iterations.len(), 2);

    // Same PruneConfig, other criterion: the fingerprint tells them apart.
    let taylor =
        ClassAwarePruner::with_criterion(l1.config().clone(), Box::new(TaylorCriterion::new(16)))
            .unwrap();
    assert!(matches!(
        taylor.resume(data.train(), data.test(), &dir),
        Err(PruneError::Persistence { .. })
    ));
    let _ = std::fs::remove_dir_all(&base);
}
