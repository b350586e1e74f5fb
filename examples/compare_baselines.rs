//! Compares the class-aware criterion against the baselines the paper
//! evaluates in Fig. 6 (L1, SSS, HRank, TPP, OrthConv, DepGraph, plus
//! class-agnostic Taylor), all starting from the same trained weights
//! and pruned by the same loop.
//!
//! Run with: `cargo run --release --example compare_baselines`

use cap_baselines::standard_criteria;
use cap_core::{ClassAwarePruner, PruneConfig, PruneStrategy, ScoreConfig, TauMode};
use cap_data::{DatasetSpec, SyntheticDataset};
use cap_models::{vgg16, ModelConfig};
use cap_nn::{fit, RegularizerConfig, TrainConfig};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(10)
            .with_counts(24, 8),
    )?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let cfg = ModelConfig::new(10).with_width(0.2).with_image_size(10);
    let mut net = vgg16(&cfg, &mut rng)?;
    let train_cfg = TrainConfig {
        epochs: 8,
        batch_size: 24,
        regularizer: RegularizerConfig::paper(),
        ..TrainConfig::default()
    };
    fit(
        &mut net,
        data.train().images(),
        data.train().labels(),
        &train_cfg,
    )?;

    println!("method               | accuracy | prun. ratio | FLOPs red.");
    println!("---------------------+----------+-------------+-----------");

    // Ours.
    {
        let mut ours = net.clone();
        let pruner = ClassAwarePruner::new(PruneConfig {
            score: ScoreConfig {
                images_per_class: 8,
                tau: TauMode::SiteRelative(0.25),
                ..ScoreConfig::default()
            },
            strategy: PruneStrategy::paper_combined(10),
            finetune: TrainConfig {
                epochs: 2,
                ..train_cfg
            },
            max_iterations: 4,
            accuracy_drop_limit: 0.1,
            eval_batch: 32,
        })?;
        let o = pruner.run(&mut ours, data.train(), data.test())?;
        println!(
            "{:<21}| {:>7.1}% | {:>10.1}% | {:>8.1}%",
            "Class-aware (ours)",
            o.final_accuracy * 100.0,
            o.pruning_ratio() * 100.0,
            o.flops_reduction() * 100.0
        );
    }

    // Baselines under a matched schedule: 10% per iteration, no rollback.
    for criterion in standard_criteria() {
        let schedule = PruneConfig {
            score: ScoreConfig {
                seed: 0xFEED,
                ..ScoreConfig::default()
            },
            strategy: PruneStrategy::Percentage { fraction: 0.1 },
            finetune: TrainConfig {
                epochs: 2,
                regularizer: criterion.train_regularizer(),
                ..train_cfg
            },
            max_iterations: 4,
            accuracy_drop_limit: 1.0,
            eval_batch: 32,
        };
        let pruner = ClassAwarePruner::with_criterion(schedule, criterion)?;
        let mut candidate = net.clone();
        let o = pruner.run(&mut candidate, data.train(), data.test())?;
        println!(
            "{:<21}| {:>7.1}% | {:>10.1}% | {:>8.1}%",
            pruner.criterion().name(),
            o.final_accuracy * 100.0,
            o.pruning_ratio() * 100.0,
            o.flops_reduction() * 100.0
        );
    }
    Ok(())
}
