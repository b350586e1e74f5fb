use crate::ExperimentScale;
use cap_data::{DataError, DatasetSpec, SyntheticDataset};
use cap_models::{resnet56, vgg16, vgg19, ModelConfig};
use cap_nn::{evaluate, fit, Network, NnError, RegularizerConfig, TrainConfig};
use rand::SeedableRng;

/// The architectures the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// VGG16 (13 convolutions).
    Vgg16,
    /// VGG19 (16 convolutions).
    Vgg19,
    /// ResNet56 (27 basic blocks).
    ResNet56,
}

impl Arch {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Vgg16 => "VGG16",
            Arch::Vgg19 => "VGG19",
            Arch::ResNet56 => "ResNet56",
        }
    }
}

/// The dataset stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// 10-class CIFAR-10 stand-in.
    C10,
    /// 100-class CIFAR-100 stand-in.
    C100,
}

impl DataKind {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        match self {
            DataKind::C10 => 10,
            DataKind::C100 => 100,
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DataKind::C10 => "CIFAR10",
            DataKind::C100 => "CIFAR100",
        }
    }
}

/// Generates the synthetic dataset for `kind` at `scale`.
///
/// # Errors
///
/// Propagates dataset-specification errors.
pub fn build_dataset(
    kind: DataKind,
    scale: &ExperimentScale,
) -> Result<SyntheticDataset, DataError> {
    let spec = match kind {
        DataKind::C10 => DatasetSpec::cifar10_like()
            .with_image_size(scale.image_size)
            .with_counts(scale.train_per_class, scale.test_per_class),
        DataKind::C100 => DatasetSpec::cifar100_like()
            .with_image_size(scale.image_size)
            .with_counts(scale.train_per_class_100, scale.test_per_class_100),
    };
    SyntheticDataset::generate(&spec.with_seed(scale.seed ^ kind.classes() as u64))
}

/// Builds the model for `arch` at `scale`.
///
/// # Errors
///
/// Propagates model-configuration errors.
pub fn build_model(
    arch: Arch,
    kind: DataKind,
    scale: &ExperimentScale,
) -> Result<Network, NnError> {
    let cfg = ModelConfig::new(kind.classes())
        .with_width(scale.width)
        .with_image_size(scale.image_size);
    let mut rng = rand::rngs::StdRng::seed_from_u64(scale.seed);
    match arch {
        Arch::Vgg16 => vgg16(&cfg, &mut rng),
        Arch::Vgg19 => vgg19(&cfg, &mut rng),
        Arch::ResNet56 => resnet56(&cfg, &mut rng),
    }
}

/// The training configuration used for pre-training and fine-tuning,
/// mirroring the paper's optimiser setting (SGD, lr 0.01, momentum 0.9,
/// weight decay 5e-4) with the modified cost of Eq. 1.
pub fn train_config(
    epochs: usize,
    scale: &ExperimentScale,
    regularizer: RegularizerConfig,
) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: scale.batch_size,
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 5e-4,
        lr_decay: 0.97,
        regularizer,
        shuffle_seed: scale.seed,
        fault_policy: cap_nn::FaultPolicy::Abort,
    }
}

/// A model trained and ready for pruning, with its baseline accuracy.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The trained network.
    pub net: Network,
    /// Test accuracy after pre-training.
    pub baseline_accuracy: f64,
}

/// Trains `net` from scratch on `data` with the modified cost and
/// returns it with its baseline accuracy.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn pretrain(
    mut net: Network,
    data: &SyntheticDataset,
    scale: &ExperimentScale,
    regularizer: RegularizerConfig,
) -> Result<Prepared, NnError> {
    let epochs = if data.train().classes() >= 100 {
        scale.pretrain_epochs_100
    } else {
        scale.pretrain_epochs
    };
    fit(
        &mut net,
        data.train().images(),
        data.train().labels(),
        &train_config(epochs, scale, regularizer),
    )?;
    let baseline_accuracy = evaluate(
        &mut net,
        data.test().images(),
        data.test().labels(),
        scale.batch_size,
    )?;
    Ok(Prepared {
        net,
        baseline_accuracy,
    })
}

/// Like [`pretrain`], but caches the trained model (plus its baseline
/// accuracy) under `cache_dir` keyed by the full experimental setting,
/// so repeated experiments on the same pre-trained weights — the paper's
/// own comparison protocol — skip retraining. The key holds every scale
/// field that reaches the weights or the accuracy: dataset sizes (the
/// test split measures the accuracy), batch size, width, epochs, seed;
/// and the resolved SIMD mode, because the scalar and AVX2 kernels
/// round differently and so train different weights.
///
/// # Errors
///
/// Propagates training errors; cache read/write failures silently fall
/// back to retraining (a stale cache must never break an experiment).
pub fn pretrain_cached(
    arch: Arch,
    kind: DataKind,
    data: &SyntheticDataset,
    scale: &ExperimentScale,
    regularizer: RegularizerConfig,
    cache_dir: &std::path::Path,
) -> Result<Prepared, NnError> {
    let key = format!(
        "{}-{}-{}-im{}-tr{}x{}-te{}x{}-b{}-w{}-e{}-s{:x}-{}",
        arch.name(),
        kind.name(),
        regularizer.label().replace('/', "none"),
        scale.image_size,
        scale.train_per_class,
        scale.train_per_class_100,
        scale.test_per_class,
        scale.test_per_class_100,
        scale.batch_size,
        scale.width,
        if kind.classes() >= 100 {
            scale.pretrain_epochs_100
        } else {
            scale.pretrain_epochs
        },
        scale.seed,
        cap_tensor::simd_mode().name()
    );
    let model_path = cache_dir.join(format!("{key}.capn"));
    let acc_path = cache_dir.join(format!("{key}.acc"));
    if let (Ok(file), Ok(acc_text)) = (
        std::fs::File::open(&model_path),
        std::fs::read_to_string(&acc_path),
    ) {
        if let (Ok(net), Ok(baseline_accuracy)) = (
            cap_nn::checkpoint::load(std::io::BufReader::new(file)),
            acc_text.trim().parse::<f64>(),
        ) {
            return Ok(Prepared {
                net,
                baseline_accuracy,
            });
        }
    }
    let net = build_model(arch, kind, scale)?;
    let prepared = pretrain(net, data, scale, regularizer)?;
    // Atomic cache writes: a crash mid-write must never leave a torn
    // model for a later run to (fail to) load — half-written entries
    // would poison every subsequent benchmark of this configuration.
    if std::fs::create_dir_all(cache_dir).is_ok() {
        if let Ok(bytes) = cap_nn::checkpoint::to_bytes(&prepared.net) {
            let _ = cap_obs::fsx::atomic_write(&model_path, &bytes);
            let _ = cap_obs::fsx::atomic_write(
                &acc_path,
                prepared.baseline_accuracy.to_string().as_bytes(),
            );
        }
    }
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_matches_kind() {
        let scale = ExperimentScale::smoke();
        let d10 = build_dataset(DataKind::C10, &scale).unwrap();
        assert_eq!(d10.train().classes(), 10);
        let d100 = build_dataset(DataKind::C100, &scale).unwrap();
        assert_eq!(d100.train().classes(), 100);
    }

    #[test]
    fn models_build_for_all_archs() {
        let scale = ExperimentScale::smoke();
        for arch in [Arch::Vgg16, Arch::Vgg19, Arch::ResNet56] {
            let net = build_model(arch, DataKind::C10, &scale).unwrap();
            assert!(net.conv_count() >= 13);
        }
    }

    #[test]
    fn pretrain_reports_accuracy() {
        let scale = ExperimentScale::smoke();
        let data = build_dataset(DataKind::C10, &scale).unwrap();
        let net = build_model(Arch::Vgg16, DataKind::C10, &scale).unwrap();
        let prepared = pretrain(net, &data, &scale, RegularizerConfig::none()).unwrap();
        assert!((0.0..=1.0).contains(&prepared.baseline_accuracy));
    }
}
