use cap_core::TauMode;

/// How large an experiment run is. The paper's absolute scale (50k CIFAR
/// images, full-width networks, 130-epoch retraining on an A100) is not
/// reachable on CPU; the harness exposes the same pipeline at three
/// scales with identical structure.
///
/// The Taylor binarisation threshold is site-relative at every scale
/// (see [`TauMode`]): the paper's absolute `1e-50` relies on exact-zero
/// activations that only emerge at its training scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Image side length.
    pub image_size: usize,
    /// Training samples per class (10-class datasets).
    pub train_per_class: usize,
    /// Test samples per class (10-class datasets).
    pub test_per_class: usize,
    /// Training samples per class for 100-class datasets.
    pub train_per_class_100: usize,
    /// Test samples per class for 100-class datasets.
    pub test_per_class_100: usize,
    /// Channel-width multiplier for the models.
    pub width: f32,
    /// Epochs of from-scratch pre-training with the modified cost.
    pub pretrain_epochs: usize,
    /// Pre-training epochs for 100-class datasets (harder problems need
    /// longer to converge).
    pub pretrain_epochs_100: usize,
    /// Fine-tuning epochs after each pruning iteration (paper: up to 130).
    pub finetune_epochs: usize,
    /// Cap on pruning iterations.
    pub max_iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Images per class for importance scoring (`M`, paper: 10).
    pub images_per_class: usize,
    /// Taylor binarisation threshold mode.
    pub tau: TauMode,
    /// Tolerated accuracy drop before the framework stops.
    pub accuracy_drop_limit: f64,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Smoke scale for CI and quick end-to-end checks: seconds per
    /// experiment.
    pub fn smoke() -> Self {
        ExperimentScale {
            image_size: 8,
            train_per_class: 10,
            test_per_class: 3,
            train_per_class_100: 3,
            test_per_class_100: 1,
            width: 0.125,
            pretrain_epochs: 2,
            pretrain_epochs_100: 2,
            finetune_epochs: 1,
            max_iterations: 2,
            batch_size: 25,
            images_per_class: 6,
            tau: TauMode::SiteRelative(3.0),
            accuracy_drop_limit: 1.0,
            seed: 0xBEEF,
        }
    }

    /// Small scale: a minute or two per experiment.
    pub fn small() -> Self {
        ExperimentScale {
            image_size: 12,
            train_per_class: 32,
            test_per_class: 10,
            train_per_class_100: 6,
            test_per_class_100: 2,
            width: 0.2,
            pretrain_epochs: 20,
            pretrain_epochs_100: 44,
            finetune_epochs: 4,
            max_iterations: 8,
            batch_size: 32,
            images_per_class: 8,
            tau: TauMode::SiteRelative(3.0),
            accuracy_drop_limit: 0.08,
            seed: 0xBEEF,
        }
    }

    /// Full reproduction scale (for the experiment binaries): minutes per
    /// experiment on a modern CPU.
    pub fn full() -> Self {
        ExperimentScale {
            image_size: 16,
            train_per_class: 48,
            test_per_class: 16,
            train_per_class_100: 10,
            test_per_class_100: 3,
            width: 0.25,
            pretrain_epochs: 30,
            pretrain_epochs_100: 60,
            finetune_epochs: 4,
            max_iterations: 12,
            batch_size: 48,
            images_per_class: 10,
            tau: TauMode::SiteRelative(3.0),
            accuracy_drop_limit: 0.08,
            seed: 0xBEEF,
        }
    }

    /// The scale names [`ExperimentScale::from_name`] accepts.
    const NAMES: [&'static str; 3] = ["smoke", "small", "full"];

    /// The scale called `name`: `"smoke"`, `"small"` or `"full"`.
    ///
    /// # Errors
    ///
    /// Names the unknown scale and lists the valid ones.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "smoke" => Ok(ExperimentScale::smoke()),
            "small" => Ok(ExperimentScale::small()),
            "full" => Ok(ExperimentScale::full()),
            other => Err(format!(
                "unknown scale {other:?} (valid: {})",
                Self::NAMES.join(", ")
            )),
        }
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_cost() {
        let smoke = ExperimentScale::smoke();
        let small = ExperimentScale::small();
        let full = ExperimentScale::full();
        assert!(smoke.train_per_class < small.train_per_class);
        assert!(small.train_per_class < full.train_per_class);
        assert!(smoke.pretrain_epochs <= small.pretrain_epochs);
        assert!(small.pretrain_epochs <= full.pretrain_epochs);
    }

    #[test]
    fn from_name_knows_exactly_the_three_scales() {
        let scales = [
            ExperimentScale::smoke(),
            ExperimentScale::small(),
            ExperimentScale::full(),
        ];
        for (name, scale) in ExperimentScale::NAMES.into_iter().zip(scales) {
            assert_eq!(ExperimentScale::from_name(name), Ok(scale));
        }
        let err = ExperimentScale::from_name("medium").unwrap_err();
        for name in ExperimentScale::NAMES {
            assert!(err.contains(name), "{err}");
        }
    }
}
