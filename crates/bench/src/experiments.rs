//! Rows of the paper's tables and figures, as [`crate::specs::Suite`]
//! reads them off spec outcomes and the `render` module prints them.

use cap_core::ScoreHistogram;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// "VGG16-CIFAR10" style label.
    pub name: String,
    /// Original top-1 accuracy.
    pub original_acc: f64,
    /// Accuracy after class-aware pruning.
    pub pruned_acc: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// One row of Table II (strategy ablation, ResNet56-CIFAR10).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Strategy label.
    pub strategy: &'static str,
    /// Accuracy after pruning.
    pub pruned_acc: f64,
    /// Drop vs. the unpruned baseline (negative = worse).
    pub drop: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// One row of Table III (regulariser ablation).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Model-dataset label.
    pub model: String,
    /// Regulariser label ("/", "L1", "Lorth", "L1+Lorth").
    pub regularizer: &'static str,
    /// Accuracy after pruning.
    pub pruned_acc: f64,
    /// Drop vs. the unpruned baseline.
    pub drop: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// Result of the Fig. 4 experiment: single-layer score histograms before
/// and after pruning.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Model-dataset label.
    pub name: String,
    /// Label of the displayed layer.
    pub layer: String,
    /// Histogram before pruning.
    pub before: ScoreHistogram,
    /// Histogram after pruning.
    pub after: ScoreHistogram,
}

/// One row of the Fig. 6 comparison.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Method name ("Class-aware (ours)", "L1", ...).
    pub method: String,
    /// Accuracy after pruning.
    pub accuracy: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// Result of the Fig. 7 experiment for one model.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Model-dataset label.
    pub name: String,
    /// `(layer label, mean score before, mean score after)` rows.
    pub layers: Vec<(String, f64, f64)>,
}

/// One row of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Regulariser label.
    pub regularizer: &'static str,
    /// Score histogram after training VGG16-C10 under this regulariser.
    pub histogram: ScoreHistogram,
    /// Fraction of filters with score < 1.
    pub low_fraction: f64,
    /// Fraction of filters with the maximum score.
    pub high_fraction: f64,
    /// Combined low+high mass.
    pub polarization: f64,
}
