#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Class-aware filter pruning — the primary contribution of
//! *Class-Aware Pruning for Efficient Neural Networks* (DATE 2024),
//! reproduced in Rust.
//!
//! The crate provides the full pipeline of the paper's Fig. 5:
//!
//! 1. **Importance scoring** ([`evaluate_scores`], Sec. III-B / Eq. 3–7):
//!    how many classes each filter is important for, via per-class
//!    first-order Taylor scores of the filter's activation outputs.
//! 2. **Strategy** ([`select_filters`], [`PruneStrategy`], Sec. III-C):
//!    threshold, percentage, or the paper's combination.
//! 3. **Surgery** ([`apply_site_pruning`]): physical removal of filters
//!    with channel propagation into batch-norm and consumer layers; on
//!    residual networks only block-internal widths are pruned, matching
//!    the paper's ResNet56 constraint.
//! 4. **Framework** ([`ClassAwarePruner`]): iterate score → prune →
//!    fine-tune until no filter is prunable or accuracy is unrecoverable.
//!    The loop ranks filters by any [`FilterCriterion`];
//!    [`ClassAwareCriterion`] (Eq. 3–7) is the default.
//!
//! FLOPs/parameter accounting ([`analyze_network`]) backs the tables'
//! "Prun. ratio" and "FLOPs red." columns, and [`ScoreHistogram`] /
//! [`layerwise_mean_scores`] regenerate Fig. 4, 7 and 8.
//!
//! # Example
//!
//! ```no_run
//! use cap_core::{ClassAwarePruner, PruneConfig};
//! use cap_data::{DatasetSpec, SyntheticDataset};
//! use cap_models::{vgg16, ModelConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticDataset::generate(&DatasetSpec::cifar10_like())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = vgg16(&ModelConfig::new(10), &mut rng)?;
//! // ... train `net` first (see cap_nn::fit) ...
//! let pruner = ClassAwarePruner::new(PruneConfig::default())?;
//! let outcome = pruner.run(&mut net, data.train(), data.test())?;
//! println!(
//!     "pruning ratio {:.1}%, FLOPs reduction {:.1}%",
//!     outcome.pruning_ratio() * 100.0,
//!     outcome.flops_reduction() * 100.0
//! );
//! # Ok(())
//! # }
//! ```

mod criterion;
mod error;
mod flops;
mod framework;
mod report;
mod score;
mod site;
mod strategy;
mod unstructured;

pub use criterion::{ClassAwareCriterion, FilterCriterion};
pub use error::PruneError;
pub use flops::{analyze_network, FlopsReport, LayerCost};
pub use framework::{ClassAwarePruner, IterationRecord, PruneConfig, PruneOutcome, StopReason};
pub use report::{layerwise_mean_scores, ScoreHistogram};
pub use score::{
    evaluate_scores, evaluate_scores_with_attribution, ClassAttribution, NetworkScores,
    ScoreConfig, SiteAttribution, SiteScores, TauMode,
};
pub use site::{apply_site_pruning, find_prunable_sites, PrunableSite, SiteKind};
pub use strategy::{select_filters, threshold_for_classes, PruneSelection, PruneStrategy};
pub use unstructured::{prune_weights_by_magnitude, sparsity, SparsityReport};
