//! Filter-importance criteria: what the Fig. 5 loop ranks filters by.
//!
//! [`ClassAwarePruner`](crate::ClassAwarePruner) drives any
//! [`FilterCriterion`]. [`ClassAwareCriterion`] is the paper's own
//! (Eq. 3–7); `cap-baselines` implements the criteria Fig. 6 compares
//! it against, so only the criterion differs between the runs.

use crate::{
    evaluate_scores, evaluate_scores_with_attribution, ClassAttribution, NetworkScores,
    PrunableSite, PruneError, ScoreConfig,
};
use cap_data::Dataset;
use cap_nn::{Network, RegularizerConfig};

/// A filter-importance criterion: assigns every filter at every prunable
/// site a score (higher = more important), and names the training
/// regulariser the method relies on.
pub trait FilterCriterion: std::fmt::Debug + Send + Sync {
    /// Display name used in reports (matches the paper's Fig. 6 legend).
    fn name(&self) -> &str;

    /// Regulariser the method trains under. The pruning loop fine-tunes
    /// with [`PruneConfig::finetune`](crate::PruneConfig::finetune) as
    /// given, so a caller building the configuration for this criterion
    /// takes the regulariser from here.
    fn train_regularizer(&self) -> RegularizerConfig {
        RegularizerConfig::none()
    }

    /// Scores the filters of `sites`. The pruning loop passes
    /// `PruneConfig::score.seed + i − 1` at iteration `i`, and iteration
    /// 1's seed for the unpruned and the final network.
    ///
    /// # Errors
    ///
    /// Propagates network/dataset errors from the underlying passes.
    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        seed: u64,
    ) -> Result<NetworkScores, PruneError>;

    /// [`score`](Self::score) plus the per-class breakdown, for a
    /// criterion that has one (the default has none).
    ///
    /// # Errors
    ///
    /// As [`score`](Self::score).
    fn score_with_attribution(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        seed: u64,
    ) -> Result<(NetworkScores, Option<ClassAttribution>), PruneError> {
        Ok((self.score(net, sites, data, seed)?, None))
    }
}

/// The paper's criterion (Sec. III-B, Eq. 3–7): the number of classes a
/// filter is important for, with the per-class attribution. Every pass
/// draws its `M` images per class with [`ScoreConfig::seed`] and ignores
/// the seed the loop passes, so each iteration scores the same images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassAwareCriterion {
    cfg: ScoreConfig,
}

impl ClassAwareCriterion {
    /// The criterion's [`name`](FilterCriterion::name).
    pub(crate) const NAME: &'static str = "Class-aware";

    /// The criterion evaluating Eq. 3–7 under `cfg`.
    pub fn new(cfg: ScoreConfig) -> Self {
        ClassAwareCriterion { cfg }
    }
}

impl FilterCriterion for ClassAwareCriterion {
    fn name(&self) -> &str {
        Self::NAME
    }

    /// The modified cost of Eq. 1 (L1 + orthogonality).
    fn train_regularizer(&self) -> RegularizerConfig {
        RegularizerConfig::paper()
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        evaluate_scores(net, sites, data, &self.cfg)
    }

    fn score_with_attribution(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<(NetworkScores, Option<ClassAttribution>), PruneError> {
        let (scores, attribution) = evaluate_scores_with_attribution(net, sites, data, &self.cfg)?;
        Ok((scores, Some(attribution)))
    }
}
