#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Re-implementations of the filter-pruning criteria the paper compares
//! against in Fig. 6, on the same substrate as the class-aware method so
//! the comparison is apples-to-apples:
//!
//! | Criterion | Paper ref | Idea |
//! |---|---|---|
//! | [`L1Criterion`] | L1 \[23\] | per-filter weight L1 norm |
//! | [`SssCriterion`] | SSS \[27\] | batch-norm scaling-factor magnitude (sparse structure selection, scaling-factor family) |
//! | [`HRankCriterion`] | HRank \[19\] | average rank of the filter's feature maps |
//! | [`TppCriterion`] | TPP \[18\] | trainability preservation via weight·gradient products |
//! | [`OrthConvCriterion`] | OrthConv \[31\] | orthogonality-regularised training + magnitude pruning |
//! | [`DepGraphCriterion`] | DepGraph \[13\] | dependency-group norms, with full- and no-grouping variants |
//! | [`TaylorCriterion`] | Taylor \[25\] | class-agnostic `|a·∂L/∂a|` — isolates the value of the class dimension |
//!
//! All criteria implement [`cap_core::FilterCriterion`], so the
//! class-aware method's own loop runs them:
//! [`ClassAwarePruner::with_criterion`](cap_core::ClassAwarePruner::with_criterion)
//! swaps Eq. 3–7 for a baseline and keeps the schedule, journal and
//! resume. Fig. 6 runs each one at a fixed 10% per iteration with no
//! rollback.
//!
//! Where the original methods train auxiliary variables end-to-end (SSS's
//! scaling factors, TPP's masks), this crate uses their published scoring
//! rule on our substrate; DESIGN.md documents each simplification.

mod criteria;
mod rank;

use cap_core::FilterCriterion;
pub use criteria::{
    DepGraphCriterion, FpgmCriterion, HRankCriterion, L1Criterion, OrthConvCriterion, SssCriterion,
    TaylorCriterion, TppCriterion,
};
pub use rank::matrix_rank;

/// All standard criteria, boxed, in the order of the paper's Fig. 6
/// legend (plus the class-agnostic Taylor extra).
pub fn standard_criteria() -> Vec<Box<dyn FilterCriterion>> {
    vec![
        Box::new(L1Criterion::new()),
        Box::new(SssCriterion::new()),
        Box::new(HRankCriterion::new(8)),
        Box::new(TppCriterion::new(16)),
        Box::new(OrthConvCriterion::new()),
        Box::new(DepGraphCriterion::full_grouping()),
        Box::new(DepGraphCriterion::no_grouping()),
        Box::new(TaylorCriterion::new(16)),
        Box::new(FpgmCriterion::new()),
    ]
}
