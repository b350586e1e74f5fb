#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section. [`specs`] defines the grid: which runs make up
//! each table and figure, how each run is configured, and how its rows
//! are read. One entry drives both the `exp_suite` binary and the fleet
//! runner (`capfleet`). `bench_baseline` gates the GEMM kernels and the
//! observability layer's overhead; the timing benchmark of record is
//! the separate `capbench` workspace.
//!
//! | Artefact | Paper content |
//! |---|---|
//! | `table1` | Table I — accuracy / pruning ratio / FLOPs reduction for the four model-dataset pairs |
//! | `table2` | Table II — strategy ablation on ResNet56-C10 |
//! | `table3` | Table III — regulariser ablation |
//! | `fig4` | Fig. 4 — single-layer score distributions before/after pruning |
//! | `fig6` | Fig. 6 — comparison against L1 / SSS / HRank / TPP / OrthConv / DepGraph (+ Taylor, FPGM) |
//! | `fig7` | Fig. 7 — per-layer mean scores before/after pruning |
//! | `fig8` | Fig. 8 — score distributions under regulariser variants |

mod experiments;
mod render;
mod scale;
mod setup;
pub mod specs;
mod trace;

pub use experiments::{Fig4Result, Fig6Row, Fig7Result, Fig8Row, Table1Row, Table2Row, Table3Row};
pub use render::{
    render_fig4, render_fig6, render_fig7, render_fig8, render_table1, render_table2, render_table3,
};
pub use scale::ExperimentScale;
pub use setup::{build_dataset, build_model, pretrain, pretrain_cached, Arch, DataKind, Prepared};
pub use trace::{finalize_telemetry, init_trace, init_trace_quiet};
