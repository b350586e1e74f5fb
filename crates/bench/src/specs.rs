//! The paper's evaluation grid, and the one place that knows it.
//!
//! Each table and figure is an [`Artefact`] that reads the outcomes of
//! a few [`SuiteSpec`]s: independent, individually runnable cells with
//! stable ids. [`suite_specs`] is the deduplicated union of those cells
//! (a run several artefacts read, such as the four Table I pipelines,
//! appears once). Two front ends share [`run_spec`]: `exp_suite`
//! renders artefacts through a [`Suite`], which runs each spec at most
//! once per process, and the fleet runner (`capfleet`) queues the specs
//! as separate work items. Every spec, whatever its criterion, runs the
//! same `ClassAwarePruner` loop; with a run directory it goes through
//! the crash-safe `RunDir` + `resume` path, so a fleet worker
//! rescheduled mid-run replays bit-identically.

use crate::setup::train_config;
use crate::{
    build_dataset, pretrain_cached, render_fig4, render_fig6, render_fig7, render_fig8,
    render_table1, render_table2, render_table3, Arch, DataKind, ExperimentScale, Fig4Result,
    Fig6Row, Fig7Result, Fig8Row, Table1Row, Table2Row, Table3Row,
};
use cap_baselines::standard_criteria;
use cap_core::{
    evaluate_scores, find_prunable_sites, layerwise_mean_scores, ClassAwarePruner, NetworkScores,
    PruneConfig, PruneStrategy, ScoreConfig, ScoreHistogram,
};
use cap_nn::{RegularizerConfig, RunDir};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One runnable cell of the experiment grid.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Stable, filesystem-safe unique id (doubles as the fleet spec id
    /// and run-directory name).
    pub id: String,
    /// Model architecture.
    pub arch: Arch,
    /// Dataset stand-in.
    pub data: DataKind,
    /// Pruning strategy.
    pub strategy: PruneStrategy,
    /// Regulariser used for pre-training, and for fine-tuning under
    /// Eq. 3–7 (a baseline criterion fine-tunes under its own
    /// `train_regularizer`).
    pub regularizer: RegularizerConfig,
    /// `None` runs the class-aware pipeline; `Some(name)` runs the
    /// named baseline criterion from [`standard_criteria`].
    pub criterion: Option<String>,
}

/// What one spec produced, whichever path executed it.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// Accuracy of the pre-trained (unpruned) model.
    pub baseline_accuracy: f64,
    /// Accuracy after pruning + fine-tuning.
    pub final_accuracy: f64,
    /// Fraction of filters removed.
    pub pruning_ratio: f64,
    /// Fraction of FLOPs removed.
    pub flops_reduction: f64,
    /// The criterion's scores of the network before and after pruning
    /// (Figs. 4 and 7 read those of Eq. 3–7 specs).
    pub scores: (NetworkScores, NetworkScores),
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

impl SuiteSpec {
    /// A class-aware pipeline cell. Its id says what it changes from the
    /// paper's setting: `t1-` changes nothing (Table I), `t2-` the
    /// strategy (Table II), `t3-` the regulariser (Table III).
    fn pipeline(
        arch: Arch,
        data: DataKind,
        strategy: PruneStrategy,
        regularizer: RegularizerConfig,
    ) -> SuiteSpec {
        let pair = format!("{}-{}", slug(arch.name()), slug(data.name()));
        let id = if regularizer != RegularizerConfig::paper() {
            format!("t3-{pair}-{}", slug(regularizer.label()))
        } else if strategy != PruneStrategy::paper_combined(data.classes()) {
            format!("t2-{pair}-{}", slug(strategy.label()))
        } else {
            format!("t1-{pair}")
        };
        SuiteSpec {
            id,
            arch,
            data,
            strategy,
            regularizer,
            criterion: None,
        }
    }

    /// The paper's setting on one model/dataset pair.
    fn paper(arch: Arch, data: DataKind) -> SuiteSpec {
        SuiteSpec::pipeline(
            arch,
            data,
            PruneStrategy::paper_combined(data.classes()),
            RegularizerConfig::paper(),
        )
    }

    /// A Fig. 6 cell: `criterion` prunes the paper-regularised
    /// VGG16-C10 model, 10% of the filters per iteration.
    fn baseline(criterion: &str) -> SuiteSpec {
        SuiteSpec {
            id: format!("fig6-{}", slug(criterion)),
            strategy: PruneStrategy::Percentage { fraction: 0.10 },
            criterion: Some(criterion.to_string()),
            ..SuiteSpec::paper(Arch::Vgg16, DataKind::C10)
        }
    }

    fn model_name(&self) -> String {
        format!("{}-{}", self.arch.name(), self.data.name())
    }
}

/// The four model/dataset pairs of Table I (and Fig. 7).
const PAIRS: [(Arch, DataKind); 4] = [
    (Arch::Vgg16, DataKind::C10),
    (Arch::Vgg19, DataKind::C100),
    (Arch::ResNet56, DataKind::C10),
    (Arch::ResNet56, DataKind::C100),
];

/// The layers Fig. 4 displays, as prunable-site indices: VGG16-C10
/// conv1, VGG19-C100 conv3 and a mid-network ResNet56-C10 layer.
const FIG4_SITES: [(Arch, DataKind, usize); 3] = [
    (Arch::Vgg16, DataKind::C10, 0),
    (Arch::Vgg19, DataKind::C100, 2),
    (Arch::ResNet56, DataKind::C10, 19),
];

/// The regularisers of the Table III ablation and of Fig. 8, in row
/// order.
fn regularizers() -> [RegularizerConfig; 4] {
    [
        RegularizerConfig::none(),
        RegularizerConfig::l1_only(),
        RegularizerConfig::orth_only(),
        RegularizerConfig::paper(),
    ]
}

/// One table or figure of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artefact {
    /// Table I: the paper's setting on four model/dataset pairs.
    Table1,
    /// Fig. 4: single-layer score histograms before and after pruning.
    Fig4,
    /// Fig. 7: per-layer mean scores before and after pruning.
    Fig7,
    /// Table II: strategy ablation on ResNet56-C10.
    Table2,
    /// Table III: regulariser ablation on VGG16-C10 and ResNet56-C10.
    Table3,
    /// Fig. 8: score distributions of VGG16-C10 pre-trained under each
    /// regulariser (no pruning).
    Fig8,
    /// Fig. 6: the class-aware method against every baseline criterion.
    Fig6,
}

impl Artefact {
    /// Every artefact, in the order `exp_suite` prints them.
    pub const ALL: [Artefact; 7] = [
        Artefact::Table1,
        Artefact::Fig4,
        Artefact::Fig7,
        Artefact::Table2,
        Artefact::Table3,
        Artefact::Fig8,
        Artefact::Fig6,
    ];

    /// The id that selects this artefact on `exp_suite`'s command line.
    pub fn id(self) -> &'static str {
        match self {
            Artefact::Table1 => "table1",
            Artefact::Fig4 => "fig4",
            Artefact::Fig7 => "fig7",
            Artefact::Table2 => "table2",
            Artefact::Table3 => "table3",
            Artefact::Fig8 => "fig8",
            Artefact::Fig6 => "fig6",
        }
    }

    /// The artefact with id `id`.
    ///
    /// # Errors
    ///
    /// Names the unknown id and lists the valid ones.
    pub fn from_id(id: &str) -> Result<Artefact, String> {
        Artefact::ALL
            .into_iter()
            .find(|a| a.id() == id)
            .ok_or_else(|| {
                let valid: Vec<&str> = Artefact::ALL.iter().map(|a| a.id()).collect();
                format!("unknown artefact {id:?} (valid: {})", valid.join(", "))
            })
    }

    /// The specs whose outcomes this artefact reads, one per row in row
    /// order. Fig. 8 reads none: it scores the cached pre-trained models.
    pub fn specs(self) -> Vec<SuiteSpec> {
        let pipeline = SuiteSpec::pipeline;
        match self {
            Artefact::Table1 | Artefact::Fig7 => PAIRS
                .map(|(arch, data)| SuiteSpec::paper(arch, data))
                .into(),
            Artefact::Fig4 => FIG4_SITES
                .map(|(arch, data, _)| SuiteSpec::paper(arch, data))
                .into(),
            Artefact::Table2 => [
                PruneStrategy::Percentage { fraction: 0.10 },
                PruneStrategy::Threshold {
                    threshold: cap_core::threshold_for_classes(10),
                },
                PruneStrategy::paper_combined(10),
            ]
            .map(|s| pipeline(Arch::ResNet56, DataKind::C10, s, RegularizerConfig::paper()))
            .into(),
            Artefact::Table3 => [Arch::Vgg16, Arch::ResNet56]
                .into_iter()
                .flat_map(|arch| {
                    regularizers().map(|reg| {
                        pipeline(arch, DataKind::C10, PruneStrategy::paper_combined(10), reg)
                    })
                })
                .collect(),
            Artefact::Fig8 => Vec::new(),
            Artefact::Fig6 => std::iter::once(SuiteSpec::paper(Arch::Vgg16, DataKind::C10))
                .chain(
                    standard_criteria()
                        .iter()
                        .map(|c| SuiteSpec::baseline(c.name())),
                )
                .collect(),
        }
    }
}

/// The whole grid as independent specs: every spec some artefact reads,
/// once, in the order [`Suite`] first runs them when it renders every
/// artefact.
pub fn suite_specs() -> Vec<SuiteSpec> {
    let mut specs: Vec<SuiteSpec> = Vec::new();
    for spec in Artefact::ALL.into_iter().flat_map(Artefact::specs) {
        if specs.iter().all(|s| s.id != spec.id) {
            specs.push(spec);
        }
    }
    specs
}

/// Looks a spec up by id.
pub fn find_spec(id: &str) -> Option<SuiteSpec> {
    suite_specs().into_iter().find(|s| s.id == id)
}

fn score_config(scale: &ExperimentScale) -> ScoreConfig {
    ScoreConfig {
        images_per_class: scale.images_per_class,
        tau: scale.tau,
        ..ScoreConfig::default()
    }
}

/// The pruner `spec` runs at `scale`. A baseline criterion keeps the
/// Fig. 6 schedule: at most 6 iterations, no rollback (accuracy lies in
/// [0, 1], so no drop exceeds 1.0), fine-tuning under the criterion's
/// regulariser, and `scale.seed + i − 1` as iteration `i`'s seed.
fn pruner(spec: &SuiteSpec, scale: &ExperimentScale) -> Result<ClassAwarePruner, String> {
    let config = PruneConfig {
        score: score_config(scale),
        strategy: spec.strategy,
        finetune: train_config(scale.finetune_epochs, scale, spec.regularizer),
        max_iterations: scale.max_iterations,
        accuracy_drop_limit: scale.accuracy_drop_limit,
        eval_batch: scale.batch_size,
    };
    let pruner = match &spec.criterion {
        None => ClassAwarePruner::new(config),
        Some(name) => {
            let criterion = standard_criteria()
                .into_iter()
                .find(|c| c.name() == name.as_str())
                .ok_or_else(|| format!("unknown baseline criterion {name:?}"))?;
            let config = PruneConfig {
                score: ScoreConfig {
                    seed: scale.seed,
                    ..config.score
                },
                finetune: train_config(scale.finetune_epochs, scale, criterion.train_regularizer()),
                max_iterations: scale.max_iterations.min(6),
                accuracy_drop_limit: 1.0,
                ..config
            };
            ClassAwarePruner::with_criterion(config, criterion)
        }
    };
    pruner.map_err(|e| format!("config: {e}"))
}

/// Executes one spec end-to-end at `scale`, pre-training through the
/// shared on-disk `cache`, and emits a `pipeline_done` event naming the
/// criterion.
///
/// With `run_dir`, a directory without a journal starts a fresh durable
/// run (`run_with_dir`); a directory holding a journal resumes it
/// (`ClassAwarePruner::resume`), replaying completed iterations
/// bit-identically.
///
/// # Errors
///
/// Propagates dataset/pre-train/prune errors as strings (the fleet
/// worker's exit boundary).
pub fn run_spec(
    spec: &SuiteSpec,
    scale: &ExperimentScale,
    cache: &Path,
    run_dir: Option<&Path>,
) -> Result<SpecOutcome, String> {
    let started = cap_obs::clock::now();
    let data = build_dataset(spec.data, scale).map_err(|e| format!("dataset: {e}"))?;
    let mut prepared = pretrain_cached(spec.arch, spec.data, &data, scale, spec.regularizer, cache)
        .map_err(|e| format!("pretrain: {e}"))?;
    let baseline_accuracy = prepared.baseline_accuracy;
    let pruner = pruner(spec, scale)?;
    let outcome = match run_dir {
        Some(dir) if dir.join("journal.jsonl").exists() => {
            let dir = RunDir::open(dir).map_err(|e| format!("open run dir: {e}"))?;
            let (_, outcome) = pruner
                .resume(data.train(), data.test(), &dir)
                .map_err(|e| format!("resume: {e}"))?;
            outcome
        }
        Some(dir) => {
            let dir = RunDir::create(dir).map_err(|e| format!("create run dir: {e}"))?;
            pruner
                .run_with_dir(&mut prepared.net, data.train(), data.test(), &dir)
                .map_err(|e| format!("prune: {e}"))?
        }
        None => pruner
            .run(&mut prepared.net, data.train(), data.test())
            .map_err(|e| format!("prune: {e}"))?,
    };
    let config = pruner.config();
    cap_obs::emit(
        cap_obs::Event::new("pipeline_done")
            .str("arch", spec.arch.name())
            .str("dataset", spec.data.name())
            .str("criterion", pruner.criterion().name())
            .str("strategy", config.strategy.label())
            .str("regularizer", config.finetune.regularizer.label())
            .f64("pruning_ratio", outcome.pruning_ratio())
            .f64("flops_reduction", outcome.flops_reduction())
            .f64("baseline_accuracy", baseline_accuracy)
            .f64("final_accuracy", outcome.final_accuracy)
            .str("stop_reason", format!("{:?}", outcome.stop_reason))
            .f64("elapsed_secs", started.elapsed().as_secs_f64()),
    );
    Ok(SpecOutcome {
        baseline_accuracy,
        final_accuracy: outcome.final_accuracy,
        pruning_ratio: outcome.pruning_ratio(),
        flops_reduction: outcome.flops_reduction(),
        scores: (outcome.scores_before, outcome.scores_after),
    })
}

/// Renders artefacts at one scale, running each spec at most once and
/// pre-training through one on-disk cache.
#[derive(Debug)]
pub struct Suite {
    scale: ExperimentScale,
    cache: PathBuf,
    outcomes: BTreeMap<String, SpecOutcome>,
}

impl Suite {
    /// A suite that has run nothing yet.
    pub fn new(scale: ExperimentScale, cache: impl Into<PathBuf>) -> Suite {
        Suite {
            scale,
            cache: cache.into(),
            outcomes: BTreeMap::new(),
        }
    }

    /// Runs the specs `artefact` reads that this suite has not run yet,
    /// then renders it as `exp_suite` prints it.
    ///
    /// # Errors
    ///
    /// Returns the first failing spec's error.
    pub fn render(&mut self, artefact: Artefact) -> Result<String, String> {
        let specs = artefact.specs();
        for spec in &specs {
            if !self.outcomes.contains_key(&spec.id) {
                let outcome = run_spec(spec, &self.scale, &self.cache, None)?;
                self.outcomes.insert(spec.id.clone(), outcome);
            }
        }
        let rows = specs.iter().map(|s| (s, &self.outcomes[&s.id]));
        Ok(match artefact {
            Artefact::Table1 => render_table1(
                &rows
                    .map(|(s, o)| Table1Row {
                        name: s.model_name(),
                        original_acc: o.baseline_accuracy,
                        pruned_acc: o.final_accuracy,
                        pruning_ratio: o.pruning_ratio,
                        flops_reduction: o.flops_reduction,
                    })
                    .collect::<Vec<_>>(),
            ),
            Artefact::Table2 => render_table2(
                &rows
                    .map(|(s, o)| Table2Row {
                        strategy: s.strategy.label(),
                        pruned_acc: o.final_accuracy,
                        drop: o.final_accuracy - o.baseline_accuracy,
                        pruning_ratio: o.pruning_ratio,
                        flops_reduction: o.flops_reduction,
                    })
                    .collect::<Vec<_>>(),
            ),
            Artefact::Table3 => render_table3(
                &rows
                    .map(|(s, o)| Table3Row {
                        model: s.model_name(),
                        regularizer: s.regularizer.label(),
                        pruned_acc: o.final_accuracy,
                        drop: o.final_accuracy - o.baseline_accuracy,
                        pruning_ratio: o.pruning_ratio,
                        flops_reduction: o.flops_reduction,
                    })
                    .collect::<Vec<_>>(),
            ),
            Artefact::Fig4 => render_fig4(
                &rows
                    .zip(FIG4_SITES)
                    .map(|((s, o), (_, _, site))| {
                        let (before, after) = &o.scores;
                        let site = site.min(before.sites.len().saturating_sub(1));
                        Fig4Result {
                            name: s.model_name(),
                            layer: before
                                .sites
                                .get(site)
                                .map(|s| s.label.clone())
                                .unwrap_or_default(),
                            before: ScoreHistogram::from_site(before, site),
                            after: ScoreHistogram::from_site(after, site),
                        }
                    })
                    .collect::<Vec<_>>(),
            ),
            Artefact::Fig7 => render_fig7(
                &rows
                    .map(|(s, o)| Fig7Result {
                        name: s.model_name(),
                        layers: layerwise_mean_scores(&o.scores.0, &o.scores.1),
                    })
                    .collect::<Vec<_>>(),
            ),
            Artefact::Fig6 => render_fig6(
                &specs[0].model_name(),
                &rows
                    .map(|(s, o)| Fig6Row {
                        method: s
                            .criterion
                            .clone()
                            .unwrap_or_else(|| "Class-aware (ours)".to_string()),
                        accuracy: o.final_accuracy,
                        pruning_ratio: o.pruning_ratio,
                        flops_reduction: o.flops_reduction,
                    })
                    .collect::<Vec<_>>(),
            ),
            Artefact::Fig8 => render_fig8(&self.fig8_rows()?),
        })
    }

    /// Scores VGG16-C10 as pre-trained under each regulariser.
    fn fig8_rows(&self) -> Result<Vec<Fig8Row>, String> {
        let data =
            build_dataset(DataKind::C10, &self.scale).map_err(|e| format!("dataset: {e}"))?;
        let mut rows = Vec::new();
        for reg in regularizers() {
            let mut prepared = pretrain_cached(
                Arch::Vgg16,
                DataKind::C10,
                &data,
                &self.scale,
                reg,
                &self.cache,
            )
            .map_err(|e| format!("pretrain: {e}"))?;
            let sites = find_prunable_sites(&prepared.net);
            let scores = evaluate_scores(
                &mut prepared.net,
                &sites,
                data.train(),
                &score_config(&self.scale),
            )
            .map_err(|e| format!("score: {e}"))?;
            let histogram = ScoreHistogram::from_scores(&scores);
            rows.push(Fig8Row {
                regularizer: reg.label(),
                low_fraction: histogram.low_fraction(),
                high_fraction: histogram.high_fraction(),
                polarization: histogram.polarization(),
                histogram,
            });
        }
        Ok(rows)
    }
}

/// Parses `exp_suite`'s arguments (program name excluded) into a scale
/// and the artefacts to print, in print order. `--smoke` and `--small`
/// pick the scale (default full); `--trace SPEC` belongs to the
/// telemetry setup; every other argument is an artefact id, and none
/// selects every artefact.
///
/// # Errors
///
/// Names an unknown option or artefact id and lists the valid values.
pub fn parse_suite_args(args: &[String]) -> Result<(ExperimentScale, Vec<Artefact>), String> {
    let mut scale = ExperimentScale::full();
    let mut chosen = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--small" => scale = ExperimentScale::from_name(&arg[2..])?,
            "--trace" => {
                args.next().ok_or("--trace needs a value")?;
            }
            option if option.starts_with("--") => {
                return Err(format!(
                    "unknown option {option:?} (valid: --smoke, --small, --trace SPEC)"
                ))
            }
            id => chosen.push(Artefact::from_id(id)?),
        }
    }
    let artefacts = Artefact::ALL
        .into_iter()
        .filter(|a| chosen.is_empty() || chosen.contains(a))
        .collect();
    Ok((scale, artefacts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_unique_stable_and_filesystem_safe() {
        let specs = suite_specs();
        assert!(specs.len() >= 12, "grid too small: {}", specs.len());
        let ids: BTreeSet<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), specs.len(), "duplicate spec ids");
        for id in &ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "unsafe id {id:?}"
            );
        }
        // Stable anchors other tooling (CI, docs) may reference.
        assert!(ids.contains("t1-vgg16-cifar10"), "{ids:?}");
        assert!(ids.contains("t2-resnet56-cifar10-percentage"), "{ids:?}");
        assert!(ids.contains("fig6-l1"), "{ids:?}");
        // Enumeration is deterministic.
        let again: Vec<String> = suite_specs().into_iter().map(|s| s.id).collect();
        let first: Vec<String> = specs.into_iter().map(|s| s.id).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn find_spec_round_trips_every_id() {
        for spec in suite_specs() {
            let found = find_spec(&spec.id).expect("id must round-trip");
            assert_eq!(found.criterion, spec.criterion);
        }
        assert!(find_spec("no-such-spec").is_none());
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn suite_args_pick_scale_and_artefacts_in_print_order() {
        let (scale, all) = parse_suite_args(&args(&["--smoke"])).unwrap();
        assert_eq!(scale, ExperimentScale::smoke());
        assert_eq!(all, Artefact::ALL);
        let (scale, some) =
            parse_suite_args(&args(&["fig6", "--trace", "pretty", "table1", "fig6"])).unwrap();
        assert_eq!(scale, ExperimentScale::full());
        assert_eq!(some, [Artefact::Table1, Artefact::Fig6]);
        let (scale, _) = parse_suite_args(&args(&["--small", "table2"])).unwrap();
        assert_eq!(scale, ExperimentScale::small());
    }

    #[test]
    fn suite_args_reject_unknown_options_and_list_the_valid_ones() {
        let err = parse_suite_args(&args(&["--medium"])).unwrap_err();
        assert!(err.contains("--smoke") && err.contains("--small"), "{err}");
        assert!(parse_suite_args(&args(&["table1", "--trace"])).is_err());
    }
}
