//! The overall class-aware pruning framework (paper Fig. 5): score →
//! prune → fine-tune → repeat, until no filter is prunable or accuracy
//! cannot be recovered. The loop ranks filters by any
//! [`FilterCriterion`]: Eq. 3–7 by default, or one of the criteria Fig. 6
//! compares against.
//!
//! # Crash safety
//!
//! [`ClassAwarePruner::run_with_dir`] persists every completed
//! iteration through a [`RunDir`]: a generation-numbered checkpoint of
//! the network plus one journal line per iteration, both durable before
//! the next iteration starts. [`ClassAwarePruner::resume`] replays the
//! journal and continues exactly where a killed run stopped. Because
//! the whole loop is deterministic (fixed seeds, eval-mode scoring, the
//! cap-par determinism contract) and no optimizer state crosses
//! iteration boundaries, a resumed run finishes with final weights
//! bit-identical to the uninterrupted run, at any thread count.

use crate::{
    analyze_network, apply_site_pruning, find_prunable_sites, select_filters, ClassAttribution,
    ClassAwareCriterion, FilterCriterion, FlopsReport, NetworkScores, PrunableSite, PruneError,
    PruneSelection, PruneStrategy, ScoreConfig,
};
use cap_data::Dataset;
use cap_nn::{accuracy, evaluate, fit, predict_all, ConfusionMatrix, Network, RunDir, TrainConfig};
use cap_obs::json::Json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the iterative pruning framework.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// Importance-score evaluation settings (Eq. 3–7). Under another
    /// criterion only `seed` is read: iteration `i` scores with
    /// `seed + i − 1`.
    pub score: ScoreConfig,
    /// Filter-selection strategy (Sec. III-C).
    pub strategy: PruneStrategy,
    /// Fine-tuning (retraining with the modified cost) after each
    /// pruning iteration.
    pub finetune: TrainConfig,
    /// Upper bound on pruning iterations (safety net; the paper iterates
    /// until convergence).
    pub max_iterations: usize,
    /// Maximum tolerated accuracy drop relative to the baseline; if
    /// fine-tuning cannot recover to within this bound the framework
    /// rolls back the iteration and stops.
    pub accuracy_drop_limit: f64,
    /// Batch size used for accuracy evaluation.
    pub eval_batch: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            score: ScoreConfig::default(),
            strategy: PruneStrategy::paper_combined(10),
            finetune: TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
            max_iterations: 30,
            accuracy_drop_limit: 0.02,
            eval_batch: 64,
        }
    }
}

/// Why the pruning loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No filter fell below the pruning criterion — the paper's
    /// convergence condition ("the remaining filters are very important
    /// for many classes").
    NoPrunableFilters,
    /// Fine-tuning could not recover accuracy within the configured
    /// bound; the last iteration was rolled back.
    AccuracyUnrecoverable,
    /// The iteration cap was reached.
    MaxIterations,
}

/// Statistics of one pruning iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Filters removed this iteration.
    pub removed_filters: usize,
    /// Filters remaining across all prunable sites afterwards.
    pub remaining_filters: usize,
    /// Test accuracy directly after surgery, before fine-tuning.
    pub accuracy_after_prune: f64,
    /// Test accuracy after fine-tuning.
    pub accuracy_after_finetune: f64,
    /// Mean criterion score of the filters scored this iteration.
    pub mean_score: f64,
    /// FLOPs per sample after this iteration.
    pub flops: u64,
    /// Parameters after this iteration.
    pub params: u64,
    /// Wall-clock seconds spent scoring and selecting filters.
    pub secs_score: f64,
    /// Wall-clock seconds spent on filter surgery.
    pub secs_surgery: f64,
    /// Wall-clock seconds spent fine-tuning.
    pub secs_finetune: f64,
    /// Wall-clock seconds spent in accuracy evaluations.
    pub secs_eval: f64,
}

/// The result of a full pruning run.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Test accuracy of the unpruned network.
    pub baseline_accuracy: f64,
    /// Test accuracy of the final (pruned, fine-tuned) network.
    pub final_accuracy: f64,
    /// Cost report of the unpruned network.
    pub baseline_cost: FlopsReport,
    /// Cost report of the final network.
    pub final_cost: FlopsReport,
    /// The criterion's scores of the unpruned network (Fig. 4/7
    /// "before").
    pub scores_before: NetworkScores,
    /// The criterion's scores of the final network (Fig. 4/7 "after"),
    /// drawn with the same seed as `scores_before`.
    pub scores_after: NetworkScores,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
}

impl PruneOutcome {
    /// The tables' pruning ratio: relative parameter reduction.
    pub fn pruning_ratio(&self) -> f64 {
        self.final_cost.param_reduction_vs(&self.baseline_cost)
    }

    /// The tables' FLOPs reduction.
    pub fn flops_reduction(&self) -> f64 {
        self.final_cost.flops_reduction_vs(&self.baseline_cost)
    }

    /// Accuracy drop (positive when the pruned model is worse).
    pub fn accuracy_drop(&self) -> f64 {
        self.baseline_accuracy - self.final_accuracy
    }

    /// Renders the iteration trajectory as CSV (header + one row per
    /// iteration), for downstream plotting.
    ///
    /// # Example
    ///
    /// ```
    /// # use cap_core::{PruneOutcome, StopReason, NetworkScores, FlopsReport};
    /// # fn show(outcome: &PruneOutcome) {
    /// let csv = outcome.iterations_csv();
    /// assert!(csv.starts_with("iteration,"));
    /// # }
    /// ```
    pub fn iterations_csv(&self) -> String {
        let mut out = String::from(
            "iteration,removed_filters,remaining_filters,accuracy_after_prune,accuracy_after_finetune,mean_score,flops,params,secs_score,secs_surgery,secs_finetune,secs_eval\n",
        );
        for r in &self.iterations {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.6},{},{},{:.6},{:.6},{:.6},{:.6}\n",
                r.iteration,
                r.removed_filters,
                r.remaining_filters,
                r.accuracy_after_prune,
                r.accuracy_after_finetune,
                r.mean_score,
                r.flops,
                r.params,
                r.secs_score,
                r.secs_surgery,
                r.secs_finetune,
                r.secs_eval
            ));
        }
        out
    }
}

/// The class-aware pruner: drives the Fig. 5 loop over a trained network.
#[derive(Debug, Clone)]
pub struct ClassAwarePruner {
    config: PruneConfig,
    criterion: Arc<dyn FilterCriterion>,
}

impl ClassAwarePruner {
    /// Creates a pruner ranking filters by Eq. 3–7 under `config.score`,
    /// after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidConfig`] for invalid score/strategy
    /// settings, a zero iteration cap, or a negative drop limit.
    pub fn new(config: PruneConfig) -> Result<Self, PruneError> {
        let criterion = ClassAwareCriterion::new(config.score);
        Self::with_criterion(config, Box::new(criterion))
    }

    /// Creates a pruner ranking filters by `criterion` under the same
    /// loop: the schedule, rollback bound, journal and resume are
    /// `config`'s, whatever the criterion.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_criterion(
        config: PruneConfig,
        criterion: Box<dyn FilterCriterion>,
    ) -> Result<Self, PruneError> {
        config.score.validate()?;
        config.strategy.validate()?;
        if config.max_iterations == 0 {
            return Err(PruneError::InvalidConfig {
                reason: "max_iterations must be non-zero".to_string(),
            });
        }
        if !(config.accuracy_drop_limit.is_finite() && config.accuracy_drop_limit >= 0.0) {
            return Err(PruneError::InvalidConfig {
                reason: format!(
                    "accuracy_drop_limit {} must be finite and non-negative",
                    config.accuracy_drop_limit
                ),
            });
        }
        if config.eval_batch == 0 {
            return Err(PruneError::InvalidConfig {
                reason: "eval_batch must be non-zero".to_string(),
            });
        }
        Ok(ClassAwarePruner {
            config,
            criterion: criterion.into(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PruneConfig {
        &self.config
    }

    /// The criterion filters are ranked by.
    pub fn criterion(&self) -> &dyn FilterCriterion {
        &*self.criterion
    }

    /// Runs the full iterative pruning on a trained network.
    ///
    /// `net` is modified in place; on an unrecoverable accuracy drop the
    /// last iteration is rolled back so `net` always leaves in its best
    /// pruned state.
    ///
    /// # Errors
    ///
    /// Propagates scoring, surgery, training and analysis errors. In the
    /// error case `net` may be left mid-iteration.
    pub fn run(
        &self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<PruneOutcome, PruneError> {
        let baseline = self.compute_baseline(net, train, test)?;
        self.drive(net, train, test, None, Vec::new(), 1, None, baseline)
    }

    /// Like [`run`](Self::run), but makes every completed iteration
    /// durable in `dir` (created with [`RunDir::create`]): generation 0
    /// holds the unpruned network, generation `i` the state after
    /// iteration `i`, and the journal records each iteration's
    /// statistics. A run killed at any point can be continued with
    /// [`resume`](Self::resume).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus [`PruneError::Persistence`] when a
    /// checkpoint or journal write fails.
    pub fn run_with_dir(
        &self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
        dir: &RunDir,
    ) -> Result<PruneOutcome, PruneError> {
        let baseline = self.compute_baseline(net, train, test)?;
        dir.save_generation(0, net).map_err(persist_err)?;
        dir.append_journal(&meta_line(
            config_fingerprint(&self.config, self.criterion()),
            self.config.max_iterations,
        ))
        .map_err(persist_err)?;
        self.drive(net, train, test, Some(dir), Vec::new(), 1, None, baseline)
    }

    /// Resumes a run persisted by [`run_with_dir`](Self::run_with_dir)
    /// after a crash (or completion — resuming a finished run just
    /// reconstructs its outcome), returning the final network and the
    /// combined outcome covering replayed and newly run iterations.
    ///
    /// The journal is the source of truth: the newest *valid*
    /// checkpoint at or below the last journaled iteration is loaded
    /// (transparently falling back past corrupt generations, whose
    /// iterations are then deterministically re-run), stop conditions
    /// are re-evaluated from the journal, and the loop continues.
    ///
    /// # Errors
    ///
    /// [`PruneError::Persistence`] when the journal is missing or
    /// corrupt, the configuration or criterion differs from the recorded
    /// run, or no checkpoint validates; otherwise as [`run`](Self::run).
    pub fn resume(
        &self,
        train: &Dataset,
        test: &Dataset,
        dir: &RunDir,
    ) -> Result<(Network, PruneOutcome), PruneError> {
        let cfg = &self.config;
        let records = dir.read_journal().map_err(persist_err)?;
        let meta = records
            .iter()
            .find(|j| j.get("type").and_then(Json::as_str) == Some("meta"))
            .ok_or_else(|| PruneError::Persistence {
                reason: format!(
                    "{} has no meta journal record — not a run started with run_with_dir",
                    dir.root().display()
                ),
            })?;
        let recorded_fp = meta.get("config_fp").and_then(Json::as_u64).unwrap_or(0);
        let fp = config_fingerprint(cfg, self.criterion());
        if recorded_fp != fp {
            return Err(PruneError::Persistence {
                reason: format!(
                    "configuration changed since the run was started \
                     (fingerprint {recorded_fp:#x} on disk vs {fp:#x} now); \
                     resume requires the identical PruneConfig and criterion"
                ),
            });
        }
        // Journal iteration records, last occurrence winning (a resume
        // that re-ran iterations after a checkpoint fallback appends
        // duplicates; determinism makes them identical up to timings).
        let mut by_iter: BTreeMap<usize, IterationRecord> = BTreeMap::new();
        for j in &records {
            if j.get("type").and_then(Json::as_str) == Some("iter") {
                let r = parse_iter_record(j).ok_or_else(|| PruneError::Persistence {
                    reason: "journal iter record with missing fields".to_string(),
                })?;
                by_iter.insert(r.iteration, r);
            }
        }
        let journaled = by_iter.len();
        if by_iter.keys().copied().ne(1..=journaled) {
            return Err(PruneError::Persistence {
                reason: format!(
                    "journal iterations are not contiguous: {:?}",
                    by_iter.keys().collect::<Vec<_>>()
                ),
            });
        }
        // Newest valid checkpoint at or below the last journaled
        // iteration (an orphan checkpoint newer than the journal — a
        // crash between checkpoint write and journal append — is
        // ignored and overwritten by the re-run).
        let (gen, mut net) =
            dir.latest_valid(Some(journaled as u64))
                .ok_or_else(|| PruneError::Persistence {
                    reason: format!(
                        "no checkpoint in {} passes validation; cannot resume",
                        dir.root().display()
                    ),
                })?;
        let replayed: Vec<IterationRecord> =
            (1..=gen as usize).map(|i| by_iter[&i].clone()).collect();
        cap_obs::emit(
            cap_obs::Event::new("prune_resume")
                .u64("journaled_iterations", journaled as u64)
                .u64("resume_generation", gen),
        );
        // Baseline statistics are recomputed from the unpruned network;
        // scoring and evaluation are deterministic and read-only, so
        // the numbers are bit-identical to the original run's (and a
        // resume from generation 0 reuses the pass for iteration 1).
        let mut gen0 = dir.load_generation(0).map_err(persist_err)?;
        let baseline = self.compute_baseline(&mut gen0, train, test)?;
        // Re-evaluate the stop conditions the crash may have preempted:
        // the journal can end with an iteration whose rollback was
        // decided but not yet applied.
        let mut forced_stop = None;
        if let Some(last) = replayed.last() {
            if baseline.accuracy - last.accuracy_after_finetune > cfg.accuracy_drop_limit {
                let prev = (last.iteration - 1) as u64;
                net = dir.load_generation(prev).map_err(persist_err)?;
                forced_stop = Some(StopReason::AccuracyUnrecoverable);
            }
        }
        let start = gen as usize + 1;
        let outcome = self.drive(
            &mut net,
            train,
            test,
            Some(dir),
            replayed,
            start,
            forced_stop,
            baseline,
        )?;
        Ok((net, outcome))
    }

    /// Baseline statistics of the unpruned network (all read-only
    /// passes; `net` weights are not modified).
    fn compute_baseline(
        &self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<Baseline, PruneError> {
        let cfg = &self.config;
        let (in_c, in_h, in_w) = input_dims(train)?;
        let accuracy = evaluate(net, test.images(), test.labels(), cfg.eval_batch)?;
        let cost = analyze_network(net, in_c, in_h, in_w)?;
        let pass = self.score_pass(net, train, 1)?;
        Ok(Baseline {
            accuracy,
            cost,
            pass,
        })
    }

    /// The seed the criterion scores with at 1-based `iteration`.
    fn seed(&self, iteration: usize) -> u64 {
        self.config.score.seed.wrapping_add(iteration as u64 - 1)
    }

    /// One timed scoring pass over `net`'s current prunable sites.
    fn score_pass(
        &self,
        net: &mut Network,
        train: &Dataset,
        iteration: usize,
    ) -> Result<ScorePass, PruneError> {
        let started = cap_obs::clock::now();
        let _span = cap_obs::span!("core.prune.score");
        let sites = find_prunable_sites(net);
        let (scores, attribution) =
            self.criterion
                .score_with_attribution(net, &sites, train, self.seed(iteration))?;
        Ok(ScorePass {
            sites,
            scores,
            attribution,
            secs: started.elapsed().as_secs_f64(),
        })
    }

    /// The Fig. 5 loop over iterations `start..=max_iterations` (shared
    /// by fresh, persisted and resumed runs), followed by the final
    /// analysis. `iterations` carries records replayed from a journal;
    /// `forced_stop` skips the loop when resume already determined the
    /// run is over.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
        persist: Option<&RunDir>,
        mut iterations: Vec<IterationRecord>,
        start: usize,
        forced_stop: Option<StopReason>,
        baseline: Baseline,
    ) -> Result<PruneOutcome, PruneError> {
        let _run_span = cap_obs::span!("core.prune.run");
        let cfg = &self.config;
        let (in_c, in_h, in_w) = input_dims(train)?;
        let baseline_accuracy = baseline.accuracy;
        let baseline_cost = baseline.cost;
        let scores_before = baseline.pass.scores.clone();
        // Iteration 1 prunes the unpruned network, which the baseline
        // pass already scored with its seed.
        let mut first_pass = (start == 1).then_some(baseline.pass);
        cap_obs::emit(
            cap_obs::Event::new("prune_start")
                .f64("baseline_accuracy", baseline_accuracy)
                .u64("baseline_flops", baseline_cost.total_flops)
                .u64("baseline_params", baseline_cost.total_params)
                .u64("max_iterations", cfg.max_iterations as u64),
        );

        // Durable run history: persisted runs record a sampled time
        // series (`series.capts`), per-class pruning attribution
        // (`class_attribution.jsonl`), alert rules (`alerts.jsonl`) and
        // the span profile (`profile.folded`) alongside the journal.
        // The guard writes the final profile, stops the recorder and
        // clears the rules however the loop exits.
        let history = persist.map(|dir| RunHistory::start(dir, baseline_accuracy, cfg));

        let mut stop_reason = forced_stop.unwrap_or(StopReason::MaxIterations);
        let last_iteration = if forced_stop.is_some() {
            // Resume determined the run already ended (e.g. rollback):
            // an empty range skips the loop entirely.
            0
        } else {
            cfg.max_iterations
        };
        for iteration in start..=last_iteration {
            let _iter_span = cap_obs::span!("core.prune.iteration");
            // Live gauge: a mid-run /metrics scrape shows which pruning
            // iteration is underway.
            cap_obs::gauge_set("core.prune.iteration", iteration as f64);

            let pass = match first_pass.take() {
                Some(pass) => pass,
                None => self.score_pass(net, train, iteration)?,
            };
            let t_select = cap_obs::clock::now();
            let selection = select_filters(&pass.scores, &cfg.strategy)?;
            let secs_score = pass.secs + t_select.elapsed().as_secs_f64();
            if selection.is_empty() {
                stop_reason = StopReason::NoPrunableFilters;
                break;
            }

            let t_surgery = cap_obs::clock::now();
            let snapshot = net.clone();
            {
                let _span = cap_obs::span!("core.prune.surgery");
                for (si, site) in pass.sites.iter().enumerate() {
                    if selection.remove[si].is_empty() {
                        continue;
                    }
                    let keep = selection.keep_for(si, pass.scores.sites[si].scores.len());
                    apply_site_pruning(net, site, &keep)?;
                }
            }
            let secs_surgery = t_surgery.elapsed().as_secs_f64();

            let t_eval1 = cap_obs::clock::now();
            let accuracy_after_prune = {
                let _span = cap_obs::span!("core.prune.eval");
                evaluate(net, test.images(), test.labels(), cfg.eval_batch)?
            };
            let mut secs_eval = t_eval1.elapsed().as_secs_f64();

            let t_finetune = cap_obs::clock::now();
            {
                let _span = cap_obs::span!("core.prune.finetune");
                fit(net, train.images(), train.labels(), &cfg.finetune)?;
            }
            let secs_finetune = t_finetune.elapsed().as_secs_f64();

            // One prediction pass gives both the accuracy and, in a
            // persisted run, the per-class recall.
            let t_eval2 = cap_obs::clock::now();
            let predictions = {
                let _span = cap_obs::span!("core.prune.eval");
                predict_all(net, test.images(), cfg.eval_batch)?
            };
            let accuracy_after_finetune = accuracy(&predictions, test.labels())?;
            secs_eval += t_eval2.elapsed().as_secs_f64();

            let cost = analyze_network(net, in_c, in_h, in_w)?;
            let remaining = find_prunable_sites(net)
                .iter()
                .map(|s| s.filters(net).unwrap_or(0))
                .sum();
            let record = IterationRecord {
                iteration,
                removed_filters: selection.total_removed(),
                remaining_filters: remaining,
                accuracy_after_prune,
                accuracy_after_finetune,
                mean_score: pass.scores.mean(),
                flops: cost.total_flops,
                params: cost.total_params,
                secs_score,
                secs_surgery,
                secs_finetune,
                secs_eval,
            };
            emit_iteration(&record);
            cap_obs::counter_add("core.filters_removed_total", record.removed_filters as u64);
            cap_obs::gauge_set("core.flops", record.flops as f64);
            cap_obs::gauge_set("core.params", record.params as f64);
            cap_obs::gauge_set("core.accuracy", record.accuracy_after_finetune);
            cap_obs::gauge_set("core.remaining_filters", record.remaining_filters as f64);
            if let Some(h) = history.as_ref() {
                h.publish_iteration(&record, &pass, &selection, &predictions, test.labels())?;
            }
            if let Some(dir) = persist {
                // Checkpoint first, then the journal line: a crash in
                // between leaves an orphan checkpoint that resume
                // ignores. Only once both are durable may the injected
                // crash fire (it stands in for a SIGKILL here).
                dir.save_generation(iteration as u64, net)
                    .map_err(persist_err)?;
                dir.append_journal(&iter_line(&record))
                    .map_err(persist_err)?;
                cap_faults::maybe_crash_after_iter(iteration as u64);
                cap_faults::maybe_wedge_after_iter(iteration as u64);
            }
            iterations.push(record);
            if baseline_accuracy - accuracy_after_finetune > cfg.accuracy_drop_limit {
                *net = snapshot;
                stop_reason = StopReason::AccuracyUnrecoverable;
                break;
            }
        }

        if let Some(dir) = persist {
            let final_gen = match stop_reason {
                StopReason::AccuracyUnrecoverable => iterations.len().saturating_sub(1),
                _ => iterations.len(),
            };
            dir.append_journal(&stop_line(stop_reason, final_gen as u64))
                .map_err(persist_err)?;
        }
        let final_accuracy = evaluate(net, test.images(), test.labels(), cfg.eval_batch)?;
        let final_cost = analyze_network(net, in_c, in_h, in_w)?;
        let sites_final = find_prunable_sites(net);
        let scores_after = self
            .criterion
            .score(net, &sites_final, train, self.seed(1))?;
        cap_obs::emit(
            cap_obs::Event::new("prune_done")
                .u64("iterations", iterations.len() as u64)
                .f64("final_accuracy", final_accuracy)
                .u64("final_flops", final_cost.total_flops)
                .u64("final_params", final_cost.total_params)
                .str("stop_reason", format!("{stop_reason:?}")),
        );
        Ok(PruneOutcome {
            baseline_accuracy,
            final_accuracy,
            baseline_cost,
            final_cost,
            scores_before,
            scores_after,
            iterations,
            stop_reason,
        })
    }
}

/// Baseline statistics of the unpruned network.
struct Baseline {
    accuracy: f64,
    cost: FlopsReport,
    /// The criterion's pass over the unpruned network with iteration 1's
    /// seed: `scores_before`, and iteration 1's scores when the loop
    /// starts there.
    pass: ScorePass,
}

/// What one scoring pass produced, with its wall-clock seconds.
struct ScorePass {
    sites: Vec<PrunableSite>,
    scores: NetworkScores,
    attribution: Option<ClassAttribution>,
    secs: f64,
}

/// Consecutive bit-identical `core.prune.iteration` samples tolerated
/// before the stall alert fires (~5 min at the default 250 ms cadence).
const STALL_WINDOW: usize = 1200;
/// Trailing sample-time window for the numeric-fault rate rule.
const NAN_WINDOW_SECS: f64 = 3600.0;

/// Run-history side of a persisted pruning run: owns the sampling
/// recorder writing `<run-dir>/series.capts`, the alert rules feeding
/// `<run-dir>/alerts.jsonl`, the per-class attribution sidecar, and
/// `<run-dir>/profile.folded`, the span tree folded into flamegraph
/// stacks. Dropping it (any exit from the loop, including errors)
/// writes the final profile, stops the recorder and uninstalls the
/// rules.
struct RunHistory<'a> {
    dir: &'a RunDir,
    /// Whether *this* run started the process-global recorder (another
    /// concurrent run may already own it; then we must not stop it).
    recording: bool,
}

impl<'a> RunHistory<'a> {
    fn start(dir: &'a RunDir, baseline_accuracy: f64, cfg: &PruneConfig) -> RunHistory<'a> {
        let recording = match cap_obs::recorder::start_global(
            &dir.root().join("series.capts"),
            cap_obs::recorder::interval_from_env(),
        ) {
            Ok(started) => started,
            Err(e) => {
                // History is best-effort: a broken series file must not
                // kill a pruning run that the journal keeps safe.
                eprintln!("run history: recorder disabled: {e}");
                false
            }
        };
        cap_obs::alerts::install(
            vec![
                cap_obs::alerts::Rule {
                    name: "numeric-faults".to_string(),
                    kind: cap_obs::alerts::RuleKind::NanRate {
                        series: "nn.numeric_faults_total".to_string(),
                        max_increase: 0.0,
                        window_secs: NAN_WINDOW_SECS,
                    },
                },
                cap_obs::alerts::Rule {
                    name: "accuracy-drop".to_string(),
                    kind: cap_obs::alerts::RuleKind::AccuracyDrop {
                        series: "core.accuracy".to_string(),
                        baseline: baseline_accuracy,
                        max_drop: cfg.accuracy_drop_limit,
                    },
                },
                cap_obs::alerts::Rule {
                    name: "iteration-stall".to_string(),
                    kind: cap_obs::alerts::RuleKind::Stall {
                        series: "core.prune.iteration".to_string(),
                        window: STALL_WINDOW,
                    },
                },
            ],
            Some(dir.root().join("alerts.jsonl")),
            Some(dir.root().join("flight_alert.json")),
        );
        RunHistory { dir, recording }
    }

    /// Rewrites `profile.folded` from the span totals recorded so far.
    /// Best-effort like the recorder: a failed write must not kill a
    /// run that the journal keeps safe.
    fn write_profile(&self) {
        let folded = cap_obs::flame::folded_string(&cap_obs::span_stacks());
        let path = self.dir.root().join("profile.folded");
        if let Err(e) = cap_obs::fsx::atomic_write(&path, folded.as_bytes()) {
            eprintln!("run history: {}: {e}", path.display());
        }
    }

    /// Publishes the per-class view of one completed iteration:
    /// `core.class_accuracy.<k>` gauges (recall of the test-set
    /// `predictions` against `labels`) and a durable boundary sample
    /// carrying them; with a criterion that attributes its scores to
    /// classes, also `core.class_importance.<k>` gauges (mean `s_{f,n}`
    /// over all scored filters) and one `class_attribution.jsonl` line
    /// per removed filter.
    fn publish_iteration(
        &self,
        record: &IterationRecord,
        pass: &ScorePass,
        selection: &PruneSelection,
        predictions: &[usize],
        labels: &[usize],
    ) -> Result<(), PruneError> {
        let classes = pass.scores.classes;
        let cm = ConfusionMatrix::from_predictions(predictions, labels, classes)?;
        for k in 0..classes {
            if let Some(r) = cm.recall(k) {
                cap_obs::gauge_set(&format!("core.class_accuracy.{k}"), r);
            }
        }
        if let Some(attribution) = &pass.attribution {
            self.publish_attribution(record, &pass.scores, attribution, selection)?;
        }
        cap_obs::recorder::record_boundary_sample();
        self.write_profile();
        Ok(())
    }

    /// The attribution half of [`publish_iteration`](Self::publish_iteration).
    fn publish_attribution(
        &self,
        record: &IterationRecord,
        scores: &NetworkScores,
        attribution: &ClassAttribution,
        selection: &PruneSelection,
    ) -> Result<(), PruneError> {
        let classes = attribution.classes;
        // Mean importance per class over every scored filter: the
        // dashboard heatmap row for this iteration.
        let mut sums = vec![0.0f64; classes];
        let mut filters = 0usize;
        for site in &attribution.sites {
            for row in &site.per_class {
                for (s, &v) in sums.iter_mut().zip(row.iter()) {
                    *s += v;
                }
            }
            filters += site.per_class.len();
        }
        if filters > 0 {
            for (k, s) in sums.iter().enumerate() {
                cap_obs::gauge_set(&format!("core.class_importance.{k}"), s / filters as f64);
            }
        }
        for (si, removed) in selection.remove.iter().enumerate() {
            for &f in removed {
                let line = attribution_line(
                    record.iteration,
                    &scores.sites[si].label,
                    f,
                    scores.sites[si].scores[f],
                    &attribution.sites[si].per_class[f],
                    attribution.top_class(si, f),
                );
                self.dir
                    .append_jsonl("class_attribution.jsonl", &line)
                    .map_err(persist_err)?;
            }
        }
        Ok(())
    }
}

impl Drop for RunHistory<'_> {
    fn drop(&mut self) {
        self.write_profile();
        if self.recording {
            cap_obs::recorder::stop_global();
        }
        cap_obs::alerts::clear();
    }
}

/// One `class_attribution.jsonl` record. Floats use shortest-roundtrip
/// `Display`, so readers recover the exact `s_{f,n}` the run computed.
fn attribution_line(
    iteration: usize,
    site: &str,
    filter: usize,
    score: f64,
    class_scores: &[f64],
    top_class: Option<usize>,
) -> String {
    let mut out = String::with_capacity(96 + 8 * class_scores.len());
    out.push_str("{\"type\":\"attribution\",\"iteration\":");
    out.push_str(&iteration.to_string());
    out.push_str(",\"site\":");
    cap_obs::json::write_str(&mut out, site);
    out.push_str(",\"filter\":");
    out.push_str(&filter.to_string());
    out.push_str(",\"score\":");
    cap_obs::json::write_f64(&mut out, score);
    out.push_str(",\"class_scores\":[");
    for (i, &v) in class_scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        cap_obs::json::write_f64(&mut out, v);
    }
    out.push_str("],\"top_class\":");
    match top_class {
        Some(k) => out.push_str(&k.to_string()),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Maps a run-dir failure into [`PruneError::Persistence`], flattening
/// the `source()` chain into the reason string (the error stays
/// `Clone + PartialEq`).
fn persist_err(e: cap_nn::RunDirError) -> PruneError {
    use std::error::Error;
    let mut reason = e.to_string();
    let mut cause: Option<&dyn Error> = e.source();
    while let Some(c) = cause {
        reason.push_str(": ");
        reason.push_str(&c.to_string());
        cause = c.source();
    }
    PruneError::Persistence { reason }
}

/// FNV-1a over the configuration's debug rendering, plus the
/// criterion's for any criterion but Eq. 3–7 (so Eq. 3–7 runs keep the
/// fingerprint they had before the criterion was pluggable): cheap,
/// stable within a build, and any field change alters it. Guards against
/// resuming a run with different hyper-parameters or another criterion,
/// which would break bit-identity silently.
fn config_fingerprint(cfg: &PruneConfig, criterion: &dyn FilterCriterion) -> u64 {
    let mut key = format!("{cfg:?}");
    if criterion.name() != ClassAwareCriterion::NAME {
        key.push_str(&format!(" criterion={criterion:?}"));
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The journal stores numbers as f64; 53 bits roundtrip exactly.
    hash & ((1 << 53) - 1)
}

fn meta_line(config_fp: u64, max_iterations: usize) -> String {
    format!(
        "{{\"type\":\"meta\",\"format\":1,\"config_fp\":{config_fp},\"max_iterations\":{max_iterations}}}"
    )
}

/// One journal line per completed iteration. Floats use Rust's
/// shortest-roundtrip `Display`, so parsing recovers them bit-exactly —
/// the resume-time rollback decision compares the same f64 the original
/// run compared.
fn iter_line(r: &IterationRecord) -> String {
    format!(
        "{{\"type\":\"iter\",\"iteration\":{},\"removed_filters\":{},\"remaining_filters\":{},\
         \"accuracy_after_prune\":{},\"accuracy_after_finetune\":{},\"mean_score\":{},\
         \"flops\":{},\"params\":{},\"secs_score\":{},\"secs_surgery\":{},\
         \"secs_finetune\":{},\"secs_eval\":{}}}",
        r.iteration,
        r.removed_filters,
        r.remaining_filters,
        r.accuracy_after_prune,
        r.accuracy_after_finetune,
        r.mean_score,
        r.flops,
        r.params,
        r.secs_score,
        r.secs_surgery,
        r.secs_finetune,
        r.secs_eval
    )
}

fn stop_line(reason: StopReason, final_gen: u64) -> String {
    format!("{{\"type\":\"stop\",\"reason\":\"{reason:?}\",\"final_gen\":{final_gen}}}")
}

fn parse_iter_record(j: &Json) -> Option<IterationRecord> {
    let u = |k: &str| j.get(k).and_then(Json::as_u64);
    let f = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(IterationRecord {
        iteration: u("iteration")? as usize,
        removed_filters: u("removed_filters")? as usize,
        remaining_filters: u("remaining_filters")? as usize,
        accuracy_after_prune: f("accuracy_after_prune")?,
        accuracy_after_finetune: f("accuracy_after_finetune")?,
        mean_score: f("mean_score")?,
        flops: u("flops")?,
        params: u("params")?,
        secs_score: f("secs_score")?,
        secs_surgery: f("secs_surgery")?,
        secs_finetune: f("secs_finetune")?,
        secs_eval: f("secs_eval")?,
    })
}

fn emit_iteration(r: &IterationRecord) {
    cap_obs::emit(
        cap_obs::Event::new("prune_iteration")
            .u64("iteration", r.iteration as u64)
            .u64("removed_filters", r.removed_filters as u64)
            .u64("remaining_filters", r.remaining_filters as u64)
            .f64("accuracy_after_prune", r.accuracy_after_prune)
            .f64("accuracy_after_finetune", r.accuracy_after_finetune)
            .f64("mean_score", r.mean_score)
            .u64("flops", r.flops)
            .u64("params", r.params)
            .f64("secs_score", r.secs_score)
            .f64("secs_surgery", r.secs_surgery)
            .f64("secs_finetune", r.secs_finetune)
            .f64("secs_eval", r.secs_eval),
    );
}

fn input_dims(data: &Dataset) -> Result<(usize, usize, usize), PruneError> {
    let s = data.images().shape();
    if s.len() != 4 {
        return Err(PruneError::InvalidConfig {
            reason: format!("dataset images must be 4-D, got {s:?}"),
        });
    }
    Ok((s[1], s[2], s[3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_data::{DatasetSpec, SyntheticDataset};
    use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
    use cap_nn::RegularizerConfig;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_data() -> SyntheticDataset {
        SyntheticDataset::generate(
            &DatasetSpec::cifar10_like()
                .with_image_size(8)
                .with_counts(12, 4),
        )
        .unwrap()
    }

    fn tiny_net() -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut net = Network::new();
        net.push(Conv2d::new(3, 12, 3, 1, 1, false, &mut rng).unwrap());
        net.push(BatchNorm2d::new(12).unwrap());
        net.push(Relu::new());
        net.push(Conv2d::new(12, 12, 3, 1, 1, false, &mut rng).unwrap());
        net.push(BatchNorm2d::new(12).unwrap());
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(12, 10, &mut rng).unwrap());
        net
    }

    fn quick_config() -> PruneConfig {
        PruneConfig {
            finetune: TrainConfig {
                epochs: 2,
                batch_size: 20,
                lr: 0.02,
                regularizer: RegularizerConfig::paper(),
                ..TrainConfig::default()
            },
            max_iterations: 3,
            accuracy_drop_limit: 1.0, // never stop on accuracy in this test
            ..PruneConfig::default()
        }
    }

    #[test]
    fn pruner_removes_filters_and_reduces_cost() {
        let data = tiny_data();
        let mut net = tiny_net();
        // Brief pre-training so scores are meaningful.
        fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            &TrainConfig {
                epochs: 3,
                batch_size: 20,
                lr: 0.02,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.2 },
            ..quick_config()
        })
        .unwrap();
        let outcome = pruner.run(&mut net, data.train(), data.test()).unwrap();
        assert!(!outcome.iterations.is_empty());
        assert!(outcome.pruning_ratio() > 0.0);
        assert!(outcome.flops_reduction() > 0.0);
        assert!(outcome.final_cost.total_params < outcome.baseline_cost.total_params);
        // Network still works.
        let x = cap_tensor::Tensor::zeros(&[1, 3, 8, 8]);
        assert_eq!(net.forward(&x, false).unwrap().shape(), &[1, 10]);
    }

    #[test]
    fn stops_when_nothing_below_threshold() {
        let data = tiny_data();
        let mut net = tiny_net();
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Threshold { threshold: 0.0 },
            ..quick_config()
        })
        .unwrap();
        let outcome = pruner.run(&mut net, data.train(), data.test()).unwrap();
        // Threshold 0 admits nothing (scores are >= 0): immediate stop.
        assert_eq!(outcome.stop_reason, StopReason::NoPrunableFilters);
        assert!(outcome.iterations.is_empty());
        assert_eq!(outcome.pruning_ratio(), 0.0);
    }

    #[test]
    fn rolls_back_on_unrecoverable_accuracy() {
        let data = tiny_data();
        let mut net = tiny_net();
        fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            &TrainConfig {
                epochs: 4,
                batch_size: 20,
                lr: 0.02,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let params_before = net.num_params();
        // Aggressive pruning with a tiny drop budget and no fine-tuning
        // epochs: the first iteration should be deemed unrecoverable and
        // rolled back.
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.8 },
            finetune: TrainConfig {
                epochs: 1,
                batch_size: 120,
                lr: 1e-6, // effectively no recovery
                ..TrainConfig::default()
            },
            max_iterations: 5,
            accuracy_drop_limit: 0.0,
            ..PruneConfig::default()
        })
        .unwrap();
        let outcome = pruner.run(&mut net, data.train(), data.test()).unwrap();
        if outcome.stop_reason == StopReason::AccuracyUnrecoverable {
            // Rolled back: parameters restored.
            assert_eq!(net.num_params(), params_before);
            assert!((outcome.final_accuracy - outcome.baseline_accuracy).abs() < 1e-9);
        }
    }

    #[test]
    fn iterations_csv_has_header_and_rows() {
        let data = tiny_data();
        let mut net = tiny_net();
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.2 },
            ..quick_config()
        })
        .unwrap();
        let outcome = pruner.run(&mut net, data.train(), data.test()).unwrap();
        let csv = outcome.iterations_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("iteration,removed_filters"));
        assert_eq!(lines.len(), outcome.iterations.len() + 1);
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 12);
        }
    }

    /// Non-timing fields of two records must agree (timings legitimately
    /// differ between a run and its resumed replay).
    fn assert_records_match(a: &IterationRecord, b: &IterationRecord) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.removed_filters, b.removed_filters);
        assert_eq!(a.remaining_filters, b.remaining_filters);
        assert_eq!(
            a.accuracy_after_prune.to_bits(),
            b.accuracy_after_prune.to_bits()
        );
        assert_eq!(
            a.accuracy_after_finetune.to_bits(),
            b.accuracy_after_finetune.to_bits()
        );
        assert_eq!(a.mean_score.to_bits(), b.mean_score.to_bits());
        assert_eq!(a.flops, b.flops);
        assert_eq!(a.params, b.params);
    }

    /// Copies a run dir, truncating the journal to the meta record plus
    /// iterations `..= upto` and dropping checkpoints newer than
    /// generation `upto` — the on-disk state of a run killed right
    /// after journaling iteration `upto`.
    fn crash_copy(src: &std::path::Path, dst: &std::path::Path, upto: usize) {
        let _ = std::fs::remove_dir_all(dst);
        std::fs::create_dir_all(dst.join("ckpt")).unwrap();
        std::fs::copy(src.join("MANIFEST.json"), dst.join("MANIFEST.json")).unwrap();
        for gen in 0..=upto {
            let name = format!("gen-{gen:06}.capn");
            std::fs::copy(src.join("ckpt").join(&name), dst.join("ckpt").join(&name)).unwrap();
        }
        let journal = std::fs::read_to_string(src.join("journal.jsonl")).unwrap();
        let kept: Vec<&str> = journal
            .lines()
            .filter(|l| {
                let j = cap_obs::json::parse(l).unwrap();
                match j.get("type").and_then(|t| t.as_str()) {
                    Some("meta") => true,
                    Some("iter") => {
                        j.get("iteration").and_then(|v| v.as_u64()).unwrap() <= upto as u64
                    }
                    _ => false,
                }
            })
            .collect();
        std::fs::write(dst.join("journal.jsonl"), kept.join("\n") + "\n").unwrap();
    }

    #[test]
    fn resume_after_simulated_crash_is_bit_identical() {
        let _guard = cap_obs::test_lock();
        let data = tiny_data();
        let mut net = tiny_net();
        fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            &TrainConfig {
                epochs: 2,
                batch_size: 20,
                lr: 0.02,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.2 },
            ..quick_config()
        })
        .unwrap();

        let base = std::env::temp_dir().join(format!("cap_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let ref_path = base.join("reference");
        let dir_a = RunDir::create(&ref_path).unwrap();
        let outcome_a = pruner
            .run_with_dir(&mut net, data.train(), data.test(), &dir_a)
            .unwrap();
        assert!(
            outcome_a.iterations.len() >= 2,
            "need at least two iterations to exercise resume, got {}",
            outcome_a.iterations.len()
        );
        let ref_bytes = cap_nn::checkpoint::to_bytes(&net).unwrap();

        // Crash after iteration 1 → resume must finish bit-identically.
        let crashed = base.join("crashed");
        crash_copy(&ref_path, &crashed, 1);
        let dir_b = RunDir::open(&crashed).unwrap();
        let (net_b, outcome_b) = pruner.resume(data.train(), data.test(), &dir_b).unwrap();
        assert_eq!(
            cap_nn::checkpoint::to_bytes(&net_b).unwrap(),
            ref_bytes,
            "resumed weights must be bit-identical to the uninterrupted run"
        );
        assert_eq!(outcome_a.stop_reason, outcome_b.stop_reason);
        assert_eq!(outcome_a.iterations.len(), outcome_b.iterations.len());
        assert_eq!(
            outcome_a.baseline_accuracy.to_bits(),
            outcome_b.baseline_accuracy.to_bits()
        );
        assert_eq!(
            outcome_a.final_accuracy.to_bits(),
            outcome_b.final_accuracy.to_bits()
        );
        for (a, b) in outcome_a.iterations.iter().zip(&outcome_b.iterations) {
            assert_records_match(a, b);
        }

        // Same crash, but the newest surviving checkpoint is corrupt:
        // resume falls back to generation 0 and deterministically
        // re-runs everything, still landing on identical weights.
        let corrupt = base.join("corrupt");
        crash_copy(&ref_path, &corrupt, 1);
        let g1 = corrupt.join("ckpt").join("gen-000001.capn");
        let mut bytes = std::fs::read(&g1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&g1, &bytes).unwrap();
        let dir_c = RunDir::open(&corrupt).unwrap();
        let (net_c, outcome_c) = pruner.resume(data.train(), data.test(), &dir_c).unwrap();
        assert_eq!(
            cap_nn::checkpoint::to_bytes(&net_c).unwrap(),
            ref_bytes,
            "fallback past a corrupt checkpoint must not change the result"
        );
        assert_eq!(outcome_a.iterations.len(), outcome_c.iterations.len());

        // Killed between a record and its newline: the unterminated
        // iteration 1 is not committed, so resume re-runs it, and its
        // appends must not weld onto the torn bytes.
        let torn = base.join("torn");
        crash_copy(&ref_path, &torn, 1);
        let journal = torn.join("journal.jsonl");
        let text = std::fs::read_to_string(&journal).unwrap();
        std::fs::write(&journal, text.trim_end_matches('\n')).unwrap();
        let dir_t = RunDir::open(&torn).unwrap();
        let (net_t, _) = pruner.resume(data.train(), data.test(), &dir_t).unwrap();
        assert_eq!(cap_nn::checkpoint::to_bytes(&net_t).unwrap(), ref_bytes);
        let (net_t, _) = pruner.resume(data.train(), data.test(), &dir_t).unwrap();
        assert_eq!(cap_nn::checkpoint::to_bytes(&net_t).unwrap(), ref_bytes);

        // Resuming with a different configuration is refused.
        let other = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.3 },
            ..quick_config()
        })
        .unwrap();
        assert!(matches!(
            other.resume(data.train(), data.test(), &dir_b),
            Err(PruneError::Persistence { .. })
        ));

        let _ = std::fs::remove_dir_all(&base);
    }

    /// Eq. 3–7, counting its scoring passes.
    #[derive(Debug)]
    struct Counting(ClassAwareCriterion, Arc<AtomicUsize>);

    impl FilterCriterion for Counting {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn score(
            &self,
            net: &mut Network,
            sites: &[PrunableSite],
            data: &Dataset,
            seed: u64,
        ) -> Result<NetworkScores, PruneError> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.score(net, sites, data, seed)
        }
    }

    #[test]
    fn unpruned_network_is_scored_once() {
        let _guard = cap_obs::test_lock();
        let data = tiny_data();
        let mut net = tiny_net();
        let config = PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.2 },
            ..quick_config()
        };
        let passes = Arc::new(AtomicUsize::new(0));
        let criterion = Counting(ClassAwareCriterion::new(config.score), passes.clone());
        let pruner = ClassAwarePruner::with_criterion(config.clone(), Box::new(criterion)).unwrap();
        let root = std::env::temp_dir().join(format!("cap_passes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let outcome = pruner
            .run_with_dir(
                &mut net,
                data.train(),
                data.test(),
                &RunDir::create(root.join("run")).unwrap(),
            )
            .unwrap();
        let k = outcome.iterations.len();
        assert!(k >= 2, "need two iterations, got {k}");
        // Generation 0 (also iteration 1's scores), iterations 2..=k, and
        // the final network.
        assert_eq!(passes.load(Ordering::SeqCst), k + 1);
        // Reusing the pass changes nothing: plain Eq. 3–7 agrees.
        let mut plain_net = tiny_net();
        let plain = ClassAwarePruner::new(config)
            .unwrap()
            .run(&mut plain_net, data.train(), data.test())
            .unwrap();
        assert_eq!(plain.scores_before, outcome.scores_before);
        assert_eq!(
            cap_nn::checkpoint::to_bytes(&plain_net).unwrap(),
            cap_nn::checkpoint::to_bytes(&net).unwrap()
        );

        // A resume from generation 1 still scores generation 0, for
        // `scores_before`, then iterations 2..=k and the final network.
        crash_copy(&root.join("run"), &root.join("killed"), 1);
        passes.store(0, Ordering::SeqCst);
        let (_, resumed) = pruner
            .resume(
                data.train(),
                data.test(),
                &RunDir::open(root.join("killed")).unwrap(),
            )
            .unwrap();
        assert_eq!(resumed.scores_before, outcome.scores_before);
        assert_eq!(passes.load(Ordering::SeqCst), 1 + (k - 1) + 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn persisted_iteration_predicts_the_test_set_twice() {
        let _guard = cap_obs::test_lock();
        let data = tiny_data();
        let mut net = tiny_net();
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.2 },
            max_iterations: 2,
            ..quick_config()
        })
        .unwrap();
        let root = std::env::temp_dir().join(format!("cap_predictions_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(&root).unwrap();
        cap_obs::reset();
        cap_obs::enable();
        // The test's own root frame keeps its paths apart from those of
        // pruning tests that may run alongside without the lock.
        let outcome = {
            let _span = cap_obs::SpanGuard::enter("test.persisted_run");
            pruner.run_with_dir(&mut net, data.train(), data.test(), &dir)
        };
        cap_obs::disable();
        let outcome = outcome.unwrap();
        assert_eq!(outcome.iterations.len(), 2);
        let under_iteration = "span.test.persisted_run/core.prune.run/core.prune.iteration/";
        let spans: Vec<(String, u64)> = cap_obs::registry()
            .snapshot()
            .into_iter()
            .filter_map(|(name, metric)| match metric {
                cap_obs::Metric::Histogram(h) if name.starts_with(under_iteration) => {
                    Some((name, h.count()))
                }
                _ => None,
            })
            .collect();
        cap_obs::reset();
        let count = |leaf: &str| -> u64 {
            spans
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
                .map(|(_, n)| n)
                .sum()
        };
        // After the prune, `evaluate`; after fine-tuning, one
        // `predict_all` gives the accuracy and the per-class recall.
        assert_eq!(count("nn.evaluate"), 2, "{spans:?}");
        assert_eq!(count("nn.predict_all"), 2, "{spans:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn run_with_dir_writes_series_attribution_and_alert_state() {
        let _guard = cap_obs::test_lock();
        let data = tiny_data();
        let mut net = tiny_net();
        fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            &TrainConfig {
                epochs: 2,
                batch_size: 20,
                lr: 0.02,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let pruner = ClassAwarePruner::new(PruneConfig {
            strategy: PruneStrategy::Percentage { fraction: 0.2 },
            ..quick_config()
        })
        .unwrap();
        let root = std::env::temp_dir().join(format!("cap_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(&root).unwrap();
        let outcome = pruner
            .run_with_dir(&mut net, data.train(), data.test(), &dir)
            .unwrap();
        assert!(!outcome.iterations.is_empty());
        // The recorder and rules are torn down when drive() returns.
        assert!(!cap_obs::recorder::active());
        assert!(cap_obs::alerts::fired().is_empty());

        // series.capts: at least start + one boundary per iteration +
        // stop, seq contiguous from 0, carrying the per-class gauges.
        let samples = cap_obs::tsdb::read_samples(&root.join("series.capts")).unwrap();
        assert!(
            samples.len() >= outcome.iterations.len() + 2,
            "only {} samples",
            samples.len()
        );
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
        }
        let last = samples.last().unwrap();
        assert!(last.value("core.prune.iteration").is_some());
        assert!(last.value("core.class_accuracy.0").is_some());
        assert!(last.value("core.class_importance.0").is_some());

        // class_attribution.jsonl: one parseable record per removed
        // filter, class_scores matching the dataset's class count.
        let text = std::fs::read_to_string(root.join("class_attribution.jsonl")).unwrap();
        let removed: usize = outcome.iterations.iter().map(|r| r.removed_filters).sum();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), removed);
        for line in lines {
            let j = cap_obs::json::parse(line).unwrap();
            assert_eq!(j.get("type").and_then(Json::as_str), Some("attribution"));
            assert!(j.get("iteration").and_then(Json::as_u64).is_some());
            assert!(j.get("score").and_then(Json::as_f64).is_some());
        }
        // No alert fired in a healthy run: no alerts.jsonl.
        assert!(!root.join("alerts.jsonl").exists());

        // profile.folded: the span tree, every line a valid folded
        // stack, with fine-tuning under its iteration.
        let text = std::fs::read_to_string(root.join("profile.folded")).unwrap();
        let stacks = cap_obs::flame::parse_folded(&text);
        assert_eq!(stacks.len(), text.lines().count(), "{text}");
        assert!(
            stacks
                .iter()
                .any(|(s, _)| s.split(';').any(|frame| frame == "core.prune.finetune")),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn config_validation() {
        assert!(ClassAwarePruner::new(PruneConfig {
            max_iterations: 0,
            ..PruneConfig::default()
        })
        .is_err());
        assert!(ClassAwarePruner::new(PruneConfig {
            accuracy_drop_limit: -0.1,
            ..PruneConfig::default()
        })
        .is_err());
        assert!(ClassAwarePruner::new(PruneConfig {
            eval_batch: 0,
            ..PruneConfig::default()
        })
        .is_err());
        assert!(ClassAwarePruner::new(PruneConfig::default()).is_ok());
    }
}
