//! A small alert-rules engine evaluated on series ingest.
//!
//! Rules watch named series in the samples the recorder appends
//! ([`evaluate_sample`] is called once per ingested [`Sample`]). When a
//! rule trips it fires exactly once per installation (latched — a
//! breached threshold at a 4 Hz cadence must not spam 4 alerts a
//! second): an `alert` event is emitted, `obs.alerts_total` is bumped,
//! and one JSON line is appended durably to `alerts.jsonl`.
//!
//! Rule semantics (DESIGN.md §12):
//!
//! - **Stall** — fires when the watched series keeps the same bit
//!   pattern for more than `window` consecutive samples (progress
//!   gauges that stop moving). Samples missing the series don't count.
//! - **NaN-rate** — watches a monotone fault counter (e.g.
//!   `nn.numeric_faults_total`) and fires when it increases by more
//!   than `max_increase` within `window_secs` of sample time. With
//!   `max_increase = 0` any fault fires, which is how
//!   `TrainConfig::fault_policy` numeric faults route into the alert
//!   stream.
//! - **Accuracy-drop** — fires when `baseline - value` is strictly
//!   above the limit (the alert-side mirror of the pruner's rollback
//!   guard).

use crate::fsx::AppendFile;
use crate::json;
use crate::tsdb::Sample;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// What a rule watches and when it trips.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// `series` unchanged (bit-identical) for more than `window`
    /// consecutive samples.
    Stall {
        /// Watched series name.
        series: String,
        /// Number of *repeats* tolerated; the `window + 1`-th
        /// consecutive sample with the same bits fires.
        window: usize,
    },
    /// Monotone counter `series` grew by more than `max_increase`
    /// within the trailing `window_secs` of sample time.
    NanRate {
        /// Watched (counter-valued) series name.
        series: String,
        /// Tolerated increase within the window.
        max_increase: f64,
        /// Trailing window, in sample-time seconds.
        window_secs: f64,
    },
    /// `baseline - series` strictly above `max_drop`.
    AccuracyDrop {
        /// Watched series name.
        series: String,
        /// Reference value recorded before pruning began.
        baseline: f64,
        /// Exclusive tolerated drop.
        max_drop: f64,
    },
}

/// A named alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Stable rule name (appears in events and `alerts.jsonl`).
    pub name: String,
    /// Trigger semantics.
    pub kind: RuleKind,
}

/// Per-rule evaluation state across samples.
#[derive(Debug, Default)]
pub struct RuleState {
    fired: bool,
    stall_bits: Option<u64>,
    stall_run: usize,
    rate_window: VecDeque<(f64, f64)>,
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// Series the rule watched.
    pub series: String,
    /// Sequence number of the triggering sample.
    pub seq: u64,
    /// Sample time of the triggering sample.
    pub t: f64,
    /// Observed value that tripped the rule.
    pub value: f64,
    /// Human-readable description.
    pub message: String,
}

impl Rule {
    /// The series this rule watches.
    pub fn series(&self) -> &str {
        match &self.kind {
            RuleKind::Stall { series, .. }
            | RuleKind::NanRate { series, .. }
            | RuleKind::AccuracyDrop { series, .. } => series,
        }
    }

    /// Evaluates this rule against one sample, updating `state`.
    /// Returns the fired alert, if any. Pure state-machine logic — no
    /// I/O, no globals — so boundary conditions are unit-testable.
    pub fn check(&self, state: &mut RuleState, sample: &Sample) -> Option<Alert> {
        if state.fired {
            return None;
        }
        let value = sample.value(self.series());
        let fired: Option<(f64, String)> = match &self.kind {
            RuleKind::Stall { window, .. } => value.and_then(|v| {
                let bits = v.to_bits();
                if state.stall_bits == Some(bits) {
                    state.stall_run += 1;
                } else {
                    state.stall_bits = Some(bits);
                    state.stall_run = 0;
                }
                (state.stall_run > *window).then(|| {
                    (
                        v,
                        format!(
                            "no progress: {} repeats beyond window {window}",
                            state.stall_run
                        ),
                    )
                })
            }),
            RuleKind::NanRate {
                max_increase,
                window_secs,
                ..
            } => value.and_then(|v| {
                state.rate_window.push_back((sample.t, v));
                while let Some(&(t0, _)) = state.rate_window.front() {
                    if sample.t - t0 > *window_secs && state.rate_window.len() > 1 {
                        state.rate_window.pop_front();
                    } else {
                        break;
                    }
                }
                let oldest = state.rate_window.front().map_or(v, |&(_, v0)| v0);
                let increase = v - oldest;
                // The very first observation of a non-zero fault
                // counter also counts as an increase from zero.
                let increase = if state.rate_window.len() == 1 {
                    v
                } else {
                    increase
                };
                (increase > *max_increase).then(|| {
                    (
                        v,
                        format!(
                            "counter rose by {increase} in {window_secs}s (max {max_increase})"
                        ),
                    )
                })
            }),
            RuleKind::AccuracyDrop {
                baseline, max_drop, ..
            } => value.filter(|v| baseline - v > *max_drop).map(|v| {
                (
                    v,
                    format!(
                        "dropped {} below baseline {baseline} (max {max_drop})",
                        baseline - v
                    ),
                )
            }),
        };
        let (value, message) = fired?;
        state.fired = true;
        Some(Alert {
            rule: self.name.clone(),
            series: self.series().to_string(),
            seq: sample.seq,
            t: sample.t,
            value,
            message,
        })
    }
}

/// The installed rule set plus its output path.
struct Engine {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
    alerts_path: Option<PathBuf>,
    fired: Vec<Alert>,
}

fn engine_slot() -> &'static Mutex<Option<Engine>> {
    static ENGINE: OnceLock<Mutex<Option<Engine>>> = OnceLock::new();
    ENGINE.get_or_init(|| Mutex::new(None))
}

/// Installs `rules` as the process-global alert set, replacing any
/// previous installation (and its latched state). Fired alerts append
/// to `alerts_path` (JSONL) when given.
pub fn install(rules: Vec<Rule>, alerts_path: Option<PathBuf>) {
    let states = rules.iter().map(|_| RuleState::default()).collect();
    *engine_slot().lock().unwrap() = Some(Engine {
        states,
        rules,
        alerts_path,
        fired: Vec::new(),
    });
}

/// Removes the installed rules (test isolation / end of run).
pub fn clear() {
    *engine_slot().lock().unwrap() = None;
}

/// Alerts fired since [`install`].
pub fn fired() -> Vec<Alert> {
    engine_slot()
        .lock()
        .unwrap()
        .as_ref()
        .map(|e| e.fired.clone())
        .unwrap_or_default()
}

/// The JSONL rendering of one alert (stable field order).
pub fn alert_line(alert: &Alert) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"type\":\"alert\",\"rule\":");
    json::write_str(&mut out, &alert.rule);
    out.push_str(",\"series\":");
    json::write_str(&mut out, &alert.series);
    out.push_str(",\"seq\":");
    out.push_str(&alert.seq.to_string());
    out.push_str(",\"t\":");
    json::write_f64(&mut out, alert.t);
    out.push_str(",\"value\":");
    json::write_f64(&mut out, alert.value);
    out.push_str(",\"message\":");
    json::write_str(&mut out, &alert.message);
    out.push_str("}\n");
    out
}

/// Runs every installed rule against `sample`, firing side effects for
/// newly tripped rules. No-op without an installation.
pub fn evaluate_sample(sample: &Sample) {
    let mut slot = engine_slot().lock().unwrap();
    let Some(engine) = slot.as_mut() else {
        return;
    };
    let mut new_alerts = Vec::new();
    for (rule, state) in engine.rules.iter().zip(engine.states.iter_mut()) {
        if let Some(alert) = rule.check(state, sample) {
            new_alerts.push(alert);
        }
    }
    if new_alerts.is_empty() {
        return;
    }
    for alert in &new_alerts {
        crate::counter_add("obs.alerts_total", 1);
        crate::emit(
            crate::Event::new("alert")
                .str("rule", alert.rule.clone())
                .str("series", alert.series.clone())
                .u64("seq", alert.seq)
                .f64("value", alert.value)
                .str("message", alert.message.clone()),
        );
        if let Some(path) = &engine.alerts_path {
            if let Ok(mut f) = AppendFile::open_lines(path) {
                let _ = f.append_durable(alert_line(alert).as_bytes());
            }
        }
    }
    engine.fired.extend(new_alerts);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, t: f64, vals: &[(&str, f64)]) -> Sample {
        Sample {
            seq,
            t,
            points: vals.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    fn rule(kind: RuleKind) -> Rule {
        Rule {
            name: "r".into(),
            kind,
        }
    }

    #[test]
    fn stall_fires_only_beyond_window() {
        let r = rule(RuleKind::Stall {
            series: "iter".into(),
            window: 2,
        });
        let mut s = RuleState::default();
        assert!(r.check(&mut s, &sample(0, 0.0, &[("iter", 3.0)])).is_none());
        assert!(r.check(&mut s, &sample(1, 0.1, &[("iter", 3.0)])).is_none());
        assert!(r.check(&mut s, &sample(2, 0.2, &[("iter", 3.0)])).is_none());
        // A change resets the run.
        assert!(r.check(&mut s, &sample(3, 0.3, &[("iter", 4.0)])).is_none());
        assert!(r.check(&mut s, &sample(4, 0.4, &[("iter", 4.0)])).is_none());
        assert!(r.check(&mut s, &sample(5, 0.5, &[("iter", 4.0)])).is_none());
        let fired = r.check(&mut s, &sample(6, 0.6, &[("iter", 4.0)]));
        assert!(
            fired.is_some(),
            "4th identical sample = 3 repeats > window 2"
        );
    }

    #[test]
    fn nan_rate_counts_increase_within_window() {
        let r = rule(RuleKind::NanRate {
            series: "faults".into(),
            max_increase: 0.0,
            window_secs: 10.0,
        });
        let mut s = RuleState::default();
        assert!(r
            .check(&mut s, &sample(0, 0.0, &[("faults", 0.0)]))
            .is_none());
        assert!(r
            .check(&mut s, &sample(1, 1.0, &[("faults", 0.0)]))
            .is_none());
        let fired = r.check(&mut s, &sample(2, 2.0, &[("faults", 1.0)]));
        assert!(fired.is_some(), "any increase fires with max 0");

        // First-ever sample already carrying faults fires too.
        let mut s = RuleState::default();
        assert!(r
            .check(&mut s, &sample(0, 0.0, &[("faults", 2.0)]))
            .is_some());

        // Tolerant rule: increase within budget stays quiet.
        let r = rule(RuleKind::NanRate {
            series: "faults".into(),
            max_increase: 5.0,
            window_secs: 10.0,
        });
        let mut s = RuleState::default();
        assert!(r
            .check(&mut s, &sample(0, 0.0, &[("faults", 0.0)]))
            .is_none());
        assert!(r
            .check(&mut s, &sample(1, 1.0, &[("faults", 5.0)]))
            .is_none());
        assert!(r
            .check(&mut s, &sample(2, 2.0, &[("faults", 6.0)]))
            .is_some());
    }

    #[test]
    fn accuracy_drop_compares_against_baseline() {
        let r = rule(RuleKind::AccuracyDrop {
            series: "acc".into(),
            baseline: 0.9,
            max_drop: 0.1,
        });
        let mut s = RuleState::default();
        assert!(r.check(&mut s, &sample(0, 0.0, &[("acc", 0.85)])).is_none());
        assert!(
            r.check(&mut s, &sample(1, 0.1, &[("acc", 0.8)])).is_none(),
            "exactly at the limit"
        );
        let fired = r.check(&mut s, &sample(2, 0.2, &[("acc", 0.79)]));
        assert!(fired.is_some());
    }

    #[test]
    fn engine_latches_writes_jsonl_and_counts() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        let dir = std::env::temp_dir().join(format!("cap_alerts_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alerts.jsonl");
        install(
            vec![rule(RuleKind::AccuracyDrop {
                series: "acc".into(),
                baseline: 0.9,
                max_drop: 0.1,
            })],
            Some(path.clone()),
        );
        evaluate_sample(&sample(0, 0.0, &[("acc", 0.9)]));
        evaluate_sample(&sample(1, 0.5, &[("acc", 0.5)]));
        evaluate_sample(&sample(2, 1.0, &[("acc", 0.4)]));
        let alerts = fired();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].seq, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let doc = json::parse(text.trim()).unwrap();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("alert"));
        assert_eq!(doc.get("rule").unwrap().as_str(), Some("r"));
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(1));
        match crate::registry()
            .snapshot()
            .iter()
            .find(|(n, _)| n == "obs.alerts_total")
            .map(|(_, m)| m.clone())
        {
            Some(crate::Metric::Counter(1)) => {}
            other => panic!("bad alert counter: {other:?}"),
        }
        clear();
        let _ = std::fs::remove_dir_all(&dir);
        crate::disable();
        crate::reset();
    }
}
