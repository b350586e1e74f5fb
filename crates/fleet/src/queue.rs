//! The durable, journaled work queue (`queue.jsonl`).
//!
//! The queue is an append-only event log: one JSON object per line,
//! every append fsync'd through [`cap_obs::fsx::AppendFile`]. Two line
//! shapes:
//!
//! ```text
//! {"type":"spec","id":"s1",...}                      spec submitted
//! {"type":"state","id":"s1","state":"running","attempts":1}  transition
//! ```
//!
//! State is derived by replay: a spec starts `pending`, and its most
//! recent `state` event wins. A `failed` event returns the spec to
//! `pending` with its attempt count charged — whether the failure
//! poisons the spec is the *supervisor's* runtime decision (retry
//! budget), recorded as an explicit `poisoned` event.
//!
//! The loader is crash-tolerant by construction: a torn final line
//! (the write the dying supervisor didn't finish) is dropped, garbage
//! lines are skipped and counted rather than fatal, duplicate spec
//! submissions keep the first occurrence, state events for unknown
//! specs are ignored, and unknown fields pass through silently. A
//! reload after supervisor SIGKILL therefore reconstructs exactly the
//! durable prefix of the fleet's history.

use crate::spec::Spec;
use cap_obs::fsx::AppendFile;
use cap_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Replay-derived state of one spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecState {
    /// Waiting for a worker (fresh, or returned by a failure).
    Pending,
    /// Marked as executing. After a supervisor crash this may be stale
    /// — reconciliation resolves it against the run dir.
    Running,
    /// Completed successfully. Terminal: never executed again.
    Done,
    /// Retry budget exhausted. Terminal.
    Poisoned,
}

impl SpecState {
    fn name(self) -> &'static str {
        match self {
            SpecState::Pending => "pending",
            SpecState::Running => "running",
            SpecState::Done => "done",
            SpecState::Poisoned => "poisoned",
        }
    }
}

/// One spec plus its replayed state.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The submitted spec.
    pub spec: Spec,
    /// Current state after replay.
    pub state: SpecState,
    /// Execution attempts charged so far (failures, not restarts of
    /// the queue).
    pub attempts: u64,
}

/// What the lenient loader had to tolerate (surfaced in `status` and
/// asserted on by the hostile-input tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Unparsable or half-written lines skipped (includes a torn tail).
    pub dropped_lines: u64,
    /// Re-submissions of an existing spec id (first one kept).
    pub duplicate_specs: u64,
    /// State events referencing unknown spec ids.
    pub orphan_events: u64,
}

/// The durable queue: replayed entries plus the open append handle.
pub struct Queue {
    path: PathBuf,
    file: AppendFile,
    entries: BTreeMap<String, Entry>,
    order: Vec<String>,
    /// What the loader tolerated while replaying.
    pub load_report: LoadReport,
}

impl Queue {
    /// Path of the queue file inside `fleet_dir`.
    pub fn path_in(fleet_dir: &Path) -> PathBuf {
        fleet_dir.join("queue.jsonl")
    }

    /// Creates a fresh queue in `fleet_dir` and submits `specs`
    /// (durably, one fsync'd line each). Fails if a queue already
    /// exists — re-entry goes through [`Queue::load`].
    ///
    /// # Errors
    ///
    /// Returns a description of I/O failures or duplicate spec ids.
    pub fn create(fleet_dir: &Path, specs: &[Spec]) -> Result<Queue, String> {
        std::fs::create_dir_all(fleet_dir)
            .map_err(|e| format!("create {}: {e}", fleet_dir.display()))?;
        let path = Queue::path_in(fleet_dir);
        if path.exists() {
            return Err(format!(
                "{} already exists; `capfleet resume` continues it",
                path.display()
            ));
        }
        let file = AppendFile::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut queue = Queue {
            path,
            file,
            entries: BTreeMap::new(),
            order: Vec::new(),
            load_report: LoadReport::default(),
        };
        for spec in specs {
            if queue.entries.contains_key(&spec.id) {
                return Err(format!("duplicate spec id {:?}", spec.id));
            }
            queue.append_line(&spec.to_line())?;
            queue.insert_spec(spec.clone());
        }
        Ok(queue)
    }

    /// Loads a queue by replaying `queue.jsonl` (leniently — see the
    /// module docs), reopening it for appends.
    ///
    /// # Errors
    ///
    /// Returns a description when the file is missing or unreadable.
    pub fn load(fleet_dir: &Path) -> Result<Queue, String> {
        let path = Queue::path_in(fleet_dir);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        // `open_lines` cuts a torn tail on disk, not just in memory:
        // otherwise the next append would weld onto the half-written
        // bytes and corrupt that line too.
        let file =
            AppendFile::open_lines(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut queue = Queue {
            path,
            file,
            entries: BTreeMap::new(),
            order: Vec::new(),
            load_report: LoadReport::default(),
        };
        let mut lines = text.split('\n').peekable();
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        while let Some(line) = lines.next() {
            if line.is_empty() {
                continue;
            }
            // The final line of a file without a trailing newline is a
            // torn write from a dying process: drop it silently-ish.
            if torn_tail && lines.peek().is_none() {
                queue.load_report.dropped_lines += 1;
                continue;
            }
            queue.replay_line(line);
        }
        Ok(queue)
    }

    fn replay_line(&mut self, line: &str) {
        let Ok(obj) = json::parse(line) else {
            self.load_report.dropped_lines += 1;
            return;
        };
        match obj.get("type").and_then(Json::as_str) {
            Some("spec") => match Spec::from_json(&obj) {
                Ok(spec) => {
                    if self.entries.contains_key(&spec.id) {
                        self.load_report.duplicate_specs += 1;
                    } else {
                        self.insert_spec(spec);
                    }
                }
                Err(_) => self.load_report.dropped_lines += 1,
            },
            Some("state") => {
                let id = obj.get("id").and_then(Json::as_str).unwrap_or("");
                let state = match obj.get("state").and_then(Json::as_str) {
                    Some("pending") => SpecState::Pending,
                    Some("running") => SpecState::Running,
                    Some("done") => SpecState::Done,
                    Some("poisoned") => SpecState::Poisoned,
                    // "failed" returns the spec to pending with the
                    // attempt charged.
                    Some("failed") => SpecState::Pending,
                    _ => {
                        self.load_report.dropped_lines += 1;
                        return;
                    }
                };
                match self.entries.get_mut(id) {
                    Some(entry) => {
                        entry.state = state;
                        if let Some(attempts) = obj.get("attempts").and_then(Json::as_u64) {
                            entry.attempts = attempts;
                        }
                    }
                    None => self.load_report.orphan_events += 1,
                }
            }
            _ => self.load_report.dropped_lines += 1,
        }
    }

    fn insert_spec(&mut self, spec: Spec) {
        self.order.push(spec.id.clone());
        self.entries.insert(
            spec.id.clone(),
            Entry {
                spec,
                state: SpecState::Pending,
                attempts: 0,
            },
        );
    }

    fn append_line(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file
            .append_durable(&buf)
            .map_err(|e| format!("append {}: {e}", self.path.display()))
    }

    /// Records a state transition durably and applies it in memory.
    /// `failed` transitions land as `Pending` with `attempts` charged.
    ///
    /// # Errors
    ///
    /// Returns a description for unknown ids or append failures.
    pub fn mark(&mut self, id: &str, state: SpecState, attempts: u64) -> Result<(), String> {
        self.mark_named(id, state.name(), state, attempts)
    }

    /// Records a failure: durably logged as `"failed"`, replayed as
    /// pending-with-attempt-charged.
    ///
    /// # Errors
    ///
    /// Returns a description for unknown ids or append failures.
    pub fn mark_failed(&mut self, id: &str, attempts: u64) -> Result<(), String> {
        self.mark_named(id, "failed", SpecState::Pending, attempts)
    }

    fn mark_named(
        &mut self,
        id: &str,
        name: &str,
        state: SpecState,
        attempts: u64,
    ) -> Result<(), String> {
        if !self.entries.contains_key(id) {
            return Err(format!("unknown spec id {id:?}"));
        }
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"state\",\"id\":");
        json::write_str(&mut line, id);
        line.push_str(",\"state\":");
        json::write_str(&mut line, name);
        line.push_str(",\"attempts\":");
        line.push_str(&attempts.to_string());
        line.push('}');
        self.append_line(&line)?;
        let entry = self.entries.get_mut(id).expect("checked above");
        entry.state = state;
        entry.attempts = attempts;
        Ok(())
    }

    /// Entry for `id`, if submitted.
    pub fn get(&self, id: &str) -> Option<&Entry> {
        self.entries.get(id)
    }

    /// All entries in submission order.
    pub fn entries(&self) -> Vec<&Entry> {
        self.order
            .iter()
            .filter_map(|id| self.entries.get(id))
            .collect()
    }

    /// Counts per state: `(pending, running, done, poisoned)`.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for entry in self.entries.values() {
            match entry.state {
                SpecState::Pending => c.0 += 1,
                SpecState::Running => c.1 += 1,
                SpecState::Done => c.2 += 1,
                SpecState::Poisoned => c.3 += 1,
            }
        }
        c
    }

    /// Whether every spec reached a terminal state.
    pub fn drained(&self) -> bool {
        let (pending, running, _, _) = self.counts();
        pending == 0 && running == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cap_fleet_queue_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_mark_reload_round_trip() {
        let dir = tmp_dir("round");
        let specs = vec![Spec::demo("a", 1), Spec::demo("b", 2)];
        let mut q = Queue::create(&dir, &specs).unwrap();
        q.mark("a", SpecState::Running, 1).unwrap();
        q.mark("a", SpecState::Done, 1).unwrap();
        q.mark("b", SpecState::Running, 1).unwrap();
        q.mark_failed("b", 1).unwrap();
        drop(q);
        let q = Queue::load(&dir).unwrap();
        assert_eq!(q.load_report, LoadReport::default());
        assert_eq!(q.get("a").unwrap().state, SpecState::Done);
        let b = q.get("b").unwrap();
        assert_eq!(b.state, SpecState::Pending, "failed returns to pending");
        assert_eq!(b.attempts, 1);
        assert_eq!(q.counts(), (1, 0, 1, 0));
        assert!(!q.drained());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_queue_and_duplicate_ids() {
        let dir = tmp_dir("dup");
        Queue::create(&dir, &[Spec::demo("a", 1)]).unwrap();
        assert!(Queue::create(&dir, &[]).is_err(), "existing queue");
        let dir2 = tmp_dir("dup2");
        assert!(
            Queue::create(&dir2, &[Spec::demo("a", 1), Spec::demo("a", 2)]).is_err(),
            "duplicate ids rejected at submission"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}
