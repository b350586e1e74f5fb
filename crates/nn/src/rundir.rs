//! Durable, crash-safe run directories for long training/pruning jobs.
//!
//! The paper's framework is an iterative prune → fine-tune loop that
//! runs until accuracy cannot be recovered — hours of work a crash used
//! to destroy, because the rollback snapshot lived only in memory. A
//! [`RunDir`] makes every completed iteration durable:
//!
//! ```text
//! <run-dir>/
//!   MANIFEST.json          format marker, written once at creation
//!   journal.jsonl          one JSON object per completed step (append + fsync)
//!   ckpt/gen-000000.capn   generation-numbered v2 checkpoints
//!   ckpt/gen-000001.capn   (atomic: temp + fsync + rename + dir fsync)
//!   ...
//! ```
//!
//! - **Checkpoints** use the CRC-framed v2 format of
//!   [`crate::checkpoint`], written atomically so a crash mid-write can
//!   never tear a generation; [`RunDir::latest_valid`] walks
//!   generations newest → oldest and transparently falls back past any
//!   checkpoint that fails CRC validation (counted in
//!   `nn.rundir.fallback_total`).
//! - **The journal** is an append-only JSONL file, fsync'd per line. A
//!   record commits with its newline: an unterminated final line
//!   (crash mid-append) is ignored on read and cut before the next
//!   append; earlier corruption is an error.
//! - **Retention**: generation 0 (the pre-pruning baseline, needed to
//!   replay a run from scratch) plus the newest `retain` generations
//!   are kept; older ones are deleted after each successful write.
//!
//! The resume logic that replays a journal lives with the pruning loop
//! in `cap-core` (`ClassAwarePruner::resume`); this module only owns
//! the on-disk discipline.

use crate::checkpoint::{self, CheckpointError};
use crate::Network;
use cap_obs::json::{self, Json};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Manifest format version of the run-directory layout itself.
const RUNDIR_FORMAT: u64 = 1;
/// Default number of newest generations retained alongside generation 0.
pub const DEFAULT_RETAIN: usize = 4;

/// Errors produced by run-directory operations.
#[derive(Debug)]
pub enum RunDirError {
    /// A filesystem operation failed.
    Io {
        /// What was being done, including the path.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint could not be serialised or deserialised.
    Checkpoint {
        /// The checkpoint path.
        path: String,
        /// The underlying error.
        source: CheckpointError,
    },
    /// The directory layout or journal is invalid.
    Corrupt {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for RunDirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunDirError::Io { context, source } => write!(f, "run dir: {context}: {source}"),
            RunDirError::Checkpoint { path, source } => {
                write!(f, "run dir checkpoint {path}: {source}")
            }
            RunDirError::Corrupt { reason } => write!(f, "corrupt run dir: {reason}"),
        }
    }
}

impl Error for RunDirError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunDirError::Io { source, .. } => Some(source),
            RunDirError::Checkpoint { source, .. } => Some(source),
            RunDirError::Corrupt { .. } => None,
        }
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> RunDirError {
    let context = context.into();
    move |source| RunDirError::Io { context, source }
}

/// A versioned on-disk run directory holding generation-numbered
/// checkpoints and an append-only journal. See the module docs for the
/// layout and durability discipline.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    retain: usize,
}

impl RunDir {
    /// Creates a fresh run directory at `path` (which may exist but
    /// must not already contain a journal — resuming goes through
    /// [`RunDir::open`]).
    ///
    /// # Errors
    ///
    /// Returns [`RunDirError::Corrupt`] when `path` already holds a
    /// run, and I/O errors for unwritable locations.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, RunDirError> {
        let root: PathBuf = path.into();
        if root.join("journal.jsonl").exists() {
            return Err(RunDirError::Corrupt {
                reason: format!(
                    "{} already contains a run (journal.jsonl exists); resume it or pick a fresh directory",
                    root.display()
                ),
            });
        }
        std::fs::create_dir_all(root.join("ckpt"))
            .map_err(io_err(format!("create {}", root.display())))?;
        let mut manifest = String::new();
        manifest.push_str("{\"cap_rundir_format\":");
        manifest.push_str(&RUNDIR_FORMAT.to_string());
        manifest.push_str(",\"checkpoint_version\":2}\n");
        cap_obs::fsx::atomic_write(&root.join("MANIFEST.json"), manifest.as_bytes())
            .map_err(io_err(format!("write {}/MANIFEST.json", root.display())))?;
        let dir = RunDir {
            root,
            retain: DEFAULT_RETAIN,
        };
        dir.sweep_tmp();
        Ok(dir)
    }

    /// Opens an existing run directory for resumption.
    ///
    /// # Errors
    ///
    /// Returns [`RunDirError::Corrupt`] when the manifest is missing or
    /// unreadable, or declares an unknown layout version.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, RunDirError> {
        let root: PathBuf = path.into();
        let manifest_path = root.join("MANIFEST.json");
        let text = std::fs::read_to_string(&manifest_path).map_err(|e| RunDirError::Corrupt {
            reason: format!("{} is not a run dir: {e}", root.display()),
        })?;
        let manifest = json::parse(text.trim()).map_err(|e| RunDirError::Corrupt {
            reason: format!("bad manifest {}: {e}", manifest_path.display()),
        })?;
        match manifest.get("cap_rundir_format").and_then(Json::as_u64) {
            Some(RUNDIR_FORMAT) => {}
            other => {
                return Err(RunDirError::Corrupt {
                    reason: format!("unsupported run dir format {other:?}"),
                })
            }
        }
        std::fs::create_dir_all(root.join("ckpt"))
            .map_err(io_err(format!("create {}/ckpt", root.display())))?;
        let dir = RunDir {
            root,
            retain: DEFAULT_RETAIN,
        };
        dir.sweep_tmp();
        Ok(dir)
    }

    /// The directory this run lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Overrides how many newest generations are retained (generation 0
    /// is always kept). Clamped to at least 2 so fallback always has a
    /// predecessor.
    pub fn set_retain(&mut self, retain: usize) {
        self.retain = retain.max(2);
    }

    /// Removes stray temporary files a crash mid-write may have left.
    fn sweep_tmp(&self) {
        for dir in [self.root.clone(), self.root.join("ckpt")] {
            let Ok(entries) = std::fs::read_dir(dir) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Path of checkpoint generation `gen`.
    pub fn checkpoint_path(&self, gen: u64) -> PathBuf {
        self.root.join("ckpt").join(format!("gen-{gen:06}.capn"))
    }

    /// Serialises `net` as generation `gen`, atomically, then applies
    /// the retention policy. Honours the `corrupt_ckpt` fault directive
    /// (one seed-chosen bit of the serialised checkpoint is flipped
    /// before the write) so tests can prove CRC validation catches it.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and I/O errors.
    pub fn save_generation(&self, gen: u64, net: &Network) -> Result<(), RunDirError> {
        let path = self.checkpoint_path(gen);
        let mut bytes = checkpoint::to_bytes(net).map_err(|source| RunDirError::Checkpoint {
            path: path.display().to_string(),
            source,
        })?;
        if let Some(seed) = cap_faults::take_corrupt_ckpt() {
            let bit = cap_faults::bitflip_position(seed, bytes.len());
            bytes[bit / 8] ^= 1 << (bit % 8);
            eprintln!(
                "cap-faults: corrupt_ckpt flipped bit {bit} of generation {gen} ({})",
                path.display()
            );
        }
        cap_obs::fsx::atomic_write(&path, &bytes)
            .map_err(io_err(format!("write {}", path.display())))?;
        cap_obs::counter_add("nn.rundir.checkpoints_total", 1);
        crate::heartbeat::beat();
        self.prune_generations();
        Ok(())
    }

    /// Loads checkpoint generation `gen`, validating its CRC.
    ///
    /// # Errors
    ///
    /// Propagates I/O and checkpoint (incl. checksum) errors.
    pub fn load_generation(&self, gen: u64) -> Result<Network, RunDirError> {
        let path = self.checkpoint_path(gen);
        let file =
            std::fs::File::open(&path).map_err(io_err(format!("open {}", path.display())))?;
        checkpoint::load(std::io::BufReader::new(file)).map_err(|source| RunDirError::Checkpoint {
            path: path.display().to_string(),
            source,
        })
    }

    /// The generation numbers present on disk, ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut gens = Vec::new();
        let Ok(entries) = std::fs::read_dir(self.root.join("ckpt")) else {
            return gens;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".capn"))
            {
                if let Ok(gen) = num.parse::<u64>() {
                    gens.push(gen);
                }
            }
        }
        gens.sort_unstable();
        gens
    }

    /// Loads the newest checkpoint that validates, at most `max_gen`
    /// when given, transparently falling back past corrupt or
    /// unreadable generations (each fallback bumps
    /// `nn.rundir.fallback_total` and emits a `rundir_fallback` event).
    /// Returns `None` when no generation validates.
    pub fn latest_valid(&self, max_gen: Option<u64>) -> Option<(u64, Network)> {
        for gen in self
            .generations()
            .into_iter()
            .rev()
            .filter(|&g| max_gen.is_none_or(|m| g <= m))
        {
            match self.load_generation(gen) {
                Ok(net) => return Some((gen, net)),
                Err(e) => {
                    cap_obs::counter_add("nn.rundir.fallback_total", 1);
                    cap_obs::emit(
                        cap_obs::Event::new("rundir_fallback")
                            .u64("generation", gen)
                            .str("reason", e.to_string()),
                    );
                    eprintln!("run dir: generation {gen} rejected ({e}); falling back");
                }
            }
        }
        None
    }

    /// Applies the retention policy: keep generation 0 and the newest
    /// `retain` generations, delete the rest (best effort).
    fn prune_generations(&self) {
        let gens = self.generations();
        if gens.len() <= self.retain + 1 {
            return;
        }
        let cutoff = gens[gens.len() - self.retain];
        for gen in gens {
            if gen != 0 && gen < cutoff {
                let _ = std::fs::remove_file(self.checkpoint_path(gen));
            }
        }
    }

    /// Appends one JSON object line to the journal and fsyncs it, so a
    /// record that this call returned `Ok` for survives a crash.
    ///
    /// # Errors
    ///
    /// Rejects embedded newlines ([`RunDirError::Corrupt`]) and
    /// propagates I/O errors.
    pub fn append_journal(&self, line: &str) -> Result<(), RunDirError> {
        if line.contains('\n') {
            return Err(RunDirError::Corrupt {
                reason: "journal records must be single lines".to_string(),
            });
        }
        self.append_line("journal.jsonl", line)?;
        cap_obs::counter_add("nn.rundir.journal_lines_total", 1);
        crate::heartbeat::beat();
        Ok(())
    }

    /// Appends one JSON object line to a named sidecar JSONL file in
    /// the run directory (`class_attribution.jsonl`) and fsyncs it.
    /// Sidecars follow the same durability discipline as the journal
    /// but are not consulted by resume, so extra history never blocks
    /// replaying a run.
    ///
    /// # Errors
    ///
    /// Rejects embedded newlines and path-like names
    /// ([`RunDirError::Corrupt`]) and propagates I/O errors.
    pub fn append_jsonl(&self, file_name: &str, line: &str) -> Result<(), RunDirError> {
        if line.contains('\n') {
            return Err(RunDirError::Corrupt {
                reason: "sidecar records must be single lines".to_string(),
            });
        }
        if file_name.is_empty()
            || !file_name.ends_with(".jsonl")
            || file_name.contains(['/', '\\'])
            || file_name.contains("..")
        {
            return Err(RunDirError::Corrupt {
                reason: format!("bad sidecar name {file_name:?} (want <name>.jsonl)"),
            });
        }
        self.append_line(file_name, line)
    }

    /// Appends `line` and its newline to `file_name` in one fsync'd
    /// write, after cutting any torn tail a crash left behind.
    fn append_line(&self, file_name: &str, line: &str) -> Result<(), RunDirError> {
        let path = self.root.join(file_name);
        let ctx = format!("append {}", path.display());
        let mut file = cap_obs::fsx::AppendFile::open_lines(&path).map_err(io_err(ctx.clone()))?;
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        file.append_durable(&buf).map_err(io_err(ctx))
    }

    /// Reads the journal as parsed JSON records. A record is committed
    /// once its newline is on disk: an unterminated *final* line — the
    /// signature of a crash mid-append — is ignored even when it
    /// parses, and the next append cuts it. A malformed line anywhere
    /// else is corruption.
    ///
    /// # Errors
    ///
    /// Returns [`RunDirError::Corrupt`] for mid-file damage and I/O
    /// errors for an unreadable file (a missing journal is `Ok(vec![])`).
    pub fn read_journal(&self) -> Result<Vec<Json>, RunDirError> {
        let path = self.root.join("journal.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(format!("read {}", path.display()))(e)),
        };
        let (committed, torn) = text.split_at(text.rfind('\n').map_or(0, |i| i + 1));
        if !torn.is_empty() {
            eprintln!("run dir: ignoring torn journal tail ({} bytes)", torn.len());
        }
        let lines: Vec<&str> = committed.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match json::parse(line) {
                Ok(v) => records.push(v),
                Err(_) if i + 1 == lines.len() => {
                    eprintln!("run dir: ignoring torn journal tail ({} bytes)", line.len());
                    break;
                }
                Err(e) => {
                    return Err(RunDirError::Corrupt {
                        reason: format!("journal line {} unparseable: {e}", i + 1),
                    })
                }
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, GlobalAvgPool, Linear, Relu};
    use rand::SeedableRng;
    use std::io::Write;

    /// Serialises tests that write checkpoints: `save_generation`
    /// consults the process-global `cap-faults` one-shot state, so a
    /// concurrent save could steal a bitflip armed by the injection
    /// test. Uses the shared obs test lock so fault-arming tests in
    /// other modules of this crate are serialised too.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        cap_obs::test_lock()
    }

    fn tiny_net(seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Network::new();
        net.push(Conv2d::new(1, 3, 3, 1, 1, true, &mut rng).unwrap());
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(3, 2, &mut rng).unwrap());
        net
    }

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cap_rundir_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn create_save_load_roundtrip() {
        let _guard = lock();
        let root = scratch("roundtrip");
        let dir = RunDir::create(&root).unwrap();
        let net = tiny_net(1);
        dir.save_generation(0, &net).unwrap();
        dir.save_generation(1, &tiny_net(2)).unwrap();
        assert_eq!(dir.generations(), vec![0, 1]);
        let restored = dir.load_generation(0).unwrap();
        assert_eq!(
            checkpoint::to_bytes(&restored).unwrap(),
            checkpoint::to_bytes(&net).unwrap()
        );
        let (gen, latest) = dir.latest_valid(None).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(
            checkpoint::to_bytes(&latest).unwrap(),
            checkpoint::to_bytes(&tiny_net(2)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn create_refuses_existing_run_and_open_requires_manifest() {
        let root = scratch("refuse");
        let dir = RunDir::create(&root).unwrap();
        dir.append_journal("{\"type\":\"meta\"}").unwrap();
        assert!(matches!(
            RunDir::create(&root),
            Err(RunDirError::Corrupt { .. })
        ));
        assert!(RunDir::open(&root).is_ok());
        let empty = scratch("no_manifest");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            RunDir::open(&empty),
            Err(RunDirError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn corrupt_generation_falls_back_to_previous() {
        let _guard = lock();
        let root = scratch("fallback");
        let dir = RunDir::create(&root).unwrap();
        let good = tiny_net(3);
        dir.save_generation(0, &good).unwrap();
        dir.save_generation(1, &good).unwrap();
        dir.save_generation(2, &tiny_net(4)).unwrap();
        // Flip one payload bit of the newest generation on disk.
        let path = dir.checkpoint_path(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            dir.load_generation(2),
            Err(RunDirError::Checkpoint {
                source: CheckpointError::ChecksumMismatch { .. },
                ..
            })
        ));
        let (gen, net) = dir.latest_valid(None).unwrap();
        assert_eq!(gen, 1, "must fall back past the corrupt generation");
        assert_eq!(
            checkpoint::to_bytes(&net).unwrap(),
            checkpoint::to_bytes(&good).unwrap()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_ckpt_fault_injection_is_caught_by_crc() {
        let _guard = lock();
        let root = scratch("fault");
        let dir = RunDir::create(&root).unwrap();
        let net = tiny_net(5);
        dir.save_generation(0, &net).unwrap();
        cap_faults::set_spec(Some("corrupt_ckpt=bitflip:1337")).unwrap();
        dir.save_generation(1, &net).unwrap(); // corrupted write (one-shot)
        cap_faults::set_spec(None).unwrap();
        assert!(dir.load_generation(1).is_err());
        let (gen, _) = dir.latest_valid(None).unwrap();
        assert_eq!(gen, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retention_keeps_gen_zero_and_newest() {
        let _guard = lock();
        let root = scratch("retain");
        let mut dir = RunDir::create(&root).unwrap();
        dir.set_retain(2);
        let net = tiny_net(6);
        for gen in 0..6 {
            dir.save_generation(gen, &net).unwrap();
        }
        assert_eq!(dir.generations(), vec![0, 4, 5]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sidecar_jsonl_appends_and_validates_names() {
        let root = scratch("sidecar");
        let dir = RunDir::create(&root).unwrap();
        dir.append_jsonl("class_attribution.jsonl", "{\"iteration\":1}")
            .unwrap();
        dir.append_jsonl("class_attribution.jsonl", "{\"iteration\":2}")
            .unwrap();
        let text = std::fs::read_to_string(root.join("class_attribution.jsonl")).unwrap();
        assert_eq!(text, "{\"iteration\":1}\n{\"iteration\":2}\n");
        for bad in ["", "notes.txt", "a/b.jsonl", "..\\x.jsonl", "..x/.jsonl"] {
            assert!(
                matches!(
                    dir.append_jsonl(bad, "{}"),
                    Err(RunDirError::Corrupt { .. })
                ),
                "{bad:?} accepted"
            );
        }
        assert!(dir.append_jsonl("ok.jsonl", "a\nb").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_appends_and_tolerates_torn_tail() {
        let root = scratch("journal");
        let dir = RunDir::create(&root).unwrap();
        dir.append_journal("{\"type\":\"meta\",\"n\":1}").unwrap();
        dir.append_journal("{\"type\":\"iter\",\"n\":2}").unwrap();
        assert!(dir.append_journal("two\nlines").is_err());
        // Simulate a crash mid-append: raw partial line at the end.
        let path = root.join("journal.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"type\":\"iter\",\"n\":3").unwrap();
        drop(f);
        let records = dir.read_journal().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get("n").and_then(Json::as_u64), Some(2));
        // Damage in the middle is corruption, not silently skipped.
        std::fs::write(&path, "{\"a\":1}\nnot json\n{\"b\":2}\n").unwrap();
        assert!(matches!(
            dir.read_journal(),
            Err(RunDirError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A run killed after writing a record but before its newline: the
    /// record parses, but it is not committed, and the next append must
    /// start on a line of its own instead of welding onto it.
    #[test]
    fn appends_after_an_unterminated_record_stay_on_their_own_lines() {
        let root = scratch("welded");
        let dir = RunDir::create(&root).unwrap();
        std::fs::write(
            root.join("journal.jsonl"),
            "{\"type\":\"meta\"}\n{\"type\":\"iter\",\"iteration\":1}",
        )
        .unwrap();
        assert_eq!(dir.read_journal().unwrap().len(), 1);
        dir.append_journal("{\"type\":\"iter\",\"iteration\":1}")
            .unwrap();
        assert_eq!(dir.read_journal().unwrap().len(), 2);
        dir.append_journal("{\"type\":\"iter\",\"iteration\":2}")
            .unwrap();
        let records = dir.read_journal().unwrap();
        assert_eq!(records.len(), 3);
        let iterations: Vec<Option<u64>> = records
            .iter()
            .map(|r| r.get("iteration").and_then(Json::as_u64))
            .collect();
        assert_eq!(iterations, vec![None, Some(1), Some(2)]);
        // Sidecars share the opener.
        std::fs::write(root.join("side.jsonl"), "{\"n\":1}\n{\"n\":2").unwrap();
        dir.append_jsonl("side.jsonl", "{\"n\":3}").unwrap();
        assert_eq!(
            std::fs::read_to_string(root.join("side.jsonl")).unwrap(),
            "{\"n\":1}\n{\"n\":3}\n"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
