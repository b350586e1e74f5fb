//! The worker process: executes exactly one spec inside its run dir.
//!
//! A worker is a `capfleet worker --fleet-dir D --spec ID` child. It
//! owns `D/runs/ID/`, arms the [`cap_nn::heartbeat`] at
//! `runs/ID/heartbeat` (so the supervisor can tell wedged from slow),
//! and runs the spec through the crash-safe `RunDir` path: a fresh dir
//! starts `run_with_dir`, a dir holding a journal resumes
//! bit-identically through [`ClassAwarePruner::resume`]. The run dir
//! is the worker's whole record (journal, `series.capts`,
//! `profile.folded`); `capctl tail|dash|flame` read it.
//!
//! Success is *two* signals, both required by the supervisor: exit
//! status 0 **and** a `DONE.json` marker written atomically with the
//! final checkpoint's CRC. The marker is what makes "done" survive a
//! supervisor SIGKILL: reconciliation trusts the run dir, not the
//! supervisor's memory, so a completed spec is never executed twice.

use crate::spec::{parse_strategy, Spec};
use cap_core::{ClassAwarePruner, PruneConfig, PruneOutcome};
use cap_data::{DatasetSpec, SyntheticDataset};
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use cap_nn::{Network, RunDir, TrainConfig};
use cap_obs::json;
use rand::SeedableRng;
use std::path::Path;

/// Heartbeat file name inside a run dir.
pub const HEARTBEAT_FILE: &str = "heartbeat";
/// Completion marker inside a run dir.
pub const DONE_FILE: &str = "DONE.json";

/// Run directory for `spec_id` inside `fleet_dir`.
pub fn run_dir_path(fleet_dir: &Path, spec_id: &str) -> std::path::PathBuf {
    fleet_dir.join("runs").join(spec_id)
}

/// The small synthetic network demo specs prune (the `capctl prune`
/// topology, width-parameterised).
fn demo_net(width: usize, seed: u64) -> Result<Network, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Conv2d::new(3, width, 3, 1, 1, false, &mut rng).map_err(|e| format!("conv: {e}"))?);
    net.push(BatchNorm2d::new(width).map_err(|e| format!("bn: {e}"))?);
    net.push(Relu::new());
    net.push(
        Conv2d::new(width, width, 3, 1, 1, false, &mut rng).map_err(|e| format!("conv: {e}"))?,
    );
    net.push(BatchNorm2d::new(width).map_err(|e| format!("bn: {e}"))?);
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(width, 10, &mut rng).map_err(|e| format!("linear: {e}"))?);
    Ok(net)
}

fn run_demo(spec: &Spec, run_dir: &Path) -> Result<(f64, f64), String> {
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(12, 4),
    )
    .map_err(|e| format!("dataset: {e}"))?;
    let pruner = ClassAwarePruner::new(PruneConfig {
        strategy: parse_strategy(&spec.strategy)?,
        finetune: TrainConfig {
            epochs: 2,
            batch_size: 20,
            lr: 0.02,
            ..TrainConfig::default()
        },
        max_iterations: spec.iters as usize,
        accuracy_drop_limit: 1.0,
        ..PruneConfig::default()
    })
    .map_err(|e| format!("config: {e}"))?;
    let outcome: PruneOutcome = if run_dir.join("journal.jsonl").exists() {
        let dir = RunDir::open(run_dir).map_err(|e| format!("open run dir: {e}"))?;
        let (_, outcome) = pruner
            .resume(data.train(), data.test(), &dir)
            .map_err(|e| format!("resume: {e}"))?;
        outcome
    } else {
        let dir = RunDir::create(run_dir).map_err(|e| format!("create run dir: {e}"))?;
        let mut net = demo_net(spec.width as usize, spec.seed)?;
        pruner
            .run_with_dir(&mut net, data.train(), data.test(), &dir)
            .map_err(|e| format!("prune: {e}"))?
    };
    Ok((outcome.final_accuracy, outcome.pruning_ratio()))
}

fn run_suite(spec: &Spec, fleet_dir: &Path, run_dir: &Path) -> Result<(f64, f64), String> {
    let name = if spec.scale.is_empty() {
        "smoke"
    } else {
        &spec.scale
    };
    let scale = cap_bench::ExperimentScale::from_name(name)?;
    let suite_spec = cap_bench::specs::find_spec(&spec.id)
        .ok_or_else(|| format!("{:?} is not an exp_suite spec id", spec.id))?;
    let outcome =
        cap_bench::specs::run_spec(&suite_spec, &scale, &fleet_dir.join("cache"), Some(run_dir))?;
    Ok((outcome.final_accuracy, outcome.pruning_ratio))
}

/// CRC32 of the newest checkpoint in `run_dir/ckpt`, with its file
/// name. `None` when `run_dir` holds no checkpoint, which no completed
/// spec leaves: every kind runs the journaled pruning loop.
fn latest_ckpt_crc(run_dir: &Path) -> Option<(String, u32)> {
    let ckpt_dir = run_dir.join("ckpt");
    let mut names: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .ok()?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("gen-") && n.ends_with(".capn"))
        .collect();
    names.sort();
    let newest = names.pop()?;
    let bytes = std::fs::read(ckpt_dir.join(&newest)).ok()?;
    Some((newest, cap_obs::tsdb::crc32(&bytes)))
}

/// Executes `spec_id` to completion inside `fleet_dir`. On success the
/// run dir holds `DONE.json`; any error is returned for the binary to
/// print and convert into a nonzero exit the supervisor will see.
///
/// # Errors
///
/// Returns a description of whatever stage failed.
pub fn run_worker(fleet_dir: &Path, spec_id: &str) -> Result<(), String> {
    let queue = crate::queue::Queue::load(fleet_dir)?;
    let spec = queue
        .get(spec_id)
        .ok_or_else(|| format!("spec {spec_id:?} not in queue"))?
        .spec
        .clone();
    let run_dir = run_dir_path(fleet_dir, spec_id);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    cap_nn::heartbeat::arm(run_dir.join(HEARTBEAT_FILE));
    // A persistently-failing spec exits before doing any work.
    cap_faults::maybe_exit_at_start();
    // Record from here, not from the pruning loop's recorder start, so
    // the run dir's profile and series cover pre-training and the
    // baseline pass too.
    cap_obs::enable();

    let (final_accuracy, pruning_ratio) = match spec.kind.as_str() {
        "demo" => run_demo(&spec, &run_dir)?,
        "suite" => run_suite(&spec, fleet_dir, &run_dir)?,
        other => return Err(format!("unknown spec kind {other:?}")),
    };

    let mut done = String::with_capacity(128);
    done.push_str("{\"id\":");
    json::write_str(&mut done, spec_id);
    done.push_str(",\"final_accuracy\":");
    json::write_f64(&mut done, final_accuracy);
    done.push_str(",\"pruning_ratio\":");
    json::write_f64(&mut done, pruning_ratio);
    if let Some((name, crc)) = latest_ckpt_crc(&run_dir) {
        done.push_str(",\"ckpt\":");
        json::write_str(&mut done, &name);
        done.push_str(",\"ckpt_crc\":");
        done.push_str(&crc.to_string());
    }
    done.push_str("}\n");
    cap_obs::fsx::atomic_write(&run_dir.join(DONE_FILE), done.as_bytes())
        .map_err(|e| format!("write DONE.json: {e}"))?;
    cap_nn::heartbeat::beat();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_net_honours_width() {
        let net = demo_net(8, 1).unwrap();
        assert_eq!(net.layers().len(), 8);
        assert!(demo_net(0, 1).is_err(), "zero width must fail cleanly");
    }

    #[test]
    fn latest_ckpt_crc_picks_newest_generation() {
        let dir = std::env::temp_dir().join(format!("cap_fleet_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("ckpt")).unwrap();
        assert_eq!(latest_ckpt_crc(&dir), None, "empty ckpt dir");
        cap_obs::fsx::atomic_write(&dir.join("ckpt/gen-000001.capn"), b"one").unwrap();
        cap_obs::fsx::atomic_write(&dir.join("ckpt/gen-000002.capn"), b"two").unwrap();
        cap_obs::fsx::atomic_write(&dir.join("ckpt/junk.txt"), b"x").unwrap();
        let (name, crc) = latest_ckpt_crc(&dir).unwrap();
        assert_eq!(name, "gen-000002.capn");
        assert_eq!(crc, cap_obs::tsdb::crc32(b"two"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
