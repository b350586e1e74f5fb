//! Tests for the pre-trained-model cache used by the experiment suite.

use cap_bench::{build_dataset, pretrain_cached, Arch, DataKind, ExperimentScale, Prepared};
use cap_nn::RegularizerConfig;
use cap_tensor::SimdMode;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held by every test in this file, so none trains while
/// `simd_modes_use_different_cache_entries` has switched the
/// process-wide SIMD mode.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        image_size: 8,
        train_per_class: 4,
        test_per_class: 2,
        pretrain_epochs: 1,
        ..ExperimentScale::smoke()
    }
}

fn cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cap-cache-{tag}-{}", std::process::id()))
}

/// VGG16-C10 pre-trained at `scale` under `reg`, through the cache at `dir`.
fn pretrain_vgg16(dir: &Path, scale: &ExperimentScale, reg: RegularizerConfig) -> Prepared {
    let data = build_dataset(DataKind::C10, scale).expect("dataset");
    pretrain_cached(Arch::Vgg16, DataKind::C10, &data, scale, reg, dir).expect("pretrain")
}

/// File names of the cached models in `dir`.
fn cached_models(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(|e| {
            let path = e.ok()?.path();
            path.extension().is_some_and(|x| x == "capn").then(|| {
                path.file_name()
                    .expect("entry has a name")
                    .to_string_lossy()
                    .into_owned()
            })
        })
        .collect()
}

#[test]
fn cache_roundtrip_returns_identical_model() {
    let _lock = mode_lock();
    let dir = cache_dir("roundtrip");
    let scale = tiny_scale();
    let first = pretrain_vgg16(&dir, &scale, RegularizerConfig::paper());
    // Second call must hit the cache and return identical weights.
    let second = pretrain_vgg16(&dir, &scale, RegularizerConfig::paper());
    assert_eq!(first.net.num_params(), second.net.num_params());
    assert!((first.baseline_accuracy - second.baseline_accuracy).abs() < 1e-12);
    let mut w1 = Vec::new();
    let mut n1 = first.net.clone();
    n1.visit_params_mut(&mut |w, _| w1.extend_from_slice(w.data()));
    let mut w2 = Vec::new();
    let mut n2 = second.net.clone();
    n2.visit_params_mut(&mut |w, _| w2.extend_from_slice(w.data()));
    assert_eq!(w1, w2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_regularizers_use_different_cache_entries() {
    let _lock = mode_lock();
    let dir = cache_dir("regularizers");
    pretrain_vgg16(&dir, &tiny_scale(), RegularizerConfig::none());
    pretrain_vgg16(&dir, &tiny_scale(), RegularizerConfig::paper());
    assert_eq!(cached_models(&dir).len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scales_differing_in_batch_size_or_test_split_use_different_cache_entries() {
    let _lock = mode_lock();
    let dir = cache_dir("scales");
    let base = tiny_scale();
    for scale in [
        base,
        ExperimentScale {
            batch_size: base.batch_size + 1,
            ..base
        },
        ExperimentScale {
            test_per_class: base.test_per_class + 1,
            ..base
        },
    ] {
        pretrain_vgg16(&dir, &scale, RegularizerConfig::paper());
    }
    assert_eq!(cached_models(&dir).len(), 3, "one cached model per scale");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cache_falls_back_to_retraining() {
    let _lock = mode_lock();
    let dir = cache_dir("corrupt");
    // Seed the cache, then corrupt the model file.
    pretrain_vgg16(&dir, &tiny_scale(), RegularizerConfig::paper());
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "capn") {
            std::fs::write(&path, b"garbage").expect("corrupt");
        }
    }
    let recovered = pretrain_vgg16(&dir, &tiny_scale(), RegularizerConfig::paper());
    assert!(recovered.net.num_params() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simd_modes_use_different_cache_entries() {
    let _lock = mode_lock();
    let dir = cache_dir("simd");
    let initial = cap_tensor::simd_mode();
    let mut modes = vec![SimdMode::Scalar];
    if cap_tensor::avx2_available() {
        modes.push(SimdMode::Avx2);
    }
    for &mode in &modes {
        cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
        pretrain_vgg16(&dir, &tiny_scale(), RegularizerConfig::paper());
    }
    cap_tensor::set_simd_mode(initial).expect("restoring the initial mode");
    let names = cached_models(&dir);
    assert_eq!(
        names.len(),
        modes.len(),
        "one cached model per mode: {names:?}"
    );
    for mode in modes {
        assert!(
            names.iter().any(|n| n.contains(mode.name())),
            "no entry names {}: {names:?}",
            mode.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
