//! The experiment grid end to end at a tiny scale: each artefact
//! rendered on its own is exactly its block of the whole suite, every
//! run an artefact reads is a fleet-visible spec, and unknown ids are
//! refused.

use cap_bench::specs::{suite_specs, Artefact, Suite};
use cap_bench::ExperimentScale;
use std::collections::BTreeSet;
use std::process::Command;

/// Smaller than smoke wherever the cost is (100-class scoring above
/// all), so the grid runs twice in seconds, or under a minute in a debug
/// build.
fn tiny() -> ExperimentScale {
    ExperimentScale {
        train_per_class: 4,
        test_per_class: 2,
        train_per_class_100: 1,
        test_per_class_100: 1,
        width: 0.0625,
        pretrain_epochs: 1,
        pretrain_epochs_100: 1,
        finetune_epochs: 1,
        max_iterations: 1,
        images_per_class: 2,
        ..ExperimentScale::smoke()
    }
}

#[test]
fn each_artefact_alone_renders_exactly_its_block_of_the_whole_suite() {
    let cache = std::env::temp_dir().join(format!("cap-suite-test-{}", std::process::id()));
    let mut whole = Suite::new(tiny(), &cache);
    let blocks: Vec<String> = Artefact::ALL
        .iter()
        .map(|a| {
            whole
                .render(*a)
                .unwrap_or_else(|e| panic!("{}: {e}", a.id()))
        })
        .collect();
    for (artefact, block) in Artefact::ALL.into_iter().zip(&blocks) {
        assert!(block.lines().count() > 1, "{} is empty", artefact.id());
        let alone = Suite::new(tiny(), &cache)
            .render(artefact)
            .unwrap_or_else(|e| panic!("{} alone: {e}", artefact.id()));
        assert_eq!(&alone, block, "{} alone", artefact.id());
    }
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn every_spec_an_artefact_reads_is_in_the_grid_and_every_grid_spec_is_read() {
    let grid: BTreeSet<String> = suite_specs().into_iter().map(|s| s.id).collect();
    let mut read = BTreeSet::new();
    for artefact in Artefact::ALL {
        for spec in artefact.specs() {
            assert!(
                grid.contains(&spec.id),
                "{} reads {}",
                artefact.id(),
                spec.id
            );
            read.insert(spec.id);
        }
    }
    assert_eq!(read, grid);
}

#[test]
fn unknown_artefact_ids_are_refused_with_exit_2_and_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_suite"))
        .args(["--smoke", "table4"])
        .output()
        .expect("spawn exp_suite");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for artefact in Artefact::ALL {
        assert!(stderr.contains(artefact.id()), "{stderr}");
    }
}
