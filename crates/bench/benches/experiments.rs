//! One Criterion bench per paper table/figure, rendering it through the
//! same [`Suite`] entry as `exp_suite`, at a reduced smoke scale. These
//! benches double as end-to-end regression tests: `cargo bench`
//! re-derives every reported artefact. Each iteration starts from an
//! empty pre-train cache, so the timings include pre-training.

use cap_bench::specs::{Artefact, Suite};
use cap_bench::ExperimentScale;
use criterion::{criterion_group, criterion_main, Criterion};

/// An even tighter variant of the smoke scale so a full `cargo bench`
/// (10 Criterion samples x 7 experiments) stays in the minutes range.
fn smoke() -> ExperimentScale {
    ExperimentScale {
        train_per_class: 6,
        test_per_class: 2,
        train_per_class_100: 2,
        test_per_class_100: 1,
        pretrain_epochs: 1,
        finetune_epochs: 1,
        max_iterations: 1,
        images_per_class: 4,
        ..ExperimentScale::smoke()
    }
}

fn bench_artefact(c: &mut Criterion, id: &str, artefact: Artefact) {
    let caches = std::env::temp_dir().join(format!("cap-bench-{id}-{}", std::process::id()));
    let mut fresh = 0u64;
    c.bench_function(id, |b| {
        b.iter_with_setup(
            || {
                fresh += 1;
                caches.join(fresh.to_string())
            },
            |cache| Suite::new(smoke(), cache).render(artefact).unwrap(),
        )
    });
    std::fs::remove_dir_all(&caches).ok();
}

fn artefacts(c: &mut Criterion) {
    for (id, artefact) in [
        ("table1_pipeline", Artefact::Table1),
        ("table2_strategies", Artefact::Table2),
        ("table3_regularizers", Artefact::Table3),
        ("fig4_score_distribution", Artefact::Fig4),
        ("fig6_baselines", Artefact::Fig6),
        ("fig7_layerwise_scores", Artefact::Fig7),
        ("fig8_regularizer_distribution", Artefact::Fig8),
    ] {
        bench_artefact(c, id, artefact);
    }
}

criterion_group!(
    name = experiments;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(20)).warm_up_time(std::time::Duration::from_secs(1));
    targets = artefacts
);
criterion_main!(experiments);
