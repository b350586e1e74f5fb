//! Calibration utility for the scoring parameters of a trained model
//! (VGG16-C10 by default).
//!
//! By default it sweeps the site-relative Taylor binarisation factor α
//! and prints the resulting class-count score distribution, so the
//! experiment default can be chosen where the distribution is
//! informative (spread over the full 0..classes range, as in the paper's
//! Fig. 4/8) rather than saturated.
//!
//! With `--sweep-m` it instead sweeps `M`, the images scored per class,
//! to check the paper's claim that scoring with more than 10 images per
//! class barely changes the scores (Sec. IV: "by evaluating more than 10
//! images the importance scores of filters are almost the same with
//! those with 10 images").
//!
//! Usage: `cargo run -p cap-bench --release --bin calibrate_tau -- [--small|--smoke]
//! [--epochs N] [--c100] [--resnet|--vgg19] [--sweep-m]`

use cap_bench::{build_dataset, build_model, pretrain, Arch, DataKind, ExperimentScale};
use cap_core::{evaluate_scores, find_prunable_sites, ScoreConfig, ScoreHistogram, TauMode};
use cap_nn::RegularizerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    cap_bench::init_trace();
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let scale_flag = args
        .iter()
        .rev()
        .find(|a| *a == "--smoke" || *a == "--small");
    let mut scale = ExperimentScale::from_name(scale_flag.map_or("full", |f| &f[2..]))?;
    if let Some(pos) = args.iter().position(|a| a == "--epochs") {
        if let Some(e) = args.get(pos + 1).and_then(|v| v.parse().ok()) {
            scale.pretrain_epochs = e;
        }
    }
    let kind = if has("--c100") {
        DataKind::C100
    } else {
        DataKind::C10
    };
    let arch = if has("--resnet") {
        Arch::ResNet56
    } else if has("--vgg19") {
        Arch::Vgg19
    } else {
        Arch::Vgg16
    };
    let data = build_dataset(kind, &scale)?;
    let net = build_model(arch, kind, &scale)?;
    let mut prepared = pretrain(net, &data, &scale, RegularizerConfig::paper())?;
    println!(
        "{}-{} baseline accuracy {:.1}% after {} epochs",
        arch.name(),
        kind.name(),
        prepared.baseline_accuracy * 100.0,
        scale.pretrain_epochs
    );
    let sites = find_prunable_sites(&prepared.net);
    let mut score = |images_per_class: usize, tau: TauMode| {
        let cfg = ScoreConfig {
            images_per_class,
            tau,
            ..ScoreConfig::default()
        };
        evaluate_scores(&mut prepared.net, &sites, data.train(), &cfg)
    };
    if has("--sweep-m") {
        let reference = score(10, scale.tau)?;
        println!("M (images/class) | mean score | max |Δ| vs M=10 | mean |Δ| vs M=10");
        for m in [2usize, 5, 8, 10, 15, 20] {
            let scores = score(m, scale.tau)?;
            let mut max_dev = 0.0f64;
            let mut sum_dev = 0.0f64;
            let mut n = 0usize;
            for ((_, _, a), (_, _, b)) in scores.iter_scores().zip(reference.iter_scores()) {
                let d = (a - b).abs();
                max_dev = max_dev.max(d);
                sum_dev += d;
                n += 1;
            }
            println!(
                "{m:>16} | {:>10.3} | {:>14.3} | {:>15.4}",
                scores.mean(),
                max_dev,
                sum_dev / n.max(1) as f64
            );
        }
        return Ok(());
    }
    let threshold = cap_core::threshold_for_classes(kind.classes());
    for alpha in [0.5, 1.0, 2.0, 3.0, 4.0, 6.0] {
        let scores = score(scale.images_per_class, TauMode::SiteRelative(alpha))?;
        let h = ScoreHistogram::from_scores(&scores);
        let below = scores
            .iter_scores()
            .filter(|&(_, _, v)| v < threshold)
            .count();
        println!(
            "\nalpha = {alpha}: mean {:.2}, {}/{} filters below threshold {threshold}",
            scores.mean(),
            below,
            scores.total_filters()
        );
        if kind == DataKind::C10 {
            print!("{}", h.render_ascii(40));
        } else {
            // 100 bins is noisy; print decile summary instead.
            let counts = h.counts();
            for decile in 0..10 {
                let sum: usize = counts[decile * 10..(decile + 1) * 10].iter().sum();
                println!("{:>3}-{:<3} | {}", decile * 10, (decile + 1) * 10 - 1, sum);
            }
            println!("  100   | {}", counts[100]);
        }
    }
    Ok(())
}
