//! Regenerates the paper's tables and figures (Tables I–III, Figs. 4,
//! 6, 7, 8): all of them, or only those named by artefact id. Every
//! run comes from the [`cap_bench::specs`] grid and runs at most once,
//! and pre-trained models are cached on disk and shared across
//! artefacts, exactly the paper's comparison protocol ("we used the
//! pre-trained model weights ... and applied the proposed pruning
//! framework"). `CAP_CACHE` moves the cache (default
//! `target/cap-cache`).
//!
//! Usage: `cargo run -p cap-bench --release --bin exp_suite -- [--small|--smoke]
//! [--trace SPEC] [table1 table2 table3 fig4 fig6 fig7 fig8]`

use cap_bench::specs::{parse_suite_args, Suite};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, artefacts) = match parse_suite_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("exp_suite: {e}");
            return ExitCode::from(2);
        }
    };
    let cache = std::env::var_os("CAP_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/cap-cache"));
    cap_bench::init_trace();
    cap_obs::emit(
        cap_obs::Event::new("experiment_start")
            .str("experiment", "exp_suite")
            .str("scale", format!("{scale:?}"))
            .str("cache", cache.display().to_string()),
    );
    let t0 = cap_obs::clock::now();
    let mut suite = Suite::new(scale, cache);
    for artefact in artefacts {
        match suite.render(artefact) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                cap_obs::flush();
                eprintln!("exp_suite: {} failed: {e}", artefact.id());
                return ExitCode::FAILURE;
            }
        }
    }
    cap_obs::emit(
        cap_obs::Event::new("suite_done").f64("elapsed_secs", t0.elapsed().as_secs_f64()),
    );
    // With CAP_METRICS_ADDR set this self-scrapes /metrics (validating
    // the exposition); CI fails the run on a broken scrape.
    if let Err(e) = cap_bench::finalize_telemetry() {
        eprintln!("exp_suite: telemetry finalisation failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
