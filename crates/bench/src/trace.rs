//! Shared observability wiring for the experiment binaries.
//!
//! Every binary calls [`init_trace`] (or [`init_trace_quiet`] for the
//! benchmark harness) first thing in `main`. Trace output always goes to
//! stderr (pretty) or a file (JSONL), never stdout, so the table/figure
//! artefacts the binaries print remain byte-stable.
//!
//! Both variants route through [`cap_obs::init_telemetry`], so
//! `CAP_TRACE` (sink selection) and `CAP_METRICS_ADDR` (live `/metrics`
//! HTTP server) behave identically across all experiment binaries and
//! `capctl`.

/// Initialises the cap-obs layer for a CLI binary.
///
/// Resolution order for the sink:
///
/// 1. `--trace <spec>` on the command line (e.g. `--trace jsonl:run.jsonl`
///    or `--trace pretty`; append `,detail` for per-span/per-batch events),
/// 2. the `CAP_TRACE` environment variable with the same grammar,
/// 3. otherwise the pretty sink on stderr, so progress narration keeps
///    appearing exactly where the old `eprintln!`-based logging went.
///
/// Independently, `CAP_METRICS_ADDR=<host>:<port>` starts the live
/// telemetry server (`/metrics`, `/healthz`, `/api/series`, `/dash`,
/// `/prof`).
///
/// Exits with status 2 on a malformed spec or an unbindable address — a
/// typo'd trace destination silently discarding telemetry is worse than
/// a hard stop.
pub fn init_trace() {
    init(true);
}

/// [`init_trace`] without the default pretty sink: observability stays
/// fully disabled unless `--trace`/`CAP_TRACE`/`CAP_METRICS_ADDR` asks
/// for it. The benchmark harness uses this so timing loops measure the
/// disabled fast path rather than sink formatting.
pub fn init_trace_quiet() {
    init(false);
}

fn init(default_pretty: bool) {
    let args: Vec<String> = std::env::args().collect();
    let cli_spec = args
        .windows(2)
        .find(|w| w[0] == "--trace")
        .map(|w| w[1].clone());
    match cap_obs::init_telemetry(cli_spec.as_deref()) {
        Ok(t) => {
            if !t.tracing && default_pretty {
                cap_obs::set_sink(Box::new(cap_obs::sink::PrettySink));
                cap_obs::enable();
            }
            if let Some(addr) = t.serving {
                eprintln!("cap-obs: live telemetry on http://{addr}/metrics");
            }
        }
        Err(e) => {
            eprintln!("telemetry setup failed: {e}");
            std::process::exit(2);
        }
    }
}

/// End-of-run counterpart to [`init_trace`]: when the live telemetry
/// server is up, self-scrapes `/metrics` once (validating the
/// exposition grammar), then hands off to
/// [`cap_obs::finalize_process`] — the shared shutdown path all
/// binaries use — for recorder/server shutdown and sink flush.
///
/// Returns an error instead of exiting so callers can decide whether a
/// failed final scrape should fail the run (CI does).
///
/// # Errors
///
/// Returns a description of the failed scrape or invalid exposition
/// body.
pub fn finalize_telemetry() -> Result<(), String> {
    let mut result = Ok(());
    if let Some(addr) = cap_obs::serve::global_addr() {
        result = cap_obs::serve::http_get(addr, "/metrics")
            .and_then(|body| cap_obs::expo::validate(&body).map(|()| body))
            .map(|body| {
                cap_obs::emit(
                    cap_obs::Event::new("metrics_scrape")
                        .str("addr", addr.to_string())
                        .u64("bytes", body.len() as u64),
                );
            });
    }
    cap_obs::finalize_process();
    result
}
