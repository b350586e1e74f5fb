//! Integration tests for the live telemetry server: bind an ephemeral
//! port, drive real HTTP requests against the routes, and validate the
//! exposition grammar end to end.

/// Sets up enabled obs, runs `f` against a live server, then tears
/// every piece of global state back down.
fn with_server(f: impl FnOnce(std::net::SocketAddr)) {
    let _lock = cap_obs::test_lock();
    cap_obs::reset();
    let server = cap_obs::serve::Server::start("127.0.0.1:0").expect("bind ephemeral port");
    f(server.addr());
    server.stop();
    cap_obs::disable();
    cap_obs::reset();
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    cap_obs::serve::http_get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

#[test]
fn metrics_route_serves_valid_prometheus_text() {
    with_server(|addr| {
        cap_obs::counter_add("serve_test.requests", 7);
        cap_obs::gauge_set("par.worker.0.busy_seconds", 1.25);
        cap_obs::registry().histogram_record("serve_test.latency", 250.0);
        let body = get(addr, "/metrics");
        cap_obs::expo::validate(&body).expect("exposition grammar");
        assert!(body.contains("cap_serve_test_requests 7\n"), "{body}");
        assert!(
            body.contains("cap_par_worker_0_busy_seconds 1.250000\n"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE cap_serve_test_latency summary"),
            "{body}"
        );
        assert!(body.contains("cap_obs_uptime_seconds"), "{body}");
        // Scrapes are byte-stable modulo the samples the scrape itself
        // moves (uptime, the server's own request counters and
        // handling-time histogram).
        let strip = |b: &str| {
            b.lines()
                .filter(|l| !l.contains("cap_obs_uptime_seconds ") && !l.contains("cap_obs_http"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let again = get(addr, "/metrics");
        assert_eq!(strip(&body), strip(&again));
    });
}

#[test]
fn healthz_route_responds() {
    with_server(|addr| {
        assert_eq!(get(addr, "/healthz"), "ok\n");
    });
}

#[test]
fn routes_reject_bad_requests() {
    with_server(|addr| {
        let body = cap_obs::serve::http_get(addr, "/nope");
        assert!(body.is_err(), "404 should surface as an error: {body:?}");
    });
}
