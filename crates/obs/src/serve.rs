//! A minimal `std::net` HTTP/1.1 server exposing live telemetry.
//!
//! Zero-dependency like the rest of the crate: one accept-loop thread
//! (`cap-obs-serve`), connections handled inline, five read-only routes:
//!
//! | Route | Content | Format |
//! |---|---|---|
//! | `/metrics` | the [`crate::Registry`] | Prometheus text exposition ([`crate::expo`]) |
//! | `/healthz` | liveness | `ok` |
//! | `/api/series` | recorded history ([`crate::recorder`]) | JSON (`?name=<series>&from=<seq>&to=<seq>&downsample=<n>`) |
//! | `/dash` | run-history dashboard ([`crate::dash`]) | self-contained HTML |
//! | `/prof` | live span-tree flamegraph ([`crate::span_stacks`] + [`crate::flame`]) | SVG |
//!
//! The server also observes itself: every request bumps a per-route
//! counter (`obs.http.requests.<route>`) and records its handling time
//! into the `obs.http.handle_us` histogram; the heavier rendering
//! routes (`/prof`, `/dash`, `/api/series`) additionally get their own
//! `obs.http.handle_us.<route>` histogram rows. All visible in
//! `/metrics`.
//!
//! The server only *reads* shared state, so leaving it running cannot
//! affect workload results — the determinism contract of `cap-par`
//! holds with the server enabled (pinned by the
//! `telemetry_integration` workspace test).
//!
//! Start it per-process from the `CAP_METRICS_ADDR` environment
//! variable via [`crate::init_telemetry`], or explicitly:
//!
//! ```
//! let _obs = cap_obs::test_lock();
//! let server = cap_obs::serve::Server::start("127.0.0.1:0").unwrap();
//! let addr = server.addr(); // scrape http://{addr}/metrics
//! server.stop();
//! ```

use crate::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Upper bound on request bytes we read (request line + headers).
const MAX_REQUEST_BYTES: usize = 8192;

/// Bind attempts before [`Server::start_resilient`] gives up on an
/// `EADDRINUSE` address and degrades to disabled.
const BIND_ATTEMPTS: u32 = 4;
/// First retry delay for an in-use address; doubles per attempt.
const BIND_BACKOFF: Duration = Duration::from_millis(20);

/// A running telemetry server. Dropping (or calling [`Server::stop`])
/// shuts the accept loop down and joins its thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, port `0` for ephemeral) and
    /// starts serving. Also flips the master obs gate on — a metrics
    /// server over a disabled registry would only ever serve emptiness.
    ///
    /// # Errors
    ///
    /// Returns the formatted I/O error when the address cannot be bound.
    pub fn start(addr: &str) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        Server::start_listener(listener)
    }

    /// Like [`Server::start`], but resilient to a taken address: an
    /// `EADDRINUSE` bind is retried `BIND_ATTEMPTS` times with capped
    /// exponential backoff, and if the address is *still* in use the
    /// server degrades to disabled — a warning on stderr and
    /// `Ok(None)` — instead of failing the run. Telemetry is an
    /// observer; losing it must never kill the workload it observes.
    /// Any other bind error is still reported as `Err`.
    ///
    /// # Errors
    ///
    /// Returns the formatted I/O error for non-`EADDRINUSE` failures.
    pub fn start_resilient(addr: &str) -> Result<Option<Server>, String> {
        let mut delay = BIND_BACKOFF;
        for attempt in 1..=BIND_ATTEMPTS {
            match TcpListener::bind(addr) {
                Ok(listener) => return Server::start_listener(listener).map(Some),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    if attempt < BIND_ATTEMPTS {
                        eprintln!(
                            "cap-obs: {addr} in use (attempt {attempt}/{BIND_ATTEMPTS}), \
                             retrying in {}ms",
                            delay.as_millis()
                        );
                        std::thread::sleep(delay);
                        delay = delay.saturating_mul(2).min(Duration::from_millis(500));
                    }
                }
                Err(e) => return Err(format!("bind {addr}: {e}")),
            }
        }
        eprintln!(
            "cap-obs: warning: {addr} still in use after {BIND_ATTEMPTS} attempts — \
             telemetry server disabled for this run"
        );
        Ok(None)
    }

    fn start_listener(listener: TcpListener) -> Result<Server, String> {
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        crate::enable();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("cap-obs-serve".to_string())
            .spawn(move || accept_loop(&listener, &flag))
            .map_err(|e| format!("spawn cap-obs-serve: {e}"))?;
        Ok(Server {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the accept loop down and joins it.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // Unblock the (blocking) accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shutdown: &AtomicBool) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // A stuck client must not wedge the telemetry loop.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        handle_connection(stream);
    }
}

fn handle_connection(mut stream: TcpStream) {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head; body-less GETs only.
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let started = crate::clock::now();
    let (status, content_type, body) = route(method, path);
    crate::counter_add("obs.http_requests_total", 1);
    crate::counter_add(route_counter(path), 1);
    let handle_us = started.elapsed().as_secs_f64() * 1e6;
    crate::histogram_record("obs.http.handle_us", handle_us);
    if let Some(name) = route_handle_histogram(path) {
        crate::histogram_record(name, handle_us);
    }
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// The self-observation counter for `path` (static names only — a
/// hostile path must not mint unbounded metric names).
fn route_counter(path: &str) -> &'static str {
    match path.split('?').next().unwrap_or("") {
        "/metrics" => "obs.http.requests.metrics",
        "/healthz" => "obs.http.requests.healthz",
        "/api/series" => "obs.http.requests.api_series",
        "/dash" => "obs.http.requests.dash",
        "/prof" => "obs.http.requests.prof",
        _ => "obs.http.requests.other",
    }
}

/// Per-route handle-duration histogram for the rendering routes whose
/// cost is worth watching individually (static names only, same rule
/// as [`route_counter`]). The cheap routes only feed the shared
/// `obs.http.handle_us`.
fn route_handle_histogram(path: &str) -> Option<&'static str> {
    match path.split('?').next().unwrap_or("") {
        "/api/series" => Some("obs.http.handle_us.api_series"),
        "/dash" => Some("obs.http.handle_us.dash"),
        "/prof" => Some("obs.http.handle_us.prof"),
        _ => None,
    }
}

fn route(method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        );
    }
    let (base, query) = match path.split_once('?') {
        Some((b, q)) => (b, q),
        None => (path, ""),
    };
    match base {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            crate::expo::render(crate::registry()),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/api/series" => match series_json(query) {
            Ok(body) => ("200 OK", "application/json; charset=utf-8", body),
            Err(e) => (
                "400 Bad Request",
                "text/plain; charset=utf-8",
                format!("bad query: {e}\n"),
            ),
        },
        "/dash" => (
            "200 OK",
            "text/html; charset=utf-8",
            crate::dash::render(&crate::recorder::memory_samples(), "live"),
        ),
        "/prof" => (
            "200 OK",
            "image/svg+xml; charset=utf-8",
            crate::flame::render_svg(&crate::span_stacks(), "live profile"),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /healthz /api/series /dash /prof\n".to_string(),
        ),
    }
}

/// Upper bound on an `/api/series` query string.
const MAX_QUERY_BYTES: usize = 1024;
/// Upper bound on the `downsample` parameter.
const MAX_DOWNSAMPLE: u64 = 100_000;

/// Parses and answers an `/api/series` query over the recorder's
/// in-memory history. The response is byte-stable: same history, same
/// query → identical bytes (sorted data, shortest-round-trip floats).
fn series_json(query: &str) -> Result<String, String> {
    if query.len() > MAX_QUERY_BYTES {
        return Err(format!(
            "query string over {MAX_QUERY_BYTES} bytes ({})",
            query.len()
        ));
    }
    let mut name: Option<&str> = None;
    let mut from: Option<u64> = None;
    let mut to: Option<u64> = None;
    let mut downsample: usize = 0;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
        match key {
            "name" => {
                if value.is_empty() || value.len() > 256 {
                    return Err("name must be 1..=256 bytes".to_string());
                }
                if !value
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b':')
                {
                    return Err("name may only contain [A-Za-z0-9._:]".to_string());
                }
                name = Some(value);
            }
            "from" => from = Some(value.parse().map_err(|_| format!("bad from {value:?}"))?),
            "to" => to = Some(value.parse().map_err(|_| format!("bad to {value:?}"))?),
            "downsample" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("bad downsample {value:?}"))?;
                if n == 0 || n > MAX_DOWNSAMPLE {
                    return Err(format!("downsample must be 1..={MAX_DOWNSAMPLE}"));
                }
                downsample = n as usize;
            }
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    let name = name.ok_or_else(|| "missing required parameter name".to_string())?;
    let samples = crate::recorder::memory_samples();
    let points = crate::tsdb::query(&samples, name, from, to, downsample);
    let mut out = String::with_capacity(64 + points.len() * 24);
    out.push_str("{\"name\":");
    json::write_str(&mut out, name);
    out.push_str(",\"samples\":");
    out.push_str(&samples.len().to_string());
    out.push_str(",\"points\":[");
    for (i, (seq, t, value)) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        out.push_str(&seq.to_string());
        out.push(',');
        json::write_f64(&mut out, *t);
        out.push(',');
        json::write_f64(&mut out, *value);
        out.push(']');
    }
    out.push_str("]}\n");
    Ok(out)
}

fn global_slot() -> &'static Mutex<Option<Server>> {
    static GLOBAL: OnceLock<Mutex<Option<Server>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Starts the process-global server. Replaces any previous global
/// server.
///
/// # Errors
///
/// Propagates [`Server::start`] errors.
pub fn start_global(addr: &str) -> Result<SocketAddr, String> {
    let server = Server::start(addr)?;
    Ok(install_global(server))
}

/// The resilient variant of [`start_global`]: an address that is still
/// in use after [`Server::start_resilient`]'s retries yields
/// `Ok(None)` (telemetry disabled, run continues) instead of an error.
///
/// # Errors
///
/// Propagates non-`EADDRINUSE` [`Server::start_resilient`] errors.
pub fn start_global_resilient(addr: &str) -> Result<Option<SocketAddr>, String> {
    Ok(Server::start_resilient(addr)?.map(install_global))
}

fn install_global(server: Server) -> SocketAddr {
    let bound = server.addr();
    let mut slot = global_slot().lock().unwrap();
    if let Some(old) = slot.take() {
        old.stop();
    }
    *slot = Some(server);
    bound
}

/// Address of the running global server, if any.
pub fn global_addr() -> Option<SocketAddr> {
    global_slot().lock().unwrap().as_ref().map(Server::addr)
}

/// Stops the global server (no-op when none is running).
pub fn stop_global() {
    if let Some(server) = global_slot().lock().unwrap().take() {
        server.stop();
    }
}

/// Performs one blocking HTTP GET against `addr` and returns the
/// response body. This is the client the integration tests, the
/// self-scrape in `exp_suite`, and `bench_baseline` use; it speaks just
/// enough HTTP/1.1 for our own server.
///
/// # Errors
///
/// Returns a description of connect/read failures or a non-200 status.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {response:?}"))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains("200") {
        return Err(format!("GET {path}: {status_line}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_reports_bound_addr_and_stops_cleanly() {
        let _guard = crate::test_lock();
        crate::reset();
        let server = Server::start("127.0.0.1:0").unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0);
        let body = http_get(addr, "/healthz").unwrap();
        assert_eq!(body, "ok\n");
        server.stop();
        // The port is released: a fresh bind on it succeeds (best
        // effort — other processes may race us, so only check errors
        // from our own server are gone).
        assert!(http_get(addr, "/healthz").is_err());
        crate::disable();
        crate::reset();
    }

    #[test]
    fn resilient_start_degrades_on_addr_in_use() {
        let _guard = crate::test_lock();
        crate::reset();
        // Squat a concrete port with a plain listener, then ask for a
        // resilient server on the same address: after its retries it
        // must degrade to Ok(None), not error.
        let squatter = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = squatter.local_addr().unwrap().to_string();
        let degraded = Server::start_resilient(&addr).unwrap();
        assert!(degraded.is_none(), "in-use addr must degrade to None");
        // A free address still starts normally through the same path.
        let server = Server::start_resilient("127.0.0.1:0").unwrap().unwrap();
        assert_ne!(server.addr().port(), 0);
        server.stop();
        drop(squatter);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn unknown_routes_and_methods_are_rejected() {
        let (status, _, body) = route("GET", "/nope");
        assert!(status.starts_with("404"));
        assert_eq!(body, "routes: /metrics /healthz /api/series /dash /prof\n");
        let (status, _, _) = route("POST", "/metrics");
        assert!(status.starts_with("405"));
        let (status, _, _) = route("GET", "/metrics?x=1");
        assert!(status.starts_with("200"));
    }

    #[test]
    fn api_series_queries_are_validated() {
        // The byte-stability check below reads the global recorder ring
        // twice; the lock keeps other tests from appending in between.
        let _guard = crate::test_lock();
        // Parameter validation is independent of recorder state.
        assert!(series_json("").is_err(), "name is required");
        assert!(series_json("name=").is_err());
        assert!(series_json("name=ok;drop").is_err(), "hostile charset");
        assert!(series_json("name=a&bogus=1").is_err(), "unknown parameter");
        assert!(series_json("name=a&from=x").is_err());
        assert!(series_json("name=a&downsample=0").is_err());
        assert!(series_json("name=a&downsample=999999999").is_err());
        assert!(series_json("noequals").is_err());
        let huge = format!("name={}", "a".repeat(2000));
        assert!(series_json(&huge).is_err(), "oversized query");
        let long_name = format!("name={}", "a".repeat(300));
        assert!(series_json(&long_name).is_err(), "oversized name");

        let (status, _, _) = route("GET", "/api/series?name=a&bogus=1");
        assert!(status.starts_with("400"), "{status}");
        let (status, _, body) = route("GET", "/api/series?name=nn.fit.loss");
        assert!(status.starts_with("200"), "{status}");
        let parsed = json::parse(body.trim()).unwrap();
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("nn.fit.loss"),
            "{body}"
        );
        // Byte-stable: same state, same query, same bytes.
        let (_, _, again) = route("GET", "/api/series?name=nn.fit.loss");
        assert_eq!(body, again);
    }

    #[test]
    fn dash_route_serves_html() {
        let (status, content_type, body) = route("GET", "/dash");
        assert!(status.starts_with("200"));
        assert!(content_type.starts_with("text/html"));
        assert!(body.starts_with("<!doctype html>"), "{body}");
    }

    #[test]
    fn route_counters_use_static_names() {
        assert_eq!(route_counter("/metrics"), "obs.http.requests.metrics");
        assert_eq!(
            route_counter("/api/series?name=x"),
            "obs.http.requests.api_series"
        );
        assert_eq!(route_counter("/dash?x"), "obs.http.requests.dash");
        assert_eq!(route_counter("/prof"), "obs.http.requests.prof");
        assert_eq!(route_counter("/%2e%2e/etc"), "obs.http.requests.other");
        assert_eq!(
            route_handle_histogram("/prof?x"),
            Some("obs.http.handle_us.prof")
        );
        assert_eq!(
            route_handle_histogram("/dash"),
            Some("obs.http.handle_us.dash")
        );
        assert_eq!(
            route_handle_histogram("/api/series?name=x"),
            Some("obs.http.handle_us.api_series")
        );
        assert_eq!(route_handle_histogram("/metrics"), None);
        assert_eq!(route_handle_histogram("/%2e%2e/etc"), None);
    }

    #[test]
    fn prof_route_renders_the_span_tree() {
        let _guard = crate::test_lock();
        crate::reset();
        let (status, content_type, body) = route("GET", "/prof");
        assert!(status.starts_with("200"));
        assert!(content_type.starts_with("image/svg+xml"));
        assert!(body.contains("no time recorded"), "{body}");
        crate::enable();
        {
            let _span = crate::SpanGuard::enter("prof_demo");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (_, _, body) = route("GET", "/prof");
        assert!(body.starts_with("<svg"), "{body}");
        assert!(body.contains("prof_demo"), "{body}");
        assert!(body.ends_with("</svg>\n"), "{body}");
        crate::disable();
        crate::reset();
    }
}
