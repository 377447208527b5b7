//! A std-only HTTP/1.1 scrape server over one [`Obs`].
//!
//! No dependencies, no async runtime: one `TcpListener` accept loop on a
//! background thread, serving connections **sequentially** — connection
//! concurrency is bounded to 1 by construction, which is exactly right
//! for a scrape endpoint (one Prometheus server polling every few
//! seconds) and keeps the server from ever amplifying load on the
//! engine it watches. Every response closes its connection.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4), the
//!   same bytes [`export::prometheus`] renders;
//! * `GET /metrics.json` — the stable `nacu-obs/v2` JSON document;
//! * `GET /health` — `200 ok` while every worker is in service and no
//!   drift alarm has latched, `503 degraded` otherwise, with a small
//!   JSON body either way;
//! * `GET /trace` — drains a window of the trace ring and renders it as
//!   Chrome trace-event JSON ([`crate::chrome::chrome_trace`]),
//!   loadable directly in Perfetto;
//! * `GET /` — a plain-text index of the above.
//!
//! The server is offline-first: it binds whatever address the caller
//! passes (tests use `127.0.0.1:0`) and never makes outbound
//! connections except the loopback self-wake that unblocks the accept
//! loop on shutdown.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::chrome::chrome_trace;
use crate::slo::Telemetry;
use crate::window::WINDOWS;
use crate::{export, Obs};

/// How long a single scrape connection may take to send its request or
/// accept our response before it is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Request-head size cap; anything longer is answered 431 and dropped.
const MAX_HEAD: usize = 8 * 1024;

/// Most trace events one `/trace` scrape drains.
const TRACE_DRAIN_MAX: usize = 65_536;

/// Worker in-service census the `/health` endpoint reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCensus {
    /// Workers the pool was built with.
    pub total: usize,
    /// Workers currently in service (not quarantined).
    pub healthy: usize,
}

/// What the scrape server needs from its host: the observability object
/// plus the host-side context (reference clock, flat engine counters,
/// worker census) the exporters take as parameters.
pub trait ScrapeSource: Send + Sync + 'static {
    /// The live observability the endpoints render.
    fn obs(&self) -> Arc<Obs>;
    /// Reference clock for the cycle-accounting gauges.
    fn clock_hz(&self) -> f64;
    /// Flat counters appended to both wire formats (the engine passes
    /// its `EngineMetrics` through here).
    fn counters(&self) -> Vec<(&'static str, u64)>;
    /// `# HELP` text for the flat counters, by name; a counter without
    /// an entry is exported without one.
    fn counter_help(&self) -> Vec<(&'static str, &'static str)> {
        Vec::new()
    }
    /// Worker in-service census for `/health`.
    fn workers(&self) -> WorkerCensus;
    /// The host's telemetry plane, when sampling is enabled. With a
    /// plane present, `/metrics` appends the telemetry families,
    /// `/metrics.json` fills its `windows`, `exemplars` and `slo`
    /// sections, and `/slo` reports (and gates on) the burn-rate alarms.
    /// Without one those sections are empty.
    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        None
    }
}

/// Handle to a running scrape server; dropping it shuts the server down.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// The address the server actually bound (resolves `:0` ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // Unblock the accept loop with a loopback self-wake; if the
            // connect fails the listener is already gone.
            let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
            let _ = thread.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves scrapes from a background thread until the
/// returned [`ObsServer`] is shut down or dropped.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(addr: impl ToSocketAddrs, source: Arc<dyn ScrapeSource>) -> io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("nacu-obs-http".into())
        .spawn(move || accept_loop(&listener, &stop_flag, source.as_ref()))?;
    Ok(ObsServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, source: &dyn ScrapeSource) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Sequential by design: one scrape at a time bounds the work
        // this thread can inject next to the serving pool.
        let _ = handle(stream, source);
    }
}

fn handle(mut stream: TcpStream, source: &dyn ScrapeSource) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = match read_head(&mut stream) {
        Ok(head) => head,
        Err(HeadError::TooLarge) => {
            return respond(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                "text/plain; charset=utf-8",
                "head too large\n",
            );
        }
        Err(HeadError::Truncated) => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                "connection closed before the request head completed\n",
            );
        }
        Err(HeadError::Timeout) => {
            return respond(
                &mut stream,
                408,
                "Request Timeout",
                "text/plain; charset=utf-8",
                "request head not received in time\n",
            );
        }
        // The transport failed outright; there is no one to answer.
        Err(HeadError::Io(e)) => return Err(e),
    };
    // A request line is METHOD SP /path SP HTTP/x — anything else
    // (including an empty line) is answered 400, never guessed at.
    let mut parts = head.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version))
            if path.starts_with('/') && version.starts_with("HTTP/") =>
        {
            (method, path)
        }
        _ => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                "malformed request line\n",
            );
        }
    };
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served here\n",
        );
    }
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let obs = source.obs();
            let counters = source.counters();
            let help = source.counter_help();
            let mut body = export::prometheus(&obs.snapshot(), source.clock_hz(), &counters, &help);
            if let Some(tele) = source.telemetry() {
                body.push_str(&export::prometheus_telemetry(
                    &telemetry_windows(&tele),
                    &obs.exemplars(),
                    &tele.statuses(),
                ));
            }
            respond(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/metrics.json" => {
            let obs = source.obs();
            let counters = source.counters();
            let (windows, exemplars, slo) = match source.telemetry() {
                Some(tele) => (telemetry_windows(&tele), obs.exemplars(), tele.statuses()),
                None => Default::default(),
            };
            let body = export::json_v2(
                &obs.snapshot(),
                source.clock_hz(),
                &counters,
                &windows,
                &exemplars,
                &slo,
            );
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/slo" => {
            let Some(tele) = source.telemetry() else {
                return respond(
                    &mut stream,
                    200,
                    "OK",
                    "application/json",
                    "{\"enabled\":false,\"burning\":false,\"alarms\":[]}\n",
                );
            };
            let statuses = tele.statuses();
            let burning = statuses.iter().any(|s| s.active);
            let alarms: Vec<String> = statuses
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\":\"{}\",\"active\":{},\"trips\":{},\"fast_burn\":{:.6},\"slow_burn\":{:.6},\"threshold\":{}}}",
                        s.name, s.active, s.trips, s.fast_burn, s.slow_burn, s.threshold
                    )
                })
                .collect();
            let body = format!(
                "{{\"enabled\":true,\"burning\":{burning},\"alarms\":[{}]}}\n",
                alarms.join(",")
            );
            if burning {
                respond(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    &body,
                )
            } else {
                respond(&mut stream, 200, "OK", "application/json", &body)
            }
        }
        "/health" => {
            let obs = source.obs();
            let census = source.workers();
            let snapshot = obs.health().snapshot();
            let healthy = census.healthy == census.total && !snapshot.alarm_latched;
            let body = format!(
                "{{\"status\":\"{}\",\"workers\":{},\"healthy_workers\":{},\
                 \"drift_alarm_latched\":{},\"drift_alarms\":{}}}\n",
                if healthy { "ok" } else { "degraded" },
                census.total,
                census.healthy,
                snapshot.alarm_latched,
                snapshot.total_alarms(),
            );
            if healthy {
                respond(&mut stream, 200, "OK", "application/json", &body)
            } else {
                respond(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    &body,
                )
            }
        }
        "/trace" => {
            let obs = source.obs();
            let body = chrome_trace(&obs.drain_trace(TRACE_DRAIN_MAX));
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/" => respond(
            &mut stream,
            200,
            "OK",
            "text/plain; charset=utf-8",
            "nacu-obs scrape server\n\
             /metrics       Prometheus text exposition\n\
             /metrics.json  nacu-obs/v2 JSON\n\
             /health        200 ok | 503 degraded\n\
             /slo           SLO burn-rate alarms; 503 while burning\n\
             /trace         Chrome trace-event JSON (Perfetto)\n",
        ),
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path\n",
        ),
    }
}

/// The standard rolling windows, materialised from a telemetry plane's
/// series for the scrape exporters.
fn telemetry_windows(tele: &Telemetry) -> Vec<(&'static str, crate::window::WindowDelta)> {
    WINDOWS
        .iter()
        .map(|&(label, duration)| (label, tele.series().window(duration)))
        .collect()
}

/// Why a request head could not be read (each maps to its own status).
enum HeadError {
    /// More than [`MAX_HEAD`] bytes arrived with no terminating blank
    /// line → 431.
    TooLarge,
    /// The peer closed before the blank line — a partial read the old
    /// code silently treated as a whole request → 400.
    Truncated,
    /// The peer went quiet past [`IO_TIMEOUT`] mid-head → 408.
    Timeout,
    /// The transport itself failed; nothing can be answered.
    Io(io::Error),
}

/// Reads the request head (through the terminating blank line) with the
/// [`MAX_HEAD`] cap and returns its first line.
fn read_head(stream: &mut TcpStream) -> Result<String, HeadError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() > MAX_HEAD {
            return Err(HeadError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HeadError::Truncated),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(HeadError::Timeout);
            }
            Err(e) => return Err(HeadError::Io(e)),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    Ok(head.lines().next().unwrap_or("").to_string())
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use nacu::NacuConfig;

    struct Fixture {
        obs: Arc<Obs>,
        census: WorkerCensus,
    }

    impl ScrapeSource for Fixture {
        fn obs(&self) -> Arc<Obs> {
            Arc::clone(&self.obs)
        }
        fn clock_hz(&self) -> f64 {
            1e9
        }
        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("nacu_engine_requests_submitted_total", 7)]
        }
        fn workers(&self) -> WorkerCensus {
            self.census
        }
    }

    fn start(obs: Arc<Obs>, census: WorkerCensus) -> ObsServer {
        serve("127.0.0.1:0", Arc::new(Fixture { obs, census })).expect("bind loopback")
    }

    fn get(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{request}\r\nHost: test\r\n\r\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        let (head, body) = response.split_once("\r\n\r\n").expect("split head");
        (
            head.lines().next().unwrap_or("").to_string(),
            body.to_string(),
        )
    }

    #[test]
    fn metrics_endpoints_serve_both_wire_formats() {
        let server = start(
            Arc::new(Obs::with_trace_capacity(16)),
            WorkerCensus {
                total: 2,
                healthy: 2,
            },
        );
        let addr = server.local_addr();
        let (status, body) = get(addr, "GET /metrics HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE nacu_obs_batches_total counter"));
        assert!(body.contains("nacu_engine_requests_submitted_total 7"));
        let (status, body) = get(addr, "GET /metrics.json HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"schema\": \"nacu-obs/v2\""));
        assert!(body.contains("\"exemplars\": []"));
        assert!(body.contains("\"slo\": {\"burning\":false,\"alarms\":[]}"));
        let (status, body) = get(addr, "GET / HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("/metrics.json"));
    }

    struct TelemetryFixture {
        obs: Arc<Obs>,
        tele: Arc<Telemetry>,
    }

    impl ScrapeSource for TelemetryFixture {
        fn obs(&self) -> Arc<Obs> {
            Arc::clone(&self.obs)
        }
        fn clock_hz(&self) -> f64 {
            1e9
        }
        fn counters(&self) -> Vec<(&'static str, u64)> {
            Vec::new()
        }
        fn workers(&self) -> WorkerCensus {
            WorkerCensus {
                total: 1,
                healthy: 1,
            }
        }
        fn telemetry(&self) -> Option<Arc<Telemetry>> {
            Some(Arc::clone(&self.tele))
        }
    }

    #[test]
    fn slo_route_reports_disabled_without_a_telemetry_plane() {
        let server = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        let (status, body) = get(server.local_addr(), "GET /slo HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"enabled\":false"));
    }

    #[test]
    fn telemetry_plane_upgrades_every_endpoint_and_gates_slo() {
        use crate::slo::{LatencyBudget, SloSpec};
        use nacu::Function;
        use std::time::Duration;

        let obs = Arc::new(Obs::with_trace_capacity(16));
        let spec = SloSpec::latency(
            "e2e_p99",
            crate::Stage::EndToEnd,
            Function::Sigmoid,
            0.99,
            LatencyBudget::Nanos(10_000),
            1.0,
        )
        .with_windows(Duration::from_secs(3600), Duration::from_secs(3600));
        let tele = Arc::new(Telemetry::new(
            16,
            Duration::from_millis(5),
            1e9,
            vec![spec],
        ));
        let server = serve(
            "127.0.0.1:0",
            Arc::new(TelemetryFixture {
                obs: Arc::clone(&obs),
                tele: Arc::clone(&tele),
            }),
        )
        .expect("bind loopback");
        let addr = server.local_addr();

        // Clean traffic: /slo is 200 with the alarm listed inactive.
        obs.record_latency_tagged(crate::Stage::EndToEnd, Function::Sigmoid, 1_000, 1, 0);
        tele.sample(obs.snapshot(), Vec::new());
        let (status, body) = get(addr, "GET /slo HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"enabled\":true"));
        assert!(body.contains("\"name\":\"e2e_p99\",\"active\":false"));

        // A latency spike: the alarm latches and /slo turns 503.
        obs.record_latency_tagged(crate::Stage::EndToEnd, Function::Sigmoid, 5_000_000, 2, 7);
        tele.sample(obs.snapshot(), Vec::new());
        let (status, body) = get(addr, "GET /slo HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.contains("\"burning\":true"));

        // Both wire formats carry the telemetry sections.
        let (_, body) = get(addr, "GET /metrics HTTP/1.1");
        assert!(body.contains("nacu_obs_slo_alarm_active{slo=\"e2e_p99\"} 1"));
        assert!(body.contains("nacu_obs_window_requests{window=\"10s\"}"));
        assert!(
            body.contains("nacu_obs_exemplar_ns{stage=\"end_to_end_ns\",function=\"sigmoid\",req=\"2\",conn=\"7\"} 5000000"),
            "tail exemplar missing from /metrics"
        );
        let (_, body) = get(addr, "GET /metrics.json HTTP/1.1");
        assert!(body.contains("\"schema\": \"nacu-obs/v2\""));
        assert!(body.contains("\"slo\": {\"burning\":true"));
        assert!(body.contains("\"req\":2,\"conn\":7"));

        // The exemplar also reached the flight recorder.
        let (_, body) = get(addr, "GET /trace HTTP/1.1");
        assert!(body.contains("\"name\":\"tail sigmoid\""));
    }

    #[test]
    fn health_fails_on_quarantine_or_latched_drift() {
        let healthy = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 2,
                healthy: 2,
            },
        );
        let (status, body) = get(healthy.local_addr(), "GET /health HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"status\":\"ok\""));

        let quarantined = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 2,
                healthy: 1,
            },
        );
        let (status, body) = get(quarantined.local_addr(), "GET /health HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.contains("\"status\":\"degraded\""));

        let obs = Arc::new(
            Obs::with_trace_capacity(4)
                .with_health(HealthConfig::for_nacu(&NacuConfig::paper_16bit(), 1)),
        );
        let _ = obs.health().observe(nacu::Function::Sigmoid, 0.0, 0.9);
        assert!(obs.health().alarm_latched());
        let drifted = start(
            obs,
            WorkerCensus {
                total: 2,
                healthy: 2,
            },
        );
        let (status, body) = get(drifted.local_addr(), "GET /health HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.contains("\"drift_alarm_latched\":true"));
    }

    #[test]
    fn trace_drains_as_chrome_json_and_unknown_routes_404() {
        let obs = Arc::new(Obs::with_trace_capacity(16));
        obs.record_trace(crate::TraceKind::Quarantine { worker: 1 });
        let server = start(
            Arc::clone(&obs),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        let addr = server.local_addr();
        let (status, body) = get(addr, "GET /trace HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"quarantine\""));
        // The scrape drained the ring.
        assert_eq!(obs.drain_trace(8).len(), 0);
        let (status, _) = get(addr, "GET /nope HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        let (status, _) = get(addr, "POST /metrics HTTP/1.1");
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    }

    /// Raw-socket exchange: send exactly `bytes`, optionally half-close,
    /// and return the status line of whatever comes back.
    fn raw(addr: SocketAddr, bytes: &[u8], close_write: bool) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("send");
        if close_write {
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
        }
        // Tolerant read: a reset after the status line arrived is fine.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8_lossy(&buf)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    }

    #[test]
    fn oversized_heads_get_431_not_a_dropped_connection() {
        let server = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        // Exactly MAX_HEAD + 1 bytes with no terminating blank line: the
        // server consumes every byte before the cap trips, so the close
        // is a clean FIN, not a reset racing the 431.
        let mut request = b"GET /metrics HTTP/1.1\r\n".to_vec();
        request.extend(std::iter::repeat_n(b'X', MAX_HEAD + 1 - request.len()));
        let status = raw(server.local_addr(), &request, true);
        assert_eq!(status, "HTTP/1.1 431 Request Header Fields Too Large");
    }

    #[test]
    fn partial_head_then_eof_gets_400_not_silent_misparse() {
        let server = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        // A valid prefix of a request, closed before the blank line: the
        // old code parsed this as a whole request and served it.
        let status = raw(server.local_addr(), b"GET /metrics HTTP/1.1\r\nHo", true);
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
    }

    #[test]
    fn malformed_request_lines_get_400() {
        let server = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        let addr = server.local_addr();
        for bad in [
            b"\r\n\r\n".as_slice(),                         // empty line
            b"GARBAGE\r\n\r\n".as_slice(),                  // one token
            b"GET metrics HTTP/1.1\r\n\r\n".as_slice(),     // path without '/'
            b"GET /metrics SMTP/1.0\r\n\r\n".as_slice(),    // not HTTP
            b"\x00\xff\x00\xff garbage\r\n\r\n".as_slice(), // binary noise
        ] {
            let status = raw(addr, bad, false);
            assert_eq!(
                status,
                "HTTP/1.1 400 Bad Request",
                "for request {:?}",
                String::from_utf8_lossy(bad)
            );
        }
        // Valid lines still route: trailing version token is required
        // but tolerated loosely.
        let status = raw(addr, b"GET /health HTTP/1.0\r\n\r\n", false);
        assert_eq!(status, "HTTP/1.1 200 OK");
    }

    #[test]
    fn silent_peer_gets_408_after_the_io_timeout() {
        let server = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(b"GET /metrics HT").expect("partial send");
        // Say nothing more; the server must give up and answer 408.
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        let status = response.lines().next().unwrap_or("");
        assert_eq!(status, "HTTP/1.1 408 Request Timeout");
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let mut server = start(
            Arc::new(Obs::with_trace_capacity(4)),
            WorkerCensus {
                total: 1,
                healthy: 1,
            },
        );
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        // The port is free again.
        let _rebound = TcpListener::bind(addr).expect("port released");
    }
}
