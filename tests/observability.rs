//! End-to-end observability: a live engine scraped over real TCP.
//!
//! These tests exercise the whole monitoring stack the way an operator
//! would — submit work, bind the scrape server on a loopback port, fetch
//! `/metrics`, `/metrics.json`, `/health` and `/trace` with a raw
//! [`TcpStream`], and assert on the wire bytes:
//!
//! * the Prometheus exposition parses line by line and carries both the
//!   obs families and the engine's flat counters;
//! * the JSON document keeps the one stable `nacu-obs/v2` schema, with
//!   empty telemetry sections when no telemetry plane is armed;
//! * a clean pool under aggressive shadow sampling raises **zero** drift
//!   alarms (no false positives against the Eq. 7 bounds);
//! * an injected LUT-bias perturbation that the parity detectors are
//!   told to ignore latches a drift alarm visible in `/health`, the
//!   Prometheus output and the trace ring within one scrape.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::InjectionSite;
use nacu_engine::{
    DetectorSet, Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, LatencyBudget, Request,
    SloSpec, Stage, TraceKind,
};
use nacu_fixed::{Fx, QFormat, Rounding};

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape server");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response head");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

fn ramp(fmt: QFormat, n: usize) -> Vec<Fx> {
    (0..n)
        .map(|i| {
            let v = -6.0 + 12.0 * (i as f64) / (n - 1) as f64;
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect()
}

/// Every non-comment exposition line must be `name[{labels}] value` with
/// a parseable finite value — the contract a Prometheus server holds us
/// to.
fn assert_valid_prometheus(body: &str) {
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line without a value: {line:?}");
        });
        let metric = name_part.split('{').next().unwrap_or("");
        assert!(
            !metric.is_empty()
                && metric
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in line {line:?}"
        );
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
        assert!(parsed.is_finite(), "non-finite value in {line:?}");
        samples += 1;
    }
    assert!(
        samples > 20,
        "suspiciously small exposition: {samples} samples"
    );
}

#[test]
fn live_scrape_serves_valid_prometheus_and_stable_json() {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_health_sampling(8),
    )
    .expect("paper config");
    let fmt = engine.format();
    for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
        for _ in 0..4 {
            engine
                .submit(Request::new(function, ramp(fmt, 32)))
                .expect("submit")
                .wait()
                .expect("served");
        }
    }
    let server = engine
        .handle()
        .serve_obs("127.0.0.1:0")
        .expect("bind loopback scrape server");
    let addr = server.local_addr();

    let (status, prom) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_valid_prometheus(&prom);
    for needle in [
        "# TYPE nacu_obs_queue_wait_ns histogram",
        "# TYPE nacu_obs_end_to_end_ns histogram",
        "# TYPE nacu_obs_health_samples_total counter",
        "# TYPE nacu_obs_drift_alarms_total counter",
        "nacu_obs_drift_alarm_latched 0",
        "nacu_obs_health_sample_interval 8",
        "nacu_engine_requests_completed_total 12",
        "nacu_engine_drift_alarms_total 0",
        // Q4.11 with healthy workers: every one of the 12×32 unary
        // operands was served from the response tables.
        "nacu_engine_fast_path_ops_total 384",
        // A high-water mark is a gauge: `since` does not diff it.
        "# TYPE nacu_engine_queue_depth_high_water gauge",
        "# TYPE nacu_engine_requests_completed_total counter",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }

    let (status, json) = get(addr, "/metrics.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(json.contains("\"schema\": \"nacu-obs/v2\""), "{json}");
    assert!(json.contains("\"sample_interval\":8"), "{json}");
    assert!(json.contains("\"windows\": {\n\n  }"), "{json}");
    assert!(
        json.contains("\"slo\": {\"burning\":false,\"alarms\":[]}"),
        "{json}"
    );
    // Both wire formats carry the same flat engine counters.
    assert!(
        json.contains("\"nacu_engine_requests_completed_total\":12"),
        "{json}"
    );

    let (status, health) = get(addr, "/health");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    // A healthy engine computes inline: its census is 0/0, which still
    // reads as fully in service.
    assert!(health.contains("\"workers\":0"), "{health}");
    assert!(health.contains("\"healthy_workers\":0"), "{health}");

    // A clean pool under 1-in-8 sampling took real shadow samples and
    // raised no false alarms against the Eq. 7 bounds.
    let snap = engine.obs_snapshot();
    assert!(snap.health.total_samples() > 0, "sampling never ran");
    assert_eq!(snap.health.total_alarms(), 0, "false drift alarm");
    assert_eq!(engine.metrics().drift_alarms, 0);

    let (status, trace) = get(addr, "/trace");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(trace.contains("\"request sigmoid\""), "{trace}");

    drop(server);
    engine.shutdown();
}

/// Scraping `/metrics` while the pool is saturated must never stall a
/// worker: the queue-depth and high-water gauges are relaxed atomic
/// loads, not a lock shared with the submit path. The regression this
/// pins down — a scrape loop hammering the server while producers keep
/// the queue full — once serialised workers behind the queue's mutex;
/// now serving throughput must keep advancing *between* scrapes.
#[test]
fn metrics_scrapes_under_load_never_stall_serving() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(8)
            .with_fault_tolerance(FaultTolerance::clean_harness(2)),
    )
    .expect("paper config");
    let fmt = engine.format();
    let server = engine
        .handle()
        .serve_obs("127.0.0.1:0")
        .expect("bind loopback scrape server");
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Two producers keep the tiny queue saturated (Busy rejections
        // are expected and fine — pressure is the point). The engine is
        // a clean harness, because a healthy engine answers every request
        // inside `submit` and never queues; softmax walks longest per
        // request.
        for _ in 0..2 {
            let handle = engine.handle();
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match handle.submit(Request::new(Function::Softmax, ramp(fmt, 16))) {
                        Ok(ticket) => {
                            let _ = ticket.wait_timeout(Duration::from_secs(5));
                        }
                        Err(_) => std::thread::yield_now(),
                    }
                }
            });
        }

        // Hammer /metrics while the pool is under pressure. Every scrape
        // must answer promptly, and completions must advance across the
        // scrape storm — workers never wait on the scraper.
        let completed_before = engine.metrics().requests_completed;
        let started = Instant::now();
        for _ in 0..40 {
            let (status, prom) = get(addr, "/metrics");
            assert_eq!(status, "HTTP/1.1 200 OK");
            assert!(
                prom.contains("nacu_engine_queue_depth_high_water"),
                "{prom}"
            );
        }
        let scrape_wall = started.elapsed();
        assert!(
            scrape_wall < Duration::from_secs(20),
            "40 scrapes took {scrape_wall:?}: a scrape blocked on serving"
        );
        // Serving progressed while we scraped.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.metrics().requests_completed <= completed_before {
            assert!(
                Instant::now() < deadline,
                "no request completed during/after the scrape storm"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let m = engine.metrics();
    assert!(m.requests_completed > 0);
    assert!(
        m.queue_depth_high_water > 0,
        "the queue was never under pressure"
    );
    drop(server);
    engine.shutdown();
}

/// A telemetry-enabled engine exposes the whole windowed plane over the
/// wire: `/slo` flips 200 → 503 under a latency-spike storm and the v2
/// JSON schema carries the burning state, windowed series and the tagged
/// tail exemplar — while the default-config test above keeps seeing the
/// byte-stable v1 document.
#[test]
fn live_slo_endpoint_degrades_under_burn_and_serves_v2_schema() {
    let fast = Duration::from_millis(50);
    let slow = Duration::from_millis(200);
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_telemetry(Duration::from_millis(5))
            .with_slos(vec![SloSpec::latency(
                "e2e_p99",
                Stage::EndToEnd,
                Function::Sigmoid,
                0.99,
                LatencyBudget::Nanos(1_000_000),
                10.0,
            )
            .with_windows(fast, slow)]),
    )
    .expect("paper config");
    let fmt = engine.format();
    for _ in 0..8 {
        engine
            .submit(Request::new(Function::Sigmoid, ramp(fmt, 16)))
            .expect("submit")
            .wait()
            .expect("served");
    }
    let server = engine
        .handle()
        .serve_obs("127.0.0.1:0")
        .expect("bind loopback scrape server");
    let addr = server.local_addr();

    // Clean traffic: the plane is enabled and not burning.
    let deadline = Instant::now() + Duration::from_secs(5);
    let body = loop {
        let (status, body) = get(addr, "/slo");
        if status == "HTTP/1.1 200 OK" {
            break body;
        }
        assert!(Instant::now() < deadline, "/slo never settled: {body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(body.contains("\"enabled\":true"), "{body}");

    // Storm: tail samples far past the 1 ms budget, tagged with a
    // request id and connection so the exemplar is attributable.
    let obs = engine.obs();
    for i in 0..400u64 {
        obs.record_latency_tagged(Stage::EndToEnd, Function::Sigmoid, 5_000_000, i + 1, 7);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        let (status, body) = get(addr, "/slo");
        if status == "HTTP/1.1 503 Service Unavailable" {
            break body;
        }
        assert!(Instant::now() < deadline, "/slo never burned: {body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        body.contains("\"name\":\"e2e_p99\",\"active\":true"),
        "{body}"
    );

    // Both wire formats carry the alarm, the rolling windows and the
    // tagged exemplar in their telemetry sections.
    let (status, prom) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_valid_prometheus(&prom);
    for needle in [
        "nacu_obs_slo_alarm_active{slo=\"e2e_p99\"} 1",
        "nacu_obs_window_requests{window=\"10s\"}",
        "nacu_obs_exemplar_ns{stage=\"end_to_end_ns\",function=\"sigmoid\"",
        "conn=\"7\"",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }
    let (status, json) = get(addr, "/metrics.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(json.contains("\"schema\": \"nacu-obs/v2\""), "{json}");
    assert!(json.contains("\"burning\":true"), "{json}");

    // Must-clear: the sampler keeps ticking on the idle engine, the
    // spike ages out of the 50/200 ms windows and the alarm drops.
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        let (status, body) = get(addr, "/slo");
        if status == "HTTP/1.1 200 OK" {
            break body;
        }
        assert!(Instant::now() < deadline, "/slo never recovered: {body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(!body.contains("\"active\":true"), "{body}");
    assert!(
        engine.metrics().slo_alarm_trips > 0,
        "trip edge not latched"
    );
    // The lifetime report now carries per-window rows.
    let report = engine.lifetime_report();
    assert!(format!("{report}").contains("[10s]"), "{report}");

    drop(server);
    engine.shutdown();
}

#[test]
fn injected_lut_bias_drift_latches_an_alarm_within_one_scrape() {
    let config = NacuConfig::paper_16bit();
    // Corrupt the bias word of the segment serving x = 0.5 by bit 4
    // (2⁻⁹ in Q2.13, ≈ 4 output LSB) — beyond the Eq. 7 sigmoid bound
    // even against the clean fit's worst case — and disarm the parity
    // detectors so only the shadow sampler can catch it.
    let golden = Nacu::new(config).expect("paper config");
    let x = Fx::from_f64(0.5, config.format, Rounding::Nearest);
    let entry = golden.lookup_index(golden.magnitude_raw(x));
    let clean_bias = golden.coefficients()[entry].1;
    let engine = Engine::new(
        EngineConfig::new(config)
            .with_workers(1)
            .with_health_sampling(1)
            .with_fault_tolerance(FaultTolerance {
                detectors: DetectorSet::none(),
                plans: vec![FaultPlan::single(Fault::stuck_lut(
                    InjectionSite::LutBias,
                    entry,
                    4,
                    (clean_bias >> 4) & 1 == 0,
                ))],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    engine
        .submit(Request::new(Function::Sigmoid, vec![x; 4]))
        .expect("submit")
        .wait()
        .expect("served despite the silent corruption");

    let server = engine
        .handle()
        .serve_obs("127.0.0.1:0")
        .expect("bind loopback scrape server");
    let addr = server.local_addr();

    let (status, health) = get(addr, "/health");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{health}");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"drift_alarm_latched\":true"), "{health}");

    let (_, prom) = get(addr, "/metrics");
    assert!(prom.contains("nacu_obs_drift_alarm_latched 1"), "{prom}");
    assert!(
        prom.contains("nacu_obs_drift_alarms_total{function=\"sigmoid\"} 4"),
        "{prom}"
    );
    assert!(prom.contains("nacu_engine_drift_alarms_total 4"), "{prom}");

    // The flight recorder saw the alarm too.
    let drift_events = engine
        .obs()
        .drain_trace(usize::MAX)
        .into_iter()
        .filter(|e| matches!(e.kind, TraceKind::DriftAlarm { .. }))
        .count();
    assert_eq!(drift_events, 4);

    drop(server);
    engine.shutdown();
}
