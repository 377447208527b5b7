//! Observability smoke gate: proves the monitoring stack end to end on a
//! live engine, producing the CI artifacts and failing on regressions.
//!
//!     obs_smoke [--smoke] [--prom PATH] [--json PATH] [--trace PATH]
//!               [--drift-prom PATH] [--max-overhead FRAC]
//!
//! Three stages, each printed as it runs:
//!
//! 1. **Overhead gate** — [`engine_bench::sampling_overhead`] at the
//!    default 1-in-256 decimation; the shadow-sampling throughput cost
//!    must stay within `--max-overhead` (default 3%).
//! 2. **Healthy scrape** — a mixed workload is served while the scrape
//!    server is live; `/metrics`, `/metrics.json`, `/health` (must be
//!    `200 ok`: no false drift alarms) and `/trace` are fetched over a
//!    raw `TcpStream` and written out as artifacts.
//! 3. **Drift demo** — a LUT-bias perturbation the armed detectors are
//!    told to ignore is injected into a 1-in-1-sampled engine; the very
//!    first scrape must show `/health` `503` with the alarm latched and
//!    a non-zero `nacu_obs_drift_alarms_total`.

use std::net::SocketAddr;
use std::process::ExitCode;

use nacu::{Function, Nacu, NacuConfig};
use nacu_bench::engine_bench::{self, Workload};
use nacu_engine::{
    DetectorSet, Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, InjectionSite, Request,
};
use nacu_fixed::{Fx, Rounding};
use nacu_obs::export::JSON_SCHEMA;

/// One raw-socket GET against the scrape server: `(status line, body)`.
fn get(addr: SocketAddr, path: &str) -> Result<(String, String), String> {
    nacu_bench::http_get(addr, path).map_err(|e| format!("GET {path} from {addr}: {e}"))
}

fn write_artifact(path: &Option<String>, what: &str, body: &str) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, body).map_err(|e| format!("write {what} to {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

struct Args {
    smoke: bool,
    prom: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    drift_prom: Option<String>,
    max_overhead: f64,
}

fn value(arg: &str, argv: &mut impl Iterator<Item = String>) -> Result<String, String> {
    argv.next().ok_or_else(|| format!("{arg} needs a value"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        prom: None,
        json: None,
        trace: None,
        drift_prom: None,
        max_overhead: 0.03,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--prom" => args.prom = Some(value(&arg, &mut argv)?),
            "--json" => args.json = Some(value(&arg, &mut argv)?),
            "--trace" => args.trace = Some(value(&arg, &mut argv)?),
            "--drift-prom" => args.drift_prom = Some(value(&arg, &mut argv)?),
            "--max-overhead" => {
                args.max_overhead = value(&arg, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--max-overhead: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other}\nusage: obs_smoke [--smoke] [--prom PATH] \
                     [--json PATH] [--trace PATH] [--drift-prom PATH] [--max-overhead FRAC]"
                ));
            }
        }
    }
    Ok(args)
}

/// Stage 1: the default 1/256 decimation must not tax throughput.
fn overhead_gate(args: &Args) -> Result<(), String> {
    // Each drive must run long enough (tens of ms) that a ≤ 3% effect is
    // measurable above scheduler noise; with the response-table fast path
    // serving σ at ~40 Mops/s the smoke shape is ~2 Mops ≈ 50 ms per
    // side per trial (sized up 4× when the fast path landed — the old
    // 0.5 Mops shape finished in ~13 ms and measured pure jitter).
    let workload = Workload {
        clients: 4,
        requests_per_client: if args.smoke { 2048 } else { 4096 },
        operands_per_request: 256,
        function: Function::Sigmoid,
    };
    let trials = if args.smoke { 4 } else { 6 };
    let report =
        engine_bench::sampling_overhead(workload, nacu_engine::DEFAULT_SAMPLE_EVERY, trials);
    eprintln!(
        "overhead: baseline {:.0} ops/s, sampled(1/{}) {:.0} ops/s -> {:+.2}%",
        report.baseline_ops_per_sec,
        report.sample_every,
        report.sampled_ops_per_sec,
        report.overhead() * 100.0,
    );
    if report.overhead() > args.max_overhead {
        return Err(format!(
            "shadow sampling costs {:.2}% throughput, above the {:.2}% budget",
            report.overhead() * 100.0,
            args.max_overhead * 100.0,
        ));
    }
    Ok(())
}

/// Stage 2: a clean engine under load scrapes healthy, with live health
/// rows and zero false drift alarms.
fn healthy_scrape(args: &Args) -> Result<(), String> {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256)
            // Sample aggressively so even the smoke workload fills every
            // monitored function's health row.
            .with_health_sampling(16),
    )
    .map_err(|e| format!("engine construction failed: {e}"))?;
    for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
        let _ = engine_bench::drive(
            &engine,
            Workload {
                clients: 2,
                requests_per_client: if args.smoke { 32 } else { 128 },
                operands_per_request: 48,
                function,
            },
        );
    }
    let server = engine
        .handle()
        .serve_obs("127.0.0.1:0")
        .map_err(|e| format!("bind scrape server: {e}"))?;
    let addr = server.local_addr();

    let (status, prom) = get(addr, "/metrics")?;
    if status != "HTTP/1.1 200 OK" {
        return Err(format!("/metrics answered {status}"));
    }
    for family in [
        "# TYPE nacu_obs_health_samples_total counter",
        "# TYPE nacu_obs_drift_alarms_total counter",
        "nacu_obs_drift_alarm_latched 0",
        "nacu_engine_requests_completed_total",
    ] {
        if !prom.contains(family) {
            return Err(format!("/metrics is missing {family:?}"));
        }
    }
    let (status, json) = get(addr, "/metrics.json")?;
    if status != "HTTP/1.1 200 OK" || !json.contains(&format!("\"schema\": \"{JSON_SCHEMA}\"")) {
        return Err(format!(
            "/metrics.json answered {status} without the {JSON_SCHEMA} schema"
        ));
    }
    let (status, health) = get(addr, "/health")?;
    if status != "HTTP/1.1 200 OK" || !health.contains("\"status\":\"ok\"") {
        return Err(format!(
            "clean engine scraped unhealthy: {status} {health} — false drift alarm?"
        ));
    }
    let (status, trace) = get(addr, "/trace")?;
    if status != "HTTP/1.1 200 OK" || !trace.contains("\"traceEvents\"") {
        return Err(format!("/trace answered {status}"));
    }
    let samples = engine.obs_snapshot().health.total_samples();
    if samples == 0 {
        return Err("no shadow samples were taken under load".into());
    }
    eprintln!(
        "healthy scrape on {addr}: {} shadow samples, 0 alarms, {} trace bytes",
        samples,
        trace.len(),
    );
    write_artifact(&args.prom, "/metrics", &prom)?;
    write_artifact(&args.json, "/metrics.json", &json)?;
    write_artifact(&args.trace, "/trace", &trace)?;
    drop(server);
    engine.shutdown();
    Ok(())
}

/// Stage 3: an injected LUT-bias perturbation the parity detectors are
/// told to ignore latches a drift alarm visible in one scrape.
fn drift_demo(args: &Args) -> Result<(), String> {
    let config = NacuConfig::paper_16bit();
    // Flip bias bit 4 (2⁻⁹ in Q2.13, ~4 output LSB) of the segment that
    // serves x = 0.5 — past the Eq. 7 sigmoid bound even after the clean
    // fit's own error is spent against it.
    let golden = Nacu::new(config).map_err(|e| format!("paper config: {e}"))?;
    let x = Fx::from_f64(0.5, config.format, Rounding::Nearest);
    let entry = golden.lookup_index(golden.magnitude_raw(x));
    let clean_bias = golden.coefficients()[entry].1;
    let stuck = (clean_bias >> 4) & 1 == 0;
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
                    stuck,
                ))],
                ..FaultTolerance::default()
            }),
    )
    .map_err(|e| format!("engine construction failed: {e}"))?;
    engine
        .submit(Request::new(Function::Sigmoid, vec![x; 8]))
        .map_err(|e| format!("submit drift probe: {e}"))?
        .wait()
        .map_err(|e| format!("drift probe was not served: {e}"))?;
    let server = engine
        .handle()
        .serve_obs("127.0.0.1:0")
        .map_err(|e| format!("bind scrape server: {e}"))?;
    let addr = server.local_addr();
    let (status, health) = get(addr, "/health")?;
    if status != "HTTP/1.1 503 Service Unavailable"
        || !health.contains("\"drift_alarm_latched\":true")
    {
        return Err(format!(
            "injected drift did not degrade /health: {status} {health}"
        ));
    }
    let (_, prom) = get(addr, "/metrics")?;
    if !prom.contains("nacu_obs_drift_alarm_latched 1") {
        return Err("drift latch gauge is not 1 in /metrics".into());
    }
    let alarms = engine.metrics().drift_alarms;
    if alarms == 0 {
        return Err("engine drift-alarm counter stayed zero".into());
    }
    eprintln!("drift demo on {addr}: {alarms} alarm(s), /health degraded as expected");
    write_artifact(&args.drift_prom, "drift /metrics", &prom)?;
    drop(server);
    engine.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, stage) in [
        (
            "overhead-gate",
            overhead_gate as fn(&Args) -> Result<(), String>,
        ),
        ("healthy-scrape", healthy_scrape),
        ("drift-demo", drift_demo),
    ] {
        eprintln!("== {name}");
        if let Err(e) = stage(&args) {
            eprintln!("{name} FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("obs smoke: overhead gate, healthy scrape and drift demo all passed");
    ExitCode::SUCCESS
}
