//! CI metrics snapshot: drive a deterministic mixed workload through the
//! engine and export the observability state in both wire formats.
//!
//!     metrics_export [--smoke] [--json PATH] [--prom PATH]
//!
//! Prints the Prometheus exposition to stdout and, with `--json` /
//! `--prom`, writes the `nacu-obs/v3` JSON snapshot and the exposition to
//! files. CI archives both as the `metrics-snapshot` artifact so every
//! run leaves an inspectable record of latency distributions, trace
//! totals, and modeled-vs-measured cycle accounting. Exits non-zero if
//! either output lacks one of the engine's exported counters.

use std::process::ExitCode;

use nacu::{Function, NacuConfig};
use nacu_bench::engine_bench::{self, Workload};
use nacu_engine::{Engine, EngineConfig, MetricsSnapshot, PAPER_CLOCK_HZ};
use nacu_obs::export;

fn workload(function: Function, smoke: bool) -> Workload {
    Workload {
        clients: 2,
        requests_per_client: if smoke { 32 } else { 128 },
        operands_per_request: if smoke { 16 } else { 64 },
        function,
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => match argv.next() {
                Some(v) => json_path = Some(v),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--prom" => match argv.next() {
                Some(v) => prom_path = Some(v),
                None => {
                    eprintln!("--prom needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: metrics_export [--smoke] [--json PATH] [--prom PATH]");
                return ExitCode::FAILURE;
            }
        }
    }

    let engine = match Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256),
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("engine construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Every accounted function shows up in the export: the three scalar
    // coalescible ones plus a softmax pass.
    for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
        let _ = engine_bench::drive(&engine, workload(function, smoke));
    }
    let _ = engine_bench::drive(
        &engine,
        Workload {
            clients: 1,
            requests_per_client: if smoke { 8 } else { 32 },
            operands_per_request: 16,
            function: Function::Softmax,
        },
    );

    let snap = engine.obs_snapshot();
    // Same flat-counter list the live scrape server serves, so this CI
    // artifact and `/metrics` can never drift apart.
    let named = engine.metrics().exporter_counters();
    let help = MetricsSnapshot::exporter_help();
    let prom = export::prometheus(&snap, PAPER_CLOCK_HZ, &named, &help);
    let json = export::json(&snap, PAPER_CLOCK_HZ, &named);
    engine.shutdown();

    print!("{prom}");
    if let Some(path) = &prom_path {
        if let Err(e) = std::fs::write(path, &prom) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    // Checked after writing, so a failing run still leaves its artifact.
    let missing: Vec<&str> = named
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| {
            !prom.contains(&format!("\n{name} ")) || !json.contains(&format!("\"{name}\":"))
        })
        .collect();
    if !missing.is_empty() {
        eprintln!("exports lack engine counters: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
