//! Live observability over a serving pool: client threads hammer a
//! sharded engine while a **monitor thread concurrently drains the trace
//! ring and snapshots the histograms** — no pause, no lock, no data race.
//!
//! The demo prints, from a pool that is serving the whole time:
//!
//! * rolling drains of the typed trace ring (submit → coalesce →
//!   batch start/end events, with monotonic timestamps);
//! * the final latency report: p50/p90/p99/max queue wait, batch
//!   service and end-to-end time per function;
//! * cycle accounting: the Table I modeled cycles per operand next to
//!   what the software datapath actually paid at the paper's 3.75 ns
//!   clock;
//! * the Prometheus exposition head, as a scrape would see it.
//!
//! ```sh
//! cargo run --release --example observed_serving
//! ```
//!
//! With `--serve [ADDR]` (default `127.0.0.1:9464`) the demo instead
//! keeps a light workload running and exposes the live scrape server:
//!
//! ```sh
//! cargo run --release --example observed_serving -- --serve
//! curl http://127.0.0.1:9464/metrics
//! curl http://127.0.0.1:9464/health
//! curl http://127.0.0.1:9464/trace > trace.json   # open in ui.perfetto.dev
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use nacu::{Function, NacuConfig};
use nacu_engine::{Engine, EngineConfig, Request, Stage, SubmitError, PAPER_CLOCK_HZ};
use nacu_fixed::{Fx, Rounding};
use nacu_obs::export;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 400;
const OPERANDS_PER_REQUEST: usize = 48;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut serve_addr: Option<String> = None;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--serve" => {
                serve_addr = Some(match argv.peek() {
                    Some(next) if !next.starts_with('-') => argv.next().expect("peeked"),
                    _ => "127.0.0.1:9464".to_string(),
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: observed_serving [--serve [ADDR]]");
                std::process::exit(2);
            }
        }
    }

    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(3)
            .with_queue_capacity(128)
            .with_max_coalesced_requests(16),
    )?;

    if let Some(addr) = serve_addr {
        return serve_forever(&engine, &addr);
    }

    let fmt = engine.format();
    let obs = engine.obs();

    println!(
        "{} clients x {} requests x {} operands onto a 3-shard pool; \
         monitor drains the trace ring while they serve",
        CLIENTS, REQUESTS_PER_CLIENT, OPERANDS_PER_REQUEST
    );
    println!();

    // The monitor runs concurrently with the serving clients: it drains
    // typed events and snapshots histograms with the pool under load.
    let serving_done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let obs = Arc::clone(&obs);
        let done = Arc::clone(&serving_done);
        thread::spawn(move || {
            let mut drained_total = 0usize;
            while !done.load(Ordering::Acquire) {
                let events = obs.drain_trace(512);
                if let (Some(first), Some(last)) = (events.first(), events.last()) {
                    println!(
                        "monitor: drained {:>4} events live ({} @ {:>9} ns … {} @ {:>9} ns)",
                        events.len(),
                        first.kind.name(),
                        first.at_ns,
                        last.kind.name(),
                        last.at_ns,
                    );
                }
                drained_total += events.len();
                thread::sleep(Duration::from_millis(2));
            }
            // Final sweep for events recorded after the last poll.
            drained_total + obs.drain_trace(usize::MAX).len()
        })
    };

    let baseline = engine.metrics();
    let started = std::time::Instant::now();
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let handle = engine.handle();
            scope.spawn(move || {
                let functions = [Function::Sigmoid, Function::Tanh, Function::Exp];
                let function = functions[client % functions.len()];
                let operands: Vec<Fx> = (0..OPERANDS_PER_REQUEST)
                    .map(|i| {
                        let v = -6.0 + 12.0 * (i as f64) / (OPERANDS_PER_REQUEST - 1) as f64;
                        Fx::from_f64(v, fmt, Rounding::Nearest)
                    })
                    .collect();
                for _ in 0..REQUESTS_PER_CLIENT {
                    loop {
                        match handle.submit(Request::new(function, operands.clone())) {
                            Ok(ticket) => {
                                ticket.wait().expect("request served");
                                break;
                            }
                            Err(SubmitError::Busy { .. }) => thread::yield_now(),
                            Err(e) => panic!("engine refused request: {e}"),
                        }
                    }
                }
            });
        }
    });
    serving_done.store(true, Ordering::Release);
    let drained = monitor.join().expect("monitor thread");

    let report = engine.report_since(&baseline, started);
    let snap = engine.obs_snapshot();
    println!();
    println!("{report}");
    println!();
    println!(
        "{:<9} {:>7} | {:>9} {:>9} {:>9} | {:>9} {:>9} | {:>8} {:>8}",
        "function", "ops", "qwait p50", "p99", "max ns", "e2e p50", "p99", "mod c/op", "eff c/op"
    );
    for function in nacu_obs::ACCOUNTED_FUNCTIONS {
        let Some(row) = snap.cycles.row(function) else {
            continue;
        };
        if row.ops == 0 {
            continue;
        }
        let qw = snap.stage(Stage::QueueWait, function).expect("accounted");
        let e2e = snap.stage(Stage::EndToEnd, function).expect("accounted");
        println!(
            "{:<9} {:>7} | {:>9} {:>9} {:>9} | {:>9} {:>9} | {:>8.2} {:>8.1}",
            format!("{function}"),
            row.ops,
            qw.p50(),
            qw.p99(),
            qw.max,
            e2e.p50(),
            e2e.p99(),
            row.modeled_cycles_per_op(),
            row.effective_cycles_per_op(PAPER_CLOCK_HZ),
        );
    }
    println!();
    println!(
        "trace ring: {} events recorded, {} drained live, {} dropped (capacity {})",
        snap.trace.recorded, drained, snap.trace.dropped, snap.trace.capacity
    );

    println!();
    println!("prometheus exposition head:");
    let prom = export::prometheus(&snap, PAPER_CLOCK_HZ, &[], &[]);
    for line in prom.lines().take(12) {
        println!("  {line}");
    }
    println!("  … ({} lines total)", prom.lines().count());

    engine.shutdown();
    Ok(())
}

/// `--serve` mode: keep a light mixed workload running and expose the
/// live scrape server until the process is killed.
fn serve_forever(engine: &Engine, addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let server = engine.handle().serve_obs(addr)?;
    let local = server.local_addr();
    println!("nacu-obs scrape server on http://{local}");
    println!("  curl http://{local}/metrics");
    println!("  curl http://{local}/metrics.json");
    println!("  curl http://{local}/health");
    println!("  curl http://{local}/trace > trace.json   # open in ui.perfetto.dev");
    println!("serving a continuous background workload; Ctrl+C to stop");
    let fmt = engine.format();
    let handle = engine.handle();
    let operands: Vec<Fx> = (0..OPERANDS_PER_REQUEST)
        .map(|i| {
            let v = -6.0 + 12.0 * (i as f64) / (OPERANDS_PER_REQUEST - 1) as f64;
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect();
    let functions = [Function::Sigmoid, Function::Tanh, Function::Exp];
    for round in 0.. {
        let function = functions[round % functions.len()];
        match handle.submit(Request::new(function, operands.clone())) {
            Ok(ticket) => {
                ticket.wait()?;
            }
            Err(SubmitError::Busy { .. }) => thread::yield_now(),
            Err(e) => return Err(e.into()),
        }
        thread::sleep(Duration::from_millis(25));
    }
    unreachable!("the serving loop never breaks")
}
