//! `nacubench` — the NACU serving benchmark.
//!
//! ```text
//! nacubench --workload <inproc-bulk|tcp-paced|inproc-wide> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's requests from the seed, computes their
//! reference outputs on a sequential unit, starts the engine (and, for
//! `tcp-paced`, its TCP plane), drives load for `--seconds`, and checks
//! every reply bit for bit. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the workload with untraced and traced slices taking
//! turns, and prints the per-layer metrics, a waterfall and the tracing
//! overhead. The last line of standard output is one JSON object.
//! `nacubench/METRICS.md` defines every metric.

mod adapter;
mod load;
mod span;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use adapter::{Function, NacuConfig, Reference, Server};
use load::{Measured, Schedule};
use stats::{beyond, median, quantile, Trace, Window};
use workload::{Item, Load, Workload, WORKLOADS};

/// Load before each measured window, so caches and queues settle.
const WARMUP: Duration = Duration::from_secs(1);
/// Engine set-ups in each of a run's two rounds, one before the load and
/// one after it; `setup_s` is the fastest of them.
const SETUP_REPEATS: usize = 10;
/// A run whose generator ran later than this at p99 is invalid.
const LATE_BOUND_US: f64 = 2000.0;
/// Length of the in-process probe that times `submit` and `wait` on
/// `tcp-paced`, whose load does not call them from the benchmark.
const PROBE: Duration = Duration::from_millis(500);

const USAGE: &str =
    "usage: nacubench --workload <inproc-bulk|tcp-paced|inproc-wide> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str, default: &str| flags.get(flag).cloned().unwrap_or(default.into());
    let name = get("--workload", "");
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let number = |flag: &str, default: &str| {
        get(flag, default)
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload,
        seed: number("--seed", "1")?,
        seconds: number("--seconds", "10")?.max(1) as f64,
        trace: number("--trace", "0")? != 0,
    })
}

/// Starts the server `SETUP_REPEATS` times, keeping the last; returns it
/// and each set-up's time in seconds.
fn set_up(config: NacuConfig, tcp: bool) -> (Server, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            Server::stop(previous);
        }
        let start = Instant::now();
        server = Some(Server::start(config, tcp));
        times.push(start.elapsed().as_secs_f64());
    }
    (server.expect("at least one set-up"), times)
}

/// One phase of load: a warm-up, then a measured window of `seconds`.
fn phase(
    server: &Server,
    config: &NacuConfig,
    workload: &Workload,
    items: &[Item],
    seconds: f64,
    trace: Trace,
) -> Measured {
    let origin = Instant::now();
    let window = Window::new(origin + WARMUP, Duration::from_secs_f64(seconds), trace);
    match workload.load {
        Load::Closed { threads, depth } => load::closed(server, items, (threads, depth), window),
        Load::Paced { per_second } => {
            let schedule = Schedule { origin, per_second };
            load::paced(server, config, items, schedule, window)
        }
    }
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Request latency percentiles of a phase in µs, printed with the
/// sample counts behind them.
fn latency_us(m: &mut Measured) -> (f64, f64) {
    let samples = m.tally.latency_ns.len();
    let p50 = quantile(&mut m.tally.latency_ns, 0.5) / 1e3;
    let p99 = quantile(&mut m.tally.latency_ns, 0.99) / 1e3;
    println!(
        "latency p50 {p50:.3} us ({} of {samples} samples beyond), p99 {p99:.3} us ({} beyond)",
        beyond(samples, 0.5),
        beyond(samples, 0.99),
    );
    (p50, p99)
}

/// Whether the generator kept up: past `LATE_BOUND_US` at p99, the run's
/// latencies would measure the generator, not the server.
fn on_schedule(m: &mut Measured) -> bool {
    let late_us = quantile(&mut m.late_ns, 0.99) / 1e3;
    if late_us > LATE_BOUND_US {
        eprintln!("nacubench: invalid run: the generator ran {late_us:.0} us late at p99 (bound {LATE_BOUND_US} us)");
    }
    late_us <= LATE_BOUND_US
}

/// `--trace 0`: the end-to-end metrics of one untraced phase.
fn timed(m: &mut Measured, setup_s: f64) -> Outcome {
    latency_us(m);
    Outcome {
        correct: on_schedule(m),
        attempted: m.tally.attempted(),
        failed: m.tally.failed(),
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("ops_per_s", m.tally.ops_per_s(&m.window), "ops/s"),
            ("cpu_us_per_req", m.cpu_us_per_req(), "us"),
        ],
    }
}

/// `--trace 1`: one phase whose untraced and traced slices take turns;
/// per-layer metrics from the traced requests' spans, the untraced
/// requests' latency and the program's own counters.
fn traced(
    server: &Server,
    config: &NacuConfig,
    args: &Args,
    unit: &Reference,
    items: &[Item],
    datapath_ns: [f64; 4],
) -> Outcome {
    let workload = args.workload;
    let mut m = phase(
        server,
        config,
        workload,
        items,
        args.seconds,
        Trace::Alternate,
    );
    // Latency is too unsteady on a small shared machine to carry a bound
    // (see METRICS.md), so its percentiles are per-layer numbers, taken
    // from the untraced slices.
    let (latency_p50_us, latency_p99_us) = latency_us(&mut m);
    let on_time = on_schedule(&mut m);
    let closed_loop = matches!(workload.load, Load::Closed { .. });
    let overhead = stats::trace_overhead(&m.slice_cpu_s, &m.tally.slice_ops);
    let spans = span::medians(&m.spans);
    // The open loop never calls submit or wait itself: a short in-process
    // probe of the same requests on the same engine times them.
    let probe = (!closed_loop).then(|| {
        load::closed(
            server,
            items,
            (1, 1),
            Window::new(Instant::now(), PROBE, Trace::All),
        )
    });
    let engine_spans = probe
        .as_ref()
        .map_or_else(|| spans.clone(), |p| span::medians(&p.spans));
    let span_ns = |spans: &BTreeMap<&str, f64>, name| spans.get(name).copied().unwrap_or(0.0);

    let mut builds: Vec<f64> = (0..3).map(|_| unit.table_build_seconds()).collect();
    let unary: Vec<(Function, &[i32])> = items
        .iter()
        .filter(|i| i.function != Function::Softmax)
        .map(|i| (i.function, i.codes.as_slice()))
        .collect();
    let frames: Vec<Vec<u8>> = items
        .iter()
        .enumerate()
        .map(|(id, i)| adapter::encode(i.function, config, id as u64, &i.codes))
        .collect();
    let (decode_ns, encode_ns) =
        adapter::codec_ns_per_frame(&frames, (100_000 / items.len()).max(3));

    let traced_p50_us = quantile(&mut m.tally.traced_latency_ns, 0.5) / 1e3;
    let e = &m.engine;
    let reply_us = e.end_to_end_us_p50 - e.queue_wait_us_p50 - e.batch_service_us_p50;
    let us = |ns: f64| ns / 1e3;
    // The blocking path of one request, in order; medians, in µs.
    let path: Vec<(&str, f64)> = if closed_loop {
        vec![
            ("engine.submit", us(span_ns(&spans, "engine.submit"))),
            ("engine.queue_wait (Obs)", e.queue_wait_us_p50),
            ("engine.batch_service (Obs)", e.batch_service_us_p50),
            ("engine.reply (Obs end_to_end - above)", reply_us),
            ("bench.verify", us(span_ns(&spans, "bench.verify"))),
        ]
    } else {
        vec![
            ("gen.late", us(quantile(&mut m.late_ns, 0.5))),
            ("client.send", us(span_ns(&spans, "client.send"))),
            ("proto.decode_request", us(decode_ns)),
            ("engine.queue_wait (Obs)", e.queue_wait_us_p50),
            ("engine.batch_service (Obs)", e.batch_service_us_p50),
            ("engine.reply (Obs end_to_end - above)", reply_us),
            ("proto.encode_reply", us(encode_ns)),
            ("client.decode", us(span_ns(&spans, "client.decode"))),
            ("bench.verify", us(span_ns(&spans, "bench.verify"))),
        ]
    };
    let unattributed_us = traced_p50_us - path.iter().map(|(_, v)| v).sum::<f64>();
    println!("waterfall {} (medians, us):", workload.name);
    for (layer, value) in &path {
        println!("  {layer:<40} {value:>10.3}");
    }
    println!("  {:<40} {unattributed_us:>10.3}", "unattributed");
    println!(
        "  {:<40} {traced_p50_us:>10.3}",
        "= request latency p50 (traced)"
    );
    for (name, value) in &spans {
        println!("  span {name:<35} {:>10.3}  (self time)", us(*value));
    }
    println!("  tracing overhead {:.2}%", overhead * 100.0);

    let path =
        PathBuf::from(".bench_traces").join(format!("{}-seed{}.tsv", workload.name, args.seed));
    if let Err(e) = span::write(&path, &m.spans) {
        eprintln!("nacubench: writing {}: {e}", path.display());
    }

    // Every reply of every phase was checked, and all of them count.
    let phases = [Some(&m), probe.as_ref()];
    let attempted: u64 = phases.iter().flatten().map(|m| m.tally.attempted()).sum();
    let failed: u64 = phases.iter().flatten().map(|m| m.tally.failed()).sum();
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    let metrics: Metrics = vec![
        ("table.build_ms", median(&mut builds) * 1e3, "ms"),
        ("datapath.ns_per_op.sigmoid", datapath_ns[0], "ns"),
        ("datapath.ns_per_op.tanh", datapath_ns[1], "ns"),
        ("datapath.ns_per_op.exp", datapath_ns[2], "ns"),
        ("datapath.ns_per_op.softmax", datapath_ns[3], "ns"),
        (
            "executor.gather_ns_per_op",
            unit.executor_ns_per_op(&unary),
            "ns",
        ),
        (
            "engine.submit_ns_p50",
            span_ns(&engine_spans, "engine.submit"),
            "ns",
        ),
        (
            "engine.wait_ns_p50",
            span_ns(&engine_spans, "engine.wait"),
            "ns",
        ),
        ("engine.queue_wait_us_p50", e.queue_wait_us_p50, "us"),
        ("engine.batch_service_us_p50", e.batch_service_us_p50, "us"),
        ("engine.end_to_end_us_p50", e.end_to_end_us_p50, "us"),
        ("engine.ops_per_batch", e.ops_per_batch, "ops"),
        ("engine.fast_path_share", e.fast_path_share, "ratio"),
        ("engine.busy_rejections", e.busy_rejections as f64, "count"),
        ("proto.decode_request_ns", decode_ns, "ns"),
        ("proto.encode_reply_ns", encode_ns, "ns"),
        (
            "net.outside_engine_us_p50",
            traced_p50_us - e.end_to_end_us_p50,
            "us",
        ),
        ("net.frames_in", e.frames_in as f64, "count"),
        ("net.frames_out", e.frames_out as f64, "count"),
        ("net.refused", e.refused as f64, "count"),
        ("gen.late_us_p99", us(quantile(&mut m.late_ns, 0.99)), "us"),
        ("client.send_ns_p50", quantile(&mut m.send_ns, 0.5), "ns"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.unattributed_us", unattributed_us, "us"),
        ("failed_ratio", failed_ratio, "ratio"),
        ("latency_p50_us", latency_p50_us, "us"),
        ("latency_p99_us", latency_p99_us, "us"),
    ];
    Outcome {
        correct: on_time,
        attempted,
        failed,
        metrics,
    }
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nacubench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let config = adapter::config(workload.width);
    let unit = Reference::new(config);
    let inputs = workload::generate(workload, args.seed, adapter::code_range(&config));
    let (items, datapath_ns) = workload::reference(&unit, inputs);
    let tcp = matches!(workload.load, Load::Paced { .. });
    let (server, mut setup_times) = set_up(config, tcp);

    let mut outcome = if args.trace {
        let outcome = traced(&server, &config, &args, &unit, &items, datapath_ns);
        server.stop();
        outcome
    } else {
        let mut measured = phase(&server, &config, workload, &items, args.seconds, Trace::Off);
        server.stop();
        // The host's speed drifts over seconds, so a second round of
        // set-ups, the run's length after the first, and the fastest of
        // both rounds give a steadier figure than one round alone.
        let (again, later) = set_up(config, tcp);
        again.stop();
        setup_times.extend(later);
        let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        timed(&mut measured, setup_s)
    };

    outcome.correct &= outcome.failed == 0
        && outcome.attempted > 0
        && outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "workload {} seed {}: {} attempted, {} failed, failed_ratio {ratio} ratio",
        workload.name, args.seed, outcome.attempted, outcome.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name} {value} {unit}");
    }
    println!("{}", json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
