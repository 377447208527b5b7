//! Network serving smoke gate: drives N pipelined TCP clients against a
//! loopback serving plane, compares against the same workload submitted
//! in-process, and deterministically exercises every typed admission
//! refusal (BUSY, SHED, QUOTA).
//!
//!     net_loadgen [--smoke] [--clients N] [--requests N] [--ops N]
//!                 [--depth N] [--out PATH]
//!
//! Three stages, each printed as it runs:
//!
//! 1. **Loopback loadgen** — [`net_bench::drive`] over a real socket:
//!    ops/s plus p50/p99 end-to-end latency. Every reply must be OK
//!    (the plane is sized for the load) and throughput positive.
//! 2. **In-process twin** — [`engine_bench::drive`] pushes the same
//!    workload shape through a same-shape engine without the wire, so
//!    the artifact records what the protocol costs.
//! 3. **Admission demo** — [`net_bench::admission_demo`] must observe
//!    at least one BUSY, one SHED and one QUOTA frame; a refusal path
//!    that hangs or drops the connection fails the gate.
//!
//! The flat-JSON summary is written to `--out` (the CI `net_pr.json`
//! artifact) or printed.

use std::process::ExitCode;

use nacu::{Function, NacuConfig};
use nacu_bench::engine_bench::{self, Workload};
use nacu_bench::net_bench::{self, NetWorkload};
use nacu_engine::{Engine, EngineConfig};
use nacu_net::ServeNet;

struct Args {
    workload: NetWorkload,
    out: Option<String>,
}

fn value(arg: &str, argv: &mut impl Iterator<Item = String>) -> Result<String, String> {
    argv.next().ok_or_else(|| format!("{arg} needs a value"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: NetWorkload {
            clients: 8,
            requests_per_client: 512,
            operands_per_request: 64,
            pipeline_depth: 16,
            function: Function::Sigmoid,
        },
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => {
                args.workload.clients = 4;
                args.workload.requests_per_client = 64;
                args.workload.operands_per_request = 32;
                args.workload.pipeline_depth = 8;
            }
            "--clients" => {
                args.workload.clients = value(&arg, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                args.workload.requests_per_client = value(&arg, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--ops" => {
                args.workload.operands_per_request = value(&arg, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?;
            }
            "--depth" => {
                args.workload.pipeline_depth = value(&arg, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?;
            }
            "--out" => args.out = Some(value(&arg, &mut argv)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn engine() -> Result<Engine, String> {
    Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(4)
            .with_queue_capacity(1024)
            .with_max_coalesced_requests(32),
    )
    .map_err(|e| format!("engine: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = args.workload;

    // Stage 1: loopback loadgen.
    eprintln!(
        "[1/3] loopback loadgen: {} clients x {} requests x {} ops, depth {}",
        workload.clients,
        workload.requests_per_client,
        workload.operands_per_request,
        workload.pipeline_depth
    );
    let net_engine = engine()?;
    // Size the plane for the requested load: the connection cap scales
    // with --clients.
    let mut server = net_engine
        .handle()
        .serve_net_with(
            "127.0.0.1:0",
            nacu_net::NetConfig {
                max_connections: workload.clients + 8,
                ..nacu_net::NetConfig::default()
            },
        )
        .map_err(|e| format!("bind serving plane: {e}"))?;
    let row = net_bench::drive(server.addr(), net_engine.format(), workload);
    let snapshot = net_engine.metrics();
    server.shutdown();
    net_engine.shutdown();
    let expected = (workload.clients * workload.requests_per_client) as u64;
    if row.ok_replies != expected {
        return Err(format!(
            "loadgen plane refused traffic it was sized for: {} OK of {expected} \
             (busy {}, shed {}, quota {}, error {})",
            row.ok_replies,
            row.busy_replies,
            row.shed_replies,
            row.quota_replies,
            row.error_replies
        ));
    }
    if row.ops_per_sec <= 0.0 {
        return Err("loadgen measured zero throughput".to_string());
    }
    if snapshot.net_frames_in < expected || snapshot.net_frames_out < expected {
        return Err(format!(
            "net frame counters missed traffic: in {} out {} of {expected}",
            snapshot.net_frames_in, snapshot.net_frames_out
        ));
    }

    // Stage 2: the in-process twin of the same workload shape.
    eprintln!("[2/3] in-process twin");
    let twin = engine()?;
    let inproc = engine_bench::drive(
        &twin,
        Workload {
            clients: workload.clients,
            requests_per_client: workload.requests_per_client,
            operands_per_request: workload.operands_per_request,
            function: workload.function,
        },
    );
    twin.shutdown();
    net_bench::print_comparison(&row, inproc.ops_per_sec);

    // Stage 3: typed admission refusals over a real socket.
    eprintln!("[3/3] admission demo (BUSY / SHED / QUOTA)");
    let demo = net_bench::admission_demo();
    if demo.busy_replies < 1 || demo.shed_replies < 1 || demo.quota_replies < 1 {
        return Err(format!(
            "admission demo incomplete: busy {} shed {} quota {}",
            demo.busy_replies, demo.shed_replies, demo.quota_replies
        ));
    }
    println!(
        "admission refusals answered as typed frames: busy {} shed {} quota {}",
        demo.busy_replies, demo.shed_replies, demo.quota_replies
    );

    let json = format!(
        "{{\n  \"net_ops_per_sec\": {:.1},\n  \"net_p50_us\": {},\n  \"net_p99_us\": {},\n  \
         \"ok_replies\": {},\n  \"inproc_ops_per_sec\": {:.1},\n  \"wire_efficiency\": {:.4},\n  \
         \"busy_replies\": {},\n  \"shed_replies\": {},\n  \"quota_replies\": {}\n}}\n",
        row.ops_per_sec,
        row.p50_us,
        row.p99_us,
        row.ok_replies,
        inproc.ops_per_sec,
        if inproc.ops_per_sec > 0.0 {
            row.ops_per_sec / inproc.ops_per_sec
        } else {
            0.0
        },
        demo.busy_replies,
        demo.shed_replies,
        demo.quota_replies,
    );
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("net_loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
