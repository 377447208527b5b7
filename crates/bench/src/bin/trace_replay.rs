//! Record/replay trace harness and the golden-trace CI gate.
//!
//!     trace_replay --record PATH
//!     trace_replay --gate [--smoke] [--paced] [--golden PATH] [--report PATH] [--out PATH]
//!
//! `--record` captures the canonical mixed MLP/LSTM/softmax smoke
//! workload into a trace file — the same spec the gate replays, so
//! redirecting `--record` onto the golden path on a healthy commit
//! regenerates the committed trace.
//!
//! `--gate` is the CI job: it re-records the workload and byte-compares
//! it against the committed golden trace (any divergence in training,
//! quantisation, engine scheduling or the datapath shows up here), then
//! replays the golden trace bit-for-bit across engine configurations
//! that *should not* matter (a healthy inline engine, and clean walking
//! harnesses of 1 and 4 workers),
//! over a live `nacu-net` socket, and finally against a deliberately
//! perturbed engine (1-LSB LUT-bias flip) that *must* fail the diff —
//! proving the gate can actually catch a numerical change. Failures are
//! appended to `--report` (the CI artifact); `--out` gets a small JSON
//! record with record/replay throughput for the bench baseline.
//!
//! `--paced` makes the in-process replay stage re-apply the recorded
//! inter-arrival gaps ([`nacu_replay::inter_arrival_gaps`]) instead of
//! slamming the queue; the canonical golden trace is timing-stripped, so
//! on it paced replay degenerates to ordinary replay by design — the
//! flag exists to gate stamped traces recorded elsewhere.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use nacu::{Function, NacuConfig};
use nacu_bench::replay_bench::{
    observable_bias_lsb_plan, perturbed_config, record_mixed_workload, replay_on_engine,
    replay_on_engine_paced, replay_on_net, WorkloadSpec,
};
use nacu_engine::{Engine, EngineConfig, FaultTolerance, TraceLog};
use nacu_net::ServeNet;
use nacu_replay::{diff_logs, render_report, ReplayError};

/// Decode bound: no record in the canonical workload carries more
/// operands than this.
const MAX_OPS: u32 = 1 << 16;

/// In-flight window for pipelined in-process replays.
const WINDOW: usize = 64;

fn base_config() -> EngineConfig {
    EngineConfig::new(NacuConfig::paper_16bit())
        .with_workers(2)
        .with_queue_capacity(256)
}

fn main() -> ExitCode {
    let mut record_path: Option<String> = None;
    let mut gate = false;
    let mut smoke = false;
    let mut paced = false;
    let mut golden_path = "ci/REPLAY_golden.trace".to_string();
    let mut report_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut take = |name: &str| {
            argv.next().map_or_else(
                || {
                    eprintln!("{name} needs a value");
                    None
                },
                Some,
            )
        };
        match arg.as_str() {
            "--record" => match take("--record") {
                Some(v) => record_path = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--gate" => gate = true,
            "--smoke" => smoke = true,
            "--paced" => paced = true,
            "--golden" => match take("--golden") {
                Some(v) => golden_path = v,
                None => return ExitCode::FAILURE,
            },
            "--report" => match take("--report") {
                Some(v) => report_path = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--out" => match take("--out") {
                Some(v) => out_path = Some(v),
                None => return ExitCode::FAILURE,
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: trace_replay --record PATH | --gate [--smoke] [--paced] \
                     [--golden PATH] [--report PATH] [--out PATH]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = record_path {
        let spec = WorkloadSpec::smoke();
        let started = Instant::now();
        let log = record_mixed_workload(spec, base_config());
        let secs = started.elapsed().as_secs_f64();
        let bytes = log.encode();
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "recorded {} requests / {} operands in {secs:.3}s -> {path} ({} bytes)",
            log.records.len(),
            log.total_ops(),
            bytes.len()
        );
        return ExitCode::SUCCESS;
    }

    if !gate {
        eprintln!("nothing to do: pass --record PATH or --gate");
        return ExitCode::FAILURE;
    }

    let mut failures: Vec<String> = Vec::new();

    // 1. Re-record the canonical workload.
    let spec = WorkloadSpec::smoke();
    let started = Instant::now();
    let fresh = record_mixed_workload(spec, base_config());
    let record_secs = started.elapsed().as_secs_f64();
    let record_ops_per_sec = if record_secs > 0.0 {
        fresh.total_ops() as f64 / record_secs
    } else {
        0.0
    };
    println!(
        "recorded {} requests / {} operands ({record_ops_per_sec:.0} ops/s recorded)",
        fresh.records.len(),
        fresh.total_ops()
    );
    for function in [
        Function::Sigmoid,
        Function::Tanh,
        Function::Exp,
        Function::Softmax,
    ] {
        if !fresh.records.iter().any(|r| r.function == function) {
            failures.push(format!("fresh recording exercises no {function} request"));
        }
    }

    // 2. Byte-compare against the committed golden trace.
    let golden = match std::fs::read(&golden_path) {
        Ok(bytes) => match TraceLog::decode(&bytes, MAX_OPS) {
            Ok(golden) => {
                if fresh.encode() == bytes {
                    println!("OK: fresh recording is byte-identical to {golden_path}");
                } else {
                    let mut msg = format!(
                        "fresh recording differs from golden {golden_path} \
                         ({} fresh vs {} golden records)",
                        fresh.records.len(),
                        golden.records.len()
                    );
                    match diff_logs(&golden, &fresh) {
                        Ok(Some(d)) => {
                            let _ =
                                write!(msg, "\n{}", render_report(&d, &golden.records[d.index]));
                        }
                        Ok(None) => {
                            let _ = write!(
                                msg,
                                "\nresponses match; the byte difference is in headers or \
                                 metadata (ids/deadlines)"
                            );
                        }
                        Err(e) => {
                            let _ = write!(msg, "\nstructural mismatch: {e}");
                        }
                    }
                    failures.push(msg);
                }
                Some(golden)
            }
            Err(e) => {
                failures.push(format!("golden trace {golden_path} fails to decode: {e}"));
                None
            }
        },
        Err(e) => {
            failures.push(format!(
                "golden trace {golden_path} unreadable: {e} \
                 (regenerate with: trace_replay --record {golden_path})"
            ));
            None
        }
    };
    // Replay against the fresh recording when the golden is unusable so
    // the remaining stages still report something useful.
    let trace = golden.as_ref().unwrap_or(&fresh);

    // 3. Replay across engine configurations that must not change bits.
    let mut replay_ops_per_sec = 0.0_f64;
    // `Some(n)`: a clean harness of `n` walking workers; `None`: inline.
    let configs: &[Option<usize>] = if smoke {
        &[Some(1), None]
    } else {
        &[Some(1), Some(4), None]
    };
    for &harness in configs {
        let (label, config) = match harness {
            Some(workers) => (
                format!("harness workers={workers}"),
                base_config()
                    .with_workers(workers)
                    .with_fault_tolerance(FaultTolerance::clean_harness(workers)),
            ),
            None => ("inline".to_string(), base_config()),
        };
        let engine = match Engine::new(config) {
            Ok(e) => e,
            Err(e) => {
                failures.push(format!("replay engine ({label}) failed to build: {e}"));
                continue;
            }
        };
        let started = Instant::now();
        let replayed = if paced {
            replay_on_engine_paced(trace, &engine.handle(), WINDOW)
        } else {
            replay_on_engine(trace, &engine.handle(), WINDOW)
        };
        match replayed {
            Ok(outcome) => {
                let secs = started.elapsed().as_secs_f64();
                if let Some(d) = &outcome.divergence {
                    failures.push(format!(
                        "replay diverged on a clean engine ({label})\n{}",
                        render_report(d, &trace.records[d.index])
                    ));
                } else {
                    let ops_per_sec = if secs > 0.0 {
                        outcome.ops as f64 / secs
                    } else {
                        0.0
                    };
                    replay_ops_per_sec = replay_ops_per_sec.max(ops_per_sec);
                    println!(
                        "OK: bit-identical replay on {label} ({} records, {ops_per_sec:.0} ops/s)",
                        outcome.records
                    );
                }
            }
            Err(e) => failures.push(format!("replay failed on {label}: {e}")),
        }
        let snapshot = engine.shutdown();
        if snapshot.replay_requests_replayed == 0 {
            failures.push(format!(
                "replay counters never moved on {label} \
                 (replay_requests_replayed stayed 0)"
            ));
        }
    }

    // 4. Replay through a live serving plane on loopback.
    let mut wire_replay_ops_per_sec = 0.0_f64;
    match Engine::new(base_config()) {
        Ok(engine) => match engine.handle().serve_net("127.0.0.1:0") {
            Ok(mut server) => {
                let started = Instant::now();
                match replay_on_net(trace, server.addr()) {
                    Ok(outcome) => {
                        let secs = started.elapsed().as_secs_f64();
                        if let Some(d) = &outcome.divergence {
                            failures.push(format!(
                                "wire replay diverged\n{}",
                                render_report(d, &trace.records[d.index])
                            ));
                        } else {
                            wire_replay_ops_per_sec = if secs > 0.0 {
                                outcome.ops as f64 / secs
                            } else {
                                0.0
                            };
                            println!(
                                "OK: bit-identical replay over the wire \
                                 ({} records, {wire_replay_ops_per_sec:.0} ops/s)",
                                outcome.records
                            );
                        }
                    }
                    Err(e) => failures.push(format!("wire replay failed: {e}")),
                }
                server.shutdown();
            }
            Err(e) => failures.push(format!("wire replay bind failed: {e}")),
        },
        Err(e) => failures.push(format!("wire replay engine failed to build: {e}")),
    }

    // 5. A perturbed engine (1-LSB LUT-bias flip) must fail the diff.
    match observable_bias_lsb_plan(NacuConfig::paper_16bit(), trace) {
        Some(plan) => match Engine::new(perturbed_config(base_config(), plan)) {
            Ok(engine) => {
                match replay_on_engine(trace, &engine.handle(), WINDOW) {
                    Ok(outcome) => match outcome.divergence {
                        Some(d) => {
                            println!(
                                "OK: perturbed engine diverges as it must \
                                 (expected-failure demonstration below)"
                            );
                            println!("{}", render_report(&d, &trace.records[d.index]));
                        }
                        None => failures.push(
                            "perturbed engine (1-LSB LUT-bias flip) replayed bit-identically \
                             — the diff cannot catch numerical change"
                                .to_string(),
                        ),
                    },
                    Err(e) => match e {
                        // A refusal is not a diff catch; the gate needs
                        // the corrupt bits to flow and the diff to bite.
                        ReplayError::Backend { .. } | ReplayError::ShapeMismatch { .. } => {
                            failures.push(format!(
                                "perturbed replay errored instead of diverging: {e}"
                            ));
                        }
                    },
                }
                engine.shutdown();
            }
            Err(e) => failures.push(format!("perturbed engine failed to build: {e}")),
        },
        None => failures
            .push("no observable 1-LSB LUT-bias perturbation found for the trace".to_string()),
    }

    // Emit the throughput record for the bench baseline.
    let record = format!(
        "{{\n  \"replay_records\": {},\n  \"replay_total_ops\": {},\n  \
         \"record_ops_per_sec\": {record_ops_per_sec:.1},\n  \
         \"replay_ops_per_sec\": {replay_ops_per_sec:.1},\n  \
         \"wire_replay_ops_per_sec\": {wire_replay_ops_per_sec:.1}\n}}\n",
        trace.records.len(),
        trace.total_ops(),
    );
    print!("{record}");
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &record) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("replay gate: PASS");
        ExitCode::SUCCESS
    } else {
        let mut report = String::from("replay gate: FAIL\n");
        for failure in &failures {
            let _ = writeln!(report, "\nFAIL: {failure}");
        }
        eprint!("{report}");
        if let Some(path) = &report_path {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("failed to write {path}: {e}");
            } else {
                eprintln!("wrote divergence report to {path}");
            }
        }
        ExitCode::FAILURE
    }
}
