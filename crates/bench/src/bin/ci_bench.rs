//! CI bench-regression gate: run the smoke-shape engine, net, replay and
//! fault-campaign benches, write a JSON record, and fail if throughput
//! regressed more than the threshold against a committed baseline.
//!
//!     ci_bench [--smoke] [--fastpath-only] [--out PATH] [--baseline PATH]
//!              [--threshold PCT] [--fastpath-floor PATH] [--fastpath-out PATH]
//!              [--ratchet-margin PCT] [--ratchet-strict]
//!
//! With `--baseline`, each `*_per_sec` metric in the fresh run is compared
//! against the same key in the baseline file; a drop beyond `PCT` percent
//! (default 20) fails the run. Detection-coverage gates (LUT parity >= 99%)
//! always apply. The baseline is regenerated by redirecting `--out` onto
//! the baseline path on a healthy commit.
//!
//! Every gate — bench completion, coverage, `--baseline` and
//! `--fastpath-floor` — is evaluated and printed before the run exits,
//! and the run fails if any of them failed, so a noisy baseline floor
//! never hides the fast-path verdict.
//!
//! The `--out` record is written on *every* exit path, not just full
//! success: fields accumulate as each bench completes, so a crash in the
//! fault campaign still leaves the engine/net/replay numbers in the
//! artifact for the postmortem.
//!
//! With `--fastpath-floor`, the fresh fast-path throughput for sigmoid,
//! tanh and exp must reach at least the recorded ratio (`{name}_min_ratio`,
//! default 2.0) times the *recorded* datapath-only ops/s in the floor file
//! (`{name}_datapath_ops_per_sec`) — the response-table speedup gate,
//! pinned to a healthy commit's numbers so one noisy datapath run can't
//! soften it. Every run prints the exact delta over the floor and the
//! observed fast/datapath ratio, pass or fail.
//!
//! The gate also *ratchets upward*: when a fresh run's observed
//! fast/datapath ratio beats the recorded `min_ratio` by more than
//! `--ratchet-margin` percent (default 25), `--fastpath-out` gets a
//! refreshed floor file (fresh datapath numbers, `min_ratio` set to 0.9x
//! the observed ratio). Under `--ratchet-strict` (how CI runs it) a
//! ratchet is a *failure* — "floor is stale, commit the refreshed file" —
//! so real speedups must raise the committed floor instead of quietly
//! banking headroom. The 25% margin over the 0.9x proposal means a
//! freshly committed floor only re-trips on a genuine >= 12.5% ratio
//! improvement, not on run-to-run noise.
//!
//! `--fastpath-only` runs just the fast-path comparison, the kernel
//! timings and the memcpy/gather ceiling measurements (skipping the
//! engine, queue, net, replay and fault-campaign phases and their gates)
//! — the quick way to re-measure the fast-path floor without paying for
//! the full suite.
//!
//! Every run also records, ungated,
//! `{sigmoid,tanh,exp,softmax}_kernel_ns_per_op` (the serving kernel per
//! operand at Q4.11, best of the fast-path trial count) and
//! `kernel_vs_walk_ratio` (the golden walk's summed ns per operand over
//! the kernel's, measured in the same run).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use nacu::{Function, NacuConfig};
use nacu_bench::engine_bench::{self, Workload};
use nacu_bench::fault_campaign::{self, CampaignConfig, CampaignReport};
use nacu_bench::net_bench::{self, NetWorkload};
use nacu_bench::replay_bench::{record_mixed_workload, replay_on_engine, WorkloadSpec};
use nacu_engine::{Engine, EngineConfig};
use nacu_net::{NetConfig, ServeNet};

/// The metrics the regression gate compares run-over-run.
const GATED_KEYS: [&str; 4] = [
    "engine_ops_per_sec",
    "campaign_trials_per_sec",
    "net_pipelined_conns_ops_per_sec",
    "replay_ops_per_sec",
];

/// Accumulates `"key": value` lines so a partially completed run still
/// renders a valid JSON record on any exit path.
#[derive(Default)]
struct RecordFields {
    fields: String,
}

impl RecordFields {
    fn push(&mut self, key: &str, value: &str) {
        let _ = writeln!(self.fields, "  \"{key}\": {value},");
    }

    fn render(&self) -> String {
        let body = self.fields.trim_end().trim_end_matches(',');
        if body.is_empty() {
            "{}\n".to_string()
        } else {
            format!("{{\n{body}\n}}\n")
        }
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut fastpath_only = false;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut fastpath_floor: Option<String> = None;
    let mut fastpath_out: Option<String> = None;
    let mut threshold_pct = 20.0_f64;
    let mut ratchet_margin_pct = 25.0_f64;
    let mut ratchet_strict = false;
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
            "--smoke" => smoke = true,
            "--fastpath-only" => fastpath_only = true,
            "--ratchet-strict" => ratchet_strict = true,
            "--ratchet-margin" => match take("--ratchet-margin").and_then(|v| v.parse().ok()) {
                Some(v) => ratchet_margin_pct = v,
                None => {
                    eprintln!("--ratchet-margin needs a number (percent)");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match take("--out") {
                Some(v) => out = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--baseline" => match take("--baseline") {
                Some(v) => baseline = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--fastpath-floor" => match take("--fastpath-floor") {
                Some(v) => fastpath_floor = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--fastpath-out" => match take("--fastpath-out") {
                Some(v) => fastpath_out = Some(v),
                None => return ExitCode::FAILURE,
            },
            "--threshold" => match take("--threshold").and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => {
                    eprintln!("--threshold needs a number (percent)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: ci_bench [--smoke] [--fastpath-only] [--out PATH] [--baseline PATH] \
                     [--threshold PCT] [--fastpath-floor PATH] [--fastpath-out PATH] \
                     [--ratchet-margin PCT] [--ratchet-strict]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // Run the benches, accumulating record fields as each completes; the
    // record is rendered and written whether or not they all succeeded.
    let mut fields = RecordFields::default();
    let bench_result = run_benches(smoke, fastpath_only, &mut fields);
    let record = fields.render();
    print!("{record}");
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &record) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    // Every gate is evaluated and reported before the verdict, so one
    // failing gate never hides another's result.
    let (benches_ok, report) = match bench_result {
        Ok(report) => (true, report),
        Err(message) => {
            eprintln!("{message}");
            (false, None)
        }
    };
    let coverage_ok = coverage_gate(report.as_ref());
    let baseline_ok = match baseline {
        Some(_) if fastpath_only => {
            println!("--fastpath-only: skipping the --baseline gate (those benches did not run)");
            true
        }
        Some(path) => baseline_gate(&path, &record, threshold_pct),
        None => true,
    };
    let fastpath_ok = fastpath_floor.is_none_or(|path| {
        fastpath_gate(
            &path,
            &record,
            ratchet_margin_pct,
            fastpath_out.as_deref(),
            ratchet_strict,
        )
    });
    if benches_ok && coverage_ok && baseline_ok && fastpath_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The correctness gate, which applies whenever the fault campaign ran:
/// single-bit LUT detection coverage of at least 99%.
fn coverage_gate(report: Option<&CampaignReport>) -> bool {
    let Some(report) = report else {
        return true;
    };
    if report.lut_coverage() < 0.99 {
        eprintln!(
            "FAIL: single-bit LUT coverage {:.4} below the 0.99 gate",
            report.lut_coverage()
        );
        return false;
    }
    println!(
        "OK: single-bit LUT coverage {:.4} (gate 0.99)",
        report.lut_coverage()
    );
    true
}

/// The throughput gate against the committed baseline: every key of
/// [`GATED_KEYS`] the baseline carries must reach `1 - threshold_pct`
/// of it. Every key is checked and reported, pass or fail.
fn baseline_gate(path: &str, record: &str, threshold_pct: f64) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read baseline {path}: {e}");
            return false;
        }
    };
    let mut passed = true;
    for key in GATED_KEYS {
        let Some(base) = json_number(&text, key) else {
            eprintln!("baseline {path} lacks \"{key}\" — skipping that gate");
            continue;
        };
        let Some(now) = json_number(record, key) else {
            eprintln!("fresh record lacks \"{key}\"");
            passed = false;
            continue;
        };
        let floor = base * (1.0 - threshold_pct / 100.0);
        if now < floor {
            eprintln!(
                "FAIL: {key} regressed {:.1}% ({now:.1} vs baseline {base:.1}, \
                 floor {floor:.1})",
                100.0 * (1.0 - now / base),
            );
            passed = false;
        } else {
            println!("OK: {key} {now:.1} vs baseline {base:.1} (floor {floor:.1})");
        }
    }
    passed
}

/// The fast-path speedup gate: σ, tanh and exp must reach the recorded
/// ratio (default 2x) times the recorded datapath-only throughput from
/// the committed floor file — and the gate ratchets upward when a fresh
/// run's own fast/datapath ratio clears the recorded bar by more than the
/// ratchet margin.
fn fastpath_gate(
    path: &str,
    record: &str,
    ratchet_margin_pct: f64,
    fastpath_out: Option<&str>,
    ratchet_strict: bool,
) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read fast-path floor {path}: {e}");
            return false;
        }
    };
    let mut failed = false;
    let mut ratcheted = false;
    let mut refreshed = String::from("{\n");
    for name in ["sigmoid", "tanh", "exp"] {
        let floor_key = format!("{name}_datapath_ops_per_sec");
        let Some(recorded) = json_number(&text, &floor_key) else {
            eprintln!("floor file {path} lacks \"{floor_key}\"");
            failed = true;
            continue;
        };
        let min_ratio = json_number(&text, &format!("{name}_min_ratio")).unwrap_or(2.0);
        let fresh_key = format!("{name}_fast_ops_per_sec");
        let Some(fresh) = json_number(record, &fresh_key) else {
            eprintln!("fresh record lacks \"{fresh_key}\"");
            failed = true;
            continue;
        };
        // Observed ratio uses fast and datapath from the *same* run —
        // machine speed cancels, so it ratchets comparably across
        // hosts where raw ops/s do not.
        let fresh_datapath =
            json_number(record, &format!("{name}_datapath_ops_per_sec")).unwrap_or(0.0);
        let observed_ratio = if fresh_datapath > 0.0 {
            fresh / fresh_datapath
        } else {
            0.0
        };
        let floor = min_ratio * recorded;
        let delta = fresh - floor;
        if fresh < floor {
            eprintln!(
                "FAIL: {fresh_key} {fresh:.1} below {min_ratio:.2}x recorded datapath \
                 {recorded:.1} (floor {floor:.1}, delta {delta:+.1}, \
                 observed {observed_ratio:.2}x)"
            );
            failed = true;
            continue;
        }
        println!(
            "OK: {fresh_key} {fresh:.1} >= floor {floor:.1} ({min_ratio:.2}x recorded \
             datapath {recorded:.1}); delta {delta:+.1} ops/s ({:+.1}%), \
             observed {observed_ratio:.2}x",
            100.0 * delta / floor,
        );
        let trip = (1.0 + ratchet_margin_pct / 100.0) * min_ratio;
        let (next_datapath, next_ratio) = if observed_ratio > trip {
            ratcheted = true;
            println!(
                "RATCHET: {name} observed {observed_ratio:.2}x exceeds recorded \
                 {min_ratio:.2}x by >{ratchet_margin_pct:.0}%; proposing floor {:.2}x",
                0.9 * observed_ratio
            );
            (fresh_datapath, 0.9 * observed_ratio)
        } else {
            (recorded, min_ratio)
        };
        refreshed.push_str(&format!(
            "  \"{name}_datapath_ops_per_sec\": {next_datapath:.1},\n  \
             \"{name}_min_ratio\": {next_ratio:.2},\n"
        ));
    }
    if failed {
        return false;
    }
    if ratcheted {
        // Close the JSON object (drop the trailing comma).
        let refreshed = format!("{}\n}}\n", refreshed.trim_end().trim_end_matches(','));
        if let Some(out_path) = fastpath_out {
            if let Err(e) = std::fs::write(out_path, &refreshed) {
                eprintln!("failed to write refreshed floor {out_path}: {e}");
                return false;
            }
            println!("wrote refreshed fast-path floor to {out_path}");
        } else {
            println!("refreshed fast-path floor (pass --fastpath-out to save):");
            print!("{refreshed}");
        }
        if ratchet_strict {
            eprintln!(
                "FAIL: fast-path floor {path} is stale — the measured speedup ratcheted \
                 past it; commit the refreshed file (see --fastpath-out) to raise the floor"
            );
            return false;
        }
    }
    true
}

/// Runs every bench phase, pushing each completed phase's metrics into
/// `fields` *before* starting the next, so the caller can render a
/// partial record if a later phase fails. Under `fastpath_only` only the
/// fast-path comparison and the memcpy/gather ceilings run, and no
/// campaign report is produced (`Ok(None)`).
fn run_benches(
    smoke: bool,
    fastpath_only: bool,
    fields: &mut RecordFields,
) -> Result<Option<CampaignReport>, String> {
    if !fastpath_only {
        // Engine throughput: a short coalescible σ workload on a 2-shard
        // pool.
        let workload = if smoke {
            Workload {
                clients: 2,
                requests_per_client: 64,
                operands_per_request: 32,
                function: Function::Sigmoid,
            }
        } else {
            Workload::default()
        };
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(2)
                .with_queue_capacity(256),
        )
        .map_err(|e| format!("engine construction failed: {e}"))?;
        let row = engine_bench::drive(&engine, workload);
        engine.shutdown();
        fields.push("engine_ops_per_sec", &format!("{:.1}", row.ops_per_sec));
    }

    // Per-function fast-path-versus-datapath comparison (σ, tanh, exp).
    // Larger batches than the queue-shaped workload above: the fast path
    // claims a *compute* speedup, so operands must dominate the per-
    // request submit/reply overhead that both sides pay identically.
    // Smoke gets the most best-of trials, not the fewest: the strict
    // ratchet gates these numbers, and short runs are where scheduler
    // noise produces the outliers that would flap it.
    let trials = if smoke { 4 } else { 3 };
    let fast_workload = Workload {
        clients: 2,
        requests_per_client: if smoke { 64 } else { 128 },
        operands_per_request: 512,
        function: Function::Sigmoid,
    };
    let fast_rows = engine_bench::fast_path_comparison(
        &[Function::Sigmoid, Function::Tanh, Function::Exp],
        fast_workload,
        trials,
    );
    for fast_row in &fast_rows {
        let name = match fast_row.function {
            Function::Sigmoid => "sigmoid",
            Function::Tanh => "tanh",
            Function::Exp => "exp",
            Function::Softmax => "softmax",
            _ => "mac",
        };
        fields.push(
            &format!("{name}_fast_ops_per_sec"),
            &format!("{:.1}", fast_row.fast_ops_per_sec),
        );
        fields.push(
            &format!("{name}_datapath_ops_per_sec"),
            &format!("{:.1}", fast_row.datapath_ops_per_sec),
        );
    }

    // The serving kernel against the golden walk, per operand, at Q4.11
    // (ungated). The ratio normalises itself: both sides share the host.
    let mut kernel_total = 0.0;
    let mut walk_total = 0.0;
    for (function, name) in [
        (Function::Sigmoid, "sigmoid"),
        (Function::Tanh, "tanh"),
        (Function::Exp, "exp"),
        (Function::Softmax, "softmax"),
    ] {
        let (kernel_ns, walk_ns) = engine_bench::kernel_and_walk_ns_per_op(function, trials);
        fields.push(
            &format!("{name}_kernel_ns_per_op"),
            &format!("{kernel_ns:.2}"),
        );
        kernel_total += kernel_ns;
        walk_total += walk_ns;
    }
    fields.push(
        "kernel_vs_walk_ratio",
        &format!("{:.2}", walk_total / kernel_total),
    );

    // Streaming ceilings for context next to the fast-path rows: raw
    // memcpy bandwidth and the bare table gather with no engine around
    // it.
    let ceiling_trials = if smoke { 2 } else { 3 };
    fields.push(
        "memcpy_bandwidth_gbps",
        &format!(
            "{:.2}",
            engine_bench::memcpy_bandwidth_gbps(64, ceiling_trials)
        ),
    );
    fields.push(
        "gather_ceiling_scalar_ops_per_sec",
        &format!(
            "{:.1}",
            engine_bench::gather_ceiling_ops_per_sec(512, ceiling_trials)
        ),
    );

    if fastpath_only {
        return Ok(None);
    }

    // Submit-queue handoff in isolation, items/s.
    let queue_items = if smoke { 50_000 } else { 200_000 };
    let queue_items_per_sec = engine_bench::queue_throughput(4, 2, queue_items);
    fields.push("queue_items_per_sec", &format!("{queue_items_per_sec:.1}"));

    // Loopback serving plane: 64 pipelined connections, each reply
    // written by the thread that completes it — the wire-level
    // throughput the completion front-end is accountable for.
    let net_workload = NetWorkload {
        clients: 64,
        requests_per_client: if smoke { 16 } else { 128 },
        operands_per_request: 32,
        pipeline_depth: 8,
        function: Function::Sigmoid,
    };
    let net_engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(2048),
    )
    .map_err(|e| format!("net bench engine construction failed: {e}"))?;
    let mut net_server = net_engine
        .handle()
        .serve_net_with(
            "127.0.0.1:0",
            NetConfig {
                max_connections: net_workload.clients + 8,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("net bench bind failed: {e}"))?;
    let net_row = net_bench::drive(net_server.addr(), net_engine.format(), net_workload);
    net_server.shutdown();
    net_engine.shutdown();
    fields.push(
        "net_pipelined_conns_ops_per_sec",
        &format!("{:.1}", net_row.ops_per_sec),
    );
    fields.push("net_pipelined_p99_us", &net_row.p99_us.to_string());
    if net_row.error_replies > 0 {
        return Err(format!(
            "FAIL: {} ERROR frames during the pipelined-connection bench",
            net_row.error_replies
        ));
    }

    // Record/replay: capture the mixed workload once, then replay it
    // repeatedly against a fresh engine and report replayed ops/s. A
    // divergence here is a correctness failure, not a slow run.
    let spec = if smoke {
        WorkloadSpec::tiny()
    } else {
        WorkloadSpec::smoke()
    };
    let log = record_mixed_workload(
        spec,
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256),
    );
    let replay_engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256),
    )
    .map_err(|e| format!("replay bench engine construction failed: {e}"))?;
    let replay_iters = if smoke { 2 } else { 5 };
    let started = Instant::now();
    let mut replayed_ops = 0_u64;
    for _ in 0..replay_iters {
        let outcome = replay_on_engine(&log, &replay_engine.handle(), 64)
            .map_err(|e| format!("replay bench failed: {e}"))?;
        if let Some(divergence) = outcome.divergence {
            return Err(format!(
                "FAIL: replay diverged on a clean engine: {divergence:?}"
            ));
        }
        replayed_ops += outcome.ops;
    }
    let replay_wall = started.elapsed().as_secs_f64();
    replay_engine.shutdown();
    let replay_ops_per_sec = if replay_wall > 0.0 {
        replayed_ops as f64 / replay_wall
    } else {
        0.0
    };
    fields.push("replay_ops_per_sec", &format!("{replay_ops_per_sec:.1}"));

    // Fault campaign throughput + coverage.
    let config = if smoke {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::full()
    };
    let started = Instant::now();
    let report = fault_campaign::run(&config);
    let campaign_wall = started.elapsed().as_secs_f64();
    let campaign_trials_per_sec = if campaign_wall > 0.0 {
        report.trials.len() as f64 / campaign_wall
    } else {
        0.0
    };
    fields.push(
        "campaign_trials_per_sec",
        &format!("{campaign_trials_per_sec:.1}"),
    );
    fields.push("campaign_trials", &report.trials.len().to_string());
    fields.push("campaign_coverage", &format!("{:.6}", report.coverage()));
    fields.push(
        "campaign_lut_coverage",
        &format!("{:.6}", report.lut_coverage()),
    );
    fields.push(
        "worst_silent_error",
        &format!("{:.6e}", report.worst_silent_error()),
    );
    Ok(Some(report))
}

/// Minimal JSON scalar lookup: finds `"key": <number>` in a flat document.
/// Good enough for the bench records this binary itself writes; not a
/// general JSON parser and not meant to be.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
