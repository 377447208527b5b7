//! Loopback network-serving experiment: ops/s and tail latency through
//! the `nacu-net` wire protocol, next to the same workload submitted
//! in-process.
//!
//! [`drive`] pushes a fixed workload through a live TCP serving plane
//! with `N` pipelined [`NetClient`]s and reports throughput plus p50/p99
//! end-to-end latency; [`admission_demo`] deterministically exercises
//! the three admission refusals (BUSY, SHED, QUOTA) so the smoke gate
//! can prove they answer with typed frames rather than dropped
//! connections. The `net_loadgen` binary wraps both into the CI
//! `net_pr.json` artifact.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

use nacu::{Function, NacuConfig};
use nacu_engine::{Engine, EngineConfig, FaultTolerance, Request, SubmitError};
use nacu_fixed::{Fx, QFormat, Rounding};
use nacu_net::{NetClient, NetConfig, Quota, ServeNet, Status};

/// Workload shape for [`drive`]: `clients` sockets, each keeping up to
/// `pipeline_depth` request ids in flight.
#[derive(Debug, Clone, Copy)]
pub struct NetWorkload {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Operands per request frame.
    pub operands_per_request: usize,
    /// In-flight request ids per socket before waiting on a reply.
    pub pipeline_depth: usize,
    /// Function under load.
    pub function: Function,
}

impl Default for NetWorkload {
    fn default() -> Self {
        Self {
            clients: 4,
            requests_per_client: 256,
            operands_per_request: 64,
            pipeline_depth: 16,
            function: Function::Sigmoid,
        }
    }
}

/// One measured loadgen interval.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenRow {
    /// Client connections driven.
    pub clients: usize,
    /// OK-reply operands per second over the wire.
    pub ops_per_sec: f64,
    /// Median end-to-end request latency (send to matched reply), µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end request latency, µs.
    pub p99_us: u64,
    /// Replies by status.
    pub ok_replies: u64,
    /// BUSY refusals observed by clients.
    pub busy_replies: u64,
    /// SHED refusals observed by clients.
    pub shed_replies: u64,
    /// QUOTA refusals observed by clients.
    pub quota_replies: u64,
    /// ERROR frames observed by clients (always a bug under this load).
    pub error_replies: u64,
    /// Wall-clock seconds of the interval.
    pub wall_secs: f64,
}

fn operand_ramp(fmt: QFormat, n: usize) -> Vec<Fx> {
    (0..n)
        .map(|i| {
            let v = -6.0 + 12.0 * (i as f64) / (n.max(2) - 1) as f64;
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect()
}

/// `q`-th percentile of an unsorted latency sample (nearest-rank).
#[must_use]
pub fn percentile_us(latencies: &mut [u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    latencies[idx]
}

/// Per-client tallies returned by the socket threads.
struct ClientTally {
    latencies_us: Vec<u64>,
    by_status: [u64; 5],
}

/// Drives `workload` against a live serving plane at `addr` and
/// measures the interval. Every request is sent with no deadline;
/// refusal statuses are tallied, not retried, so the row is an honest
/// picture of what the plane admitted.
///
/// # Panics
///
/// Panics if a socket dies mid-benchmark — transport failure on
/// loopback is a bug, not load.
#[must_use]
pub fn drive(addr: SocketAddr, format: QFormat, workload: NetWorkload) -> LoadgenRow {
    let operands = operand_ramp(format, workload.operands_per_request);
    let started = Instant::now();
    let mut tallies: Vec<ClientTally> = Vec::with_capacity(workload.clients.max(1));
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients.max(1))
            .map(|_| {
                let operands = &operands;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect loadgen client");
                    let mut inflight: HashMap<u64, Instant> = HashMap::new();
                    let mut tally = ClientTally {
                        latencies_us: Vec::with_capacity(workload.requests_per_client),
                        by_status: [0; 5],
                    };
                    let total = workload.requests_per_client;
                    let mut sent = 0;
                    let mut received = 0;
                    while received < total {
                        while sent < total && inflight.len() < workload.pipeline_depth.max(1) {
                            let id = client
                                .send(workload.function, operands, 0)
                                .expect("send over loopback");
                            inflight.insert(id, Instant::now());
                            sent += 1;
                        }
                        let reply = client.recv().expect("recv over loopback");
                        if let Some(sent_at) = inflight.remove(&reply.id) {
                            #[allow(clippy::cast_possible_truncation)]
                            tally
                                .latencies_us
                                .push(sent_at.elapsed().as_micros() as u64);
                        }
                        tally.by_status[reply.status as usize] += 1;
                        received += 1;
                    }
                    tally
                })
            })
            .collect();
        for handle in handles {
            tallies.push(handle.join().expect("loadgen client thread"));
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut by_status = [0u64; 5];
    for tally in tallies {
        latencies.extend(tally.latencies_us);
        for (total, n) in by_status.iter_mut().zip(tally.by_status) {
            *total += n;
        }
    }
    let ok_replies = by_status[Status::Ok as usize];
    let ops = ok_replies * workload.operands_per_request as u64;
    let p50_us = percentile_us(&mut latencies, 0.50);
    let p99_us = percentile_us(&mut latencies, 0.99);
    LoadgenRow {
        clients: workload.clients.max(1),
        ops_per_sec: if wall_secs > 0.0 {
            ops as f64 / wall_secs
        } else {
            0.0
        },
        p50_us,
        p99_us,
        ok_replies,
        busy_replies: by_status[Status::Busy as usize],
        shed_replies: by_status[Status::Shed as usize],
        quota_replies: by_status[Status::Quota as usize],
        error_replies: by_status[Status::Error as usize],
        wall_secs,
    }
}

/// Typed-refusal counts from [`admission_demo`]: each field must be ≥ 1
/// for the smoke gate to pass.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionDemo {
    /// BUSY frames received while the engine queue was full.
    pub busy_replies: u64,
    /// SHED frames received for an unmeetable deadline.
    pub shed_replies: u64,
    /// QUOTA frames received past the token-bucket burst.
    pub quota_replies: u64,
}

/// Deterministically provokes each typed admission refusal over a real
/// socket and counts the reply frames.
///
/// * **SHED** — a softmax batch with a 1 µs deadline: the modeled cycle
///   floor at the paper clock exceeds the budget, so the plane refuses
///   before enqueueing.
/// * **QUOTA** — a `burst = 2` token bucket, then more than two
///   back-to-back calls from one client.
/// * **BUSY** — a 1-worker, capacity-1-queue clean harness engine is
///   pinned by a huge datapath softmax; with the queue topped up
///   in-process, a wire request has nowhere to go.
///
/// # Panics
///
/// Panics on transport failure, or if the BUSY provocation fails to
/// observe a single BUSY frame in its retry budget (a determinism bug
/// worth failing loudly on).
#[must_use]
pub fn admission_demo() -> AdmissionDemo {
    let mut demo = AdmissionDemo {
        busy_replies: 0,
        shed_replies: 0,
        quota_replies: 0,
    };

    // SHED + QUOTA share one quota-limited plane.
    {
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(2)
                .with_queue_capacity(64),
        )
        .expect("paper config");
        let mut server = engine
            .handle()
            .serve_net_with(
                "127.0.0.1:0",
                NetConfig {
                    quota: Some(Quota {
                        rate_per_sec: 0.5,
                        burst: 2.0,
                    }),
                    ..NetConfig::default()
                },
            )
            .expect("bind admission plane");
        let fmt = engine.format();
        let mut client = NetClient::connect(server.addr()).expect("connect");
        // Quota is checked before the deadline floor and buckets are
        // keyed per client IP, so probe SHED first while burst tokens
        // remain: the probe spends a token, passes quota, and hits the
        // unmeetable 1 µs deadline.
        let big = operand_ramp(fmt, 4096);
        let reply = client.call(Function::Softmax, &big, 1).expect("shed call");
        if reply.status == Status::Shed {
            demo.shed_replies += 1;
        }
        // Then burn the rest of the burst and count QUOTA refusals.
        let small = operand_ramp(fmt, 8);
        for _ in 0..8 {
            let reply = client.call(Function::Sigmoid, &small, 0).expect("call");
            if reply.status == Status::Quota {
                demo.quota_replies += 1;
            }
        }
        server.shutdown();
        engine.shutdown();
    }

    // BUSY: pin a minimal engine, top up its one-slot queue in-process,
    // then knock on the wire.
    {
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(1)
                .with_queue_capacity(1)
                .with_fault_tolerance(FaultTolerance::clean_harness(1)),
        )
        .expect("paper config");
        let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
        let fmt = engine.format();
        let handle = engine.handle();
        let mut client = NetClient::connect(server.addr()).expect("connect");
        let small = operand_ramp(fmt, 8);
        let pin = operand_ramp(fmt, 200_000);
        let pinned = handle
            .submit(Request::new(Function::Softmax, pin))
            .expect("pin the worker");
        let mut fillers = Vec::new();
        'provoke: for _ in 0..100 {
            // Top up the queue; Busy here means it is already full.
            while fillers.len() < 64 {
                match handle.submit(Request::new(Function::Softmax, operand_ramp(fmt, 20_000))) {
                    Ok(ticket) => fillers.push(ticket),
                    Err(SubmitError::Busy { .. }) => break,
                    Err(e) => panic!("unexpected refusal while provoking BUSY: {e}"),
                }
            }
            let reply = client.call(Function::Sigmoid, &small, 0).expect("probe");
            if reply.status == Status::Busy {
                demo.busy_replies += 1;
                break 'provoke;
            }
        }
        assert!(demo.busy_replies >= 1, "BUSY provocation never fired");
        for ticket in fillers {
            let _ = ticket.wait();
        }
        let _ = pinned.wait();
        server.shutdown();
        engine.shutdown();
    }

    demo
}

/// Renders a loadgen row next to its in-process twin.
pub fn print_comparison(net: &LoadgenRow, inproc_ops_per_sec: f64) {
    println!("loopback serving plane vs in-process submission — same workload shape");
    println!(
        "{:>12} {:>14} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6}",
        "path", "ops/s", "p50 µs", "p99 µs", "ok", "busy", "shed", "quota"
    );
    println!(
        "{:>12} {:>14.0} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6}",
        "tcp",
        net.ops_per_sec,
        net.p50_us,
        net.p99_us,
        net.ok_replies,
        net.busy_replies,
        net.shed_replies,
        net.quota_replies
    );
    println!(
        "{:>12} {:>14.0} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6}",
        "in-process", inproc_ops_per_sec, "-", "-", "-", "-", "-", "-"
    );
    if inproc_ops_per_sec > 0.0 {
        println!(
            "wire efficiency: {:.1}% of in-process throughput",
            100.0 * net.ops_per_sec / inproc_ops_per_sec
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetWorkload {
        NetWorkload {
            clients: 2,
            requests_per_client: 16,
            operands_per_request: 8,
            pipeline_depth: 4,
            function: Function::Sigmoid,
        }
    }

    #[test]
    fn drive_answers_every_request_over_loopback() {
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(2)
                .with_queue_capacity(256),
        )
        .expect("paper config");
        let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
        let row = drive(server.addr(), engine.format(), tiny());
        assert_eq!(row.ok_replies, 32);
        assert_eq!(row.error_replies, 0);
        assert!(row.ops_per_sec > 0.0);
        assert!(row.p99_us >= row.p50_us);
        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut sample = vec![10, 20, 30, 40, 50];
        assert_eq!(percentile_us(&mut sample, 0.50), 30);
        assert_eq!(percentile_us(&mut sample, 0.99), 50);
        assert_eq!(percentile_us(&mut [], 0.99), 0);
    }

    #[test]
    fn admission_demo_provokes_all_three_refusals() {
        let demo = admission_demo();
        assert!(demo.busy_replies >= 1);
        assert!(demo.shed_replies >= 1);
        assert!(demo.quota_replies >= 1);
    }
}
