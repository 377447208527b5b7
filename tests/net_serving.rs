//! End-to-end acceptance for the network serving plane: pipelined TCP
//! clients get bit-identical outputs to the sequential [`Nacu`] unit,
//! every admission refusal is a typed frame on a surviving connection,
//! and the `net_*` counters land in both `/metrics` wire formats.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nacu::{Function, Nacu, NacuConfig};
use nacu_bench::http_get;
use nacu_engine::{Engine, EngineConfig, FaultTolerance, Request, SubmitError, TraceKind};
use nacu_fixed::{Fx, QFormat, Rounding};
use nacu_net::{NetClient, ServeNet, Status};

const WIRE_FUNCTIONS: [Function; 4] = [
    Function::Sigmoid,
    Function::Tanh,
    Function::Exp,
    Function::Softmax,
];

fn engine() -> Engine {
    Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256),
    )
    .expect("paper config")
}

/// Distinct per-client operand ramps so every request has its own golden
/// answer. Exp operands stay ≤ 0, the normalised domain of Eq. 12.
fn operands_for(fmt: QFormat, function: Function, client: usize, n: usize) -> Vec<Fx> {
    (0..n)
        .map(|i| {
            let t = (i as f64) / (n.max(2) - 1) as f64;
            let v = match function {
                Function::Exp => -8.0 * t - 0.01 * client as f64,
                _ => -6.0 + 12.0 * t + 0.05 * client as f64,
            };
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect()
}

fn golden_outputs(golden: &Nacu, function: Function, operands: &[Fx]) -> Vec<Fx> {
    match function {
        Function::Sigmoid => operands.iter().map(|&x| golden.sigmoid(x)).collect(),
        Function::Tanh => operands.iter().map(|&x| golden.tanh(x)).collect(),
        Function::Exp => operands.iter().map(|&x| golden.exp(x)).collect(),
        Function::Softmax => golden.softmax(operands).expect("golden softmax"),
        _ => unreachable!("not a wire function"),
    }
}

/// N pipelined TCP clients, mixed unary and softmax batches: every wire
/// output matches the sequential unit bit for bit, matched by request id
/// out of completion order.
#[test]
fn pipelined_clients_match_sequential_golden_bit_for_bit() {
    let engine = engine();
    let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let addr = server.addr();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client_idx| {
                scope.spawn(move || {
                    let golden = Nacu::new(NacuConfig::paper_16bit()).expect("golden unit");
                    let mut client = NetClient::connect(addr).expect("connect");
                    // Pipeline 3 rounds of all four functions before
                    // reading a single reply.
                    let mut inflight = HashMap::new();
                    for round in 0..3 {
                        for function in WIRE_FUNCTIONS {
                            let operands = operands_for(fmt, function, client_idx, 16 + 4 * round);
                            let id = client.send(function, &operands, 0).expect("send");
                            inflight.insert(id, (function, operands));
                        }
                    }
                    for _ in 0..inflight.len() {
                        let reply = client.recv().expect("recv");
                        let (function, operands) =
                            inflight.remove(&reply.id).expect("reply echoes a known id");
                        assert_eq!(reply.status, Status::Ok, "{function:?}");
                        let outputs = reply.outputs(fmt).expect("decodable outputs");
                        assert_eq!(
                            outputs,
                            golden_outputs(&golden, function, &operands),
                            "client {client_idx} {function:?} diverged from the sequential unit"
                        );
                    }
                    assert!(inflight.is_empty());
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    // The flight recorder tied those submissions to their connections.
    let conns: std::collections::HashSet<u32> = engine
        .obs()
        .drain_trace(usize::MAX)
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceKind::Submit { conn, .. } if conn != 0 => Some(conn),
            _ => None,
        })
        .collect();
    assert_eq!(conns.len(), 4, "one connection id per client in the trace");

    server.shutdown();
    engine.shutdown();
}

/// 256 concurrent pipelined connections: every socket keeps several
/// requests in flight at once, each reply is written by the connection's
/// own reader — no thread exists just to write replies — and every
/// output stays bit-identical to the sequential unit.
#[test]
fn two_hundred_fifty_six_connections_reply_from_their_readers() {
    const CONNS: usize = 256;
    const PIPELINED: usize = 4;

    // Queue sized for the full in-flight load (CONNS × PIPELINED): this
    // test is about the reply plane, so admission must never say BUSY.
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(2 * CONNS * PIPELINED),
    )
    .expect("paper config");
    let mut server = engine
        .handle()
        .serve_net_with(
            "127.0.0.1:0",
            nacu_net::NetConfig {
                max_connections: CONNS + 8,
                ..nacu_net::NetConfig::default()
            },
        )
        .expect("bind");
    let fmt = engine.format();
    let addr = server.addr();
    let golden = Nacu::new(NacuConfig::paper_16bit()).expect("golden unit");

    // Phase 1: open every connection and pipeline its whole batch
    // before reading a single reply — all 256 sockets have work in
    // flight simultaneously.
    let mut clients: Vec<(NetClient, HashMap<u64, Vec<Fx>>)> = Vec::with_capacity(CONNS);
    for conn_idx in 0..CONNS {
        let mut client = NetClient::connect(addr).expect("connect");
        let mut inflight = HashMap::new();
        for round in 0..PIPELINED {
            let operands = operands_for(fmt, Function::Sigmoid, conn_idx, 8 + round);
            let id = client.send(Function::Sigmoid, &operands, 0).expect("send");
            inflight.insert(id, operands);
        }
        clients.push((client, inflight));
    }

    // Phase 2: drain every socket and check outputs bit-for-bit.
    for (client, inflight) in &mut clients {
        for _ in 0..PIPELINED {
            let reply = client.recv().expect("recv");
            assert_eq!(reply.status, Status::Ok);
            let operands = inflight.remove(&reply.id).expect("known id");
            assert_eq!(
                reply.outputs(fmt).expect("decodable outputs"),
                golden_outputs(&golden, Function::Sigmoid, &operands),
                "pipelined reply diverged from the sequential unit"
            );
        }
        assert!(inflight.is_empty());
    }

    // σ is table-served: `submit` answered every request before
    // returning, so no request entered the queue, no reply waker was
    // armed, and the only net threads are the acceptor and the readers.
    let snapshot = engine.metrics();
    assert_eq!(snapshot.requests_completed, (CONNS * PIPELINED) as u64);
    assert_eq!(snapshot.queue_depth_high_water, 0, "σ never queues");
    assert_eq!(snapshot.async_wakers_registered, 0, "no reply waited");
    if let Some(names) = thread_names() {
        let net: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("nacu-net-"))
            .collect();
        assert!(
            net.iter()
                .all(|n| n.starts_with("nacu-net-conn") || n.as_str() == "nacu-net-accept"),
            "a net thread that is neither acceptor nor reader: {net:?}"
        );
    }

    server.shutdown();
    engine.shutdown();
}

/// This process's thread names, where the OS lists them (Linux).
fn thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect(),
    )
}

/// After `NetServer::shutdown`, a connection that is still open gets
/// ERROR(SHUTTING_DOWN) for its next request — table-served or not —
/// and stays open to hear it.
#[test]
fn requests_after_net_shutdown_answer_shutting_down() {
    let engine = engine();
    let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let small = operands_for(fmt, Function::Sigmoid, 0, 8);
    assert_eq!(
        client
            .call(Function::Sigmoid, &small, 0)
            .expect("ok")
            .status,
        Status::Ok
    );

    server.shutdown();
    for function in [Function::Sigmoid, Function::Softmax] {
        let reply = client
            .call(function, &small, 0)
            .expect("reply after shutdown");
        assert_eq!(reply.status, Status::Error, "{function:?}");
        assert_eq!(reply.code, nacu_net::code::SHUTTING_DOWN, "{function:?}");
        assert!(reply.codes.is_empty(), "a control frame");
    }
    // The engine itself still serves in-process work.
    engine
        .submit(Request::new(Function::Sigmoid, small))
        .expect("in-process submit")
        .wait()
        .expect("served");
    engine.shutdown();
}

/// A client that pipelines large softmax frames and never reads its
/// replies cannot hold an engine worker: the reply write times out, the
/// connection is closed, and pool-served in-process work completes.
#[test]
fn a_client_that_never_reads_cannot_hold_a_worker() {
    // A clean harness, so replies are written by pool workers: a healthy
    // engine would answer on the reader and never involve a worker.
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256)
            .with_fault_tolerance(FaultTolerance::clean_harness(2)),
    )
    .expect("paper config");
    let server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let big = operands_for(fmt, Function::Softmax, 0, 16_384);
    let frame = nacu_net::encode_request(&nacu_net::RequestFrame {
        function: Function::Softmax,
        format: fmt,
        id: 1,
        deadline_micros: 0,
        codes: big.iter().map(|x| x.raw() as i16).collect(),
    });
    let mut stalled = TcpStream::connect(server.addr()).expect("connect");
    let mut sending = stalled.try_clone().expect("clone socket");
    // Far more replies than loopback buffers hold: the workers' writes
    // block, and only the server closing the connection fails a send.
    let (closed_tx, closed_rx) = std::sync::mpsc::channel();
    let sender = std::thread::spawn(move || {
        let closed = (0..4096).any(|_| sending.write_all(&frame).is_err());
        let _ = closed_tx.send(closed);
    });

    // Pool-served in-process work keeps completing while the stall lasts
    // and after it ends.
    let handle = engine.handle();
    let probe = operands_for(fmt, Function::Softmax, 1, 64);
    let serve_probe = || {
        handle
            .submit(Request::new(Function::Softmax, probe.clone()))
            .map_err(|e| format!("in-process submit refused: {e}"))?
            .wait_timeout(Duration::from_secs(30))
            .map(|response| assert_eq!(response.outputs.len(), 64))
            .map_err(|e| format!("pool-served work stalled behind the client: {e}"))
    };
    let started = std::time::Instant::now();
    let outcome = loop {
        if let Err(why) = serve_probe() {
            break Err(why);
        }
        match closed_rx.try_recv() {
            Ok(true) => break serve_probe(),
            Ok(false) => break Err("the server never closed the stalled connection".into()),
            Err(_) if started.elapsed() > Duration::from_secs(60) => {
                break Err("the stalled connection stayed open".into());
            }
            Err(_) => {}
        }
    };
    if let Err(why) = outcome {
        // Dropping the engine would join a worker stuck in a write.
        std::mem::forget(server);
        std::mem::forget(engine);
        panic!("{why}");
    }

    // The client side sees the close too: reading drains whatever the
    // kernel buffered, then hits end of stream or a reset.
    stalled
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "the connection is still open"
                );
                break;
            }
        }
    }
    sender.join().expect("sender thread");
    drop(server);
    engine.shutdown();
}

/// A full engine queue answers with a typed BUSY frame — and the
/// connection survives to serve the retry.
#[test]
fn queue_full_answers_busy_frame_on_a_surviving_connection() {
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
    let small = operands_for(fmt, Function::Sigmoid, 0, 8);

    // Pin the single worker on a long datapath softmax, then keep the
    // one-slot queue topped up in-process until a wire request bounces.
    let pinned = handle
        .submit(Request::new(
            Function::Softmax,
            operands_for(fmt, Function::Tanh, 0, 200_000),
        ))
        .expect("pin the worker");
    let mut fillers = Vec::new();
    let mut busy = None;
    'provoke: for _ in 0..100 {
        while fillers.len() < 64 {
            match handle.submit(Request::new(
                Function::Softmax,
                operands_for(fmt, Function::Tanh, 0, 20_000),
            )) {
                Ok(ticket) => fillers.push(ticket),
                Err(SubmitError::Busy { .. }) => break,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        let reply = client.call(Function::Sigmoid, &small, 0).expect("probe");
        match reply.status {
            Status::Busy => {
                assert_eq!(reply.codes.len(), 0, "BUSY is a control frame");
                busy = Some(reply);
                break 'provoke;
            }
            Status::Ok => {} // queue drained between top-up and probe; retry
            other => panic!("unexpected status {other:?}"),
        }
    }
    let busy = busy.expect("queue-full wire request answered BUSY");
    assert_eq!(busy.status, Status::Busy);

    for ticket in fillers {
        let _ = ticket.wait();
    }
    let _ = pinned.wait();

    // Same socket, after the backlog drains: served normally.
    let reply = client.call(Function::Sigmoid, &small, 0).expect("retry");
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.codes.len(), 8);

    server.shutdown();
    engine.shutdown();
}

/// A deadline below the modeled hardware floor is refused with a typed
/// SHED frame before enqueueing; the connection keeps serving.
#[test]
fn unmeetable_deadline_answers_shed_frame() {
    let engine = engine();
    let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let mut client = NetClient::connect(server.addr()).expect("connect");

    let big = operands_for(fmt, Function::Softmax, 0, 4096);
    let reply = client.call(Function::Softmax, &big, 1).expect("shed call");
    assert_eq!(reply.status, Status::Shed);
    assert_eq!(reply.codes.len(), 0, "SHED is a control frame");

    // Generous deadlines pass; the connection is unharmed.
    let reply = client
        .call(Function::Softmax, &big, 5_000_000)
        .expect("generous deadline");
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.codes.len(), 4096);

    assert!(engine.metrics().net_requests_shed >= 1);
    server.shutdown();
    engine.shutdown();
}

const NET_COUNTERS: [&str; 7] = [
    "nacu_net_connections_accepted_total",
    "nacu_net_connections_rejected_total",
    "nacu_net_frames_in_total",
    "nacu_net_frames_out_total",
    "nacu_net_requests_shed_total",
    "nacu_net_quota_limited_total",
    "nacu_net_protocol_errors_total",
];

fn prom_value(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
        .trim()
        .parse()
        .expect("integer counter")
}

/// The wire plane's counters are visible — with the pinned names — in
/// both `/metrics` formats served by the observability scrape server.
#[test]
fn net_counters_land_in_both_metrics_wire_formats() {
    let engine = engine();
    let mut net = engine.handle().serve_net("127.0.0.1:0").expect("bind net");
    let obs = engine.handle().serve_obs("127.0.0.1:0").expect("bind obs");
    let fmt = engine.format();

    // Leave fingerprints on several counters: two served frames, one
    // shed, one protocol error.
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let small = operands_for(fmt, Function::Sigmoid, 0, 8);
    assert_eq!(
        client
            .call(Function::Sigmoid, &small, 0)
            .expect("ok")
            .status,
        Status::Ok
    );
    assert_eq!(
        client
            .call(
                Function::Softmax,
                &operands_for(fmt, Function::Softmax, 0, 4096),
                1
            )
            .expect("shed")
            .status,
        Status::Shed
    );
    let mut hostile = NetClient::connect(net.addr()).expect("hostile");
    hostile
        .send_raw(b"\x08\x00\x00\x00NOTNACU!")
        .expect("garbage");
    assert_eq!(hostile.recv().expect("typed error").status, Status::Error);
    // The error frame is the last wire write; once it is readable the
    // counters below are already recorded.
    std::thread::sleep(Duration::from_millis(50));

    let (status, prom) = http_get(obs.local_addr(), "/metrics").expect("scrape /metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    for name in NET_COUNTERS {
        assert!(
            prom.contains(&format!("{name} ")),
            "{name} missing:\n{prom}"
        );
    }
    assert!(prom_value(&prom, "nacu_net_connections_accepted_total") >= 2);
    assert!(prom_value(&prom, "nacu_net_frames_in_total") >= 2);
    assert!(prom_value(&prom, "nacu_net_frames_out_total") >= 3);
    assert!(prom_value(&prom, "nacu_net_requests_shed_total") >= 1);
    assert!(prom_value(&prom, "nacu_net_protocol_errors_total") >= 1);

    let (status, json) = http_get(obs.local_addr(), "/metrics.json").expect("scrape /metrics.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    for name in NET_COUNTERS {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "{name} missing:\n{json}"
        );
    }

    drop(obs);
    net.shutdown();
    engine.shutdown();
}
