//! The only module that calls into the program under test.
//!
//! Every other file of the benchmark works on plain integer codes
//! (`i32`, wide enough for the Q4.15 format) and on the small types
//! defined here, so an API change in `nacu`, `nacu-engine` or `nacu-net`
//! (a raw-code `Request`, a different executor seam) touches this file
//! alone. The public functions each per-layer metric times are listed
//! in `nacubench/METRICS.md`.

use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub use nacu::{Function, NacuConfig};
use nacu::{Nacu, ResponseTables};
use nacu_engine::executor::{table_executor, BatchExecutor, DatapathWalk};
use nacu_engine::{
    Engine, EngineConfig, EngineHandle, ExecutorSelect, HistogramSnapshot, MetricsSnapshot,
    ObsSnapshot, Request, Response, Stage, SubmitError, Ticket, WaitError,
};
use nacu_faults::CheckedNacu;
use nacu_fixed::{Fx, QFormat};
use nacu_net::proto::{max_reply_payload, read_payload_into, ReadError};
use nacu_net::{
    decode_reply, decode_request, encode_reply, encode_request, NetConfig, NetServer, ReplyFrame,
    RequestFrame, ServeNet, Status,
};
use nacu_obs::hist::{bucket_lower_bound, bucket_upper_bound};

/// The unit configuration of a workload: the paper's 16-bit Q4.11 unit,
/// or the §VII width sweep's unit for `width` bits.
pub fn config(width: Option<u32>) -> NacuConfig {
    match width {
        None => NacuConfig::paper_16bit(),
        Some(bits) => NacuConfig::for_width(bits).expect("sweep width is valid"),
    }
}

/// Lowest and highest raw code of the configuration's format.
pub fn code_range(config: &NacuConfig) -> (i64, i64) {
    (config.format.min_raw(), config.format.max_raw())
}

fn operands(codes: &[i32], format: QFormat) -> Vec<Fx> {
    codes
        .iter()
        .map(|&c| Fx::from_raw(i64::from(c), format).expect("generated codes fit the format"))
        .collect()
}

/// A sequential golden unit: the reference every reply is checked against.
pub struct Reference {
    nacu: Nacu,
}

impl Reference {
    pub fn new(config: NacuConfig) -> Self {
        Self {
            nacu: Nacu::new(config).expect("valid unit configuration"),
        }
    }

    /// Evaluates `function` over `codes` with `Nacu::{sigmoid, tanh, exp,
    /// softmax}`; softmax treats `codes` as one vector.
    pub fn compute(&self, function: Function, codes: &[i32]) -> Vec<i32> {
        let xs = operands(codes, self.nacu.config().format);
        let ys: Vec<Fx> = match function {
            Function::Sigmoid => xs.iter().map(|&x| self.nacu.sigmoid(x)).collect(),
            Function::Tanh => xs.iter().map(|&x| self.nacu.tanh(x)).collect(),
            Function::Exp => xs.iter().map(|&x| self.nacu.exp(x)).collect(),
            Function::Softmax => self.nacu.softmax(&xs).expect("non-empty, one format"),
            _ => unreachable!("only σ, tanh, exp and softmax are served"),
        };
        ys.iter().map(|y| y.raw() as i32).collect()
    }

    /// Times one `ResponseTables::build`, in seconds; wide formats get no
    /// tables, so the call returns at once.
    pub fn table_build_seconds(&self) -> f64 {
        let start = Instant::now();
        black_box(ResponseTables::build(black_box(&self.nacu)));
        start.elapsed().as_secs_f64()
    }

    /// Nanoseconds per operand of the executor the engine serves unary
    /// batches with at this format: the default table executor where the
    /// format has tables, the datapath walk where it has none.
    pub fn executor_ns_per_op(&self, batches: &[(Function, &[i32])]) -> f64 {
        let format = self.nacu.config().format;
        let tables = ResponseTables::build(&self.nacu);
        let unit = CheckedNacu::new(*self.nacu.config()).expect("valid unit configuration");
        let kind = ExecutorSelect::default().resolve();
        let mut elapsed = 0.0;
        let mut ops = 0usize;
        for &(function, codes) in batches {
            let mut xs = operands(codes, format);
            let start = Instant::now();
            match tables.as_ref().and_then(|t| t.get(function)) {
                Some(table) => table_executor(kind, table).execute(black_box(&mut xs)),
                None => DatapathWalk::new(&unit, function).execute(black_box(&mut xs)),
            }
            .expect("no fault plan is armed");
            elapsed += start.elapsed().as_secs_f64();
            black_box(&xs);
            ops += xs.len();
        }
        elapsed * 1e9 / ops.max(1) as f64
    }
}

/// A running engine, plus its TCP serving plane when the workload goes
/// over loopback.
pub struct Server {
    engine: Engine,
    net: Option<NetServer>,
}

impl Server {
    /// `Engine::new` with the default 2-worker pool, then `serve_net` on
    /// an ephemeral loopback port when `with_net` is set.
    pub fn start(config: NacuConfig, with_net: bool) -> Self {
        let engine = Engine::new(EngineConfig::new(config)).expect("valid unit configuration");
        let net = with_net.then(|| {
            engine
                .handle()
                .serve_net_with("127.0.0.1:0", NetConfig::default())
                .expect("bind a loopback port")
        });
        Self { engine, net }
    }

    pub fn client(&self) -> Client {
        Client {
            handle: self.engine.handle(),
            format: self.engine.format(),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.net.as_ref().expect("server has a TCP plane").addr()
    }

    pub fn counters(&self) -> Counters {
        Counters {
            metrics: self.engine.metrics(),
            obs: self.engine.obs_snapshot(),
        }
    }

    /// Stops the TCP plane, then drains and joins the engine.
    pub fn stop(mut self) {
        if let Some(mut net) = self.net.take() {
            net.shutdown();
        }
        self.engine.shutdown();
    }
}

/// Why a request produced no checked reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// BUSY, SHED, QUOTA or a `SubmitError`.
    Refused,
    /// An ERROR frame, a `WaitError` or a broken connection.
    Errored,
    /// A reply whose codes differ from the reference.
    Mismatched,
}

/// In-process submission through an `EngineHandle`.
#[derive(Clone)]
pub struct Client {
    handle: EngineHandle,
    format: QFormat,
}

/// One submitted in-process request.
pub struct Pending(Ticket);

impl Client {
    /// Builds the engine's `Request` for `codes`.
    pub fn request(&self, function: Function, codes: &[i32]) -> Request {
        Request::new(function, operands(codes, self.format))
    }

    /// `EngineHandle::submit`; every `SubmitError` is a refusal.
    pub fn submit(&self, request: Request) -> Result<Pending, Failure> {
        self.handle
            .submit(request)
            .map(Pending)
            .map_err(|_: SubmitError| Failure::Refused)
    }
}

impl Pending {
    /// `Ticket::wait`.
    pub fn wait(self) -> Result<Response, WaitError> {
        self.0.wait()
    }
}

/// Compares a waited-for response with the reference codes.
pub fn check(outcome: Result<Response, WaitError>, expect: &[i32]) -> Result<usize, Failure> {
    let response = outcome.map_err(|_| Failure::Errored)?;
    let same = response.outputs.len() == expect.len()
        && response
            .outputs
            .iter()
            .zip(expect)
            .all(|(y, &e)| y.raw() == i64::from(e));
    if same {
        Ok(expect.len())
    } else {
        Err(Failure::Mismatched)
    }
}

/// `encode_request` for one frame; codes are the wire's i16 codes.
pub fn encode(function: Function, config: &NacuConfig, id: u64, codes: &[i32]) -> Vec<u8> {
    encode_request(&RequestFrame {
        function,
        format: config.format,
        id,
        deadline_micros: 0,
        codes: codes.iter().map(|&c| c as i16).collect(),
    })
}

/// Connects one loopback client socket with Nagle off, split into its
/// sending and receiving halves.
pub fn connect(addr: SocketAddr) -> (TcpStream, ReplyReader) {
    let stream = TcpStream::connect(addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let receiving = stream.try_clone().expect("clone the client socket");
    // A reply that never comes ends the run with an error, not a hang.
    receiving
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set a read timeout");
    let reader = ReplyReader {
        reader: BufReader::new(receiving),
        buf: Vec::new(),
    };
    (stream, reader)
}

/// Writes one encoded frame.
pub fn send(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)
}

/// One decoded reply frame, reduced to what the benchmark checks.
pub struct Reply {
    pub id: u64,
    pub outcome: Result<Vec<i16>, Failure>,
}

/// The receiving half of a client socket.
pub struct ReplyReader {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl ReplyReader {
    /// `read_payload_into` for the next reply: `Ok(false)` at a clean end
    /// of stream.
    pub fn read(&mut self) -> Result<bool, ReadError> {
        Ok(
            read_payload_into(&mut self.reader, max_reply_payload(1 << 16), &mut self.buf)?
                .is_some(),
        )
    }

    /// `decode_reply` over the payload the last `read` returned.
    pub fn decode(&self) -> Option<Reply> {
        let ReplyFrame {
            status, id, codes, ..
        } = decode_reply(&self.buf).ok()?;
        let outcome = match status {
            Status::Ok => Ok(codes),
            Status::Busy | Status::Shed | Status::Quota => Err(Failure::Refused),
            Status::Error => Err(Failure::Errored),
        };
        Some(Reply { id, outcome })
    }
}

impl Reply {
    /// Compares the reply's codes with the reference codes.
    pub fn check(self, expect: &[i32]) -> Result<usize, Failure> {
        let codes = self.outcome?;
        if codes
            .iter()
            .map(|&c| i32::from(c))
            .eq(expect.iter().copied())
        {
            Ok(codes.len())
        } else {
            Err(Failure::Mismatched)
        }
    }
}

/// Nanoseconds per frame of the server's codec over the given frames:
/// `decode_request` on each request payload, and `encode_reply` on the
/// reply that answers it. Returns `(decode_ns, encode_ns)`.
pub fn codec_ns_per_frame(frames: &[Vec<u8>], rounds: usize) -> (f64, f64) {
    let decoded: Vec<RequestFrame> = frames
        .iter()
        .map(|f| decode_request(&f[4..], 1 << 16).expect("benchmark frames decode"))
        .collect();
    let replies: Vec<ReplyFrame> = decoded
        .iter()
        .map(|f| ReplyFrame {
            status: Status::Ok,
            code: 0,
            id: f.id,
            codes: f.codes.clone(),
        })
        .collect();
    let start = Instant::now();
    for _ in 0..rounds {
        for frame in frames {
            black_box(decode_request(black_box(&frame[4..]), 1 << 16).ok());
        }
    }
    let decode = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..rounds {
        for reply in &replies {
            black_box(encode_reply(black_box(reply)));
        }
    }
    let encode = start.elapsed().as_secs_f64();
    let n = (frames.len() * rounds).max(1) as f64;
    (decode * 1e9 / n, encode * 1e9 / n)
}

/// The engine's own counters and stage histograms at one instant.
pub struct Counters {
    metrics: MetricsSnapshot,
    obs: ObsSnapshot,
}

/// Engine and net-plane readings over an interval, from `MetricsSnapshot`
/// and the `Obs` stage histograms.
pub struct EngineLayers {
    pub queue_wait_us_p50: f64,
    pub batch_service_us_p50: f64,
    pub end_to_end_us_p50: f64,
    pub ops_per_batch: f64,
    pub fast_path_share: f64,
    pub busy_rejections: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub refused: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> EngineLayers {
        let m = self.metrics.since(&earlier.metrics);
        let obs = self.obs.since(&earlier.obs);
        let p50_us = |stage| quantile(&obs.stage_merged(stage), 0.5) / 1e3;
        // Softmax elements count on both sides: with tables, the pool
        // draws softmax's exp stage from them and counts it as fast path.
        let ops = m.total_ops();
        EngineLayers {
            queue_wait_us_p50: p50_us(Stage::QueueWait),
            batch_service_us_p50: p50_us(Stage::BatchService),
            end_to_end_us_p50: p50_us(Stage::EndToEnd),
            ops_per_batch: ops as f64 / m.batches_executed.max(1) as f64,
            fast_path_share: m.fast_path_ops as f64 / ops.max(1) as f64,
            busy_rejections: m.busy_rejections,
            frames_in: m.net_frames_in,
            frames_out: m.net_frames_out,
            refused: m.net_requests_shed + m.net_quota_limited,
        }
    }
}

/// Quantile of a log-bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (the histogram's own `quantile` returns the
/// bucket bound, which moves in 6% steps).
fn quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q * h.count as f64;
    let mut seen = 0.0;
    for (index, &count) in h.counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let next = seen + count as f64;
        if next >= rank {
            let lo = bucket_lower_bound(index) as f64;
            let hi = (bucket_upper_bound(index) as f64).min(h.max as f64).max(lo);
            return lo + (hi - lo) * ((rank - seen) / count as f64);
        }
        seen = next;
    }
    h.max as f64
}
