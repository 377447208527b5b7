//! The admission-controlled TCP serving plane.
//!
//! One accept thread guards the connection limit; each accepted socket
//! gets a reader thread (decode → admission → engine submit). Each reply
//! is written by the thread that completes its request:
//!
//! * the **reader** writes every reply of a healthy engine (no fault plan
//!   configured), which is threadless: it computes σ/tanh/exp and
//!   softmax, at every width, inside `submit`, so the ticket admission
//!   hands back already holds the result;
//! * the **engine worker** writes the replies of a harness engine (any
//!   fault plan configured), whose every request is pool-served, through
//!   a waker armed on the ticket that encodes and writes the reply when
//!   the worker completes it.
//!
//! No thread exists only to write replies, and no request crosses a
//! thread just to be answered. Control replies (BUSY/SHED/QUOTA/ERROR)
//! are written by the reader. The per-connection write half sits behind
//! a mutex so frames never interleave, and every accepted socket carries
//! a fixed [`WRITE_TIMEOUT`]: a write that makes no progress for that
//! long marks the connection dead, so a client that stops reading holds
//! a worker for at most one timeout. Pipelining is native: a client may
//! have many request ids in flight on one socket, replies carry the id
//! and arrive in completion order.
//!
//! Admission is layered, cheapest first:
//!
//! 1. **Protocol** — malformed frames get one ERROR(PROTOCOL) reply and
//!    the connection closes (the stream cannot be resynchronised).
//! 2. **Shutdown** — after [`NetServer::shutdown`], every further frame
//!    is answered ERROR(SHUTTING_DOWN).
//! 3. **Quota** — the per-client token bucket refuses with QUOTA.
//! 4. **Shed** — a request whose deadline budget is below the modeled
//!    hardware floor ([`modeled_batch_cycles`] at the paper clock) is
//!    refused with SHED before touching the queue; a deadline that
//!    expires while queued becomes SHED at completion.
//! 5. **Backpressure** — the engine's bounded queue refusing a push
//!    becomes a BUSY reply, never a dropped connection.
//!
//! Every admission outcome lands in the engine's `net_*` counters via
//! [`EngineHandle::live_metrics`], and each armed reply waker counts on
//! `async_wakers_registered`, so the `/metrics` scrape sees the network
//! plane with zero extra plumbing.

use std::collections::HashMap;
use std::future::{Future, IntoFuture};
use std::io::Write;
use std::net::{IpAddr, Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::{Duration, Instant};

use nacu_engine::report::{modeled_batch_cycles, PAPER_CLOCK_HZ};
use nacu_engine::{
    Counter, EngineHandle, EngineMetrics, Response, SubmitError, Ticket, TicketFuture, WaitError,
};

use crate::proto::{
    code, decode_request, encode_reply, max_request_payload, read_payload, ReadError, ReplyFrame,
    RequestFrame, Status,
};

/// How long one reply write may block on a full socket before the
/// connection is declared dead. Workers write the replies of harness
/// engines, so this bounds what a client that stops reading can take
/// from them (and, on a healthy engine, from its own reader).
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-client rate limit for the token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Sustained requests per second refilled into the bucket.
    pub rate_per_sec: f64,
    /// Maximum burst the bucket can hold.
    pub burst: f64,
}

/// Tunables for [`serve`]. `Default` is sized for loopback serving.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Concurrent connections served; further accepts are counted
    /// rejected and closed immediately.
    pub max_connections: usize,
    /// Operands accepted per request frame; larger frames are protocol
    /// errors (and their byte length bounds allocation up front).
    pub max_frame_ops: u32,
    /// Pool-served requests in flight per connection; the reader stops
    /// decoding (TCP backpressure) once this many replies are owed. Only
    /// harness engines (any fault plan configured) pool-serve: a healthy
    /// engine answers every request inside `submit`, and none counts.
    pub max_inflight_per_conn: usize,
    /// Per-client-IP token bucket; `None` disables quota enforcement.
    pub quota: Option<Quota>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame_ops: 1 << 16,
            max_inflight_per_conn: 64,
            quota: None,
        }
    }
}

/// A running network serving plane. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the listener; the engine keeps serving
/// in-process work either way.
#[derive(Debug)]
pub struct NetServer {
    addr: std::net::SocketAddr,
    plane: Arc<Plane>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl NetServer {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Connections still
    /// open keep their readers, but every request they decode after this
    /// point is answered ERROR(SHUTTING_DOWN); requests admitted before
    /// it are still answered as they complete.
    pub fn shutdown(&mut self) {
        self.plane.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the accept thread and every reader share.
#[derive(Debug)]
struct Plane {
    handle: EngineHandle,
    metrics: Arc<EngineMetrics>,
    config: NetConfig,
    buckets: Option<Buckets>,
    /// Set by [`NetServer::shutdown`].
    stop: AtomicBool,
}

/// Token buckets keyed by client IP, shared across connections.
#[derive(Debug)]
struct Buckets {
    quota: Quota,
    by_ip: Mutex<HashMap<IpAddr, Bucket>>,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled_at: Instant,
}

impl Buckets {
    fn admit(&self, ip: IpAddr) -> bool {
        let mut by_ip = self.by_ip.lock().expect("bucket lock");
        let now = Instant::now();
        let bucket = by_ip.entry(ip).or_insert(Bucket {
            tokens: self.quota.burst,
            refilled_at: now,
        });
        let elapsed = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.quota.rate_per_sec).min(self.quota.burst);
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One connection's write side plus its in-flight accounting. The
/// reader holds it for the replies it writes and for admission; each
/// armed [`ReplyWaker`] holds it for the reply a worker writes.
#[derive(Debug)]
struct Conn {
    /// Write half; every reply frame is written whole under this lock,
    /// so replies written by the reader and by workers never interleave.
    stream: Mutex<TcpStream>,
    /// Requests whose reply a worker will write, bounded by
    /// [`NetConfig::max_inflight_per_conn`].
    inflight: Mutex<usize>,
    /// Signals slot release (and death) to a reader blocked on the bound.
    room: Condvar,
    /// A write failed or timed out (or the peer died): stop decoding,
    /// drop replies.
    dead: AtomicBool,
}

impl Conn {
    fn new(write_half: TcpStream) -> Self {
        Self {
            stream: Mutex::new(write_half),
            inflight: Mutex::new(0),
            room: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// Writes one reply frame (counted even if the write then fails).
    /// On error — [`WRITE_TIMEOUT`] included — the connection is marked
    /// dead and both socket halves are shut down so a blocked
    /// reader unsticks.
    fn write_reply(&self, frame: &ReplyFrame, metrics: &EngineMetrics) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        metrics.add(Counter::NetFramesOut, 1);
        let failed = {
            let mut stream = self.stream.lock().expect("stream lock");
            stream
                .write_all(&encode_reply(frame))
                .and_then(|()| stream.flush())
                .is_err()
        };
        if failed {
            self.mark_dead();
        }
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self
            .stream
            .lock()
            .expect("stream lock")
            .shutdown(Shutdown::Both);
        // Wake a reader parked on the in-flight bound.
        drop(self.inflight.lock().expect("inflight lock"));
        self.room.notify_all();
    }

    /// Blocks until an in-flight slot frees up; `false` once dead.
    fn acquire_slot(&self, max_inflight: usize) -> bool {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        while *inflight >= max_inflight && !self.dead.load(Ordering::Acquire) {
            inflight = self.room.wait(inflight).expect("inflight lock");
        }
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        *inflight += 1;
        true
    }

    fn release_slot(&self) {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        *inflight = inflight.saturating_sub(1);
        drop(inflight);
        self.room.notify_all();
    }
}

/// Writes one pool-served request's reply on the thread that completes
/// it: armed on the ticket at admission, woken by the engine right after
/// the outcome is published.
struct ReplyWaker {
    client_id: u64,
    conn: Arc<Conn>,
    metrics: Arc<EngineMetrics>,
    /// The pending ticket. Locked across registration, so a completion
    /// that races it waits until the ticket is parked here.
    ticket: Mutex<Option<TicketFuture>>,
}

impl ReplyWaker {
    /// Arms a reply waker on `ticket`, or answers at once if the ticket
    /// completed before the waker could be registered.
    fn arm(ticket: Ticket, client_id: u64, conn: &Arc<Conn>, metrics: &Arc<EngineMetrics>) {
        let this = Arc::new(Self {
            client_id,
            conn: Arc::clone(conn),
            metrics: Arc::clone(metrics),
            ticket: Mutex::new(None),
        });
        let waker = Waker::from(Arc::clone(&this));
        let mut parked = this.ticket.lock().expect("ticket lock");
        let mut future = ticket.into_future();
        match Pin::new(&mut future).poll(&mut Context::from_waker(&waker)) {
            Poll::Ready(outcome) => {
                drop(parked);
                this.send(outcome);
            }
            Poll::Pending => {
                metrics.add(Counter::AsyncWakersRegistered, 1);
                *parked = Some(future);
            }
        }
    }

    fn send(&self, outcome: Result<Response, WaitError>) {
        let frame = completion_reply(self.client_id, outcome, &self.metrics);
        self.conn.write_reply(&frame, &self.metrics);
        self.conn.release_slot();
    }
}

impl Wake for ReplyWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let parked = self.ticket.lock().expect("ticket lock").take();
        // The engine wakes only after publishing the outcome, so the
        // claim cannot miss.
        if let Some(outcome) = parked.and_then(|future| future.into_inner().try_wait()) {
            self.send(outcome);
        }
    }
}

/// Starts the serving plane for `handle` on `addr`.
///
/// # Errors
///
/// The bind failure from [`TcpListener::bind`], or `InvalidInput` when
/// the engine's format is wider than the wire's 16-bit codes.
pub fn serve(
    handle: &EngineHandle,
    addr: impl ToSocketAddrs,
    config: NetConfig,
) -> std::io::Result<NetServer> {
    if handle.format().total_bits() > 16 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "wire codes are i16: engine formats wider than 16 bits are not servable",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let plane = Arc::new(Plane {
        handle: handle.clone(),
        metrics: handle.live_metrics(),
        buckets: config.quota.map(|quota| Buckets {
            quota,
            by_ip: Mutex::new(HashMap::new()),
        }),
        config,
        stop: AtomicBool::new(false),
    });
    let accept_thread = {
        let plane = Arc::clone(&plane);
        thread::Builder::new()
            .name("nacu-net-accept".into())
            .spawn(move || accept_loop(&listener, &plane))?
    };
    Ok(NetServer {
        addr,
        plane,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: &TcpListener, plane: &Arc<Plane>) {
    let live = Arc::new(AtomicUsize::new(0));
    let next_conn_id = AtomicU32::new(1);
    for stream in listener.incoming() {
        if plane.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if live.load(Ordering::Acquire) >= plane.config.max_connections {
            plane.metrics.add(Counter::NetConnectionsRejected, 1);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        plane.metrics.add(Counter::NetConnectionsAccepted, 1);
        live.fetch_add(1, Ordering::AcqRel);
        let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
        let plane = Arc::clone(plane);
        let conn_live = Arc::clone(&live);
        let spawned = thread::Builder::new()
            .name(format!("nacu-net-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(stream, conn_id, &plane);
                conn_live.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            live.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn serve_connection(stream: TcpStream, conn_id: u32, plane: &Plane) {
    // Socket options are shared by both halves of the clone below.
    let write_half = stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .and_then(|()| stream.try_clone());
    let Ok(write_half) = write_half else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let conn = Arc::new(Conn::new(write_half));
    read_loop(stream, conn_id, plane, &conn);
    // Replies still in flight are owned by their wakers, which hold the
    // write half through `conn` until they have written.
}

/// Decode → admission → submit, answering whatever completed inside
/// `submit` and blocking on the in-flight bound for the rest.
fn read_loop(stream: TcpStream, conn_id: u32, plane: &Plane, conn: &Arc<Conn>) {
    let metrics = &plane.metrics;
    let peer_ip = stream.peer_addr().map(|a| a.ip()).ok();
    let mut reader = std::io::BufReader::new(stream);
    let max_payload = max_request_payload(plane.config.max_frame_ops);
    loop {
        let payload = match read_payload(&mut reader, max_payload) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            Err(ReadError::Oversize { .. }) => {
                metrics.add(Counter::NetProtocolErrors, 1);
                conn.write_reply(
                    &ReplyFrame::control(Status::Error, code::PROTOCOL, 0),
                    metrics,
                );
                return;
            }
            Err(ReadError::TruncatedFrame { .. } | ReadError::Io(_)) => {
                // The stream died mid-frame: nothing to answer to.
                metrics.add(Counter::NetProtocolErrors, 1);
                return;
            }
        };
        let frame = match decode_request(&payload, plane.config.max_frame_ops) {
            Ok(frame) => frame,
            Err(_) => {
                metrics.add(Counter::NetProtocolErrors, 1);
                conn.write_reply(
                    &ReplyFrame::control(Status::Error, code::PROTOCOL, 0),
                    metrics,
                );
                return; // cannot resync a corrupt stream
            }
        };
        metrics.add(Counter::NetFramesIn, 1);
        match admit(frame, conn_id, plane, peer_ip) {
            Admission::Immediate(frame) => conn.write_reply(&frame, metrics),
            Admission::Submitted { client_id, ticket } => match ticket.try_wait() {
                // A healthy engine answered inside `submit`.
                Some(outcome) => {
                    conn.write_reply(&completion_reply(client_id, outcome, metrics), metrics);
                }
                None => {
                    if !conn.acquire_slot(plane.config.max_inflight_per_conn) {
                        return; // connection died while parked on the bound
                    }
                    ReplyWaker::arm(ticket, client_id, conn, metrics);
                }
            },
        }
        if conn.dead.load(Ordering::Acquire) {
            return;
        }
    }
}

enum Admission {
    /// Answered without touching the engine (or rejected by it).
    Immediate(ReplyFrame),
    /// Accepted by the engine; the ticket may already be resolved.
    Submitted { client_id: u64, ticket: Ticket },
}

fn admit(frame: RequestFrame, conn_id: u32, plane: &Plane, peer_ip: Option<IpAddr>) -> Admission {
    let client_id = frame.id;
    let metrics = &plane.metrics;
    if plane.stop.load(Ordering::Acquire) {
        return Admission::Immediate(ReplyFrame::control(
            Status::Error,
            code::SHUTTING_DOWN,
            client_id,
        ));
    }
    // Quota before any per-operand work: refusals must stay cheap.
    if let (Some(buckets), Some(ip)) = (plane.buckets.as_ref(), peer_ip) {
        if !buckets.admit(ip) {
            metrics.add(Counter::NetQuotaLimited, 1);
            return Admission::Immediate(ReplyFrame::control(Status::Quota, code::NONE, client_id));
        }
    }
    // Deadline shedding: refuse work the hardware model says cannot
    // finish in budget. `modeled_batch_cycles / PAPER_CLOCK_HZ` is the
    // floor a batch of this shape costs on one unit with zero queueing,
    // so any budget below it is deterministically unmeetable.
    let budget = (frame.deadline_micros > 0).then(|| Duration::from_micros(frame.deadline_micros));
    if let Some(budget) = budget {
        let floor_secs =
            modeled_batch_cycles(frame.function, frame.codes.len()) as f64 / PAPER_CLOCK_HZ;
        if budget.as_secs_f64() < floor_secs {
            metrics.add(Counter::NetRequestsShed, 1);
            return Admission::Immediate(ReplyFrame::control(Status::Shed, code::NONE, client_id));
        }
    }
    let operands = match frame.operands() {
        Ok(operands) => operands,
        Err(_) => {
            metrics.add(Counter::NetProtocolErrors, 1);
            return Admission::Immediate(ReplyFrame::control(
                Status::Error,
                code::PROTOCOL,
                client_id,
            ));
        }
    };
    let mut request = nacu_engine::Request::new(frame.function, operands).with_client(conn_id);
    if let Some(budget) = budget {
        request = request.with_deadline(Instant::now() + budget);
    }
    match plane.handle.submit(request) {
        Ok(ticket) => Admission::Submitted { client_id, ticket },
        Err(SubmitError::Busy { .. }) => {
            Admission::Immediate(ReplyFrame::control(Status::Busy, code::NONE, client_id))
        }
        Err(SubmitError::ShuttingDown) => Admission::Immediate(ReplyFrame::control(
            Status::Error,
            code::SHUTTING_DOWN,
            client_id,
        )),
        Err(SubmitError::Invalid(_)) => Admission::Immediate(ReplyFrame::control(
            Status::Error,
            code::INVALID_REQUEST,
            client_id,
        )),
    }
}

/// Maps one ticket outcome onto its wire reply.
fn completion_reply(
    client_id: u64,
    outcome: Result<Response, WaitError>,
    metrics: &EngineMetrics,
) -> ReplyFrame {
    match outcome {
        Ok(response) => ReplyFrame {
            status: Status::Ok,
            code: code::NONE,
            id: client_id,
            codes: response.outputs.iter().map(|fx| fx.raw() as i16).collect(),
        },
        Err(WaitError::DeadlineExpired) => {
            metrics.add(Counter::NetRequestsShed, 1);
            ReplyFrame::control(Status::Shed, code::NONE, client_id)
        }
        Err(WaitError::EngineShutDown) => {
            ReplyFrame::control(Status::Error, code::SHUTTING_DOWN, client_id)
        }
        Err(WaitError::FaultDetected { .. } | WaitError::NoHealthyWorkers) => {
            ReplyFrame::control(Status::Error, code::FAULT, client_id)
        }
        Err(WaitError::Timeout) => ReplyFrame::control(Status::Error, code::INTERNAL, client_id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_admits_burst_then_refuses() {
        let buckets = Buckets {
            quota: Quota {
                rate_per_sec: 0.0001, // effectively no refill inside a test
                burst: 3.0,
            },
            by_ip: Mutex::new(HashMap::new()),
        };
        let ip: IpAddr = "127.0.0.1".parse().unwrap();
        assert!(buckets.admit(ip));
        assert!(buckets.admit(ip));
        assert!(buckets.admit(ip));
        assert!(!buckets.admit(ip), "burst exhausted");
        let other: IpAddr = "10.0.0.1".parse().unwrap();
        assert!(buckets.admit(other), "buckets are per client");
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let buckets = Buckets {
            quota: Quota {
                rate_per_sec: 1_000_000.0,
                burst: 1.0,
            },
            by_ip: Mutex::new(HashMap::new()),
        };
        let ip: IpAddr = "127.0.0.1".parse().unwrap();
        assert!(buckets.admit(ip));
        thread::sleep(Duration::from_millis(2));
        assert!(buckets.admit(ip), "refilled after waiting");
    }

    #[test]
    fn default_config_is_sane() {
        let c = NetConfig::default();
        assert!(c.max_connections > 0);
        assert!(c.max_frame_ops > 0);
        assert!(c.max_inflight_per_conn > 0);
        assert!(c.quota.is_none());
    }
}
