//! **nacu-engine** — a batched, multi-unit inference engine over the
//! bit-accurate NACU model.
//!
//! The paper positions NACU as the shared non-linear unit of a fabric
//! serving "any mix of ANNs and SNNs": a functional unit the datapath
//! calls in line, not a server behind a queue. This crate models the
//! serving side of that fabric, built only on `std`, with one rule —
//! an engine configured with no fault plan is healthy, and a healthy
//! engine is threadless:
//!
//! ```text
//! healthy    clients ──submit──▶ table gather / integer kernel ──▶ ready ticket
//!            (no fault plan)     (on the calling thread)
//!
//! harness    clients ──submit──▶ bounded queue ──coalesce──▶ walking NACU pool ──▶ ticket
//!            (any fault plan)         │                        │
//!                              Busy (backpressure)     per-worker CheckedNacu
//! ```
//!
//! * A **healthy** engine ([`FaultTolerance::plans`] empty, the default)
//!   serves every [`Request`] (σ/tanh/exp batch or softmax vector) inside
//!   [`Engine::submit`], on the calling thread — from the response tables
//!   or the integer kernel — and returns a [`Ticket`] that already holds
//!   the result. It builds its tables and nothing else: no queue, no
//!   health flags, no worker threads, and its responses carry
//!   [`Response::INLINE`] as worker.
//! * Any fault plan, all-empty ones included
//!   ([`FaultTolerance::clean_harness`]), makes the **walking fault
//!   harness**. It pushes each request into a **bounded** queue; a full
//!   queue answers [`SubmitError::Busy`] instead of growing without
//!   limit. Workers pop *runs* of same-function scalar requests and fuse
//!   them into one pipelined hardware batch, paying the Table I fill
//!   latency once (see [`report::modeled_batch_cycles`]). Every worker
//!   owns a private checked [`Nacu`] built from the shared
//!   [`NacuConfig`] and walks it, with the fault detectors on its nets.
//! * Unit construction is deterministic, and the kernel and tables are
//!   proven equal to the walk, so both paths are **bit-identical** to the
//!   sequential datapath.
//! * [`Engine::metrics`] snapshots live counters without stopping
//!   anything; [`Engine::report_since`] converts an interval into a
//!   [`ThroughputReport`] of software ops/s next to modeled hardware
//!   cycles.
//! * Both paths shadow-sample served operands against an `f64` reference
//!   (Eq. 7 / Eq. 16 drift monitoring, see [`HealthConfig`]), and
//!   [`EngineHandle::serve_obs`] exposes everything over a std-only
//!   HTTP scrape server (`/metrics`, `/metrics.json`, `/health`,
//!   `/trace`).
//!
//! # Example
//!
//! ```
//! use nacu::{Function, NacuConfig};
//! use nacu_engine::{Engine, EngineConfig, Request, Response};
//! use nacu_fixed::{Fx, Rounding};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::new(EngineConfig::new(NacuConfig::paper_16bit()))?;
//! let fmt = engine.format();
//! let xs: Vec<Fx> = (-3..=3)
//!     .map(|i| Fx::from_f64(f64::from(i) * 0.5, fmt, Rounding::Nearest))
//!     .collect();
//! let ticket = engine.submit(Request::new(Function::Sigmoid, xs.clone()))?;
//! let response = ticket.wait()?;
//! assert_eq!(response.outputs.len(), xs.len());
//! assert_eq!(response.worker, Response::INLINE, "computed inside submit");
//! assert_eq!(engine.workers(), 0, "a healthy engine starts no thread");
//! engine.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod executor;
pub mod metrics;
pub mod queue;
pub mod report;
pub mod wake;

mod pool;

use std::sync::Arc;
use std::task::{Poll, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nacu::{Function, Nacu, NacuConfig, NacuError, ResponseTables};
use nacu_fixed::QFormat;
use nacu_obs::Obs;

pub use batch::{Request, RequestError, Response};
pub use executor::{BatchExecutor, ExecutorKind, ExecutorSelect};
pub use metrics::{Counter, EngineMetrics, MetricsSnapshot};
pub use report::{LatencySummary, ThroughputReport, WindowLine, PAPER_CLOCK_HZ};
pub use wake::{Completer, TicketFuture};
// Re-exported so engine clients can build fault policies without naming
// nacu-faults directly.
pub use nacu_faults::{DetectorSet, Fault, FaultEvent, FaultKind, FaultPlan, InjectionSite};

use pool::{Books, Harness, Inline, Job};
use queue::{BoundedQueue, PushError};

// The record/replay surface is re-exported so engine clients can drain
// and replay traces without naming nacu-replay directly.
pub use nacu_replay::{Recorder, TraceLog, TraceRecord, NO_RECORD_SLOT};

/// Fault-handling policy: detectors, retry budget, BIST cadence, and —
/// for tests and campaigns — per-worker fault plans.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTolerance {
    /// Times one request may be requeued after a detector fires before
    /// the client gets [`WaitError::FaultDetected`].
    pub max_retries: u32,
    /// Run [`nacu_faults::CheckedNacu::scrub`] every this many served
    /// batches per worker (0 disables the periodic scrub).
    pub scrub_every_batches: u64,
    /// Detectors every worker arms.
    pub detectors: DetectorSet,
    /// Fault plan for worker *i* (`plans[i]`); missing slots are clean.
    ///
    /// This list decides how the engine serves. Empty — the default, and
    /// production — makes a healthy engine that computes every request
    /// inline, with no queue and no worker threads. Any plan at all,
    /// all-empty ones included (see [`FaultTolerance::clean_harness`]),
    /// makes the walking fault harness, so tests and the fault campaign
    /// can exercise the pool or break specific units on purpose.
    pub plans: Vec<FaultPlan>,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        Self {
            max_retries: 2,
            scrub_every_batches: 0,
            detectors: DetectorSet::all(),
            plans: Vec::new(),
        }
    }
}

impl FaultTolerance {
    /// The default policy with `workers` empty plans: a harness engine
    /// whose pool walks the checked datapath with no fault armed. Pair it
    /// with [`EngineConfig::with_workers`] for the pool width.
    #[must_use]
    pub fn clean_harness(workers: usize) -> Self {
        Self {
            plans: vec![FaultPlan::new(); workers.max(1)],
            ..Self::default()
        }
    }

    /// The plan for one worker slot (clean when unspecified).
    #[must_use]
    pub fn plan_for(&self, worker: usize) -> FaultPlan {
        self.plans.get(worker).cloned().unwrap_or_default()
    }
}

/// Engine sizing and policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Configuration the engine's NACU units are built from.
    pub nacu: NacuConfig,
    /// Harness worker threads (= NACU shards). Clamped to ≥ 1. A healthy
    /// engine (no fault plan) starts none and ignores this.
    pub workers: usize,
    /// Harness submission-queue capacity in *requests*. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Most requests one harness worker fuses into a single hardware
    /// batch.
    pub max_coalesced_requests: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Fault detection, quarantine and retry policy.
    pub fault_tolerance: FaultTolerance,
    /// Shadow-reference sampling interval for the numerical-health
    /// monitor: the engine recomputes roughly 1 in this many served
    /// operands in `f64` and checks the error against the paper's Eq. 7
    /// bound (0 disables sampling entirely).
    pub health_sample_every: u64,
    /// Capacity (in in-flight records) of the trace recorder, 0 to run
    /// unrecorded (the default). With a capacity set, the engine taps its
    /// submit and reply paths into a bounded, drop-counted
    /// [`nacu_replay::Recorder`]: operands are captured at submission
    /// (before the inline path can overwrite them in place), responses at
    /// reply, and [`EngineHandle::recorder`] drains the completed records
    /// as a [`nacu_replay::TraceLog`]. Only engages for formats whose
    /// codes fit the log's i16 fields (≤ 16 bits); wider engines run
    /// unrecorded, the same eligibility rule as the net wire plane.
    pub record_capacity: usize,
    /// Windowed-telemetry sampling cadence, `None` to run without the
    /// sampler thread (the default). With an interval set, a background
    /// thread snapshots the engine's histograms and counters into a
    /// bounded [`nacu_obs::TelemetrySeries`] every tick, re-evaluates the
    /// configured SLOs, and exposes the rolling windows via
    /// [`EngineHandle::telemetry`] and the scrape server (`/slo`,
    /// windowed sections in both `/metrics` formats).
    pub telemetry_interval: Option<Duration>,
    /// SLO objectives the sampler judges each tick (see
    /// [`nacu_obs::SloSpec`]); ignored without a telemetry interval.
    pub slos: Vec<SloSpec>,
}

impl EngineConfig {
    /// Defaults: 2 workers, 256-deep queue, 32-request coalescing, no
    /// default deadline.
    #[must_use]
    pub fn new(nacu: NacuConfig) -> Self {
        Self {
            nacu,
            workers: 2,
            queue_capacity: 256,
            max_coalesced_requests: 32,
            default_deadline: None,
            fault_tolerance: FaultTolerance::default(),
            health_sample_every: nacu_obs::DEFAULT_SAMPLE_EVERY,
            record_capacity: 0,
            telemetry_interval: None,
            slos: Vec::new(),
        }
    }

    /// Sets the worker (shard) count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the submission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the per-batch request coalescing limit.
    #[must_use]
    pub fn with_max_coalesced_requests(mut self, max: usize) -> Self {
        self.max_coalesced_requests = max.max(1);
        self
    }

    /// Sets the default deadline for requests without one.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Sets the fault detection/quarantine/retry policy.
    #[must_use]
    pub fn with_fault_tolerance(mut self, fault_tolerance: FaultTolerance) -> Self {
        self.fault_tolerance = fault_tolerance;
        self
    }

    /// Sets the numerical-health shadow-sampling interval (0 disables).
    #[must_use]
    pub fn with_health_sampling(mut self, every: u64) -> Self {
        self.health_sample_every = every;
        self
    }

    /// Enables trace recording with a ring of `capacity` in-flight
    /// records (0 disables; see [`EngineConfig::record_capacity`]).
    #[must_use]
    pub fn with_recording(mut self, capacity: usize) -> Self {
        self.record_capacity = capacity;
        self
    }

    /// Enables the windowed-telemetry sampler at `interval` (see
    /// [`EngineConfig::telemetry_interval`]).
    #[must_use]
    pub fn with_telemetry(mut self, interval: Duration) -> Self {
        self.telemetry_interval = Some(interval);
        self
    }

    /// Sets the SLO objectives the sampler judges each tick.
    #[must_use]
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }
}

/// Why a submission was refused at the queue, before any work happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — explicit backpressure. Shed load or
    /// retry later; nothing was enqueued.
    Busy {
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// The request can never be served (caller bug).
    Invalid(InvalidRequest),
}

/// Requests the engine rejects regardless of load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidRequest {
    /// [`Function::Mac`] is stateful and not servable as a batch request.
    UnsupportedFunction(Function),
    /// A request must carry at least one operand.
    EmptyOperands,
    /// An operand's format differs from the engine's configured format.
    FormatMismatch {
        /// The engine's datapath format.
        expected: QFormat,
        /// The offending operand's format.
        got: QFormat,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Busy { capacity } => {
                write!(f, "engine busy: submission queue at capacity {capacity}")
            }
            Self::ShuttingDown => write!(f, "engine is shutting down"),
            Self::Invalid(reason) => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::fmt::Display for InvalidRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedFunction(function) => {
                write!(f, "{function} is not servable through the engine")
            }
            Self::EmptyOperands => write!(f, "request carries no operands"),
            Self::FormatMismatch { expected, got } => {
                write!(
                    f,
                    "operand format {got} does not match engine format {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why waiting on a [`Ticket`] produced no [`Response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The request expired before a worker reached it.
    DeadlineExpired,
    /// The engine shut down before serving the request.
    EngineShutDown,
    /// [`Ticket::wait_timeout`] gave up waiting (the request may still
    /// complete later; the ticket is consumed).
    Timeout,
    /// Every serving attempt (1 + retries) hit a unit whose detectors
    /// fired; no possibly-corrupt output was ever sent.
    FaultDetected {
        /// The detector event from the final attempt.
        event: FaultEvent,
        /// Serving attempts made.
        attempts: u32,
    },
    /// A fault was detected and the whole pool is quarantined.
    NoHealthyWorkers,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExpired => write!(f, "request deadline expired"),
            Self::EngineShutDown => write!(f, "engine shut down before answering"),
            Self::Timeout => write!(f, "timed out waiting for the response"),
            Self::FaultDetected { event, attempts } => {
                write!(f, "fault detected on every attempt ({attempts}): {event}")
            }
            Self::NoHealthyWorkers => {
                write!(
                    f,
                    "all workers are quarantined; no healthy unit to retry on"
                )
            }
        }
    }
}

impl std::error::Error for WaitError {}

impl From<RequestError> for WaitError {
    fn from(e: RequestError) -> Self {
        match e {
            RequestError::DeadlineExpired => Self::DeadlineExpired,
            RequestError::EngineShutDown => Self::EngineShutDown,
            RequestError::FaultDetected { event, attempts } => {
                Self::FaultDetected { event, attempts }
            }
            RequestError::NoHealthyWorkers => Self::NoHealthyWorkers,
        }
    }
}

/// A claim on one request's response.
///
/// A healthy engine computes the request inside [`EngineHandle::submit`],
/// so its ticket already holds the result: [`Ticket::wait`],
/// [`Ticket::try_wait`] and `.await` return it without parking or
/// allocating. A harness engine's ticket waits on a one-shot completion
/// slot (see [`wake`]) that its pool worker fills, consumed in one of
/// three shapes: blocking ([`Ticket::wait`] / [`Ticket::wait_timeout`],
/// thin wrappers over [`wake::block_on`]), polling ([`Ticket::try_wait`]),
/// and asynchronous — `Ticket` implements [`std::future::IntoFuture`], so
/// `ticket.await` works under any executor, and the waker it registers
/// runs on whichever thread completes the request.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) outcome: Outcome,
    pub(crate) req: u64,
}

/// Where a ticket's result lives.
pub(crate) enum Outcome {
    /// Computed inside `submit`; `None` once claimed.
    Ready(std::cell::Cell<Option<wake::ReplyResult>>),
    /// Queued for a pool worker, which completes the slot.
    Pending(Arc<wake::Slot<wake::ReplyResult>>),
}

impl std::fmt::Debug for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ready(_) => f.write_str("Ready"),
            Self::Pending(slot) => f.debug_tuple("Pending").field(slot).finish(),
        }
    }
}

impl Ticket {
    /// A ticket holding an already computed outcome.
    fn ready(req: u64, result: wake::ReplyResult) -> Self {
        Self {
            outcome: Outcome::Ready(std::cell::Cell::new(Some(result))),
            req,
        }
    }

    /// Claims the outcome if it is there; otherwise registers `waker`
    /// (when given) on a pending ticket. A second claim answers
    /// [`WaitError::EngineShutDown`], mirroring the disconnected-channel
    /// semantics this API had before the waker slot.
    pub(crate) fn poll_outcome(&self, waker: Option<&Waker>) -> Poll<Result<Response, WaitError>> {
        let claimed = match &self.outcome {
            Outcome::Ready(cell) => cell.take(),
            Outcome::Pending(slot) => match slot.poll_value(waker) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(claimed) => claimed,
            },
        };
        Poll::Ready(match claimed {
            Some(result) => result.map_err(WaitError::from),
            None => Err(WaitError::EngineShutDown),
        })
    }

    /// The request id threaded through the flight recorder: `submit`,
    /// `reply`, `retry` and `expired` trace events for this request all
    /// carry it, so one request's life can be followed through a drained
    /// trace (ids start at 1; 0 means "no id" in trace payloads).
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.req
    }

    /// Returns the response: at once for a healthy engine's ticket, and
    /// otherwise by parking the calling thread behind a registered waker
    /// until the worker answers (or the engine dies) — no polling, one
    /// wakeup.
    ///
    /// # Errors
    ///
    /// [`WaitError::DeadlineExpired`] or [`WaitError::EngineShutDown`].
    pub fn wait(self) -> Result<Response, WaitError> {
        match self.poll_outcome(None) {
            Poll::Ready(outcome) => outcome,
            Poll::Pending => wake::block_on(std::future::IntoFuture::into_future(self)),
        }
    }

    /// Blocks up to `timeout` for the response. On timeout the ticket is
    /// dropped — the request may still complete inside the engine, but
    /// its response is abandoned.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait`], plus [`WaitError::Timeout`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, WaitError> {
        if let Poll::Ready(outcome) = self.poll_outcome(None) {
            return outcome;
        }
        let deadline = Instant::now() + timeout;
        wake::block_on_deadline(std::future::IntoFuture::into_future(self), deadline)
            .unwrap_or(Err(WaitError::Timeout))
    }

    /// Non-blocking poll; returns `None` while the request is in flight.
    /// After the outcome has been claimed (here or via a future), later
    /// calls see [`WaitError::EngineShutDown`], mirroring the
    /// disconnected-channel semantics this API had before the waker slot.
    pub fn try_wait(&self) -> Option<Result<Response, WaitError>> {
        match self.poll_outcome(None) {
            Poll::Pending => None,
            Poll::Ready(outcome) => Some(outcome),
        }
    }

    /// A ticket/completer pair detached from any engine: the unit- and
    /// property-test surface for the waker state machine, and a way for
    /// front-ends to mint locally-resolved tickets.
    #[must_use]
    pub fn detached(request_id: u64) -> (Ticket, Completer) {
        wake::pair(request_id)
    }
}

impl std::future::IntoFuture for Ticket {
    type Output = Result<Response, WaitError>;
    type IntoFuture = TicketFuture;

    fn into_future(self) -> TicketFuture {
        TicketFuture { ticket: self }
    }
}

#[derive(Debug)]
struct Shared {
    /// Counters, observability and recorder, which both serving paths
    /// account into.
    books: Books,
    serve: Serve,
    format: QFormat,
    default_deadline: Option<Duration>,
    /// Monotone request-id source; ids start at 1 so 0 can mean "no id".
    next_request_id: AtomicU64,
    /// Windowed-telemetry plane, present when
    /// [`EngineConfig::telemetry_interval`] is set.
    telemetry: Option<Arc<Telemetry>>,
}

/// How an engine serves: the one rule is that an engine configured with
/// no fault plan at all is healthy.
#[derive(Debug)]
enum Serve {
    /// A healthy engine: every request is computed inside `submit`, on
    /// the caller's thread. No queue, no health flags, no workers.
    Inline(Inline),
    /// The walking fault harness: a bounded queue feeding worker threads
    /// that walk their checked units.
    Harness(Arc<Harness>),
}

impl Shared {
    /// Worker threads: 0 for an inline engine.
    fn workers(&self) -> usize {
        match &self.serve {
            Serve::Inline(_) => 0,
            Serve::Harness(harness) => harness.health.len(),
        }
    }

    fn healthy_workers(&self) -> usize {
        match &self.serve {
            Serve::Inline(_) => 0,
            Serve::Harness(harness) => harness.healthy_workers(),
        }
    }
}

/// A cloneable submission handle, independent of the [`Engine`]'s
/// lifetime management. Clients and layers hold handles; the engine owner
/// keeps the [`Engine`] for shutdown and reporting.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl EngineHandle {
    /// The engine's datapath format; operands must be quantised into it.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.shared.format
    }

    /// Submits a request, returning a [`Ticket`] for its response.
    ///
    /// A healthy engine (no fault plan configured) serves the request
    /// here, on the calling thread, before this returns: σ/tanh/exp from
    /// the response table or the integer kernel, softmax from the kernel,
    /// at every width; the ticket already holds the result. A harness
    /// engine queues every request for the pool, whose workers walk the
    /// checked datapath.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for malformed requests,
    /// [`SubmitError::Busy`] when a harness engine's bounded queue is full
    /// (backpressure — nothing was enqueued; healthy engines never queue),
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, mut request: Request) -> Result<Ticket, SubmitError> {
        if matches!(request.function, Function::Mac) {
            return Err(SubmitError::Invalid(InvalidRequest::UnsupportedFunction(
                request.function,
            )));
        }
        if request.operands.is_empty() {
            return Err(SubmitError::Invalid(InvalidRequest::EmptyOperands));
        }
        for x in &request.operands {
            if x.format() != self.shared.format {
                return Err(SubmitError::Invalid(InvalidRequest::FormatMismatch {
                    expected: self.shared.format,
                    got: x.format(),
                }));
            }
        }
        if request.deadline.is_none() {
            request.deadline = self.shared.default_deadline.map(|d| Instant::now() + d);
        }
        let books = &self.shared.books;
        let req = self.shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        match &self.shared.serve {
            // The checks above are the ones the inline steps rely on (one
            // format, non-empty, no MAC).
            Serve::Inline(inline) => {
                if inline.closed.load(Ordering::Acquire) {
                    return Err(SubmitError::ShuttingDown);
                }
                let record = self.begin_record(req, &request);
                self.accepted(submit_event(req, &request));
                let outcome =
                    pool::serve_inline(books, inline, req, request, Instant::now(), record);
                Ok(Ticket::ready(req, outcome))
            }
            Serve::Harness(harness) => {
                let record = self.begin_record(req, &request);
                let submitted = submit_event(req, &request);
                let (ticket, reply) = wake::pair(req);
                let job = Job {
                    id: req,
                    request,
                    reply,
                    retries: 0,
                    submitted_at: Instant::now(),
                    record,
                };
                match harness.queue.try_push(job) {
                    Ok(depth) => {
                        books
                            .metrics
                            .max(Counter::QueueDepthHighWater, depth as u64);
                        self.accepted(submitted);
                        Ok(ticket)
                    }
                    Err(PushError::Full(job)) => {
                        books.abandon_record(job.record);
                        books.metrics.add(Counter::BusyRejections, 1);
                        Err(SubmitError::Busy {
                            capacity: harness.queue.capacity(),
                        })
                    }
                    Err(PushError::Closed(job)) => {
                        books.abandon_record(job.record);
                        Err(SubmitError::ShuttingDown)
                    }
                }
            }
        }
    }

    /// Claims the request's trace-record slot, before anything serves it:
    /// the inline path overwrites the operand buffer in place and hands
    /// it to the client as the response, so submission is the only point
    /// where the operands are reliably themselves.
    fn begin_record(&self, req: u64, request: &Request) -> u32 {
        let books = &self.shared.books;
        let Some(recorder) = &books.recorder else {
            return NO_RECORD_SLOT;
        };
        let deadline_micros = request.deadline.map_or(0, |d| {
            u64::try_from(d.saturating_duration_since(Instant::now()).as_micros())
                .unwrap_or(u64::MAX)
        });
        let slot = recorder.begin(
            req,
            request.function,
            deadline_micros,
            request.client,
            request.operands.iter().map(|x| x.raw() as i16),
        );
        if slot == NO_RECORD_SLOT {
            books.metrics.add(Counter::ReplayRecordsDropped, 1);
        }
        slot
    }

    /// Counts an accepted submission and records its `submit` event.
    fn accepted(&self, submitted: TraceKind) {
        self.shared.books.metrics.add(Counter::RequestsSubmitted, 1);
        self.shared.books.obs.record_trace(submitted);
    }

    /// The engine's windowed-telemetry plane — present when the engine
    /// was built with [`EngineConfig::with_telemetry`]. Exposes the
    /// rolling 10s/1m/5m windows ([`Telemetry::series`]) and the SLO
    /// burn-rate statuses ([`Telemetry::statuses`]) the sampler thread
    /// keeps fresh.
    #[must_use]
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.telemetry.clone()
    }

    /// The engine's trace recorder — present when the engine was built
    /// with [`EngineConfig::with_recording`] and the format's codes fit
    /// the trace log's i16 fields. Drain completed records with
    /// [`Recorder::take_log`] (after quiescing, for a complete capture).
    #[must_use]
    pub fn recorder(&self) -> Option<Arc<Recorder>> {
        self.shared.books.recorder.clone()
    }

    /// Submit + wait in one call, for synchronous callers.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] mapped through, or the ticket's [`WaitError`]
    /// rendered as [`SubmitError::ShuttingDown`]-adjacent failures is
    /// avoided by returning a dedicated enum.
    pub fn submit_wait(&self, request: Request) -> Result<Response, CallError> {
        let ticket = self.submit(request).map_err(CallError::Submit)?;
        ticket.wait().map_err(CallError::Wait)
    }

    /// Live counter snapshot.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.books.metrics.snapshot()
    }

    /// The engine's live observability surface (histograms, trace ring,
    /// cycle accounting). Cheap to clone; a monitor thread can hold one
    /// and drain/snapshot while the pool serves.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.shared.books.obs)
    }

    /// The engine's live counter set, for front-ends that account events
    /// the engine itself never sees (wire frames, admission decisions).
    /// Network front-ends record their `net_*` counters here so they
    /// land in the same [`MetricsSnapshot`] and `/metrics` scrape as the
    /// serving counters.
    #[must_use]
    pub fn live_metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.shared.books.metrics)
    }

    /// Worker (shard) threads, healthy or not: 0 for a healthy engine,
    /// which computes inline and whose responses carry
    /// [`Response::INLINE`].
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers()
    }

    /// Workers still in service (not quarantined by a detector event): 0
    /// for a healthy engine, which has none to quarantine.
    #[must_use]
    pub fn healthy_workers(&self) -> usize {
        self.shared.healthy_workers()
    }

    /// Starts the std-only HTTP scrape server on `addr`, exposing
    /// `/metrics` (Prometheus text), `/metrics.json`, `/health` and
    /// `/trace` for this engine. The returned [`ObsServer`] stops the
    /// listener when shut down or dropped; the engine keeps serving
    /// either way.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure from [`std::net::TcpListener::bind`].
    pub fn serve_obs(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<ObsServer> {
        nacu_obs::serve(
            addr,
            Arc::new(HandleSource {
                shared: Arc::clone(&self.shared),
            }),
        )
    }
}

/// The `submit` trace event of an accepted request.
fn submit_event(req: u64, request: &Request) -> TraceKind {
    TraceKind::Submit {
        req,
        conn: request.client,
        function: request.function,
        ops: request.operands.len().min(u32::MAX as usize) as u32,
    }
}

/// Adapts one engine's shared state to the scrape server's pull model.
#[derive(Debug)]
struct HandleSource {
    shared: Arc<Shared>,
}

impl ScrapeSource for HandleSource {
    fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.shared.books.obs)
    }

    fn clock_hz(&self) -> f64 {
        PAPER_CLOCK_HZ
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.shared.books.metrics.snapshot().exporter_counters()
    }

    fn counter_help(&self) -> Vec<(&'static str, &'static str)> {
        MetricsSnapshot::exporter_help()
    }

    fn workers(&self) -> WorkerCensus {
        // An inline engine reports 0/0, which `/health` reads as all in
        // service.
        WorkerCensus {
            total: self.shared.workers(),
            healthy: self.shared.healthy_workers(),
        }
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.telemetry.clone()
    }
}

// `Obs`, `ObsSnapshot`, the trace/histogram types and the health/scrape
// surface are re-exported so engine clients can monitor without naming
// nacu-obs directly.
pub use nacu_obs::{
    DriftAlarm, DriftKind, Exemplar, HealthConfig, HealthRow, HealthSnapshot, HistogramSnapshot,
    LatencyBudget, Obs as Observability, ObsServer, ObsSnapshot, ScrapeSource, SloObjective,
    SloSpec, SloStatus, Stage, Telemetry, TraceEvent, TraceKind, WindowDelta, WorkerCensus,
    DEFAULT_SAMPLE_EVERY, WINDOWS,
};

/// A [`EngineHandle::submit_wait`] failure from either phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// Refused at submission.
    Submit(SubmitError),
    /// Submitted but never answered.
    Wait(WaitError),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Submit(e) => write!(f, "{e}"),
            Self::Wait(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CallError {}

/// The engine: a healthy engine computes inline on the caller; an engine
/// configured with fault plans is a bounded queue feeding a pool of
/// walking NACU worker shards — the fault harness.
///
/// See the [crate docs](crate) for the architecture diagram.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    /// The harness's worker threads; empty for a healthy engine.
    handles: Vec<JoinHandle<()>>,
    started: Instant,
    /// Stop flag + join handle for the telemetry sampler thread, present
    /// when [`EngineConfig::telemetry_interval`] is set.
    sampler_stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Engine {
    /// Validates the configuration (by building a probe unit), then
    /// builds what the engine serves with: a healthy engine's response
    /// tables, or the harness's queue and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates [`NacuError`] from [`Nacu::new`] — the same validation
    /// every worker's unit would hit.
    pub fn new(config: EngineConfig) -> Result<Self, NacuError> {
        let probe = Nacu::new(config.nacu)?;
        let format = probe.config().format;
        // The probe above already validated the config, so the bound
        // derivation inside `HealthConfig::for_nacu` cannot panic.
        let obs = Arc::new(Obs::new().with_health(HealthConfig::for_nacu(
            &config.nacu,
            config.health_sample_every,
        )));
        // `for_format` returns `None` for formats wider than the log's
        // i16 code fields, leaving such engines unrecorded.
        let recorder = if config.record_capacity > 0 {
            Recorder::for_format(config.record_capacity, format).map(Arc::new)
        } else {
            None
        };
        let books = Books {
            metrics: Arc::new(EngineMetrics::new()),
            obs,
            recorder,
        };
        // The one rule: no fault plan configured means healthy. A healthy
        // engine keeps the probe as its golden unit and builds its tables
        // from the probe's kernel, every 2^N response code once, here;
        // `build` returns `None` past the table budget, leaving wide
        // formats to the kernel. Any plan at all, empty ones included,
        // makes the engine the walking harness.
        let (serve, handles) = if config.fault_tolerance.plans.is_empty() {
            let inline = Inline {
                tables: ResponseTables::build(&probe),
                nacu: probe,
                closed: AtomicBool::new(false),
            };
            (Serve::Inline(inline), Vec::new())
        } else {
            let harness = Arc::new(Harness {
                config: config.nacu,
                max_coalesced_requests: config.max_coalesced_requests.max(1),
                fault: config.fault_tolerance,
                queue: BoundedQueue::new(config.queue_capacity),
                books: books.clone(),
                health: (0..config.workers.max(1))
                    .map(|_| AtomicBool::new(true))
                    .collect(),
            });
            let handles = pool::spawn_workers(&harness);
            (Serve::Harness(harness), handles)
        };
        let telemetry = config.telemetry_interval.map(|interval| {
            Arc::new(Telemetry::new(
                nacu_obs::DEFAULT_SAMPLE_CAPACITY,
                interval,
                PAPER_CLOCK_HZ,
                config.slos,
            ))
        });
        let sampler_stop = Arc::new(AtomicBool::new(false));
        let sampler = telemetry.as_ref().map(|telemetry| {
            spawn_sampler(
                Arc::clone(telemetry),
                Arc::clone(&books.obs),
                Arc::clone(&books.metrics),
                Arc::clone(&sampler_stop),
            )
        });
        Ok(Self {
            shared: Arc::new(Shared {
                books,
                serve,
                format,
                default_deadline: config.default_deadline,
                next_request_id: AtomicU64::new(0),
                telemetry,
            }),
            handles,
            started: Instant::now(),
            sampler_stop,
            sampler,
        })
    }

    /// A cloneable submission handle.
    #[must_use]
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The engine's datapath format.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.shared.format
    }

    /// Worker (shard) threads, healthy or not (see
    /// [`EngineHandle::workers`]).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers()
    }

    /// Workers still in service (see [`EngineHandle::healthy_workers`]).
    #[must_use]
    pub fn healthy_workers(&self) -> usize {
        self.shared.healthy_workers()
    }

    /// Submits through an implicit handle (see [`EngineHandle::submit`]).
    ///
    /// # Errors
    ///
    /// As [`EngineHandle::submit`].
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.handle().submit(request)
    }

    /// Live counter snapshot, without stopping anything.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.books.metrics.snapshot()
    }

    /// The engine's live observability surface (see [`EngineHandle::obs`]).
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.shared.books.obs)
    }

    /// The engine's windowed-telemetry plane (see
    /// [`EngineHandle::telemetry`]).
    #[must_use]
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.telemetry.clone()
    }

    /// A coherent point-in-time observability snapshot.
    #[must_use]
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.shared.books.obs.snapshot()
    }

    /// Throughput over the interval since `baseline` was snapshotted at
    /// `baseline_taken`. Latency percentiles come from the engine's
    /// *lifetime* histograms (pair with [`Engine::obs_snapshot`] and
    /// [`ObsSnapshot::since`] for interval-exact distributions).
    #[must_use]
    pub fn report_since(
        &self,
        baseline: &MetricsSnapshot,
        baseline_taken: Instant,
    ) -> ThroughputReport {
        let delta = self.metrics().since(baseline);
        let report =
            ThroughputReport::from_interval(&delta, baseline_taken.elapsed(), self.workers())
                .with_observability(&self.obs_snapshot());
        match &self.shared.telemetry {
            Some(telemetry) => report.with_windows(telemetry),
            None => report,
        }
    }

    /// Throughput over the engine's whole lifetime so far, latency
    /// summaries included.
    #[must_use]
    pub fn lifetime_report(&self) -> ThroughputReport {
        let delta = self.metrics();
        let report =
            ThroughputReport::from_interval(&delta, self.started.elapsed(), self.workers())
                .with_observability(&self.obs_snapshot());
        match &self.shared.telemetry {
            Some(telemetry) => report.with_windows(telemetry),
            None => report,
        }
    }

    /// Stops accepting work — for a harness engine, also drains the
    /// queue and joins the workers — and returns the final counters.
    /// Queued requests are still served; post-shutdown submissions get
    /// [`SubmitError::ShuttingDown`].
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics()
    }

    fn shutdown_in_place(&mut self) {
        match &self.shared.serve {
            Serve::Inline(inline) => inline.closed.store(true, Ordering::Release),
            Serve::Harness(harness) => harness.queue.close(),
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.sampler_stop.store(true, Ordering::Release);
        if let Some(sampler) = self.sampler.take() {
            sampler.thread().unpark();
            let _ = sampler.join();
        }
    }
}

/// Spawns the telemetry sampler: a parked loop that, every tick, diffs
/// the engine's observability snapshot into the windowed series,
/// re-evaluates the SLOs, and turns status edges into counters and trace
/// events. `park_timeout` (not `sleep`) so shutdown can cut a long
/// interval short with one `unpark`.
fn spawn_sampler(
    telemetry: Arc<Telemetry>,
    obs: Arc<Obs>,
    metrics: Arc<EngineMetrics>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let interval = telemetry.interval();
    std::thread::Builder::new()
        .name("nacu-telemetry".into())
        .spawn(move || loop {
            std::thread::park_timeout(interval);
            if stop.load(Ordering::Acquire) {
                return;
            }
            let counters = metrics.snapshot().exporter_counters();
            let statuses = telemetry.sample(obs.snapshot(), counters);
            metrics.add(Counter::TelemetrySamples, 1);
            for status in &statuses {
                if status.tripped_now {
                    metrics.add(Counter::SloAlarmTrips, 1);
                    obs.record_trace(TraceKind::SloBurn {
                        slo: status.name,
                        active: true,
                    });
                } else if status.cleared_now {
                    obs.record_trace(TraceKind::SloBurn {
                        slo: status.name,
                        active: false,
                    });
                }
            }
        })
        .expect("spawn telemetry sampler")
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu_fixed::{Fx, Rounding};

    fn engine(workers: usize) -> Engine {
        Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(workers)
                .with_queue_capacity(64),
        )
        .expect("paper config")
    }

    fn operands(fmt: QFormat, n: usize) -> Vec<Fx> {
        (0..n)
            .map(|i| Fx::from_f64(i as f64 * 0.37 - 2.0, fmt, Rounding::Nearest))
            .collect()
    }

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    /// Satellite audit: everything a worker thread needs to own or share
    /// crosses threads (compile-time check).
    #[test]
    fn engine_types_are_send_and_shareable() {
        assert_send::<Nacu>();
        assert_sync::<Nacu>();
        assert_send::<NacuConfig>();
        assert_send::<Fx>();
        assert_send::<Engine>();
        assert_send::<EngineHandle>();
        assert_sync::<EngineHandle>();
        assert_send::<Ticket>();
        assert_send::<Request>();
        assert_send::<Response>();
    }

    /// Satellite audit: per-worker unit construction is ergonomic because
    /// `NacuConfig` is `Copy` and `Nacu` is `Clone`.
    #[test]
    fn per_worker_unit_construction_is_cloneable() {
        let cfg = NacuConfig::paper_16bit();
        let unit = Nacu::new(cfg).expect("paper config");
        let duplicate = unit.clone();
        assert_eq!(unit.coefficients(), duplicate.coefficients());
        let rebuilt = Nacu::new(cfg).expect("same config");
        assert_eq!(unit.coefficients(), rebuilt.coefficients());
    }

    #[test]
    fn scalar_results_match_sequential_datapath() {
        let engine = engine(3);
        let nacu = Nacu::new(NacuConfig::paper_16bit()).unwrap();
        let xs = operands(engine.format(), 40);
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let response = engine
                .submit(Request::new(function, xs.clone()))
                .unwrap()
                .wait()
                .unwrap();
            let sequential: Vec<Fx> = xs.iter().map(|&x| nacu.compute(function, x)).collect();
            assert_eq!(response.outputs, sequential, "{function}");
        }
        // Every operand came from the one shared table copy.
        assert_eq!(engine.metrics().fast_path_ops, 3 * 40);
    }

    #[test]
    fn softmax_results_match_sequential_datapath() {
        let engine = engine(2);
        let nacu = Nacu::new(NacuConfig::paper_16bit()).unwrap();
        let xs = operands(engine.format(), 10);
        let response = engine
            .submit(Request::new(Function::Softmax, xs.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.outputs, nacu.softmax(&xs).unwrap());
    }

    #[test]
    fn mac_and_empty_and_mixed_format_requests_are_rejected() {
        let engine = engine(1);
        let fmt = engine.format();
        assert!(matches!(
            engine.submit(Request::new(Function::Mac, operands(fmt, 1))),
            Err(SubmitError::Invalid(InvalidRequest::UnsupportedFunction(_)))
        ));
        assert!(matches!(
            engine.submit(Request::new(Function::Sigmoid, Vec::new())),
            Err(SubmitError::Invalid(InvalidRequest::EmptyOperands))
        ));
        let alien = Fx::zero(QFormat::new(3, 8).unwrap());
        assert!(matches!(
            engine.submit(Request::new(Function::Sigmoid, vec![alien])),
            Err(SubmitError::Invalid(InvalidRequest::FormatMismatch { .. }))
        ));
    }

    #[test]
    fn expired_requests_are_answered_with_deadline_error() {
        let engine = engine(1);
        let fmt = engine.format();
        let past = Instant::now() - Duration::from_millis(1);
        let ticket = engine
            .submit(Request::new(Function::Sigmoid, operands(fmt, 2)).with_deadline(past))
            .unwrap();
        assert_eq!(ticket.wait(), Err(WaitError::DeadlineExpired));
        assert_eq!(engine.metrics().requests_expired, 1);
    }

    #[test]
    fn shutdown_serves_queued_work_then_refuses_new() {
        let engine = engine(2);
        let fmt = engine.format();
        let handle = engine.handle();
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| {
                handle
                    .submit(Request::new(Function::Tanh, operands(fmt, 4)))
                    .unwrap()
            })
            .collect();
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.requests_completed, 16);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        assert!(matches!(
            handle.submit(Request::new(Function::Tanh, operands(fmt, 1))),
            Err(SubmitError::ShuttingDown)
        ));
    }

    /// Counted on a clean-plan harness engine, whose requests reach the
    /// queue (a healthy engine serves both inline and never queues).
    #[test]
    fn metrics_count_ops_per_function() {
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(1)
                .with_fault_tolerance(FaultTolerance::clean_harness(1)),
        )
        .expect("paper config");
        let fmt = engine.format();
        engine
            .submit(Request::new(Function::Sigmoid, operands(fmt, 5)))
            .unwrap()
            .wait()
            .unwrap();
        engine
            .submit(Request::new(Function::Softmax, operands(fmt, 3)))
            .unwrap()
            .wait()
            .unwrap();
        let m = engine.metrics();
        assert_eq!(m.sigmoid_ops, 5);
        assert_eq!(m.softmax_ops, 3);
        assert_eq!(m.requests_submitted, 2);
        assert_eq!(m.requests_completed, 2);
        assert!(m.queue_depth_high_water >= 1);
    }

    #[test]
    fn lifetime_report_reflects_served_work() {
        let engine = engine(2);
        let fmt = engine.format();
        for _ in 0..8 {
            engine
                .submit(Request::new(Function::Exp, operands(fmt, 16)))
                .unwrap()
                .wait()
                .unwrap();
        }
        let report = engine.lifetime_report();
        assert_eq!(report.ops, 8 * 16);
        assert_eq!(report.workers, 0, "a healthy engine reports no workers");
        assert!(report.modeled_cycles > 0);
        assert!(report.ops_per_sec() > 0.0);
        // Observability sections are filled in: latency percentiles and
        // the modeled-vs-measured cycle comparison.
        assert_eq!(report.end_to_end.count, 8);
        assert_eq!(report.queue_wait.count, 0, "nothing ever queued");
        assert!(report.end_to_end.p99_ns >= report.end_to_end.p50_ns);
        assert!(report.end_to_end.max_ns >= report.queue_wait.max_ns);
        assert!(report.checked_cycles > report.modeled_cycles);
        assert!(report.measured_batch_ns > 0);
        assert!(report.effective_cycles_per_op(PAPER_CLOCK_HZ) > 0.0);
        assert!(report.model_measured_ratio(PAPER_CLOCK_HZ) > 0.0);
    }

    /// End-to-end recording: served requests land in the drained trace
    /// with their submitted operands and bit-exact responses; expired
    /// requests leave no record.
    #[test]
    fn recording_captures_served_requests_and_skips_expired_ones() {
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(1)
                .with_recording(32),
        )
        .expect("paper config");
        let fmt = engine.format();
        let handle = engine.handle();
        let xs = operands(fmt, 5);
        handle
            .submit(Request::new(Function::Sigmoid, xs.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let softmax = handle
            .submit(Request::new(Function::Softmax, operands(fmt, 3)))
            .unwrap()
            .wait()
            .unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        let expired = handle
            .submit(Request::new(Function::Tanh, operands(fmt, 2)).with_deadline(past))
            .unwrap();
        assert_eq!(expired.wait(), Err(WaitError::DeadlineExpired));
        let m = engine.metrics();
        assert_eq!(m.replay_records_captured, 2);
        assert_eq!(m.replay_records_dropped, 0);
        let recorder = handle.recorder().expect("recording configured");
        let log = recorder.take_log();
        assert_eq!(log.records.len(), 2, "the expired request left no record");
        assert!(log.records[0].id < log.records[1].id, "sorted by id");
        let sigmoid = &log.records[0];
        assert_eq!(sigmoid.function, Function::Sigmoid);
        let submitted: Vec<i16> = xs.iter().map(|x| x.raw() as i16).collect();
        assert_eq!(
            sigmoid.operands, submitted,
            "operands captured before the fast path overwrote them"
        );
        assert_eq!(sigmoid.responses.len(), 5);
        assert_eq!(log.records[1].function, Function::Softmax);
        let softmax_codes: Vec<i16> = softmax.outputs.iter().map(|y| y.raw() as i16).collect();
        assert_eq!(log.records[1].responses, softmax_codes);
        // The log round-trips through the binary format.
        let bytes = log.encode();
        assert_eq!(TraceLog::decode(&bytes, 1 << 16).expect("round trip"), log);
    }

    /// An unrecorded engine exposes no recorder; a wide-format engine
    /// asked to record also runs unrecorded (its codes exceed i16).
    #[test]
    fn recorder_is_absent_without_recording_or_for_wide_formats() {
        let engine = engine(1);
        assert!(engine.handle().recorder().is_none());
        let wide_config = NacuConfig::for_width(20).expect("20-bit config");
        let wide =
            Engine::new(EngineConfig::new(wide_config).with_recording(8)).expect("valid config");
        assert!(wide.handle().recorder().is_none());
    }

    /// The sampler thread ticks, feeds the windowed series, counts its
    /// samples, and shuts down cleanly; an engine without a telemetry
    /// interval exposes no plane and takes no samples.
    #[test]
    fn telemetry_sampler_ticks_and_shuts_down() {
        let plain = engine(1);
        assert!(plain.telemetry().is_none());
        assert_eq!(plain.shutdown().telemetry_samples, 0);

        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(1)
                .with_telemetry(Duration::from_millis(2))
                .with_slos(vec![SloSpec::latency(
                    "e2e_p99",
                    Stage::EndToEnd,
                    Function::Sigmoid,
                    0.99,
                    LatencyBudget::Nanos(1_000_000_000),
                    10.0,
                )]),
        )
        .expect("paper config");
        let fmt = engine.format();
        let handle = engine.handle();
        assert!(handle.telemetry().is_some());
        engine
            .submit(Request::new(Function::Sigmoid, operands(fmt, 4)))
            .unwrap()
            .wait()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.metrics().telemetry_samples < 3 {
            assert!(Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(2));
        }
        let telemetry = engine.telemetry().expect("telemetry configured");
        let statuses = telemetry.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].name, "e2e_p99");
        assert!(!statuses[0].active, "a 1s budget cannot be burning");
        let window = telemetry.series().window(Duration::from_secs(60));
        assert!(window.samples > 0);
        assert!(window.stage_merged(Stage::EndToEnd).count >= 1);
        let m = engine.shutdown();
        assert!(m.telemetry_samples >= 3);
        assert_eq!(m.slo_alarm_trips, 0);
    }

    #[test]
    fn obs_traces_the_request_lifecycle_and_drains_live() {
        let engine = engine(1);
        let fmt = engine.format();
        let obs = engine.obs();
        let ticket = engine
            .submit(Request::new(Function::Sigmoid, operands(fmt, 3)))
            .unwrap();
        let req = ticket.request_id();
        assert!(req >= 1, "request ids start at 1");
        ticket.wait().unwrap();
        let events = obs.drain_trace(64);
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"submit"), "{names:?}");
        assert!(names.contains(&"batch_start"), "{names:?}");
        assert!(names.contains(&"batch_end"), "{names:?}");
        assert!(names.contains(&"reply"), "{names:?}");
        // The ticket's request id is threaded through submit and reply.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Submit { req: r, .. } if r == req)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Reply { req: r, .. } if r == req)));
        // Timestamps are monotone in drain order.
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }
}
