//! The two serving paths: a healthy engine's inline step, and the
//! walking fault harness — one OS thread and one checked NACU unit per
//! worker, with fault detection, quarantine and bounded retry.
//!
//! Healthy engines are threadless. An engine configured with no fault
//! plan serves every request inside `submit` ([`serve_inline`]):
//! σ/tanh/exp from the response table where the format has one and from
//! the integer kernel ([`nacu::Nacu::kernel_in_place`]) where it has
//! none, and every softmax from [`nacu::Nacu::kernel_softmax`]. It builds
//! no queue, no health flags and no threads, and its result goes back in
//! the ticket itself.
//!
//! An engine with any fault plan — all-empty plans included — is the
//! harness: it queues every request, and every worker serves it by
//! walking its own [`CheckedNacu`], whose taps and detectors sit on the
//! walk's nets. Each worker builds that unit from the shared
//! [`NacuConfig`] at thread start; construction is deterministic (the LUT
//! fit is a pure function of the config), so every shard holds
//! bit-identical ROM contents and a clean pool answers exactly what a
//! single sequential unit would. This mirrors the paper's fabric view:
//! many physical NACU instances configured alike, fed from one stream of
//! work.
//!
//! Both paths account through the same [`Books`] steps: batch counters
//! and cycles ([`Books::finish_batch`]), end-to-end latency, the reply
//! trace event and the trace record ([`Books::respond`]), and shadow
//! sampling. Only the harness records queue waits and coalescing.
//!
//! The fault story, end to end:
//!
//! 1. A worker's unit carries the [`FaultPlan`] its slot was configured
//!    with (populated by tests and campaigns; empty for a clean harness)
//!    and the pool-wide [`nacu_faults::DetectorSet`].
//! 2. When any detector fires mid-batch, the worker **quarantines
//!    itself**: it marks its health flag, discards the batch's partial
//!    results (a flagged unit's outputs are untrustworthy), requeues the
//!    batch's live jobs for a healthy worker — each at most
//!    `max_retries` times — and exits without serving another batch.
//! 3. The client sees either a bit-exact [`Response`] from a healthy
//!    retry, or a typed [`RequestError::FaultDetected`] /
//!    [`RequestError::NoHealthyWorkers`] — never silently corrupt data.
//! 4. If the quarantining worker was the last healthy one, it drains the
//!    queue, answers everything with `NoHealthyWorkers`, and closes the
//!    queue so new submissions fail fast at the door.
//!
//! [`FaultPlan`]: nacu_faults::FaultPlan

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nacu::{Function, Nacu, NacuConfig, ResponseTables};
use nacu_faults::{CheckedError, CheckedNacu, FaultEvent};
use nacu_fixed::Fx;
use nacu_obs::{Obs, Stage, TraceKind};
use nacu_replay::Recorder;

use crate::batch::{scalar_function, Request, RequestError, Response};
use crate::executor::{BatchExecutor, DatapathWalk};
use crate::metrics::{Counter, EngineMetrics};
use crate::queue::{BoundedQueue, Coalesce, PushError};
use crate::report::{modeled_batch_cycles, modeled_checked_batch_cycles};
use crate::wake::ReplyResult;
use crate::FaultTolerance;

/// One queued unit of work: the request plus its reply completer, the
/// instant it entered the queue (for latency accounting) and the number
/// of times a quarantining worker has already bounced it.
///
/// The completer is the producing half of the ticket's waker slot: it
/// publishes the outcome and delivers the (at most one) wakeup; dropping
/// it unreplied resolves the ticket with `EngineShutDown`, preserving
/// the old sender-drop semantics.
#[derive(Debug)]
pub(crate) struct Job {
    /// Flight-recorder request id (0 = untracked, e.g. in unit tests).
    pub(crate) id: u64,
    pub(crate) request: Request,
    pub(crate) reply: crate::wake::Completer,
    pub(crate) retries: u32,
    pub(crate) submitted_at: Instant,
    /// Trace-recorder slot claimed at submit ([`NO_RECORD_SLOT`] when the
    /// request is unrecorded). A retried job keeps its slot — the
    /// eventual healthy reply completes the same record — while terminal
    /// failures and expiries abandon it, so a drained trace only ever
    /// carries served request/response pairs.
    ///
    /// [`NO_RECORD_SLOT`]: nacu_replay::NO_RECORD_SLOT
    pub(crate) record: u32,
}

impl Coalesce for Job {
    fn coalesce_key(&self) -> u32 {
        self.request.coalesce_key()
    }
}

/// A shadow-sampling plan: (request, operand, pre-overwrite x).
type Samples = Vec<(usize, usize, f64)>;

/// A worker's reusable buffers: the popped batch, its unexpired jobs,
/// and the shadow-sampling plan.
#[derive(Default)]
struct Scratch {
    jobs: Vec<Job>,
    live: Vec<Job>,
    samples: Samples,
}

/// Saturating nanoseconds of a duration (a serving interval never
/// realistically exceeds u64 ns ≈ 584 years, but the cast must not wrap).
fn as_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The worker index trace events carry: [`Response::INLINE`] becomes
/// `u32::MAX`.
fn trace_worker(worker: usize) -> u32 {
    u32::try_from(worker).unwrap_or(u32::MAX)
}

/// What both serving paths account into: the live counters, the
/// observability surface, and the trace recorder (`None` when the engine
/// runs unrecorded).
#[derive(Debug, Clone)]
pub(crate) struct Books {
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) obs: Arc<Obs>,
    pub(crate) recorder: Option<Arc<Recorder>>,
}

impl Books {
    /// Releases the trace record of a request that will never be served.
    pub(crate) fn abandon_record(&self, slot: u32) {
        if let Some(recorder) = &self.recorder {
            recorder.abandon(slot);
        }
    }

    /// Accounts a request whose deadline passed before service began.
    fn expire(&self, id: u64, function: Function, record: u32) -> RequestError {
        self.abandon_record(record);
        self.metrics.add(Counter::RequestsExpired, 1);
        self.obs
            .record_trace(TraceKind::Expired { req: id, function });
        RequestError::DeadlineExpired
    }

    /// Accounts a request its datapath could not evaluate — unreachable
    /// after `submit`'s checks (see [`serve_softmax`]) — as failed,
    /// without a panic on the serving thread.
    fn refuse(&self, record: u32) -> RequestError {
        self.abandon_record(record);
        self.metrics.add(Counter::RequestsFailed, 1);
        RequestError::EngineShutDown
    }

    /// Lays out a unary batch's shadow-sampling plan in `samples`: one
    /// relaxed fetch_add on the shared decimation tick buys the whole
    /// batch's quota, which is spread evenly over the batch's operands by
    /// striding. The plan is observed against the served outputs
    /// afterwards ([`Books::observe_samples`]), keeping the compute loop
    /// free of sampling branches.
    fn plan_samples<'a>(
        &self,
        batch_ops: usize,
        requests: impl Iterator<Item = &'a [Fx]>,
        samples: &mut Samples,
    ) {
        samples.clear();
        let quota = self.obs.health().batch_quota(batch_ops as u64);
        if quota == 0 {
            return;
        }
        let stride = (batch_ops as u64 / quota).max(1);
        let mut next: u64 = 0;
        let mut base: u64 = 0;
        for (index, operands) in requests.enumerate() {
            let len = operands.len() as u64;
            while next < base + len {
                let operand = (next - base) as usize;
                samples.push((index, operand, operands[operand].to_f64()));
                if samples.len() as u64 >= quota {
                    return;
                }
                next += stride;
            }
            base += len;
        }
    }

    /// Observes each planned (x, y) pair against the f64 shadow
    /// reference, reading y through `output(request, operand)`.
    fn observe_samples(
        &self,
        worker: usize,
        function: Function,
        samples: &Samples,
        output: impl Fn(usize, usize) -> Fx,
    ) {
        for &(index, operand, x) in samples {
            let y = output(index, operand);
            if let Some(alarm) = self.obs.health().observe(function, x, y.to_f64()) {
                self.metrics.add(Counter::DriftAlarms, 1);
                self.obs.record_trace(TraceKind::DriftAlarm {
                    worker: trace_worker(worker),
                    function,
                    kind: alarm.kind,
                });
            }
        }
    }

    /// Accounts one served batch, `fast` when its operands were served
    /// without the checked walk. Metrics are recorded BEFORE any reply is
    /// sent: a client observing its response must also observe the
    /// counters that account for it.
    fn finish_batch(
        &self,
        worker: usize,
        function: Function,
        requests: usize,
        ops: usize,
        fast: bool,
        service_ns: u64,
    ) {
        let batch_cycles = modeled_batch_cycles(function, ops);
        self.obs
            .record_latency(Stage::BatchService, function, service_ns);
        self.obs.cycles().record_batch(
            function,
            ops as u64,
            batch_cycles,
            modeled_checked_batch_cycles(function, ops),
            service_ns,
        );
        self.obs.record_trace(TraceKind::BatchEnd {
            worker: trace_worker(worker),
            function,
            ops: ops as u32,
            service_ns,
        });
        self.metrics
            .record_batch(function, requests as u64, ops as u64, batch_cycles, fast);
    }

    /// Completes one served request's accounting — its trace record, its
    /// end-to-end latency (tagged, so a tail-bucket request leaves an
    /// exemplar carrying its request id and connection) and its reply
    /// trace event — and returns its response.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        worker: usize,
        id: u64,
        request: &Request,
        submitted_at: Instant,
        record: u32,
        outputs: Vec<Fx>,
        batch_ops: usize,
    ) -> Response {
        let function = request.function;
        if let Some(recorder) = &self.recorder {
            if recorder.complete(record, outputs.iter().map(|y| y.raw() as i16)) {
                self.metrics.add(Counter::ReplayRecordsCaptured, 1);
            }
        }
        let e2e_ns = as_ns(submitted_at.elapsed());
        self.obs
            .record_latency_tagged(Stage::EndToEnd, function, e2e_ns, id, request.client);
        self.obs.record_trace(TraceKind::Reply {
            req: id,
            conn: request.client,
            worker: trace_worker(worker),
            function,
            e2e_ns,
        });
        Response {
            outputs,
            worker,
            batch_ops,
            batch_cycles: modeled_batch_cycles(function, batch_ops),
        }
    }
}

/// What a healthy engine serves with on the submitting thread: its
/// response tables, where the format fits the table budget, and the
/// golden unit whose integer kernel serves everything else.
#[derive(Debug)]
pub(crate) struct Inline {
    pub(crate) tables: Option<ResponseTables>,
    pub(crate) nacu: Nacu,
    /// Set by shutdown; later submissions are refused.
    pub(crate) closed: AtomicBool,
}

/// Serves one submitted request on the calling thread —
/// [`crate::EngineHandle::submit`]'s inline path — and returns its
/// outcome for the ticket to hold. The request never queued, so no queue
/// wait or coalescing is recorded; everything else goes through the
/// [`Books`] steps a worker uses. The operand buffer is overwritten in
/// place and becomes the response, and the sampling plan lives in a
/// thread-local buffer, so a warmed-up stream of submissions allocates
/// nothing.
pub(crate) fn serve_inline(
    books: &Books,
    inline: &Inline,
    id: u64,
    mut request: Request,
    submitted_at: Instant,
    record: u32,
) -> ReplyResult {
    thread_local! {
        static SAMPLES: Cell<Samples> = const { Cell::new(Vec::new()) };
    }
    let function = request.function;
    if request.deadline.is_some_and(|d| d < Instant::now()) {
        return Err(books.expire(id, function, record));
    }
    let mut operands = std::mem::take(&mut request.operands);
    let ops = operands.len();
    books.obs.record_trace(TraceKind::BatchStart {
        worker: trace_worker(Response::INLINE),
        function,
        ops: ops as u32,
    });
    let scalar = scalar_function(function);
    let mut samples = SAMPLES.take();
    samples.clear();
    if scalar {
        books.plan_samples(ops, std::iter::once(&operands[..]), &mut samples);
    }
    let service_start = Instant::now();
    // Softmax cannot fail here: `submit` rejected empty vectors and
    // foreign formats, and the vector's maximum adds exp(0) = 1.0 to the
    // denominator. Were it to, the caller gets a typed error, not a
    // panic.
    let computed = if scalar {
        match inline.tables.as_ref().and_then(|t| t.get(function)) {
            Some(table) => table.lookup_in_place(&mut operands),
            None => inline.nacu.kernel_in_place(function, &mut operands),
        }
        Ok(())
    } else {
        inline.nacu.kernel_softmax(&mut operands)
    };
    let outcome = match computed {
        Ok(()) => {
            books.observe_samples(Response::INLINE, function, &samples, |_, o| operands[o]);
            let service_ns = as_ns(service_start.elapsed());
            books.finish_batch(Response::INLINE, function, 1, ops, true, service_ns);
            Ok(books.respond(
                Response::INLINE,
                id,
                &request,
                submitted_at,
                record,
                operands,
                ops,
            ))
        }
        Err(_) => Err(books.refuse(record)),
    };
    SAMPLES.set(samples);
    outcome
}

/// Everything the harness's worker threads share.
#[derive(Debug)]
pub(crate) struct Harness {
    pub(crate) config: NacuConfig,
    pub(crate) max_coalesced_requests: usize,
    pub(crate) fault: FaultTolerance,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) books: Books,
    /// One health flag per worker slot; `false` = quarantined.
    pub(crate) health: Vec<AtomicBool>,
}

impl Harness {
    /// Workers still in service.
    pub(crate) fn healthy_workers(&self) -> usize {
        self.health
            .iter()
            .filter(|h| h.load(Ordering::Acquire))
            .count()
    }
}

/// Spawns one thread per health slot, draining the harness queue until it
/// closes and empties (or the worker quarantines itself).
pub(crate) fn spawn_workers(harness: &Arc<Harness>) -> Vec<JoinHandle<()>> {
    (0..harness.health.len())
        .map(|worker| {
            let harness = Arc::clone(harness);
            std::thread::Builder::new()
                .name(format!("nacu-worker-{worker}"))
                .spawn(move || run_worker(worker, &harness))
                .expect("spawn engine worker thread")
        })
        .collect()
}

fn run_worker(worker: usize, shared: &Harness) {
    // Per-worker unit; the config was validated when the engine was built.
    // Every batch walks it, so the parity / residue detectors see the
    // real nets of a fault-planned slot.
    let unit = CheckedNacu::new(shared.config)
        .expect("engine validated the config")
        .with_plan(shared.fault.plan_for(worker))
        .with_detectors(shared.fault.detectors);
    let mut batches_served: u64 = 0;
    // Every batch is popped into and served from the same scratch Vecs,
    // so the steady-state loop never allocates.
    let mut scratch = Scratch::default();
    while shared
        .queue
        .pop_batch_into(shared.max_coalesced_requests, &mut scratch.jobs)
    {
        // Periodic BIST scrub: walk the σ segment ladder before taking
        // more work, catching ROM corruption the workload's addresses
        // would never touch.
        let scrub_due = shared.fault.scrub_every_batches > 0
            && batches_served > 0
            && batches_served.is_multiple_of(shared.fault.scrub_every_batches);
        if scrub_due {
            shared.books.obs.record_trace(TraceKind::Scrub {
                worker: worker as u32,
            });
            if let Err(event) = unit.scrub() {
                quarantine(worker, event, std::mem::take(&mut scratch.jobs), shared);
                return;
            }
        }
        match serve_batch(worker, &unit, &mut scratch, shared) {
            Ok(()) => batches_served += 1,
            Err((event, stranded)) => {
                quarantine(worker, event, stranded, shared);
                return;
            }
        }
    }
}

/// Takes this worker out of service and re-routes its in-flight jobs.
fn quarantine(worker: usize, event: FaultEvent, jobs: Vec<Job>, shared: &Harness) {
    let books = &shared.books;
    shared.health[worker].store(false, Ordering::Release);
    books.metrics.add(Counter::FaultsDetected, 1);
    books.metrics.add(Counter::WorkersQuarantined, 1);
    books
        .obs
        .record_trace(TraceKind::fault(worker as u32, &event));
    books.obs.record_trace(TraceKind::Quarantine {
        worker: worker as u32,
    });
    let any_healthy = shared.healthy_workers() > 0;
    if !any_healthy {
        // Close the door BEFORE answering anyone: a client that hears
        // `NoHealthyWorkers` and immediately resubmits must get
        // `ShuttingDown`, not a slot in a queue nobody will ever drain.
        shared.queue.close();
    }
    let fail = |mut job: Job, error: RequestError| {
        books.abandon_record(job.record);
        books.metrics.add(Counter::RequestsFailed, 1);
        job.reply.complete(Err(error));
    };
    for mut job in jobs {
        if !any_healthy {
            fail(job, RequestError::NoHealthyWorkers);
        } else if job.retries >= shared.fault.max_retries {
            let attempts = job.retries + 1;
            fail(job, RequestError::FaultDetected { event, attempts });
        } else {
            job.retries += 1;
            books.metrics.add(Counter::Retries, 1);
            books.obs.record_trace(TraceKind::Retry {
                req: job.id,
                worker: worker as u32,
                attempts: job.retries,
            });
            if let Err(PushError::Full(job) | PushError::Closed(job)) = shared.queue.try_push(job) {
                let attempts = job.retries;
                fail(job, RequestError::FaultDetected { event, attempts });
            }
        }
    }
    if !any_healthy {
        // Last one out answers whatever was stranded behind the door.
        for job in shared.queue.drain() {
            fail(job, RequestError::NoHealthyWorkers);
        }
    }
}

/// Serves one coalesced batch from `scratch.jobs` along the worker's
/// checked datapath: σ/tanh/exp through [`serve_unary`], softmax through
/// [`serve_softmax`]. On a detector event, returns the batch's
/// still-unanswered jobs so the caller can re-route them — partial
/// results from the flagged unit are discarded, never sent.
fn serve_batch(
    worker: usize,
    unit: &CheckedNacu,
    scratch: &mut Scratch,
    shared: &Harness,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let Some(function) = scratch.jobs.first().map(|job| job.request.function) else {
        return Ok(());
    };
    if scalar_function(function) {
        serve_unary(worker, &DatapathWalk::new(unit, function), scratch, shared)
    } else {
        serve_softmax(worker, unit, scratch, shared)
    }
}

/// Walks one fused unary batch, each job into a fresh buffer so a
/// mid-batch detector event leaves every operand buffer pristine for the
/// retry path, then accounts and answers it.
fn serve_unary(
    worker: usize,
    walk: &DatapathWalk<'_>,
    scratch: &mut Scratch,
    shared: &Harness,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let Some(function) = take_live(worker, scratch, shared) else {
        return Ok(());
    };
    let Scratch { live, samples, .. } = scratch;
    let books = &shared.books;
    // One fused pipelined pass over every live request's operands.
    let batch_ops: usize = live.iter().map(|j| j.request.operands.len()).sum();
    books.obs.record_trace(TraceKind::BatchStart {
        worker: worker as u32,
        function,
        ops: batch_ops as u32,
    });
    books.plan_samples(
        batch_ops,
        live.iter().map(|j| &j.request.operands[..]),
        samples,
    );
    let service_start = Instant::now();
    let mut per_job = Vec::with_capacity(live.len());
    for job in live.iter() {
        let mut outputs = job.request.operands.clone();
        if let Err(event) = walk.execute(&mut outputs) {
            return Err((event, std::mem::take(live)));
        }
        per_job.push(outputs);
    }
    books.observe_samples(worker, function, samples, |j, o| per_job[j][o]);
    let service_ns = as_ns(service_start.elapsed());
    books.finish_batch(worker, function, live.len(), batch_ops, false, service_ns);
    for (job, outputs) in live.iter_mut().zip(per_job) {
        let response = books.respond(
            worker,
            job.id,
            &job.request,
            job.submitted_at,
            job.record,
            outputs,
            batch_ops,
        );
        job.reply.complete(Ok(response));
    }
    live.clear();
    Ok(())
}

/// Walks softmax jobs one vector at a time (softmax never coalesces, so
/// this is a singleton batch), each into a fresh buffer.
///
/// The walk cannot meet a malformed vector: `submit` rejected empty
/// vectors and foreign formats, and the vector's maximum adds exp(0) =
/// 1.0 to the denominator, so the divider's divide-by-zero cannot occur
/// either. This step relies on that, but unwraps nothing: an `Err` other
/// than a detector event answers the job `EngineShutDown` (see
/// [`Books::refuse`]).
fn serve_softmax(
    worker: usize,
    unit: &CheckedNacu,
    scratch: &mut Scratch,
    shared: &Harness,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let Some(function) = take_live(worker, scratch, shared) else {
        return Ok(());
    };
    let books = &shared.books;
    let live = &mut scratch.live;
    for index in 0..live.len() {
        let n = live[index].request.operands.len();
        books.obs.record_trace(TraceKind::BatchStart {
            worker: worker as u32,
            function,
            ops: n as u32,
        });
        let service_start = Instant::now();
        let job = &mut live[index];
        let outcome = match unit.softmax(&job.request.operands) {
            Ok(outputs) => {
                let service_ns = as_ns(service_start.elapsed());
                books.finish_batch(worker, function, 1, n, false, service_ns);
                Ok(books.respond(
                    worker,
                    job.id,
                    &job.request,
                    job.submitted_at,
                    job.record,
                    outputs,
                    n,
                ))
            }
            Err(CheckedError::Fault(event)) => {
                return Err((event, live.drain(index..).collect()));
            }
            Err(CheckedError::Nacu(_)) => Err(books.refuse(job.record)),
        };
        job.reply.complete(outcome);
    }
    live.clear();
    Ok(())
}

/// Moves the unexpired jobs of `scratch.jobs` into `scratch.live`,
/// answering the expired ones, so they neither cost datapath work nor
/// inflate the fused batch. Pickup marks the end of every live job's
/// queue wait. Returns the batch's function, `None` if nothing is live.
fn take_live(worker: usize, scratch: &mut Scratch, shared: &Harness) -> Option<Function> {
    let books = &shared.books;
    let now = Instant::now();
    let live = &mut scratch.live;
    live.clear();
    for mut job in scratch.jobs.drain(..) {
        if job.request.deadline.is_some_and(|d| d < now) {
            let error = books.expire(job.id, job.request.function, job.record);
            job.reply.complete(Err(error));
        } else {
            live.push(job);
        }
    }
    let function = live.first()?.request.function;
    for job in live.iter() {
        books.obs.record_latency(
            Stage::QueueWait,
            function,
            as_ns(now.duration_since(job.submitted_at)),
        );
    }
    if live.len() > 1 {
        books.obs.record_trace(TraceKind::Coalesce {
            worker: worker as u32,
            requests: live.len() as u32,
        });
    }
    Some(function)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu::Function;
    use nacu_faults::{DetectorSet, Fault, FaultPlan, InjectionSite};
    use nacu_fixed::{Fx, Rounding};

    fn books(obs: Obs) -> Books {
        Books {
            metrics: Arc::new(EngineMetrics::new()),
            obs: Arc::new(obs),
            recorder: None,
        }
    }

    fn shared(plans: Vec<FaultPlan>, slots: usize) -> Arc<Harness> {
        Arc::new(Harness {
            config: NacuConfig::paper_16bit(),
            max_coalesced_requests: 8,
            fault: FaultTolerance {
                max_retries: 2,
                scrub_every_batches: 0,
                detectors: DetectorSet::all(),
                plans,
            },
            queue: BoundedQueue::new(64),
            books: books(Obs::with_trace_capacity(64)),
            health: (0..slots).map(|_| AtomicBool::new(true)).collect(),
        })
    }

    /// Test adapter: serves one owned batch along the worker's walk
    /// through the scratch-buffer signature of [`serve_batch`].
    fn serve(
        worker: usize,
        unit: &CheckedNacu,
        jobs: Vec<Job>,
        s: &Harness,
    ) -> Result<(), (FaultEvent, Vec<Job>)> {
        let mut scratch = Scratch {
            jobs,
            ..Scratch::default()
        };
        serve_batch(worker, unit, &mut scratch, s)
    }

    /// A healthy engine's inline state: the golden unit, with or without
    /// its tables.
    fn inline(with_tables: bool) -> Inline {
        let nacu = Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
        let tables = with_tables.then(|| ResponseTables::build(&nacu).expect("16-bit fits"));
        Inline {
            tables,
            nacu,
            closed: AtomicBool::new(false),
        }
    }

    /// Serves `request` inline, as a healthy engine's `submit` does.
    fn inline_serve(books: &Books, inline: &Inline, request: Request) -> Response {
        serve_inline(
            books,
            inline,
            0,
            request,
            Instant::now(),
            nacu_replay::NO_RECORD_SLOT,
        )
        .expect("served")
    }

    fn sigmoid_of(v: f64) -> Request {
        let fmt = NacuConfig::paper_16bit().format;
        Request::new(
            Function::Sigmoid,
            vec![Fx::from_f64(v, fmt, Rounding::Nearest)],
        )
    }

    fn job(v: f64) -> (Job, crate::Ticket) {
        let (ticket, reply) = crate::wake::pair(0);
        (
            Job {
                id: 0,
                request: sigmoid_of(v),
                reply,
                retries: 0,
                submitted_at: Instant::now(),
                record: nacu_replay::NO_RECORD_SLOT,
            },
            ticket,
        )
    }

    fn lut_fault_plan() -> FaultPlan {
        // Entry 0 serves x ≈ 0, so any job near zero trips parity.
        FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true))
    }

    /// The inline path answers from the tables, bit-identical to the
    /// datapath, and the served operands are counted on the dedicated
    /// counter alongside the per-function one.
    #[test]
    fn fast_path_serves_bit_identical_outputs_and_counts_ops() {
        let books = books(Obs::with_trace_capacity(64));
        let inline = inline(true);
        let a_out = inline_serve(&books, &inline, sigmoid_of(0.25));
        let b_out = inline_serve(&books, &inline, sigmoid_of(-1.5));
        let expect = |v: f64| inline.nacu.sigmoid(sigmoid_of(v).operands[0]);
        assert_eq!(a_out.outputs, vec![expect(0.25)]);
        assert_eq!(b_out.outputs, vec![expect(-1.5)]);
        assert_eq!(
            a_out.worker,
            Response::INLINE,
            "inline answers carry the marker"
        );
        let m = books.metrics.snapshot();
        assert_eq!(m.fast_path_ops, 2);
        assert_eq!(m.sigmoid_ops, 2, "fast path still feeds the op counter");
        assert_eq!(
            m.modeled_cycles,
            2 * modeled_batch_cycles(Function::Sigmoid, 1),
            "Table I accounting models the hardware, not the software path"
        );
        // The inline path never queued: no queue wait, no coalescing.
        let snap = books.obs.snapshot();
        assert_eq!(snap.stage_merged(Stage::QueueWait).count, 0);
        assert_eq!(snap.stage_merged(Stage::EndToEnd).count, 2);
        let names: Vec<&str> = books
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(!names.contains(&"coalesce"), "{names:?}");
    }

    /// Softmax on the inline path: the kernel normalises the vector in
    /// place, bit-identical to the walk, and counts it as fast path.
    #[test]
    fn softmax_is_served_from_the_kernel() {
        let books = books(Obs::with_trace_capacity(64));
        let inline = inline(true);
        let fmt = NacuConfig::paper_16bit().format;
        let xs: Vec<Fx> = [-2.0, 0.5, 3.25, -0.125]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        let response = inline_serve(&books, &inline, Request::new(Function::Softmax, xs.clone()));
        let golden = inline.nacu.softmax(&xs).expect("valid vector");
        assert_eq!(response.outputs, golden);
        assert_eq!(books.metrics.snapshot().fast_path_ops, xs.len() as u64);
    }

    /// With no table for the function, the inline path serves from the
    /// kernel: in place, bit-identical, counted as fast path.
    #[test]
    fn kernel_serves_batches_without_a_table() {
        let books = books(Obs::with_trace_capacity(64));
        let inline = inline(false);
        for v in [0.25, -1.5] {
            let request = sigmoid_of(v);
            let x = request.operands[0];
            let out = inline_serve(&books, &inline, request);
            assert_eq!(out.outputs, vec![inline.nacu.sigmoid(x)]);
        }
        assert_eq!(books.metrics.snapshot().fast_path_ops, 2);
    }

    /// Deterministic unit test of the retry path: a faulted worker's
    /// batch is requeued with a bumped retry count, not answered.
    #[test]
    fn detected_fault_requeues_the_job_for_a_healthy_peer() {
        let s = shared(vec![lut_fault_plan(), FaultPlan::new()], 2);
        let unit = CheckedNacu::new(s.config)
            .expect("paper config")
            .with_plan(s.fault.plan_for(0));
        let (j, rx) = job(0.0);
        let (event, stranded) = serve(0, &unit, vec![j], &s).unwrap_err();
        assert_eq!(event, FaultEvent::LutParity { entry: 0 });
        quarantine(0, event, stranded, &s);
        // Worker 0 is out; worker 1 is healthy, so the job went back into
        // the queue with one retry on the clock, and the client heard
        // nothing yet.
        assert!(!s.health[0].load(Ordering::Acquire));
        assert!(s.health[1].load(Ordering::Acquire));
        assert_eq!(s.queue.depth(), 1);
        assert!(rx.try_wait().is_none(), "no reply until a healthy serve");
        let requeued = s.queue.drain().remove(0);
        assert_eq!(requeued.retries, 1);
        let m = s.books.metrics.snapshot();
        assert_eq!(m.faults_detected, 1);
        assert_eq!(m.workers_quarantined, 1);
        assert_eq!(m.retries, 1);
        assert_eq!(m.requests_failed, 0);
        // The whole episode is visible in the trace ring, in order.
        let names: Vec<&str> = s
            .books
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(names, ["batch_start", "fault", "quarantine", "retry"]);
    }

    /// A healthy serve feeds every observability surface: stage
    /// histograms, cycle accounting, and batch start/end trace events.
    #[test]
    fn healthy_serve_records_latencies_cycles_and_traces() {
        let s = shared(Vec::new(), 1);
        let unit = CheckedNacu::new(s.config).expect("paper config");
        let (a, a_rx) = job(0.25);
        let (b, b_rx) = job(-0.5);
        serve(0, &unit, vec![a, b], &s).expect("healthy batch");
        assert!(a_rx.try_wait().expect("reply").is_ok());
        assert!(b_rx.try_wait().expect("reply").is_ok());
        let snap = s.books.obs.snapshot();
        use nacu::Function;
        let qw = snap.stage(Stage::QueueWait, Function::Sigmoid).unwrap();
        assert_eq!(qw.count, 2, "one queue-wait sample per live job");
        let svc = snap.stage(Stage::BatchService, Function::Sigmoid).unwrap();
        assert_eq!(svc.count, 1, "one service sample per fused batch");
        let e2e = snap.stage(Stage::EndToEnd, Function::Sigmoid).unwrap();
        assert_eq!(e2e.count, 2);
        assert!(e2e.max >= qw.max, "end-to-end contains the queue wait");
        let row = snap.cycles.row(Function::Sigmoid).unwrap();
        assert_eq!(row.batches, 1);
        assert_eq!(row.ops, 2);
        assert_eq!(
            row.modeled_cycles,
            modeled_batch_cycles(Function::Sigmoid, 2)
        );
        assert_eq!(
            row.checked_cycles,
            modeled_checked_batch_cycles(Function::Sigmoid, 2)
        );
        let names: Vec<&str> = s
            .books
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        // The first reply sets the tail-exemplar high-water mark, so at
        // least one reply also leaves a `tail_exemplar` event; how many
        // depends on the measured latencies, so assert the lifecycle
        // sequence with exemplars filtered out.
        assert!(names.contains(&"tail_exemplar"), "{names:?}");
        let lifecycle: Vec<&str> = names
            .iter()
            .copied()
            .filter(|&n| n != "tail_exemplar")
            .collect();
        assert_eq!(
            lifecycle,
            ["coalesce", "batch_start", "batch_end", "reply", "reply"]
        );
    }

    /// Shadow sampling catches silent numerical drift: a LUT-bias
    /// perturbation too small (or too unlucky) for the armed detectors
    /// still latches a drift alarm against the f64 reference.
    #[test]
    fn shadow_sampling_latches_a_drift_alarm_on_lut_bias_corruption() {
        use nacu::Nacu;
        use nacu_obs::HealthConfig;
        let config = NacuConfig::paper_16bit();
        // Flip bias bit 4 (2⁻⁹ ≈ 1.95e-3 in Q2.13) of whichever segment
        // serves x = 0.5. That perturbation minus the clean fit's worst
        // case (~8.6e-4) still exceeds the Eq. 7 sigmoid bound, so the
        // sampled operand must alarm. Detectors stay off to model a
        // corruption the parity net misses.
        let golden = Nacu::new(config).expect("paper config");
        let x = Fx::from_f64(0.5, config.format, Rounding::Nearest);
        let entry = golden.lookup_index(golden.magnitude_raw(x));
        let clean_bias = golden.coefficients()[entry].1;
        let stuck = (clean_bias >> 4) & 1 == 0;
        let s = Arc::new(Harness {
            config,
            max_coalesced_requests: 8,
            fault: FaultTolerance {
                max_retries: 0,
                scrub_every_batches: 0,
                detectors: DetectorSet::none(),
                plans: vec![FaultPlan::single(Fault::stuck_lut(
                    InjectionSite::LutBias,
                    entry,
                    4,
                    stuck,
                ))],
            },
            queue: BoundedQueue::new(64),
            books: books(
                Obs::with_trace_capacity(64).with_health(HealthConfig::for_nacu(&config, 1)),
            ),
            health: vec![AtomicBool::new(true)],
        });
        let unit = CheckedNacu::new(s.config)
            .expect("paper config")
            .with_plan(s.fault.plan_for(0))
            .with_detectors(s.fault.detectors);
        let (j, rx) = job(0.5);
        serve(0, &unit, vec![j], &s).expect("no detectors armed");
        assert!(rx.try_wait().expect("reply").is_ok(), "served, not failed");
        assert!(s.books.obs.health().alarm_latched(), "drift alarm latched");
        assert!(s.books.metrics.snapshot().drift_alarms >= 1);
        let names: Vec<&str> = s
            .books
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"drift_alarm"), "{names:?}");
    }

    /// Deterministic unit test of retry exhaustion: a job that has
    /// already bounced `max_retries` times gets the typed terminal error.
    #[test]
    fn exhausted_retries_surface_the_typed_fault_error() {
        let s = shared(vec![lut_fault_plan(), FaultPlan::new()], 2);
        let (mut j, rx) = job(0.0);
        j.retries = s.fault.max_retries;
        let event = FaultEvent::LutParity { entry: 0 };
        quarantine(0, event, vec![j], &s);
        match rx.try_wait().expect("terminal reply") {
            Err(crate::WaitError::FaultDetected { event: e, attempts }) => {
                assert_eq!(e, event);
                assert_eq!(attempts, s.fault.max_retries + 1);
            }
            other => panic!("expected FaultDetected, got {other:?}"),
        }
        assert_eq!(s.books.metrics.snapshot().requests_failed, 1);
        assert_eq!(s.queue.depth(), 0);
    }

    /// Deterministic unit test of pool exhaustion: the last healthy
    /// worker's quarantine fails its jobs, drains the queue and closes it.
    #[test]
    fn last_quarantine_fails_stranded_jobs_and_closes_the_queue() {
        let s = shared(vec![lut_fault_plan()], 1);
        let (queued, queued_rx) = job(0.5);
        s.queue.try_push(queued).map_err(|_| ()).unwrap();
        let (in_flight, in_flight_rx) = job(0.0);
        quarantine(0, FaultEvent::LutParity { entry: 0 }, vec![in_flight], &s);
        assert_eq!(
            in_flight_rx.try_wait().expect("terminal reply"),
            Err(crate::WaitError::NoHealthyWorkers)
        );
        assert_eq!(
            queued_rx.try_wait().expect("drained reply"),
            Err(crate::WaitError::NoHealthyWorkers)
        );
        // Queue is closed: further pushes bounce.
        let (late, _late_rx) = job(1.0);
        assert!(matches!(s.queue.try_push(late), Err(PushError::Closed(_))));
        assert_eq!(s.books.metrics.snapshot().requests_failed, 2);
    }

    /// The quarantine invariant, end to end on real threads: after a
    /// worker's detector fires, that worker never serves another batch.
    #[test]
    fn quarantined_worker_never_serves_another_batch() {
        let s = shared(vec![lut_fault_plan()], 1);
        let handles = spawn_workers(&s);
        // First job trips entry 0's parity on worker 0 → quarantine →
        // no healthy workers → queue closed, worker thread exited.
        let (j, rx) = job(0.0);
        s.queue.try_push(j).map_err(|_| ()).unwrap();
        assert_eq!(rx.wait(), Err(crate::WaitError::NoHealthyWorkers));
        for h in handles {
            h.join().expect("worker exited cleanly after quarantine");
        }
        // The thread is gone; nothing can serve. A late push bounces off
        // the closed queue rather than waiting on a dead pool.
        let (late, _rx) = job(2.0);
        assert!(matches!(s.queue.try_push(late), Err(PushError::Closed(_))));
        assert_eq!(s.books.metrics.snapshot().workers_quarantined, 1);
    }

    /// Scrub-driven quarantine: corruption in a LUT entry the workload
    /// never addresses is still caught at the scrub interval.
    #[test]
    fn periodic_scrub_catches_unaddressed_corruption() {
        let mut s = shared(
            vec![FaultPlan::single(Fault::stuck_lut(
                InjectionSite::LutBias,
                20,
                13,
                true,
            ))],
            1,
        );
        Arc::get_mut(&mut s)
            .expect("sole owner")
            .fault
            .scrub_every_batches = 1;
        let handles = spawn_workers(&s);
        // Batch 1 (x≈0 never touches entry 20) serves fine…
        let (first, first_rx) = job(0.0);
        s.queue.try_push(first).map_err(|_| ()).unwrap();
        assert!(first_rx.wait().is_ok());
        // …then the scrub before batch 2 walks every segment and fires.
        let (second, second_rx) = job(0.0);
        s.queue.try_push(second).map_err(|_| ()).unwrap();
        assert_eq!(second_rx.wait(), Err(crate::WaitError::NoHealthyWorkers));
        for h in handles {
            h.join().expect("worker exited after scrub quarantine");
        }
        assert_eq!(s.books.metrics.snapshot().faults_detected, 1);
    }
}
