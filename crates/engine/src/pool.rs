//! The sharded worker pool: one OS thread and one bit-accurate NACU unit
//! per worker, with fault detection, quarantine and bounded retry.
//!
//! Each worker constructs its **own** [`CheckedNacu`] instance from the
//! shared [`NacuConfig`] at thread start — construction is deterministic
//! (the LUT fit is a pure function of the config), so every shard holds
//! bit-identical ROM contents and a healthy pool answers exactly what a
//! single sequential unit would. This mirrors the paper's fabric view:
//! many physical NACU instances configured alike, fed from one stream of
//! work.
//!
//! Healthy engines compute on the caller; the pool walks and is the
//! fault harness. An engine with the fast path on and no fault plan on
//! any slot serves every request inside `submit` ([`serve_inline`]):
//! σ/tanh/exp from the response table where the format has one and from
//! the integer kernel ([`nacu::Nacu::kernel_in_place`]) where it has
//! none, and every softmax from [`nacu::Nacu::kernel_softmax`]. Only the
//! other engines — a fault plan on some slot, or the fast path off —
//! queue work, and every worker serves it by walking its [`CheckedNacu`],
//! whose taps and detectors sit on the walk's nets. Both run the same
//! [`serve_unary`] and [`serve_softmax`] steps.
//!
//! The fault story, end to end:
//!
//! 1. A worker's unit carries the [`FaultPlan`] its slot was configured
//!    with (empty in production; populated by tests and campaigns) and the
//!    pool-wide [`nacu_faults::DetectorSet`].
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

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nacu::{Function, Nacu, NacuConfig, ResponseTable, ResponseTables};
use nacu_faults::{CheckedError, CheckedNacu, FaultEvent};
use nacu_obs::{Obs, Stage, TraceKind};
use nacu_replay::Recorder;

use crate::batch::{scalar_function, Request, RequestError, Response};
use crate::executor::{BatchExecutor, DatapathWalk};
use crate::metrics::{Counter, EngineMetrics};
use crate::queue::{BoundedQueue, Coalesce, PushError};
use crate::report::{modeled_batch_cycles, modeled_checked_batch_cycles};
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
    pub(crate) record: u32,
}

impl Coalesce for Job {
    fn coalesce_key(&self) -> u32 {
        self.request.coalesce_key()
    }
}

/// A serving thread's reusable buffers: the popped batch, its unexpired
/// jobs, and the shadow-sampling plan — (job, operand, pre-overwrite x).
#[derive(Default)]
struct Scratch {
    jobs: Vec<Job>,
    live: Vec<Job>,
    samples: Vec<(usize, usize, f64)>,
}

/// Saturating nanoseconds of a duration (a serving interval never
/// realistically exceeds u64 ns ≈ 584 years, but the cast must not wrap).
fn as_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Everything a worker thread shares with the pool.
#[derive(Debug)]
pub(crate) struct PoolShared {
    pub(crate) config: NacuConfig,
    pub(crate) max_coalesced_requests: usize,
    pub(crate) fault: FaultTolerance,
    pub(crate) queue: Arc<BoundedQueue<Job>>,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) obs: Arc<Obs>,
    /// One health flag per worker slot; `false` = quarantined.
    pub(crate) health: Arc<Vec<AtomicBool>>,
    /// Trace recorder workers complete reply halves into, `None` when
    /// the engine runs unrecorded.
    pub(crate) recorder: Option<Arc<Recorder>>,
}

/// Completes a served job's trace record with its response codes.
fn record_reply(shared: &PoolShared, slot: u32, outputs: &[nacu_fixed::Fx]) {
    if let Some(recorder) = &shared.recorder {
        if recorder.complete(slot, outputs.iter().map(|y| y.raw() as i16)) {
            shared.metrics.add(Counter::ReplayRecordsCaptured, 1);
        }
    }
}

/// Releases the trace record of a job that will never be served.
fn abandon_record(shared: &PoolShared, slot: u32) {
    if let Some(recorder) = &shared.recorder {
        recorder.abandon(slot);
    }
}

/// Spawns one thread per health slot, draining `shared.queue` until it
/// closes and empties (or the worker quarantines itself).
pub(crate) fn spawn_workers(shared: &Arc<PoolShared>) -> Vec<JoinHandle<()>> {
    (0..shared.health.len())
        .map(|worker| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("nacu-worker-{worker}"))
                .spawn(move || run_worker(worker, &shared))
                .expect("spawn engine worker thread")
        })
        .collect()
}

fn run_worker(worker: usize, shared: &PoolShared) {
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
            shared.obs.record_trace(TraceKind::Scrub {
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
fn quarantine(worker: usize, event: FaultEvent, jobs: Vec<Job>, shared: &PoolShared) {
    shared.health[worker].store(false, Ordering::Release);
    shared.metrics.add(Counter::FaultsDetected, 1);
    shared.metrics.add(Counter::WorkersQuarantined, 1);
    shared
        .obs
        .record_trace(TraceKind::fault(worker as u32, &event));
    shared.obs.record_trace(TraceKind::Quarantine {
        worker: worker as u32,
    });
    let any_healthy = shared.health.iter().any(|h| h.load(Ordering::Acquire));
    if !any_healthy {
        // Close the door BEFORE answering anyone: a client that hears
        // `NoHealthyWorkers` and immediately resubmits must get
        // `ShuttingDown`, not a slot in a queue nobody will ever drain.
        shared.queue.close();
    }
    for mut job in jobs {
        if !any_healthy {
            abandon_record(shared, job.record);
            shared.metrics.add(Counter::RequestsFailed, 1);
            job.reply.complete(Err(RequestError::NoHealthyWorkers));
        } else if job.retries >= shared.fault.max_retries {
            abandon_record(shared, job.record);
            shared.metrics.add(Counter::RequestsFailed, 1);
            job.reply.complete(Err(RequestError::FaultDetected {
                event,
                attempts: job.retries + 1,
            }));
        } else {
            job.retries += 1;
            shared.metrics.add(Counter::Retries, 1);
            shared.obs.record_trace(TraceKind::Retry {
                req: job.id,
                worker: worker as u32,
                attempts: job.retries,
            });
            if let Err(PushError::Full(mut job) | PushError::Closed(mut job)) =
                shared.queue.try_push(job)
            {
                abandon_record(shared, job.record);
                shared.metrics.add(Counter::RequestsFailed, 1);
                job.reply.complete(Err(RequestError::FaultDetected {
                    event,
                    attempts: job.retries,
                }));
            }
        }
    }
    if !any_healthy {
        // Last one out answers whatever was stranded behind the door.
        for mut job in shared.queue.drain() {
            abandon_record(shared, job.record);
            shared.metrics.add(Counter::RequestsFailed, 1);
            job.reply.complete(Err(RequestError::NoHealthyWorkers));
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
    shared: &PoolShared,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let Some(function) = scratch.jobs.first().map(|job| job.request.function) else {
        return Ok(());
    };
    if scalar_function(function) {
        let walk = Unary::Datapath(DatapathWalk::new(unit, function));
        serve_unary(worker, &walk, scratch, shared)
    } else {
        serve_softmax(worker, Vector::Walk(unit), scratch, shared)
    }
}

/// What a healthy engine serves with on the submitting thread: its
/// response tables, where the format fits the table budget, and the
/// golden unit whose integer kernel serves everything else.
#[derive(Debug)]
pub(crate) struct Inline {
    pub(crate) tables: Option<ResponseTables>,
    pub(crate) nacu: Nacu,
}

/// Serves one submitted request on the calling thread:
/// [`crate::EngineHandle::submit`]'s inline path, running the very
/// [`serve_unary`] / [`serve_softmax`] steps a worker runs, over a
/// one-job batch. Its trace events and [`Response::worker`] carry the
/// pool size as worker index — one past the last pool worker. The
/// scratch buffers are thread-local, so a steady stream of submissions
/// allocates nothing beyond the ticket.
pub(crate) fn serve_inline(shared: &PoolShared, inline: &Inline, job: Job) {
    thread_local! {
        static SCRATCH: Cell<Scratch> = Cell::default();
    }
    let mut scratch = SCRATCH.take();
    let function = job.request.function;
    scratch.jobs.push(job);
    let worker = shared.health.len();
    let served = if scalar_function(function) {
        let exec = match inline.tables.as_ref().and_then(|t| t.get(function)) {
            Some(table) => Unary::Table(table),
            None => Unary::Kernel(&inline.nacu),
        };
        serve_unary(worker, &exec, &mut scratch, shared)
    } else {
        serve_softmax(worker, Vector::Kernel(&inline.nacu), &mut scratch, shared)
    };
    // Only the walk arms return `Err` (a detector event), and this path
    // has none. Were one returned, dropping its stranded jobs would
    // resolve their tickets as `EngineShutDown` — nothing here panics on
    // the caller's thread.
    drop(served);
    SCRATCH.set(scratch);
}

/// How a unary batch computes its outputs.
enum Unary<'a> {
    /// The table gather (inline only): bit-identical by construction (the
    /// tables were built by the kernel, itself proven equal to the golden
    /// walk) and infallible, so outputs overwrite each operand buffer in
    /// place and the buffer itself becomes the response — nothing is
    /// allocated per operand or per request.
    Table(&'a ResponseTable),
    /// The integer kernel, for formats with no table (inline only):
    /// infallible and in place like the gather.
    Kernel(&'a Nacu),
    /// The worker's checked datapath, into a fresh buffer per job, so a
    /// mid-batch detector event leaves every operand buffer pristine for
    /// the retry path.
    Datapath(DatapathWalk<'a>),
}

/// How a softmax vector is normalised.
#[derive(Clone, Copy)]
enum Vector<'a> {
    /// [`Nacu::kernel_softmax`], in place (inline only).
    Kernel(&'a Nacu),
    /// The worker's checked unit, into a fresh buffer.
    Walk(&'a CheckedNacu),
}

/// The unary-batch steps every serving thread shares — a worker over a
/// coalesced batch, [`serve_inline`] over one submitted request:
/// deadline expiry, queue-wait and service stages, shadow sampling,
/// cycle and counter accounting, trace events, trace-record completion
/// and the replies.
///
/// The shadow-sampling plan (which operands to sample, and their
/// pre-overwrite values) is laid out in `scratch.samples` before
/// execution and observed against the served outputs afterwards, keeping
/// the gather loop free of sampling branches.
fn serve_unary(
    worker: usize,
    exec: &Unary<'_>,
    scratch: &mut Scratch,
    shared: &PoolShared,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let Some(function) = take_live(worker, scratch, shared) else {
        return Ok(());
    };
    let Scratch { live, samples, .. } = scratch;
    let metrics = &shared.metrics;
    let obs = &shared.obs;
    // One fused pipelined pass over every live request's operands.
    let batch_ops: usize = live.iter().map(|j| j.request.operands.len()).sum();
    obs.record_trace(TraceKind::BatchStart {
        worker: worker as u32,
        function,
        ops: batch_ops as u32,
    });
    // Shadow-sampling plan for this batch: one relaxed fetch_add on the
    // shared decimation tick buys the whole batch's quota, then the quota
    // is spread evenly over the batch by striding — (job, operand,
    // pre-overwrite x).
    let health = obs.health();
    let sample_quota = health.batch_quota(batch_ops as u64);
    let sample_stride = (batch_ops as u64)
        .checked_div(sample_quota)
        .map_or(0, |s| s.max(1));
    samples.clear();
    if sample_quota > 0 {
        let mut next: u64 = 0;
        let mut base: u64 = 0;
        'plan: for (job_index, job) in live.iter().enumerate() {
            let len = job.request.operands.len() as u64;
            while next < base + len {
                let operand = (next - base) as usize;
                samples.push((job_index, operand, job.request.operands[operand].to_f64()));
                if samples.len() as u64 >= sample_quota {
                    break 'plan;
                }
                next += sample_stride;
            }
            base += len;
        }
    }
    let service_start = Instant::now();
    // `None` = served in place; `Some` = datapath outputs, one per job.
    let outputs_per_job = match exec {
        Unary::Table(table) => {
            for job in live.iter_mut() {
                table.lookup_in_place(&mut job.request.operands);
            }
            None
        }
        Unary::Kernel(nacu) => {
            for job in live.iter_mut() {
                nacu.kernel_in_place(function, &mut job.request.operands);
            }
            None
        }
        Unary::Datapath(walk) => {
            let mut per_job = Vec::with_capacity(live.len());
            for job in live.iter() {
                let mut outputs = job.request.operands.clone();
                if let Err(event) = walk.execute(&mut outputs) {
                    return Err((event, std::mem::take(live)));
                }
                per_job.push(outputs);
            }
            Some(per_job)
        }
    };
    // Observe the sampled (x, y) pairs against the f64 shadow reference,
    // reading y from wherever the outputs landed.
    for &(job_index, operand, x) in samples.iter() {
        let y = match &outputs_per_job {
            None => live[job_index].request.operands[operand],
            Some(per_job) => per_job[job_index][operand],
        };
        if let Some(alarm) = health.observe(function, x, y.to_f64()) {
            metrics.add(Counter::DriftAlarms, 1);
            obs.record_trace(TraceKind::DriftAlarm {
                worker: worker as u32,
                function,
                kind: alarm.kind,
            });
        }
    }
    let service_ns = as_ns(service_start.elapsed());
    let fast = !matches!(exec, Unary::Datapath(_));
    finish_batch(
        worker,
        function,
        live.len(),
        batch_ops,
        fast,
        service_ns,
        shared,
    );
    match outputs_per_job {
        None => {
            for job in live.iter_mut() {
                let outputs = std::mem::take(&mut job.request.operands);
                reply(worker, job, outputs, batch_ops, shared);
            }
        }
        Some(per_job) => {
            for (job, outputs) in live.iter_mut().zip(per_job) {
                reply(worker, job, outputs, batch_ops, shared);
            }
        }
    }
    live.clear();
    Ok(())
}

/// Serves softmax jobs one vector at a time (softmax never coalesces, so
/// this is a singleton batch). The kernel normalises the vector in place
/// and its buffer becomes the response; the walk writes a fresh buffer.
///
/// Neither can meet a malformed vector: `submit` rejected empty vectors
/// and foreign formats, and the vector's maximum adds exp(0) = 1.0 to the
/// denominator, so [`Nacu::kernel_softmax`]'s divide-by-zero cannot occur
/// either. This step relies on that, but unwraps nothing: an `Err` other
/// than a detector event answers the job `EngineShutDown` (see
/// [`refuse`]), since on the inline path the serving thread is the
/// caller's.
fn serve_softmax(
    worker: usize,
    exec: Vector<'_>,
    scratch: &mut Scratch,
    shared: &PoolShared,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let Some(function) = take_live(worker, scratch, shared) else {
        return Ok(());
    };
    let live = &mut scratch.live;
    for index in 0..live.len() {
        let n = live[index].request.operands.len();
        shared.obs.record_trace(TraceKind::BatchStart {
            worker: worker as u32,
            function,
            ops: n as u32,
        });
        let service_start = Instant::now();
        let operands = &mut live[index].request.operands;
        let outputs = match exec {
            Vector::Kernel(nacu) => nacu
                .kernel_softmax(operands)
                .map(|()| std::mem::take(operands)),
            Vector::Walk(unit) => match unit.softmax(operands) {
                Ok(outputs) => Ok(outputs),
                Err(CheckedError::Fault(event)) => {
                    return Err((event, live.drain(index..).collect()));
                }
                Err(CheckedError::Nacu(e)) => Err(e),
            },
        };
        let Ok(outputs) = outputs else {
            refuse(&mut live[index], shared);
            continue;
        };
        let service_ns = as_ns(service_start.elapsed());
        let fast = matches!(exec, Vector::Kernel(_));
        finish_batch(worker, function, 1, n, fast, service_ns, shared);
        reply(worker, &mut live[index], outputs, n, shared);
    }
    live.clear();
    Ok(())
}

/// Answers a job its datapath could not evaluate — unreachable after
/// `submit`'s checks (see [`serve_softmax`]) — as failed, without a
/// panic on the serving thread.
fn refuse(job: &mut Job, shared: &PoolShared) {
    abandon_record(shared, job.record);
    shared.metrics.add(Counter::RequestsFailed, 1);
    job.reply.complete(Err(RequestError::EngineShutDown));
}

/// Moves the unexpired jobs of `scratch.jobs` into `scratch.live`,
/// answering the expired ones, so they neither cost datapath work nor
/// inflate the fused batch. Pickup marks the end of every live job's
/// queue wait. Returns the batch's function, `None` if nothing is live.
fn take_live(worker: usize, scratch: &mut Scratch, shared: &PoolShared) -> Option<Function> {
    let obs = &shared.obs;
    let now = Instant::now();
    let live = &mut scratch.live;
    live.clear();
    for mut job in scratch.jobs.drain(..) {
        if job.request.deadline.is_some_and(|d| d < now) {
            abandon_record(shared, job.record);
            shared.metrics.add(Counter::RequestsExpired, 1);
            obs.record_trace(TraceKind::Expired {
                req: job.id,
                function: job.request.function,
            });
            job.reply.complete(Err(RequestError::DeadlineExpired));
        } else {
            live.push(job);
        }
    }
    let function = live.first()?.request.function;
    for job in live.iter() {
        obs.record_latency(
            Stage::QueueWait,
            function,
            as_ns(now.duration_since(job.submitted_at)),
        );
    }
    if live.len() > 1 {
        obs.record_trace(TraceKind::Coalesce {
            worker: worker as u32,
            requests: live.len() as u32,
        });
    }
    Some(function)
}

/// Accounts one served batch, `fast` when its operands were served without
/// the checked walk. Metrics are recorded BEFORE any reply is sent: a
/// client observing its response must also observe the counters that
/// account for it.
fn finish_batch(
    worker: usize,
    function: Function,
    requests: usize,
    ops: usize,
    fast: bool,
    service_ns: u64,
    shared: &PoolShared,
) {
    let obs = &shared.obs;
    let batch_cycles = modeled_batch_cycles(function, ops);
    obs.record_latency(Stage::BatchService, function, service_ns);
    obs.cycles().record_batch(
        function,
        ops as u64,
        batch_cycles,
        modeled_checked_batch_cycles(function, ops),
        service_ns,
    );
    obs.record_trace(TraceKind::BatchEnd {
        worker: worker as u32,
        function,
        ops: ops as u32,
        service_ns,
    });
    shared
        .metrics
        .record_batch(function, requests as u64, ops as u64, batch_cycles, fast);
}

/// Completes one served job: its trace record, its end-to-end latency
/// (tagged, so a tail-bucket request leaves an exemplar carrying its
/// request id and connection), its reply trace event, and its ticket.
fn reply(
    worker: usize,
    job: &mut Job,
    outputs: Vec<nacu_fixed::Fx>,
    batch_ops: usize,
    shared: &PoolShared,
) {
    let function = job.request.function;
    record_reply(shared, job.record, &outputs);
    let e2e_ns = as_ns(job.submitted_at.elapsed());
    shared.obs.record_latency_tagged(
        Stage::EndToEnd,
        function,
        e2e_ns,
        job.id,
        job.request.client,
    );
    shared.obs.record_trace(TraceKind::Reply {
        req: job.id,
        conn: job.request.client,
        worker: worker as u32,
        function,
        e2e_ns,
    });
    job.reply.complete(Ok(Response {
        outputs,
        worker,
        batch_ops,
        batch_cycles: modeled_batch_cycles(function, batch_ops),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu::Function;
    use nacu_faults::{DetectorSet, Fault, FaultPlan, InjectionSite};
    use nacu_fixed::{Fx, Rounding};

    fn shared(plans: Vec<FaultPlan>, slots: usize) -> Arc<PoolShared> {
        Arc::new(PoolShared {
            config: NacuConfig::paper_16bit(),
            max_coalesced_requests: 8,
            fault: FaultTolerance {
                max_retries: 2,
                scrub_every_batches: 0,
                detectors: DetectorSet::all(),
                plans,
            },
            queue: Arc::new(BoundedQueue::new(64)),
            metrics: Arc::new(EngineMetrics::new()),
            obs: Arc::new(Obs::with_trace_capacity(64)),
            health: Arc::new((0..slots).map(|_| AtomicBool::new(true)).collect()),
            recorder: None,
        })
    }

    /// Test adapter: serves one owned batch along the worker's walk
    /// through the scratch-buffer signature of [`serve_batch`].
    fn serve(
        worker: usize,
        unit: &CheckedNacu,
        jobs: Vec<Job>,
        s: &PoolShared,
    ) -> Result<(), (FaultEvent, Vec<Job>)> {
        let mut scratch = Scratch {
            jobs,
            ..Scratch::default()
        };
        serve_batch(worker, unit, &mut scratch, s)
    }

    /// A healthy engine's inline state: the golden unit, with or without
    /// its tables.
    fn inline(s: &PoolShared, with_tables: bool) -> Inline {
        let nacu = Nacu::new(s.config).expect("paper config");
        let tables = with_tables.then(|| ResponseTables::build(&nacu).expect("16-bit fits"));
        Inline { tables, nacu }
    }

    fn job(shared: &PoolShared, v: f64) -> (Job, crate::Ticket) {
        let fmt = shared.config.format;
        let (ticket, reply) = crate::wake::pair(0);
        (
            Job {
                id: 0,
                request: Request::new(
                    Function::Sigmoid,
                    vec![Fx::from_f64(v, fmt, Rounding::Nearest)],
                ),
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
        let s = shared(Vec::new(), 1);
        let inline = inline(&s, true);
        let (a, a_rx) = job(&s, 0.25);
        let (b, b_rx) = job(&s, -1.5);
        serve_inline(&s, &inline, a);
        serve_inline(&s, &inline, b);
        let fmt = s.config.format;
        let expect = |v: f64| inline.nacu.sigmoid(Fx::from_f64(v, fmt, Rounding::Nearest));
        let a_out = a_rx.try_wait().expect("reply").expect("served");
        let b_out = b_rx.try_wait().expect("reply").expect("served");
        assert_eq!(a_out.outputs, vec![expect(0.25)]);
        assert_eq!(b_out.outputs, vec![expect(-1.5)]);
        assert_eq!(a_out.worker, 1, "inline answers carry the pool size");
        let m = s.metrics.snapshot();
        assert_eq!(m.fast_path_ops, 2);
        assert_eq!(m.sigmoid_ops, 2, "fast path still feeds the op counter");
        assert_eq!(
            m.modeled_cycles,
            2 * modeled_batch_cycles(Function::Sigmoid, 1),
            "Table I accounting models the hardware, not the software path"
        );
    }

    /// Softmax on the inline path: the kernel normalises the vector in
    /// place, bit-identical to the walk, and counts it as fast path.
    #[test]
    fn softmax_is_served_from_the_kernel() {
        let s = shared(Vec::new(), 1);
        let inline = inline(&s, true);
        let fmt = s.config.format;
        let xs: Vec<Fx> = [-2.0, 0.5, 3.25, -0.125]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        let (ticket, reply) = crate::wake::pair(0);
        let j = Job {
            id: 0,
            request: Request::new(Function::Softmax, xs.clone()),
            reply,
            retries: 0,
            submitted_at: Instant::now(),
            record: nacu_replay::NO_RECORD_SLOT,
        };
        serve_inline(&s, &inline, j);
        let golden = inline.nacu.softmax(&xs).expect("valid vector");
        assert_eq!(
            ticket.try_wait().expect("reply").expect("served").outputs,
            golden
        );
        assert_eq!(s.metrics.snapshot().fast_path_ops, xs.len() as u64);
    }

    /// With no table for the function, the inline path serves from the
    /// kernel: in place, bit-identical, counted as fast path.
    #[test]
    fn kernel_serves_batches_without_a_table() {
        let s = shared(Vec::new(), 1);
        let inline = inline(&s, false);
        let (a, a_rx) = job(&s, 0.25);
        let (b, b_rx) = job(&s, -1.5);
        serve_inline(&s, &inline, a);
        serve_inline(&s, &inline, b);
        let fmt = s.config.format;
        for (rx, v) in [(a_rx, 0.25), (b_rx, -1.5)] {
            let x = Fx::from_f64(v, fmt, Rounding::Nearest);
            let out = rx.try_wait().expect("reply").expect("served");
            assert_eq!(out.outputs, vec![inline.nacu.sigmoid(x)]);
        }
        assert_eq!(s.metrics.snapshot().fast_path_ops, 2);
    }

    /// Deterministic unit test of the retry path: a faulted worker's
    /// batch is requeued with a bumped retry count, not answered.
    #[test]
    fn detected_fault_requeues_the_job_for_a_healthy_peer() {
        let s = shared(vec![lut_fault_plan(), FaultPlan::new()], 2);
        let unit = CheckedNacu::new(s.config)
            .expect("paper config")
            .with_plan(s.fault.plan_for(0));
        let (j, rx) = job(&s, 0.0);
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
        let m = s.metrics.snapshot();
        assert_eq!(m.faults_detected, 1);
        assert_eq!(m.workers_quarantined, 1);
        assert_eq!(m.retries, 1);
        assert_eq!(m.requests_failed, 0);
        // The whole episode is visible in the trace ring, in order.
        let names: Vec<&str> = s
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
        let (a, a_rx) = job(&s, 0.25);
        let (b, b_rx) = job(&s, -0.5);
        serve(0, &unit, vec![a, b], &s).expect("healthy batch");
        assert!(a_rx.try_wait().expect("reply").is_ok());
        assert!(b_rx.try_wait().expect("reply").is_ok());
        let snap = s.obs.snapshot();
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
        let s = Arc::new(PoolShared {
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
            queue: Arc::new(BoundedQueue::new(64)),
            metrics: Arc::new(EngineMetrics::new()),
            obs: Arc::new(
                Obs::with_trace_capacity(64).with_health(HealthConfig::for_nacu(&config, 1)),
            ),
            health: Arc::new(vec![AtomicBool::new(true)]),
            recorder: None,
        });
        let unit = CheckedNacu::new(s.config)
            .expect("paper config")
            .with_plan(s.fault.plan_for(0))
            .with_detectors(s.fault.detectors);
        let (j, rx) = job(&s, 0.5);
        serve(0, &unit, vec![j], &s).expect("no detectors armed");
        assert!(rx.try_wait().expect("reply").is_ok(), "served, not failed");
        assert!(s.obs.health().alarm_latched(), "drift alarm latched");
        assert!(s.metrics.snapshot().drift_alarms >= 1);
        let names: Vec<&str> = s
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
        let (mut j, rx) = job(&s, 0.0);
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
        assert_eq!(s.metrics.snapshot().requests_failed, 1);
        assert_eq!(s.queue.depth(), 0);
    }

    /// Deterministic unit test of pool exhaustion: the last healthy
    /// worker's quarantine fails its jobs, drains the queue and closes it.
    #[test]
    fn last_quarantine_fails_stranded_jobs_and_closes_the_queue() {
        let s = shared(vec![lut_fault_plan()], 1);
        let (queued, queued_rx) = job(&s, 0.5);
        s.queue.try_push(queued).map_err(|_| ()).unwrap();
        let (in_flight, in_flight_rx) = job(&s, 0.0);
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
        let (late, _late_rx) = job(&s, 1.0);
        assert!(matches!(s.queue.try_push(late), Err(PushError::Closed(_))));
        assert_eq!(s.metrics.snapshot().requests_failed, 2);
    }

    /// The quarantine invariant, end to end on real threads: after a
    /// worker's detector fires, that worker never serves another batch.
    #[test]
    fn quarantined_worker_never_serves_another_batch() {
        let s = shared(vec![lut_fault_plan()], 1);
        let handles = spawn_workers(&s);
        // First job trips entry 0's parity on worker 0 → quarantine →
        // no healthy workers → queue closed, worker thread exited.
        let (j, rx) = job(&s, 0.0);
        s.queue.try_push(j).map_err(|_| ()).unwrap();
        assert_eq!(rx.wait(), Err(crate::WaitError::NoHealthyWorkers));
        for h in handles {
            h.join().expect("worker exited cleanly after quarantine");
        }
        // The thread is gone; nothing can serve. A late push bounces off
        // the closed queue rather than waiting on a dead pool.
        let (late, _rx) = job(&s, 2.0);
        assert!(matches!(s.queue.try_push(late), Err(PushError::Closed(_))));
        assert_eq!(s.metrics.snapshot().workers_quarantined, 1);
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
        let (first, first_rx) = job(&s, 0.0);
        s.queue.try_push(first).map_err(|_| ()).unwrap();
        assert!(first_rx.wait().is_ok());
        // …then the scrub before batch 2 walks every segment and fires.
        let (second, second_rx) = job(&s, 0.0);
        s.queue.try_push(second).map_err(|_| ()).unwrap();
        assert_eq!(second_rx.wait(), Err(crate::WaitError::NoHealthyWorkers));
        for h in handles {
            h.join().expect("worker exited after scrub quarantine");
        }
        assert_eq!(s.metrics.snapshot().faults_detected, 1);
    }
}
