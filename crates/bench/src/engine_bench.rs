//! Engine throughput experiment: ops/s versus worker (shard) count.
//!
//! The serving-side counterpart of the §VII.C latency numbers: a fixed
//! workload of coalescible activation requests is pushed through clean
//! walking-harness [`nacu_engine::Engine`] pools of increasing width by
//! several client threads, and each pool's software throughput is
//! measured next to the modeled hardware cycle count. The single-worker
//! row is the sequential baseline. (A healthy engine has no pool: it
//! computes inline on the clients' threads.)

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use nacu::{Function, NacuConfig};
use nacu_engine::{Engine, EngineConfig, FaultTolerance, Request, SubmitError, ThroughputReport};
use nacu_fixed::{Fx, QFormat, Rounding};

/// One row of the worker-scaling experiment.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Pool width (NACU shards).
    pub workers: usize,
    /// Measured software throughput.
    pub ops_per_sec: f64,
    /// Speed-up over this sweep's single-worker row (1.0 for that row).
    pub speedup: f64,
    /// Busy rejections the clients absorbed (backpressure events).
    pub busy_rejections: u64,
    /// The interval's full report (modeled cycles, batching, …).
    pub report: ThroughputReport,
}

/// Workload shape for [`worker_scaling`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Client threads submitting concurrently.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Operands per request.
    pub operands_per_request: usize,
    /// Function under load (a scalar one coalesces across requests).
    pub function: Function,
}

impl Default for Workload {
    fn default() -> Self {
        Self {
            clients: 4,
            requests_per_client: 256,
            operands_per_request: 64,
            function: Function::Sigmoid,
        }
    }
}

fn operand_ramp(fmt: QFormat, n: usize) -> Vec<Fx> {
    (0..n)
        .map(|i| {
            let v = -6.0 + 12.0 * (i as f64) / (n.max(2) - 1) as f64;
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect()
}

/// Drives `workload` through one engine and reports the interval.
///
/// Clients retry on [`SubmitError::Busy`] (counted in the row), so every
/// request is eventually served and rows are comparable across widths.
///
/// # Panics
///
/// Panics if the engine rejects a well-formed request or a client thread
/// dies — both indicate a bug, not load.
#[must_use]
pub fn drive(engine: &Engine, workload: Workload) -> ScalingRow {
    let operands = Arc::new(operand_ramp(engine.format(), workload.operands_per_request));
    let baseline = engine.metrics();
    let started = Instant::now();
    thread::scope(|scope| {
        for _ in 0..workload.clients.max(1) {
            let handle = engine.handle();
            let operands = Arc::clone(&operands);
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(workload.requests_per_client);
                for _ in 0..workload.requests_per_client {
                    loop {
                        let request = Request::new(workload.function, operands.to_vec());
                        match handle.submit(request) {
                            Ok(ticket) => {
                                tickets.push(ticket);
                                break;
                            }
                            Err(SubmitError::Busy { .. }) => thread::yield_now(),
                            Err(e) => panic!("engine refused benchmark request: {e}"),
                        }
                    }
                }
                for ticket in tickets {
                    ticket.wait().expect("benchmark request served");
                }
            });
        }
    });
    let report = engine.report_since(&baseline, started);
    let busy = engine.metrics().since(&baseline).busy_rejections;
    ScalingRow {
        workers: engine.workers(),
        ops_per_sec: report.ops_per_sec(),
        speedup: 1.0,
        busy_rejections: busy,
        report,
    }
}

/// Shadow-sampling overhead measurement: the same workload driven through
/// a sampling-disabled engine and a sampling-enabled one (see
/// [`sampling_overhead`]).
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Sampling interval of the sampled side (1 in `sample_every`).
    pub sample_every: u64,
    /// Best throughput with sampling disabled, ops/s.
    pub baseline_ops_per_sec: f64,
    /// Best throughput with sampling enabled, ops/s.
    pub sampled_ops_per_sec: f64,
}

impl OverheadReport {
    /// Fractional throughput cost of shadow sampling (0.03 = 3% slower
    /// than the unsampled baseline; negative when scheduler noise favours
    /// the sampled run).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        if self.baseline_ops_per_sec <= 0.0 {
            return 0.0;
        }
        1.0 - self.sampled_ops_per_sec / self.baseline_ops_per_sec
    }
}

/// Measures the shadow-sampling overhead at `sample_every`: `trials`
/// interleaved baseline/sampled runs, keeping each side's best
/// throughput. Best-of-N rejects scheduler noise; interleaving keeps
/// thermal/cache drift from biasing one side.
///
/// # Panics
///
/// Panics if the paper configuration fails to validate (it never does).
#[must_use]
pub fn sampling_overhead(workload: Workload, sample_every: u64, trials: usize) -> OverheadReport {
    let mut baseline_ops_per_sec = 0.0f64;
    let mut sampled_ops_per_sec = 0.0f64;
    for _ in 0..trials.max(1) {
        for (sampling, best) in [
            (0u64, &mut baseline_ops_per_sec),
            (sample_every, &mut sampled_ops_per_sec),
        ] {
            let engine = Engine::new(
                EngineConfig::new(NacuConfig::paper_16bit())
                    .with_workers(2)
                    .with_queue_capacity(512)
                    .with_max_coalesced_requests(32)
                    .with_health_sampling(sampling),
            )
            .expect("paper config");
            let row = drive(&engine, workload);
            engine.shutdown();
            *best = best.max(row.ops_per_sec);
        }
    }
    OverheadReport {
        sample_every,
        baseline_ops_per_sec,
        sampled_ops_per_sec,
    }
}

/// One function's fast-path-versus-datapath throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct FastPathRow {
    /// Function under load.
    pub function: Function,
    /// Best throughput of a healthy engine, serving from the response
    /// tables on the calling thread, ops/s.
    pub fast_ops_per_sec: f64,
    /// Best throughput of a clean walking harness (the same pool shape,
    /// every operand along the checked datapath), ops/s.
    pub datapath_ops_per_sec: f64,
    /// Fast-path operands actually served from the tables in the fast run.
    pub fast_path_ops: u64,
}

impl FastPathRow {
    /// Throughput multiple of the table fast path over the datapath.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.datapath_ops_per_sec <= 0.0 {
            return 0.0;
        }
        self.fast_ops_per_sec / self.datapath_ops_per_sec
    }
}

/// Measures `workload` per function on a healthy engine (table fast path)
/// and on a clean two-worker walking harness — same operands — keeping
/// each side's best of `trials` interleaved runs. The `fast_path_ops` counter in the row
/// proves the fast side really served from the tables (not a silently
/// degraded datapath run).
///
/// # Panics
///
/// Panics if the paper configuration fails to validate (it never does).
#[must_use]
pub fn fast_path_comparison(
    functions: &[Function],
    workload: Workload,
    trials: usize,
) -> Vec<FastPathRow> {
    functions
        .iter()
        .map(|&function| {
            let workload = Workload {
                function,
                ..workload
            };
            let mut fast_ops_per_sec = 0.0f64;
            let mut datapath_ops_per_sec = 0.0f64;
            let mut fast_path_ops = 0u64;
            for _ in 0..trials.max(1) {
                for fast in [false, true] {
                    let config = EngineConfig::new(NacuConfig::paper_16bit())
                        .with_workers(2)
                        .with_queue_capacity(512)
                        .with_max_coalesced_requests(32);
                    let engine = Engine::new(if fast {
                        config
                    } else {
                        config.with_fault_tolerance(FaultTolerance::clean_harness(2))
                    })
                    .expect("paper config");
                    let row = drive(&engine, workload);
                    if fast {
                        fast_ops_per_sec = fast_ops_per_sec.max(row.ops_per_sec);
                        let m = engine.metrics();
                        fast_path_ops = fast_path_ops.max(m.fast_path_ops);
                    } else {
                        datapath_ops_per_sec = datapath_ops_per_sec.max(row.ops_per_sec);
                    }
                    engine.shutdown();
                }
            }
            FastPathRow {
                function,
                fast_ops_per_sec,
                datapath_ops_per_sec,
                fast_path_ops,
            }
        })
        .collect()
}

/// Single-thread memcpy bandwidth in GiB/s (bytes *copied* per second;
/// the bus moves twice that in read+write traffic). `mib`-MiB buffers,
/// best of `trials` — the streaming ceiling any table-gather fast path
/// is ultimately bounded by, printed next to the fast-path rows so the
/// EXPERIMENTS table can show headroom honestly.
///
/// # Panics
///
/// Panics only on allocation failure.
#[must_use]
pub fn memcpy_bandwidth_gbps(mib: usize, trials: usize) -> f64 {
    let bytes = mib.max(1) * (1 << 20);
    let src = vec![0x5au8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut best = 0.0f64;
    for _ in 0..trials.max(1) {
        let started = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box(&dst);
        if secs > 0.0 {
            best = best.max(bytes as f64 / secs / (1u64 << 30) as f64);
        }
    }
    best
}

/// Bare table-gather throughput, no engine around it: one thread
/// re-fills a `batch`-operand buffer from a pristine ramp and runs the
/// table gather over it, best of `trials`. This is the ceiling the
/// in-engine fast path chases — the gap between this number and the
/// served ops/s is queueing, coalescing and ticket overhead, not gather
/// cost.
///
/// # Panics
///
/// Panics if the paper configuration fails to validate (it never does).
#[must_use]
pub fn gather_ceiling_ops_per_sec(batch: usize, trials: usize) -> f64 {
    let nacu = nacu::Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
    let tables = nacu::ResponseTables::build(&nacu).expect("16-bit fits the table budget");
    let table = tables.get(Function::Sigmoid).expect("unary function");
    let src = operand_ramp(nacu.config().format, batch.max(1));
    let mut xs = src.clone();
    // Enough passes per timing window to outlast timer granularity.
    let iters = (1 << 22) / src.len().max(1);
    let mut best = 0.0f64;
    for _ in 0..trials.max(1) {
        let started = Instant::now();
        for _ in 0..iters.max(1) {
            xs.copy_from_slice(&src);
            table.lookup_in_place(std::hint::black_box(&mut xs));
        }
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box(&xs);
        if secs > 0.0 {
            best = best.max((iters.max(1) * src.len()) as f64 / secs);
        }
    }
    best
}

/// Nanoseconds per operand of the serving kernel and of the golden walk
/// for `function` at the paper's Q4.11, each over every input code
/// (softmax: the codes as 16-element vectors), best of `trials`:
/// `(kernel_ns, walk_ns)`. Their ratio needs no committed baseline: both
/// sides run on the same host in the same process.
///
/// # Panics
///
/// Panics if the paper configuration fails to validate (it never does).
#[must_use]
pub fn kernel_and_walk_ns_per_op(function: Function, trials: usize) -> (f64, f64) {
    const VECTOR: usize = 16;
    let nacu = nacu::Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
    let fmt = nacu.config().format;
    let src: Vec<Fx> = fmt
        .raw_codes()
        .map(|raw| Fx::from_raw_saturating(raw, fmt))
        .collect();
    let mut xs = src.clone();
    let best_ns_per_op = |pass: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..trials.max(1) {
            let started = Instant::now();
            pass();
            best = best.min(started.elapsed().as_secs_f64() * 1e9 / src.len() as f64);
        }
        best
    };
    let kernel = best_ns_per_op(&mut || {
        xs.copy_from_slice(&src);
        if function == Function::Softmax {
            for v in xs.chunks_mut(VECTOR) {
                nacu.kernel_softmax(std::hint::black_box(v))
                    .expect("valid vector");
            }
        } else {
            nacu.kernel_in_place(function, std::hint::black_box(&mut xs));
        }
        std::hint::black_box(&xs);
    });
    let walk = best_ns_per_op(&mut || {
        if function == Function::Softmax {
            for v in src.chunks(VECTOR) {
                std::hint::black_box(nacu.softmax(std::hint::black_box(v)).expect("valid"));
            }
        } else {
            for &x in &src {
                std::hint::black_box(nacu.compute(function, std::hint::black_box(x)));
            }
        }
    });
    (kernel, walk)
}

/// Raw submit-queue throughput: `producers` threads pushing keyed items
/// through a [`nacu_engine::queue::BoundedQueue`] against `consumers`
/// batch-popping threads, measured in items/s. This is the queue in
/// isolation — no NACU arithmetic — so it tracks the queue's
/// handoff cost alone.
///
/// # Panics
///
/// Panics if a queue thread dies or an item is lost (both are bugs).
#[must_use]
pub fn queue_throughput(producers: usize, consumers: usize, items_per_producer: usize) -> f64 {
    use nacu_engine::queue::{BoundedQueue, Coalesce, PushError};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Keyed(u32);
    impl Coalesce for Keyed {
        fn coalesce_key(&self) -> u32 {
            self.0
        }
    }

    let queue = BoundedQueue::<Keyed>::new(256);
    let accepted = AtomicU64::new(0);
    let popped = AtomicU64::new(0);
    let total = (producers.max(1) * items_per_producer) as u64;
    let started = Instant::now();
    thread::scope(|scope| {
        for _ in 0..producers.max(1) {
            let queue = &queue;
            let accepted = &accepted;
            scope.spawn(move || {
                for i in 0..items_per_producer {
                    #[allow(clippy::cast_possible_truncation)]
                    let mut pending = Keyed((i % 3) as u32);
                    loop {
                        match queue.try_push(pending) {
                            Ok(_) => break,
                            Err(PushError::Full(back)) => {
                                pending = back;
                                thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("queue closed mid-bench"),
                        }
                    }
                }
                if accepted.fetch_add(items_per_producer as u64, Ordering::AcqRel)
                    + items_per_producer as u64
                    == total
                {
                    queue.close();
                }
            });
        }
        for _ in 0..consumers.max(1) {
            let queue = &queue;
            let popped = &popped;
            scope.spawn(move || {
                let mut batch = Vec::new();
                while queue.pop_batch_into(32, &mut batch) {
                    popped.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    batch.clear();
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(popped.load(Ordering::Relaxed), total, "queue lost items");
    if wall > 0.0 {
        total as f64 / wall
    } else {
        0.0
    }
}

/// Runs the scaling sweep: one clean walking harness per worker count,
/// same workload.
///
/// # Panics
///
/// Panics if the paper configuration fails to validate (it never does).
#[must_use]
pub fn worker_scaling(worker_counts: &[usize], workload: Workload) -> Vec<ScalingRow> {
    let mut rows: Vec<ScalingRow> = worker_counts
        .iter()
        .map(|&workers| {
            let engine = Engine::new(
                EngineConfig::new(NacuConfig::paper_16bit())
                    .with_workers(workers)
                    .with_queue_capacity(512)
                    .with_max_coalesced_requests(32)
                    .with_fault_tolerance(FaultTolerance::clean_harness(workers)),
            )
            .expect("paper config");
            let row = drive(&engine, workload);
            engine.shutdown();
            row
        })
        .collect();
    let single = rows.iter().find(|r| r.workers == 1).map_or_else(
        || rows.first().map_or(1.0, |r| r.ops_per_sec),
        |r| r.ops_per_sec,
    );
    for row in &mut rows {
        row.speedup = if single > 0.0 {
            row.ops_per_sec / single
        } else {
            0.0
        };
    }
    rows
}

/// Renders the sweep as the table the demo binary prints.
pub fn print_scaling(rows: &[ScalingRow]) {
    println!("engine worker scaling — coalescible activation requests onto sharded NACU pools");
    println!(
        "{:>8} {:>14} {:>9} {:>12} {:>14} {:>10}",
        "workers", "ops/s", "speedup", "ops/batch", "modeled cyc", "busy"
    );
    for row in rows {
        println!(
            "{:>8} {:>14.0} {:>8.2}x {:>12.1} {:>14} {:>10}",
            row.workers,
            row.ops_per_sec,
            row.speedup,
            row.report.ops_per_batch(),
            row.report.modeled_cycles,
            row.busy_rejections,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload {
            clients: 2,
            requests_per_client: 8,
            operands_per_request: 8,
            function: Function::Sigmoid,
        }
    }

    #[test]
    fn drive_serves_every_request() {
        let engine = Engine::new(EngineConfig::new(NacuConfig::paper_16bit()).with_workers(2))
            .expect("paper config");
        let row = drive(&engine, tiny());
        assert_eq!(row.report.requests, 16);
        assert_eq!(row.report.ops, 16 * 8);
        assert!(row.ops_per_sec > 0.0);
    }

    #[test]
    fn scaling_sweep_normalises_against_single_worker() {
        let rows = worker_scaling(&[1, 2], tiny());
        assert_eq!(rows.len(), 2);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(rows[1].speedup > 0.0);
    }

    #[test]
    fn fast_path_comparison_measures_both_sides_and_proves_table_service() {
        let rows = fast_path_comparison(&[Function::Sigmoid], tiny(), 1);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.fast_ops_per_sec > 0.0);
        assert!(row.datapath_ops_per_sec > 0.0);
        // The fast side really ran on the tables: 16 requests × 8 operands.
        assert_eq!(row.fast_path_ops, 16 * 8);
        assert!(row.speedup() > 0.0);
    }

    #[test]
    fn memcpy_bandwidth_is_positive_and_finite() {
        let gbps = memcpy_bandwidth_gbps(4, 2);
        assert!(gbps > 0.0 && gbps.is_finite());
    }

    #[test]
    fn gather_ceiling_measures_the_table_gather() {
        let rate = gather_ceiling_ops_per_sec(256, 1);
        assert!(rate > 0.0 && rate.is_finite());
    }

    #[test]
    fn kernel_and_walk_timings_are_positive() {
        for function in [Function::Exp, Function::Softmax] {
            let (kernel, walk) = kernel_and_walk_ns_per_op(function, 1);
            assert!(kernel > 0.0 && kernel.is_finite(), "{function}");
            assert!(walk > 0.0 && walk.is_finite(), "{function}");
        }
    }

    #[test]
    fn queue_throughput_moves_every_item() {
        // The items/s figure is asserted internally (popped == total);
        // here we only need it to be finite and positive.
        let rate = queue_throughput(2, 2, 2_000);
        assert!(rate > 0.0 && rate.is_finite());
    }

    #[test]
    fn sampling_overhead_measures_both_sides() {
        let r = sampling_overhead(tiny(), 64, 1);
        assert_eq!(r.sample_every, 64);
        assert!(r.baseline_ops_per_sec > 0.0);
        assert!(r.sampled_ops_per_sec > 0.0);
        // No gate here (that's the smoke binary's job, with best-of-N on
        // a bigger workload) — just that the arithmetic is sane.
        assert!(r.overhead() < 1.0);
    }
}
