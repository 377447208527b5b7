//! **nacu-obs** — the observability layer of the NACU serving stack.
//!
//! The engine's flat monotone counters (`nacu_engine::EngineMetrics`) say
//! *how much* work happened; this crate says *how it felt* and *how it
//! compares to the paper's hardware model*:
//!
//! * [`hist::LatencyHistogram`] — lock-free log-bucketed latency
//!   distributions (queue wait, batch service, end-to-end) with
//!   mergeable/diffable snapshots and p50/p90/p99/max queries;
//! * [`trace::TraceRing`] — a fixed-capacity lock-free ring of typed
//!   serving events (submit, coalesce, batch start/end, fault,
//!   quarantine, retry, scrub, layer spans) with monotonic timestamps
//!   and drop counters, drainable while serving;
//! * [`cycles::CycleAccounting`] — measured nanoseconds next to the
//!   Table I cycle model per function, answering "how many effective
//!   cycles per operand did this run pay, and how far is that from the
//!   hardware?";
//! * [`exemplar::ExemplarRing`] — a small bounded ring of tail
//!   exemplars: the request and connection ids behind the slowest
//!   recorded latencies;
//! * [`export`] — Prometheus text exposition and a stable JSON schema
//!   over one coherent [`ObsSnapshot`], tail exemplars included;
//! * [`health`] — a sampling shadow-reference checker that recomputes
//!   the f64 reference for 1-in-N served operands and raises typed
//!   [`DriftAlarm`]s against the paper's Eq. 7 / Eq. 16 bounds;
//! * [`http`] — a std-only HTTP/1.1 scrape server (`/metrics`,
//!   `/metrics.json`, `/health`, `/trace`);
//! * [`chrome`] — Chrome trace-event JSON over a drained trace window,
//!   loadable directly in Perfetto.
//!
//! Everything is `std`-only, allocation-free on the hot paths, and built
//! from relaxed atomics: recording never blocks a worker, and a monitor
//! can snapshot or drain at any moment without pausing the pool.

pub mod chrome;
pub mod cycles;
pub mod exemplar;
pub mod export;
pub mod health;
pub mod hist;
pub mod http;
pub mod trace;

use nacu::Function;

pub use chrome::chrome_trace;
pub use cycles::{function_slot, CycleAccounting, CycleRow, CycleSnapshot, ACCOUNTED_FUNCTIONS};
pub use exemplar::{Exemplar, ExemplarRing, DEFAULT_EXEMPLAR_CAPACITY};
pub use health::{
    monitor_slot, DriftAlarm, DriftKind, HealthConfig, HealthMonitor, HealthRow, HealthSnapshot,
    DEFAULT_SAMPLE_EVERY, MONITORED_FUNCTIONS,
};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use http::{serve, ObsServer, ScrapeSource, WorkerCensus};
pub use trace::{TraceEvent, TraceKind, TraceRing};

/// Default undrained-event capacity of the trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The three latency stages the serving path distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Submission to batch pickup: time spent queued.
    QueueWait,
    /// Batch pickup to last operand computed: datapath service time.
    BatchService,
    /// Submission to response sent: what the client experienced.
    EndToEnd,
}

impl Stage {
    /// All stages, in reporting order.
    pub const ALL: [Stage; 3] = [Stage::QueueWait, Stage::BatchService, Stage::EndToEnd];

    /// Stable exporter name of the stage.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait_ns",
            Stage::BatchService => "batch_service_ns",
            Stage::EndToEnd => "end_to_end_ns",
        }
    }
}

type PerFunction<T> = [T; ACCOUNTED_FUNCTIONS.len()];

fn per_function<T>(mut build: impl FnMut() -> T) -> PerFunction<T> {
    core::array::from_fn(|_| build())
}

/// The one object the serving stack threads through itself: histograms
/// for every stage × function, the trace ring, and cycle accounting.
#[derive(Debug)]
pub struct Obs {
    queue_wait: PerFunction<LatencyHistogram>,
    batch_service: PerFunction<LatencyHistogram>,
    end_to_end: PerFunction<LatencyHistogram>,
    cycles: CycleAccounting,
    trace: TraceRing,
    health: HealthMonitor,
    exemplars: ExemplarRing,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// Observability with the default trace capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Observability whose trace ring holds `capacity` undrained events.
    /// The health monitor starts disabled; enable it with
    /// [`Obs::with_health`].
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Self {
            queue_wait: per_function(LatencyHistogram::new),
            batch_service: per_function(LatencyHistogram::new),
            end_to_end: per_function(LatencyHistogram::new),
            cycles: CycleAccounting::new(),
            trace: TraceRing::new(capacity),
            health: HealthMonitor::disabled(),
            exemplars: ExemplarRing::new(exemplar::DEFAULT_EXEMPLAR_CAPACITY),
        }
    }

    /// Replaces the health monitor with one built from `config`
    /// (builder-style; see [`HealthConfig::for_nacu`]).
    #[must_use]
    pub fn with_health(mut self, config: HealthConfig) -> Self {
        self.health = HealthMonitor::new(config);
        self
    }

    /// The live numerical-health monitor.
    #[must_use]
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    fn stage_histograms(&self, stage: Stage) -> &PerFunction<LatencyHistogram> {
        match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::BatchService => &self.batch_service,
            Stage::EndToEnd => &self.end_to_end,
        }
    }

    /// Records `ns` into the `stage` histogram of `function`. MAC (never
    /// served through the engine) is ignored.
    pub fn record_latency(&self, stage: Stage, function: Function, ns: u64) {
        if let Some(i) = function_slot(function) {
            self.stage_histograms(stage)[i].record(ns);
        }
    }

    /// [`Obs::record_latency`] plus exemplar capture: when the value
    /// lands in the stage's tail (see [`ExemplarRing`]), the request and
    /// connection ids are retained and a
    /// [`TraceKind::TailExemplar`] event enters the flight recorder.
    pub fn record_latency_tagged(
        &self,
        stage: Stage,
        function: Function,
        ns: u64,
        req: u64,
        conn: u32,
    ) {
        self.record_latency(stage, function, ns);
        if function_slot(function).is_none() {
            return;
        }
        if let Some(exemplar) = self.exemplars.offer(stage, function, ns, req, conn) {
            self.record_trace(TraceKind::TailExemplar {
                req: exemplar.req,
                conn: exemplar.conn,
                function: exemplar.function,
                value_ns: exemplar.value_ns,
            });
        }
    }

    /// The exemplar ring itself (capture counters live here).
    #[must_use]
    pub fn exemplar_ring(&self) -> &ExemplarRing {
        &self.exemplars
    }

    /// The live cycle-accounting counters.
    #[must_use]
    pub fn cycles(&self) -> &CycleAccounting {
        &self.cycles
    }

    /// The live trace ring.
    #[must_use]
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Convenience: record a trace event now (see [`TraceRing::record`]).
    pub fn record_trace(&self, kind: TraceKind) -> bool {
        self.trace.record(kind)
    }

    /// Drains up to `max` trace events while serving continues.
    #[must_use]
    pub fn drain_trace(&self, max: usize) -> Vec<TraceEvent> {
        self.trace.drain(max)
    }

    /// A coherent point-in-time copy of every histogram and counter.
    /// Trace *events* are not copied (drain them instead); their
    /// recorded/dropped totals are.
    #[must_use]
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            queue_wait: core::array::from_fn(|i| self.queue_wait[i].snapshot()),
            batch_service: core::array::from_fn(|i| self.batch_service[i].snapshot()),
            end_to_end: core::array::from_fn(|i| self.end_to_end[i].snapshot()),
            cycles: self.cycles.snapshot(),
            trace: TraceStats {
                capacity: self.trace.capacity(),
                recorded: self.trace.recorded(),
                dropped: self.trace.dropped(),
            },
            health: self.health.snapshot(),
            exemplars: self.exemplars.snapshot(),
        }
    }
}

/// Trace-ring totals (the events themselves are drained, not copied).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Undrained-event capacity.
    pub capacity: usize,
    /// Events recorded since construction.
    pub recorded: u64,
    /// Events dropped because the ring was full.
    pub dropped: u64,
}

/// Point-in-time copy of an [`Obs`]: the exporter and report input.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Queue-wait histograms in [`ACCOUNTED_FUNCTIONS`] order.
    pub queue_wait: PerFunction<HistogramSnapshot>,
    /// Batch-service histograms in [`ACCOUNTED_FUNCTIONS`] order.
    pub batch_service: PerFunction<HistogramSnapshot>,
    /// End-to-end histograms in [`ACCOUNTED_FUNCTIONS`] order.
    pub end_to_end: PerFunction<HistogramSnapshot>,
    /// Cycle accounting rows.
    pub cycles: CycleSnapshot,
    /// Trace-ring totals.
    pub trace: TraceStats,
    /// Numerical-health statistics from the shadow checker.
    pub health: HealthSnapshot,
    /// The retained tail exemplars, oldest first.
    pub exemplars: Vec<Exemplar>,
}

impl Default for ObsSnapshot {
    fn default() -> Self {
        Obs::with_trace_capacity(2).snapshot()
    }
}

impl ObsSnapshot {
    /// The `stage` histogram of one function (`None` for MAC).
    #[must_use]
    pub fn stage(&self, stage: Stage, function: Function) -> Option<&HistogramSnapshot> {
        let histograms = match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::BatchService => &self.batch_service,
            Stage::EndToEnd => &self.end_to_end,
        };
        function_slot(function).map(|i| &histograms[i])
    }

    /// The `stage` histogram merged across every function.
    #[must_use]
    pub fn stage_merged(&self, stage: Stage) -> HistogramSnapshot {
        let histograms = match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::BatchService => &self.batch_service,
            Stage::EndToEnd => &self.end_to_end,
        };
        histograms
            .iter()
            .fold(HistogramSnapshot::empty(), |acc, h| acc.merge(h))
    }

    /// Histogram- and row-wise difference since `earlier` (saturating;
    /// histogram extremes stay lifetime values — see
    /// [`HistogramSnapshot::since`]). Keeps the exemplars `earlier` did
    /// not hold.
    #[must_use]
    pub fn since(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        ObsSnapshot {
            queue_wait: core::array::from_fn(|i| self.queue_wait[i].since(&earlier.queue_wait[i])),
            batch_service: core::array::from_fn(|i| {
                self.batch_service[i].since(&earlier.batch_service[i])
            }),
            end_to_end: core::array::from_fn(|i| self.end_to_end[i].since(&earlier.end_to_end[i])),
            cycles: self.cycles.since(&earlier.cycles),
            trace: TraceStats {
                capacity: self.trace.capacity,
                recorded: self.trace.recorded.saturating_sub(earlier.trace.recorded),
                dropped: self.trace.dropped.saturating_sub(earlier.trace.dropped),
            },
            health: self.health.since(&earlier.health),
            exemplars: self
                .exemplars
                .iter()
                .filter(|e| !earlier.exemplars.contains(e))
                .copied()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_routes_to_the_right_stage_and_function() {
        let obs = Obs::with_trace_capacity(8);
        obs.record_latency(Stage::QueueWait, Function::Sigmoid, 100);
        obs.record_latency(Stage::EndToEnd, Function::Sigmoid, 400);
        obs.record_latency(Stage::BatchService, Function::Softmax, 250);
        obs.record_latency(Stage::QueueWait, Function::Mac, 9); // ignored
        let s = obs.snapshot();
        assert_eq!(
            s.stage(Stage::QueueWait, Function::Sigmoid).unwrap().count,
            1
        );
        assert_eq!(
            s.stage(Stage::EndToEnd, Function::Sigmoid).unwrap().sum,
            400
        );
        assert_eq!(
            s.stage(Stage::BatchService, Function::Softmax).unwrap().sum,
            250
        );
        assert!(s.stage(Stage::QueueWait, Function::Mac).is_none());
        assert_eq!(s.stage_merged(Stage::QueueWait).count, 1);
    }

    #[test]
    fn snapshot_sees_trace_totals_without_draining() {
        let obs = Obs::with_trace_capacity(4);
        obs.record_trace(TraceKind::Quarantine { worker: 0 });
        let s = obs.snapshot();
        assert_eq!(s.trace.recorded, 1);
        assert_eq!(s.trace.dropped, 0);
        assert_eq!(s.trace.capacity, 4);
        // The event is still there for the drainer.
        assert_eq!(obs.drain_trace(8).len(), 1);
    }

    #[test]
    fn since_diffs_every_section() {
        let obs = Obs::with_trace_capacity(8);
        obs.record_latency(Stage::EndToEnd, Function::Exp, 10);
        obs.cycles().record_batch(Function::Exp, 1, 8, 9, 10);
        obs.record_trace(TraceKind::Scrub { worker: 1 });
        obs.record_latency_tagged(Stage::EndToEnd, Function::Exp, 10, 1, 0);
        let early = obs.snapshot();
        obs.record_latency(Stage::EndToEnd, Function::Exp, 20);
        obs.cycles().record_batch(Function::Exp, 1, 8, 9, 20);
        obs.record_latency_tagged(Stage::EndToEnd, Function::Exp, 30, 2, 7);
        let d = obs.snapshot().since(&early);
        assert_eq!(d.stage(Stage::EndToEnd, Function::Exp).unwrap().count, 2);
        assert_eq!(d.cycles.row(Function::Exp).unwrap().measured_ns, 20);
        // Only the second tagged record's trace event is new.
        assert_eq!(d.trace.recorded, 1);
        assert_eq!(early.exemplars.len(), 1);
        let fresh: Vec<(u64, u32)> = d.exemplars.iter().map(|e| (e.req, e.conn)).collect();
        assert_eq!(fresh, [(2, 7)]);
    }
}
