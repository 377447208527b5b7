//! Lock-free engine counters, snapshotable while the engine serves.
//!
//! Workers and submitters bump relaxed atomics on their hot paths; a
//! monitor thread calls [`EngineMetrics::snapshot`] at any time without
//! stopping the pool. Relaxed ordering is deliberate: the counters are
//! monotone event tallies whose cross-counter skew (a request counted
//! submitted but not yet completed) is inherent to sampling a live system,
//! and no control flow depends on their relative order.
//!
//! Every counter is one row of the `counters!` table below, which
//! generates the storage, the [`Counter`] names recorders pass to
//! [`EngineMetrics::add`], the [`MetricsSnapshot`] fields, `since`,
//! `exporter_counters` and `exporter_help`: adding a counter is one row,
//! and its doc comment is its Prometheus `# HELP` text.

use std::sync::atomic::{AtomicU64, Ordering};

use nacu::Function;

/// How a counter accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A monotone tally ([`EngineMetrics::add`]): `since` diffs it, and
    /// its exporter name ends in `_total`.
    Sum,
    /// A high-water mark ([`EngineMetrics::max`]): absolute in `since`,
    /// exported as a gauge.
    Max,
}

impl Kind {
    fn since(self, now: u64, earlier: u64) -> u64 {
        match self {
            Kind::Sum => now.saturating_sub(earlier),
            Kind::Max => now,
        }
    }
}

/// Operands served, loaded once per snapshot: `[function][path]` with
/// functions σ, tanh, exp, softmax and paths `[walk, fast]`: along the
/// checked datapath walk, or without it (table gather or integer kernel).
type OpCounts = [[u64; 2]; 4];

/// One row per [`MetricsSnapshot`] field, in exporter order:
///
/// `field: Kind(Variant) => "exporter_name";` is a stored counter that
/// recorders name as `Counter::Variant`; `field: Kind = |ops| …;` is
/// derived from the op matrix at snapshot time. `=> "name"` is left out
/// for a field that is not exported as a flat counter. A row's doc
/// comment, joined onto one line, is the exported series' help text, so
/// it is plain prose: no links, backticks or backslashes.
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident : $kind:ident $(($Variant:ident))? $(= $derive:expr)? $(=> $export:literal)?;
    )*) => {
        /// The engine's stored counters, for [`EngineMetrics::add`] and
        /// [`EngineMetrics::max`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(
                #[doc = concat!("Counts [`MetricsSnapshot::", stringify!($field), "`].")]
                $Variant,
            )?)*
        }

        impl Counter {
            /// Every stored counter, in table order.
            const ALL: &'static [Counter] = &[$($(Counter::$Variant,)?)*];

            #[cfg(test)]
            fn kind(self) -> Kind {
                match self {
                    $($(Counter::$Variant => Kind::$kind,)?)*
                }
            }
        }

        /// Point-in-time counter values (see [`EngineMetrics::snapshot`]).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $(
                $(#[doc = $doc])*
                pub $field: u64,
            )*
        }

        impl EngineMetrics {
            /// A consistent-enough point-in-time copy of every counter.
            #[must_use]
            pub fn snapshot(&self) -> MetricsSnapshot {
                let ops: OpCounts = self
                    .ops
                    .each_ref()
                    .map(|per_path| per_path.each_ref().map(|c| c.load(Ordering::Relaxed)));
                MetricsSnapshot {
                    $($field:
                        $(self.counters[Counter::$Variant as usize].load(Ordering::Relaxed))?
                        $(($derive)(&ops))?,
                    )*
                }
            }
        }

        impl MetricsSnapshot {
            /// The exported counters as `(exporter_name, value)` pairs —
            /// the flat-counter tail of both wire formats
            /// (`nacu_obs::export` and the scrape server's `/metrics`).
            /// One list, so the CI exporter and the live endpoint can
            /// never drift apart.
            #[must_use]
            pub fn exporter_counters(&self) -> Vec<(&'static str, u64)> {
                vec![$($(($export, self.$field),)?)*]
            }

            /// `(exporter_name, help)` for every exported counter, in
            /// [`MetricsSnapshot::exporter_counters`] order: the row's doc
            /// comment on one line, for the Prometheus `# HELP` text.
            #[must_use]
            pub fn exporter_help() -> Vec<(&'static str, &'static str)> {
                // Each row's export name as a zero- or one-element list,
                // beside its joined doc lines (each begins with a space).
                let rows: &[(&[&str], &str)] = &[$((&[$($export)?], concat!($($doc),*)),)*];
                rows.iter()
                    .filter_map(|&(export, doc)| Some((*export.first()?, doc.trim())))
                    .collect()
            }

            /// Counter-wise difference since `earlier` (saturating, so a
            /// stale baseline never underflows). High-water marks are
            /// absolute, not cumulative, and pass through.
            #[must_use]
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: Kind::$kind.since(self.$field, earlier.$field),)*
                }
            }

            #[cfg(test)]
            fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $($(Counter::$Variant => self.$field,)?)*
                }
            }
        }
    };
}

counters! {
    /// Requests accepted into the queue.
    requests_submitted: Sum(RequestsSubmitted) => "nacu_engine_requests_submitted_total";
    /// Requests answered with a response.
    requests_completed: Sum(RequestsCompleted) => "nacu_engine_requests_completed_total";
    /// Requests dropped at pickup because their deadline had passed.
    requests_expired: Sum(RequestsExpired) => "nacu_engine_requests_expired_total";
    /// Submissions refused as busy because the queue was full.
    busy_rejections: Sum(BusyRejections) => "nacu_engine_busy_rejections_total";
    /// Fused hardware batches executed by the pool.
    batches_executed: Sum(BatchesExecuted) => "nacu_engine_batches_executed_total";
    /// Requests that rode in a batch opened by an earlier request.
    coalesced_requests: Sum(CoalescedRequests) => "nacu_engine_coalesced_requests_total";
    /// σ operands evaluated.
    sigmoid_ops: Sum = |ops: &OpCounts| ops[0][0] + ops[0][1];
    /// tanh operands evaluated.
    tanh_ops: Sum = |ops: &OpCounts| ops[1][0] + ops[1][1];
    /// exp operands evaluated.
    exp_ops: Sum = |ops: &OpCounts| ops[2][0] + ops[2][1];
    /// Softmax vector elements normalised.
    softmax_ops: Sum = |ops: &OpCounts| ops[3][0] + ops[3][1];
    /// Total modeled pipeline cycles across all batches.
    modeled_cycles: Sum(ModeledCycles);
    /// Detector firings (fault events) observed by workers.
    faults_detected: Sum(FaultsDetected) => "nacu_engine_faults_detected_total";
    /// Workers that quarantined themselves after a detector fired.
    workers_quarantined: Sum(WorkersQuarantined) => "nacu_engine_workers_quarantined_total";
    /// Requests requeued onto a healthy worker after a fault.
    retries: Sum(Retries) => "nacu_engine_retries_total";
    /// Requests answered with a terminal fault error (retries exhausted or
    /// no healthy worker left).
    requests_failed: Sum(RequestsFailed) => "nacu_engine_requests_failed_total";
    /// Shadow-sampled operands whose error against the f64 reference
    /// exceeded the Eq. 7 bound (or the Eq. 16 exp budget).
    drift_alarms: Sum(DriftAlarms) => "nacu_engine_drift_alarms_total";
    /// Operands answered without the checked datapath walk, by table
    /// gather or integer kernel (a subset of the per-function op counters;
    /// 0 means every operand walked the datapath — a harness engine, with
    /// fault plans configured).
    fast_path_ops: Sum = |ops: &OpCounts| ops.iter().map(|[_, fast]| fast).sum()
        => "nacu_engine_fast_path_ops_total";
    // The net_* counters are recorded by the wire front-end in its own
    // crate, through `EngineHandle::live_metrics`.
    /// TCP connections accepted by the network front-end.
    net_connections_accepted: Sum(NetConnectionsAccepted) => "nacu_net_connections_accepted_total";
    /// TCP connections turned away at accept (connection limit).
    net_connections_rejected: Sum(NetConnectionsRejected) => "nacu_net_connections_rejected_total";
    /// Well-formed request frames decoded off sockets.
    net_frames_in: Sum(NetFramesIn) => "nacu_net_frames_in_total";
    /// Reply frames written to sockets (any status, BUSY/SHED included).
    net_frames_out: Sum(NetFramesOut) => "nacu_net_frames_out_total";
    /// Requests shed with a SHED frame (deadline unmeetable).
    net_requests_shed: Sum(NetRequestsShed) => "nacu_net_requests_shed_total";
    /// Requests refused by the per-client token bucket (QUOTA frame).
    net_quota_limited: Sum(NetQuotaLimited) => "nacu_net_quota_limited_total";
    /// Malformed frames observed on sockets (connection then closed).
    net_protocol_errors: Sum(NetProtocolErrors) => "nacu_net_protocol_errors_total";
    /// Reply wakers armed on tickets still in flight at admission.
    async_wakers_registered: Sum(AsyncWakersRegistered) => "nacu_async_wakers_registered_total";
    // The engine records captures; the replay drivers in `nacu-bench`
    // record the requests they replay and the divergences they find.
    /// Trace records fully captured (request and response halves) by the
    /// engine's recorder, when one is configured.
    replay_records_captured: Sum(ReplayRecordsCaptured) => "nacu_replay_records_captured_total";
    /// Requests the recorder could not capture (ring saturated). Served
    /// normally — recording never sheds load.
    replay_records_dropped: Sum(ReplayRecordsDropped) => "nacu_replay_records_dropped_total";
    /// Recorded requests re-driven through this engine by a replayer.
    replay_requests_replayed: Sum(ReplayRequestsReplayed) => "nacu_replay_requests_replayed_total";
    /// Replayed responses that differed bit-wise from their recording.
    replay_divergences: Sum(ReplayDivergences) => "nacu_replay_divergences_total";
    /// Deepest the submission queue has ever been.
    queue_depth_high_water: Max(QueueDepthHighWater) => "nacu_engine_queue_depth_high_water";
}

/// Live counters owned by the engine.
#[derive(Debug)]
pub struct EngineMetrics {
    counters: [AtomicU64; Counter::ALL.len()],
    /// Operands served, as [`OpCounts`]. A batch bumps exactly one of
    /// them, so a snapshot derives the per-function totals and
    /// `fast_path_ops` from the same loads and they always agree.
    ops: [[AtomicU64; 2]; 4],
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
            ops: Default::default(),
        }
    }
}

impl EngineMetrics {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a tally.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water mark to at least `value`.
    #[inline]
    pub fn max(&self, counter: Counter, value: u64) {
        self.counters[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// One fused hardware batch: `requests` requests totalling `ops`
    /// operands of `function`, costing `cycles` modeled cycles, answered
    /// without the checked walk when `fast`, else along it.
    pub(crate) fn record_batch(
        &self,
        function: Function,
        requests: u64,
        ops: u64,
        cycles: u64,
        fast: bool,
    ) {
        self.add(Counter::BatchesExecuted, 1);
        self.add(Counter::RequestsCompleted, requests);
        self.add(Counter::CoalescedRequests, requests.saturating_sub(1));
        self.add(Counter::ModeledCycles, cycles);
        let per_path = match function {
            Function::Sigmoid => &self.ops[0],
            Function::Tanh => &self.ops[1],
            Function::Exp => &self.ops[2],
            Function::Softmax => &self.ops[3],
            // Mac (and any future function) is rejected at submission;
            // count it nowhere.
            _ => return,
        };
        per_path[usize::from(fast)].fetch_add(ops, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Total operands evaluated across all four functions.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.sigmoid_ops + self.tanh_ops + self.exp_ops + self.softmax_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate_per_function_ops() {
        let m = EngineMetrics::new();
        m.record_batch(Function::Sigmoid, 3, 10, 12, false);
        m.record_batch(Function::Softmax, 1, 16, 46, false);
        let s = m.snapshot();
        assert_eq!(s.batches_executed, 2);
        assert_eq!(s.requests_completed, 4);
        assert_eq!(s.coalesced_requests, 2);
        assert_eq!(s.sigmoid_ops, 10);
        assert_eq!(s.softmax_ops, 16);
        assert_eq!(s.total_ops(), 26);
        assert_eq!(s.modeled_cycles, 58);
    }

    #[test]
    fn queue_depth_keeps_the_maximum() {
        let m = EngineMetrics::new();
        m.max(Counter::QueueDepthHighWater, 3);
        m.max(Counter::QueueDepthHighWater, 9);
        m.max(Counter::QueueDepthHighWater, 5);
        assert_eq!(m.snapshot().queue_depth_high_water, 9);
    }

    /// The exporter names in their published order: a renamed, dropped or
    /// reordered series breaks every dashboard that reads it.
    const EXPORTED: [&str; 25] = [
        "nacu_engine_requests_submitted_total",
        "nacu_engine_requests_completed_total",
        "nacu_engine_requests_expired_total",
        "nacu_engine_busy_rejections_total",
        "nacu_engine_batches_executed_total",
        "nacu_engine_coalesced_requests_total",
        "nacu_engine_faults_detected_total",
        "nacu_engine_workers_quarantined_total",
        "nacu_engine_retries_total",
        "nacu_engine_requests_failed_total",
        "nacu_engine_drift_alarms_total",
        "nacu_engine_fast_path_ops_total",
        "nacu_net_connections_accepted_total",
        "nacu_net_connections_rejected_total",
        "nacu_net_frames_in_total",
        "nacu_net_frames_out_total",
        "nacu_net_requests_shed_total",
        "nacu_net_quota_limited_total",
        "nacu_net_protocol_errors_total",
        "nacu_async_wakers_registered_total",
        "nacu_replay_records_captured_total",
        "nacu_replay_records_dropped_total",
        "nacu_replay_requests_replayed_total",
        "nacu_replay_divergences_total",
        "nacu_engine_queue_depth_high_water",
    ];

    /// Every stored counter, one at a time: a recording lands in its own
    /// snapshot field and nowhere else, `since` diffs a tally but passes a
    /// high-water mark through, and the exported value is the field's.
    #[test]
    fn every_counter_records_snapshots_diffs_and_exports() {
        let record = |m: &EngineMetrics, counter: Counter, n: u64| match counter.kind() {
            Kind::Sum => m.add(counter, n),
            Kind::Max => m.max(counter, n),
        };
        let names: Vec<&str> = MetricsSnapshot::default()
            .exporter_counters()
            .iter()
            .map(|&(name, _)| name)
            .collect();
        assert_eq!(names, EXPORTED);
        let mut exported_by_counters = Vec::new();
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            let n = 2 + i as u64;
            let m = EngineMetrics::new();
            record(&m, counter, n);
            let early = m.snapshot();
            for &other in Counter::ALL {
                let want = if other == counter { n } else { 0 };
                assert_eq!(early.get(other), want, "{counter:?} leaked into {other:?}");
            }
            let exported: Vec<_> = early
                .exporter_counters()
                .into_iter()
                .filter(|&(_, v)| v != 0)
                .collect();
            assert!(
                exported.len() <= 1,
                "{counter:?} exported twice: {exported:?}"
            );
            if let Some(&(name, value)) = exported.first() {
                assert_eq!(value, n, "{name}");
                assert_eq!(
                    name.ends_with("_total"),
                    counter.kind() == Kind::Sum,
                    "{name}"
                );
                exported_by_counters.push(name);
            }
            // A tally diffs to 4n - n; a high-water mark stays absolute at 3n.
            record(&m, counter, 3 * n);
            assert_eq!(
                m.snapshot().since(&early).get(counter),
                3 * n,
                "{counter:?}"
            );
        }
        // The one exported field not stored as a counter is derived from
        // the op matrix.
        let stored: Vec<&str> = EXPORTED
            .into_iter()
            .filter(|&name| name != "nacu_engine_fast_path_ops_total")
            .collect();
        assert_eq!(exported_by_counters, stored);
    }

    /// Every exported counter carries its row's doc comment as one line
    /// of Prometheus-safe help text.
    #[test]
    fn every_exported_counter_has_one_line_help() {
        let help = MetricsSnapshot::exporter_help();
        let names: Vec<&str> = help.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, EXPORTED);
        for (name, text) in help {
            assert!(text.ends_with('.'), "{name}: {text:?}");
            assert!(
                !text.starts_with(' ') && !text.contains("  "),
                "{name}: {text:?}"
            );
            assert!(
                !text.contains(['[', '`', '\\', '\n']),
                "{name}: {text:?} is not plain one-line prose"
            );
        }
    }

    #[test]
    fn fast_path_ops_accumulate_and_export() {
        let m = EngineMetrics::new();
        m.record_batch(Function::Sigmoid, 1, 64, 66, true);
        m.record_batch(Function::Softmax, 1, 16, 46, true);
        m.record_batch(Function::Tanh, 1, 8, 10, false);
        let s = m.snapshot();
        assert_eq!(s.fast_path_ops, 80);
        assert_eq!(s.total_ops(), 88);
        assert!(s
            .exporter_counters()
            .iter()
            .any(|&(n, v)| n == "nacu_engine_fast_path_ops_total" && v == 80));
        let d = s.since(&MetricsSnapshot::default());
        assert_eq!(d.fast_path_ops, 80);
    }

    /// Table-served batches recorded on one thread while another takes
    /// snapshots: every snapshot must count each operand both as
    /// table-served and in its function's total, never one without the
    /// other.
    #[test]
    fn snapshots_never_split_a_table_batch_across_counters() {
        const BATCHES: u64 = 200_000;
        let m = EngineMetrics::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let functions = [Function::Sigmoid, Function::Tanh, Function::Exp];
                for i in 0..BATCHES {
                    m.record_batch(functions[(i % 3) as usize], 1, 8, 10, true);
                }
                done.store(true, Ordering::Release);
            });
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) || snapshots == 0 {
                let s = m.snapshot();
                assert_eq!(s.fast_path_ops, s.total_ops(), "snapshot {snapshots}");
                snapshots += 1;
            }
        });
        assert_eq!(m.snapshot().fast_path_ops, 8 * BATCHES);
    }

    #[test]
    fn since_diffs_counters_but_not_high_water() {
        let m = EngineMetrics::new();
        m.record_batch(Function::Tanh, 1, 4, 6, false);
        let early = m.snapshot();
        m.record_batch(Function::Tanh, 2, 8, 10, false);
        m.max(Counter::QueueDepthHighWater, 7);
        let late = m.snapshot();
        let d = late.since(&early);
        assert_eq!(d.tanh_ops, 8);
        assert_eq!(d.requests_completed, 2);
        assert_eq!(d.queue_depth_high_water, 7);
    }
}
