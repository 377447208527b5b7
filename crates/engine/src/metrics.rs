//! Lock-free engine counters, snapshotable while the engine serves.
//!
//! Workers and submitters bump relaxed atomics on their hot paths; a
//! monitor thread calls [`EngineMetrics::snapshot`] at any time without
//! stopping the pool. Relaxed ordering is deliberate: the counters are
//! monotone event tallies whose cross-counter skew (a request counted
//! submitted but not yet completed) is inherent to sampling a live system,
//! and no control flow depends on their relative order.

use std::sync::atomic::{AtomicU64, Ordering};

use nacu::Function;

/// Live counters owned by the engine.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    requests_submitted: AtomicU64,
    requests_completed: AtomicU64,
    requests_expired: AtomicU64,
    busy_rejections: AtomicU64,
    batches_executed: AtomicU64,
    coalesced_requests: AtomicU64,
    sigmoid_ops: AtomicU64,
    tanh_ops: AtomicU64,
    exp_ops: AtomicU64,
    softmax_ops: AtomicU64,
    modeled_cycles: AtomicU64,
    queue_depth_high_water: AtomicU64,
    faults_detected: AtomicU64,
    workers_quarantined: AtomicU64,
    retries: AtomicU64,
    requests_failed: AtomicU64,
    drift_alarms: AtomicU64,
    fast_path_ops: AtomicU64,
    net_connections_accepted: AtomicU64,
    net_connections_rejected: AtomicU64,
    net_frames_in: AtomicU64,
    net_frames_out: AtomicU64,
    net_requests_shed: AtomicU64,
    net_quota_limited: AtomicU64,
    net_protocol_errors: AtomicU64,
    async_wakers_registered: AtomicU64,
    replay_records_captured: AtomicU64,
    replay_records_dropped: AtomicU64,
    replay_requests_replayed: AtomicU64,
    replay_divergences: AtomicU64,
    telemetry_samples: AtomicU64,
    slo_alarm_trips: AtomicU64,
}

impl EngineMetrics {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_submitted(&self) {
        self.requests_submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_expired(&self) {
        self.requests_expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.queue_depth_high_water
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_fault_detected(&self) {
        self.faults_detected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_worker_quarantined(&self) {
        self.workers_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_request_failed(&self) {
        self.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_drift_alarm(&self) {
        self.drift_alarms.fetch_add(1, Ordering::Relaxed);
    }

    /// `ops` operands answered from the response tables instead of the
    /// datapath (always also counted in the per-function op counters).
    pub(crate) fn record_fast_path_ops(&self, ops: u64) {
        self.fast_path_ops.fetch_add(ops, Ordering::Relaxed);
    }

    // The `net_*` recorders are `pub`, not `pub(crate)`: the wire
    // front-end lives in its own crate (`nacu-net` depends on the
    // engine, so the engine cannot call it) and accounts these events
    // itself via [`crate::EngineHandle::live_metrics`].

    /// A TCP connection was accepted and is being served.
    pub fn record_net_connection_accepted(&self) {
        self.net_connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A TCP connection was turned away at accept (connection limit).
    pub fn record_net_connection_rejected(&self) {
        self.net_connections_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One well-formed request frame decoded off a socket.
    pub fn record_net_frame_in(&self) {
        self.net_frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// One reply frame written to a socket (any status).
    pub fn record_net_frame_out(&self) {
        self.net_frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// A request shed before or after enqueue because its deadline could
    /// not be met (answered with a SHED frame).
    pub fn record_net_request_shed(&self) {
        self.net_requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request refused by the per-client token bucket (QUOTA frame).
    pub fn record_net_quota_limited(&self) {
        self.net_quota_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// A malformed frame (bad magic/version/function/length) on a socket.
    pub fn record_net_protocol_error(&self) {
        self.net_protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A front-end armed a reply waker on a ticket still in flight: its
    /// reply is written by the thread that completes it.
    pub fn record_async_waker_registered(&self) {
        self.async_wakers_registered.fetch_add(1, Ordering::Relaxed);
    }

    // The replay_* counters watch the record/replay harness: the engine
    // accounts capture outcomes on its submit/reply paths; the replay
    // drivers (which live above the engine, in `nacu-bench`) account the
    // requests they replay and the divergences they find via
    // [`crate::EngineHandle::live_metrics`], same as the net front-end.

    /// A trace record completed: request and response both captured.
    pub(crate) fn record_replay_record_captured(&self) {
        self.replay_records_captured.fetch_add(1, Ordering::Relaxed);
    }

    /// A request went unrecorded because the recorder ring was saturated.
    pub(crate) fn record_replay_record_dropped(&self) {
        self.replay_records_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` recorded requests re-driven through an engine by a replayer.
    pub fn record_replay_requests(&self, n: u64) {
        self.replay_requests_replayed
            .fetch_add(n, Ordering::Relaxed);
    }

    /// A replayed response differed bit-wise from the recorded one.
    pub fn record_replay_divergence(&self) {
        self.replay_divergences.fetch_add(1, Ordering::Relaxed);
    }

    // The telemetry_* counters watch the sampler thread and the SLO
    // engine it drives (see `nacu_obs::Telemetry`).

    /// One windowed-telemetry sample taken by the sampler thread.
    pub(crate) fn record_telemetry_sample(&self) {
        self.telemetry_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// An SLO burn-rate alarm latched (rising edge, not re-evaluation).
    pub(crate) fn record_slo_trip(&self) {
        self.slo_alarm_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// One fused hardware batch: `requests` requests totalling `ops`
    /// operands of `function`, costing `cycles` modeled cycles.
    pub(crate) fn record_batch(&self, function: Function, requests: u64, ops: u64, cycles: u64) {
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        self.requests_completed
            .fetch_add(requests, Ordering::Relaxed);
        self.coalesced_requests
            .fetch_add(requests.saturating_sub(1), Ordering::Relaxed);
        self.modeled_cycles.fetch_add(cycles, Ordering::Relaxed);
        let counter = match function {
            Function::Sigmoid => &self.sigmoid_ops,
            Function::Tanh => &self.tanh_ops,
            Function::Exp => &self.exp_ops,
            Function::Softmax => &self.softmax_ops,
            // Mac (and any future function) is rejected at submission;
            // count it nowhere.
            _ => return,
        };
        counter.fetch_add(ops, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_submitted: self.requests_submitted.load(Ordering::Relaxed),
            requests_completed: self.requests_completed.load(Ordering::Relaxed),
            requests_expired: self.requests_expired.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            sigmoid_ops: self.sigmoid_ops.load(Ordering::Relaxed),
            tanh_ops: self.tanh_ops.load(Ordering::Relaxed),
            exp_ops: self.exp_ops.load(Ordering::Relaxed),
            softmax_ops: self.softmax_ops.load(Ordering::Relaxed),
            modeled_cycles: self.modeled_cycles.load(Ordering::Relaxed),
            queue_depth_high_water: self.queue_depth_high_water.load(Ordering::Relaxed),
            faults_detected: self.faults_detected.load(Ordering::Relaxed),
            workers_quarantined: self.workers_quarantined.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            drift_alarms: self.drift_alarms.load(Ordering::Relaxed),
            fast_path_ops: self.fast_path_ops.load(Ordering::Relaxed),
            net_connections_accepted: self.net_connections_accepted.load(Ordering::Relaxed),
            net_connections_rejected: self.net_connections_rejected.load(Ordering::Relaxed),
            net_frames_in: self.net_frames_in.load(Ordering::Relaxed),
            net_frames_out: self.net_frames_out.load(Ordering::Relaxed),
            net_requests_shed: self.net_requests_shed.load(Ordering::Relaxed),
            net_quota_limited: self.net_quota_limited.load(Ordering::Relaxed),
            net_protocol_errors: self.net_protocol_errors.load(Ordering::Relaxed),
            async_wakers_registered: self.async_wakers_registered.load(Ordering::Relaxed),
            replay_records_captured: self.replay_records_captured.load(Ordering::Relaxed),
            replay_records_dropped: self.replay_records_dropped.load(Ordering::Relaxed),
            replay_requests_replayed: self.replay_requests_replayed.load(Ordering::Relaxed),
            replay_divergences: self.replay_divergences.load(Ordering::Relaxed),
            telemetry_samples: self.telemetry_samples.load(Ordering::Relaxed),
            slo_alarm_trips: self.slo_alarm_trips.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counter values (see [`EngineMetrics::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub requests_submitted: u64,
    /// Requests answered with a [`crate::Response`].
    pub requests_completed: u64,
    /// Requests dropped at pickup because their deadline had passed.
    pub requests_expired: u64,
    /// Submissions refused with `Busy` because the queue was full.
    pub busy_rejections: u64,
    /// Fused hardware batches executed by the pool.
    pub batches_executed: u64,
    /// Requests that rode in a batch opened by an earlier request.
    pub coalesced_requests: u64,
    /// σ operands evaluated.
    pub sigmoid_ops: u64,
    /// tanh operands evaluated.
    pub tanh_ops: u64,
    /// exp operands evaluated.
    pub exp_ops: u64,
    /// Softmax vector elements normalised.
    pub softmax_ops: u64,
    /// Total modeled pipeline cycles across all batches.
    pub modeled_cycles: u64,
    /// Deepest the submission queue has ever been.
    pub queue_depth_high_water: u64,
    /// Detector firings ([`nacu_faults::FaultEvent`]s) observed by workers.
    pub faults_detected: u64,
    /// Workers that quarantined themselves after a detector fired.
    pub workers_quarantined: u64,
    /// Requests requeued onto a healthy worker after a fault.
    pub retries: u64,
    /// Requests answered with a terminal fault error (retries exhausted or
    /// no healthy worker left).
    pub requests_failed: u64,
    /// Shadow-sampled operands whose error against the f64 reference
    /// exceeded the Eq. 7 bound (or the Eq. 16 exp budget).
    pub drift_alarms: u64,
    /// Operands answered from the response-table fast path (a subset of
    /// the per-function op counters; 0 means every operand walked the
    /// datapath — fast path disabled, format too wide, or fault plans
    /// forcing the fallback).
    pub fast_path_ops: u64,
    /// TCP connections accepted by the network front-end.
    pub net_connections_accepted: u64,
    /// TCP connections turned away at accept (connection limit).
    pub net_connections_rejected: u64,
    /// Well-formed request frames decoded off sockets.
    pub net_frames_in: u64,
    /// Reply frames written to sockets (any status, BUSY/SHED included).
    pub net_frames_out: u64,
    /// Requests shed with a SHED frame (deadline unmeetable).
    pub net_requests_shed: u64,
    /// Requests refused by the per-client token bucket (QUOTA frame).
    pub net_quota_limited: u64,
    /// Malformed frames observed on sockets (connection then closed).
    pub net_protocol_errors: u64,
    /// Reply wakers armed on tickets still in flight at admission.
    pub async_wakers_registered: u64,
    /// Trace records fully captured (request and response halves) by the
    /// engine's recorder, when one is configured.
    pub replay_records_captured: u64,
    /// Requests the recorder could not capture (ring saturated). Served
    /// normally — recording never sheds load.
    pub replay_records_dropped: u64,
    /// Recorded requests re-driven through this engine by a replayer.
    pub replay_requests_replayed: u64,
    /// Replayed responses that differed bit-wise from their recording.
    pub replay_divergences: u64,
    /// Windowed-telemetry samples taken by the sampler thread (0 when
    /// telemetry is disabled).
    pub telemetry_samples: u64,
    /// SLO burn-rate alarms latched (rising edges across all SLOs).
    pub slo_alarm_trips: u64,
}

impl MetricsSnapshot {
    /// Total operands evaluated across all four functions.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.sigmoid_ops + self.tanh_ops + self.exp_ops + self.softmax_ops
    }

    /// The counters as `(exporter_name, value)` pairs — the flat-counter
    /// tail of both wire formats (`nacu_obs::export` and the scrape
    /// server's `/metrics`). One list, so the CI exporter and the live
    /// endpoint can never drift apart.
    #[must_use]
    pub fn exporter_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "nacu_engine_requests_submitted_total",
                self.requests_submitted,
            ),
            (
                "nacu_engine_requests_completed_total",
                self.requests_completed,
            ),
            ("nacu_engine_requests_expired_total", self.requests_expired),
            ("nacu_engine_busy_rejections_total", self.busy_rejections),
            ("nacu_engine_batches_executed_total", self.batches_executed),
            (
                "nacu_engine_coalesced_requests_total",
                self.coalesced_requests,
            ),
            ("nacu_engine_faults_detected_total", self.faults_detected),
            (
                "nacu_engine_workers_quarantined_total",
                self.workers_quarantined,
            ),
            ("nacu_engine_retries_total", self.retries),
            ("nacu_engine_requests_failed_total", self.requests_failed),
            ("nacu_engine_drift_alarms_total", self.drift_alarms),
            ("nacu_engine_fast_path_ops_total", self.fast_path_ops),
            (
                "nacu_net_connections_accepted_total",
                self.net_connections_accepted,
            ),
            (
                "nacu_net_connections_rejected_total",
                self.net_connections_rejected,
            ),
            ("nacu_net_frames_in_total", self.net_frames_in),
            ("nacu_net_frames_out_total", self.net_frames_out),
            ("nacu_net_requests_shed_total", self.net_requests_shed),
            ("nacu_net_quota_limited_total", self.net_quota_limited),
            ("nacu_net_protocol_errors_total", self.net_protocol_errors),
            (
                "nacu_async_wakers_registered_total",
                self.async_wakers_registered,
            ),
            (
                "nacu_replay_records_captured_total",
                self.replay_records_captured,
            ),
            (
                "nacu_replay_records_dropped_total",
                self.replay_records_dropped,
            ),
            (
                "nacu_replay_requests_replayed_total",
                self.replay_requests_replayed,
            ),
            ("nacu_replay_divergences_total", self.replay_divergences),
            (
                "nacu_engine_telemetry_samples_total",
                self.telemetry_samples,
            ),
            ("nacu_engine_slo_alarm_trips_total", self.slo_alarm_trips),
            (
                "nacu_engine_queue_depth_high_water",
                self.queue_depth_high_water,
            ),
        ]
    }

    /// Counter-wise difference since `earlier` (saturating, so a stale
    /// baseline never underflows).
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_submitted: self
                .requests_submitted
                .saturating_sub(earlier.requests_submitted),
            requests_completed: self
                .requests_completed
                .saturating_sub(earlier.requests_completed),
            requests_expired: self
                .requests_expired
                .saturating_sub(earlier.requests_expired),
            busy_rejections: self.busy_rejections.saturating_sub(earlier.busy_rejections),
            batches_executed: self
                .batches_executed
                .saturating_sub(earlier.batches_executed),
            coalesced_requests: self
                .coalesced_requests
                .saturating_sub(earlier.coalesced_requests),
            sigmoid_ops: self.sigmoid_ops.saturating_sub(earlier.sigmoid_ops),
            tanh_ops: self.tanh_ops.saturating_sub(earlier.tanh_ops),
            exp_ops: self.exp_ops.saturating_sub(earlier.exp_ops),
            softmax_ops: self.softmax_ops.saturating_sub(earlier.softmax_ops),
            modeled_cycles: self.modeled_cycles.saturating_sub(earlier.modeled_cycles),
            // High-water marks are absolute, not cumulative.
            queue_depth_high_water: self.queue_depth_high_water,
            faults_detected: self.faults_detected.saturating_sub(earlier.faults_detected),
            workers_quarantined: self
                .workers_quarantined
                .saturating_sub(earlier.workers_quarantined),
            retries: self.retries.saturating_sub(earlier.retries),
            requests_failed: self.requests_failed.saturating_sub(earlier.requests_failed),
            drift_alarms: self.drift_alarms.saturating_sub(earlier.drift_alarms),
            fast_path_ops: self.fast_path_ops.saturating_sub(earlier.fast_path_ops),
            net_connections_accepted: self
                .net_connections_accepted
                .saturating_sub(earlier.net_connections_accepted),
            net_connections_rejected: self
                .net_connections_rejected
                .saturating_sub(earlier.net_connections_rejected),
            net_frames_in: self.net_frames_in.saturating_sub(earlier.net_frames_in),
            net_frames_out: self.net_frames_out.saturating_sub(earlier.net_frames_out),
            net_requests_shed: self
                .net_requests_shed
                .saturating_sub(earlier.net_requests_shed),
            net_quota_limited: self
                .net_quota_limited
                .saturating_sub(earlier.net_quota_limited),
            net_protocol_errors: self
                .net_protocol_errors
                .saturating_sub(earlier.net_protocol_errors),
            async_wakers_registered: self
                .async_wakers_registered
                .saturating_sub(earlier.async_wakers_registered),
            replay_records_captured: self
                .replay_records_captured
                .saturating_sub(earlier.replay_records_captured),
            replay_records_dropped: self
                .replay_records_dropped
                .saturating_sub(earlier.replay_records_dropped),
            replay_requests_replayed: self
                .replay_requests_replayed
                .saturating_sub(earlier.replay_requests_replayed),
            replay_divergences: self
                .replay_divergences
                .saturating_sub(earlier.replay_divergences),
            telemetry_samples: self
                .telemetry_samples
                .saturating_sub(earlier.telemetry_samples),
            slo_alarm_trips: self.slo_alarm_trips.saturating_sub(earlier.slo_alarm_trips),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate_per_function_ops() {
        let m = EngineMetrics::new();
        m.record_batch(Function::Sigmoid, 3, 10, 12);
        m.record_batch(Function::Softmax, 1, 16, 46);
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
        m.record_queue_depth(3);
        m.record_queue_depth(9);
        m.record_queue_depth(5);
        assert_eq!(m.snapshot().queue_depth_high_water, 9);
    }

    #[test]
    fn fault_counters_accumulate_and_diff() {
        let m = EngineMetrics::new();
        m.record_fault_detected();
        m.record_worker_quarantined();
        m.record_retry();
        m.record_retry();
        let early = m.snapshot();
        m.record_request_failed();
        let d = m.snapshot().since(&early);
        assert_eq!(early.faults_detected, 1);
        assert_eq!(early.workers_quarantined, 1);
        assert_eq!(early.retries, 2);
        assert_eq!(d.requests_failed, 1);
        assert_eq!(d.retries, 0);
    }

    #[test]
    fn exporter_counters_carry_stable_names_and_drift_alarms() {
        let m = EngineMetrics::new();
        m.record_drift_alarm();
        let s = m.snapshot();
        assert_eq!(s.drift_alarms, 1);
        let counters = s.exporter_counters();
        assert_eq!(counters.len(), 27);
        assert!(counters
            .iter()
            .any(|&(n, v)| n == "nacu_engine_drift_alarms_total" && v == 1));
        let mut names: Vec<&str> = counters.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27, "exporter names are unique");
    }

    #[test]
    fn replay_counters_accumulate_diff_and_export() {
        let m = EngineMetrics::new();
        m.record_replay_record_captured();
        m.record_replay_record_captured();
        m.record_replay_record_dropped();
        m.record_replay_requests(5);
        m.record_replay_divergence();
        let s = m.snapshot();
        assert_eq!(s.replay_records_captured, 2);
        assert_eq!(s.replay_records_dropped, 1);
        assert_eq!(s.replay_requests_replayed, 5);
        assert_eq!(s.replay_divergences, 1);
        let counters = s.exporter_counters();
        for (name, want) in [
            ("nacu_replay_records_captured_total", 2),
            ("nacu_replay_records_dropped_total", 1),
            ("nacu_replay_requests_replayed_total", 5),
            ("nacu_replay_divergences_total", 1),
        ] {
            assert!(
                counters.iter().any(|&(n, v)| n == name && v == want),
                "{name} missing or wrong"
            );
        }
        let early = s;
        m.record_replay_requests(3);
        let d = m.snapshot().since(&early);
        assert_eq!(d.replay_requests_replayed, 3);
        assert_eq!(d.replay_divergences, 0);
    }

    #[test]
    fn async_counters_accumulate_diff_and_export() {
        let m = EngineMetrics::new();
        m.record_async_waker_registered();
        m.record_async_waker_registered();
        let s = m.snapshot();
        assert_eq!(s.async_wakers_registered, 2);
        assert!(s
            .exporter_counters()
            .iter()
            .any(|&(n, v)| n == "nacu_async_wakers_registered_total" && v == 2));
        let early = s;
        m.record_async_waker_registered();
        let d = m.snapshot().since(&early);
        assert_eq!(d.async_wakers_registered, 1);
    }

    #[test]
    fn net_counters_accumulate_export_and_diff() {
        let m = EngineMetrics::new();
        m.record_net_connection_accepted();
        m.record_net_connection_rejected();
        m.record_net_frame_in();
        m.record_net_frame_in();
        m.record_net_frame_out();
        m.record_net_request_shed();
        m.record_net_quota_limited();
        m.record_net_protocol_error();
        let s = m.snapshot();
        assert_eq!(s.net_connections_accepted, 1);
        assert_eq!(s.net_connections_rejected, 1);
        assert_eq!(s.net_frames_in, 2);
        assert_eq!(s.net_frames_out, 1);
        assert_eq!(s.net_requests_shed, 1);
        assert_eq!(s.net_quota_limited, 1);
        assert_eq!(s.net_protocol_errors, 1);
        let counters = s.exporter_counters();
        for (name, want) in [
            ("nacu_net_connections_accepted_total", 1),
            ("nacu_net_connections_rejected_total", 1),
            ("nacu_net_frames_in_total", 2),
            ("nacu_net_frames_out_total", 1),
            ("nacu_net_requests_shed_total", 1),
            ("nacu_net_quota_limited_total", 1),
            ("nacu_net_protocol_errors_total", 1),
        ] {
            assert!(
                counters.iter().any(|&(n, v)| n == name && v == want),
                "{name} missing or wrong"
            );
        }
        let early = s;
        m.record_net_frame_in();
        let d = m.snapshot().since(&early);
        assert_eq!(d.net_frames_in, 1);
        assert_eq!(d.net_frames_out, 0);
    }

    #[test]
    fn fast_path_ops_accumulate_and_export() {
        let m = EngineMetrics::new();
        m.record_fast_path_ops(64);
        m.record_fast_path_ops(16);
        let s = m.snapshot();
        assert_eq!(s.fast_path_ops, 80);
        assert!(s
            .exporter_counters()
            .iter()
            .any(|&(n, v)| n == "nacu_engine_fast_path_ops_total" && v == 80));
        let d = s.since(&MetricsSnapshot::default());
        assert_eq!(d.fast_path_ops, 80);
    }

    #[test]
    fn telemetry_counters_accumulate_diff_and_export() {
        let m = EngineMetrics::new();
        m.record_telemetry_sample();
        m.record_telemetry_sample();
        m.record_slo_trip();
        let s = m.snapshot();
        assert_eq!(s.telemetry_samples, 2);
        assert_eq!(s.slo_alarm_trips, 1);
        let counters = s.exporter_counters();
        for (name, want) in [
            ("nacu_engine_telemetry_samples_total", 2),
            ("nacu_engine_slo_alarm_trips_total", 1),
        ] {
            assert!(
                counters.iter().any(|&(n, v)| n == name && v == want),
                "{name} missing or wrong"
            );
        }
        let early = s;
        m.record_telemetry_sample();
        let d = m.snapshot().since(&early);
        assert_eq!(d.telemetry_samples, 1);
        assert_eq!(d.slo_alarm_trips, 0);
    }

    #[test]
    fn since_diffs_counters_but_not_high_water() {
        let m = EngineMetrics::new();
        m.record_batch(Function::Tanh, 1, 4, 6);
        let early = m.snapshot();
        m.record_batch(Function::Tanh, 2, 8, 10);
        m.record_queue_depth(7);
        let late = m.snapshot();
        let d = late.since(&early);
        assert_eq!(d.tanh_ops, 8);
        assert_eq!(d.requests_completed, 2);
        assert_eq!(d.queue_depth_high_water, 7);
    }
}
