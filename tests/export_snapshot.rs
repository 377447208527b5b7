//! Snapshot tests pinning the exporters' exact output.
//!
//! CI archives the Prometheus and JSON renderings as the
//! `metrics-snapshot` artifact and dashboards parse them, so the formats
//! must not drift silently. These tests record a fixed event stream and
//! compare the full rendered strings; an intentional format change must
//! update the expected text here **and** bump
//! [`nacu_obs::export::JSON_SCHEMA`] if the JSON layout moved.
//!
//! Wall-time budget: well under 1 s (two renders of a handful of
//! events, no threads, no sockets).

use nacu::Function;
use nacu_engine::MetricsSnapshot;
use nacu_obs::export::{json, prometheus, JSON_SCHEMA};
use nacu_obs::{Exemplar, Obs, Stage, TraceKind};

/// A deterministic observation stream: two σ batches and one softmax,
/// plus one literal tail exemplar (a captured one would carry a
/// wall-clock stamp).
fn fixed_snapshot() -> nacu_obs::ObsSnapshot {
    let obs = Obs::with_trace_capacity(8);
    obs.record_latency(Stage::QueueWait, Function::Sigmoid, 1_000);
    obs.record_latency(Stage::QueueWait, Function::Sigmoid, 3_000);
    obs.record_latency(Stage::BatchService, Function::Sigmoid, 20_000);
    obs.record_latency(Stage::EndToEnd, Function::Sigmoid, 25_000);
    obs.record_latency(Stage::QueueWait, Function::Softmax, 2_000);
    obs.record_latency(Stage::BatchService, Function::Softmax, 40_000);
    obs.record_latency(Stage::EndToEnd, Function::Softmax, 45_000);
    obs.cycles()
        .record_batch(Function::Sigmoid, 64, 66, 67, 20_000);
    obs.cycles()
        .record_batch(Function::Softmax, 16, 46, 48, 40_000);
    obs.record_trace(TraceKind::Submit {
        req: 1,
        conn: 0,
        function: Function::Sigmoid,
        ops: 64,
    });
    obs.record_trace(TraceKind::Quarantine { worker: 1 });
    let mut snap = obs.snapshot();
    snap.exemplars = vec![Exemplar {
        stage: Stage::EndToEnd,
        function: Function::Softmax,
        value_ns: 45_000,
        req: 3,
        conn: 2,
        at_ns: 900_000_000,
    }];
    snap
}

/// Flat series as the engine exports them: `_total` tallies and one
/// high-water mark, which is a gauge.
const COUNTERS: &[(&str, u64)] = &[
    ("nacu_engine_requests_submitted_total", 3),
    ("nacu_engine_requests_completed_total", 3),
    ("nacu_engine_queue_depth_high_water", 2),
];

/// 1 GHz reference clock: 1 cycle == 1 ns, so expected gauge values are
/// readable by inspection.
const CLOCK_HZ: f64 = 1e9;

#[test]
fn prometheus_exposition_is_pinned() {
    let expected = r#"# HELP nacu_obs_queue_wait_ns Time from submission to batch pickup, nanoseconds.
# TYPE nacu_obs_queue_wait_ns histogram
nacu_obs_queue_wait_ns_bucket{function="sigmoid",le="1024"} 1
nacu_obs_queue_wait_ns_bucket{function="sigmoid",le="3072"} 2
nacu_obs_queue_wait_ns_bucket{function="sigmoid",le="+Inf"} 2
nacu_obs_queue_wait_ns_sum{function="sigmoid"} 4000
nacu_obs_queue_wait_ns_count{function="sigmoid"} 2
nacu_obs_queue_wait_ns_bucket{function="softmax",le="2048"} 1
nacu_obs_queue_wait_ns_bucket{function="softmax",le="+Inf"} 1
nacu_obs_queue_wait_ns_sum{function="softmax"} 2000
nacu_obs_queue_wait_ns_count{function="softmax"} 1
# HELP nacu_obs_batch_service_ns Datapath service time per fused batch, nanoseconds.
# TYPE nacu_obs_batch_service_ns histogram
nacu_obs_batch_service_ns_bucket{function="sigmoid",le="20480"} 1
nacu_obs_batch_service_ns_bucket{function="sigmoid",le="+Inf"} 1
nacu_obs_batch_service_ns_sum{function="sigmoid"} 20000
nacu_obs_batch_service_ns_count{function="sigmoid"} 1
nacu_obs_batch_service_ns_bucket{function="softmax",le="40960"} 1
nacu_obs_batch_service_ns_bucket{function="softmax",le="+Inf"} 1
nacu_obs_batch_service_ns_sum{function="softmax"} 40000
nacu_obs_batch_service_ns_count{function="softmax"} 1
# HELP nacu_obs_end_to_end_ns Time from submission to response, nanoseconds.
# TYPE nacu_obs_end_to_end_ns histogram
nacu_obs_end_to_end_ns_bucket{function="sigmoid",le="25600"} 1
nacu_obs_end_to_end_ns_bucket{function="sigmoid",le="+Inf"} 1
nacu_obs_end_to_end_ns_sum{function="sigmoid"} 25000
nacu_obs_end_to_end_ns_count{function="sigmoid"} 1
nacu_obs_end_to_end_ns_bucket{function="softmax",le="45056"} 1
nacu_obs_end_to_end_ns_bucket{function="softmax",le="+Inf"} 1
nacu_obs_end_to_end_ns_sum{function="softmax"} 45000
nacu_obs_end_to_end_ns_count{function="softmax"} 1
# HELP nacu_obs_batches_total Fused hardware batches served.
# TYPE nacu_obs_batches_total counter
nacu_obs_batches_total{function="sigmoid"} 1
nacu_obs_batches_total{function="tanh"} 0
nacu_obs_batches_total{function="exp"} 0
nacu_obs_batches_total{function="softmax"} 1
# HELP nacu_obs_ops_total Operands served.
# TYPE nacu_obs_ops_total counter
nacu_obs_ops_total{function="sigmoid"} 64
nacu_obs_ops_total{function="tanh"} 0
nacu_obs_ops_total{function="exp"} 0
nacu_obs_ops_total{function="softmax"} 16
# HELP nacu_obs_modeled_cycles_total Table I modeled cycles for the served batches.
# TYPE nacu_obs_modeled_cycles_total counter
nacu_obs_modeled_cycles_total{function="sigmoid"} 66
nacu_obs_modeled_cycles_total{function="tanh"} 0
nacu_obs_modeled_cycles_total{function="exp"} 0
nacu_obs_modeled_cycles_total{function="softmax"} 46
# HELP nacu_obs_checked_cycles_total Checked-unit modeled cycles (detector stage included).
# TYPE nacu_obs_checked_cycles_total counter
nacu_obs_checked_cycles_total{function="sigmoid"} 67
nacu_obs_checked_cycles_total{function="tanh"} 0
nacu_obs_checked_cycles_total{function="exp"} 0
nacu_obs_checked_cycles_total{function="softmax"} 48
# HELP nacu_obs_measured_ns_total Measured batch service time, nanoseconds.
# TYPE nacu_obs_measured_ns_total counter
nacu_obs_measured_ns_total{function="sigmoid"} 20000
nacu_obs_measured_ns_total{function="tanh"} 0
nacu_obs_measured_ns_total{function="exp"} 0
nacu_obs_measured_ns_total{function="softmax"} 40000
# HELP nacu_obs_effective_cycles_per_op Measured time as cycles per operand at the reference clock.
# TYPE nacu_obs_effective_cycles_per_op gauge
nacu_obs_effective_cycles_per_op{function="sigmoid"} 312.5
nacu_obs_effective_cycles_per_op{function="tanh"} 0
nacu_obs_effective_cycles_per_op{function="exp"} 0
nacu_obs_effective_cycles_per_op{function="softmax"} 2500
# HELP nacu_obs_model_measured_ratio Measured over modeled time at the reference clock.
# TYPE nacu_obs_model_measured_ratio gauge
nacu_obs_model_measured_ratio{function="sigmoid"} 303.03030303030306
nacu_obs_model_measured_ratio{function="tanh"} 0
nacu_obs_model_measured_ratio{function="exp"} 0
nacu_obs_model_measured_ratio{function="softmax"} 869.5652173913044
# HELP nacu_obs_trace_recorded_total Trace events recorded.
# TYPE nacu_obs_trace_recorded_total counter
nacu_obs_trace_recorded_total 2
# HELP nacu_obs_trace_dropped_total Trace events dropped (ring full).
# TYPE nacu_obs_trace_dropped_total counter
nacu_obs_trace_dropped_total 0
# HELP nacu_obs_trace_capacity Trace ring capacity.
# TYPE nacu_obs_trace_capacity gauge
nacu_obs_trace_capacity 8
# HELP nacu_obs_exemplar_ns Tail-latency exemplars: one concrete request per series.
# TYPE nacu_obs_exemplar_ns gauge
nacu_obs_exemplar_ns{stage="end_to_end_ns",function="softmax",req="3",conn="2"} 45000
# HELP nacu_obs_health_sample_interval Shadow-check one in this many operands (0 = disabled).
# TYPE nacu_obs_health_sample_interval gauge
nacu_obs_health_sample_interval 0
# HELP nacu_obs_health_samples_total Shadow-reference samples checked against the f64 reference.
# TYPE nacu_obs_health_samples_total counter
nacu_obs_health_samples_total{function="sigmoid"} 0
nacu_obs_health_samples_total{function="tanh"} 0
nacu_obs_health_samples_total{function="exp"} 0
# HELP nacu_obs_health_err_lsb Shadow-sample absolute error in output-format LSBs.
# TYPE nacu_obs_health_err_lsb histogram
# HELP nacu_obs_health_max_err_lsb Maximum observed shadow error in output LSBs.
# TYPE nacu_obs_health_max_err_lsb gauge
nacu_obs_health_max_err_lsb{function="sigmoid"} 0
nacu_obs_health_max_err_lsb{function="tanh"} 0
nacu_obs_health_max_err_lsb{function="exp"} 0
# HELP nacu_obs_health_avg_err_lsb Mean observed shadow error in output LSBs.
# TYPE nacu_obs_health_avg_err_lsb gauge
nacu_obs_health_avg_err_lsb{function="sigmoid"} 0
nacu_obs_health_avg_err_lsb{function="tanh"} 0
nacu_obs_health_avg_err_lsb{function="exp"} 0
# HELP nacu_obs_health_correlation Running Pearson correlation between served and reference values.
# TYPE nacu_obs_health_correlation gauge
nacu_obs_health_correlation{function="sigmoid"} 0
nacu_obs_health_correlation{function="tanh"} 0
nacu_obs_health_correlation{function="exp"} 0
# HELP nacu_obs_health_bound_lsb Alarm bound (Eq. 7 / Eq. 16) in output LSBs.
# TYPE nacu_obs_health_bound_lsb gauge
nacu_obs_health_bound_lsb{function="sigmoid"} 1.7568650816181137
nacu_obs_health_bound_lsb{function="tanh"} 3.0137301632362274
nacu_obs_health_bound_lsb{function="exp"} 6.777460326472455
# HELP nacu_obs_drift_alarms_total Shadow samples whose error exceeded the dimensioning bound.
# TYPE nacu_obs_drift_alarms_total counter
nacu_obs_drift_alarms_total{function="sigmoid"} 0
nacu_obs_drift_alarms_total{function="tanh"} 0
nacu_obs_drift_alarms_total{function="exp"} 0
# HELP nacu_obs_drift_alarm_latched 1 once any drift alarm has fired.
# TYPE nacu_obs_drift_alarm_latched gauge
nacu_obs_drift_alarm_latched 0
# HELP nacu_engine_requests_submitted_total Requests accepted into the queue.
# TYPE nacu_engine_requests_submitted_total counter
nacu_engine_requests_submitted_total 3
# HELP nacu_engine_requests_completed_total Requests answered with a response.
# TYPE nacu_engine_requests_completed_total counter
nacu_engine_requests_completed_total 3
# HELP nacu_engine_queue_depth_high_water Deepest the submission queue has ever been.
# TYPE nacu_engine_queue_depth_high_water gauge
nacu_engine_queue_depth_high_water 2
"#;
    // The help text is the engine's own, from its counter table.
    let help = MetricsSnapshot::exporter_help();
    let actual = prometheus(&fixed_snapshot(), CLOCK_HZ, COUNTERS, &help);
    assert_eq!(
        actual, expected,
        "Prometheus exposition drifted — if intentional, update this snapshot"
    );
}

#[test]
fn json_snapshot_is_pinned() {
    let expected = r#"{
  "schema": "nacu-obs/v3",
  "clock_hz": 1000000000,
  "histograms": {
    "queue_wait_ns": {"sigmoid": {"count":2,"sum":4000,"min":1000,"max":3000,"p50":1024,"p90":3000,"p99":3000,"buckets":[[1024,1],[3072,1]]}, "tanh": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}, "exp": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}, "softmax": {"count":1,"sum":2000,"min":2000,"max":2000,"p50":2000,"p90":2000,"p99":2000,"buckets":[[2048,1]]}},
    "batch_service_ns": {"sigmoid": {"count":1,"sum":20000,"min":20000,"max":20000,"p50":20000,"p90":20000,"p99":20000,"buckets":[[20480,1]]}, "tanh": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}, "exp": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}, "softmax": {"count":1,"sum":40000,"min":40000,"max":40000,"p50":40000,"p90":40000,"p99":40000,"buckets":[[40960,1]]}},
    "end_to_end_ns": {"sigmoid": {"count":1,"sum":25000,"min":25000,"max":25000,"p50":25000,"p90":25000,"p99":25000,"buckets":[[25600,1]]}, "tanh": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}, "exp": {"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}, "softmax": {"count":1,"sum":45000,"min":45000,"max":45000,"p50":45000,"p90":45000,"p99":45000,"buckets":[[45056,1]]}}
  },
  "cycles": {
    "sigmoid": {"batches":1,"ops":64,"modeled_cycles":66,"checked_cycles":67,"measured_ns":20000,"modeled_cycles_per_op":1.03125,"effective_cycles_per_op":312.5,"model_measured_ratio":303.03030303030306},
    "tanh": {"batches":0,"ops":0,"modeled_cycles":0,"checked_cycles":0,"measured_ns":0,"modeled_cycles_per_op":0,"effective_cycles_per_op":0,"model_measured_ratio":0},
    "exp": {"batches":0,"ops":0,"modeled_cycles":0,"checked_cycles":0,"measured_ns":0,"modeled_cycles_per_op":0,"effective_cycles_per_op":0,"model_measured_ratio":0},
    "softmax": {"batches":1,"ops":16,"modeled_cycles":46,"checked_cycles":48,"measured_ns":40000,"modeled_cycles_per_op":2.875,"effective_cycles_per_op":2500,"model_measured_ratio":869.5652173913044}
  },
  "trace": {"capacity":8,"recorded":2,"dropped":0},
  "health": {"sample_interval":0,"alarm_latched":false,"functions":{
    "sigmoid": {"samples":0,"alarms":0,"max_err":0,"avg_err":0,"max_err_lsb":0,"avg_err_lsb":0,"correlation":0,"bound":0.0008578442781338446,"bound_lsb":1.7568650816181137,"err_lsb":{"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}},
    "tanh": {"samples":0,"alarms":0,"max_err":0,"avg_err":0,"max_err_lsb":0,"avg_err_lsb":0,"correlation":0,"bound":0.0014715479312676892,"bound_lsb":3.0137301632362274,"err_lsb":{"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}},
    "exp": {"samples":0,"alarms":0,"max_err":0,"avg_err":0,"max_err_lsb":0,"avg_err_lsb":0,"correlation":0,"bound":0.0033093068000353784,"bound_lsb":6.777460326472455,"err_lsb":{"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}}
  }},
  "exemplars": [
    {"stage":"end_to_end_ns","function":"softmax","value_ns":45000,"req":3,"conn":2,"at_ns":900000000}
  ],
  "counters": {"nacu_engine_requests_submitted_total":3,"nacu_engine_requests_completed_total":3,"nacu_engine_queue_depth_high_water":2}
}
"#;
    let actual = json(&fixed_snapshot(), CLOCK_HZ, COUNTERS);
    assert_eq!(
        actual, expected,
        "JSON snapshot drifted — if intentional, update this snapshot AND bump JSON_SCHEMA"
    );
    assert_eq!(JSON_SCHEMA, "nacu-obs/v3");
}
