//! Exporters: Prometheus text exposition and a stable JSON snapshot.
//!
//! Both render one [`ObsSnapshot`] (plus any caller-supplied flat
//! counters, e.g. the engine's `EngineMetrics`) into a self-contained
//! string. The output shapes are **pinned by snapshot tests** — CI
//! consumers (dashboards, the `metrics-snapshot` artifact, the bench
//! gates) parse them, so any change here must be deliberate and
//! versioned: bump [`JSON_SCHEMA_V2`] when the JSON layout changes.
//!
//! Histogram exposition follows the Prometheus histogram convention —
//! cumulative `_bucket{le="…"}` series plus `_sum` and `_count` — with
//! one series set per function label. Only non-empty buckets are
//! emitted: a cumulative histogram stays valid under any subset of
//! bucket bounds, and the full fixed bucket array would be ~1000 lines
//! per histogram.

use nacu::Function;

use crate::exemplar::Exemplar;
use crate::health::HealthSnapshot;
use crate::hist::{bucket_upper_bound, HistogramSnapshot};
use crate::slo::SloStatus;
use crate::window::WindowDelta;
use crate::{ObsSnapshot, Stage, ACCOUNTED_FUNCTIONS};

/// Version tag of the JSON layout produced by [`json_v2`]: `histograms`,
/// `cycles`, `trace`, `health`, `windows`, `exemplars`, `slo` and
/// `counters`, in that order. Bump it when the layout changes.
pub const JSON_SCHEMA_V2: &str = "nacu-obs/v2";

/// Renders `f64` for both exporters: finite shortest round-trip, with
/// non-finite values (impossible from our derivations, which guard their
/// denominators) clamped to 0 so consumers never see `NaN`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn stage_help(stage: Stage) -> &'static str {
    match stage {
        Stage::QueueWait => "Time from submission to batch pickup, nanoseconds.",
        Stage::BatchService => "Datapath service time per fused batch, nanoseconds.",
        Stage::EndToEnd => "Time from submission to response, nanoseconds.",
    }
}

fn prometheus_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(Function, &HistogramSnapshot)],
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (function, h) in series {
        if h.is_empty() {
            continue;
        }
        let mut cumulative = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let le = bucket_upper_bound(i);
            out.push_str(&format!(
                "{name}_bucket{{function=\"{function}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{function=\"{function}\",le=\"+Inf\"}} {}\n",
            h.count
        ));
        out.push_str(&format!(
            "{name}_sum{{function=\"{function}\"}} {}\n",
            h.sum
        ));
        out.push_str(&format!(
            "{name}_count{{function=\"{function}\"}} {}\n",
            h.count
        ));
    }
}

fn prometheus_counter_family(
    out: &mut String,
    name: &str,
    help: &str,
    values: impl Iterator<Item = (Function, String)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
    for (function, value) in values {
        out.push_str(&format!("{name}{{function=\"{function}\"}} {value}\n"));
    }
}

/// Renders the snapshot as Prometheus text exposition (format 0.0.4).
///
/// `clock_hz` is the reference clock the cycle-accounting gauges convert
/// measured time with (the paper's 3.75 ns clock for a hardware
/// comparison, or a host clock for profiling). `counters` are extra flat
/// series appended verbatim — the engine passes its `EngineMetrics`
/// snapshot through here — and `help` gives their `# HELP` text by name
/// (a series without an entry gets none). By the Prometheus naming rule
/// a `_total` name is typed `counter` and any other (a high-water mark)
/// `gauge`.
#[must_use]
pub fn prometheus(
    snap: &ObsSnapshot,
    clock_hz: f64,
    counters: &[(&str, u64)],
    help: &[(&str, &str)],
) -> String {
    let mut out = String::new();

    for stage in Stage::ALL {
        let name = format!("nacu_obs_{}", stage.name());
        let series: Vec<(Function, &HistogramSnapshot)> = ACCOUNTED_FUNCTIONS
            .iter()
            .map(|&f| (f, snap.stage(stage, f).expect("accounted function")))
            .collect();
        prometheus_histogram(&mut out, &name, stage_help(stage), &series);
    }

    let rows = &snap.cycles.rows;
    prometheus_counter_family(
        &mut out,
        "nacu_obs_batches_total",
        "Fused hardware batches served.",
        rows.iter().map(|r| (r.function, r.batches.to_string())),
    );
    prometheus_counter_family(
        &mut out,
        "nacu_obs_ops_total",
        "Operands served.",
        rows.iter().map(|r| (r.function, r.ops.to_string())),
    );
    prometheus_counter_family(
        &mut out,
        "nacu_obs_modeled_cycles_total",
        "Table I modeled cycles for the served batches.",
        rows.iter()
            .map(|r| (r.function, r.modeled_cycles.to_string())),
    );
    prometheus_counter_family(
        &mut out,
        "nacu_obs_checked_cycles_total",
        "Checked-unit modeled cycles (detector stage included).",
        rows.iter()
            .map(|r| (r.function, r.checked_cycles.to_string())),
    );
    prometheus_counter_family(
        &mut out,
        "nacu_obs_measured_ns_total",
        "Measured batch service time, nanoseconds.",
        rows.iter().map(|r| (r.function, r.measured_ns.to_string())),
    );

    out.push_str(
        "# HELP nacu_obs_effective_cycles_per_op Measured time as cycles per operand at the reference clock.\n\
         # TYPE nacu_obs_effective_cycles_per_op gauge\n",
    );
    for r in rows {
        out.push_str(&format!(
            "nacu_obs_effective_cycles_per_op{{function=\"{}\"}} {}\n",
            r.function,
            fmt_f64(r.effective_cycles_per_op(clock_hz))
        ));
    }
    out.push_str(
        "# HELP nacu_obs_model_measured_ratio Measured over modeled time at the reference clock.\n\
         # TYPE nacu_obs_model_measured_ratio gauge\n",
    );
    for r in rows {
        out.push_str(&format!(
            "nacu_obs_model_measured_ratio{{function=\"{}\"}} {}\n",
            r.function,
            fmt_f64(r.model_measured_ratio(clock_hz))
        ));
    }

    out.push_str(&format!(
        "# HELP nacu_obs_trace_recorded_total Trace events recorded.\n\
         # TYPE nacu_obs_trace_recorded_total counter\n\
         nacu_obs_trace_recorded_total {}\n\
         # HELP nacu_obs_trace_dropped_total Trace events dropped (ring full).\n\
         # TYPE nacu_obs_trace_dropped_total counter\n\
         nacu_obs_trace_dropped_total {}\n\
         # HELP nacu_obs_trace_capacity Trace ring capacity.\n\
         # TYPE nacu_obs_trace_capacity gauge\n\
         nacu_obs_trace_capacity {}\n",
        snap.trace.recorded, snap.trace.dropped, snap.trace.capacity
    ));

    prometheus_health(&mut out, &snap.health);

    for (name, value) in counters {
        if let Some((_, text)) = help.iter().find(|(n, _)| n == name) {
            out.push_str(&format!("# HELP {name} {text}\n"));
        }
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
    }
    out
}

/// Renders the telemetry families — rolling-window gauges, tail
/// exemplars, and SLO burn-rate alarms — as Prometheus text. Kept
/// separate from [`prometheus`] (and appended after it by the scrape
/// server) so the v1 exposition, which is pinned by snapshot tests,
/// stays byte-identical when telemetry is disabled.
#[must_use]
pub fn prometheus_telemetry(
    windows: &[(&str, WindowDelta)],
    exemplars: &[Exemplar],
    slo: &[SloStatus],
) -> String {
    let mut out = String::new();

    out.push_str(
        "# HELP nacu_obs_window_requests Requests recorded end-to-end inside the rolling window.\n\
         # TYPE nacu_obs_window_requests gauge\n",
    );
    for (label, w) in windows {
        out.push_str(&format!(
            "nacu_obs_window_requests{{window=\"{label}\"}} {}\n",
            w.stage_merged(Stage::EndToEnd).count
        ));
    }
    out.push_str(
        "# HELP nacu_obs_window_p99_ns End-to-end p99 over the rolling window, nanoseconds.\n\
         # TYPE nacu_obs_window_p99_ns gauge\n",
    );
    for (label, w) in windows {
        out.push_str(&format!(
            "nacu_obs_window_p99_ns{{window=\"{label}\"}} {}\n",
            w.stage_merged(Stage::EndToEnd).p99()
        ));
    }
    out.push_str(
        "# HELP nacu_obs_window_ops_per_sec Operands served per second over the rolling window.\n\
         # TYPE nacu_obs_window_ops_per_sec gauge\n",
    );
    for (label, w) in windows {
        out.push_str(&format!(
            "nacu_obs_window_ops_per_sec{{window=\"{label}\"}} {}\n",
            fmt_f64(w.per_second(w.total_ops()))
        ));
    }

    out.push_str(
        "# HELP nacu_obs_exemplar_ns Tail-latency exemplars: one concrete request per series.\n\
         # TYPE nacu_obs_exemplar_ns gauge\n",
    );
    for e in exemplars {
        out.push_str(&format!(
            "nacu_obs_exemplar_ns{{stage=\"{}\",function=\"{}\",req=\"{}\",conn=\"{}\"}} {}\n",
            e.stage.name(),
            e.function,
            e.req,
            e.conn,
            e.value_ns
        ));
    }

    out.push_str(
        "# HELP nacu_obs_slo_burn_rate Error-budget burn rate per SLO and evaluation window.\n\
         # TYPE nacu_obs_slo_burn_rate gauge\n",
    );
    for s in slo {
        out.push_str(&format!(
            "nacu_obs_slo_burn_rate{{slo=\"{}\",window=\"fast\"}} {}\n",
            s.name,
            fmt_f64(s.fast_burn)
        ));
        out.push_str(&format!(
            "nacu_obs_slo_burn_rate{{slo=\"{}\",window=\"slow\"}} {}\n",
            s.name,
            fmt_f64(s.slow_burn)
        ));
    }
    out.push_str(
        "# HELP nacu_obs_slo_alarm_active 1 while the SLO's burn-rate alarm is active.\n\
         # TYPE nacu_obs_slo_alarm_active gauge\n",
    );
    for s in slo {
        out.push_str(&format!(
            "nacu_obs_slo_alarm_active{{slo=\"{}\"}} {}\n",
            s.name,
            u8::from(s.active)
        ));
    }
    out.push_str(
        "# HELP nacu_obs_slo_alarm_trips_total Rising edges of the SLO's burn-rate alarm.\n\
         # TYPE nacu_obs_slo_alarm_trips_total counter\n",
    );
    for s in slo {
        out.push_str(&format!(
            "nacu_obs_slo_alarm_trips_total{{slo=\"{}\"}} {}\n",
            s.name, s.trips
        ));
    }
    out
}

/// Renders the shadow-checker health families (gauges, counters and the
/// error-in-LSB histograms) onto `out`.
fn prometheus_health(out: &mut String, health: &HealthSnapshot) {
    out.push_str(&format!(
        "# HELP nacu_obs_health_sample_interval Shadow-check one in this many operands (0 = disabled).\n\
         # TYPE nacu_obs_health_sample_interval gauge\n\
         nacu_obs_health_sample_interval {}\n",
        health.sample_every
    ));
    prometheus_counter_family(
        out,
        "nacu_obs_health_samples_total",
        "Shadow-reference samples checked against the f64 reference.",
        health
            .rows
            .iter()
            .map(|r| (r.function, r.samples.to_string())),
    );
    let err_series: Vec<(Function, &HistogramSnapshot)> = health
        .rows
        .iter()
        .map(|r| (r.function, &r.err_lsb))
        .collect();
    prometheus_histogram(
        out,
        "nacu_obs_health_err_lsb",
        "Shadow-sample absolute error in output-format LSBs.",
        &err_series,
    );
    gauge_family(
        out,
        "nacu_obs_health_max_err_lsb",
        "Maximum observed shadow error in output LSBs.",
        health
            .rows
            .iter()
            .map(|r| (r.function, fmt_f64(r.max_err_lsb))),
    );
    gauge_family(
        out,
        "nacu_obs_health_avg_err_lsb",
        "Mean observed shadow error in output LSBs.",
        health
            .rows
            .iter()
            .map(|r| (r.function, fmt_f64(r.avg_err_lsb))),
    );
    gauge_family(
        out,
        "nacu_obs_health_correlation",
        "Running Pearson correlation between served and reference values.",
        health
            .rows
            .iter()
            .map(|r| (r.function, fmt_f64(r.correlation))),
    );
    gauge_family(
        out,
        "nacu_obs_health_bound_lsb",
        "Alarm bound (Eq. 7 / Eq. 16) in output LSBs.",
        health
            .rows
            .iter()
            .map(|r| (r.function, fmt_f64(r.bound_lsb))),
    );
    prometheus_counter_family(
        out,
        "nacu_obs_drift_alarms_total",
        "Shadow samples whose error exceeded the dimensioning bound.",
        health
            .rows
            .iter()
            .map(|r| (r.function, r.alarms.to_string())),
    );
    out.push_str(&format!(
        "# HELP nacu_obs_drift_alarm_latched 1 once any drift alarm has fired.\n\
         # TYPE nacu_obs_drift_alarm_latched gauge\n\
         nacu_obs_drift_alarm_latched {}\n",
        u8::from(health.alarm_latched)
    ));
}

fn gauge_family(
    out: &mut String,
    name: &str,
    help: &str,
    values: impl Iterator<Item = (Function, String)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    for (function, value) in values {
        out.push_str(&format!("{name}{{function=\"{function}\"}} {value}\n"));
    }
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("[{},{c}]", bucket_upper_bound(i)))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        if h.is_empty() { 0 } else { h.min },
        h.max,
        h.p50(),
        h.p90(),
        h.p99(),
        buckets.join(",")
    )
}

/// Renders the snapshot, the flat `counters` and the telemetry sections
/// as one stable JSON document ([`JSON_SCHEMA_V2`]). Without a telemetry
/// plane, pass empty `windows`, `exemplars` and `slo`: the sections are
/// then rendered empty, so every consumer reads the same layout.
///
/// Layout (all latency values nanoseconds; bucket entries are
/// `[upper_bound, count]` pairs over the non-empty buckets):
///
/// ```json
/// {
///   "schema": "nacu-obs/v2",
///   "clock_hz": 266666666.66,
///   "histograms": {"queue_wait_ns": {"sigmoid": {...}, ...}, ...},
///   "cycles": {"sigmoid": {"batches": 0, ...}, ...},
///   "trace": {"capacity": 4096, "recorded": 0, "dropped": 0},
///   "health": {"sample_interval": 256, "alarm_latched": false,
///              "functions": {"sigmoid": {"samples": 0, ...}, ...}},
///   "windows": {"10s": {"span_ns": ..., "stages": {...}, ...}, ...},
///   "exemplars": [{"stage": "end_to_end_ns", "req": 42, ...}],
///   "slo": {"burning": false, "alarms": [...]},
///   "counters": {"nacu_engine_requests_submitted_total": 0, ...}
/// }
/// ```
#[must_use]
pub fn json_v2(
    snap: &ObsSnapshot,
    clock_hz: f64,
    counters: &[(&str, u64)],
    windows: &[(&str, WindowDelta)],
    exemplars: &[Exemplar],
    slo: &[SloStatus],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"schema\": \"{JSON_SCHEMA_V2}\",\n  \"clock_hz\": {},\n",
        fmt_f64(clock_hz)
    ));

    out.push_str("  \"histograms\": {\n");
    let stage_entries: Vec<String> = Stage::ALL
        .iter()
        .map(|&stage| {
            let functions: Vec<String> = ACCOUNTED_FUNCTIONS
                .iter()
                .map(|&f| {
                    format!(
                        "\"{f}\": {}",
                        json_histogram(snap.stage(stage, f).expect("accounted function"))
                    )
                })
                .collect();
            format!("    \"{}\": {{{}}}", stage.name(), functions.join(", "))
        })
        .collect();
    out.push_str(&stage_entries.join(",\n"));
    out.push_str("\n  },\n");

    out.push_str("  \"cycles\": {\n");
    let cycle_entries: Vec<String> = snap
        .cycles
        .rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"batches\":{},\"ops\":{},\"modeled_cycles\":{},\"checked_cycles\":{},\"measured_ns\":{},\"modeled_cycles_per_op\":{},\"effective_cycles_per_op\":{},\"model_measured_ratio\":{}}}",
                r.function,
                r.batches,
                r.ops,
                r.modeled_cycles,
                r.checked_cycles,
                r.measured_ns,
                fmt_f64(r.modeled_cycles_per_op()),
                fmt_f64(r.effective_cycles_per_op(clock_hz)),
                fmt_f64(r.model_measured_ratio(clock_hz))
            )
        })
        .collect();
    out.push_str(&cycle_entries.join(",\n"));
    out.push_str("\n  },\n");

    out.push_str(&format!(
        "  \"trace\": {{\"capacity\":{},\"recorded\":{},\"dropped\":{}}},\n",
        snap.trace.capacity, snap.trace.recorded, snap.trace.dropped
    ));

    out.push_str(&format!(
        "  \"health\": {{\"sample_interval\":{},\"alarm_latched\":{},\"functions\":{{\n",
        snap.health.sample_every, snap.health.alarm_latched
    ));
    let health_entries: Vec<String> = snap
        .health
        .rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"samples\":{},\"alarms\":{},\"max_err\":{},\"avg_err\":{},\"max_err_lsb\":{},\"avg_err_lsb\":{},\"correlation\":{},\"bound\":{},\"bound_lsb\":{},\"err_lsb\":{}}}",
                r.function,
                r.samples,
                r.alarms,
                fmt_f64(r.max_err),
                fmt_f64(r.avg_err),
                fmt_f64(r.max_err_lsb),
                fmt_f64(r.avg_err_lsb),
                fmt_f64(r.correlation),
                fmt_f64(r.bound),
                fmt_f64(r.bound_lsb),
                json_histogram(&r.err_lsb)
            )
        })
        .collect();
    out.push_str(&health_entries.join(",\n"));
    out.push_str("\n  }},\n");

    out.push_str("  \"windows\": {\n");
    let window_entries: Vec<String> = windows
        .iter()
        .map(|(label, w)| {
            let stages: Vec<String> = Stage::ALL
                .iter()
                .map(|&stage| {
                    let h = w.stage_merged(stage);
                    format!(
                        "\"{}\": {{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        stage.name(),
                        h.count,
                        h.sum,
                        h.p50(),
                        h.p90(),
                        h.p99()
                    )
                })
                .collect();
            let ops: Vec<String> = ACCOUNTED_FUNCTIONS
                .iter()
                .enumerate()
                .map(|(i, f)| format!("\"{f}\":{}", w.ops[i]))
                .collect();
            format!(
                "    \"{label}\": {{\"span_ns\":{},\"samples\":{},\"stages\":{{{}}},\"ops\":{{{}}},\"ops_per_sec\":{}}}",
                w.span_ns,
                w.samples,
                stages.join(","),
                ops.join(","),
                fmt_f64(w.per_second(w.total_ops()))
            )
        })
        .collect();
    out.push_str(&window_entries.join(",\n"));
    out.push_str("\n  },\n");

    let exemplar_entries: Vec<String> = exemplars
        .iter()
        .map(|e| {
            format!(
                "    {{\"stage\":\"{}\",\"function\":\"{}\",\"value_ns\":{},\"req\":{},\"conn\":{},\"at_ns\":{}}}",
                e.stage.name(),
                e.function,
                e.value_ns,
                e.req,
                e.conn,
                e.at_ns
            )
        })
        .collect();
    if exemplar_entries.is_empty() {
        out.push_str("  \"exemplars\": [],\n");
    } else {
        out.push_str(&format!(
            "  \"exemplars\": [\n{}\n  ],\n",
            exemplar_entries.join(",\n")
        ));
    }

    let burning = slo.iter().any(|s| s.active);
    let alarm_entries: Vec<String> = slo
        .iter()
        .map(|s| {
            let budget = s
                .budget_ns
                .map_or_else(|| "null".to_string(), |b| b.to_string());
            format!(
                "    {{\"name\":\"{}\",\"active\":{},\"trips\":{},\"fast_burn\":{},\"slow_burn\":{},\"budget_ns\":{},\"threshold\":{}}}",
                s.name,
                s.active,
                s.trips,
                fmt_f64(s.fast_burn),
                fmt_f64(s.slow_burn),
                budget,
                fmt_f64(s.threshold)
            )
        })
        .collect();
    if alarm_entries.is_empty() {
        out.push_str(&format!(
            "  \"slo\": {{\"burning\":{burning},\"alarms\":[]}},\n"
        ));
    } else {
        out.push_str(&format!(
            "  \"slo\": {{\"burning\":{burning},\"alarms\":[\n{}\n  ]}},\n",
            alarm_entries.join(",\n")
        ));
    }

    let counter_entries: Vec<String> = counters
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    out.push_str(&format!(
        "  \"counters\": {{{}}}\n}}\n",
        counter_entries.join(",")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn populated() -> ObsSnapshot {
        let obs = Obs::with_trace_capacity(16);
        obs.record_latency(Stage::QueueWait, Function::Sigmoid, 100);
        obs.record_latency(Stage::QueueWait, Function::Sigmoid, 200);
        obs.record_latency(Stage::EndToEnd, Function::Sigmoid, 500);
        obs.cycles().record_batch(Function::Sigmoid, 2, 4, 6, 500);
        obs.record_trace(crate::TraceKind::Quarantine { worker: 0 });
        obs.snapshot()
    }

    #[test]
    fn prometheus_emits_cumulative_buckets_and_counters() {
        let text = prometheus(
            &populated(),
            1e9,
            &[("requests_submitted", 2)],
            &[("requests_submitted", "Requests accepted.")],
        );
        assert!(text.contains("# TYPE nacu_obs_queue_wait_ns histogram"));
        assert!(text.contains("nacu_obs_queue_wait_ns_count{function=\"sigmoid\"} 2"));
        assert!(text.contains("nacu_obs_queue_wait_ns_sum{function=\"sigmoid\"} 300"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("nacu_obs_ops_total{function=\"sigmoid\"} 2"));
        assert!(text.contains("nacu_obs_modeled_cycles_total{function=\"sigmoid\"} 4"));
        assert!(text.contains("nacu_obs_trace_recorded_total 1"));
        assert!(text.contains(
            "# HELP requests_submitted Requests accepted.\n# TYPE requests_submitted gauge\nrequests_submitted 2\n"
        ));
        // Empty functions emit no histogram series.
        assert!(!text.contains("nacu_obs_queue_wait_ns_count{function=\"tanh\"}"));
        // Health families are always present (disabled monitor here).
        assert!(text.contains("nacu_obs_health_sample_interval 0"));
        assert!(text.contains("nacu_obs_drift_alarm_latched 0"));
        assert!(text.contains("nacu_obs_drift_alarms_total{function=\"sigmoid\"} 0"));
    }

    #[test]
    fn prometheus_and_json_carry_live_health_rows() {
        let obs = Obs::with_trace_capacity(4).with_health(crate::health::HealthConfig::for_nacu(
            &nacu::NacuConfig::paper_16bit(),
            1,
        ));
        let _ = obs.health().observe(Function::Sigmoid, 0.5, 0.9); // drifts
        let text = prometheus(&obs.snapshot(), 1e9, &[], &[]);
        assert!(text.contains("nacu_obs_health_samples_total{function=\"sigmoid\"} 1"));
        assert!(text.contains("nacu_obs_drift_alarms_total{function=\"sigmoid\"} 1"));
        assert!(text.contains("nacu_obs_drift_alarm_latched 1"));
        assert!(text.contains("# TYPE nacu_obs_health_err_lsb histogram"));
        let doc = json_v2(&obs.snapshot(), 1e9, &[], &[], &[], &[]);
        assert!(doc.contains("\"health\": {\"sample_interval\":1,\"alarm_latched\":true"));
        assert!(doc.contains("\"sigmoid\": {\"samples\":1,\"alarms\":1"));
    }

    #[test]
    fn json_carries_the_schema_tag_and_sections() {
        let doc = json_v2(
            &populated(),
            1e9,
            &[("requests_submitted", 2)],
            &[],
            &[],
            &[],
        );
        assert!(doc.contains("\"schema\": \"nacu-obs/v2\""));
        assert!(doc.contains("\"queue_wait_ns\""));
        assert!(doc.contains("\"sigmoid\": {\"count\":2"));
        assert!(doc.contains("\"counters\": {\"requests_submitted\":2}"));
        assert!(doc.contains("\"trace\": {\"capacity\":16,\"recorded\":1,\"dropped\":0}"));
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(1.5), "1.5");
    }

    fn telemetry_inputs() -> (
        Vec<(&'static str, WindowDelta)>,
        Vec<Exemplar>,
        Vec<SloStatus>,
    ) {
        let series = crate::window::TelemetrySeries::new(8);
        let obs = Obs::with_trace_capacity(4);
        obs.record_latency(Stage::EndToEnd, Function::Sigmoid, 700);
        series.push_at(
            1_000_000_000,
            obs.snapshot(),
            vec![("requests_submitted", 1)],
        );
        let windows = vec![("10s", series.window(std::time::Duration::from_secs(10)))];
        let exemplars = vec![Exemplar {
            stage: Stage::EndToEnd,
            function: Function::Sigmoid,
            value_ns: 700,
            req: 42,
            conn: 3,
            at_ns: 999,
        }];
        let slo = vec![SloStatus {
            name: "e2e_p99",
            active: true,
            tripped_now: false,
            cleared_now: false,
            trips: 2,
            fast_burn: 4.5,
            slow_burn: 2.25,
            budget_ns: Some(50_000),
            threshold: 1.0,
        }];
        (windows, exemplars, slo)
    }

    #[test]
    fn json_v2_renders_windows_exemplars_and_slo() {
        let (windows, exemplars, slo) = telemetry_inputs();
        let doc = json_v2(&populated(), 1e9, &[], &windows, &exemplars, &slo);
        assert!(doc.contains("\"10s\": {\"span_ns\":1000000000,\"samples\":1"));
        assert!(doc.contains("\"req\":42,\"conn\":3"));
        assert!(doc.contains("\"slo\": {\"burning\":true"));
        assert!(doc.contains("\"budget_ns\":50000"));
    }

    #[test]
    fn json_v2_with_no_telemetry_data_emits_empty_sections() {
        let v2 = json_v2(&populated(), 1e9, &[], &[], &[], &[]);
        assert!(v2.contains("\"windows\": {\n\n  }"));
        assert!(v2.contains("\"exemplars\": []"));
        assert!(v2.contains("\"slo\": {\"burning\":false,\"alarms\":[]}"));
    }

    #[test]
    fn prometheus_telemetry_exposes_windows_exemplars_and_alarms() {
        let (windows, exemplars, slo) = telemetry_inputs();
        let text = prometheus_telemetry(&windows, &exemplars, &slo);
        assert!(text.contains("nacu_obs_window_requests{window=\"10s\"} 1"));
        assert!(text.contains("# TYPE nacu_obs_window_p99_ns gauge"));
        assert!(text.contains("nacu_obs_exemplar_ns{stage=\"end_to_end_ns\",function=\"sigmoid\",req=\"42\",conn=\"3\"} 700"));
        assert!(text.contains("nacu_obs_slo_burn_rate{slo=\"e2e_p99\",window=\"fast\"} 4.5"));
        assert!(text.contains("nacu_obs_slo_burn_rate{slo=\"e2e_p99\",window=\"slow\"} 2.25"));
        assert!(text.contains("nacu_obs_slo_alarm_active{slo=\"e2e_p99\"} 1"));
        assert!(text.contains("nacu_obs_slo_alarm_trips_total{slo=\"e2e_p99\"} 2"));
    }
}
