//! Chrome trace-event JSON over a drained trace window.
//!
//! [`chrome_trace`] converts a slice of [`TraceEvent`]s (as returned by
//! [`crate::Obs::drain_trace`]) into the Chrome trace-event JSON object
//! format, loadable directly in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`. Two synthetic processes organise the timeline:
//!
//! * **pid 1 "nacu workers"** — one track per worker: batch service
//!   spans (from [`TraceKind::BatchEnd`]'s measured duration) plus
//!   fault/quarantine/retry/scrub/drift instants;
//! * **pid 2 "nacu requests"** — one track per request id: a
//!   submit-to-reply span per request whose [`TraceKind::Submit`] and
//!   [`TraceKind::Reply`] both landed in the window, expired and
//!   layer-forward instants, and unpaired submits as instants.
//!
//! Timestamps are the ring's monotonic nanoseconds converted to the
//! format's microseconds with sub-µs precision kept (`0.001` = 1 ns).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::trace::{TraceEvent, TraceKind};

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn complete(
    out: &mut String,
    name: &str,
    pid: u32,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    args: &str,
) {
    let _ = write!(
        out,
        ",{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
        us(start_ns),
        us(dur_ns),
    );
}

fn instant(out: &mut String, name: &str, pid: u32, tid: u64, at_ns: u64, args: &str) {
    let _ = write!(
        out,
        ",{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"args\":{{{args}}}}}",
        us(at_ns),
    );
}

/// Renders a drained trace window as a Chrome trace-event JSON string
/// (see the module docs for the track layout).
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"nacu workers\"}}",
    );
    out.push_str(
        ",{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\
         \"args\":{\"name\":\"nacu requests\"}}",
    );
    // Submits seen but not yet answered inside this window.
    let mut pending: HashMap<u64, &TraceEvent> = HashMap::new();
    for event in events {
        let at = event.at_ns;
        match event.kind {
            TraceKind::Submit { req, .. } => {
                pending.insert(req, event);
            }
            TraceKind::Reply {
                req,
                conn,
                worker,
                function,
                e2e_ns,
            } => {
                if let Some(submit) = pending.remove(&req) {
                    let ops = match submit.kind {
                        TraceKind::Submit { ops, .. } => ops,
                        _ => 0,
                    };
                    complete(
                        &mut out,
                        &format!("request {function}"),
                        2,
                        req,
                        submit.at_ns,
                        at.saturating_sub(submit.at_ns),
                        &format!("\"req\":{req},\"conn\":{conn},\"worker\":{worker},\"ops\":{ops}"),
                    );
                } else {
                    instant(
                        &mut out,
                        &format!("reply {function}"),
                        2,
                        req,
                        at,
                        &format!(
                            "\"req\":{req},\"conn\":{conn},\"worker\":{worker},\"e2e_ns\":{e2e_ns}"
                        ),
                    );
                }
            }
            // BatchStart carries no duration; BatchEnd renders the span.
            TraceKind::BatchStart { .. } => {}
            TraceKind::BatchEnd {
                worker,
                function,
                ops,
                service_ns,
            } => {
                complete(
                    &mut out,
                    &format!("batch {function}"),
                    1,
                    u64::from(worker),
                    at.saturating_sub(service_ns),
                    service_ns,
                    &format!("\"ops\":{ops}"),
                );
            }
            TraceKind::Coalesce { worker, requests } => {
                instant(
                    &mut out,
                    "coalesce",
                    1,
                    u64::from(worker),
                    at,
                    &format!("\"requests\":{requests}"),
                );
            }
            TraceKind::Expired { req, function } => {
                instant(
                    &mut out,
                    &format!("expired {function}"),
                    2,
                    req,
                    at,
                    &format!("\"req\":{req}"),
                );
            }
            TraceKind::Fault { worker, detector } => {
                instant(
                    &mut out,
                    "fault",
                    1,
                    u64::from(worker),
                    at,
                    &format!("\"detector\":\"{detector}\""),
                );
            }
            TraceKind::Quarantine { worker } => {
                instant(&mut out, "quarantine", 1, u64::from(worker), at, "");
            }
            TraceKind::Retry {
                req,
                worker,
                attempts,
            } => {
                instant(
                    &mut out,
                    "retry",
                    1,
                    u64::from(worker),
                    at,
                    &format!("\"req\":{req},\"attempts\":{attempts}"),
                );
            }
            TraceKind::Scrub { worker } => {
                instant(&mut out, "scrub", 1, u64::from(worker), at, "");
            }
            TraceKind::LayerForward {
                req,
                function,
                ops,
                wall_ns,
            } => {
                instant(
                    &mut out,
                    &format!("layer {function}"),
                    2,
                    req,
                    at,
                    &format!("\"req\":{req},\"ops\":{ops},\"wall_ns\":{wall_ns}"),
                );
            }
            TraceKind::DriftAlarm {
                worker,
                function,
                kind,
            } => {
                instant(
                    &mut out,
                    &format!("drift {function}"),
                    1,
                    u64::from(worker),
                    at,
                    &format!("\"kind\":\"{}\"", kind.name()),
                );
            }
            TraceKind::TailExemplar {
                req,
                conn,
                function,
                value_ns,
            } => {
                instant(
                    &mut out,
                    &format!("tail {function}"),
                    2,
                    req,
                    at,
                    &format!("\"req\":{req},\"conn\":{conn},\"value_ns\":{value_ns}"),
                );
            }
        }
    }
    // Submits whose reply fell outside the window stay visible.
    let mut unpaired: Vec<&TraceEvent> = pending.into_values().collect();
    unpaired.sort_by_key(|e| e.at_ns);
    for event in unpaired {
        if let TraceKind::Submit {
            req,
            conn,
            function,
            ops,
        } = event.kind
        {
            instant(
                &mut out,
                &format!("submit {function}"),
                2,
                req,
                event.at_ns,
                &format!("\"req\":{req},\"conn\":{conn},\"ops\":{ops}"),
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu::Function;

    fn at(at_ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at_ns, kind }
    }

    #[test]
    fn submit_reply_pairs_become_request_spans() {
        let events = [
            at(
                1_000,
                TraceKind::Submit {
                    req: 7,
                    conn: 4,
                    function: Function::Sigmoid,
                    ops: 32,
                },
            ),
            at(
                5_500,
                TraceKind::Reply {
                    req: 7,
                    conn: 4,
                    worker: 1,
                    function: Function::Sigmoid,
                    e2e_ns: 4_500,
                },
            ),
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains(
            "\"ph\":\"X\",\"name\":\"request sigmoid\",\"pid\":2,\"tid\":7,\
             \"ts\":1.000,\"dur\":4.500"
        ));
        assert!(json.contains("\"ops\":32"));
        assert!(
            json.contains("\"conn\":4"),
            "span carries the connection id"
        );
        // The pair was consumed: no leftover submit instant.
        assert!(!json.contains("submit sigmoid"));
    }

    #[test]
    fn batch_end_becomes_a_worker_span_backdated_by_service_time() {
        let events = [at(
            10_000,
            TraceKind::BatchEnd {
                worker: 3,
                function: Function::Exp,
                ops: 64,
                service_ns: 2_000,
            },
        )];
        let json = chrome_trace(&events);
        assert!(json.contains(
            "\"ph\":\"X\",\"name\":\"batch exp\",\"pid\":1,\"tid\":3,\
             \"ts\":8.000,\"dur\":2.000"
        ));
    }

    #[test]
    fn unpaired_submits_and_instants_stay_visible() {
        let events = [
            at(
                100,
                TraceKind::Submit {
                    req: 9,
                    conn: 0,
                    function: Function::Tanh,
                    ops: 8,
                },
            ),
            at(200, TraceKind::Quarantine { worker: 0 }),
            at(
                300,
                TraceKind::DriftAlarm {
                    worker: 2,
                    function: Function::Exp,
                    kind: crate::health::DriftKind::BoundExceeded,
                },
            ),
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"name\":\"submit tanh\""));
        assert!(json.contains("\"name\":\"quarantine\""));
        assert!(json.contains("\"name\":\"drift exp\""));
        assert!(json.contains("\"kind\":\"eq7_bound\""));
        // Metadata names both processes.
        assert!(json.contains("nacu workers"));
        assert!(json.contains("nacu requests"));
    }

    #[test]
    fn output_brace_balance_holds() {
        let events = [
            at(1, TraceKind::Scrub { worker: 0 }),
            at(
                2,
                TraceKind::Retry {
                    req: 4,
                    worker: 1,
                    attempts: 2,
                },
            ),
            at(
                3,
                TraceKind::Expired {
                    req: 4,
                    function: Function::Softmax,
                },
            ),
            at(
                4,
                TraceKind::LayerForward {
                    req: 0,
                    function: Function::Softmax,
                    ops: 10,
                    wall_ns: 77,
                },
            ),
            at(
                5,
                TraceKind::Coalesce {
                    worker: 0,
                    requests: 3,
                },
            ),
            at(
                6,
                TraceKind::Fault {
                    worker: 0,
                    detector: "lut_parity",
                },
            ),
        ];
        let json = chrome_trace(&events);
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        let brackets = json.matches('[').count();
        assert_eq!(brackets, json.matches(']').count());
    }
}
