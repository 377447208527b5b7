//! Replaying a recorded trace and diffing responses bit-for-bit.
//!
//! The replayer is backend-agnostic: [`replay_with`] drives a trace
//! through any closure that can serve one record's operands (an
//! in-process engine of any pool width or fast-path setting, a faulted
//! engine, a TCP client against a serving plane — the engine- and
//! net-backed drivers live in `nacu-bench`). Responses are compared as
//! raw i16 codes, so "passes" means *bit-identical*, the same contract
//! the accuracy gate holds for standalone functions.
//!
//! Recorded deadlines are deliberately **not** re-applied: wall-clock
//! expiry during replay would make outcomes timing-dependent. A trace
//! replays the requests that were actually *served*; what the golden run
//! expired or shed never produced response codes and is not in the log.
//!
//! Replay stops at the first divergence and reports it with full request
//! context ([`Divergence`], rendered by [`render_report`]) — the
//! emulator-style golden-trace workflow: one failing record pinpoints
//! the first moment two configurations disagreed.

use nacu::Function;

use crate::log::{TraceLog, TraceRecord};

/// The first point where a replay's responses differed from the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based index of the diverging record in the log.
    pub index: usize,
    /// The recorded request id.
    pub id: u64,
    /// The record's function.
    pub function: Function,
    /// Zero-based index of the first differing response element.
    pub element: usize,
    /// The recorded (golden) response code.
    pub want: i16,
    /// The replayed response code.
    pub got: i16,
}

/// Why a replay could not run to a verdict (distinct from diverging:
/// these are harness failures, not bit differences).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The backend answered with the wrong number of response codes.
    ShapeMismatch {
        /// Record index.
        index: usize,
        /// Recorded request id.
        id: u64,
        /// Response codes the trace holds.
        want: usize,
        /// Response codes the backend produced.
        got: usize,
    },
    /// The backend failed to serve a record at all.
    Backend {
        /// Record index.
        index: usize,
        /// Recorded request id.
        id: u64,
        /// The backend's own description of the failure.
        message: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShapeMismatch {
                index,
                id,
                want,
                got,
            } => {
                write!(
                    f,
                    "record {index} (request id {id}): backend answered {got} codes, trace holds {want}"
                )
            }
            Self::Backend { index, id, message } => {
                write!(f, "record {index} (request id {id}): {message}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// What a completed replay observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Records replayed (up to and including the diverging one).
    pub records: usize,
    /// Operand codes served across those records.
    pub ops: u64,
    /// The first divergence, or `None` for a bit-identical replay.
    pub divergence: Option<Divergence>,
}

impl ReplayOutcome {
    /// True when every replayed record matched the trace bit-for-bit.
    #[must_use]
    pub fn is_bit_identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Diffs one record's replayed response codes against the trace.
///
/// # Errors
///
/// [`ReplayError::ShapeMismatch`] when the code counts disagree (a
/// harness bug, not a numerical divergence).
pub fn compare(
    index: usize,
    record: &TraceRecord,
    got: &[i16],
) -> Result<Option<Divergence>, ReplayError> {
    if got.len() != record.responses.len() {
        return Err(ReplayError::ShapeMismatch {
            index,
            id: record.id,
            want: record.responses.len(),
            got: got.len(),
        });
    }
    for (element, (&want, &g)) in record.responses.iter().zip(got).enumerate() {
        if want != g {
            return Ok(Some(Divergence {
                index,
                id: record.id,
                function: record.function,
                element,
                want,
                got: g,
            }));
        }
    }
    Ok(None)
}

/// Replays `log` record-by-record through `serve`, stopping at the first
/// divergence. `serve` gets each [`TraceRecord`] and must return the
/// backend's response codes (or a failure message).
///
/// # Errors
///
/// [`ReplayError`] when the backend fails or answers the wrong shape —
/// a divergence is NOT an error; it comes back in the outcome.
pub fn replay_with<F>(log: &TraceLog, mut serve: F) -> Result<ReplayOutcome, ReplayError>
where
    F: FnMut(&TraceRecord) -> Result<Vec<i16>, String>,
{
    let mut ops: u64 = 0;
    for (index, record) in log.records.iter().enumerate() {
        let got = serve(record).map_err(|message| ReplayError::Backend {
            index,
            id: record.id,
            message,
        })?;
        ops += record.operands.len() as u64;
        if let Some(divergence) = compare(index, record, &got)? {
            return Ok(ReplayOutcome {
                records: index + 1,
                ops,
                divergence: Some(divergence),
            });
        }
    }
    Ok(ReplayOutcome {
        records: log.records.len(),
        ops,
        divergence: None,
    })
}

/// The recorded inter-arrival gap *before* each record: `gaps[i]` is how
/// long after record `i−1` record `i` was submitted (`gaps[0]` is zero —
/// paced replay starts immediately). Records with zero submit stamps
/// (timing-stripped canonical traces) yield zero gaps, so paced
/// replay of an unstamped trace degenerates to ordinary replay.
#[must_use]
pub fn inter_arrival_gaps(log: &TraceLog) -> Vec<std::time::Duration> {
    let mut gaps = Vec::with_capacity(log.records.len());
    let mut previous: u64 = 0;
    for (index, record) in log.records.iter().enumerate() {
        let gap = if index == 0 {
            0
        } else {
            record.submit_micros.saturating_sub(previous)
        };
        gaps.push(std::time::Duration::from_micros(gap));
        previous = record.submit_micros.max(previous);
    }
    gaps
}

/// Diffs two logs of the same run (e.g. a determinism double-record):
/// record counts, metadata and response codes must all agree.
///
/// # Errors
///
/// [`ReplayError::Backend`] when the logs disagree structurally (counts,
/// ids, functions, operands) — those are not response divergences.
pub fn diff_logs(golden: &TraceLog, fresh: &TraceLog) -> Result<Option<Divergence>, ReplayError> {
    if golden.records.len() != fresh.records.len() {
        return Err(ReplayError::Backend {
            index: golden.records.len().min(fresh.records.len()),
            id: 0,
            message: format!(
                "record counts differ: golden {} vs fresh {}",
                golden.records.len(),
                fresh.records.len()
            ),
        });
    }
    for (index, (g, f)) in golden.records.iter().zip(&fresh.records).enumerate() {
        if g.id != f.id || g.function != f.function || g.operands != f.operands {
            return Err(ReplayError::Backend {
                index,
                id: g.id,
                message: format!(
                    "record metadata differs: golden id {} {} ({} ops) vs fresh id {} {} ({} ops)",
                    g.id,
                    g.function,
                    g.operands.len(),
                    f.id,
                    f.function,
                    f.operands.len()
                ),
            });
        }
        if let Some(divergence) = compare(index, g, &f.responses)? {
            return Ok(Some(divergence));
        }
    }
    Ok(None)
}

/// Renders a first-divergence report with full request context: the
/// record's identity, the differing element, and every operand code —
/// enough to reproduce the request standalone.
#[must_use]
pub fn render_report(divergence: &Divergence, record: &TraceRecord) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "FIRST DIVERGENCE");
    let _ = writeln!(
        out,
        "  record index : {} (request id {})",
        divergence.index, divergence.id
    );
    let _ = writeln!(
        out,
        "  function     : {} over {} operand(s), format {}",
        divergence.function,
        record.operands.len(),
        record.format
    );
    let _ = writeln!(
        out,
        "  deadline     : {}",
        if record.deadline_micros == 0 {
            "none".to_string()
        } else {
            format!("{} us", record.deadline_micros)
        }
    );
    let _ = writeln!(
        out,
        "  element {} : got {:#06x} ({}), want {:#06x} ({})",
        divergence.element,
        divergence.got as u16,
        divergence.got,
        divergence.want as u16,
        divergence.want
    );
    let _ = write!(out, "  operands     :");
    for &code in &record.operands {
        let _ = write!(out, " {code}");
    }
    let _ = writeln!(out);
    let _ = write!(out, "  recorded     :");
    for &code in &record.responses {
        let _ = write!(out, " {code}");
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu_fixed::QFormat;

    fn record(id: u64, operands: Vec<i16>, responses: Vec<i16>) -> TraceRecord {
        TraceRecord {
            function: Function::Sigmoid,
            format: QFormat::new(4, 11).expect("paper format"),
            id,
            deadline_micros: 0,
            conn: 0,
            submit_micros: 0,
            operands,
            responses,
        }
    }

    #[test]
    fn inter_arrival_gaps_follow_submit_stamps() {
        let mut log = TraceLog {
            records: vec![
                record(1, vec![1], vec![10]),
                record(2, vec![2], vec![20]),
                record(3, vec![3], vec![30]),
            ],
        };
        log.records[0].submit_micros = 100;
        log.records[1].submit_micros = 350;
        log.records[2].submit_micros = 350; // same-instant burst
        let gaps = inter_arrival_gaps(&log);
        assert_eq!(
            gaps,
            vec![
                std::time::Duration::ZERO,
                std::time::Duration::from_micros(250),
                std::time::Duration::ZERO,
            ]
        );
        // An unstamped (stripped) log yields all-zero gaps.
        log.strip_timing();
        assert!(inter_arrival_gaps(&log)
            .iter()
            .all(|g| *g == std::time::Duration::ZERO));
    }

    #[test]
    fn identity_replay_is_bit_identical() {
        let log = TraceLog {
            records: vec![
                record(1, vec![1, 2], vec![10, 20]),
                record(2, vec![3], vec![30]),
            ],
        };
        let outcome = replay_with(&log, |r| Ok(r.responses.clone())).expect("clean run");
        assert!(outcome.is_bit_identical());
        assert_eq!(outcome.records, 2);
        assert_eq!(outcome.ops, 3);
    }

    #[test]
    fn first_divergence_is_reported_with_context_and_stops_replay() {
        let log = TraceLog {
            records: vec![
                record(1, vec![1], vec![10]),
                record(7, vec![2, 4], vec![20, 40]),
                record(9, vec![5], vec![50]),
            ],
        };
        let mut served = 0;
        let outcome = replay_with(&log, |r| {
            served += 1;
            let mut out = r.responses.clone();
            if r.id == 7 {
                out[1] ^= 1; // one LSB off in the second element
            }
            Ok(out)
        })
        .expect("backend healthy");
        let d = outcome.divergence.expect("perturbed element diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.id, 7);
        assert_eq!(d.element, 1);
        assert_eq!(d.want, 40);
        assert_eq!(d.got, 41);
        assert_eq!(outcome.records, 2, "stops at the diverging record");
        assert_eq!(served, 2, "third record never served");
        let report = render_report(&d, &log.records[1]);
        assert!(report.contains("request id 7"), "{report}");
        assert!(report.contains("operands     : 2 4"), "{report}");
    }

    #[test]
    fn shape_mismatch_and_backend_failures_are_errors_not_divergences() {
        let log = TraceLog {
            records: vec![record(1, vec![1], vec![10])],
        };
        assert!(matches!(
            replay_with(&log, |_| Ok(vec![1, 2])),
            Err(ReplayError::ShapeMismatch {
                index: 0,
                id: 1,
                want: 1,
                got: 2
            })
        ));
        assert!(matches!(
            replay_with(&log, |_| Err("socket died".to_string())),
            Err(ReplayError::Backend {
                index: 0,
                id: 1,
                ..
            })
        ));
    }

    #[test]
    fn diff_logs_flags_response_and_structure_differences() {
        let golden = TraceLog {
            records: vec![record(1, vec![1], vec![10]), record(2, vec![2], vec![20])],
        };
        assert_eq!(diff_logs(&golden, &golden.clone()).expect("clean"), None);
        let mut perturbed = golden.clone();
        perturbed.records[1].responses[0] = 21;
        let d = diff_logs(&golden, &perturbed)
            .expect("structurally equal")
            .expect("response differs");
        assert_eq!((d.index, d.want, d.got), (1, 20, 21));
        let mut reordered = golden.clone();
        reordered.records[0].id = 5;
        assert!(matches!(
            diff_logs(&golden, &reordered),
            Err(ReplayError::Backend { index: 0, .. })
        ));
    }
}
