//! **nacu-replay** — record/replay harness for the NACU serving stack.
//!
//! The engine's bit-exact fixed-point contract (any healthy configuration
//! answers the same raw i16 codes as the sequential datapath) is what
//! makes golden-trace testing meaningful here: a recorded trace carries
//! *the* correct response codes, not an approximation of them, so replay
//! diffing is byte-for-byte and a single-LSB divergence is a real bug.
//!
//! Three pieces, layered bottom-up:
//!
//! * [`log`] — a compact, versioned binary trace-log format (function id,
//!   Qm.f tag, request id, deadline, operand codes, response codes) with
//!   typed decode errors. Malformed bytes map onto
//!   [`TraceDecodeError`] variants, never panics, mirroring the
//!   `nacu-net` wire-protocol discipline.
//! * [`record`] — a bounded, drop-counted [`Recorder`] the engine taps on
//!   its submit and reply paths. Slots are claimed at submit (operands
//!   are captured *before* the fast path can overwrite them in place) and
//!   finished at reply; the steady state allocates nothing, like the
//!   observability trace ring.
//! * [`replay`] — drives a recorded trace deterministically against any
//!   backend (an in-process engine of any pool width / fast-path setting,
//!   a faulted engine, or a TCP serving plane) and diffs responses
//!   bit-for-bit, reporting the first divergence with full request
//!   context.
//!
//! This crate depends only on `nacu` and `nacu-fixed`; the engine taps
//! the [`Recorder`], and the engine-/net-backed replay drivers live in
//! `nacu-bench` (`replay_bench`), which sits above both.

pub mod log;
pub mod record;
pub mod replay;

pub use log::{
    RecordDecodeError, TraceDecodeError, TraceLog, TraceRecord, FILE_HEADER_LEN, MAGIC,
    RECORD_HEADER_LEN, VERSION,
};
pub use record::{Recorder, NO_RECORD_SLOT};
pub use replay::{
    compare, diff_logs, inter_arrival_gaps, render_report, replay_with, Divergence, ReplayError,
    ReplayOutcome,
};
