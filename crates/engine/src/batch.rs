//! Request/response types and the coalescing rule.
//!
//! A [`Request`] is a batch of operands for one configured function; the
//! engine answers with a [`Response`] carrying the bit-exact outputs plus
//! the modeled hardware cost of the batch it rode in. Scalar functions
//! (σ/tanh/exp) coalesce: consecutive queued requests for the *same*
//! function fuse into one pipelined hardware batch, paying the function's
//! pipeline fill latency once (Table I). Softmax is a two-pass vector op
//! with internal MAC/divider state, so softmax requests never fuse with
//! their neighbours.

use std::time::Instant;

use nacu::Function;
use nacu_fixed::Fx;

/// A unit of work submitted to the engine: one function over a batch of
/// operands.
///
/// For σ/tanh/exp the operands are independent scalars evaluated
/// element-wise; for softmax they are *one* vector normalised jointly
/// (Eq. 13). [`Function::Mac`] is stateful and not servable through the
/// engine.
#[derive(Debug, Clone)]
pub struct Request {
    /// The function to evaluate.
    pub function: Function,
    /// Operands, all in the engine's configured format.
    pub operands: Vec<Fx>,
    /// Drop the work (answering `DeadlineExpired`) if a worker picks it up
    /// after this instant. `None` falls back to the engine's default.
    pub deadline: Option<Instant>,
    /// Connection id of the wire front-end the request arrived on (`0`
    /// for in-process submissions). Carried onto the flight recorder's
    /// `submit` and `reply` spans so one socket's requests can be
    /// followed through a drained trace.
    pub client: u32,
}

impl Request {
    /// A request with no explicit deadline.
    #[must_use]
    pub fn new(function: Function, operands: Vec<Fx>) -> Self {
        Self {
            function,
            operands,
            deadline: None,
            client: 0,
        }
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline relative to now.
    #[must_use]
    pub fn with_timeout(self, timeout: std::time::Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }

    /// Tags the request with the wire front-end connection id it arrived
    /// on (in-process submissions stay at the default `0`).
    #[must_use]
    pub fn with_client(mut self, client: u32) -> Self {
        self.client = client;
        self
    }

    /// Whether this request may fuse with `other` into one hardware batch.
    #[must_use]
    pub fn coalesces_with(&self, other: &Request) -> bool {
        self.function == other.function && scalar_function(self.function)
    }

    /// The request's batch class for the submit queue (see
    /// [`crate::queue::Coalesce`]): scalar functions key by function so
    /// equal-function runs fuse; softmax (and MAC, were it servable)
    /// never fuses. Two requests coalesce iff their keys are equal and
    /// not [`crate::queue::NEVER_COALESCE`] — the same relation as
    /// [`Request::coalesces_with`], precomputed to one word so the queue
    /// can peek it without touching the payload.
    #[must_use]
    pub fn coalesce_key(&self) -> u32 {
        if scalar_function(self.function) {
            self.function as u32
        } else {
            crate::queue::NEVER_COALESCE
        }
    }
}

/// True for the element-wise functions that stream through the pipeline
/// one operand per cycle.
#[must_use]
pub fn scalar_function(function: Function) -> bool {
    matches!(function, Function::Sigmoid | Function::Tanh | Function::Exp)
}

/// The engine's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outputs, positionally matching the request operands. Bit-identical
    /// to evaluating the same operands on a sequential [`nacu::Nacu`] with
    /// the engine's configuration.
    pub outputs: Vec<Fx>,
    /// Index of the pool worker (and therefore NACU unit) that served it,
    /// or [`Response::INLINE`] for a request a healthy engine computed
    /// inside `submit`.
    pub worker: usize,
    /// Total operands in the fused hardware batch this request rode in
    /// (≥ `outputs.len()`; larger means coalescing happened).
    pub batch_ops: usize,
    /// Modeled cycles for that whole fused batch on one NACU pipeline
    /// (see [`crate::report::modeled_batch_cycles`]).
    pub batch_cycles: u64,
}

impl Response {
    /// The [`Response::worker`] of a request served inline, on the
    /// submitting thread, by a healthy engine — which has no workers (its
    /// `workers()` is 0). Trace events of inline service carry it as
    /// `u32::MAX`.
    pub const INLINE: usize = usize::MAX;
}

/// Why a submitted request produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A worker picked the request up after its deadline.
    DeadlineExpired,
    /// The engine shut down before serving the request.
    EngineShutDown,
    /// Every retry landed on a unit whose detectors fired; the last event
    /// is reported. The request was never answered with possibly-corrupt
    /// outputs.
    FaultDetected {
        /// The detector event from the final attempt.
        event: nacu_faults::FaultEvent,
        /// Serving attempts made (1 initial + retries).
        attempts: u32,
    },
    /// A fault was detected and every worker in the pool is quarantined —
    /// the engine has no unit left to retry on.
    NoHealthyWorkers,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExpired => write!(f, "deadline expired before a worker served it"),
            Self::EngineShutDown => write!(f, "engine shut down before serving the request"),
            Self::FaultDetected { event, attempts } => {
                write!(f, "fault detected on every attempt ({attempts}): {event}")
            }
            Self::NoHealthyWorkers => {
                write!(
                    f,
                    "all workers are quarantined; no healthy unit to retry on"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu_fixed::QFormat;

    fn x() -> Vec<Fx> {
        vec![Fx::zero(QFormat::new(4, 11).unwrap())]
    }

    #[test]
    fn scalar_requests_of_same_function_coalesce() {
        let a = Request::new(Function::Sigmoid, x());
        let b = Request::new(Function::Sigmoid, x());
        assert!(a.coalesces_with(&b));
    }

    #[test]
    fn different_functions_do_not_coalesce() {
        let a = Request::new(Function::Sigmoid, x());
        let b = Request::new(Function::Tanh, x());
        assert!(!a.coalesces_with(&b));
    }

    #[test]
    fn softmax_never_coalesces() {
        let a = Request::new(Function::Softmax, x());
        let b = Request::new(Function::Softmax, x());
        assert!(!a.coalesces_with(&b));
    }

    #[test]
    fn coalesce_key_agrees_with_the_pairwise_rule() {
        use crate::queue::NEVER_COALESCE;
        let functions = [
            Function::Sigmoid,
            Function::Tanh,
            Function::Exp,
            Function::Softmax,
        ];
        for fa in functions {
            for fb in functions {
                let a = Request::new(fa, x());
                let b = Request::new(fb, x());
                let keys_fuse =
                    a.coalesce_key() == b.coalesce_key() && a.coalesce_key() != NEVER_COALESCE;
                assert_eq!(keys_fuse, a.coalesces_with(&b), "{fa} vs {fb}");
            }
        }
    }

    #[test]
    fn timeout_sets_a_future_deadline() {
        let r = Request::new(Function::Exp, x()).with_timeout(std::time::Duration::from_secs(5));
        assert!(r.deadline.unwrap() > Instant::now());
    }
}
