//! Tail-latency exemplars: concrete requests behind the p99.
//!
//! Histograms tell you *that* the tail is slow; exemplars tell you *who*
//! was slow. When a tagged latency record lands within 2× of the
//! stage's observed maximum, the request id, connection id, and value
//! are stashed in a small bounded ring, so a scrape of `/slo` or
//! `/metrics.json` (v2) can point at real requests — and real network
//! connections — instead of an anonymous bucket. Each capture also emits
//! a [`TraceKind::TailExemplar`](crate::trace::TraceKind::TailExemplar)
//! event, so exemplars land in the flight recorder (`/trace`) next to
//! the submit/reply spans of the very request they name.
//!
//! The capture path must never slow a worker: the tail test is one
//! relaxed `fetch_max` plus a comparison, and the ring is taken with
//! `try_lock` — a contended capture is simply skipped (exemplars are
//! samples, not an audit log).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nacu::Function;

use crate::Stage;

/// Default bound on retained exemplars per [`ExemplarRing`].
pub const DEFAULT_EXEMPLAR_CAPACITY: usize = 16;

/// One captured tail request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Stage whose histogram the value entered.
    pub stage: Stage,
    /// The request's function.
    pub function: Function,
    /// The recorded latency.
    pub value_ns: u64,
    /// The request's engine-assigned id.
    pub req: u64,
    /// Network connection the request arrived on (`0` = in-process).
    pub conn: u32,
    /// Nanoseconds since the ring's construction at capture time.
    pub at_ns: u64,
}

/// A bounded ring of tail exemplars with a per-stage running maximum
/// (see the module docs for the capture rule).
#[derive(Debug)]
pub struct ExemplarRing {
    epoch: Instant,
    capacity: usize,
    /// Running latency maximum per stage, [`Stage::ALL`] order.
    stage_max: [AtomicU64; Stage::ALL.len()],
    ring: Mutex<VecDeque<Exemplar>>,
    captured: AtomicU64,
    skipped: AtomicU64,
}

impl ExemplarRing {
    /// A ring retaining up to `capacity` exemplars (min 1). Its storage
    /// is allocated here, one slot past `capacity` for the push before
    /// the pop in [`ExemplarRing::offer`], so a capture on the serving
    /// path never allocates.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch: Instant::now(),
            capacity,
            stage_max: core::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(VecDeque::with_capacity(capacity + 1)),
            captured: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }
    }

    /// Offers one tagged latency record. Returns the captured exemplar
    /// when the value qualified as tail (within 2× of the stage's
    /// observed maximum) *and* the ring was uncontended.
    pub fn offer(
        &self,
        stage: Stage,
        function: Function,
        value_ns: u64,
        req: u64,
        conn: u32,
    ) -> Option<Exemplar> {
        let slot = Stage::ALL.iter().position(|&s| s == stage)?;
        let prev_max = self.stage_max[slot].fetch_max(value_ns, Ordering::Relaxed);
        let threshold = prev_max.max(value_ns) / 2;
        if value_ns < threshold.max(1) {
            return None;
        }
        let exemplar = Exemplar {
            stage,
            function,
            value_ns,
            req,
            conn,
            at_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        match self.ring.try_lock() {
            Ok(mut ring) => {
                ring.push_back(exemplar);
                if ring.len() > self.capacity {
                    ring.pop_front();
                }
                self.captured.fetch_add(1, Ordering::Relaxed);
                Some(exemplar)
            }
            Err(_) => {
                // Contended: drop the sample rather than stall a worker.
                self.skipped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The retained exemplars, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Exemplar> {
        match self.ring.try_lock() {
            Ok(ring) => ring.iter().copied().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Exemplars captured since construction.
    #[must_use]
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Qualifying values skipped because the ring was contended.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_values_are_captured_with_their_tags() {
        let ring = ExemplarRing::new(8);
        let e = ring
            .offer(Stage::EndToEnd, Function::Sigmoid, 10_000, 42, 3)
            .expect("first value is its own maximum");
        assert_eq!(e.req, 42);
        assert_eq!(e.conn, 3);
        assert_eq!(e.value_ns, 10_000);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0], e);
        assert_eq!(ring.captured(), 1);
    }

    #[test]
    fn fast_values_in_a_slow_world_are_ignored() {
        let ring = ExemplarRing::new(8);
        assert!(ring
            .offer(Stage::EndToEnd, Function::Sigmoid, 1_000_000, 1, 0)
            .is_some());
        // 100 µs against a 1 ms max: not tail.
        assert!(ring
            .offer(Stage::EndToEnd, Function::Tanh, 100_000, 2, 0)
            .is_none());
        // 600 µs is within 2× of the max: tail.
        assert!(ring
            .offer(Stage::EndToEnd, Function::Tanh, 600_000, 3, 0)
            .is_some());
        assert_eq!(ring.snapshot().len(), 2);
    }

    #[test]
    fn per_stage_maxima_are_independent() {
        let ring = ExemplarRing::new(8);
        assert!(ring
            .offer(Stage::EndToEnd, Function::Sigmoid, 1_000_000, 1, 0)
            .is_some());
        // Queue-wait has its own maximum; a small value still qualifies.
        assert!(ring
            .offer(Stage::QueueWait, Function::Sigmoid, 500, 2, 0)
            .is_some());
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let ring = ExemplarRing::new(2);
        for i in 0..5u64 {
            // Monotonically increasing values all qualify as tail.
            ring.offer(Stage::EndToEnd, Function::Exp, 1_000 + i, i, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].req, 3);
        assert_eq!(snap[1].req, 4);
        assert_eq!(ring.captured(), 5);
    }

    /// The ring's storage is sized at construction: offering far past
    /// capacity never grows it, so captures on the serving path never
    /// allocate.
    #[test]
    fn offering_past_capacity_never_grows_the_ring() {
        let ring = ExemplarRing::new(DEFAULT_EXEMPLAR_CAPACITY);
        let allocated = ring.ring.lock().expect("ring lock").capacity();
        assert!(allocated > DEFAULT_EXEMPLAR_CAPACITY);
        for i in 0..100 * DEFAULT_EXEMPLAR_CAPACITY as u64 {
            // Monotonically increasing values all qualify as tail.
            ring.offer(Stage::EndToEnd, Function::Exp, 1_000 + i, i, 0);
        }
        assert_eq!(ring.captured(), 100 * DEFAULT_EXEMPLAR_CAPACITY as u64);
        assert_eq!(
            ring.ring.lock().expect("ring lock").capacity(),
            allocated,
            "the ring reallocated"
        );
    }
}
