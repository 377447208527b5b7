//! A fixed-capacity, lock-free trace ring of typed serving events.
//!
//! Producers (pool workers, submitters, layer adapters) record
//! [`TraceEvent`]s without blocking; a monitor drains the ring **while
//! serving continues**. The ring is a Vyukov bounded MPMC queue: every
//! slot carries a sequence word that hands it back and forth between
//! producers and consumers, so there are no locks anywhere on the path.
//!
//! Drop semantics: when the ring is full, the *newest* event is counted
//! in [`TraceRing::dropped`] and discarded — recorders never stall and
//! never overwrite an event a consumer is reading. A monitor that drains
//! faster than the fleet records loses nothing; one that falls behind
//! sees a precise count of what it missed instead of silent gaps.
//!
//! Timestamps are monotonic nanoseconds since the ring's construction
//! ([`TraceRing::epoch`]), taken from [`Instant`] so they survive wall
//! clock adjustments.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use nacu::Function;
use nacu_faults::FaultEvent;

use crate::health::DriftKind;

/// What happened, with the payload each stage of the serving path knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A request was accepted into the submission queue.
    Submit {
        /// Engine-assigned request id (threads through to [`Self::Reply`]).
        req: u64,
        /// Network connection the request arrived on (`0` for in-process
        /// submissions; wire front-ends assign ids starting at 1).
        conn: u32,
        /// Requested function.
        function: Function,
        /// Operand count.
        ops: u32,
    },
    /// A worker fused a run of queued requests into one hardware batch.
    Coalesce {
        /// Worker that popped the run.
        worker: u32,
        /// Requests fused (≥ 2; singleton pops are not coalescing).
        requests: u32,
    },
    /// A worker started serving a fused batch.
    BatchStart {
        /// Serving worker.
        worker: u32,
        /// Batch function.
        function: Function,
        /// Total operands in the batch.
        ops: u32,
    },
    /// A worker finished a fused batch.
    BatchEnd {
        /// Serving worker.
        worker: u32,
        /// Batch function.
        function: Function,
        /// Total operands in the batch.
        ops: u32,
        /// Measured service time of the batch.
        service_ns: u64,
    },
    /// A worker answered one request of a served batch.
    Reply {
        /// The answered request's id.
        req: u64,
        /// Network connection the request arrived on (`0` = in-process),
        /// mirroring [`Self::Submit`] so one connection's requests can be
        /// followed through a drained trace.
        conn: u32,
        /// The worker that served it.
        worker: u32,
        /// The request's function.
        function: Function,
        /// Submit-to-reply latency of the request.
        e2e_ns: u64,
    },
    /// A request was dropped at pickup because its deadline had passed.
    Expired {
        /// The expired request's id.
        req: u64,
        /// The expired request's function.
        function: Function,
    },
    /// A hardware detector fired on a worker's unit.
    Fault {
        /// The flagged worker.
        worker: u32,
        /// Stable detector name ([`FaultEvent::detector`]).
        detector: &'static str,
    },
    /// A worker took itself out of service after a detector event.
    Quarantine {
        /// The quarantined worker.
        worker: u32,
    },
    /// An in-flight request was requeued for a healthy worker.
    Retry {
        /// The bounced request's id.
        req: u64,
        /// The worker whose batch the request was bounced from.
        worker: u32,
        /// Serving attempts including the bounce.
        attempts: u32,
    },
    /// A worker ran its periodic ROM scrub (BIST walk).
    Scrub {
        /// The scrubbing worker.
        worker: u32,
    },
    /// One layer's forward-pass activation completed on the pool.
    LayerForward {
        /// Request id of the engine call that served the layer (`0` when
        /// the layer ran on a local unit instead of the engine).
        req: u64,
        /// Activation function the layer evaluated.
        function: Function,
        /// Operands (layer width, or vector length for softmax).
        ops: u32,
        /// Wall time of the layer's activation call.
        wall_ns: u64,
    },
    /// A sampled shadow check exceeded its error bound
    /// ([`crate::health::HealthMonitor::observe`]).
    DriftAlarm {
        /// The worker whose unit produced the drifting sample.
        worker: u32,
        /// The drifting function.
        function: Function,
        /// Which budget the sample violated.
        kind: DriftKind,
    },
    /// A latency record landed in the tail (within 2× of the stage's
    /// observed maximum) and was captured as an exemplar, tying the
    /// aggregate histogram back to one concrete request.
    TailExemplar {
        /// The slow request's id.
        req: u64,
        /// Network connection the request arrived on (`0` = in-process).
        conn: u32,
        /// The request's function.
        function: Function,
        /// The recorded latency.
        value_ns: u64,
    },
}

impl TraceKind {
    /// The typed event for a detector firing on `worker`.
    #[must_use]
    pub fn fault(worker: u32, event: &FaultEvent) -> Self {
        Self::Fault {
            worker,
            detector: event.detector(),
        }
    }

    /// Short stable name of the event type, for exporters and filters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Submit { .. } => "submit",
            Self::Coalesce { .. } => "coalesce",
            Self::BatchStart { .. } => "batch_start",
            Self::BatchEnd { .. } => "batch_end",
            Self::Reply { .. } => "reply",
            Self::Expired { .. } => "expired",
            Self::Fault { .. } => "fault",
            Self::Quarantine { .. } => "quarantine",
            Self::Retry { .. } => "retry",
            Self::Scrub { .. } => "scrub",
            Self::LayerForward { .. } => "layer_forward",
            Self::DriftAlarm { .. } => "drift_alarm",
            Self::TailExemplar { .. } => "tail_exemplar",
        }
    }
}

/// One recorded event: a monotonic timestamp plus the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the ring's [`TraceRing::epoch`].
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceKind,
}

struct Slot {
    /// Hand-off word: `pos` = free for the producer claiming `pos`,
    /// `pos + 1` = holds the event enqueued at `pos`, `pos + capacity` =
    /// consumed and free for the producer claiming `pos + capacity`.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<TraceEvent>>,
}

/// The fixed-capacity MPSC/MPMC trace ring (see the module docs).
pub struct TraceRing {
    epoch: Instant,
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: slot contents are only touched by the thread that owns the slot
// per the Vyukov sequence protocol — a producer writes only after winning
// the CAS on `enqueue_pos` while `seq == pos`, a consumer reads only after
// winning the CAS on `dequeue_pos` while `seq == pos + 1`, and the
// release/acquire pairs on `seq` order the data accesses. `TraceEvent` is
// `Copy + Send`.
unsafe impl Send for TraceRing {}
unsafe impl Sync for TraceRing {}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A ring holding up to `capacity` undrained events (rounded up to a
    /// power of two, min 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            epoch: Instant::now(),
            slots: slots.into_boxed_slice(),
            mask: capacity - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Undrained-event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The instant `at_ns == 0` refers to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds of monotonic time since the ring's epoch — the
    /// timestamp [`TraceRing::record`] stamps events with.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `kind` now. Returns `false` (and bumps the drop counter)
    /// when the ring is full; never blocks either way.
    pub fn record(&self, kind: TraceKind) -> bool {
        self.record_event(TraceEvent {
            at_ns: self.now_ns(),
            kind,
        })
    }

    /// Records a pre-stamped event (see [`TraceRing::record`]).
    pub fn record_event(&self, event: TraceEvent) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS at `seq == pos` grants
                        // this thread exclusive write access to the slot.
                        unsafe { (*slot.value.get()).write(event) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // The slot still holds an unconsumed event from one lap
                // ago: the ring is full. Drop the newcomer, never stall.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest undrained event, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<TraceEvent> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS at `seq == pos + 1`
                        // grants exclusive read access; the producer's
                        // release store on `seq` ordered its write.
                        let event = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(event);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains up to `max` events in recording order, while producers keep
    /// recording.
    #[must_use]
    pub fn drain(&self, max: usize) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(max.min(self.capacity()));
        while events.len() < max {
            match self.pop() {
                Some(event) => events.push(event),
                None => break,
            }
        }
        events
    }

    /// Events successfully recorded so far.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// No `Drop` impl is needed: `TraceEvent` is `Copy`, so undrained
// `MaybeUninit` slots hold nothing that requires a destructor.

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn submit(ops: u32) -> TraceKind {
        TraceKind::Submit {
            req: 0,
            conn: 0,
            function: Function::Sigmoid,
            ops,
        }
    }

    #[test]
    fn events_drain_in_recording_order() {
        let ring = TraceRing::new(8);
        for i in 0..5 {
            assert!(ring.record(submit(i)));
        }
        let events = ring.drain(16);
        let ops: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                TraceKind::Submit { ops, .. } => ops,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ops, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn timestamps_are_monotone() {
        let ring = TraceRing::new(8);
        for i in 0..4 {
            ring.record(submit(i));
        }
        let events = ring.drain(8);
        for pair in events.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
    }

    #[test]
    fn full_ring_drops_the_newest_and_counts_it() {
        let ring = TraceRing::new(2);
        assert!(ring.record(submit(1)));
        assert!(ring.record(submit(2)));
        assert!(!ring.record(submit(3)));
        assert_eq!(ring.dropped(), 1);
        // Draining frees the slots again.
        assert_eq!(ring.drain(4).len(), 2);
        assert!(ring.record(submit(4)));
    }

    #[test]
    fn concurrent_producers_lose_nothing_below_capacity() {
        let ring = Arc::new(TraceRing::new(1024));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        assert!(ring.record(submit(i)));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        assert_eq!(ring.recorded(), 400);
        assert_eq!(ring.drain(usize::MAX).len(), 400);
    }

    #[test]
    fn drains_while_producers_record() {
        let ring = Arc::new(TraceRing::new(64));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..10_000u32 {
                    ring.record(submit(i));
                }
            })
        };
        let mut drained = 0usize;
        while !producer.is_finished() {
            drained += ring.drain(32).len();
        }
        producer.join().expect("producer");
        drained += ring.drain(usize::MAX).len();
        assert_eq!(
            drained as u64 + ring.dropped(),
            ring.recorded() + ring.dropped()
        );
        assert_eq!(drained as u64, ring.recorded());
    }

    #[test]
    fn concurrent_drain_with_four_producers_accounts_every_loss() {
        // A deliberately tiny ring under four producers forces drops;
        // the invariant is that accounting stays *exact*: attempts
        // split perfectly into recorded + dropped, and a concurrent
        // drainer recovers exactly the recorded events, no more, no
        // fewer, no double-delivery.
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let ring = Arc::new(TraceRing::new(64));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..PER_PRODUCER {
                        if ring.record(submit((p * PER_PRODUCER + i) as u32)) {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let drainer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut events: Vec<TraceEvent> = Vec::new();
                loop {
                    events.extend(ring.drain(32));
                    if ring.recorded() + ring.dropped() == PRODUCERS * PER_PRODUCER {
                        // Producers are done; one last sweep (anything
                        // still in flight is caught by the post-join
                        // drain on the main thread).
                        events.extend(ring.drain(usize::MAX));
                        return events;
                    }
                }
            })
        };
        let accepted: u64 = producers
            .into_iter()
            .map(|p| p.join().expect("producer"))
            .sum();
        let mut drained = drainer.join().expect("drainer");
        drained.extend(ring.drain(usize::MAX));
        // Every attempt is accounted exactly once.
        assert_eq!(ring.recorded() + ring.dropped(), PRODUCERS * PER_PRODUCER);
        assert_eq!(accepted, ring.recorded());
        assert_eq!(drained.len() as u64, ring.recorded());
        assert!(ring.dropped() > 0, "tiny ring under load must drop");
        // Per-producer payloads arrive in their recording order.
        for p in 0..PRODUCERS as u32 {
            let lo = p * PER_PRODUCER as u32;
            let hi = lo + PER_PRODUCER as u32;
            let mine: Vec<u32> = drained
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::Submit { ops, .. } if (lo..hi).contains(&ops) => Some(ops),
                    _ => None,
                })
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn drift_alarm_and_reply_kinds_have_stable_names() {
        let drift = TraceKind::DriftAlarm {
            worker: 2,
            function: Function::Exp,
            kind: DriftKind::ExpAmplification,
        };
        assert_eq!(drift.name(), "drift_alarm");
        let reply = TraceKind::Reply {
            req: 17,
            conn: 3,
            worker: 0,
            function: Function::Sigmoid,
            e2e_ns: 840,
        };
        assert_eq!(reply.name(), "reply");
    }

    #[test]
    fn fault_events_map_to_typed_trace_kinds() {
        let kind = TraceKind::fault(3, &FaultEvent::LutParity { entry: 7 });
        assert_eq!(
            kind,
            TraceKind::Fault {
                worker: 3,
                detector: "lut_parity"
            }
        );
        assert_eq!(kind.name(), "fault");
    }
}
