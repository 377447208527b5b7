//! Waker-based completion plumbing: the event-driven reply side of the
//! engine.
//!
//! Through PR 6 a [`Ticket`] was an `mpsc::Receiver` and the only ways to
//! learn a request finished were to block a whole thread on it or to poll
//! `try_wait` on a timer — the network plane burned one 50 µs-polling
//! writer thread *per connection*. This module replaces that with the
//! standard readiness shape, built only on `std`:
//!
//! * [`Slot`] — a one-shot completion cell with an `AtomicU8` state
//!   machine (`EMPTY → REGISTERING → REGISTERED → COMPLETE → CONSUMED`).
//!   The completer publishes the value and *swaps* to `COMPLETE`; the
//!   consumer registers a [`Waker`] under the `REGISTERING` guard state.
//!   The register/complete race is resolved without locks: whichever
//!   side's atomic RMW lands second sees the other and either delivers
//!   exactly one wakeup or observes the completed value directly.
//! * [`TicketFuture`] — `Ticket` as a real [`Future`] (`ticket.await`
//!   via `IntoFuture`), so any executor can drive engine requests.
//! * [`block_on`] / [`block_on_deadline`] — a std-only parker executor;
//!   `Ticket::wait` is now a thin wrapper over it.
//!
//! Any other [`Waker`] works too: the network plane registers one per
//! in-flight ticket that writes the reply on the thread that completes
//! it.
//!
//! # State machine
//!
//! ```text
//!              consumer CAS                consumer CAS
//!   EMPTY ────────────────▶ REGISTERING ─────────────▶ REGISTERED
//!     │                         │      ◀─────────────      │
//!     │                         │       (re-register)      │
//!     │ completer swap          │ completer swap           │ completer swap
//!     │ (no waker: quiet)       │ (cell untouched;         │ (takes waker,
//!     │                         │  consumer self-serves)   │  wakes exactly once)
//!     ▼                         ▼                          ▼
//!   COMPLETE ──────────────────────────────────────────▶ CONSUMED
//!                     consumer CAS claims the value
//! ```
//!
//! Every transition is a single atomic RMW on `state`, so the completer's
//! `swap(COMPLETE)` and any consumer CAS are totally ordered: a lost
//! wakeup would require the swap to observe `REGISTERED` without taking
//! the waker, or a consumer to finish registering without re-checking —
//! neither path exists. The `UnsafeCell`s are only touched by whichever
//! side the state machine currently grants exclusive access.

use std::cell::UnsafeCell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

use crate::batch::{RequestError, Response};
use crate::{Ticket, WaitError};

/// No value, no waker.
const EMPTY: u8 = 0;
/// The consumer is writing the waker cell; nobody else may touch it.
const REGISTERING: u8 = 1;
/// A waker is stored; the completer owns delivering it.
const REGISTERED: u8 = 2;
/// The value is published; first consumer claim wins.
const COMPLETE: u8 = 3;
/// The value was taken; later polls answer "already consumed".
const CONSUMED: u8 = 4;

/// A one-shot completion cell: one completer, one (single-threaded)
/// consumer, a lock-free register/complete handshake.
///
/// Generic over the payload so the drop-exactly-once property can be
/// tested with an instrumented type; the engine instantiates it with
/// `Result<Response, RequestError>`.
pub(crate) struct Slot<T> {
    state: AtomicU8,
    value: UnsafeCell<Option<T>>,
    waker: UnsafeCell<Option<Waker>>,
}

// SAFETY: the state machine grants at most one side access to each
// UnsafeCell at a time (see the module docs); `T` crossing threads only
// needs `T: Send`.
unsafe impl<T: Send> Send for Slot<T> {}
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.state.load(Ordering::Relaxed) {
            EMPTY => "empty",
            REGISTERING => "registering",
            REGISTERED => "registered",
            COMPLETE => "complete",
            _ => "consumed",
        };
        f.debug_struct("Slot").field("state", &state).finish()
    }
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Self {
        Self {
            state: AtomicU8::new(EMPTY),
            value: UnsafeCell::new(None),
            waker: UnsafeCell::new(None),
        }
    }

    /// Publishes the value and delivers at most one wakeup. Must be
    /// called at most once (the unique [`Completer`] enforces this).
    pub(crate) fn complete(&self, value: T) {
        // SAFETY: only the unique completer writes the value cell, and
        // no consumer reads it before observing COMPLETE (Acquire) below.
        unsafe { *self.value.get() = Some(value) };
        match self.state.swap(COMPLETE, Ordering::AcqRel) {
            // Nobody is waiting; the consumer's next poll sees COMPLETE.
            EMPTY => {}
            // The consumer is mid-registration. Its confirming CAS
            // (REGISTERING → REGISTERED) will fail against COMPLETE and
            // it self-serves the value — touching the waker cell here
            // would race its write, so we must not (and need not).
            REGISTERING => {}
            REGISTERED => {
                // SAFETY: REGISTERED means the consumer finished writing
                // the waker and the swap above locked it out of ever
                // re-entering REGISTERING, so the cell is ours.
                if let Some(waker) = unsafe { (*self.waker.get()).take() } {
                    waker.wake();
                }
            }
            state => unreachable!("slot completed twice (state {state})"),
        }
    }

    /// Claims the value if complete; otherwise registers `waker` (when
    /// given) for exactly one wakeup. `Ready(None)` means an earlier
    /// poll already claimed it.
    pub(crate) fn poll_value(&self, waker: Option<&Waker>) -> Poll<Option<T>> {
        let mut state = self.state.load(Ordering::Acquire);
        loop {
            match state {
                COMPLETE => {
                    match self.state.compare_exchange(
                        COMPLETE,
                        CONSUMED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        // SAFETY: the CAS makes this call the unique
                        // claimant; the completer released the value
                        // before swapping to COMPLETE.
                        Ok(_) => return Poll::Ready(unsafe { (*self.value.get()).take() }),
                        Err(observed) => state = observed,
                    }
                }
                CONSUMED => return Poll::Ready(None),
                EMPTY | REGISTERED => {
                    let Some(waker) = waker else {
                        return Poll::Pending;
                    };
                    match self.state.compare_exchange(
                        state,
                        REGISTERING,
                        Ordering::Acquire,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            // SAFETY: REGISTERING excludes the completer
                            // from the waker cell until we confirm below.
                            unsafe { *self.waker.get() = Some(waker.clone()) };
                            match self.state.compare_exchange(
                                REGISTERING,
                                REGISTERED,
                                Ordering::Release,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => return Poll::Pending,
                                Err(observed) => {
                                    debug_assert_eq!(observed, COMPLETE);
                                    // Completion landed while we wrote the
                                    // waker; the completer saw REGISTERING
                                    // and left the cell alone. Reclaim our
                                    // waker (no wakeup is coming) and take
                                    // the value directly.
                                    // SAFETY: the completer never touches
                                    // the waker cell after observing
                                    // REGISTERING, so it is still ours.
                                    drop(unsafe { (*self.waker.get()).take() });
                                    state = observed;
                                }
                            }
                        }
                        Err(observed) => state = observed,
                    }
                }
                _ => unreachable!("second consumer raced a one-shot slot"),
            }
        }
    }
}

/// The reply result a completer publishes and a ticket resolves to.
pub(crate) type ReplyResult = Result<Response, RequestError>;

/// The producing half of a [`Ticket`]: exactly one of `complete` or
/// `Drop` publishes an outcome, so a ticket can never be left dangling —
/// a completer dropped on a panicking or exiting worker resolves the
/// ticket with [`RequestError::EngineShutDown`] instead of hanging it.
#[derive(Debug)]
pub struct Completer {
    slot: Option<Arc<Slot<ReplyResult>>>,
}

impl Completer {
    /// Publishes the outcome, waking the registered waker if any. A
    /// second call is a silent no-op: the slot is one-shot and the first
    /// outcome wins.
    pub fn complete(&mut self, result: ReplyResult) {
        if let Some(slot) = self.slot.take() {
            slot.complete(result);
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.complete(Err(RequestError::EngineShutDown));
        }
    }
}

/// A fresh ticket/completer pair around one slot.
pub(crate) fn pair(req: u64) -> (Ticket, Completer) {
    let slot = Arc::new(Slot::new());
    (
        Ticket {
            slot: Arc::clone(&slot),
            req,
        },
        Completer { slot: Some(slot) },
    )
}

/// [`Ticket`] as a [`Future`]; obtained via `ticket.into_future()` (or
/// implicitly by `ticket.await`). Resolves to exactly what
/// [`Ticket::wait`] returns.
#[derive(Debug)]
pub struct TicketFuture {
    pub(crate) ticket: Ticket,
}

impl TicketFuture {
    /// The underlying request id (see [`Ticket::request_id`]).
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.ticket.request_id()
    }

    /// Unwraps back into the ticket (waker registration, if any, stays
    /// armed; it is replaced on the next poll).
    #[must_use]
    pub fn into_inner(self) -> Ticket {
        self.ticket
    }
}

impl Future for TicketFuture {
    type Output = Result<Response, WaitError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.ticket.slot.poll_value(Some(cx.waker())) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Some(Ok(response))) => Poll::Ready(Ok(response)),
            Poll::Ready(Some(Err(e))) => Poll::Ready(Err(e.into())),
            // Polled again after resolving — mirror the disconnected
            // mpsc receiver the pre-waker Ticket was built on.
            Poll::Ready(None) => Poll::Ready(Err(WaitError::EngineShutDown)),
        }
    }
}

/// Wakes a parked thread at most once per park cycle.
struct Unparker {
    thread: Thread,
    notified: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // One unpark per edge: redundant wakes between polls collapse.
        if !self.notified.swap(true, Ordering::Release) {
            self.thread.unpark();
        }
    }
}

/// Drives one future to completion on the calling thread, parking
/// between polls — the std-only executor behind [`Ticket::wait`].
pub fn block_on<F: Future>(future: F) -> F::Output {
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => {
                while !unparker.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

/// As [`block_on`], giving up at `deadline` (`None`). The future is
/// dropped on timeout; an engine ticket inside it stays claimable only
/// if the caller kept another handle, so treat `None` as abandonment —
/// exactly the [`Ticket::wait_timeout`] contract.
pub fn block_on_deadline<F: Future>(future: F, deadline: Instant) -> Option<F::Output> {
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return Some(value),
            Poll::Pending => loop {
                if unparker.notified.swap(false, Ordering::Acquire) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    return None;
                }
                std::thread::park_timeout(deadline - now);
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::IntoFuture;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn response(n: usize) -> Response {
        Response {
            outputs: Vec::new(),
            worker: n,
            batch_ops: n,
            batch_cycles: n as u64,
        }
    }

    /// A waker that only counts.
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Payload that counts its drops through a shared cell.
    #[derive(Debug)]
    struct DropCounter(Arc<AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn complete_then_poll_claims_without_wakeup() {
        let slot: Slot<u32> = Slot::new();
        slot.complete(7);
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        assert_eq!(slot.poll_value(Some(&waker)), Poll::Ready(Some(7)));
        assert_eq!(slot.poll_value(Some(&waker)), Poll::Ready(None));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0, "no wakeup needed");
    }

    #[test]
    fn register_then_complete_delivers_exactly_one_wakeup() {
        let slot: Slot<u32> = Slot::new();
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        assert_eq!(slot.poll_value(Some(&waker)), Poll::Pending);
        // Re-registration replaces the waker, it does not stack wakeups.
        assert_eq!(slot.poll_value(Some(&waker)), Poll::Pending);
        slot.complete(9);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "exactly one wakeup");
        assert_eq!(slot.poll_value(Some(&waker)), Poll::Ready(Some(9)));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    /// The drop-exactly-once ledger, across every consumption pattern:
    /// claimed values are dropped by the claimant, unclaimed values by
    /// the slot — never twice, never zero times.
    #[test]
    fn payload_is_dropped_exactly_once_claimed_or_not() {
        // Claimed.
        let drops = Arc::new(AtomicUsize::new(0));
        let slot: Slot<DropCounter> = Slot::new();
        slot.complete(DropCounter(Arc::clone(&drops)));
        let claimed = match slot.poll_value(None) {
            Poll::Ready(Some(v)) => v,
            other => panic!("expected a value, got {other:?}"),
        };
        drop(claimed);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "slot does not double-drop");

        // Unclaimed: ticket dropped before the wakeup ever lands.
        let drops = Arc::new(AtomicUsize::new(0));
        let slot: Slot<DropCounter> = Slot::new();
        slot.complete(DropCounter(Arc::clone(&drops)));
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "slot drops the orphan");
    }

    #[test]
    fn completer_drop_resolves_the_ticket_with_shutdown() {
        let (ticket, completer) = pair(1);
        drop(completer);
        assert_eq!(ticket.wait(), Err(WaitError::EngineShutDown));
    }

    #[test]
    fn block_on_wakes_across_threads() {
        let (ticket, mut completer) = pair(2);
        let worker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            completer.complete(Ok(response(3)));
        });
        let out = block_on(ticket.into_future()).expect("completed");
        assert_eq!(out.worker, 3);
        worker.join().expect("completer thread");
    }

    #[test]
    fn block_on_deadline_times_out_then_delivers() {
        let (ticket, mut completer) = pair(3);
        let deadline = Instant::now() + Duration::from_millis(5);
        let future = ticket.into_future();
        assert!(block_on_deadline(future, deadline).is_none(), "timed out");
        completer.complete(Ok(response(1)));
        // The future (and with it the ticket) was dropped on timeout;
        // the slot still drops the published response exactly once when
        // the last Arc goes — covered by the DropCounter test above.
    }
}
