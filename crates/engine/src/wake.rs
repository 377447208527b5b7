//! Waker-based completion plumbing: the reply side of the walking fault
//! harness.
//!
//! A healthy engine computes every request inside `submit` and hands
//! back a [`Ticket`] that already holds its result; none of this module
//! runs for it. A harness engine (any fault plan configured) queues each
//! request for a pool worker, and the worker's reply travels back through
//! the pieces here, built only on `std`:
//!
//! * `Slot` — a one-shot completion cell: a `Mutex` over the published
//!   value, the registered [`Waker`] and a consumed flag. The completer
//!   stores the value and takes the waker under the lock, then wakes it
//!   *after* releasing the lock, so a waker that claims the value at once
//!   (the network plane's reply waker does) never meets a held lock.
//!   Whichever of register and complete takes the lock second sees the
//!   other's write, so a wakeup is never lost.
//! * [`TicketFuture`] — `Ticket` as a real [`Future`] (`ticket.await`
//!   via `IntoFuture`), so any executor can drive engine requests.
//! * [`block_on`] / [`block_on_deadline`] — a std-only parker executor;
//!   `Ticket::wait` on a pending ticket is a thin wrapper over it.
//!
//! Any other [`Waker`] works too: the network plane registers one per
//! in-flight ticket that writes the reply on the thread that completes
//! it.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

use crate::batch::{RequestError, Response};
use crate::{Outcome, Ticket, WaitError};

/// A one-shot completion cell: one completer, one (single-threaded)
/// consumer.
///
/// Generic over the payload so the drop-exactly-once property can be
/// tested with an instrumented type; the engine instantiates it with
/// `Result<Response, RequestError>`.
pub(crate) struct Slot<T> {
    state: Mutex<SlotState<T>>,
}

struct SlotState<T> {
    /// The published outcome, until a consumer claims it.
    value: Option<T>,
    /// The consumer's waker, until the completer takes it.
    waker: Option<Waker>,
    /// A consumer claimed the value; later polls answer "already
    /// consumed".
    consumed: bool,
}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        let state = if s.consumed {
            "consumed"
        } else if s.value.is_some() {
            "complete"
        } else if s.waker.is_some() {
            "registered"
        } else {
            "empty"
        };
        f.debug_struct("Slot").field("state", &state).finish()
    }
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(SlotState {
                value: None,
                waker: None,
                consumed: false,
            }),
        }
    }

    /// Nothing panics while the lock is held, so a poisoned lock still
    /// guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the value and delivers at most one wakeup. Must be
    /// called at most once (the unique [`Completer`] enforces this).
    pub(crate) fn complete(&self, value: T) {
        let waker = {
            let mut s = self.lock();
            debug_assert!(s.value.is_none() && !s.consumed, "slot completed twice");
            s.value = Some(value);
            s.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Claims the value if complete; otherwise registers `waker` (when
    /// given) for exactly one wakeup, replacing any earlier one.
    /// `Ready(None)` means an earlier poll already claimed it.
    pub(crate) fn poll_value(&self, waker: Option<&Waker>) -> Poll<Option<T>> {
        let mut s = self.lock();
        if s.consumed {
            return Poll::Ready(None);
        }
        if let Some(value) = s.value.take() {
            s.consumed = true;
            return Poll::Ready(Some(value));
        }
        if let Some(waker) = waker {
            match &mut s.waker {
                Some(held) if held.will_wake(waker) => {}
                held => *held = Some(waker.clone()),
            }
        }
        Poll::Pending
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
            outcome: Outcome::Pending(Arc::clone(&slot)),
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
        self.ticket.poll_outcome(Some(cx.waker()))
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
