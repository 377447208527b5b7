//! Stress tests for the async completion front-end, run with `--release`
//! in CI (the `async-stress` job): optimised code shrinks the
//! register/complete race windows to their narrowest, which is exactly
//! when a broken waker handoff would lose a wakeup.
//!
//! Three campaigns, matching the serving plane's failure modes:
//!   1. register-after-complete race loop — a completer thread racing a
//!      `block_on` waiter, thousands of rounds;
//!   2. drop-ticket-before-wake — consumers vanish while completions are
//!      still in flight, and nothing hangs, panics, or double-replies;
//!   3. mass completer drop — an engine dying under hundreds of armed
//!      wakers wakes each exactly once with `EngineShutDown`.

use std::collections::HashSet;
use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use nacu_engine::{Response, Ticket, TicketFuture, WaitError};

fn stamped(sentinel: u64) -> Response {
    Response {
        outputs: Vec::new(),
        worker: 0,
        batch_ops: 1,
        batch_cycles: sentinel,
    }
}

/// Campaign 1: the completer races the waiter on every round — sometimes
/// completion lands before the waiter registers (direct observation),
/// sometimes after (wakeup path). Either way `wait` must return the
/// stamped value, every single round.
#[test]
fn register_after_complete_race_loop() {
    const ROUNDS: u64 = 20_000;
    let barrier = Arc::new(std::sync::Barrier::new(2));
    for round in 0..ROUNDS {
        let (ticket, mut completer) = Ticket::detached(round);
        let gate = Arc::clone(&barrier);
        let completer_thread = std::thread::spawn(move || {
            gate.wait();
            // Vary who wins the race: even rounds complete immediately,
            // odd rounds yield first so the waiter tends to register.
            if round % 2 == 1 {
                std::thread::yield_now();
            }
            completer.complete(Ok(stamped(round)));
        });
        barrier.wait();
        let response = ticket.wait().expect("raced completion still delivers");
        assert_eq!(response.batch_cycles, round);
        completer_thread.join().expect("completer thread");
    }
}

/// A waker that reports its ticket's id on a channel — the shape of the
/// net plane's per-ticket reply waker, minus the socket.
struct IdWaker {
    id: u64,
    tx: Mutex<mpsc::Sender<u64>>,
}

impl Wake for IdWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.tx.lock().expect("sender lock").send(self.id);
    }
}

/// Polls `future` once with `waker`, arming it if the ticket is pending.
fn arm(future: &mut TicketFuture, waker: &Waker) -> Poll<Result<Response, WaitError>> {
    Pin::new(future).poll(&mut Context::from_waker(waker))
}

/// Campaign 2: consumers abandon tickets at every stage — never polled,
/// and polled with a waker armed — while completers keep resolving. The
/// completers must never panic or block, and a waker whose ticket is
/// already gone must not wedge later completions.
#[test]
fn dropping_tickets_before_wake_leaks_and_hangs_nothing() {
    const ROUNDS: u64 = 500;
    let completions = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel();

    for round in 0..ROUNDS {
        let (never_registered, mut completer_a) = Ticket::detached(round);
        let (registered, mut completer_b) = Ticket::detached(round + ROUNDS);

        // Arm a waker on one ticket, then drop it while the completion
        // is still in flight.
        let waker = Waker::from(Arc::new(IdWaker {
            id: round,
            tx: Mutex::new(tx.clone()),
        }));
        let mut armed = registered.into_future();
        assert!(arm(&mut armed, &waker).is_pending());
        drop(never_registered);

        let counter = Arc::clone(&completions);
        let racer = std::thread::spawn(move || {
            completer_a.complete(Ok(stamped(1)));
            completer_b.complete(Ok(stamped(2)));
            counter.fetch_add(2, Ordering::SeqCst);
        });

        // Half the rounds drop the armed ticket before the completions
        // land, half after — both must be clean.
        if round % 2 == 0 {
            drop(armed);
            racer.join().expect("completer thread");
        } else {
            racer.join().expect("completer thread");
            drop(armed);
        }
    }

    assert_eq!(
        completions.load(Ordering::SeqCst),
        (ROUNDS as usize) * 2,
        "every completer ran to completion"
    );
    // Every armed waker fired exactly once, dropped ticket or not.
    drop(tx);
    let mut woken: Vec<u64> = rx.iter().collect();
    woken.sort_unstable();
    assert_eq!(woken, (0..ROUNDS).collect::<Vec<_>>());
}

/// The shutdown contract under load: dropping completers (the engine
/// dying) wakes every armed waiter exactly once, and each ticket then
/// resolves to `EngineShutDown` rather than stranding it.
#[test]
fn mass_completer_drop_unparks_every_waiter() {
    const WAITERS: u64 = 512;
    let (tx, rx) = mpsc::channel();
    let mut futures = Vec::new();
    let mut completers = Vec::new();
    for id in 0..WAITERS {
        let (ticket, completer) = Ticket::detached(id);
        let mut future = ticket.into_future();
        let waker = Waker::from(Arc::new(IdWaker {
            id,
            tx: Mutex::new(tx.clone()),
        }));
        assert!(arm(&mut future, &waker).is_pending());
        futures.push(future);
        completers.push(completer);
    }
    drop(tx);

    std::thread::spawn(move || drop(completers));
    let mut woken = HashSet::new();
    for _ in 0..WAITERS {
        let id = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("shutdown never reached a waiter");
        assert!(woken.insert(id), "waiter {id} woken twice");
    }
    for future in futures {
        assert_eq!(
            future.into_inner().try_wait(),
            Some(Err(WaitError::EngineShutDown))
        );
    }
}
