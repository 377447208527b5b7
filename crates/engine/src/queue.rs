//! The bounded submission queue feeding the worker pool — a lock-free
//! Vyukov-style MPMC ring with parked-thread wakeups.
//!
//! The previous implementation was a `Mutex<VecDeque>` + `Condvar`; every
//! submit, every pop and even every `depth()` read from the metrics
//! scraper contended on one lock. This rewrite keeps the engine's serving
//! contract and removes the lock from every hot path:
//!
//! * **Bounded.** [`BoundedQueue::try_push`] never blocks and never grows
//!   the queue past its capacity — overload surfaces as an explicit
//!   [`PushError::Full`] (the engine's `Busy` backpressure), enforced
//!   *exactly* at capacity by a CAS-reserved occupancy count even though
//!   the ring itself is sized to the next power of two.
//! * **Coalescing pop.** [`BoundedQueue::pop_batch`] claims a *run* of
//!   compatible items. Compatibility is a per-item [`Coalesce::coalesce_key`]
//!   stored in the slot next to the payload, so a consumer can peek the
//!   next item's class **before** claiming it — the lock-free equivalent
//!   of peeking `VecDeque::front` under the old mutex. FIFO order is
//!   preserved: items are only ever claimed at the head, in submission
//!   order.
//! * **Closable.** [`BoundedQueue::close`] stops new pushes, waits out
//!   the handful of in-flight ones (so "no push lands after `close()`
//!   returns" still holds — the quarantine path's close-then-drain
//!   depends on it), and wakes every parked consumer to drain and exit.
//! * **Lock-free observability.** [`BoundedQueue::depth`] and
//!   [`BoundedQueue::high_water`] are single relaxed atomic loads; the
//!   metrics scraper can never block a worker again.
//!
//! Blocking consumers park on a `Condvar` **only when the ring is empty**;
//! producers skip the wakeup entirely unless a consumer has registered
//! itself as sleeping (a Dekker-style `SeqCst` handshake on `sleepers`
//! prevents the lost-wakeup race). The ring protocol itself is the one
//! proven in `nacu_obs::TraceRing`: every slot carries a sequence word
//! that hands it back and forth between producers and consumers.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Coalesce-key value that never matches — items carrying it (and batches
/// opened by them) refuse all fusion, even with their own kind. Softmax
/// uses this: it is a two-pass vector op with internal divider state.
pub const NEVER_COALESCE: u32 = u32::MAX;

/// The queue's fusion rule: items whose keys are equal (and not
/// [`NEVER_COALESCE`]) may ride in one popped batch.
pub trait Coalesce {
    /// The item's batch class. Equal keys fuse; [`NEVER_COALESCE`] never
    /// fuses.
    fn coalesce_key(&self) -> u32;
}

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct Slot<T> {
    /// Vyukov hand-off word: `pos` = free for the producer claiming
    /// `pos`, `pos + 1` = holds the item enqueued at `pos`,
    /// `pos + ring_size` = consumed, free for the next lap's producer.
    seq: AtomicUsize,
    /// The occupant's [`Coalesce::coalesce_key`], written before the
    /// `seq` release store so any consumer that acquires `seq` may read
    /// it without claiming the slot.
    key: AtomicU32,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Sleep-path state: consumers park here when the ring is empty.
struct Parking {
    lock: Mutex<()>,
    not_empty: Condvar,
    /// Consumers registered as (about to be) sleeping. Producers elide
    /// the mutex + notify entirely while this is zero — the steady-state
    /// serving path never touches the lock.
    sleepers: AtomicUsize,
}

/// A bounded, closable MPMC queue with batch-coalescing pop.
pub struct BoundedQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    /// Logical capacity (what `try_push` enforces); ≤ ring size.
    capacity: usize,
    /// Occupancy: reserved by producers before the ring write, released
    /// by consumers after the slot is fully recycled. Enforces `Full`
    /// exactly at `capacity` and doubles as the lock-free `depth()`.
    count: AtomicUsize,
    /// Deepest the queue has ever been — the backpressure observability
    /// signal ([`crate::metrics::MetricsSnapshot::queue_depth_high_water`]).
    high_water: AtomicUsize,
    closed: AtomicBool,
    /// Producers currently between their closed-check and their ring
    /// write. [`BoundedQueue::close`] waits for this to reach zero so the
    /// close-then-drain sequence observes every push that was admitted.
    in_flight: AtomicUsize,
    parking: Parking,
}

// SAFETY: slot contents are only touched by the thread that owns the slot
// per the Vyukov sequence protocol — a producer writes only after winning
// the CAS on `enqueue_pos` while `seq == pos`, a consumer reads only after
// winning the CAS on `dequeue_pos` while `seq == pos + 1`, and the
// release/acquire pairs on `seq` order the data accesses.
unsafe impl<T: Send> Send for BoundedQueue<T> {}
unsafe impl<T: Send> Sync for BoundedQueue<T> {}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .field("high_water", &self.high_water())
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let ring = capacity.next_power_of_two();
        let slots: Vec<Slot<T>> = (0..ring)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                key: AtomicU32::new(0),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: ring - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            capacity,
            count: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            parking: Parking {
                lock: Mutex::new(()),
                not_empty: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth — one relaxed load, safe to call from any scrape or
    /// metrics path without blocking a worker (racy by nature).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been — also a single relaxed load.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Whether [`BoundedQueue::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the queue: future pushes fail, consumers drain then stop.
    ///
    /// Waits out pushes already past their closed-check, so when this
    /// returns, the set of items the queue will ever hold is final — the
    /// quarantine path's close-then-drain answers *every* stranded client.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        while self.in_flight.load(Ordering::Acquire) > 0 {
            std::hint::spin_loop();
        }
        // Take the parking lock before notifying: a consumer between its
        // sleeper registration and its `wait` holds the lock, so this
        // notify cannot slip into that window and get lost.
        drop(self.parking.lock.lock().expect("parking lock"));
        self.parking.not_empty.notify_all();
    }

    /// Non-blocking push; returns the post-push depth on success.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]. Both return the item to the caller.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>>
    where
        T: Coalesce,
    {
        // Register as in-flight BEFORE the closed-check: `close()` spins
        // on this counter, so a push that passes the check is guaranteed
        // to land (or bail) before `close()` returns.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.in_flight.fetch_sub(1, Ordering::Release);
            return Err(PushError::Closed(item));
        }
        // Reserve occupancy: `Full` exactly at the configured capacity,
        // independent of the power-of-two ring size.
        let mut count = self.count.load(Ordering::Relaxed);
        loop {
            if count >= self.capacity {
                self.in_flight.fetch_sub(1, Ordering::Release);
                return Err(PushError::Full(item));
            }
            match self.count.compare_exchange_weak(
                count,
                count + 1,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => count = actual,
            }
        }
        let depth = count + 1;
        self.enqueue(item);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Release);
        self.wake_consumer();
        Ok(depth)
    }

    /// Ring enqueue of an item whose occupancy is already reserved. The
    /// reservation guarantees a free slot *logically*; the claimed slot
    /// may still be mid-recycle by a consumer that won its dequeue CAS
    /// but has not stored `seq` yet, so the not-ready case spins (the
    /// consumer is a few instructions from finishing) instead of failing.
    fn enqueue(&self, item: T)
    where
        T: Coalesce,
    {
        let key = item.coalesce_key();
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
                        unsafe { (*slot.value.get()).write(item) };
                        slot.key.store(key, Ordering::Relaxed);
                        slot.seq.store(pos + 1, Ordering::Release);
                        return;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Reserved but the slot's previous occupant is still
                // being recycled — imminent, spin.
                std::hint::spin_loop();
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Claims the head item if one is ready and (when `want` is given)
    /// its key matches. Returns `None` when the ring is empty, the head
    /// is mid-write, or the head's class is incompatible.
    fn try_pop_where(&self, want: Option<u32>) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                if let Some(k) = want {
                    // The acquire on `seq` ordered the producer's key
                    // store; a relaxed read sees the occupant's key. The
                    // subsequent dequeue CAS only succeeds if the head is
                    // still this occupant, so the peek cannot go stale.
                    let key = slot.key.load(Ordering::Relaxed);
                    if key != k || key == NEVER_COALESCE {
                        return None;
                    }
                }
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
                        let item = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        self.count.fetch_sub(1, Ordering::SeqCst);
                        return Some(item);
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

    /// Blocks until at least one item is available (or the queue closes),
    /// then pops the head item plus up to `max_items − 1` further items
    /// of the same [`Coalesce::coalesce_key`] class, stopping at the
    /// first incompatible one so FIFO order is preserved across batches.
    ///
    /// Returns `None` only when the queue is closed *and* drained.
    pub fn pop_batch(&self, max_items: usize) -> Option<Vec<T>>
    where
        T: Coalesce,
    {
        let mut batch = Vec::new();
        self.pop_batch_into(max_items, &mut batch).then_some(batch)
    }

    /// Allocation-reusing [`BoundedQueue::pop_batch`]: clears `batch` and
    /// fills it in place, so a worker looping on one scratch `Vec` pops
    /// every batch without a heap allocation. Returns `false` only when
    /// the queue is closed and drained.
    pub fn pop_batch_into(&self, max_items: usize, batch: &mut Vec<T>) -> bool
    where
        T: Coalesce,
    {
        batch.clear();
        let max_items = max_items.max(1);
        loop {
            if let Some(first) = self.try_pop_where(None) {
                let key = first.coalesce_key();
                batch.push(first);
                if key != NEVER_COALESCE {
                    while batch.len() < max_items {
                        match self.try_pop_where(Some(key)) {
                            Some(item) => batch.push(item),
                            None => break,
                        }
                    }
                }
                return true;
            }
            if self.closed.load(Ordering::SeqCst) {
                // Closed: wait out in-flight pushes (each either lands or
                // bails), then one final claim settles drained-vs-racing.
                while self.in_flight.load(Ordering::Acquire) > 0 {
                    std::hint::spin_loop();
                }
                match self.try_pop_where(None) {
                    Some(first) => {
                        batch.push(first);
                        return true;
                    }
                    None => {
                        if self.count.load(Ordering::SeqCst) == 0 {
                            return false;
                        }
                        // Items exist but another consumer holds the head
                        // mid-claim; yield and retry.
                        std::thread::yield_now();
                        continue;
                    }
                }
            }
            if self.count.load(Ordering::SeqCst) > 0 {
                // An item is reserved but its producer has not finished
                // the ring write (or a peer consumer is mid-claim) —
                // imminent either way, don't pay the parking lock.
                std::hint::spin_loop();
                continue;
            }
            self.park();
        }
    }

    /// Parks the calling consumer until a producer (or `close()`) wakes
    /// it. Spurious returns are fine — the pop loop re-checks everything.
    fn park(&self) {
        let guard = self.parking.lock.lock().expect("parking lock");
        self.parking.sleepers.fetch_add(1, Ordering::SeqCst);
        // Dekker handshake, consumer side: the `SeqCst` sleeper increment
        // above and this `SeqCst` re-check order against the producer's
        // `SeqCst` count-increment + sleeper-load, so at least one side
        // always sees the other — no lost wakeup.
        if self.count.load(Ordering::SeqCst) > 0 || self.closed.load(Ordering::SeqCst) {
            self.parking.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _guard = self
            .parking
            .not_empty
            .wait(guard)
            .expect("parking lock poisoned");
        self.parking.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Producer-side wakeup after a successful push: free while nobody
    /// sleeps, one mutex + notify when a consumer is parked.
    fn wake_consumer(&self) {
        // Dekker handshake, producer side (see `park`).
        fence(Ordering::SeqCst);
        if self.parking.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.parking.lock.lock().expect("parking lock"));
            self.parking.not_empty.notify_one();
        }
    }

    /// Removes and returns every queued item in FIFO order, without
    /// waking consumers. The last healthy-less worker uses this to answer
    /// stranded requests with a terminal error instead of leaving their
    /// tickets hanging.
    #[must_use]
    pub fn drain(&self) -> Vec<T> {
        let mut items = Vec::new();
        loop {
            match self.try_pop_where(None) {
                Some(item) => items.push(item),
                None => {
                    // Distinguish "empty" from "head mid-write by an
                    // in-flight producer": only return once both the
                    // occupancy and the in-flight counts agree we got
                    // everything that will ever be here.
                    if self.count.load(Ordering::SeqCst) == 0
                        && self.in_flight.load(Ordering::Acquire) == 0
                    {
                        return items;
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }
}

impl<T> Drop for BoundedQueue<T> {
    fn drop(&mut self) {
        // Drop undrained occupants: slots whose `seq` marks them as
        // holding an item enqueued at their position.
        let mut pos = *self.dequeue_pos.get_mut();
        let end = *self.enqueue_pos.get_mut();
        while pos < end {
            let slot = &mut self.slots[pos & self.mask];
            if *slot.seq.get_mut() == pos + 1 {
                // SAFETY: `&mut self` means no concurrent access; the
                // sequence word says the slot holds an initialised item.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Plain integers coalesce by value (the old closure `|a, b| a == b`).
    impl Coalesce for u32 {
        fn coalesce_key(&self) -> u32 {
            *self
        }
    }

    #[test]
    fn push_beyond_capacity_is_refused_not_grown() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn capacity_is_exact_even_when_not_a_power_of_two() {
        let q = BoundedQueue::new(5);
        assert_eq!(q.capacity(), 5);
        for v in 0..5 {
            q.try_push(v).unwrap();
        }
        assert!(matches!(q.try_push(9), Err(PushError::Full(9))));
        assert_eq!(q.pop_batch(1).unwrap(), vec![0]);
        assert_eq!(q.try_push(9).unwrap(), 5);
    }

    #[test]
    fn pop_batch_coalesces_compatible_run_only() {
        let q = BoundedQueue::new(8);
        for v in [1, 1, 1, 2, 1] {
            q.try_push(v).unwrap();
        }
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch, vec![1, 1, 1]);
        // The run stops at the 2; the trailing 1 stays behind it (FIFO).
        assert_eq!(q.pop_batch(8).unwrap(), vec![2]);
        assert_eq!(q.pop_batch(8).unwrap(), vec![1]);
    }

    #[test]
    fn never_coalesce_items_pop_alone() {
        let q = BoundedQueue::new(8);
        for v in [NEVER_COALESCE, NEVER_COALESCE, 7, 7] {
            q.try_push(v).unwrap();
        }
        assert_eq!(q.pop_batch(8).unwrap(), vec![NEVER_COALESCE]);
        assert_eq!(q.pop_batch(8).unwrap(), vec![NEVER_COALESCE]);
        assert_eq!(q.pop_batch(8).unwrap(), vec![7, 7]);
    }

    #[test]
    fn pop_batch_respects_max_items() {
        let q = BoundedQueue::new(8);
        for _ in 0..5 {
            q.try_push(7).unwrap();
        }
        assert_eq!(q.pop_batch(3).unwrap().len(), 3);
        assert_eq!(q.pop_batch(3).unwrap().len(), 2);
    }

    #[test]
    fn pop_batch_into_reuses_the_scratch_buffer() {
        let q = BoundedQueue::new(8);
        let mut scratch: Vec<u32> = Vec::with_capacity(8);
        let base_capacity = scratch.capacity();
        for round in 0..3u32 {
            for _ in 0..4 {
                q.try_push(round).unwrap();
            }
            assert!(q.pop_batch_into(8, &mut scratch));
            assert_eq!(scratch, vec![round; 4]);
            assert_eq!(scratch.capacity(), base_capacity, "no realloc");
        }
    }

    #[test]
    fn close_drains_then_signals_none() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop_batch(4).unwrap(), vec![1]);
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn drain_empties_in_fifo_order_and_leaves_queue_usable() {
        let q = BoundedQueue::new(4);
        for v in [1, 2, 3] {
            q.try_push(v).unwrap();
        }
        assert_eq!(q.drain(), vec![1, 2, 3]);
        assert_eq!(q.depth(), 0);
        // Not closed by draining: pushes still work.
        assert_eq!(q.try_push(9).unwrap(), 1);
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn undrained_items_are_dropped_with_the_queue() {
        #[derive(Debug)]
        struct Tracked(Arc<AtomicUsize>);
        impl Coalesce for Tracked {
            fn coalesce_key(&self) -> u32 {
                0
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q = BoundedQueue::new(4);
            for _ in 0..3 {
                q.try_push(Tracked(Arc::clone(&drops)))
                    .map_err(|_| ())
                    .unwrap();
            }
            let one = q.pop_batch(1).unwrap();
            drop(one);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 3, "queue drop cleans up");
    }
}
