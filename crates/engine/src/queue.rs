//! The bounded submission queue feeding the worker pool: one FIFO of
//! requests behind a `Mutex`, with a `Condvar` for idle workers.
//!
//! The contract the engine serves on:
//!
//! * **Bounded.** [`BoundedQueue::try_push`] never blocks and never grows
//!   the queue past its capacity. Overload surfaces as an explicit
//!   [`PushError::Full`] (the engine's `Busy` backpressure), exactly at
//!   the configured capacity.
//! * **Coalescing pop, FIFO.** [`BoundedQueue::pop_batch`] takes the head
//!   item plus the run of items behind it that share its
//!   [`Coalesce::coalesce_key`], stopping at the first item of another
//!   class. Items leave in submission order.
//! * **Closable.** After [`BoundedQueue::close`] returns, no push lands:
//!   the flag is set under the queue lock, which every push takes. The
//!   quarantine path's close-then-drain therefore answers every stranded
//!   client. Consumers drain what is left, then stop.
//! * **Non-blocking reads.** [`BoundedQueue::depth`] and
//!   [`BoundedQueue::high_water`] are single relaxed loads of atomics the
//!   lock holder writes, so a metrics scrape never waits on a worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// What the lock guards.
struct Inner<T> {
    items: VecDeque<T>,
    /// Consumers blocked in `pop_batch_into`. A push notifies only while
    /// one waits, so a busy pool pays no wake-up per request.
    waiting: usize,
}

/// A bounded, closable MPMC queue with batch-coalescing pop.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// `items.len()`, written under the lock, read without it.
    depth: AtomicUsize,
    /// Deepest the queue has ever been — the backpressure observability
    /// signal ([`crate::metrics::MetricsSnapshot::queue_depth_high_water`]).
    high_water: AtomicUsize,
    /// Written under the lock, so a push that holds it sees the final
    /// value; read without it by [`BoundedQueue::is_closed`].
    closed: AtomicBool,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .field("high_water", &self.high_water())
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                waiting: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
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
        self.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been — also a single relaxed load.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Whether [`BoundedQueue::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// The queue state. No code panics while holding the lock with the
    /// queue half-updated, so a poisoned lock still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Closes the queue: future pushes fail, consumers drain then stop.
    ///
    /// When this returns, the set of items the queue will ever hold is
    /// final — the quarantine path's close-then-drain answers *every*
    /// stranded client.
    pub fn close(&self) {
        let inner = self.lock();
        self.closed.store(true, Ordering::Relaxed);
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Non-blocking push; returns the post-push depth on success.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]. Both return the item to the caller.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.lock();
        if self.is_closed() {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        self.depth.store(depth, Ordering::Relaxed);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        let wake = inner.waiting > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(depth)
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
        let mut inner = self.lock();
        loop {
            if let Some(first) = inner.items.pop_front() {
                let key = first.coalesce_key();
                batch.push(first);
                if key != NEVER_COALESCE {
                    while batch.len() < max_items
                        && inner
                            .items
                            .front()
                            .is_some_and(|next| next.coalesce_key() == key)
                    {
                        batch.extend(inner.items.pop_front());
                    }
                }
                self.depth.store(inner.items.len(), Ordering::Relaxed);
                return true;
            }
            if self.is_closed() {
                return false;
            }
            inner.waiting += 1;
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.waiting -= 1;
        }
    }

    /// Removes and returns every queued item in FIFO order, without
    /// waking consumers. The last healthy-less worker uses this to answer
    /// stranded requests with a terminal error instead of leaving their
    /// tickets hanging.
    #[must_use]
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.lock();
        self.depth.store(0, Ordering::Relaxed);
        inner.items.drain(..).collect()
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
