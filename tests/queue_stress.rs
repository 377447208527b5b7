//! Stress and property tests for the engine's submit queue: the
//! serving-contract invariants under real multi-producer/multi-consumer
//! contention, plus a model-based property test against a `VecDeque`
//! reference.
//!
//! Wall-time budget: about 0.3 s in the tier-1 debug run. CI's
//! `queue-stress` job also runs the suite with `--release`, where
//! optimised code shrinks the race windows between producers, consumers
//! and `close()`.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use nacu_engine::queue::{BoundedQueue, Coalesce, PushError, NEVER_COALESCE};

/// A traceable work item: `class` drives coalescing, `id` is globally
/// unique so lost/duplicated items are detectable, `seq` is the item's
/// rank within its class for FIFO checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Item {
    id: u64,
    class: u32,
    seq: u64,
}

impl Coalesce for Item {
    fn coalesce_key(&self) -> u32 {
        self.class
    }
}

/// The core MPMC soundness property: with 4 producers and 4 consumers
/// hammering a small queue, every accepted item is popped exactly once —
/// nothing lost, nothing duplicated — and `Full` rejections are honest
/// (the rejected item never appears on the consumer side).
#[test]
fn mpmc_stress_loses_and_duplicates_nothing() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 20_000;
    let queue = Arc::new(BoundedQueue::<Item>::new(32));
    let accepted = Arc::new(AtomicU64::new(0));
    let popped: Arc<Mutex<Vec<Item>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let accepted = Arc::clone(&accepted);
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    let item = Item {
                        id: producer * PER_PRODUCER + i,
                        class: (i % 3) as u32,
                        seq: 0,
                    };
                    // Busy-retry on Full: every item is eventually
                    // accepted, so the accounting below is exact.
                    let mut pending = item;
                    loop {
                        match queue.try_push(pending) {
                            Ok(_) => break,
                            Err(PushError::Full(back)) => {
                                pending = back;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("queue closed mid-test"),
                        }
                    }
                    accepted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let popped = Arc::clone(&popped);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut batch = Vec::new();
                    while queue.pop_batch_into(8, &mut batch) {
                        assert!(!batch.is_empty(), "a true pop carries items");
                        assert!(batch.len() <= 8, "batch cap respected");
                        let class = batch[0].class;
                        assert!(
                            batch.iter().all(|item| item.class == class),
                            "mixed-class batch: {batch:?}"
                        );
                        local.append(&mut batch);
                    }
                    popped.lock().unwrap().append(&mut local);
                })
            })
            .collect();
        // Producers first; close only after every item was accepted so
        // the consumers drain the lot and exit on the closed signal.
        scope.spawn(move || {
            while accepted.load(Ordering::Relaxed) < PRODUCERS * PER_PRODUCER {
                std::thread::yield_now();
            }
            queue.close();
        });
        for consumer in consumers {
            consumer.join().expect("consumer thread");
        }
    });

    let popped = popped.lock().unwrap();
    assert_eq!(popped.len() as u64, PRODUCERS * PER_PRODUCER);
    let unique: HashSet<u64> = popped.iter().map(|item| item.id).collect();
    assert_eq!(
        unique.len() as u64,
        PRODUCERS * PER_PRODUCER,
        "duplicated item ids"
    );
}

/// Backpressure is exact: under concurrent producers the queue never
/// admits more than `capacity` items at once, and a `Full` rejection at
/// a quiet moment means exactly-at-capacity, not a power-of-two artefact.
#[test]
fn busy_fires_exactly_at_capacity_under_contention() {
    const CAPACITY: usize = 5; // deliberately not a power of two
    let queue = Arc::new(BoundedQueue::<Item>::new(CAPACITY));

    // Deterministic part: fill to the brim, observe Full, make room,
    // observe acceptance.
    for i in 0..CAPACITY as u64 {
        let depth = queue
            .try_push(Item {
                id: i,
                class: 0,
                seq: 0,
            })
            .expect("below capacity");
        assert_eq!(depth, i as usize + 1);
    }
    let overflow = Item {
        id: 99,
        class: 0,
        seq: 0,
    };
    assert!(matches!(
        queue.try_push(overflow),
        Err(PushError::Full(item)) if item.id == 99
    ));
    assert_eq!(queue.depth(), CAPACITY);
    assert_eq!(queue.high_water(), CAPACITY);
    let drained = queue.drain();
    assert_eq!(drained.len(), CAPACITY);

    // Contended part: producers race a slow consumer; accepted-minus-
    // popped can never exceed the capacity, which `high_water` records.
    let popped_total = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for producer in 0..4u64 {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    let _ = queue.try_push(Item {
                        id: producer * 5_000 + i,
                        class: 0,
                        seq: 0,
                    });
                    assert!(queue.depth() <= CAPACITY, "depth overshot capacity");
                }
            });
        }
        let consumer = {
            let queue = Arc::clone(&queue);
            let popped_total = Arc::clone(&popped_total);
            scope.spawn(move || {
                let mut batch = Vec::new();
                while queue.pop_batch_into(2, &mut batch) {
                    popped_total.fetch_add(batch.len(), Ordering::Relaxed);
                }
            })
        };
        scope.spawn({
            let queue = Arc::clone(&queue);
            move || {
                std::thread::sleep(Duration::from_millis(50));
                queue.close();
            }
        });
        consumer.join().expect("consumer thread");
    });
    assert!(
        queue.high_water() <= CAPACITY,
        "capacity was never exceeded"
    );
}

/// Close with every consumer parked on the empty queue: all of them wake
/// promptly and report the queue finished — no thread is left sleeping
/// on a condvar nobody will ever signal again.
#[test]
fn close_wakes_every_parked_consumer() {
    let queue = Arc::new(BoundedQueue::<Item>::new(8));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop_batch(4))
        })
        .collect();
    // Give the consumers time to reach the parked state.
    std::thread::sleep(Duration::from_millis(50));
    queue.close();
    for handle in handles {
        assert!(
            handle.join().expect("consumer thread").is_none(),
            "a parked consumer woke with phantom work"
        );
    }
}

/// FIFO within a class: with one producer per class pushing a monotone
/// sequence, a single consumer sees every class's items in order, across
/// batch boundaries, no matter how the classes interleave globally.
#[test]
fn fifo_order_is_preserved_within_each_class() {
    const CLASSES: u32 = 3;
    const PER_CLASS: u64 = 10_000;
    let queue = Arc::new(BoundedQueue::<Item>::new(16));
    let producers_done = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for class in 0..CLASSES {
            let queue = Arc::clone(&queue);
            let producers_done = Arc::clone(&producers_done);
            scope.spawn(move || {
                for seq in 0..PER_CLASS {
                    let mut pending = Item {
                        id: u64::from(class) * PER_CLASS + seq,
                        class,
                        seq,
                    };
                    loop {
                        match queue.try_push(pending) {
                            Ok(_) => break,
                            Err(PushError::Full(back)) => {
                                pending = back;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("closed mid-test"),
                        }
                    }
                }
                producers_done.fetch_add(1, Ordering::Release);
            });
        }
        let consumer = {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                let mut next_seq = [0u64; CLASSES as usize];
                let mut total = 0u64;
                let mut batch = Vec::new();
                while queue.pop_batch_into(8, &mut batch) {
                    for item in batch.drain(..) {
                        assert_eq!(
                            item.seq, next_seq[item.class as usize],
                            "class {} popped out of order",
                            item.class
                        );
                        next_seq[item.class as usize] += 1;
                        total += 1;
                    }
                }
                assert_eq!(total, u64::from(CLASSES) * PER_CLASS);
            })
        };
        scope.spawn({
            let queue = Arc::clone(&queue);
            let producers_done = Arc::clone(&producers_done);
            move || {
                // Close only after every producer has landed its last
                // item; the consumer then drains what is queued and
                // exits on the closed signal.
                while producers_done.load(Ordering::Acquire) < CLASSES as usize {
                    std::thread::yield_now();
                }
                queue.close();
            }
        });
        consumer.join().expect("consumer thread");
    });
}

/// `NEVER_COALESCE` items refuse fusion even under load: every popped
/// batch containing one is a singleton.
#[test]
fn never_coalesce_items_always_pop_alone_under_load() {
    let queue = Arc::new(BoundedQueue::<Item>::new(16));
    std::thread::scope(|scope| {
        let producer = {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    let class = if i % 4 == 0 { NEVER_COALESCE } else { 1 };
                    let mut pending = Item {
                        id: i,
                        class,
                        seq: 0,
                    };
                    loop {
                        match queue.try_push(pending) {
                            Ok(_) => break,
                            Err(PushError::Full(back)) => {
                                pending = back;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("closed mid-test"),
                        }
                    }
                }
                queue.close();
            })
        };
        let consumer = {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                let mut batch = Vec::new();
                while queue.pop_batch_into(8, &mut batch) {
                    if batch.iter().any(|item| item.class == NEVER_COALESCE) {
                        assert_eq!(batch.len(), 1, "NEVER_COALESCE fused: {batch:?}");
                    }
                }
            })
        };
        producer.join().expect("producer thread");
        consumer.join().expect("consumer thread");
    });
}

/// Single-threaded model-based property test: an arbitrary sequence of
/// pushes and batch-pops behaves exactly like a capacity-checked
/// `VecDeque` with the same head-run coalescing rule.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    PopBatch(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4).prop_map(Op::Push),
        Just(Op::Push(NEVER_COALESCE)),
        (1usize..6).prop_map(Op::PopBatch),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Keyed {
    id: u64,
    class: u32,
}

impl Coalesce for Keyed {
    fn coalesce_key(&self) -> u32 {
        self.class
    }
}

proptest! {
    #[test]
    fn queue_matches_a_vecdeque_model(
        capacity in 1usize..12,
        ops in pvec(op_strategy(), 1..120),
    ) {
        let queue = BoundedQueue::<Keyed>::new(capacity);
        let mut model: VecDeque<Keyed> = VecDeque::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Push(class) => {
                    let item = Keyed { id: next_id, class };
                    next_id += 1;
                    match queue.try_push(item) {
                        Ok(depth) => {
                            prop_assert!(model.len() < capacity, "model said Full");
                            model.push_back(item);
                            prop_assert_eq!(depth, model.len());
                        }
                        Err(PushError::Full(back)) => {
                            prop_assert_eq!(model.len(), capacity, "early Full");
                            prop_assert_eq!(back, item);
                        }
                        Err(PushError::Closed(_)) => prop_assert!(false, "never closed"),
                    }
                }
                Op::PopBatch(max) => {
                    // Model: pop the head, then extend with the run of
                    // equal non-NEVER_COALESCE classes, up to `max`.
                    let expected: Vec<Keyed> = match model.pop_front() {
                        None => Vec::new(),
                        Some(first) => {
                            let mut run = vec![first];
                            if first.class != NEVER_COALESCE {
                                while run.len() < max {
                                    match model.front() {
                                        Some(&next) if next.class == first.class => {
                                            run.push(next);
                                            model.pop_front();
                                        }
                                        _ => break,
                                    }
                                }
                            }
                            run
                        }
                    };
                    if expected.is_empty() {
                        // A blocking pop would park; assert emptiness via
                        // the lock-free depth instead.
                        prop_assert_eq!(queue.depth(), 0);
                    } else {
                        let batch = queue.pop_batch(max).expect("items are queued");
                        prop_assert_eq!(batch, expected);
                    }
                }
            }
            prop_assert_eq!(queue.depth(), model.len());
        }
        // Whatever remains drains in FIFO order.
        let rest: Vec<Keyed> = model.into_iter().collect();
        prop_assert_eq!(queue.drain(), rest);
    }
}
