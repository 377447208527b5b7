//! The cost of a healthy engine, pinned: `Engine::new` starts no thread,
//! and a warmed-up `submit` + `wait` allocates nothing beyond the
//! caller's operand buffer (which travels back as the response). A
//! harness engine — any fault plan configured — starts one worker thread
//! per plan.
//!
//! Allocations are counted by a `#[global_allocator]` that bumps a
//! const-initialised thread-local counter (which itself never
//! allocates), so only the calling thread's allocations count. Threads
//! are counted from `/proc/self/task` (Linux only), in a child process
//! running that one test alone. The binary's tests run one at a time
//! behind [`SERIAL`].
//!
//! Wall-time budget: under 0.5 s in the tier-1 run on a 2-vCPU host
//! (test profile, `opt-level = 2`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use nacu::{Function, NacuConfig};
use nacu_engine::{Engine, EngineConfig, FaultTolerance, Request, Response};
use nacu_fixed::Fx;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation (and reallocation)
/// made on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted rather
    // than panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serialises this binary's tests.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `n` operands spread over the format's codes.
fn operands(config: &NacuConfig, n: usize) -> Vec<Fx> {
    let format = config.format;
    let span = format.max_raw() - format.min_raw();
    (0..n as i64)
        .map(|i| {
            let raw = format.min_raw() + span * i / (n as i64 - 1);
            Fx::from_raw(raw, format).expect("code in range")
        })
        .collect()
}

/// Requests served before counting: well past the first shadow sample
/// (one in 256 operands by default), where the thread-local sampling
/// plan grows once, and past every other first-use allocation.
const WARM_UP: usize = 64;
/// Requests counted per (format, function).
const COUNTED: usize = 256;

#[test]
fn healthy_submit_and_wait_allocate_nothing_beyond_the_operands() {
    let _serial = serial();
    for config in [
        NacuConfig::paper_16bit(),
        NacuConfig::for_width(20).expect("Eq. 7 solvable at 20 bits"),
    ] {
        let engine = Engine::new(EngineConfig::new(config)).expect("valid config");
        for function in [Function::Sigmoid, Function::Softmax] {
            let xs = operands(&config, 32);
            for _ in 0..WARM_UP {
                let response = engine
                    .submit(Request::new(function, xs.clone()))
                    .expect("submit")
                    .wait()
                    .expect("served");
                assert_eq!(response.worker, Response::INLINE);
            }
            let mut counted = 0;
            for _ in 0..COUNTED {
                let request = Request::new(function, xs.clone());
                let before = allocations();
                let response = engine.submit(request).expect("submit").wait();
                counted += allocations() - before;
                assert_eq!(response.expect("served").outputs.len(), xs.len());
            }
            assert_eq!(
                counted, 0,
                "{function} at {}: {counted} allocations in {COUNTED} submit + wait",
                config.format
            );
        }
        engine.shutdown();
    }
}

/// Set in the child process that takes the thread census.
#[cfg(target_os = "linux")]
const CENSUS_CHILD: &str = "NACU_THREAD_CENSUS_CHILD";

/// Threads of this process.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The census runs in a child process holding this one test, run alone,
/// so no thread but the engines' own can come or go while it counts.
#[cfg(target_os = "linux")]
#[test]
fn healthy_engines_start_no_thread_and_harnesses_one_per_plan() {
    let _serial = serial();
    if std::env::var_os(CENSUS_CHILD).is_none() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "healthy_engines_start_no_thread_and_harnesses_one_per_plan",
                "--test-threads=1",
            ])
            .env(CENSUS_CHILD, "1")
            .output()
            .expect("run the census child");
        assert!(
            child.status.success(),
            "thread census failed:\n{}{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    let config = NacuConfig::paper_16bit();
    let baseline = threads();
    // Starts an engine and counts the threads that came with it; after
    // it shuts down, waits for its joined threads to leave the census.
    let census = |engine_config: EngineConfig| {
        let engine = Engine::new(engine_config).expect("paper config");
        let started = threads() - baseline;
        let workers = engine.workers();
        engine.shutdown();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while threads() != baseline {
            assert!(
                std::time::Instant::now() < deadline,
                "threads outlived shutdown"
            );
            std::thread::yield_now();
        }
        (started, workers)
    };
    let (started, workers) = census(EngineConfig::new(config));
    assert_eq!(started, 0, "a healthy engine started {started} thread(s)");
    assert_eq!(workers, 0);
    for plans in [1, 3] {
        let (started, workers) = census(
            EngineConfig::new(config)
                .with_workers(plans)
                .with_fault_tolerance(FaultTolerance::clean_harness(plans)),
        );
        assert_eq!(started, plans, "a harness with {plans} plan(s)");
        assert_eq!(workers, plans);
    }
}
