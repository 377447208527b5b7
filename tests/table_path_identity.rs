//! Bit-identity of both serving paths over every Q4.11 input code.
//!
//! A default engine answers table-backed σ/tanh/exp inside
//! `EngineHandle::submit`, on the calling thread; with the fast path off
//! the same requests travel through the queue to a pool worker walking
//! the datapath. Both must reproduce the sequential [`Nacu`] for every
//! code of the paper's 16-bit format. Engines carrying a fault plan must
//! keep using the pool, whose workers run the detectors.

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, InjectionSite, Request};
use nacu_fixed::Fx;

const FUNCTIONS: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// Operands per request: large enough to keep the sweep fast, small
/// enough that the pool coalesces several requests per batch.
const CHUNK: usize = 512;

fn every_code(config: &NacuConfig) -> Vec<Fx> {
    let format = config.format;
    (format.min_raw()..=format.max_raw())
        .map(|raw| Fx::from_raw(raw, format).expect("code in range"))
        .collect()
}

/// Serves every code of every unary function through `engine` and
/// checks each output against the golden unit; returns the worker
/// indices that answered.
fn sweep(engine: &Engine, golden: &Nacu, codes: &[Fx]) -> Vec<usize> {
    let handle = engine.handle();
    let mut workers = Vec::new();
    for function in FUNCTIONS {
        let tickets: Vec<_> = codes
            .chunks(CHUNK)
            .map(|chunk| {
                handle
                    .submit(Request::new(function, chunk.to_vec()))
                    .expect("queue sized for the whole sweep")
            })
            .collect();
        for (chunk, ticket) in codes.chunks(CHUNK).zip(tickets) {
            let response = ticket.wait().expect("served");
            let expected: Vec<Fx> = chunk.iter().map(|&x| golden.compute(function, x)).collect();
            assert_eq!(response.outputs, expected, "{function} diverged");
            workers.push(response.worker);
        }
    }
    workers
}

fn engine(config: EngineConfig) -> Engine {
    Engine::new(config.with_workers(2).with_queue_capacity(1024)).expect("paper config")
}

#[test]
fn inline_table_path_matches_the_datapath_for_every_code() {
    let config = NacuConfig::paper_16bit();
    let golden = Nacu::new(config).expect("paper config");
    let codes = every_code(&config);
    let engine = engine(EngineConfig::new(config));
    let workers = sweep(&engine, &golden, &codes);
    // Answered on the submitting thread: the inline worker index is the
    // pool size, and nothing ever entered the queue.
    assert!(workers.iter().all(|&w| w == engine.workers()));
    let m = engine.shutdown();
    assert_eq!(m.queue_depth_high_water, 0);
    assert_eq!(m.fast_path_ops, 3 * codes.len() as u64);
}

#[test]
fn pool_datapath_matches_the_datapath_for_every_code() {
    let config = NacuConfig::paper_16bit();
    let golden = Nacu::new(config).expect("paper config");
    let codes = every_code(&config);
    let engine = engine(EngineConfig::new(config).with_fast_path(false));
    let workers = sweep(&engine, &golden, &codes);
    assert!(workers.iter().all(|&w| w < engine.workers()));
    let m = engine.shutdown();
    assert!(m.queue_depth_high_water > 0);
    assert_eq!(m.fast_path_ops, 0);
}

/// One worker slot with a fault plan keeps the whole engine on the pool,
/// fast path on or not, so every request meets the detectors' workers.
#[test]
fn an_engine_with_a_fault_plan_serves_through_the_pool() {
    let config = NacuConfig::paper_16bit();
    let golden = Nacu::new(config).expect("paper config");
    // A stuck bit in an entry the probe below never addresses: the plan
    // is armed but stays silent.
    let plan = FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 20, 13, true));
    let engine = engine(
        EngineConfig::new(config).with_fault_tolerance(FaultTolerance {
            plans: vec![FaultPlan::new(), plan],
            ..FaultTolerance::default()
        }),
    );
    let x = Fx::from_f64(0.0, config.format, nacu_fixed::Rounding::Nearest);
    for function in FUNCTIONS {
        let response = engine
            .submit(Request::new(function, vec![x; 4]))
            .expect("submit")
            .wait()
            .expect("served");
        assert!(
            response.worker < engine.workers(),
            "{function} skipped the pool"
        );
        assert_eq!(response.outputs, vec![golden.compute(function, x); 4]);
    }
    assert!(engine.shutdown().queue_depth_high_water > 0);
}
