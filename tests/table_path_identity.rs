//! Bit-identity of both serving paths over every input code, and the
//! rule that decides between them: healthy engines compute on the
//! caller; the pool walks and is the fault harness.
//!
//! A default engine answers every request inside `EngineHandle::submit`,
//! on the calling thread: σ/tanh/exp from the response tables at Q4.11
//! and from the integer kernel at Q4.15, softmax from the kernel at both.
//! It has no queue and no workers, and its answers carry
//! [`Response::INLINE`]. An engine with any fault plan configured — a
//! clean one included — sends every request through the queue to a pool
//! worker walking the checked datapath. Both must reproduce the
//! sequential [`Nacu`] for every code.

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{
    Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, InjectionSite, Request, Response,
    Stage, Ticket,
};
use nacu_fixed::Fx;

const FUNCTIONS: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// Operands per request: large enough to keep the sweep fast, small
/// enough that the pool coalesces several requests per batch.
const CHUNK: usize = 512;

/// Softmax vector lengths of the inline proof.
const SOFTMAX_LENGTHS: [usize; 4] = [1, 16, 32, 64];

/// Which side of the serving rule an engine must answer from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Inside `submit`: resolved on return, worker = [`Response::INLINE`].
    Inline,
    /// A pool worker: worker index < pool size.
    Pool,
}

fn every_code(config: &NacuConfig) -> Vec<Fx> {
    let format = config.format;
    (format.min_raw()..=format.max_raw())
        .map(|raw| Fx::from_raw(raw, format).expect("code in range"))
        .collect()
}

/// `per_length` seeded softmax vectors of each of [`SOFTMAX_LENGTHS`],
/// drawn uniformly from the format's codes (splitmix64 on a fixed seed).
fn seeded_vectors(config: &NacuConfig, per_length: usize) -> Vec<Vec<Fx>> {
    let format = config.format;
    let span = (format.max_raw() - format.min_raw() + 1) as u64;
    let mut state: u64 = 0x5eed_0f5a_f7ad;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    SOFTMAX_LENGTHS
        .iter()
        .flat_map(|&len| std::iter::repeat_n(len, per_length))
        .map(|len| {
            (0..len)
                .map(|_| {
                    let raw = format.min_raw() + (next() % span) as i64;
                    Fx::from_raw(raw, format).expect("code in range")
                })
                .collect()
        })
        .collect()
}

/// A submitted request: answered by the time `submit` returned, or not.
enum Answer {
    Resolved(Response),
    Pending(Ticket),
}

impl Answer {
    fn response(self) -> Response {
        match self {
            Answer::Resolved(response) => response,
            Answer::Pending(ticket) => ticket.wait().expect("served"),
        }
    }
}

/// Submits `request`; an inline engine must hand back a resolved ticket.
fn submit(engine: &Engine, request: Request, path: Path) -> Answer {
    let ticket = engine.submit(request).expect("queue sized for the sweep");
    match path {
        Path::Inline => Answer::Resolved(
            ticket
                .try_wait()
                .expect("a healthy engine resolves the ticket inside submit")
                .expect("served"),
        ),
        Path::Pool => Answer::Pending(ticket),
    }
}

/// Checks that `worker` answered from `path`.
fn assert_path(engine: &Engine, worker: usize, path: Path, what: &str) {
    match path {
        Path::Inline => assert_eq!(worker, Response::INLINE, "{what} left the caller"),
        Path::Pool => assert!(worker < engine.workers(), "{what} skipped the pool"),
    }
}

/// Serves every code of every unary function through `engine` and
/// checks each output against the golden unit and its serving path.
fn sweep(engine: &Engine, golden: &Nacu, codes: &[Fx], path: Path) {
    for function in FUNCTIONS {
        let tickets: Vec<_> = codes
            .chunks(CHUNK)
            .map(|chunk| submit(engine, Request::new(function, chunk.to_vec()), path))
            .collect();
        for (chunk, answer) in codes.chunks(CHUNK).zip(tickets) {
            let response = answer.response();
            let expected: Vec<Fx> = chunk.iter().map(|&x| golden.compute(function, x)).collect();
            assert_eq!(response.outputs, expected, "{function} diverged");
            assert_path(engine, response.worker, path, &function.to_string());
        }
    }
}

/// Serves each vector as one softmax request through `engine`, in waves
/// of at most half the queue so no submit meets `Busy`, and checks each
/// against the golden `Nacu::softmax` and its serving path.
fn softmax_sweep(engine: &Engine, golden: &Nacu, vectors: &[Vec<Fx>], path: Path) {
    for wave in vectors.chunks(512) {
        let tickets: Vec<_> = wave
            .iter()
            .map(|xs| submit(engine, Request::new(Function::Softmax, xs.clone()), path))
            .collect();
        for (xs, answer) in wave.iter().zip(tickets) {
            let response = answer.response();
            assert_eq!(
                response.outputs,
                golden.softmax(xs).expect("valid vector"),
                "softmax diverged ({path:?})"
            );
            assert_path(engine, response.worker, path, "softmax");
        }
    }
}

fn engine(config: EngineConfig) -> Engine {
    Engine::new(config.with_workers(2).with_queue_capacity(1024)).expect("valid config")
}

/// A clean two-worker harness: fault plans on both slots, all empty.
fn clean_harness(config: NacuConfig) -> EngineConfig {
    EngineConfig::new(config).with_fault_tolerance(FaultTolerance::clean_harness(2))
}

/// `(queue-wait samples, end-to-end samples)` the engine has recorded.
fn queue_wait_and_end_to_end(engine: &Engine) -> (u64, u64) {
    let snap = engine.obs_snapshot();
    (
        snap.stage_merged(Stage::QueueWait).count,
        snap.stage_merged(Stage::EndToEnd).count,
    )
}

/// A fault plan on worker slot 1 that the address decoder can never
/// reach (an entry past the ROM), so the slot is fault-planned, and its
/// engine queues, while every answer stays golden.
fn inert_plan(config: &NacuConfig) -> FaultTolerance {
    let past_the_rom = config.lut_entries;
    FaultTolerance {
        plans: vec![
            FaultPlan::new(),
            FaultPlan::single(Fault::stuck_lut(
                InjectionSite::LutBias,
                past_the_rom,
                0,
                true,
            )),
        ],
        ..FaultTolerance::default()
    }
}

/// The inline proof at one width: every σ/tanh/exp code and seeded
/// softmax vectors of every length in [`SOFTMAX_LENGTHS`], through a
/// default engine. Every ticket is resolved when `submit` returns, every
/// answer carries the inline marker, the engine has no workers, nothing
/// ever queued, and every operand was served off the walk.
fn assert_healthy_engine_computes_on_the_caller(config: NacuConfig) {
    let golden = Nacu::new(config).expect("valid config");
    let codes = every_code(&config);
    let engine = engine(EngineConfig::new(config));
    assert_eq!(engine.workers(), 0, "a healthy engine starts no worker");
    sweep(&engine, &golden, &codes, Path::Inline);
    softmax_sweep(&engine, &golden, &seeded_vectors(&config, 64), Path::Inline);
    let (queue_waits, end_to_ends) = queue_wait_and_end_to_end(&engine);
    let m = engine.shutdown();
    assert_eq!(m.queue_depth_high_water, 0, "a healthy engine never queues");
    assert_eq!(queue_waits, 0, "no request waited in a queue");
    assert_eq!(end_to_ends, m.requests_completed, "every request timed");
    assert_eq!(m.fast_path_ops, m.total_ops());
    assert_eq!(
        m.softmax_ops,
        64 * SOFTMAX_LENGTHS.iter().sum::<usize>() as u64
    );
}

#[test]
fn inline_table_path_matches_the_datapath_for_every_code() {
    assert_healthy_engine_computes_on_the_caller(NacuConfig::paper_16bit());
}

/// Past the table budget a healthy engine still computes on the caller,
/// from the integer kernel.
#[test]
fn inline_kernel_path_matches_the_datapath_for_every_q4_15_code() {
    let config = NacuConfig::for_width(20).expect("Eq. 7 solvable at 20 bits");
    assert_eq!(
        (config.format.int_bits(), config.format.frac_bits()),
        (4, 15)
    );
    assert_healthy_engine_computes_on_the_caller(config);
}

#[test]
fn pool_datapath_matches_the_datapath_for_every_code() {
    let config = NacuConfig::paper_16bit();
    let golden = Nacu::new(config).expect("paper config");
    let codes = every_code(&config);
    let engine = engine(clean_harness(config));
    sweep(&engine, &golden, &codes, Path::Pool);
    let (queue_waits, end_to_ends) = queue_wait_and_end_to_end(&engine);
    let m = engine.shutdown();
    assert!(m.queue_depth_high_water > 0);
    assert_eq!(m.fast_path_ops, 0);
    assert_eq!(queue_waits, m.requests_completed, "one queue wait each");
    assert_eq!(end_to_ends, m.requests_completed);
}

/// Softmax on the pool: an engine with an inert fault plan and a clean
/// harness both queue every vector, and their workers walk the datapath. Every code, as 16-element vectors, must match the
/// sequential `Nacu::softmax` either way.
#[test]
fn pool_softmax_matches_the_datapath_for_every_code() {
    const VECTOR: usize = 16;
    let config = NacuConfig::paper_16bit();
    let golden = Nacu::new(config).expect("paper config");
    let codes = every_code(&config);
    let vectors: Vec<Vec<Fx>> = codes.chunks(VECTOR).map(<[Fx]>::to_vec).collect();
    let queueing = [
        EngineConfig::new(config).with_fault_tolerance(inert_plan(&config)),
        clean_harness(config),
    ];
    for config in queueing {
        let engine = engine(config);
        softmax_sweep(&engine, &golden, &vectors, Path::Pool);
        let m = engine.shutdown();
        assert_eq!(m.fast_path_ops, 0, "a pool worker always walks");
        assert_eq!(
            m.faults_detected, 0,
            "the plan is out of the decoder's reach"
        );
    }
}

/// One worker slot with a fault plan keeps the whole engine on the pool,
/// and so do clean plans: every request of all four functions meets the
/// detectors' workers, at the paper's width and at Q4.15.
#[test]
fn an_engine_with_a_fault_plan_serves_through_the_pool() {
    for config in [
        NacuConfig::paper_16bit(),
        NacuConfig::for_width(20).expect("Eq. 7 solvable at 20 bits"),
    ] {
        let golden = Nacu::new(config).expect("valid config");
        // A stuck bit in an entry the probe below never addresses: the
        // plan is armed but stays silent.
        let plan = FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 20, 13, true));
        let queueing = [
            EngineConfig::new(config).with_fault_tolerance(FaultTolerance {
                plans: vec![FaultPlan::new(), plan],
                ..FaultTolerance::default()
            }),
            clean_harness(config),
        ];
        for engine_config in queueing {
            let engine = engine(engine_config);
            let x = Fx::from_f64(0.0, config.format, nacu_fixed::Rounding::Nearest);
            for function in FUNCTIONS.into_iter().chain([Function::Softmax]) {
                let response = engine
                    .submit(Request::new(function, vec![x; 4]))
                    .expect("submit")
                    .wait()
                    .expect("served");
                assert!(
                    response.worker < engine.workers(),
                    "{function} skipped the pool at {}",
                    config.format
                );
                let expected = match function {
                    Function::Softmax => golden.softmax(&[x; 4]).expect("valid vector"),
                    _ => vec![golden.compute(function, x); 4],
                };
                assert_eq!(response.outputs, expected);
            }
            let m = engine.shutdown();
            assert!(m.queue_depth_high_water > 0);
            assert_eq!(m.fast_path_ops, 0, "a pool worker always walks");
        }
    }
}
