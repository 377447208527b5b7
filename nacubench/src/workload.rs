//! The workloads: their shape, and their inputs and reference outputs,
//! made from a seed before any timing starts.

use std::time::Instant;

use crate::adapter::{Function, Reference};

/// How requests arrive.
pub enum Load {
    /// Closed loop in process: `threads` load threads, each keeping
    /// `depth` requests in flight.
    Closed { threads: usize, depth: usize },
    /// Open loop over one loopback connection, one frame every
    /// `1 / per_second` seconds whatever the backlog.
    Paced { per_second: f64 },
}

pub struct Workload {
    pub name: &'static str,
    /// Word width of the unit; `None` is the paper's 16-bit Q4.11 unit.
    pub width: Option<u32>,
    pub load: Load,
    /// Distinct requests generated; the load cycles through them.
    pub pool: usize,
    /// Function and operand count of request `i`.
    pub shape: fn(usize) -> (Function, usize),
}

const UNARY: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// 512-operand σ→tanh→exp requests.
fn bulk_shape(i: usize) -> (Function, usize) {
    (UNARY[i % 3], 512)
}

/// 8-operand σ/tanh/exp frames; every 8th is a 16-operand softmax.
fn paced_shape(i: usize) -> (Function, usize) {
    if i % 8 == 7 {
        (Function::Softmax, 16)
    } else {
        (UNARY[(i - i / 8) % 3], 8)
    }
}

/// 64-operand σ/tanh/exp requests; every 4th is a 32-operand softmax.
fn wide_shape(i: usize) -> (Function, usize) {
    if i % 4 == 3 {
        (Function::Softmax, 32)
    } else {
        (UNARY[(i - i / 4) % 3], 64)
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "inproc-bulk",
        width: None,
        load: Load::Closed {
            threads: 2,
            depth: 8,
        },
        pool: 1024,
        shape: bulk_shape,
    },
    Workload {
        name: "tcp-paced",
        width: None,
        load: Load::Paced {
            per_second: 35_000.0,
        },
        pool: 8192,
        shape: paced_shape,
    },
    Workload {
        name: "inproc-wide",
        width: Some(20),
        load: Load::Closed {
            threads: 2,
            depth: 8,
        },
        pool: 2048,
        shape: wide_shape,
    },
];

/// One request of the pool and the reference outputs it must produce.
pub struct Item {
    pub function: Function,
    pub codes: Vec<i32>,
    pub expect: Vec<i32>,
}

/// SplitMix64: small, seedable and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workload's requests for `seed`, with codes drawn uniformly from
/// `lo..=hi`: the same seed gives the same requests.
pub fn generate(workload: &Workload, seed: u64, (lo, hi): (i64, i64)) -> Vec<(Function, Vec<i32>)> {
    // Mix the workload name in, so workloads sharing a seed differ.
    let name_hash = workload
        .name
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
    let mut rng = Rng(seed ^ name_hash);
    let span = (hi - lo + 1) as u64;
    (0..workload.pool)
        .map(|i| {
            let (function, len) = (workload.shape)(i);
            let codes = (0..len)
                .map(|_| (lo + (rng.next() % span) as i64) as i32)
                .collect();
            (function, codes)
        })
        .collect()
}

/// Index of a function in the `[sigmoid, tanh, exp, softmax]` arrays.
pub fn slot(function: Function) -> usize {
    match function {
        Function::Sigmoid => 0,
        Function::Tanh => 1,
        Function::Exp => 2,
        _ => 3,
    }
}

/// Reference outputs from the sequential unit, and the unit's
/// nanoseconds per operand for `[sigmoid, tanh, exp, softmax]`.
pub fn reference(unit: &Reference, inputs: Vec<(Function, Vec<i32>)>) -> (Vec<Item>, [f64; 4]) {
    let mut seconds = [0.0f64; 4];
    let mut ops = [0usize; 4];
    let mut timed = |function: Function, codes: &[i32]| {
        let start = Instant::now();
        let expect = unit.compute(function, codes);
        seconds[slot(function)] += start.elapsed().as_secs_f64();
        ops[slot(function)] += codes.len();
        expect
    };
    let items: Vec<Item> = inputs
        .into_iter()
        .map(|(function, codes)| Item {
            function,
            expect: timed(function, &codes),
            codes,
        })
        .collect();
    // A workload without softmax still times the softmax datapath, over
    // 16-operand vectors of its own codes.
    if !items.iter().any(|i| i.function == Function::Softmax) {
        for vector in items.iter().flat_map(|i| i.codes.chunks(16)).take(256) {
            timed(Function::Softmax, vector);
        }
    }
    let ns = std::array::from_fn(|f| seconds[f] * 1e9 / ops[f].max(1) as f64);
    (items, ns)
}
