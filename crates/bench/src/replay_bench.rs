//! Record/replay experiment: capture a mixed MLP/LSTM/softmax workload
//! into a [`TraceLog`], then drive the recorded trace deterministically
//! against differently configured engines — or a live TCP serving plane
//! — diffing every response bit-for-bit against the recording.
//!
//! [`record_mixed_workload`] runs real `nacu-nn` inference (an MLP
//! classifier and an LSTM memory task, both activated through the
//! engine) plus direct softmax/exp batches from a deterministic LCG, on
//! an engine built with [`EngineConfig::with_recording`], and drains the
//! recorder. [`replay_on_engine`] re-submits the trace with a pipelined
//! in-flight window; [`replay_on_net`] walks it through a `nacu-net`
//! socket. [`observable_bias_lsb_plan`] finds a 1-LSB LUT-bias
//! perturbation the trace can actually see, so the gate can prove the
//! diff catches a real numerical change. The `trace_replay` binary wraps
//! all of this into the CI replay gate.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::thread;

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{
    Counter, DetectorSet, Engine, EngineConfig, EngineHandle, Fault, FaultPlan, FaultTolerance,
    InjectionSite, Request, SubmitError, TraceLog, TraceRecord,
};
use nacu_faults::CheckedNacu;
use nacu_fixed::Fx;
use nacu_net::{NetClient, Status};
use nacu_nn::engine::EngineActivation;
use nacu_nn::tensor::quantize_vec;
use nacu_nn::{data, train, train_lstm};
use nacu_replay::{compare, inter_arrival_gaps, replay_with, ReplayError, ReplayOutcome};

/// Shape of the recorded mixed workload. Every knob is deterministic:
/// the same spec over the same engine configuration records the same
/// trace byte-for-byte (training seeds are fixed, operands come from a
/// seeded LCG, and request ids are assigned in submission order by one
/// client thread).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Samples in the Gaussian-blob dataset the MLP trains and infers on.
    pub mlp_samples: usize,
    /// Sequences in the LSTM memory task.
    pub lstm_sequences: usize,
    /// Steps per LSTM sequence.
    pub lstm_steps: usize,
    /// Direct softmax batches submitted after the NN phases.
    pub softmax_vectors: usize,
    /// Operands per direct softmax batch.
    pub softmax_width: usize,
    /// Direct exp batches.
    pub exp_bursts: usize,
    /// Operands per exp batch.
    pub exp_width: usize,
    /// Seed for datasets, training and the operand LCG.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The committed-golden-trace shape: big enough that every function
    /// appears many times and coalescing happens, small enough to record
    /// in well under a second.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            mlp_samples: 24,
            lstm_sequences: 6,
            lstm_steps: 4,
            softmax_vectors: 8,
            softmax_width: 16,
            exp_bursts: 8,
            exp_width: 12,
            seed: 7,
        }
    }

    /// A minimal shape for unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            mlp_samples: 8,
            lstm_sequences: 3,
            lstm_steps: 3,
            softmax_vectors: 3,
            softmax_width: 6,
            exp_bursts: 3,
            exp_width: 5,
            seed: 7,
        }
    }

    /// Loose upper bound on requests the workload submits, used to size
    /// the recorder so nothing is dropped.
    #[must_use]
    pub fn estimated_requests(&self) -> usize {
        // MLP: per sample, one scalar tanh per hidden unit (8), one
        // scalar sigmoid per output, one softmax. LSTM: per step, four
        // gate activations per hidden unit plus the output tanh.
        let mlp = self.mlp_samples * (8 + 8 + 2);
        let lstm = self.lstm_sequences * self.lstm_steps * 5 * 8;
        let direct = self.softmax_vectors + self.exp_bursts;
        mlp + lstm + direct + 64
    }
}

/// Submits `request`, absorbing transient `Busy` backpressure by
/// yielding and retrying — the recorder keeps a request's slot across
/// engine-level retries, so this never double-records.
fn submit_patiently(handle: &EngineHandle, request: &Request) -> nacu_engine::Ticket {
    loop {
        match handle.submit(request.clone()) {
            Ok(ticket) => return ticket,
            Err(SubmitError::Busy { .. }) => thread::yield_now(),
            Err(e) => panic!("replay workload refused: {e}"),
        }
    }
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants) over raw operand
/// codes, so the direct softmax/exp phases need no `rand` dependency
/// and reproduce bit-for-bit everywhere.
struct CodeLcg {
    state: u64,
}

impl CodeLcg {
    fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        }
    }

    fn next_code(&mut self) -> i16 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        #[allow(clippy::cast_possible_truncation)]
        let bits = (self.state >> 33) as u16;
        bits as i16
    }
}

/// Records the mixed workload on an engine built from `base` with
/// recording enabled, returning the drained trace (sorted by request
/// id).
///
/// # Panics
///
/// Panics if `base.nacu`'s format is too wide for the trace log
/// (recording only engages for ≤ 16-bit formats) or if the engine
/// refuses the workload.
#[must_use]
pub fn record_mixed_workload(spec: WorkloadSpec, base: EngineConfig) -> TraceLog {
    let capacity = spec.estimated_requests() * 2;
    let engine = Engine::new(base.with_recording(capacity)).expect("recording engine");
    let fmt = engine.format();
    let handle = engine.handle();
    let recorder = handle
        .recorder()
        .expect("format fits the trace log, so the recorder exists");

    // Phase 1: MLP classifier, every activation served by the engine.
    let dataset = data::gaussian_blobs(spec.mlp_samples, 3, 5.0, spec.seed);
    let net = train::train_mlp(&dataset, 8, 10, 0.05, 1).quantize(fmt);
    let activation = EngineActivation::new(engine.handle());
    for features in &dataset.features {
        let _class = net.classify(features, &activation);
    }

    // Phase 2: LSTM memory task, gates served by the engine.
    let sequences = train_lstm::memory_task(spec.lstm_sequences, spec.lstm_steps, spec.seed);
    let (cell, _, _) = train_lstm::train_lstm(&sequences, 4, 2, 0.1, 1).quantize(fmt);
    for sequence in &sequences.sequences {
        let quantized: Vec<Vec<Fx>> = sequence.iter().map(|x| quantize_vec(x, fmt)).collect();
        let _state = cell.run(&quantized, &activation);
    }

    // Phase 3: direct softmax and exp batches over LCG operand codes.
    let mut lcg = CodeLcg::new(spec.seed);
    let mut batch = |function: Function, width: usize| {
        let operands: Vec<Fx> = (0..width.max(1))
            .map(|_| Fx::from_raw_saturating(i64::from(lcg.next_code()), fmt))
            .collect();
        let ticket = submit_patiently(&handle, &Request::new(function, operands));
        ticket.wait().expect("direct batch served");
    };
    for _ in 0..spec.softmax_vectors {
        batch(Function::Softmax, spec.softmax_width);
    }
    for _ in 0..spec.exp_bursts {
        batch(Function::Exp, spec.exp_width);
    }

    engine.shutdown();
    let mut log = recorder.take_log();
    // Canonical traces are byte-deterministic: the same spec over the
    // same config must record identical bytes, and submit stamps are
    // wall-clock noise. Strip them — callers that want paced replay
    // record their own stamped trace (see `record_stamped_workload`).
    log.strip_timing();
    log
}

/// Records a small stamped workload — direct softmax/exp batches with
/// real sleeps between submissions — so the submit stamps carry genuine
/// inter-arrival gaps for paced replay. Unlike
/// [`record_mixed_workload`], the result is NOT byte-deterministic: the
/// stamps are wall-clock measurements.
///
/// # Panics
///
/// As [`record_mixed_workload`].
#[must_use]
pub fn record_stamped_workload(
    spec: WorkloadSpec,
    base: EngineConfig,
    gap: std::time::Duration,
) -> TraceLog {
    let capacity = spec.estimated_requests() * 2;
    let engine = Engine::new(base.with_recording(capacity)).expect("recording engine");
    let fmt = engine.format();
    let handle = engine.handle();
    let recorder = handle
        .recorder()
        .expect("format fits the trace log, so the recorder exists");
    let mut lcg = CodeLcg::new(spec.seed);
    let mut batch = |function: Function, width: usize| {
        let operands: Vec<Fx> = (0..width.max(1))
            .map(|_| Fx::from_raw_saturating(i64::from(lcg.next_code()), fmt))
            .collect();
        let ticket = submit_patiently(&handle, &Request::new(function, operands));
        ticket.wait().expect("direct batch served");
        thread::sleep(gap);
    };
    for _ in 0..spec.softmax_vectors {
        batch(Function::Softmax, spec.softmax_width);
    }
    for _ in 0..spec.exp_bursts {
        batch(Function::Exp, spec.exp_width);
    }
    engine.shutdown();
    recorder.take_log()
}

/// Replays `log` against a live engine with up to `window` requests in
/// flight, diffing each response bit-for-bit against the recording.
/// Recorded deadlines are *not* re-applied — replay asks "does this
/// engine compute the same bits", not "is it as fast as the recording".
/// Stops at the first divergence and bumps the engine's
/// `replay_requests_replayed` / `replay_divergences` counters.
///
/// # Errors
///
/// [`ReplayError::Backend`] when the engine refuses or fails a request,
/// [`ReplayError::ShapeMismatch`] when a response has the wrong arity.
pub fn replay_on_engine(
    log: &TraceLog,
    handle: &EngineHandle,
    window: usize,
) -> Result<ReplayOutcome, ReplayError> {
    replay_driver(log, handle, window, None)
}

/// As [`replay_on_engine`], but *paced*: before submitting record `i`,
/// sleeps the recorded inter-arrival gap between records `i−1` and `i`
/// (see [`nacu_replay::inter_arrival_gaps`]), so the replayed load curve
/// follows the recorded one instead of slamming the queue as fast as the
/// in-flight window drains. Timing-stripped traces (all stamps zero)
/// degenerate to ordinary replay; the diff is bit-for-bit either way.
///
/// # Errors
///
/// As [`replay_on_engine`].
pub fn replay_on_engine_paced(
    log: &TraceLog,
    handle: &EngineHandle,
    window: usize,
) -> Result<ReplayOutcome, ReplayError> {
    let gaps = inter_arrival_gaps(log);
    replay_driver(log, handle, window, Some(&gaps))
}

fn replay_driver(
    log: &TraceLog,
    handle: &EngineHandle,
    window: usize,
    gaps: Option<&[std::time::Duration]>,
) -> Result<ReplayOutcome, ReplayError> {
    let window = window.max(1);
    let mut inflight: VecDeque<(usize, nacu_engine::Ticket)> = VecDeque::with_capacity(window);
    let mut outcome = ReplayOutcome {
        records: 0,
        ops: 0,
        divergence: None,
    };
    let mut result = Ok(());

    let settle = |index: usize,
                  ticket: nacu_engine::Ticket,
                  outcome: &mut ReplayOutcome|
     -> Result<Option<nacu_replay::Divergence>, ReplayError> {
        let record = &log.records[index];
        let response = ticket.wait().map_err(|e| ReplayError::Backend {
            index,
            id: record.id,
            message: e.to_string(),
        })?;
        #[allow(clippy::cast_possible_truncation)]
        let got: Vec<i16> = response.outputs.iter().map(|y| y.raw() as i16).collect();
        outcome.records = index + 1;
        outcome.ops += record.operands.len() as u64;
        compare(index, record, &got)
    };

    'drive: for (index, record) in log.records.iter().enumerate() {
        if let Some(gap) = gaps.and_then(|gaps| gaps.get(index)) {
            if !gap.is_zero() {
                thread::sleep(*gap);
            }
        }
        let operands: Vec<Fx> = record
            .operands
            .iter()
            .map(|&code| Fx::from_raw_saturating(i64::from(code), record.format))
            .collect();
        let ticket = submit_patiently(handle, &Request::new(record.function, operands));
        inflight.push_back((index, ticket));
        while inflight.len() >= window {
            let (done, ticket) = inflight.pop_front().expect("non-empty window");
            match settle(done, ticket, &mut outcome) {
                Ok(None) => {}
                Ok(Some(divergence)) => {
                    outcome.divergence = Some(divergence);
                    break 'drive;
                }
                Err(e) => {
                    result = Err(e);
                    break 'drive;
                }
            }
        }
    }
    while let Some((done, ticket)) = inflight.pop_front() {
        if outcome.divergence.is_some() || result.is_err() {
            // Already diverged or failed: drain the window without diffing.
            let _ = ticket.wait();
            continue;
        }
        match settle(done, ticket, &mut outcome) {
            Ok(None) => {}
            Ok(Some(divergence)) => outcome.divergence = Some(divergence),
            Err(e) => result = Err(e),
        }
    }
    result?;

    let metrics = handle.live_metrics();
    metrics.add(Counter::ReplayRequestsReplayed, outcome.records as u64);
    if outcome.divergence.is_some() {
        metrics.add(Counter::ReplayDivergences, 1);
    }
    Ok(outcome)
}

/// Replays `log` through a `nacu-net` serving plane at `addr`, one
/// request at a time, diffing the wire reply codes against the
/// recording. Transient `BUSY` refusals are retried; any other refusal
/// is a backend error.
///
/// # Errors
///
/// [`ReplayError::Backend`] on transport failure or a non-OK reply,
/// [`ReplayError::ShapeMismatch`] on wrong reply arity.
pub fn replay_on_net(log: &TraceLog, addr: SocketAddr) -> Result<ReplayOutcome, ReplayError> {
    let mut client = match NetClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            return Err(ReplayError::Backend {
                index: 0,
                id: log.records.first().map_or(0, |r| r.id),
                message: format!("connect {addr}: {e}"),
            })
        }
    };
    replay_with(log, |record: &TraceRecord| {
        let operands: Vec<Fx> = record
            .operands
            .iter()
            .map(|&code| Fx::from_raw_saturating(i64::from(code), record.format))
            .collect();
        loop {
            let reply = client
                .call(record.function, &operands, 0)
                .map_err(|e| format!("wire call: {e}"))?;
            match reply.status {
                Status::Ok => return Ok(reply.codes),
                Status::Busy => thread::yield_now(),
                status => return Err(format!("wire refusal: {status:?} (code {})", reply.code)),
            }
        }
    })
}

/// Scans the LUT for a 1-LSB bias perturbation the trace can observe:
/// for each entry, flips the stored bias's least-significant bit (via a
/// stuck-at fault on that bit) and recomputes the trace's scalar records
/// on a [`CheckedNacu`] with detectors disarmed. Returns the first plan
/// whose output differs from a recorded response — the gate's proof that
/// the diff catches real numerical change. `None` if the trace exercises
/// no entry observably (practically impossible for a mixed workload).
///
/// # Panics
///
/// Panics if `config` cannot build a datapath.
#[must_use]
pub fn observable_bias_lsb_plan(config: NacuConfig, log: &TraceLog) -> Option<FaultPlan> {
    let golden = Nacu::new(config).expect("golden datapath");
    let coefficients = golden.coefficients();
    for (entry, &(_slope, bias)) in coefficients.iter().enumerate() {
        // Stuck-at the opposite of the current LSB == flip the LSB.
        let fault = Fault::stuck_lut(InjectionSite::LutBias, entry, 0, (bias & 1) == 0);
        let plan = FaultPlan::single(fault);
        let perturbed = CheckedNacu::new(config)
            .expect("perturbed datapath")
            .with_plan(plan.clone())
            .with_detectors(DetectorSet::none());
        for record in &log.records {
            if record.function == Function::Softmax {
                continue;
            }
            for (&code, &want) in record.operands.iter().zip(&record.responses) {
                let x = Fx::from_raw_saturating(i64::from(code), record.format);
                let Ok(y) = perturbed.compute(record.function, x) else {
                    continue;
                };
                #[allow(clippy::cast_possible_truncation)]
                let got = y.raw() as i16;
                if got != want {
                    return Some(plan);
                }
            }
        }
    }
    None
}

/// An engine configuration that *must* fail the replay diff: one worker
/// carrying `plan` (any plan makes the walking harness, so the perturbed
/// datapath actually serves), detectors disarmed so the
/// corrupt outputs escape, and no retries to mask them.
#[must_use]
pub fn perturbed_config(base: EngineConfig, plan: FaultPlan) -> EngineConfig {
    base.with_workers(1).with_fault_tolerance(FaultTolerance {
        max_retries: 0,
        scrub_every_batches: 0,
        detectors: DetectorSet::none(),
        plans: vec![plan],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu_net::ServeNet;

    fn base() -> EngineConfig {
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256)
    }

    #[test]
    fn mixed_workload_records_deterministically_with_all_functions() {
        let spec = WorkloadSpec::tiny();
        let log = record_mixed_workload(spec, base());
        let again = record_mixed_workload(spec, base());
        assert_eq!(log.encode(), again.encode(), "recording is byte-stable");
        for function in [
            Function::Sigmoid,
            Function::Tanh,
            Function::Exp,
            Function::Softmax,
        ] {
            assert!(
                log.records.iter().any(|r| r.function == function),
                "trace exercises {function}"
            );
        }
        assert!(log.total_ops() > 0);
    }

    #[test]
    fn trace_replays_bit_identically_across_configs() {
        let log = record_mixed_workload(WorkloadSpec::tiny(), base());
        for config in [
            base()
                .with_workers(1)
                .with_fault_tolerance(FaultTolerance::clean_harness(1)),
            base(),
        ] {
            let engine = Engine::new(config).expect("replay engine");
            let outcome = replay_on_engine(&log, &engine.handle(), 16).expect("replay runs");
            assert!(outcome.is_bit_identical(), "{:?}", outcome.divergence);
            assert_eq!(outcome.records, log.records.len());
            let snapshot = engine.shutdown();
            assert_eq!(snapshot.replay_requests_replayed, log.records.len() as u64);
            assert_eq!(snapshot.replay_divergences, 0);
        }
    }

    #[test]
    fn trace_replays_bit_identically_over_the_wire() {
        let log = record_mixed_workload(WorkloadSpec::tiny(), base());
        let engine = Engine::new(base()).expect("serving engine");
        let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
        let outcome = replay_on_net(&log, server.addr()).expect("wire replay runs");
        assert!(outcome.is_bit_identical(), "{:?}", outcome.divergence);
        assert_eq!(outcome.records, log.records.len());
        server.shutdown();
        engine.shutdown();
    }

    /// Paced replay honours the recorded gaps (total wall ≥ sum of gaps)
    /// and still diffs bit-identically; a timing-stripped trace paces at
    /// full speed (all gaps zero).
    #[test]
    fn paced_replay_is_bit_identical_and_honours_recorded_gaps() {
        let spec = WorkloadSpec::tiny();
        let gap = std::time::Duration::from_millis(2);
        let log = record_stamped_workload(spec, base(), gap);
        assert!(
            log.records.iter().any(|r| r.submit_micros > 0),
            "stamped recording carries submit stamps"
        );
        let gaps = inter_arrival_gaps(&log);
        let budget: std::time::Duration = gaps.iter().sum();
        assert!(budget >= gap, "recorded gaps reflect the real sleeps");

        let engine = Engine::new(base()).expect("replay engine");
        let start = std::time::Instant::now();
        let outcome = replay_on_engine_paced(&log, &engine.handle(), 4).expect("paced replay runs");
        let elapsed = start.elapsed();
        assert!(outcome.is_bit_identical(), "{:?}", outcome.divergence);
        assert_eq!(outcome.records, log.records.len());
        assert!(
            elapsed >= budget,
            "paced replay must spend at least the recorded gaps ({elapsed:?} < {budget:?})"
        );
        engine.shutdown();

        // A canonical (stripped) trace degenerates to ordinary replay.
        let stripped = record_mixed_workload(spec, base());
        assert!(stripped.records.iter().all(|r| r.submit_micros == 0));
        let engine = Engine::new(base()).expect("replay engine");
        let outcome =
            replay_on_engine_paced(&stripped, &engine.handle(), 16).expect("paced replay runs");
        assert!(outcome.is_bit_identical(), "{:?}", outcome.divergence);
        engine.shutdown();
    }

    #[test]
    fn perturbed_engine_fails_the_diff() {
        let log = record_mixed_workload(WorkloadSpec::tiny(), base());
        let plan = observable_bias_lsb_plan(NacuConfig::paper_16bit(), &log)
            .expect("a 1-LSB bias flip the trace observes");
        let engine = Engine::new(perturbed_config(base(), plan)).expect("perturbed engine");
        let outcome = replay_on_engine(&log, &engine.handle(), 16).expect("replay runs");
        let divergence = outcome.divergence.expect("perturbation must diverge");
        let record = &log.records[divergence.index];
        assert_eq!(record.id, divergence.id);
        let report = nacu_replay::render_report(&divergence, record);
        assert!(report.contains("FIRST DIVERGENCE"));
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.replay_divergences, 1);
    }
}
