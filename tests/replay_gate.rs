//! Integration gate for the record/replay harness: the committed golden
//! trace must decode and replay bit-identically on freshly built engines
//! — a clean walking harness and a healthy inline engine — recording must be
//! deterministic, a deliberately perturbed datapath must fail the diff,
//! and the recorder ring must drop-count instead of blocking when full.

use nacu::{Function, NacuConfig};
use nacu_bench::replay_bench::{
    observable_bias_lsb_plan, perturbed_config, record_mixed_workload, record_stamped_workload,
    replay_on_engine, replay_on_engine_paced, WorkloadSpec,
};
use nacu_engine::{Engine, EngineConfig, FaultTolerance, Request, TraceLog};
use nacu_fixed::{Fx, Rounding};

fn base() -> EngineConfig {
    EngineConfig::new(NacuConfig::paper_16bit())
        .with_workers(2)
        .with_queue_capacity(256)
}

fn golden() -> TraceLog {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/REPLAY_golden.trace");
    let bytes = std::fs::read(path).expect("committed golden trace exists");
    TraceLog::decode(&bytes, 1 << 16).expect("committed golden trace decodes")
}

#[test]
fn golden_trace_replays_bit_identically_across_engine_configs() {
    let log = golden();
    assert!(!log.records.is_empty());
    for function in [
        Function::Sigmoid,
        Function::Tanh,
        Function::Exp,
        Function::Softmax,
    ] {
        assert!(
            log.records.iter().any(|r| r.function == function),
            "golden trace exercises {function}"
        );
    }
    for config in [
        base()
            .with_workers(1)
            .with_fault_tolerance(FaultTolerance::clean_harness(1)),
        base(),
    ] {
        let engine = Engine::new(config).expect("replay engine");
        let outcome = replay_on_engine(&log, &engine.handle(), 64).expect("replay runs");
        assert!(
            outcome.is_bit_identical(),
            "golden trace diverged: {:?}",
            outcome.divergence
        );
        assert_eq!(outcome.records, log.records.len());
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.replay_requests_replayed, log.records.len() as u64);
        assert_eq!(snapshot.replay_divergences, 0);
    }
}

#[test]
fn recording_the_same_workload_twice_is_byte_identical() {
    let spec = WorkloadSpec::tiny();
    let first = record_mixed_workload(spec, base());
    let second = record_mixed_workload(spec, base());
    assert_eq!(first.encode(), second.encode());
}

/// Paced replay must stay bit-identical in both regimes: against the
/// committed golden (timing-stripped, so pacing degenerates to an
/// ordinary replay) and against a freshly recorded stamped trace, where
/// the recorded inter-arrival gaps stretch the replay's wall clock.
#[test]
fn paced_replay_stays_bit_identical_with_and_without_stamps() {
    let log = golden();
    assert!(
        log.records.iter().all(|r| r.submit_micros == 0),
        "the committed golden must be timing-stripped"
    );
    let engine = Engine::new(base()).expect("replay engine");
    let outcome = replay_on_engine_paced(&log, &engine.handle(), 64).expect("paced replay runs");
    assert!(outcome.is_bit_identical(), "{:?}", outcome.divergence);
    assert_eq!(outcome.records, log.records.len());
    engine.shutdown();

    let gap = std::time::Duration::from_millis(2);
    let stamped = record_stamped_workload(WorkloadSpec::tiny(), base(), gap);
    assert!(stamped.records.iter().skip(1).any(|r| r.submit_micros > 0));
    let engine = Engine::new(base()).expect("replay engine");
    let started = std::time::Instant::now();
    let outcome =
        replay_on_engine_paced(&stamped, &engine.handle(), 64).expect("paced replay runs");
    let elapsed = started.elapsed();
    assert!(outcome.is_bit_identical(), "{:?}", outcome.divergence);
    // n records leave n-1 recorded gaps of ≥ `gap` each to re-apply.
    let budget = gap * (stamped.records.len() as u32 - 1);
    assert!(
        elapsed >= budget,
        "paced replay finished in {elapsed:?}, under the {budget:?} of recorded gaps"
    );
    engine.shutdown();
}

#[test]
fn perturbed_datapath_fails_the_golden_diff() {
    let log = golden();
    let plan = observable_bias_lsb_plan(NacuConfig::paper_16bit(), &log)
        .expect("a 1-LSB LUT-bias flip the golden trace observes");
    let engine = Engine::new(perturbed_config(base(), plan)).expect("perturbed engine");
    let outcome = replay_on_engine(&log, &engine.handle(), 64).expect("replay runs");
    let divergence = outcome.divergence.expect("1-LSB perturbation must diverge");
    assert_eq!(log.records[divergence.index].id, divergence.id);
    let snapshot = engine.shutdown();
    assert_eq!(snapshot.replay_divergences, 1);
}

#[test]
fn full_recorder_ring_drops_newest_and_counts_instead_of_blocking() {
    let engine = Engine::new(base().with_recording(1)).expect("recording engine");
    let fmt = engine.format();
    let handle = engine.handle();
    let x = Fx::from_f64(0.5, fmt, Rounding::Nearest);
    for _ in 0..3 {
        handle
            .submit_wait(Request::new(Function::Sigmoid, vec![x]))
            .expect("served");
    }
    let recorder = handle.recorder().expect("recorder present");
    let snapshot = engine.shutdown();
    assert_eq!(snapshot.replay_records_captured, 1);
    assert_eq!(snapshot.replay_records_dropped, 2);
    let log = recorder.take_log();
    assert_eq!(log.records.len(), 1);
    assert_eq!(log.records[0].responses.len(), 1);
}
