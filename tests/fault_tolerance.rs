//! Cross-crate fault-tolerance acceptance tests: the campaign's coverage
//! guarantees and the engine's graceful degradation, exercised through
//! the public APIs exactly as a deployment would compose them.

use nacu::{Function, Nacu, NacuConfig};
use nacu_bench::fault_campaign::{self, CampaignConfig, Outcome};
use nacu_engine::{Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, InjectionSite};
use nacu_faults::FaultKind;
use nacu_fixed::{Fx, Rounding};
use nacu_nn::engine::EngineActivation;

fn campaign() -> CampaignConfig {
    // Every LUT entry at four bit positions, stuck-at both ways: enough
    // to exercise a large slice of the table against a real workload
    // while staying test-sized.
    CampaignConfig {
        bit_stride: 8,
        entry_stride: 1,
        operands_per_trial: 24,
        functions: vec![Function::Sigmoid],
        kinds: vec![FaultKind::StuckAt0, FaultKind::StuckAt1],
        ..CampaignConfig::full()
    }
}

/// The headline acceptance criterion: at least 99% of effective
/// single-bit LUT faults are caught by parity (measured: 100%).
#[test]
fn campaign_meets_the_lut_coverage_gate() {
    let report = fault_campaign::run(&campaign());
    assert!(
        report.lut_coverage() >= 0.99,
        "single-bit LUT coverage {:.4} below the 99% gate",
        report.lut_coverage()
    );
    let parity_hits = report
        .detector_hits
        .iter()
        .find(|(label, _)| *label == "lut_parity")
        .map_or(0, |&(_, n)| n);
    assert!(parity_hits > 0, "the gate must not pass vacuously");
}

/// The fault model's observable output is pinned: the smoke campaign's
/// JSON record is deterministic (no timing fields) and must match the
/// committed `ci/CAMPAIGN_smoke.json` byte for byte. Regenerate it with
/// `fault_campaign --smoke --out ci/CAMPAIGN_smoke.json` only for a
/// deliberate change to an injection site, a detector or the workload.
#[test]
fn smoke_campaign_json_matches_the_committed_golden() {
    let json = fault_campaign::to_json(&fault_campaign::run(&CampaignConfig::smoke()));
    assert!(
        json == include_str!("../ci/CAMPAIGN_smoke.json"),
        "the smoke campaign drifted from ci/CAMPAIGN_smoke.json"
    );
}

/// The second half of the criterion: every injected-and-undetected fault
/// is quantified — each silent trial carries real error statistics.
#[test]
fn every_undetected_fault_is_quantified() {
    let report = fault_campaign::run(&campaign());
    for trial in report.silent() {
        match trial.outcome {
            Outcome::Silent { max_err, avg_err } => {
                assert!(
                    max_err.is_finite() && max_err > 0.0,
                    "unquantified silent fault: {trial:?}"
                );
                assert!(avg_err.is_finite() && avg_err > 0.0 && avg_err <= max_err);
            }
            _ => unreachable!(),
        }
    }
}

/// End-to-end graceful degradation through the `nacu-nn` adapter: a pool
/// with one broken shard serves a forward-pass activation batch
/// bit-identically to the sequential golden unit.
#[test]
fn degraded_pool_serves_golden_activations_end_to_end() {
    let config = NacuConfig::paper_16bit();
    let engine = Engine::new(
        EngineConfig::new(config)
            .with_workers(2)
            .with_queue_capacity(128)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![
                    FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true)),
                    FaultPlan::new(),
                ],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    let golden = Nacu::new(config).expect("paper config");
    let nl = EngineActivation::new(engine.handle());
    let xs: Vec<Fx> = (0..32)
        .map(|i| Fx::from_f64(f64::from(i) * 0.01 - 0.1, config.format, Rounding::Nearest))
        .collect();
    let expected: Vec<Fx> = xs.iter().map(|&x| golden.sigmoid(x)).collect();
    for _ in 0..100 {
        let outputs = nl
            .try_map_batch(Function::Sigmoid, &xs)
            .expect("a healthy shard always remains");
        assert_eq!(outputs, expected, "bit-identical despite the broken shard");
        if engine.metrics().workers_quarantined > 0 {
            break;
        }
    }
    // Whether or not the scheduler routed work onto the broken shard,
    // nothing corrupt ever escaped and no request failed.
    assert_eq!(engine.metrics().requests_failed, 0);
    engine.shutdown();
}
