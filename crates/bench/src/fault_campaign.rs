//! Fault-injection campaign: sweep `site × entry × bit × kind × function`
//! through [`nacu_faults::CheckedNacu`] and measure what the detectors
//! catch.
//!
//! Every trial builds a unit with exactly one injected fault, replays a
//! fixed operand workload through the checked datapath, and classifies
//! the outcome against a golden (fault-free) run:
//!
//! * **detected** — a detector fired ([`nacu_faults::FaultEvent`]); the
//!   corrupted answer was never released. Recorded per detector.
//! * **silent** — no detector fired but at least one output differs from
//!   golden: silent data corruption. The campaign quantifies *every*
//!   such fault with its max/avg output error, so the undetected tail is
//!   characterised, not hand-waved.
//! * **masked** — the workload's outputs are bit-identical to golden
//!   (the stuck bit already held that value, the transient never struck
//!   a live evaluation, or the corruption rounded away).
//!
//! Coverage is reported over *effective* faults (detected + silent):
//! a masked fault produced no wrong answer to catch, so counting it
//! against the detectors would understate them, and counting it for
//! them would overstate them.
//!
//! The module is workload-driven rather than proof-driven on purpose:
//! the parity/residue guarantees are proven in `nacu-faults`' own tests;
//! this campaign measures how those guarantees compose over real
//! operand streams, and emits the JSON record CI archives.

use nacu::{Function, NacuConfig, NacuError};
use nacu_faults::{
    CheckedError, CheckedNacu, DetectorSet, Fault, FaultEvent, FaultKind, FaultPlan, InjectionSite,
};
use nacu_fixed::{Fx, Rounding};
use nacu_funcapprox::{metrics, reference};

/// Campaign shape: which corner of the fault space to sweep and how
/// large a workload each trial replays.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Unit under test (the golden twin uses the same config).
    pub nacu: NacuConfig,
    /// Functions each fault is exercised through.
    pub functions: Vec<Function>,
    /// Fault kinds swept at every site.
    pub kinds: Vec<FaultKind>,
    /// Sweep every `bit_stride`-th bit position (1 = exhaustive).
    pub bit_stride: u32,
    /// Sweep every `entry_stride`-th LUT entry (1 = exhaustive).
    pub entry_stride: usize,
    /// Operands replayed per trial (softmax chunks them into vectors).
    pub operands_per_trial: usize,
    /// Base seed for transient strike schedules.
    pub seed: u64,
}

impl CampaignConfig {
    /// The full sweep: every site, entry, bit, kind and paper function.
    /// ~20k trials; run it `--release`.
    #[must_use]
    pub fn full() -> Self {
        Self {
            nacu: NacuConfig::paper_16bit(),
            functions: vec![
                Function::Sigmoid,
                Function::Tanh,
                Function::Exp,
                Function::Softmax,
            ],
            kinds: vec![
                FaultKind::StuckAt0,
                FaultKind::StuckAt1,
                FaultKind::Transient,
            ],
            bit_stride: 1,
            entry_stride: 1,
            operands_per_trial: 64,
            seed: 0xDAC2_0200,
        }
    }

    /// CI smoke shape: strided bits/entries and a short workload, same
    /// code paths, a few hundred trials. Keeps the bench-regression job
    /// honest without dominating its wall clock.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            bit_stride: 5,
            entry_stride: 7,
            operands_per_trial: 24,
            ..Self::full()
        }
    }
}

/// How one injected fault behaved over the trial workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// A detector refused the corrupted evaluation.
    Detected(FaultEvent),
    /// Undetected *and* wrong: the silent-corruption tail.
    Silent {
        /// Largest |faulty − golden| over the workload (real-valued).
        max_err: f64,
        /// Mean |faulty − golden| over the workload.
        avg_err: f64,
    },
    /// No observable effect on this workload.
    Masked,
}

/// One `(fault, function)` trial and its outcome.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The injected fault.
    pub fault: Fault,
    /// The function the workload exercised.
    pub function: Function,
    /// What happened.
    pub outcome: Outcome,
}

/// Aggregate over one `(site, kind, function)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Injection site of this cell.
    pub site: InjectionSite,
    /// Fault kind of this cell.
    pub kind: FaultKind,
    /// Function of this cell.
    pub function: Function,
    /// Trials run.
    pub trials: usize,
    /// Trials a detector caught.
    pub detected: usize,
    /// Trials that silently corrupted an output.
    pub silent: usize,
    /// Trials with no observable effect.
    pub masked: usize,
    /// Max output error over this cell's silent trials (0 if none).
    pub max_err: f64,
    /// Mean of the silent trials' average errors (0 if none).
    pub avg_err: f64,
}

impl Cell {
    /// detected / (detected + silent); `None` when no fault was
    /// effective (nothing to detect).
    #[must_use]
    pub fn coverage(&self) -> Option<f64> {
        let effective = self.detected + self.silent;
        (effective > 0).then(|| self.detected as f64 / effective as f64)
    }
}

/// The whole campaign: per-trial records plus the aggregates CI gates on.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every trial, in sweep order.
    pub trials: Vec<Trial>,
    /// Per `(site, kind, function)` aggregates.
    pub cells: Vec<Cell>,
    /// Detector hit counts, keyed by [`FaultEvent::detector`] labels.
    pub detector_hits: Vec<(&'static str, usize)>,
}

impl CampaignReport {
    /// Trials whose fault was effective (detected or silent).
    #[must_use]
    pub fn effective(&self) -> usize {
        self.detected() + self.silent().len()
    }

    /// Trials a detector caught.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| matches!(t.outcome, Outcome::Detected(_)))
            .count()
    }

    /// The silent-corruption trials, each carrying its error stats.
    #[must_use]
    pub fn silent(&self) -> Vec<&Trial> {
        self.trials
            .iter()
            .filter(|t| matches!(t.outcome, Outcome::Silent { .. }))
            .collect()
    }

    /// Overall coverage over effective faults.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let effective = self.effective();
        if effective == 0 {
            return 1.0;
        }
        self.detected() as f64 / effective as f64
    }

    /// Coverage restricted to single-bit LUT faults — the acceptance
    /// criterion for the parity detector.
    #[must_use]
    pub fn lut_coverage(&self) -> f64 {
        self.site_coverage(|s| s.is_lut())
    }

    /// Coverage over the listed sites' effective faults (1.0 if none).
    #[must_use]
    pub fn site_coverage(&self, site: impl Fn(InjectionSite) -> bool) -> f64 {
        let mut detected = 0_usize;
        let mut effective = 0_usize;
        for t in &self.trials {
            if !site(t.fault.site) {
                continue;
            }
            match t.outcome {
                Outcome::Detected(_) => {
                    detected += 1;
                    effective += 1;
                }
                Outcome::Silent { .. } => effective += 1,
                Outcome::Masked => {}
            }
        }
        if effective == 0 {
            return 1.0;
        }
        detected as f64 / effective as f64
    }

    /// Largest silent output error anywhere in the campaign.
    #[must_use]
    pub fn worst_silent_error(&self) -> f64 {
        self.trials
            .iter()
            .filter_map(|t| match t.outcome {
                Outcome::Silent { max_err, .. } => Some(max_err),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// Deterministic per-trial seed: splitmix64 of the base seed and the
/// trial ordinal, so re-running the campaign replays identical strikes.
#[must_use]
pub fn trial_seed(base: u64, ordinal: u64) -> u64 {
    let mut z = base ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn workload(config: &NacuConfig, n: usize) -> Vec<Fx> {
    let fmt = config.format;
    (0..n)
        .map(|i| {
            let v = -8.0 + 16.0 * (i as f64) / (n.max(2) - 1) as f64;
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect()
}

/// Replays the workload through one faulty unit and classifies it.
fn run_trial(
    faulty: &CheckedNacu,
    golden: &CheckedNacu,
    function: Function,
    operands: &[Fx],
) -> Outcome {
    let mut max_err = 0.0_f64;
    let mut sum_err = 0.0_f64;
    let mut outputs = 0_usize;
    let mut corrupt = false;
    let mut record = |got: Fx, want: Fx| {
        let err = (got.to_f64() - want.to_f64()).abs();
        corrupt |= got != want;
        max_err = max_err.max(err);
        sum_err += err;
        outputs += 1;
    };
    if function == Function::Softmax {
        for chunk in operands.chunks(8) {
            let want = golden.softmax(chunk).expect("golden softmax");
            match faulty.softmax(chunk) {
                Ok(got) => {
                    for (&g, &w) in got.iter().zip(&want) {
                        record(g, w);
                    }
                }
                Err(CheckedError::Fault(event)) => return Outcome::Detected(event),
                Err(CheckedError::Nacu(e)) => unreachable!("non-empty softmax rejected: {e}"),
            }
        }
    } else {
        for &x in operands {
            let want = golden.compute(function, x).expect("golden unit is clean");
            match faulty.compute(function, x) {
                Ok(got) => record(got, want),
                Err(event) => return Outcome::Detected(event),
            }
        }
    }
    if corrupt {
        Outcome::Silent {
            max_err,
            avg_err: sum_err / outputs.max(1) as f64,
        }
    } else {
        Outcome::Masked
    }
}

fn faults_for_site(
    site: InjectionSite,
    kind: FaultKind,
    config: &CampaignConfig,
    entries: usize,
    ordinal: &mut u64,
) -> Vec<Fault> {
    let n = config.nacu.format.total_bits();
    let bits = match site {
        // The shadow MAC accumulates in a (2n+2)-bit register.
        InjectionSite::MacAccumulator => 2 * n + 2,
        _ => n,
    };
    let mut faults = Vec::new();
    let mut push = |entry: Option<usize>, bit: u32, ordinal: &mut u64| {
        let fault = match (kind, entry) {
            (FaultKind::StuckAt0, Some(e)) => Fault::stuck_lut(site, e, bit, false),
            (FaultKind::StuckAt1, Some(e)) => Fault::stuck_lut(site, e, bit, true),
            (FaultKind::StuckAt0, None) => Fault::stuck(site, bit, false),
            (FaultKind::StuckAt1, None) => Fault::stuck(site, bit, true),
            (FaultKind::Transient, _) => {
                let mut f = Fault::transient(site, bit, trial_seed(config.seed, *ordinal));
                f.entry = entry;
                f
            }
        };
        *ordinal += 1;
        faults.push(fault);
    };
    if site.is_lut() {
        for entry in (0..entries).step_by(config.entry_stride.max(1)) {
            for bit in (0..bits).step_by(config.bit_stride.max(1) as usize) {
                push(Some(entry), bit, ordinal);
            }
        }
    } else {
        for bit in (0..bits).step_by(config.bit_stride.max(1) as usize) {
            push(None, bit, ordinal);
        }
    }
    faults
}

/// Runs the campaign: one fresh faulty unit per `(fault, function)`
/// pair, classified against a shared golden twin.
///
/// # Panics
///
/// Panics if the campaign's [`NacuConfig`] fails to validate.
#[must_use]
pub fn run(config: &CampaignConfig) -> CampaignReport {
    let golden = CheckedNacu::new(config.nacu).expect("campaign config");
    let entries = golden.golden().coefficients().len();
    let operands = workload(&config.nacu, config.operands_per_trial);
    let mut trials = Vec::new();
    let mut cells = Vec::new();
    let mut hits: Vec<(&'static str, usize)> = Vec::new();
    let mut ordinal = 0_u64;
    for &function in &config.functions {
        for site in InjectionSite::all() {
            for &kind in &config.kinds {
                let faults = faults_for_site(site, kind, config, entries, &mut ordinal);
                let mut cell = Cell {
                    site,
                    kind,
                    function,
                    trials: 0,
                    detected: 0,
                    silent: 0,
                    masked: 0,
                    max_err: 0.0,
                    avg_err: 0.0,
                };
                let mut silent_avgs = 0.0_f64;
                for fault in faults {
                    let faulty = CheckedNacu::new(config.nacu)
                        .expect("campaign config")
                        .with_plan(FaultPlan::single(fault));
                    let outcome = run_trial(&faulty, &golden, function, &operands);
                    cell.trials += 1;
                    match outcome {
                        Outcome::Detected(event) => {
                            cell.detected += 1;
                            let label = event.detector();
                            match hits.iter_mut().find(|(l, _)| *l == label) {
                                Some((_, n)) => *n += 1,
                                None => hits.push((label, 1)),
                            }
                        }
                        Outcome::Silent { max_err, avg_err } => {
                            cell.silent += 1;
                            cell.max_err = cell.max_err.max(max_err);
                            silent_avgs += avg_err;
                        }
                        Outcome::Masked => cell.masked += 1,
                    }
                    trials.push(Trial {
                        fault,
                        function,
                        outcome,
                    });
                }
                if cell.silent > 0 {
                    cell.avg_err = silent_avgs / cell.silent as f64;
                }
                if cell.trials > 0 {
                    cells.push(cell);
                }
            }
        }
    }
    CampaignReport {
        trials,
        cells,
        detector_hits: hits,
    }
}

/// One row of the ROM bit-sensitivity sweep ([`bit_sensitivity`]).
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// The ROM word holding the flipped bit: `LutSlope` or `LutBias`.
    pub site: InjectionSite,
    /// Bit position within the word, 0 = LSB.
    pub bit: u32,
    /// σ full-range max error with the bit flipped.
    pub max_error: f64,
    /// Ratio to the fault-free max error.
    pub degradation: f64,
}

/// Flips each bit of LUT entry `entry`'s slope and bias words in turn
/// and measures σ's full-range max error. A flip is the stuck-at fault
/// at the complement of the stored bit; no detector is armed, so every
/// corrupted word reaches the output.
///
/// # Errors
///
/// Propagates configuration errors.
///
/// # Panics
///
/// Panics if `entry` is not a LUT entry of the unit.
pub fn bit_sensitivity(config: NacuConfig, entry: usize) -> Result<Vec<SensitivityRow>, NacuError> {
    let clean = CheckedNacu::new(config)?.with_detectors(DetectorSet::none());
    let baseline = sigma_max_error(&clean);
    let mut rows = Vec::new();
    for site in [InjectionSite::LutSlope, InjectionSite::LutBias] {
        for bit in 0..config.format.total_bits() {
            let max_error = sigma_max_error(&flipped(&clean, site, entry, bit));
            rows.push(SensitivityRow {
                site,
                bit,
                max_error,
                degradation: max_error / baseline,
            });
        }
    }
    Ok(rows)
}

/// `clean` with bit `bit` of the `site` word of ROM entry `entry` stuck
/// at its complement.
fn flipped(clean: &CheckedNacu, site: InjectionSite, entry: usize, bit: u32) -> CheckedNacu {
    let (slope, bias) = clean.golden().coefficients()[entry];
    let word = if site == InjectionSite::LutSlope {
        slope
    } else {
        bias
    };
    let stored = (word >> bit) & 1 == 1;
    let fault = Fault::stuck_lut(site, entry, bit, !stored);
    clean.clone().with_plan(FaultPlan::single(fault))
}

/// σ max error over every input code of a unit whose detectors are off.
fn sigma_max_error(unit: &CheckedNacu) -> f64 {
    let fmt = unit.config().format;
    let sigma = |x| unit.sigmoid(x).expect("no detector armed").to_f64();
    metrics::sweep_raw_range(fmt, fmt.min_raw(), fmt.max_raw(), reference::sigmoid, sigma).max_error
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6e}")
    } else {
        "null".to_string()
    }
}

fn function_name(f: Function) -> &'static str {
    match f {
        Function::Sigmoid => "sigmoid",
        Function::Tanh => "tanh",
        Function::Exp => "exp",
        Function::Softmax => "softmax",
        _ => "other",
    }
}

/// Renders the report as the JSON document the CI job archives.
///
/// Hand-rolled on purpose — the workspace is offline and the schema is
/// flat enough that a serializer would be the bigger liability.
#[must_use]
pub fn to_json(report: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"trials\": {},\n  \"detected\": {},\n  \"silent\": {},\n  \"masked\": {},\n",
        report.trials.len(),
        report.detected(),
        report.silent().len(),
        report.trials.len() - report.effective(),
    ));
    out.push_str(&format!(
        "  \"coverage\": {},\n  \"lut_coverage\": {},\n  \"worst_silent_error\": {},\n",
        json_f64(report.coverage()),
        json_f64(report.lut_coverage()),
        json_f64(report.worst_silent_error()),
    ));
    out.push_str("  \"detector_hits\": {");
    for (i, (label, n)) in report.detector_hits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", json_str(label), n));
    }
    out.push_str("},\n  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"site\": {}, \"kind\": {}, \"function\": {}, \"trials\": {}, \
             \"detected\": {}, \"silent\": {}, \"masked\": {}, \"max_err\": {}, \
             \"avg_err\": {}}}{}\n",
            json_str(cell.site.name()),
            json_str(cell.kind.name()),
            json_str(function_name(cell.function)),
            cell.trials,
            cell.detected,
            cell.silent,
            cell.masked,
            json_f64(cell.max_err),
            json_f64(cell.avg_err),
            if i + 1 < report.cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the per-site coverage table the campaign binary renders.
pub fn print_summary(report: &CampaignReport) {
    println!(
        "fault campaign — {} trials, coverage {:.2}% over {} effective faults",
        report.trials.len(),
        100.0 * report.coverage(),
        report.effective(),
    );
    println!(
        "{:>16} {:>8} {:>9} {:>7} {:>7} {:>11} {:>11}",
        "site", "trials", "detected", "silent", "masked", "max_err", "coverage"
    );
    for site in InjectionSite::all() {
        let mut trials = 0;
        let mut detected = 0;
        let mut silent = 0;
        let mut masked = 0;
        let mut max_err = 0.0_f64;
        for cell in report.cells.iter().filter(|c| c.site == site) {
            trials += cell.trials;
            detected += cell.detected;
            silent += cell.silent;
            masked += cell.masked;
            max_err = max_err.max(cell.max_err);
        }
        if trials == 0 {
            continue;
        }
        let effective = detected + silent;
        let coverage = if effective == 0 {
            "-".to_string()
        } else {
            format!("{:.2}%", 100.0 * detected as f64 / effective as f64)
        };
        println!(
            "{:>16} {:>8} {:>9} {:>7} {:>7} {:>11} {:>11}",
            site.name(),
            trials,
            detected,
            silent,
            masked,
            crate::sci(max_err),
            coverage,
        );
    }
    println!("detector hits:");
    for (label, n) in &report.detector_hits {
        println!("  {label:>20} {n:>7}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        // Every entry but only two bit positions: the workload reads a
        // decent fraction of the table, so LUT faults are guaranteed to
        // be exercised, while the trial count stays test-sized.
        CampaignConfig {
            bit_stride: 8,
            entry_stride: 1,
            operands_per_trial: 24,
            functions: vec![Function::Sigmoid],
            kinds: vec![FaultKind::StuckAt1, FaultKind::Transient],
            ..CampaignConfig::full()
        }
    }

    #[test]
    fn campaign_classifies_every_trial() {
        let report = run(&tiny());
        assert!(!report.trials.is_empty());
        let counted: usize = report
            .cells
            .iter()
            .map(|c| c.detected + c.silent + c.masked)
            .sum();
        assert_eq!(counted, report.trials.len());
    }

    #[test]
    fn effective_lut_faults_are_caught_by_parity() {
        // The parity guarantee, observed through the campaign harness:
        // every LUT fault that changes an answer is detected.
        let report = run(&tiny());
        assert!(
            (report.lut_coverage() - 1.0).abs() < 1e-12,
            "lut coverage {}",
            report.lut_coverage()
        );
        assert!(report
            .detector_hits
            .iter()
            .any(|&(label, n)| label == "lut_parity" && n > 0));
    }

    #[test]
    fn every_silent_trial_carries_error_stats() {
        let report = run(&tiny());
        for t in report.silent() {
            match t.outcome {
                Outcome::Silent { max_err, avg_err } => {
                    assert!(max_err > 0.0, "silent fault with zero error: {t:?}");
                    assert!(avg_err > 0.0 && avg_err <= max_err);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(trial_seed(7, 42), trial_seed(7, 42));
        assert_ne!(trial_seed(7, 42), trial_seed(7, 43));
        let a = run(&tiny());
        let b = run(&tiny());
        assert_eq!(a.trials.len(), b.trials.len());
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = run(&tiny());
        let json = to_json(&report);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"lut_coverage\""));
        assert!(json.contains("\"cells\""));
    }

    fn paper_rom_flip(site: InjectionSite, entry: usize, bit: u32) -> CheckedNacu {
        let clean = CheckedNacu::new(NacuConfig::paper_16bit())
            .expect("paper config")
            .with_detectors(DetectorSet::none());
        flipped(&clean, site, entry, bit)
    }

    #[test]
    fn lsb_fault_is_nearly_harmless() {
        let faulted = sigma_max_error(&paper_rom_flip(InjectionSite::LutBias, 3, 0));
        let baseline = sigma_max_error(&CheckedNacu::new(NacuConfig::paper_16bit()).unwrap());
        // One bias LSB (2^-13) perturbs one segment by at most one LSB.
        assert!(faulted < baseline + 2e-4);
    }

    #[test]
    fn msb_fault_is_catastrophic_and_detectable() {
        // Bit 14 is the top magnitude bit of the bias word.
        let faulted = sigma_max_error(&paper_rom_flip(InjectionSite::LutBias, 0, 14));
        assert!(faulted > 0.1, "an MSB flip must be glaring: {faulted}");
    }

    #[test]
    fn sensitivity_grows_with_bit_position() {
        let rows = bit_sensitivity(NacuConfig::paper_16bit(), 2).unwrap();
        let bias_rows: Vec<&SensitivityRow> = rows
            .iter()
            .filter(|r| r.site == InjectionSite::LutBias)
            .collect();
        let low = bias_rows[1].max_error; // bit 1
        let high = bias_rows[13].max_error; // bit 13
        assert!(
            high > 10.0 * low,
            "high bits must hurt more: {high} vs {low}"
        );
    }
}
