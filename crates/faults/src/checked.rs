//! The checked datapath: the one Fig. 2 walk with injectors and detectors
//! on its nets.
//!
//! [`CheckedNacu`] evaluates through the same walk as [`Nacu`]
//! ([`Nacu::compute_with`], [`Nacu::softmax_with`]), over its own
//! [`Nets`]: the stored ROM words with permanent faults baked in, the
//! unit's [`FaultPlan`] tapping every named [`InjectionSite`], and the
//! armed [`DetectorSet`] checking the nets it watches. With an empty plan
//! the output is **bit-identical** to [`Nacu`] for every function
//! (checked exhaustively in the workspace's root `tests/bit_identity.rs`);
//! with faults armed, each evaluation either returns the exact corrupted
//! value the silicon would emit or surfaces a typed [`FaultEvent`].
//!
//! Detector tap points (which faults each detector can see):
//!
//! | detector | taps | covers |
//! |---|---|---|
//! | LUT parity | stored words at every lookup | `LutSlope`, `LutBias` |
//! | MAC residue | MAC source nets vs pre-round sum | `MacOperandA/B`, `MacAccumulator` |
//! | σ sentinel | σ output register | `SigmaOut` + large upstream faults |
//!
//! `BiasOut` faults are deliberately outside the MAC residue's protection
//! domain (the shadow taps the bias *port*, i.e. the already-faulted
//! wire), so low-bit bias faults propagate silently — the campaign
//! quantifies exactly that undetected-error tail.

use nacu::datapath::{MacSources, Nets};
use nacu::{Function, Nacu, NacuConfig, NacuError};
use nacu_fixed::Fx;

use crate::detect::{
    entry_parity, residue3, residue_add, residue_mul, residue_pow2, DetectorSet, FaultEvent,
};
use crate::model::{FaultPlan, InjectionSite};

/// Raw LSBs of slack the σ range sentinel allows beyond `[0, 1]`.
///
/// A fault-free unit can legitimately overshoot by one output LSB: the
/// saturation segment's minimax bias quantises to exactly 1.0 and the
/// (tiny, positive) slope term then rounds one LSB above it. Measured
/// worst case across the 10–21-bit sweep is 1 LSB; anything beyond is a
/// fault (the root `tests/bit_identity.rs` pins the no-false-positive
/// property).
pub const SIGMA_RANGE_SLACK_LSB: i64 = 1;

/// Raw LSBs σ may *decrease* across consecutive segment boundaries before
/// the scrub calls it a monotonicity violation. Adjacent minimax segments
/// are fitted independently, so their quantised boundary values can
/// disagree by a rounding step even on a healthy unit.
pub const SIGMA_MONOTONICITY_SLACK_LSB: i64 = 1;

/// A failure from the checked datapath: either a detector fired or the
/// request itself was malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckedError {
    /// A detector surfaced a fault.
    Fault(FaultEvent),
    /// The underlying datapath rejected the request (empty softmax
    /// vector, format mismatch, …).
    Nacu(NacuError),
}

impl std::fmt::Display for CheckedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckedError::Fault(e) => write!(f, "fault detected: {e}"),
            CheckedError::Nacu(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckedError {}

impl From<FaultEvent> for CheckedError {
    fn from(e: FaultEvent) -> Self {
        CheckedError::Fault(e)
    }
}

impl From<NacuError> for CheckedError {
    fn from(e: NacuError) -> Self {
        CheckedError::Nacu(e)
    }
}

/// The checked unit's nets: fault taps and detectors on the walk's wires.
#[derive(Debug, Clone)]
struct FaultNets {
    /// Datapath word width every tap masks to.
    bits: u32,
    /// Stored coefficient words after permanent ROM faults are baked in.
    rom: Vec<(i64, i64)>,
    /// Per-entry parity computed from the *golden* ROM at table build.
    parity: Vec<u8>,
    plan: FaultPlan,
    detectors: DetectorSet,
}

impl FaultNets {
    /// One event on a datapath-wide net, through the plan.
    fn tap(&self, site: InjectionSite, entry: Option<usize>, raw: i64) -> i64 {
        self.plan.tap(site, entry, raw, self.bits)
    }
}

impl Nets for FaultNets {
    type Event = FaultEvent;

    /// Reads the (possibly corrupted) stored words, applies transient
    /// read upsets, then re-checks the entry parity stored at table
    /// build.
    fn lut(&self, index: usize, _golden: (i64, i64)) -> Result<(i64, i64), FaultEvent> {
        let (slope, q) = self.rom[index];
        let slope = self.tap(InjectionSite::LutSlope, Some(index), slope);
        let q = self.tap(InjectionSite::LutBias, Some(index), q);
        if self.detectors.lut_parity && entry_parity(slope, q, self.bits) != self.parity[index] {
            return Err(FaultEvent::LutParity { entry: index });
        }
        Ok((slope, q))
    }

    fn bias_out(&self, bias: i64) -> Result<i64, FaultEvent> {
        Ok(self.tap(InjectionSite::BiasOut, None, bias))
    }

    fn mac_a(&self, slope: i64) -> Result<i64, FaultEvent> {
        Ok(self.tap(InjectionSite::MacOperandA, None, slope))
    }

    fn mac_b(&self, mag: i64) -> Result<i64, FaultEvent> {
        Ok(self.tap(InjectionSite::MacOperandB, None, mag))
    }

    /// The accumulator fault, then the mod-3 shadow. The shadow taps the
    /// source nets *before* the MAC's operand latches, where the
    /// `MacOperandA/B` faults live; the bias is the Fig. 3 output port,
    /// which the shadow shares with the MAC.
    fn accumulator(&self, sum: i128, src: &MacSources) -> Result<i128, FaultEvent> {
        let sum = self
            .plan
            .tap_wide(InjectionSite::MacAccumulator, sum, 2 * self.bits + 2);
        if self.detectors.mac_residue {
            let expected = residue_add(
                residue_mul(residue3(src.slope as i128), residue3(src.mag as i128)),
                residue_mul(residue3(src.bias as i128), residue_pow2(src.bias_shift)),
            );
            let got = residue3(sum);
            if expected != got {
                return Err(FaultEvent::MacResidue { expected, got });
            }
        }
        Ok(sum)
    }

    /// The output register fault, then the range sentinel.
    fn sigma_out(&self, raw: i64, out_frac: u32) -> Result<i64, FaultEvent> {
        let raw = self.tap(InjectionSite::SigmaOut, None, raw);
        if self.detectors.sigma_sentinel {
            let one = 1_i64 << out_frac;
            if raw < -SIGMA_RANGE_SLACK_LSB || raw > one + SIGMA_RANGE_SLACK_LSB {
                return Err(FaultEvent::SigmaRange { raw, one });
            }
        }
        Ok(raw)
    }
}

/// A NACU unit with fault injectors armed on its nets and error detectors
/// shadowing its datapath.
#[derive(Debug, Clone)]
pub struct CheckedNacu {
    golden: Nacu,
    nets: FaultNets,
}

impl CheckedNacu {
    /// Builds a healthy checked unit: golden ROM, parity bits, no faults.
    ///
    /// # Errors
    ///
    /// Propagates [`Nacu::new`] configuration errors.
    pub fn new(config: NacuConfig) -> Result<Self, NacuError> {
        let golden = Nacu::new(config)?;
        let rom = golden.coefficients();
        let bits = config.format.total_bits();
        let parity = rom.iter().map(|&(s, q)| entry_parity(s, q, bits)).collect();
        Ok(Self {
            golden,
            nets: FaultNets {
                bits,
                rom,
                parity,
                plan: FaultPlan::new(),
                detectors: DetectorSet::all(),
            },
        })
    }

    /// Arms a fault plan. Permanent (stuck-at) LUT faults are baked into
    /// the stored ROM words immediately — parity keeps the bit computed
    /// from the golden table, which is exactly what makes them
    /// detectable. Out-of-range LUT entries in the plan are ignored (the
    /// address decoder cannot reach them).
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        let bits = self.nets.bits;
        for fault in plan.permanent_lut_faults() {
            let Some(entry) = fault.entry.and_then(|e| self.nets.rom.get_mut(e)) else {
                continue;
            };
            let word = match fault.site {
                InjectionSite::LutSlope => &mut entry.0,
                _ => &mut entry.1,
            };
            *word = fault.corrupt_word(*word, bits);
        }
        self.nets.plan = plan;
        self
    }

    /// Replaces the armed detector set.
    #[must_use]
    pub fn with_detectors(mut self, detectors: DetectorSet) -> Self {
        self.nets.detectors = detectors;
        self
    }

    /// The fault-free reference unit built from the same configuration.
    #[must_use]
    pub fn golden(&self) -> &Nacu {
        &self.golden
    }

    /// The unit configuration.
    #[must_use]
    pub fn config(&self) -> &NacuConfig {
        self.golden.config()
    }

    /// The armed fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.nets.plan
    }

    /// The armed detectors.
    #[must_use]
    pub fn detectors(&self) -> DetectorSet {
        self.nets.detectors
    }

    /// Checked σ(x).
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    pub fn sigmoid(&self, x: Fx) -> Result<Fx, FaultEvent> {
        self.compute(Function::Sigmoid, x)
    }

    /// Checked tanh(x) (Eq. 3's stretched σ address plus the Fig. 3b/3c
    /// bias transforms).
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    pub fn tanh(&self, x: Fx) -> Result<Fx, FaultEvent> {
        self.compute(Function::Tanh, x)
    }

    /// Checked e^x for non-positive x (Eq. 14: σ, reciprocal, decrement).
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    pub fn exp(&self, x: Fx) -> Result<Fx, FaultEvent> {
        self.compute(Function::Exp, x)
    }

    /// Checked max-normalised softmax (Eq. 13): the datapath's two-pass
    /// schedule with every exp running through the checked walk.
    ///
    /// # Errors
    ///
    /// [`CheckedError::Fault`] if a detector fires,
    /// [`CheckedError::Nacu`] for an empty or mixed-format vector.
    pub fn softmax(&self, inputs: &[Fx]) -> Result<Vec<Fx>, CheckedError> {
        self.golden
            .softmax_with(inputs, |x| self.exp(x).map_err(CheckedError::Fault))
    }

    /// Single-input dispatch mirroring [`Nacu::compute`].
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    ///
    /// # Panics
    ///
    /// Panics for [`Function::Softmax`]/[`Function::Mac`], exactly like
    /// the unchecked dispatch.
    pub fn compute(&self, function: Function, x: Fx) -> Result<Fx, FaultEvent> {
        self.golden.compute_with(&self.nets, function, x)
    }

    /// BIST-style scrub: walks σ across every PWL segment boundary (plus
    /// the saturation endpoint) through the checked path, verifying the
    /// ladder stays in range and non-decreasing (within
    /// [`SIGMA_MONOTONICITY_SLACK_LSB`]). Catches ROM corruption that a
    /// particular workload's addresses would never touch.
    ///
    /// Scrub reads count as σ evaluations for transient-fault timing
    /// (they are real datapath activity, like any BIST pattern).
    ///
    /// # Errors
    ///
    /// The first [`FaultEvent`] the walk encounters.
    pub fn scrub(&self) -> Result<(), FaultEvent> {
        let fmt = self.config().format;
        let bounds = self.golden.segment_bounds();
        let ladder = bounds[..bounds.len() - 1].iter().copied();
        let mut prev: Option<i64> = None;
        for (boundary, address) in ladder.chain([fmt.max_raw()]).enumerate() {
            let x = Fx::from_raw_saturating(address.min(fmt.max_raw()), fmt);
            // The sentinel has bounded the word to [0, 1] ± slack, so the
            // output saturation leaves it as the σ register held it.
            let raw = self.sigmoid(x)?.raw();
            if self.nets.detectors.sigma_sentinel {
                if let Some(prev_raw) = prev {
                    if raw + SIGMA_MONOTONICITY_SLACK_LSB < prev_raw {
                        return Err(FaultEvent::SigmaMonotonicity {
                            boundary,
                            prev_raw,
                            raw,
                        });
                    }
                }
            }
            prev = Some(raw);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Fault, FaultKind};
    use nacu_fixed::Rounding;

    fn checked() -> CheckedNacu {
        CheckedNacu::new(NacuConfig::paper_16bit()).expect("paper config")
    }

    fn fx(unit: &CheckedNacu, v: f64) -> Fx {
        Fx::from_f64(v, unit.config().format, Rounding::Nearest)
    }

    #[test]
    fn clean_unit_matches_golden_spot_values() {
        let c = checked();
        let g = c.golden().clone();
        for v in [-7.5, -2.0, -0.3, 0.0, 0.4, 1.7, 9.9] {
            let x = fx(&c, v);
            assert_eq!(c.sigmoid(x).unwrap(), g.sigmoid(x), "sigmoid({v})");
            assert_eq!(c.tanh(x).unwrap(), g.tanh(x), "tanh({v})");
        }
        for v in [-9.0, -1.0, -0.01, 0.0] {
            let x = fx(&c, v);
            assert_eq!(c.exp(x).unwrap(), g.exp(x), "exp({v})");
        }
        let xs: Vec<Fx> = [0.5, -1.2, 2.0, 0.0].iter().map(|&v| fx(&c, v)).collect();
        assert_eq!(c.softmax(&xs).unwrap(), g.softmax(&xs).unwrap());
    }

    #[test]
    fn clean_unit_scrubs_clean_across_widths() {
        for width in [10u32, 14, 16, 18, 21] {
            let cfg = NacuConfig::for_width(width).unwrap();
            let c = CheckedNacu::new(cfg).unwrap();
            c.scrub()
                .unwrap_or_else(|e| panic!("clean {width}-bit unit scrubbed dirty: {e}"));
        }
    }

    #[test]
    fn clean_full_sweep_raises_no_event() {
        // No-false-positive property for the per-call detectors, swept
        // over every 97th input code at several widths.
        for width in [10u32, 16, 18] {
            let cfg = NacuConfig::for_width(width).unwrap();
            let c = CheckedNacu::new(cfg).unwrap();
            let fmt = c.config().format;
            for raw in (fmt.min_raw()..=fmt.max_raw()).step_by(97) {
                let x = Fx::from_raw(raw, fmt).unwrap();
                c.sigmoid(x)
                    .unwrap_or_else(|e| panic!("σ w{width} raw {raw}: {e}"));
                c.tanh(x)
                    .unwrap_or_else(|e| panic!("tanh w{width} raw {raw}: {e}"));
                if raw <= 0 {
                    c.exp(x)
                        .unwrap_or_else(|e| panic!("exp w{width} raw {raw}: {e}"));
                }
            }
        }
    }

    #[test]
    fn stuck_lut_bit_is_caught_by_parity_at_lookup() {
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true);
        let c = checked().with_plan(FaultPlan::single(fault));
        // Entry 0 serves x ≈ 0.
        let err = c.sigmoid(fx(&c, 0.0)).unwrap_err();
        assert_eq!(err, FaultEvent::LutParity { entry: 0 });
        // An address far from entry 0 is served fine (stuck bit was
        // already the stored value, or a different entry entirely).
        let far = fx(&c, 12.0);
        assert_eq!(c.sigmoid(far).unwrap(), c.golden().sigmoid(far));
    }

    #[test]
    fn stuck_bit_matching_stored_value_is_latent_but_harmless() {
        // Stuck-at faults whose forced value equals the stored bit change
        // nothing: parity agrees and the output is golden.
        let c0 = checked();
        let slope0 = c0.nets.rom[3].0;
        let bit = 2;
        let stored = (slope0 >> bit) & 1;
        let fault = Fault::stuck_lut(InjectionSite::LutSlope, 3, bit, stored == 1);
        let c = checked().with_plan(FaultPlan::single(fault));
        let fmt = c.config().format;
        for raw in (fmt.min_raw()..fmt.max_raw()).step_by(501) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            assert_eq!(c.sigmoid(x).unwrap(), c.golden().sigmoid(x));
        }
    }

    #[test]
    fn mac_accumulator_fault_never_escapes_the_residue() {
        // The AN-code guarantee: a single-bit accumulator fault shifts
        // the sum by ±2^k ≢ 0 (mod 3). Undetected ⇒ the stuck bit
        // already held its forced value ⇒ the output is golden.
        let c = checked().with_plan(FaultPlan::single(Fault::stuck(
            InjectionSite::MacAccumulator,
            7,
            true,
        )));
        let mut caught = 0;
        let fmt = c.config().format;
        for raw in (fmt.min_raw()..fmt.max_raw()).step_by(997) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            match c.sigmoid(x) {
                Err(FaultEvent::MacResidue { .. }) => caught += 1,
                Err(e) => panic!("wrong detector fired: {e}"),
                Ok(y) => assert_eq!(
                    y,
                    c.golden().sigmoid(x),
                    "undetected accumulator fault must mean unchanged value"
                ),
            }
        }
        assert!(caught > 0, "stuck accumulator bit never caught");
    }

    #[test]
    fn mac_operand_fault_escapes_only_via_mod3_co_operand() {
        // An operand fault perturbs the product by ±2^k·co-operand: the
        // residue misses it exactly when the co-operand ≡ 0 (mod 3).
        for site in [InjectionSite::MacOperandA, InjectionSite::MacOperandB] {
            let c = checked().with_plan(FaultPlan::single(Fault::stuck(site, 7, true)));
            let mut caught = 0;
            let fmt = c.config().format;
            for raw in (fmt.min_raw()..fmt.max_raw()).step_by(997) {
                let x = Fx::from_raw(raw, fmt).unwrap();
                let mag = c.golden().magnitude_raw(x);
                let idx = c.golden().lookup_index(mag);
                let slope = c.golden().coefficients()[idx].0;
                let co_operand = if site == InjectionSite::MacOperandA {
                    mag
                } else {
                    slope
                };
                match c.sigmoid(x) {
                    Err(FaultEvent::MacResidue { .. }) => caught += 1,
                    // Defence in depth: when mod-3 is blind the corrupted
                    // word can still blow the σ range sentinel.
                    Err(FaultEvent::SigmaRange { .. }) => {
                        assert_eq!(co_operand % 3, 0, "{site}: residue should have fired first");
                        caught += 1;
                    }
                    Err(e) => panic!("{site}: wrong detector fired: {e}"),
                    Ok(y) => assert!(
                        y == c.golden().sigmoid(x) || co_operand % 3 == 0,
                        "{site}: silent corruption with co-operand {co_operand} ≢ 0 (mod 3)"
                    ),
                }
            }
            assert!(caught > 0, "{site}: stuck bit never caught");
        }
    }

    #[test]
    fn sigma_out_msb_fault_trips_the_range_sentinel() {
        // Forcing a high magnitude bit of the σ output register pushes
        // the word far above 1.0.
        let c = checked().with_plan(FaultPlan::single(Fault::stuck(
            InjectionSite::SigmaOut,
            14,
            true,
        )));
        let err = c.sigmoid(fx(&c, 0.3)).unwrap_err();
        assert!(
            matches!(err, FaultEvent::SigmaRange { .. }),
            "expected range sentinel, got {err}"
        );
    }

    #[test]
    fn bias_out_low_bit_fault_is_silent_and_small() {
        // The residue shadow shares the bias port with the MAC, so a
        // low-bit BiasOut fault propagates undetected — with bounded
        // output error. This is the undetected tail the campaign
        // quantifies.
        let c = checked().with_plan(FaultPlan::single(Fault::stuck(
            InjectionSite::BiasOut,
            0,
            true,
        )));
        let fmt = c.config().format;
        let mut max_err: f64 = 0.0;
        for raw in (fmt.min_raw()..fmt.max_raw()).step_by(211) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            let y = c.sigmoid(x).expect("low-bit bias fault is undetectable");
            max_err = max_err.max((y.to_f64() - c.golden().sigmoid(x).to_f64()).abs());
        }
        assert!(max_err < 3e-3, "one bias LSB stays small: {max_err}");
    }

    #[test]
    fn scrub_catches_workload_invisible_corruption() {
        // Corrupt a mid-range entry with parity disabled: a workload
        // touching only small |x| would never read it, but the scrub
        // walks every segment.
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 20, 12, false);
        let c = checked()
            .with_plan(FaultPlan::single(fault))
            .with_detectors(DetectorSet {
                lut_parity: false,
                mac_residue: false,
                sigma_sentinel: true,
            });
        // The small-|x| workload sails through.
        assert!(c.sigmoid(fx(&c, 0.1)).is_ok());
        // The scrub does not (either range or monotonicity fires).
        assert!(c.scrub().is_err(), "scrub must catch the corrupted entry");
    }

    #[test]
    fn disabled_detectors_let_faults_through_silently() {
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true);
        let c = checked()
            .with_plan(FaultPlan::single(fault))
            .with_detectors(DetectorSet::none());
        let x = fx(&c, 0.0);
        let y = c.sigmoid(x).expect("no detector armed");
        // The wrong answer is the point: it differs from golden.
        assert_ne!(y, c.golden().sigmoid(x));
    }

    #[test]
    fn transient_strike_corrupts_one_evaluation_then_heals() {
        let fault = Fault {
            site: InjectionSite::LutBias,
            entry: Some(0),
            bit: 13,
            kind: FaultKind::Transient,
            seed: 3,
        };
        let c = checked().with_plan(FaultPlan::single(fault));
        let x = fx(&c, 0.0);
        let mut events = 0;
        for _ in 0..crate::model::TRANSIENT_WINDOW + 8 {
            if c.sigmoid(x).is_err() {
                events += 1;
            }
        }
        assert_eq!(events, 1, "a single-event upset fires parity exactly once");
    }

    #[test]
    fn fault_corrupts_all_derived_branches_symmetrically() {
        // One ROM word feeds σ(+), σ(−), tanh(+), tanh(−): Eqs. 4–5's
        // structural symmetry must hold even on a faulted unit. The fault
        // flips slope bit 9 of entry 5 (a stuck-at at the complement of
        // the stored bit), with no detector armed to stop it.
        let clean = checked();
        let stored = (clean.golden().coefficients()[5].0 >> 9) & 1 == 1;
        let fault = Fault::stuck_lut(InjectionSite::LutSlope, 5, 9, !stored);
        let faulted = clean
            .with_plan(FaultPlan::single(fault))
            .with_detectors(DetectorSet::none());
        let fmt = faulted.config().format;
        let one = 1_i64 << fmt.frac_bits();
        let at = |raw| Fx::from_raw(raw, fmt).unwrap();
        let mut changed = false;
        for raw in (1..fmt.max_raw()).step_by(501) {
            let pos = faulted.sigmoid(at(raw)).unwrap();
            let neg = faulted.sigmoid(at(-raw)).unwrap().raw();
            assert!(
                (pos.raw() + neg - one).abs() <= 1,
                "faulted unit keeps σ(x)+σ(−x)=1 at raw {raw}"
            );
            let tanh_pos = faulted.tanh(at(raw)).unwrap().raw();
            let tanh_neg = faulted.tanh(at(-raw)).unwrap().raw();
            assert!(
                (tanh_pos + tanh_neg).abs() <= 1,
                "faulted unit keeps tanh(−x) = −tanh(x) at raw {raw}"
            );
            changed |= pos != faulted.golden().sigmoid(at(raw));
        }
        assert!(changed, "the flipped bit must reach the sampled outputs");
    }

    #[test]
    fn checked_unit_is_send_sync_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<CheckedNacu>();
    }
}
