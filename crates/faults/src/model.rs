//! Fault models: which net, which bit, what kind of damage, and when.
//!
//! A [`Fault`] is the reproducible unit of a campaign: a named
//! [`InjectionSite`] (a datapath net of Fig. 2/Fig. 3), a bit position, a
//! [`FaultKind`] and a seed. Stuck-at faults are permanent — the bit reads
//! the forced value on every event at the site — while a
//! [`FaultKind::Transient`] strikes exactly once, at an event index
//! derived deterministically from the seed (a single-event upset). Every
//! fault is applied as a raw-code mask on the site's stored two's
//! complement pattern, so a campaign row is fully reproducible from its
//! `(site, bit, kind, seed)` tuple plus the unit configuration.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named net of the NACU datapath where a fault can be injected.
///
/// The LUT sites address one coefficient-ROM entry (carried separately in
/// [`Fault::entry`]); the remaining sites are dynamic nets whose events
/// are counted per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InjectionSite {
    /// The stored slope word `m₁` of one coefficient-ROM entry.
    LutSlope,
    /// The stored bias word `q` of one coefficient-ROM entry.
    LutBias,
    /// The MAC's slope operand latch (port A of the Fig. 2 multiplier).
    MacOperandA,
    /// The MAC's magnitude operand latch (port B of the multiplier).
    MacOperandB,
    /// The MAC's widened accumulator register (pre-round sum).
    MacAccumulator,
    /// The Fig. 3 bias-transform output word feeding the MAC bias port.
    BiasOut,
    /// The σ output register (post-round, pre-saturation) — also the exp
    /// path's divider operand register.
    SigmaOut,
}

impl InjectionSite {
    /// Every injectable site, in campaign sweep order.
    #[must_use]
    pub fn all() -> [InjectionSite; 7] {
        [
            InjectionSite::LutSlope,
            InjectionSite::LutBias,
            InjectionSite::MacOperandA,
            InjectionSite::MacOperandB,
            InjectionSite::MacAccumulator,
            InjectionSite::BiasOut,
            InjectionSite::SigmaOut,
        ]
    }

    /// True for the coefficient-ROM sites that address a LUT entry.
    #[must_use]
    pub fn is_lut(self) -> bool {
        matches!(self, InjectionSite::LutSlope | InjectionSite::LutBias)
    }

    /// Short stable name for reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InjectionSite::LutSlope => "lut_slope",
            InjectionSite::LutBias => "lut_bias",
            InjectionSite::MacOperandA => "mac_a",
            InjectionSite::MacOperandB => "mac_b",
            InjectionSite::MacAccumulator => "mac_acc",
            InjectionSite::BiasOut => "bias_out",
            InjectionSite::SigmaOut => "sigma_out",
        }
    }
}

impl std::fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the fault does to its bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The bit reads 0 on every event (a short to ground).
    StuckAt0,
    /// The bit reads 1 on every event (a short to supply).
    StuckAt1,
    /// The bit flips on exactly one event — the single-event upset. The
    /// struck event index is `seed`-derived (see
    /// [`Fault::transient_strike`]).
    Transient,
}

impl FaultKind {
    /// Short stable name for reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::StuckAt0 => "stuck_at_0",
            FaultKind::StuckAt1 => "stuck_at_1",
            FaultKind::Transient => "transient",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Transient strikes land within this many events of the site — the
/// deterministic "campaign window" a seeded single-event upset is drawn
/// from. Sweeps that want to observe a transient must generate at least
/// this many events at its site.
pub const TRANSIENT_WINDOW: u64 = 256;

/// One reproducible fault: `(site, bit, kind, seed)` plus the ROM entry
/// for LUT sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The net the fault lives on.
    pub site: InjectionSite,
    /// Coefficient-ROM entry for LUT sites; ignored (use `None`) for
    /// dynamic nets.
    pub entry: Option<usize>,
    /// Bit position within the site's word, 0 = LSB.
    pub bit: u32,
    /// Stuck-at or transient.
    pub kind: FaultKind,
    /// Seed for timing a transient strike; stuck-at faults ignore it.
    pub seed: u64,
}

impl Fault {
    /// A permanent stuck-at fault on a dynamic net.
    #[must_use]
    pub fn stuck(site: InjectionSite, bit: u32, value: bool) -> Self {
        Self {
            site,
            entry: None,
            bit,
            kind: if value {
                FaultKind::StuckAt1
            } else {
                FaultKind::StuckAt0
            },
            seed: 0,
        }
    }

    /// A permanent stuck-at fault on one coefficient-ROM word.
    #[must_use]
    pub fn stuck_lut(site: InjectionSite, entry: usize, bit: u32, value: bool) -> Self {
        assert!(site.is_lut(), "stuck_lut takes a LUT site, got {site}");
        Self {
            entry: Some(entry),
            ..Self::stuck(site, bit, value)
        }
    }

    /// A seeded single-event upset on a dynamic net.
    #[must_use]
    pub fn transient(site: InjectionSite, bit: u32, seed: u64) -> Self {
        Self {
            site,
            entry: None,
            bit,
            kind: FaultKind::Transient,
            seed,
        }
    }

    /// The event index (0-based, within [`TRANSIENT_WINDOW`]) at which a
    /// transient fault strikes — a pure function of the `(site, bit,
    /// seed)` tuple, so campaigns replay exactly.
    #[must_use]
    pub fn transient_strike(&self) -> u64 {
        let salt = (self.site.name().len() as u64) << 32 | u64::from(self.bit);
        splitmix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % TRANSIENT_WINDOW
    }

    /// Applies the fault's mask to a stored pattern of `bits` width,
    /// keeping two's-complement sign extension. Used directly for
    /// permanent ROM corruption; dynamic sites go through
    /// [`FaultPlan::tap`] so transients can count events.
    #[must_use]
    pub fn corrupt_word(&self, raw: i64, bits: u32) -> i64 {
        apply_mask(raw.into(), bits.min(63), self.bit, self.kind) as i64
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.entry {
            Some(entry) => write!(
                f,
                "{}[{entry}] bit {} {} (seed {})",
                self.site, self.bit, self.kind, self.seed
            ),
            None => write!(
                f,
                "{} bit {} {} (seed {})",
                self.site, self.bit, self.kind, self.seed
            ),
        }
    }
}

/// SplitMix64 — the standard seed scrambler (Steele et al.), used to turn
/// a campaign seed into a strike index without a RNG dependency.
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Masks `raw` down to `bits` (at most 126), applies the bit operation,
/// sign-extends back — exactly how a stuck/flipped wire corrupts a
/// stored word.
#[must_use]
fn apply_mask(raw: i128, bits: u32, bit: u32, kind: FaultKind) -> i128 {
    let bits = bits.min(126);
    let bit = bit.min(bits.saturating_sub(1));
    let mask = (1_i128 << bits) - 1;
    let mut pattern = raw & mask;
    pattern = match kind {
        FaultKind::StuckAt0 => pattern & !(1_i128 << bit),
        FaultKind::StuckAt1 => pattern | (1_i128 << bit),
        FaultKind::Transient => pattern ^ (1_i128 << bit),
    };
    if pattern & (1_i128 << (bits - 1)) != 0 {
        pattern - (1_i128 << bits)
    } else {
        pattern
    }
}

/// One armed fault plus its per-unit event counter (transients need to
/// know *which* event at the site they strike).
#[derive(Debug)]
struct Injector {
    fault: Fault,
    strike: u64,
    events: AtomicU64,
}

impl Injector {
    fn new(fault: Fault) -> Self {
        Self {
            strike: fault.transient_strike(),
            events: AtomicU64::new(0),
            fault,
        }
    }

    /// Counts one event at the site and says whether the fault corrupts
    /// it: stuck-ats corrupt every event, a transient only its struck
    /// one.
    fn strikes(&self) -> bool {
        match self.fault.kind {
            FaultKind::StuckAt0 | FaultKind::StuckAt1 => true,
            FaultKind::Transient => self.events.fetch_add(1, Ordering::Relaxed) == self.strike,
        }
    }
}

impl Clone for Injector {
    fn clone(&self) -> Self {
        // A clone is a fresh physical unit carrying the same fault: its
        // event history restarts.
        Self::new(self.fault)
    }
}

/// The set of faults armed on one unit.
///
/// Cloning a plan clones the *faults*, not the event history — a cloned
/// plan behaves like a second physical unit suffering the same defects.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    injectors: Vec<Injector>,
}

impl PartialEq for FaultPlan {
    /// Plans compare by their armed faults; the event history (how many
    /// taps each injector has seen on *this* unit) is runtime state, not
    /// part of the plan's identity.
    fn eq(&self, other: &Self) -> bool {
        self.faults() == other.faults()
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// An empty plan (a healthy unit).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan carrying exactly one fault.
    #[must_use]
    pub fn single(fault: Fault) -> Self {
        Self::new().with(fault)
    }

    /// Arms an additional fault.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.push(fault);
        self
    }

    /// Arms an additional fault in place.
    pub fn push(&mut self, fault: Fault) {
        self.injectors.push(Injector::new(fault));
    }

    /// True when no fault is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.injectors.is_empty()
    }

    /// The armed faults.
    #[must_use]
    pub fn faults(&self) -> Vec<Fault> {
        self.injectors.iter().map(|i| i.fault).collect()
    }

    /// The permanent (stuck-at) LUT faults, for baking into stored ROM
    /// words at unit construction.
    pub(crate) fn permanent_lut_faults(&self) -> impl Iterator<Item = &Fault> {
        self.injectors
            .iter()
            .map(|i| &i.fault)
            .filter(|f| f.site.is_lut() && !matches!(f.kind, FaultKind::Transient))
    }

    /// Taps one event at a dynamic site (or a transient ROM read for LUT
    /// sites): every matching armed fault corrupts the value in turn.
    #[must_use]
    pub(crate) fn tap(
        &self,
        site: InjectionSite,
        entry: Option<usize>,
        raw: i64,
        bits: u32,
    ) -> i64 {
        let mut value = raw;
        for injector in &self.injectors {
            let f = &injector.fault;
            let matches_site = f.site == site
                && (!site.is_lut() || matches!(f.kind, FaultKind::Transient) && f.entry == entry);
            if matches_site && injector.strikes() {
                value = f.corrupt_word(value, bits);
            }
        }
        value
    }

    /// Taps the widened accumulator (an `i128` net).
    #[must_use]
    pub(crate) fn tap_wide(&self, site: InjectionSite, raw: i128, bits: u32) -> i128 {
        let mut value = raw;
        for injector in &self.injectors {
            let f = &injector.fault;
            if f.site == site && injector.strikes() {
                value = apply_mask(value, bits, f.bit, f.kind);
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_masks_are_idempotent() {
        for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
            for bit in 0..16 {
                for raw in [-32768_i128, -1, 0, 1, 12345, 32767] {
                    let once = apply_mask(raw, 16, bit, kind);
                    let twice = apply_mask(once, 16, bit, kind);
                    assert_eq!(once, twice, "{kind} bit {bit} raw {raw}");
                }
            }
        }
    }

    #[test]
    fn flip_is_an_involution_and_preserves_sign_extension() {
        for bit in 0..16 {
            for raw in [-32768_i128, -1, 0, 1, 12345, 32767] {
                let once = apply_mask(raw, 16, bit, FaultKind::Transient);
                assert_ne!(once, raw, "bit {bit} must change raw {raw}");
                assert_eq!(apply_mask(once, 16, bit, FaultKind::Transient), raw);
                assert!((-32768..=32767).contains(&once), "stays a 16-bit word");
            }
        }
    }

    #[test]
    fn sign_bit_fault_flips_the_sign() {
        assert_eq!(apply_mask(0, 16, 15, FaultKind::StuckAt1), -32768);
        assert_eq!(apply_mask(-1, 16, 15, FaultKind::StuckAt0), 32767);
    }

    #[test]
    fn transient_strike_is_deterministic_and_in_window() {
        let f = Fault::transient(InjectionSite::MacOperandA, 3, 42);
        let s = f.transient_strike();
        assert!(s < TRANSIENT_WINDOW);
        assert_eq!(s, f.transient_strike());
        // Different seed, (almost surely) different strike — at minimum,
        // the function must depend on the seed somewhere in a small set.
        let strikes: std::collections::HashSet<u64> = (0..32)
            .map(|seed| Fault::transient(InjectionSite::MacOperandA, 3, seed).transient_strike())
            .collect();
        assert!(strikes.len() > 8, "strikes barely vary with the seed");
    }

    #[test]
    fn transient_tap_strikes_exactly_once() {
        let fault = Fault::transient(InjectionSite::SigmaOut, 5, 7);
        let plan = FaultPlan::single(fault);
        let strike = fault.transient_strike();
        let mut corrupted = 0;
        for event in 0..TRANSIENT_WINDOW {
            let out = plan.tap(InjectionSite::SigmaOut, None, 100, 16);
            if out != 100 {
                corrupted += 1;
                assert_eq!(event, strike, "strike lands at the seeded event");
                assert_eq!(out, 100 ^ (1 << 5));
            }
        }
        assert_eq!(corrupted, 1);
    }

    #[test]
    fn cloned_plan_restarts_event_history() {
        let fault = Fault::transient(InjectionSite::MacOperandB, 2, 9);
        let plan = FaultPlan::single(fault);
        let strike = fault.transient_strike();
        for _ in 0..=strike {
            let _ = plan.tap(InjectionSite::MacOperandB, None, 0, 16);
        }
        // The original has already struck; a clone has not.
        let clone = plan.clone();
        let mut hit = false;
        for _ in 0..TRANSIENT_WINDOW {
            if clone.tap(InjectionSite::MacOperandB, None, 0, 16) != 0 {
                hit = true;
            }
        }
        assert!(hit, "the cloned unit suffers its own strike");
    }

    #[test]
    fn tap_ignores_other_sites_and_other_entries() {
        let plan = FaultPlan::single(Fault::stuck_lut(InjectionSite::LutSlope, 4, 0, true));
        // Permanent LUT faults are baked at construction, not tapped.
        assert_eq!(plan.tap(InjectionSite::LutSlope, Some(4), 0, 16), 0);
        assert_eq!(plan.tap(InjectionSite::MacOperandA, None, 0, 16), 0);
        let transient = FaultPlan::single(Fault {
            site: InjectionSite::LutBias,
            entry: Some(2),
            bit: 0,
            kind: FaultKind::Transient,
            seed: 0,
        });
        // A read of a different entry never strikes.
        for _ in 0..2 * TRANSIENT_WINDOW {
            assert_eq!(transient.tap(InjectionSite::LutBias, Some(3), 8, 16), 8);
        }
    }

    #[test]
    #[should_panic(expected = "LUT site")]
    fn stuck_lut_rejects_dynamic_sites() {
        let _ = Fault::stuck_lut(InjectionSite::MacOperandA, 0, 0, true);
    }
}
