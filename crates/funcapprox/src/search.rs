//! The Fig. 4 design-space search.
//!
//! "For the implementations presented in Fig. 4, all possible interval
//! sizes, ranges and fixed-point formats were explored, and the one with
//! the best accuracy was selected." This module reproduces that procedure:
//! for each family it finds (a) the minimum entry count achieving a target
//! accuracy (Fig. 4a) and (b) the best accuracy achievable at a given entry
//! count (Fig. 4b).

use std::fmt;

use nacu_fixed::QFormat;

use crate::approx::{ApproxError, FixedApprox};
use crate::metrics;
use crate::reference::RefFunc;
use crate::{NonUniformPwl, RangeLut, UniformLut, UniformPwl};

/// Upper bound on table sizes the search will consider; matches the largest
/// LUT Fig. 4a reports (~1026 entries at 10 fractional bits) with headroom.
const SEARCH_CEILING: usize = 1 << 13;

/// The four §VI approximation families, as search handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Family {
    /// Uniform constant LUT.
    Lut,
    /// Range-addressable (non-uniform) constant LUT.
    Ralut,
    /// Uniform piecewise-linear table.
    Pwl,
    /// Non-uniform piecewise-linear table.
    Nupwl,
}

impl Family {
    /// All families, in the order Fig. 4 plots them.
    #[must_use]
    pub fn all() -> [Family; 4] {
        [Family::Lut, Family::Ralut, Family::Pwl, Family::Nupwl]
    }

    /// Builds a table of this family with (at most) `entries` entries.
    ///
    /// # Errors
    ///
    /// Propagates the family constructor's [`ApproxError`].
    pub fn build(
        &self,
        func: RefFunc,
        entries: usize,
        in_fmt: QFormat,
        out_fmt: QFormat,
    ) -> Result<Box<dyn FixedApprox>, ApproxError> {
        Ok(match self {
            Family::Lut => Box::new(UniformLut::fit(func, entries, in_fmt, out_fmt)?),
            Family::Ralut => Box::new(RangeLut::fit_entries(func, entries, in_fmt, out_fmt)?),
            Family::Pwl => Box::new(UniformPwl::fit(func, entries, in_fmt, out_fmt)?),
            Family::Nupwl => Box::new(NonUniformPwl::fit_entries(func, entries, in_fmt, out_fmt)?),
        })
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Family::Lut => "LUT",
            Family::Ralut => "RALUT",
            Family::Pwl => "PWL",
            Family::Nupwl => "NUPWL",
        };
        f.write_str(name)
    }
}

/// Measured max error of the best table of `family` with exactly (uniform
/// families) or at most (non-uniform families) `entries` entries.
///
/// Returns `None` if the table cannot be built (e.g. more entries than
/// input codes).
#[must_use]
pub fn best_max_error(
    family: Family,
    func: RefFunc,
    entries: usize,
    in_fmt: QFormat,
    out_fmt: QFormat,
) -> Option<f64> {
    let table = family.build(func, entries, in_fmt, out_fmt).ok()?;
    Some(metrics::sweep(table.as_ref(), func).max_error)
}

/// Minimum entry count for which `family` achieves a swept max error of at
/// most `tolerance` — one point of Fig. 4a.
///
/// Returns `None` if even 2^13 entries cannot reach the
/// tolerance (it is below the quantisation floor of `out_fmt`).
#[must_use]
pub fn min_entries(
    family: Family,
    func: RefFunc,
    tolerance: f64,
    in_fmt: QFormat,
    out_fmt: QFormat,
) -> Option<usize> {
    // Non-uniform families: the greedy construction is *directly*
    // tolerance-driven, so instead of a nested entries-bisection (which
    // squares the search cost) build at a few fractions of the target —
    // the measured error exceeds the fit tolerance only by quantisation,
    // so a small back-off always lands.
    match family {
        Family::Ralut | Family::Nupwl => {
            return min_entries_tolerance_driven(family, func, tolerance, in_fmt, out_fmt);
        }
        Family::Lut | Family::Pwl => {}
    }
    let reaches = |entries: usize| -> bool {
        best_max_error(family, func, entries, in_fmt, out_fmt).is_some_and(|err| err <= tolerance)
    };
    // A table can have at most one entry per representable input code.
    let ceiling = SEARCH_CEILING.min(usize::try_from(in_fmt.max_raw()).unwrap_or(usize::MAX));
    if !reaches(ceiling) {
        return None;
    }
    // Exponential probe then binary search: error is monotone (within
    // quantisation noise) in the entry count.
    let mut hi = 1usize;
    while hi < ceiling && !reaches(hi.min(ceiling)) {
        hi *= 2;
    }
    let mut hi = hi.min(ceiling);
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Smallest integer-bit count satisfying the paper's Eq. 7 for a given
/// fractional-bit target:
/// `2^{i_b} · (1 − 2^{1−N}) > ln(2) · f_b` with `N = 1 + i_b + f_b`.
///
/// This is the "range" dimension of the Fig. 4 exploration — e.g. `f_b =
/// 10` needs only `i_b = 3` (domain `[0, 8)`), while `f_b = 11` needs
/// `i_b = 4`, which is how the paper's 16-bit format becomes `Q4.11`.
#[must_use]
pub fn eq7_min_int_bits(frac_bits: u32) -> u32 {
    let fb = f64::from(frac_bits);
    for ib in 0..32u32 {
        let n = 1 + ib + frac_bits;
        let lhs = 2.0_f64.powi(ib as i32) * (1.0 - 2.0_f64.powi(1 - n as i32));
        if lhs > std::f64::consts::LN_2 * fb {
            return ib;
        }
    }
    unreachable!("Eq. 7 is satisfiable for every frac_bits < 2^31 / ln 2")
}

/// Tolerance-driven entry minimisation for the greedy families.
fn min_entries_tolerance_driven(
    family: Family,
    func: RefFunc,
    tolerance: f64,
    in_fmt: QFormat,
    out_fmt: QFormat,
) -> Option<usize> {
    let build = |tol: f64| -> Option<Box<dyn FixedApprox>> {
        match family {
            Family::Ralut => RangeLut::fit_tolerance(func, tol, in_fmt, out_fmt)
                .ok()
                .map(|t| Box::new(t) as Box<dyn FixedApprox>),
            Family::Nupwl => NonUniformPwl::fit_tolerance(func, tol, in_fmt, out_fmt)
                .ok()
                .map(|t| Box::new(t) as Box<dyn FixedApprox>),
            Family::Lut | Family::Pwl => unreachable!("uniform families use bisection"),
        }
    };
    // Leave progressively more of the budget to quantisation.
    for backoff in [0.9, 0.75, 0.5, 0.25, 0.1] {
        if let Some(table) = build(tolerance * backoff) {
            if table.entries() <= SEARCH_CEILING
                && metrics::sweep(table.as_ref(), func).max_error <= tolerance
            {
                return Some(table.entries());
            }
        }
    }
    None
}

/// One row of the Fig. 4a series: entries needed per family at a given
/// output precision (tolerance `2^{-frac_bits}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntriesRow {
    /// Fractional bits defining the accuracy target.
    pub frac_bits: u32,
    /// Entries needed per family (ordered as [`Family::all`]); `None` where
    /// unreachable.
    pub entries: [Option<usize>; 4],
}

/// Computes the Fig. 4a series: for each fractional-bit count, the minimum
/// entries per family to push the max error below one output LSB
/// (`2^{-f_b}`).
///
/// The input format follows the paper's Eq. 7 dimensioning
/// ([`eq7_min_int_bits`]): the smallest range in which the function
/// saturates within one output LSB — the "ranges" axis of the paper's
/// exploration.
#[must_use]
pub fn fig4a_series(
    func: RefFunc,
    frac_bits_range: std::ops::RangeInclusive<u32>,
) -> Vec<EntriesRow> {
    frac_bits_range
        .map(|fb| {
            let fmt = QFormat::new(eq7_min_int_bits(fb), fb).expect("valid sweep format");
            let tol = 2.0_f64.powi(-(fb as i32));
            let mut entries = [None; 4];
            for (i, family) in Family::all().into_iter().enumerate() {
                entries[i] = min_entries(family, func, tol, fmt, fmt);
            }
            EntriesRow {
                frac_bits: fb,
                entries,
            }
        })
        .collect()
}

/// One row of the Fig. 4b series: max error per family at a given entry
/// count, with 11 fractional bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRow {
    /// Table entry count.
    pub entries: usize,
    /// Max error per family (ordered as [`Family::all`]); `None` where the
    /// table cannot be built.
    pub max_error: [Option<f64>; 4],
}

/// Computes the Fig. 4b series: max error vs entry count at a fixed format.
#[must_use]
pub fn fig4b_series(func: RefFunc, entry_counts: &[usize], fmt: QFormat) -> Vec<ErrorRow> {
    entry_counts
        .iter()
        .map(|&entries| {
            let mut max_error = [None; 4];
            for (i, family) in Family::all().into_iter().enumerate() {
                max_error[i] = best_max_error(family, func, entries, fmt, fmt);
            }
            ErrorRow { entries, max_error }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(fb: u32) -> QFormat {
        QFormat::new(eq7_min_int_bits(fb), fb).unwrap()
    }

    #[test]
    fn eq7_minimal_ranges() {
        // With f_b free-standing, Eq. 7 needs 2^ib ≳ ln2·f_b. (The §III
        // N=16 → Q4.11 result fixes N instead; that solver lives in the
        // `nacu` crate's format module.)
        assert_eq!(eq7_min_int_bits(10), 3); // 8 > 6.93
        assert_eq!(eq7_min_int_bits(11), 3); // 8 > 7.63
        assert_eq!(eq7_min_int_bits(12), 4); // 8 < 8.32, 16 > 8.32
        assert_eq!(eq7_min_int_bits(22), 4);
        assert_eq!(eq7_min_int_bits(24), 5);
    }

    #[test]
    fn pwl_needs_far_fewer_entries_than_lut() {
        // Fig. 4a headline: at 10 fractional bits, PWL ≈ 50 entries vs
        // LUT ≈ 1026 and RALUT ≈ 668 (we assert the orders of magnitude).
        let f = fmt(10);
        let tol = 2.0_f64.powi(-10);
        let pwl = min_entries(Family::Pwl, RefFunc::Sigmoid, tol, f, f).unwrap();
        let lut = min_entries(Family::Lut, RefFunc::Sigmoid, tol, f, f).unwrap();
        assert!(pwl < 100, "PWL needed {pwl}");
        assert!(lut > 400, "LUT needed {lut}");
        assert!(lut > 8 * pwl, "LUT {lut} vs PWL {pwl}");
    }

    #[test]
    fn ralut_sits_between_lut_and_pwl() {
        let f = fmt(8);
        let tol = 2.0_f64.powi(-8);
        let lut = min_entries(Family::Lut, RefFunc::Sigmoid, tol, f, f).unwrap();
        let ralut = min_entries(Family::Ralut, RefFunc::Sigmoid, tol, f, f).unwrap();
        let pwl = min_entries(Family::Pwl, RefFunc::Sigmoid, tol, f, f).unwrap();
        assert!(ralut < lut, "RALUT {ralut} should beat LUT {lut}");
        assert!(pwl < ralut, "PWL {pwl} should beat RALUT {ralut}");
    }

    #[test]
    fn unreachable_tolerance_returns_none() {
        let f = fmt(6);
        // 2^-20 is far below the 6-fractional-bit quantisation floor.
        assert_eq!(
            min_entries(Family::Pwl, RefFunc::Sigmoid, 2.0_f64.powi(-20), f, f),
            None
        );
    }

    #[test]
    fn fig4b_errors_flatten_at_quantisation_floor() {
        let f = fmt(11);
        let rows = fig4b_series(RefFunc::Sigmoid, &[8, 64, 512], f);
        let pwl_idx = 2;
        let e8 = rows[0].max_error[pwl_idx].unwrap();
        let e64 = rows[1].max_error[pwl_idx].unwrap();
        let e512 = rows[2].max_error[pwl_idx].unwrap();
        assert!(e64 < e8);
        // Past the knee the improvement is marginal (quantisation floor).
        assert!(e512 > e64 / 20.0);
        assert!(e512 >= 2.0_f64.powi(-13), "cannot beat the output LSB");
    }

    #[test]
    fn orderings_hold_for_tanh_and_exp_too() {
        // Fig. 4 plots σ, but the search machinery is function-generic;
        // the family ordering must hold for the other two NACU functions.
        for func in [RefFunc::Tanh, RefFunc::ExpNeg] {
            let f = fmt(7);
            let tol = 2.0_f64.powi(-7);
            let pwl = min_entries(Family::Pwl, func, tol, f, f).unwrap();
            match min_entries(Family::Lut, func, tol, f, f) {
                // tanh: the LUT needs ~1000 entries where PWL needs ~30.
                Some(lut) => assert!(10 * pwl < lut, "{func:?}: PWL {pwl} vs LUT {lut}"),
                // exp at f_b = 7 has a unit gradient at 0: the LUT would
                // need one entry per input code — unreachable, while PWL
                // manages with a few dozen. The strongest ordering.
                None => assert!(pwl < 100, "{func:?}: PWL {pwl}"),
            }
        }
    }

    #[test]
    fn family_display_and_build() {
        let f = fmt(8);
        for family in Family::all() {
            let t = family.build(RefFunc::Tanh, 32, f, f).unwrap();
            assert_eq!(t.family(), family.to_string());
            assert!(t.entries() <= 32);
        }
    }
}
