//! The paper's §III fixed-point dimensioning method (Eqs. 6–7).
//!
//! Given a word width `N`, the method finds the minimum integer bits `i_b`
//! such that the input range reaches σ's saturation region before the
//! output resolution `2^{-f_b}` can register any further change:
//!
//! ```text
//! e^{-In_max} < 2^{-f_b_out}
//!   ⇒ 2^{i_b} · (1 − 2^{1−N}) > ln(2) · f_b_out      (Eq. 7)
//! ```
//!
//! The equation has no closed form, so [`min_int_bits`] solves it case by
//! case exactly as the paper prescribes. For `N = 16` it yields `i_b = 4`,
//! `f_b = 11` — the `Q4.11` format used throughout the evaluation.

use nacu_fixed::QFormat;

use crate::NacuError;

/// The largest representable input, `In_max = 2^{i_b} − 2^{−f_b}` (Eq. 6).
#[must_use]
pub fn in_max(format: QFormat) -> f64 {
    format.max_value()
}

/// σ evaluated at `In_max` — how close to 1 the format lets σ get (Eq. 6).
#[must_use]
pub fn sigma_at_in_max(format: QFormat) -> f64 {
    1.0 / (1.0 + (-in_max(format)).exp())
}

/// Checks the Eq. 7 condition for an (input, output) format pair:
/// `2^{i_b_in} · (1 − 2^{1−N_in}) > ln(2) · f_b_out`.
#[must_use]
pub fn eq7_holds(input: QFormat, output: QFormat) -> bool {
    let lhs =
        2.0_f64.powi(input.int_bits() as i32) * (1.0 - 2.0_f64.powi(1 - input.total_bits() as i32));
    lhs > std::f64::consts::LN_2 * f64::from(output.frac_bits())
}

/// Solves Eq. 7 for a fixed word width `N` with identical input and output
/// formats (`i_b_in = i_b_out`, the common case §III recommends): the
/// smallest `i_b` whose induced `f_b = N − 1 − i_b` satisfies the
/// condition.
///
/// Returns `None` for `N < 3` (no room for both an integer and a
/// fractional bit).
#[must_use]
pub fn min_int_bits(total_bits: u32) -> Option<u32> {
    if total_bits < 3 {
        return None;
    }
    (1..total_bits - 1).find(|&ib| {
        let fb = total_bits - 1 - ib;
        let fmt = match QFormat::new(ib, fb) {
            Ok(f) => f,
            Err(_) => return false,
        };
        eq7_holds(fmt, fmt)
    })
}

/// The recommended format for a word width: minimal Eq. 7 integer bits,
/// all remaining bits fractional.
///
/// Returns `None` if the width cannot satisfy Eq. 7 (below 5 bits the
/// inequality has no solution with at least one fractional bit).
#[must_use]
pub fn recommended_format(total_bits: u32) -> Option<QFormat> {
    let ib = min_int_bits(total_bits)?;
    QFormat::new(ib, total_bits - 1 - ib).ok()
}

/// The words the Fig. 2 datapath computes in, each derived from the
/// I/O format `Q(i_b).(f_b)` of width `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatapathWords {
    /// The LUT slope word `Q1.(N−2)`.
    pub coef: QFormat,
    /// The LUT bias word `Q2.(N−3)`; also the divider's working word
    /// (it holds σ ∈ [0.5, 1] and σ′ ∈ [1, 2]).
    pub bias: QFormat,
    /// The softmax denominator accumulator `Q(i_b+7).(N−3)`: the MAC
    /// feedback path widens the working word by the input's integer bits
    /// and 7 guard bits. It is the widest word, so it sets the widest
    /// supported `N`.
    pub acc: QFormat,
}

impl DatapathWords {
    /// The datapath words of `format`.
    ///
    /// # Errors
    ///
    /// [`NacuError::DatapathWordUnfit`] naming the first word that falls
    /// outside the 2 to 63 bits a [`QFormat`] holds.
    pub fn for_format(format: QFormat) -> Result<Self, NacuError> {
        let n = format.total_bits();
        let word = |name, int_bits, frac_bits: Option<u32>| {
            frac_bits
                .and_then(|frac_bits| QFormat::new(int_bits, frac_bits).ok())
                .ok_or(NacuError::DatapathWordUnfit {
                    word: name,
                    total_bits: n,
                })
        };
        Ok(Self {
            coef: word("slope", 1, n.checked_sub(2))?,
            bias: word("bias", 2, n.checked_sub(3))?,
            acc: word(
                "softmax accumulator",
                format.int_bits() + 7,
                n.checked_sub(3),
            )?,
        })
    }
}

/// One row of the §III dimensioning table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatRow {
    /// Word width `N`.
    pub total_bits: u32,
    /// Minimal integer bits from Eq. 7.
    pub int_bits: u32,
    /// Induced fractional bits `N − 1 − i_b`.
    pub frac_bits: u32,
}

/// Solves Eq. 7 for every width in `widths`, skipping unsatisfiable ones.
#[must_use]
pub fn format_table(widths: std::ops::RangeInclusive<u32>) -> Vec<FormatRow> {
    widths
        .filter_map(|n| {
            let ib = min_int_bits(n)?;
            Some(FormatRow {
                total_bits: n,
                int_bits: ib,
                frac_bits: n - 1 - ib,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_bits_give_q4_11() {
        // §III: "to represent the full input range of σ, i_b needs a
        // minimum of 4 bits, and the remaining 11 bits can be allocated as
        // fractional bits".
        assert_eq!(min_int_bits(16), Some(4));
        assert_eq!(recommended_format(16), Some(QFormat::new(4, 11).unwrap()));
    }

    #[test]
    fn eq7_rejects_three_integer_bits_at_n16() {
        let q3_12 = QFormat::new(3, 12).unwrap();
        let q4_11 = QFormat::new(4, 11).unwrap();
        assert!(!eq7_holds(q3_12, q3_12)); // 8 < ln2·12 ≈ 8.32
        assert!(eq7_holds(q4_11, q4_11)); // 16 > ln2·11 ≈ 7.63
    }

    #[test]
    fn saturation_is_within_one_lsb_for_compliant_formats() {
        // The point of Eq. 7: at In_max, 1 − σ(In_max) < 2^{-f_b}.
        for n in 6..=24 {
            let fmt = recommended_format(n).unwrap();
            let gap = 1.0 - sigma_at_in_max(fmt);
            assert!(
                gap < fmt.resolution(),
                "N={n} {fmt}: gap {gap} vs lsb {}",
                fmt.resolution()
            );
        }
    }

    #[test]
    fn minimality_ib_minus_one_always_violates() {
        for n in 6..=24 {
            let ib = min_int_bits(n).unwrap();
            if ib > 1 {
                let fmt = QFormat::new(ib - 1, n - ib).unwrap();
                assert!(!eq7_holds(fmt, fmt), "N={n} i_b={}", ib - 1);
            }
        }
    }

    #[test]
    fn table_covers_related_work_widths() {
        let table = format_table(6..=21);
        assert_eq!(table.len(), 16);
        let n16 = table.iter().find(|r| r.total_bits == 16).unwrap();
        assert_eq!((n16.int_bits, n16.frac_bits), (4, 11));
        // Widths used in Fig. 6c–e comparisons.
        for n in [10, 14, 18, 21] {
            assert!(table.iter().any(|r| r.total_bits == n));
        }
    }

    #[test]
    fn tiny_widths_are_rejected() {
        assert_eq!(min_int_bits(2), None);
        // Width 3: Q1.1 → 2·(1-2^-2)=1.5 > ln2·1=0.69 ✓ so it's actually fine.
        assert_eq!(min_int_bits(3), Some(1));
    }

    #[test]
    fn int_bits_grow_slowly_with_width() {
        // i_b ~ log2(ln2 · f_b): doubling the width adds ~1 integer bit.
        let ib8 = min_int_bits(8).unwrap();
        let ib32 = min_int_bits(32).unwrap();
        assert!(ib32 >= ib8);
        assert!(ib32 - ib8 <= 3);
    }
}
