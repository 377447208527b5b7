//! The Fig. 3 bias-derivation units.
//!
//! §V.A observes that the only operations NACU ever applies to the σ bias
//! `q ∈ [0.5, 1]` are `1 − q`, `2q − 1` and `1 − 2q`, and that over those
//! restricted ranges each reduces to pure bit manipulation — no
//! carry-propagating subtractor needed:
//!
//! * **Fig. 3a** (`1 − q`): integer bits become zero, fractional bits are
//!   two's-complemented;
//! * **Fig. 3b** (`2q − 1`, operand in `[1, 2]`): fractional bits pass
//!   through, integer bit `a₁` propagates into `a₀`;
//! * **Fig. 3c** (`1 + a` with `a = −2q ∈ [−2, −1]`): fractional bits pass
//!   through, all integer (and sign) bits take the inversion of `a₀`.
//!
//! The same Fig. 3b/3c structure implements the exp path's decrementor
//! (`σ′ − 1` with `σ′ ∈ [1, 2]`, §V.B).
//!
//! All functions here operate on **raw codes** with `frac_bits` fractional
//! bits, exactly mirroring the RTL, and every unit is proven equivalent to
//! the arithmetic operation by exhaustive tests over its legal input range.

/// `1 − q` for `q ∈ [0.5, 1]` (Fig. 3a).
///
/// The integer bits of the result are zero; the fractional bits are the
/// two's complement of the input's fractional bits.
///
/// Like the silicon it models, the function is **total**: an operand
/// outside the Fig. 3a precondition (possible only through a faulted ROM,
/// see `nacu-faults`) still produces exactly the bit pattern the
/// circuit would emit — it equals `1 − q` only inside `[0.5, 1]`.
#[must_use]
pub fn one_minus_q(q_raw: i64, frac_bits: u32) -> i64 {
    let one = 1_i64 << frac_bits;
    let mask = one - 1;
    let frac = q_raw & mask;
    // Two's complement of the fractional field, kept inside the field.
    (-frac) & mask
}

/// `a − 1` for `a ∈ [1, 2]` (Fig. 3b) — used both for the tanh positive
/// bias `2q − 1` and for the exp decrementor `σ′ − 1`.
///
/// Fractional bits pass through; integer bit `a₁` is propagated into `a₀`.
/// Total like the circuit: outside `[1, 2]` the result is the wires'
/// output, not `a − 1`.
#[must_use]
pub fn decrement_unit(a_raw: i64, frac_bits: u32) -> i64 {
    let one = 1_i64 << frac_bits;
    let mask = one - 1;
    let frac = a_raw & mask;
    let a1 = (a_raw >> (frac_bits + 1)) & 1;
    (a1 << frac_bits) | frac
}

/// `1 + a` for `a ∈ [−2, −1]` (Fig. 3c) — the tanh negative bias
/// `1 − 2q` with `a = −2q`.
///
/// Fractional bits pass through; every integer (and sign) bit receives the
/// inversion of the operand's integer LSB `a₀`. Total like the circuit:
/// outside `[−2, −1]` the result is the wires' output, not `1 + a`.
#[must_use]
pub fn increment_negative_unit(a_raw: i64, frac_bits: u32) -> i64 {
    let one = 1_i64 << frac_bits;
    let mask = one - 1;
    let frac = a_raw & mask;
    let a0 = (a_raw >> frac_bits) & 1;
    if a0 == 1 {
        // a = −1 exactly (frac is zero): result is 0.
        frac
    } else {
        // Integer/sign field all ones: −1 plus the fractional part.
        (-1_i64 << frac_bits) | frac
    }
}

/// Convenience: `2q − 1` for `q ∈ [0.5, 1]` (applies the doubling shift,
/// then Fig. 3b).
#[must_use]
pub fn two_q_minus_one(q_raw: i64, frac_bits: u32) -> i64 {
    decrement_unit(q_raw << 1, frac_bits)
}

/// Convenience: `1 − 2q` for `q ∈ [0.5, 1]` (doubling shift, two's
/// complement, then Fig. 3c).
#[must_use]
pub fn one_minus_two_q(q_raw: i64, frac_bits: u32) -> i64 {
    increment_negative_unit(-(q_raw << 1), frac_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks a bias unit against plain arithmetic over its
    /// whole legal operand range, for every fractional width up to 13.
    fn exhaustive<F: Fn(i64, u32) -> i64, G: Fn(i64, i64) -> i64>(
        unit: F,
        arithmetic: G,
        range: fn(i64) -> (i64, i64),
    ) {
        for f in 1..=13u32 {
            let one = 1_i64 << f;
            let (lo, hi) = range(one);
            for raw in lo..=hi {
                assert_eq!(
                    unit(raw, f),
                    arithmetic(raw, one),
                    "f={f} raw={raw} ({})",
                    raw as f64 / one as f64
                );
            }
        }
    }

    #[test]
    fn fig3a_equals_subtraction_exhaustively() {
        exhaustive(one_minus_q, |raw, one| one - raw, |one| (one / 2, one));
    }

    #[test]
    fn fig3b_equals_decrement_exhaustively() {
        exhaustive(decrement_unit, |raw, one| raw - one, |one| (one, 2 * one));
    }

    #[test]
    fn fig3c_equals_increment_exhaustively() {
        exhaustive(
            increment_negative_unit,
            |raw, one| one + raw,
            |one| (-2 * one, -one),
        );
    }

    #[test]
    fn derived_tanh_biases_match_arithmetic() {
        let f = 13u32;
        let one = 1_i64 << f;
        for q_raw in one / 2..=one {
            assert_eq!(two_q_minus_one(q_raw, f), 2 * q_raw - one, "q={q_raw}");
            assert_eq!(one_minus_two_q(q_raw, f), one - 2 * q_raw, "q={q_raw}");
        }
    }

    #[test]
    fn paper_walkthrough_values() {
        // q = 0.75 at f = 4: raw 12, one = 16.
        assert_eq!(one_minus_q(12, 4), 4); // 1 - 0.75 = 0.25
        assert_eq!(two_q_minus_one(12, 4), 8); // 2·0.75 - 1 = 0.5
        assert_eq!(one_minus_two_q(12, 4), -8); // 1 - 1.5 = -0.5
                                                // Saturation entry q = 1: raw 16.
        assert_eq!(one_minus_q(16, 4), 0);
        assert_eq!(two_q_minus_one(16, 4), 16); // 2 - 1 = 1
        assert_eq!(one_minus_two_q(16, 4), -16); // 1 - 2 = -1
    }

    #[test]
    fn decrement_unit_serves_the_exp_path() {
        // σ' = 1/σ(−x) ∈ [1, 2]; σ' − 1 = e^x (§V.B). Example σ' = 1.5.
        let f = 11u32;
        let sigma_prime = (1.5 * f64::from(1 << f)) as i64;
        assert_eq!(decrement_unit(sigma_prime, f), (1 << f) / 2);
    }

    #[test]
    fn units_are_total_outside_their_preconditions() {
        // Silicon has no asserts: an out-of-range operand (a faulted ROM
        // word) still yields a well-defined bit pattern. The value is the
        // circuit's, not the arithmetic identity's.
        for f in [4u32, 11, 13] {
            let one = 1_i64 << f;
            for raw in [-3 * one, -1, 0, 3, 3 * one] {
                let _ = one_minus_q(raw, f);
                let _ = decrement_unit(raw, f);
                let _ = increment_negative_unit(raw, f);
            }
        }
        // Spot check: the Fig. 3a trick on q = 0.1875 (raw 3, f = 4)
        // emits the two's complement of the fraction — 13/16 — which is
        // NOT 1 − 0.1875; the identity only holds inside [0.5, 1].
        assert_eq!(one_minus_q(3, 4), 13);
    }
}
