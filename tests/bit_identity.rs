//! The checked datapath with an empty fault plan is bit-identical to the
//! unchecked [`Nacu`] — the property that keeps the fault subsystem
//! honest: whatever it reports about faults is measured against the exact
//! arithmetic the paper's unit performs, not an approximation of it.
//!
//! σ, tanh and exp (x ≤ 0) are swept over every input code at each
//! `NacuConfig::for_width` width from 10 to 16 bits and at 20 bits (the
//! Q4.15 unit the engine serves through the checked walk, as no response
//! table covers it), with every detector armed: an equal output is also a
//! proof that no detector fires on a healthy unit. Both sweeps together
//! take well under a second at the test profile (`opt-level = 2`).

use nacu::{Function, Nacu, NacuConfig};
use nacu_faults::{CheckedNacu, DetectorSet};
use nacu_fixed::{Fx, Rounding};
use proptest::prelude::*;

fn pair(width: u32) -> (CheckedNacu, Nacu) {
    let cfg = NacuConfig::for_width(width).expect("valid width");
    (
        CheckedNacu::new(cfg)
            .expect("checked")
            .with_detectors(DetectorSet::all()),
        Nacu::new(cfg).expect("golden"),
    )
}

/// Every code of the `width`-bit unit through σ and tanh, every
/// non-positive code through exp.
fn sweep(width: u32) {
    let (c, g) = pair(width);
    let fmt = g.config().format;
    for raw in fmt.raw_codes() {
        let x = Fx::from_raw(raw, fmt).expect("in range");
        let functions: &[Function] = if raw <= 0 {
            &[Function::Sigmoid, Function::Tanh, Function::Exp]
        } else {
            &[Function::Sigmoid, Function::Tanh]
        };
        for &f in functions {
            match c.compute(f, x) {
                Ok(y) => assert_eq!(y, g.compute(f, x), "{f} at {raw}, width {width}"),
                Err(e) => panic!("healthy unit raised {e}: {f} at {raw}, width {width}"),
            }
        }
    }
}

#[test]
fn exhaustive_identity_at_widths_10_to_16() {
    for width in 10..=16 {
        sweep(width);
    }
}

#[test]
fn exhaustive_identity_at_width_20() {
    sweep(20);
}

proptest! {
    #[test]
    fn softmax_matches_golden_bit_for_bit(
        vals in proptest::collection::vec(-8.0_f64..8.0, 1..10),
    ) {
        let (c, g) = pair(16);
        let fmt = g.config().format;
        let xs: Vec<Fx> = vals.iter().map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest)).collect();
        prop_assert_eq!(
            c.softmax(&xs).expect("clean plan"),
            g.softmax(&xs).expect("valid vector")
        );
    }

    #[test]
    fn compute_dispatch_matches_across_widths(
        width in 10_u32..=21,
        frac in 0.0_f64..1.0,
    ) {
        let (c, g) = pair(width);
        let fmt = g.config().format;
        let span = (fmt.max_raw() - fmt.min_raw()) as f64;
        let raw = fmt.min_raw() + (frac * span) as i64;
        let x = Fx::from_raw(raw.clamp(fmt.min_raw(), fmt.max_raw()), fmt).expect("in range");
        for f in [Function::Sigmoid, Function::Tanh] {
            prop_assert_eq!(c.compute(f, x).expect("clean plan"), g.compute(f, x));
        }
        if x.raw() <= 0 {
            prop_assert_eq!(c.exp(x).expect("clean plan"), g.exp(x));
        }
    }
}
