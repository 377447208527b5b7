//! The checked datapath with an empty fault plan is bit-identical to the
//! unchecked [`Nacu`] — the property that keeps the fault subsystem
//! honest: whatever it reports about faults is measured against the exact
//! arithmetic the paper's unit performs, not an approximation of it.
//!
//! σ, tanh and exp (x ≤ 0) are swept over every input code at each
//! `NacuConfig::for_width` width from 10 to 16 bits and at 20 bits (the
//! Q4.15 unit, which no response table covers), with every detector
//! armed: an equal output is also a proof that no detector fires on a
//! healthy unit. Both sweeps together take well under a second at the
//! test profile (`opt-level = 2`).
//!
//! The same widths prove the serving kernel ([`Nacu::kernel_in_place`],
//! [`Nacu::kernel_softmax`]) against the walk: every code of σ, tanh and
//! exp, and seeded softmax vectors plus the Eq. 13 edge cases. A seeded,
//! sampled sweep extends that proof to every width a unit can be built
//! at. A healthy engine answers from the kernel (or tables the kernel
//! built) at every width, so these sweeps are what keep its replies
//! golden.

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

/// The configurations the kernel is proven on: every `for_width` width
/// from 10 to 16 bits and 20 bits, plus the densest ROM validation
/// allows at 10 bits (one entry per code but one, so the multiply-shift
/// address guess lands one segment low on most addresses) and the
/// coarsest (4 entries).
fn kernel_configs() -> Vec<NacuConfig> {
    let mut configs: Vec<NacuConfig> = (10..=16)
        .chain([20])
        .map(|width| NacuConfig::for_width(width).expect("valid width"))
        .collect();
    let narrow = NacuConfig::for_width(10).expect("valid width");
    let densest = usize::try_from(narrow.format.max_raw()).expect("positive");
    configs.push(narrow.with_lut_entries(densest));
    configs.push(narrow.with_lut_entries(4));
    configs
}

#[test]
fn kernel_equals_the_walk_on_every_code() {
    for config in kernel_configs() {
        let g = Nacu::new(config).expect("golden");
        let fmt = config.format;
        let codes: Vec<Fx> = fmt
            .raw_codes()
            .map(|raw| Fx::from_raw(raw, fmt).expect("in range"))
            .collect();
        for f in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let mut ys = codes.clone();
            g.kernel_in_place(f, &mut ys);
            for (&x, &y) in codes.iter().zip(&ys) {
                assert_eq!(y, g.compute(f, x), "{f} at {x:?}, {config:?}");
                assert_eq!(g.kernel(f, x.raw()), y.raw(), "{f} scalar at {x:?}");
            }
        }
    }
}

/// SplitMix64, for reproducible softmax vectors.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn assert_kernel_softmax(g: &Nacu, xs: &[Fx], case: &str) {
    let mut ys = xs.to_vec();
    g.kernel_softmax(&mut ys).expect("valid vector");
    assert_eq!(
        ys,
        g.softmax(xs).expect("valid vector"),
        "{case}: {:?}",
        g.config()
    );
}

#[test]
fn kernel_softmax_equals_the_walk() {
    let mut seed = 0x5EED_u64;
    for config in kernel_configs() {
        let g = Nacu::new(config).expect("golden");
        let fmt = config.format;
        let code = |bits: u64| {
            let span = (fmt.max_raw() - fmt.min_raw() + 1) as u64;
            Fx::from_raw(fmt.min_raw() + (bits % span) as i64, fmt).expect("in range")
        };
        // Seeded vectors: uniform codes, and codes within a few units of
        // each other so the exps do not all underflow to zero.
        for round in 0..2_000 {
            let len = 1 + (splitmix(&mut seed) % 40) as usize;
            let xs: Vec<Fx> = if round % 2 == 0 {
                (0..len).map(|_| code(splitmix(&mut seed))).collect()
            } else {
                let base = code(splitmix(&mut seed)).raw();
                let spread = (4 << fmt.frac_bits()) as u64;
                (0..len)
                    .map(|_| {
                        let raw = base + (splitmix(&mut seed) % spread) as i64;
                        Fx::from_raw_saturating(raw - spread as i64 / 2, fmt)
                    })
                    .collect()
            };
            assert_kernel_softmax(&g, &xs, "seeded");
        }
        let (lo, hi) = (Fx::min(fmt), Fx::max(fmt));
        let zero = Fx::zero(fmt);
        assert_kernel_softmax(&g, &[code(splitmix(&mut seed))], "length 1");
        assert_kernel_softmax(&g, &[lo], "length 1, minimum");
        assert_kernel_softmax(&g, &[code(7); 9], "all equal");
        assert_kernel_softmax(&g, &[lo, hi, lo, zero, hi], "min/max mix");
        assert_kernel_softmax(&g, &[lo, lo, lo], "all minimum");
        assert_kernel_softmax(&g, &[hi, hi, lo, lo], "max and min pairs");
        // e(0) is about 1.0, so 2^(int_bits + 8) equal elements sum to
        // about twice the accumulator's Q(int_bits + 7) maximum.
        let long = 1_usize << (fmt.int_bits() + 8);
        assert_kernel_softmax(&g, &vec![hi; long], "saturating accumulator");
        let mut mixed = vec![zero; long];
        mixed[long / 3] = lo;
        assert_kernel_softmax(&g, &mixed, "saturating accumulator, one minimum");
    }
}

#[test]
fn kernel_softmax_rejects_what_softmax_rejects() {
    let g = Nacu::new(NacuConfig::paper_16bit()).expect("golden");
    assert!(matches!(
        g.kernel_softmax(&mut []),
        Err(nacu::NacuError::EmptyVector)
    ));
    let alien = Fx::zero(nacu_fixed::QFormat::new(2, 13).expect("format"));
    let mut xs = [alien];
    assert!(g.kernel_softmax(&mut xs).is_err());
    assert_eq!(xs, [alien], "a rejected vector is left untouched");
}

/// The widths at which a unit can be built: `NacuConfig::for_width`
/// refuses 3 bits (a 4-entry LUT over 4 codes) and everything past
/// `NacuConfig::max_width`, where the softmax accumulator outgrows 63
/// bits.
fn swept_widths() -> std::ops::RangeInclusive<u32> {
    4..=NacuConfig::max_width()
}

/// `for_width` then `Nacu::new` at every width up to 64 answers `Ok` or a
/// typed `Err` and never panics (the test profile checks every integer
/// overflow), the widths that build are exactly [`swept_widths`], and
/// every unit that builds computes a small softmax.
#[test]
fn every_width_builds_or_refuses_without_panicking() {
    let mut built = Vec::new();
    for width in 1..=64 {
        let unit = match NacuConfig::for_width(width).and_then(Nacu::new) {
            Ok(unit) => unit,
            Err(e) => {
                if width > NacuConfig::max_width() && width < 64 {
                    assert!(
                        matches!(e, nacu::NacuError::DatapathWordUnfit { .. }),
                        "width {width}: {e}"
                    );
                }
                continue;
            }
        };
        let fmt = unit.config().format;
        let xs: Vec<Fx> = [-1.0, 0.0, 0.5, 2.0]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        let ys = unit
            .softmax(&xs)
            .unwrap_or_else(|e| panic!("softmax at width {width}: {e}"));
        let sum: f64 = ys.iter().map(Fx::to_f64).sum();
        assert!(
            (sum - 1.0).abs() <= xs.len() as f64 * fmt.resolution(),
            "softmax at width {width} sums to {sum}"
        );
        built.push(width);
    }
    assert_eq!(built, swept_widths().collect::<Vec<_>>());
}

/// Widths up to this are swept over every code; wider ones over
/// [`SAMPLED_CODES`] seeded codes per function.
const EXHAUSTIVE_BITS: u32 = 12;
const SAMPLED_CODES: usize = 4_096;
/// Seeded softmax vectors per width.
const SOFTMAX_VECTORS: usize = 256;

/// The kernel against the walk at every width a healthy engine can be
/// built at, since every healthy engine serves every width from the
/// kernel (or the tables it built) with no walk fallback: σ/tanh/exp
/// over every code up to [`EXHAUSTIVE_BITS`] and over a fixed-seed
/// sample above, and [`SOFTMAX_VECTORS`] seeded softmax vectors per
/// width. Budget: under 10 s in a debug `cargo test`.
#[test]
fn kernel_equals_the_walk_at_every_width() {
    let mut seed = 0x00C0_DE5E_ED00_u64;
    for width in swept_widths() {
        let config = NacuConfig::for_width(width).expect("Eq. 7 solvable");
        let g = Nacu::new(config).expect("a unit builds at this width");
        let fmt = config.format;
        let span = (fmt.max_raw() - fmt.min_raw() + 1) as u64;
        let code =
            |bits: u64| Fx::from_raw(fmt.min_raw() + (bits % span) as i64, fmt).expect("in range");
        // Above the exhaustive widths, half the sample is uniform over
        // the codes and half falls in [-4, 4), where the segment ladder
        // and the exp range live.
        let near_zero = 8_u64 << fmt.frac_bits();
        let codes: Vec<Fx> = if width <= EXHAUSTIVE_BITS {
            fmt.raw_codes()
                .map(|raw| Fx::from_raw(raw, fmt).expect("in range"))
                .collect()
        } else {
            (0..SAMPLED_CODES)
                .map(|i| {
                    let bits = splitmix(&mut seed);
                    if i % 2 == 0 {
                        code(bits)
                    } else {
                        let raw = (bits % near_zero) as i64 - (near_zero / 2) as i64;
                        Fx::from_raw_saturating(raw, fmt)
                    }
                })
                .chain([Fx::min(fmt), Fx::zero(fmt), Fx::max(fmt)])
                .collect()
        };
        for f in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let mut ys = codes.clone();
            g.kernel_in_place(f, &mut ys);
            for (&x, &y) in codes.iter().zip(&ys) {
                assert_eq!(y, g.compute(f, x), "{f} at {x:?}, width {width}");
            }
        }
        for _ in 0..SOFTMAX_VECTORS {
            let len = 1 + (splitmix(&mut seed) % 24) as usize;
            let xs: Vec<Fx> = (0..len).map(|_| code(splitmix(&mut seed))).collect();
            assert_kernel_softmax(&g, &xs, &format!("seeded, width {width}"));
        }
    }
}
