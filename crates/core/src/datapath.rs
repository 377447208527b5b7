//! The NACU datapath (Fig. 2), bit-accurately.
//!
//! One coefficient LUT holds `(m₁, q)` pairs for the **positive range of σ
//! only**. Everything else is derived exactly as the hardware does it:
//!
//! | function | address        | slope          | bias                  |
//! |----------|----------------|----------------|-----------------------|
//! | σ, x ≥ 0 | `x`            | `m₁`           | `q`                   |
//! | σ, x < 0 | `|x|`          | `−m₁`          | `1 − q` (Fig. 3a)     |
//! | tanh, x ≥ 0 | `2x`        | `4·m₁` (shift) | `2q − 1` (Fig. 3b)    |
//! | tanh, x < 0 | `2|x|`      | `−4·m₁`        | `1 − 2q` (Fig. 3c)    |
//! | e^x, x ≤ 0  | `|x|`       | σ path, then `1/σ` (divider) `− 1` (Fig. 3b) |
//!
//! The multiply-add runs at full internal precision and rounds **once**
//! into the output word, as the widened MAC of Fig. 2 does. The exp path
//! keeps σ in a `Q2.(N−3)` working word (the divider's operand register)
//! so the division sees more fractional bits than the output format
//! carries — the reason the measured exp error stays within the Eq. 16
//! bound of 4·δσ.
//!
//! The walk is written once, generic over [`Nets`]: one hook per named
//! net (the ROM read port, the bias-transform output, the MAC operand
//! latches and accumulator, the σ output register). [`Nacu`]'s own
//! fault-free nets pass every value through and cannot fail, so
//! [`Nacu::sigmoid`] and friends compile to the plain walk; `nacu-faults`
//! supplies nets that inject faults and run detectors on the same wires.

use std::convert::Infallible;

use nacu_fixed::{Fx, Overflow, QFormat, Rounding};
use nacu_funcapprox::reference::RefFunc;
use nacu_funcapprox::segment::{self, Segment};

use crate::bias;
use crate::config::{Function, NacuConfig};
use crate::divider;
use crate::NacuError;

/// The named nets of the Fig. 2 walk, one hook per net.
///
/// The walk calls each hook with the value the datapath drives onto that
/// net and carries on with the value the hook returns; an `Err` (a
/// detector firing) stops the evaluation there. Every hook defaults to
/// passing its value through.
pub trait Nets {
    /// What a hook raises instead of a value.
    type Event;

    /// The ROM read port: `stored` is the golden `(m₁, q)` record of
    /// entry `_index`.
    fn lut(&self, _index: usize, stored: (i64, i64)) -> Result<(i64, i64), Self::Event> {
        Ok(stored)
    }

    /// The Fig. 3 bias-transform output feeding the MAC's bias port.
    fn bias_out(&self, bias: i64) -> Result<i64, Self::Event> {
        Ok(bias)
    }

    /// The MAC's slope operand latch (multiplier port A).
    fn mac_a(&self, slope: i64) -> Result<i64, Self::Event> {
        Ok(slope)
    }

    /// The MAC's magnitude operand latch (multiplier port B).
    fn mac_b(&self, mag: i64) -> Result<i64, Self::Event> {
        Ok(mag)
    }

    /// The widened accumulator's pre-round sum, with the source nets it
    /// was computed from.
    fn accumulator(&self, sum: i128, _sources: &MacSources) -> Result<i128, Self::Event> {
        Ok(sum)
    }

    /// The σ output register at `_out_frac` fractional bits (post-round,
    /// pre-saturation); also the exp path's divider operand.
    fn sigma_out(&self, raw: i64, _out_frac: u32) -> Result<i64, Self::Event> {
        Ok(raw)
    }
}

/// The values on the MAC's source nets, ahead of its operand latches.
/// Unfaulted, the accumulator holds `slope·mag + (bias << bias_shift)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacSources {
    pub slope: i64,
    pub mag: i64,
    pub bias: i64,
    pub bias_shift: u32,
}

/// The fault-free nets: zero-sized, every value passes through
/// unchanged and no hook can fail, so the walk over them compiles to the
/// plain arithmetic.
struct Golden;

impl Nets for Golden {
    type Event = Infallible;
}

/// A configured NACU instance.
///
/// Construction fits and quantises the σ coefficient LUT; evaluation is
/// pure integer arithmetic on raw codes. The struct is immutable and
/// `Send + Sync`, so one instance can serve a whole simulated fabric.
#[derive(Debug, Clone)]
pub struct Nacu {
    config: NacuConfig,
    /// The ROM: raw `(m₁, q)` codes, slope in `Q1.(N−2)`, bias in the
    /// bias format.
    entries: Vec<(i64, i64)>,
    /// Raw-code boundaries of the LUT segments (ascending, positive).
    bounds: Vec<i64>,
    coef_fmt: QFormat,
    /// Bias format `Q2.(N−3)`; also the divider's working format (holds
    /// σ ∈ [0.5, 1], σ′ ∈ [1, 2]).
    bias_fmt: QFormat,
}

impl Nacu {
    /// Builds a NACU instance: validates the configuration, fits the σ PWL
    /// segments over `[0, In_max]` and quantises the coefficients.
    ///
    /// # Errors
    ///
    /// Propagates [`NacuConfig::validate`] failures.
    pub fn new(config: NacuConfig) -> Result<Self, NacuError> {
        config.validate()?;
        let fmt = config.format;
        let n = fmt.total_bits();
        let coef_fmt = QFormat::new(1, n - 2).expect("coef format");
        let bias_fmt = QFormat::new(2, n - 3).expect("bias format");
        // Uniform segment boundaries in raw input codes over [0, max_raw].
        let entries_n = config.lut_entries as i64;
        let span = fmt.max_raw() + 1;
        let mut bounds: Vec<i64> = (0..=entries_n).map(|i| i * span / entries_n).collect();
        bounds.dedup();
        let res = fmt.resolution();
        let entries = bounds
            .windows(2)
            .map(|w| {
                let seg = Segment::new(w[0] as f64 * res, w[1] as f64 * res);
                let fit = segment::fit_line(RefFunc::Sigmoid, seg, config.fit_method);
                let slope = Fx::from_f64(fit.slope, coef_fmt, Rounding::Nearest);
                let bias_val = segment::refit_bias(RefFunc::Sigmoid, seg, slope.to_f64());
                let bias = Fx::from_f64(bias_val, bias_fmt, Rounding::Nearest);
                (slope.raw(), bias.raw())
            })
            .collect();
        Ok(Self {
            config,
            entries,
            bounds,
            coef_fmt,
            bias_fmt,
        })
    }

    /// The configuration this instance was built with.
    #[must_use]
    pub fn config(&self) -> &NacuConfig {
        &self.config
    }

    /// Number of coefficient-LUT entries actually stored (may be below the
    /// requested count if segments collapsed at the input resolution).
    #[must_use]
    pub fn lut_entries(&self) -> usize {
        self.entries.len()
    }

    /// The stored coefficient records as `(m₁, q)` raw-code pairs — the
    /// exact ROM contents (used by the Verilog exporter and inspection
    /// tooling).
    #[must_use]
    pub fn coefficients(&self) -> Vec<(i64, i64)> {
        self.entries.clone()
    }

    /// The bias storage format, `Q2.(N−3)` — the word the Fig. 3 units
    /// operate on.
    #[must_use]
    pub fn bias_format(&self) -> QFormat {
        self.bias_fmt
    }

    /// Raw-code segment boundaries of the σ LUT (ascending, positive;
    /// `bounds[i]..bounds[i+1]` is segment `i`). Together with
    /// [`Nacu::lookup_index`] and [`Nacu::coefficients`] this exposes the
    /// address-decode net to external checkers and fault injectors
    /// (`nacu-faults`).
    #[must_use]
    pub fn segment_bounds(&self) -> &[i64] {
        &self.bounds
    }

    /// The LUT entry index a positive raw address decodes to — the
    /// address net of Fig. 2, exposed as an injection/observation hook.
    #[must_use]
    pub fn lookup_index(&self, mag_raw: i64) -> usize {
        let hi = self.bounds[self.bounds.len() - 1] - 1;
        let raw = mag_raw.clamp(0, hi);
        let idx = self.bounds[1..self.bounds.len() - 1].partition_point(|&b| b <= raw);
        idx.min(self.entries.len() - 1)
    }

    /// Magnitude of an input code as the hardware's absolute-value stage
    /// produces it (saturating the asymmetric two's-complement minimum) —
    /// the operand net feeding the LUT address and the MAC.
    #[must_use]
    pub fn magnitude_raw(&self, x: Fx) -> i64 {
        if x.raw() < 0 {
            (-(x.raw() as i128)).min(self.config.format.max_raw() as i128) as i64
        } else {
            x.raw()
        }
    }

    /// The ROM read at a positive raw address (clamped into range).
    fn lookup<N: Nets>(&self, nets: &N, address: i64) -> Result<(i64, i64), N::Event> {
        let index = self.lookup_index(address);
        nets.lut(index, self.entries[index])
    }

    /// The shared multiply-add: `slope·mag + bias`, computed at the
    /// internal scale and rounded once into `out_frac` fractional bits.
    fn mac<N: Nets>(
        &self,
        nets: &N,
        slope: i64,
        mag: i64,
        bias: i64,
        out_frac: u32,
    ) -> Result<i64, N::Event> {
        let internal_f = self.coef_fmt.frac_bits() + self.config.format.frac_bits();
        let bias_shift = internal_f - self.bias_fmt.frac_bits();
        let a = nets.mac_a(slope)?;
        let b = nets.mac_b(mag)?;
        let sum = a as i128 * b as i128 + ((bias as i128) << bias_shift);
        let sources = MacSources {
            slope,
            mag,
            bias,
            bias_shift,
        };
        let sum = nets.accumulator(sum, &sources)?;
        Ok(Rounding::Nearest.shift_right(sum, internal_f - out_frac) as i64)
    }

    /// Saturates a raw result into the output format.
    fn output(&self, raw: i64) -> Fx {
        let fmt = self.config.format;
        Fx::from_raw_saturating(fmt.saturate_raw(raw as i128), fmt)
    }

    /// σ at an arbitrary output scale (the exp path asks for the working
    /// format's extra fractional bits), Eqs. 8–9.
    fn sigma_word<N: Nets>(&self, nets: &N, x: Fx, out_frac: u32) -> Result<i64, N::Event> {
        let mag = self.magnitude_raw(x);
        let (slope, q) = self.lookup(nets, mag)?;
        let (slope, bias) = if x.raw() >= 0 {
            (slope, q)
        } else {
            (-slope, bias::one_minus_q(q, self.bias_fmt.frac_bits()))
        };
        let bias = nets.bias_out(bias)?;
        let raw = self.mac(nets, slope, mag, bias, out_frac)?;
        nets.sigma_out(raw, out_frac)
    }

    /// σ over the full input range (Eqs. 8–9).
    fn sigmoid_in<N: Nets>(&self, nets: &N, x: Fx) -> Result<Fx, N::Event> {
        let raw = self.sigma_word(nets, x, self.config.format.frac_bits())?;
        Ok(self.output(raw))
    }

    /// tanh over the full input range (Eqs. 10–11).
    fn tanh_in<N: Nets>(&self, nets: &N, x: Fx) -> Result<Fx, N::Event> {
        let mag = self.magnitude_raw(x);
        // Address the σ LUT at 2x (Eq. 3's stretch), saturating.
        let address = (2 * mag).min(self.config.format.max_raw());
        let (slope, q) = self.lookup(nets, address)?;
        // Slope scaling 2^{i+1}·m₁ = 4·m₁: arithmetic left shift by 2,
        // saturating in the coefficient word.
        let slope4 = self.coef_fmt.saturate_raw((slope as i128) << 2);
        let f = self.bias_fmt.frac_bits();
        let (slope, bias) = if x.raw() >= 0 {
            (slope4, bias::two_q_minus_one(q, f))
        } else {
            (-slope4, bias::one_minus_two_q(q, f))
        };
        let bias = nets.bias_out(bias)?;
        let raw = self.mac(nets, slope, mag, bias, self.config.format.frac_bits())?;
        Ok(self.output(raw))
    }

    /// `e^x` via Eq. 14: `σ(−x)` → divider → Fig. 3b decrementor.
    fn exp_in<N: Nets>(&self, nets: &N, x: Fx) -> Result<Fx, N::Event> {
        let clamped = if x.raw() > 0 { Fx::zero(x.format()) } else { x };
        // σ(−x) = σ(|x|) ∈ [0.5, 1], kept in the divider's working word.
        let work_fmt = self.bias_fmt;
        let wf = work_fmt.frac_bits();
        let neg = Fx::from_raw_saturating(-clamped.raw(), self.config.format);
        let sigma_raw = work_fmt.saturate_raw(self.sigma_word(nets, neg, wf)? as i128);
        // σ quantised below 0.5 can only happen through rounding at the
        // segment edge; the divider operand clamps into [0.5, 1].
        let one = 1_i64 << wf;
        let sigma_raw = sigma_raw.clamp(one / 2, one);
        let sigma = Fx::from_raw_saturating(sigma_raw, work_fmt);
        let sigma_prime = divider::reciprocal(sigma).expect("σ ≥ 0.5 is non-zero");
        // σ' ∈ [1, 2]: the Fig. 3b structure decrements it to e^x ∈ [0, 1].
        let sp = sigma_prime.raw().clamp(one, 2 * one);
        let e_raw = bias::decrement_unit(sp, wf);
        Ok(Fx::from_raw_saturating(e_raw, work_fmt).resize(
            self.config.format,
            Rounding::Nearest,
            Overflow::Saturate,
        ))
    }

    /// Evaluates `function` at `x` along the walk, with `nets` on its
    /// named wires. With nets that pass every value through, this is
    /// [`Nacu::compute`].
    ///
    /// # Errors
    ///
    /// The first event a hook of `nets` raises.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the configured format, and for
    /// [`Function::Softmax`] / [`Function::Mac`], which need the
    /// vector/accumulator interface.
    pub fn compute_with<N: Nets>(
        &self,
        nets: &N,
        function: Function,
        x: Fx,
    ) -> Result<Fx, N::Event> {
        self.assert_format(x);
        match function {
            Function::Sigmoid => self.sigmoid_in(nets, x),
            Function::Tanh => self.tanh_in(nets, x),
            Function::Exp => self.exp_in(nets, x),
            Function::Softmax | Function::Mac => {
                panic!("{function} needs the vector/accumulator interface")
            }
        }
    }

    /// Computes σ(x) over the full input range (Eqs. 8–9).
    #[must_use]
    pub fn sigmoid(&self, x: Fx) -> Fx {
        self.assert_format(x);
        let Ok(y) = self.sigmoid_in(&Golden, x);
        y
    }

    /// Computes tanh(x) over the full input range (Eqs. 10–11).
    #[must_use]
    pub fn tanh(&self, x: Fx) -> Fx {
        self.assert_format(x);
        let Ok(y) = self.tanh_in(&Golden, x);
        y
    }

    /// Computes `e^x` for a non-positive (max-normalised) input via Eq. 14:
    /// `σ(−x)` → pipelined divider → Fig. 3b decrementor.
    ///
    /// Positive inputs clamp to 0 (softmax normalisation guarantees the
    /// operand is never positive; the clamp mirrors the address saturation
    /// a real unit performs).
    #[must_use]
    pub fn exp(&self, x: Fx) -> Fx {
        self.assert_format(x);
        let Ok(y) = self.exp_in(&Golden, x);
        y
    }

    /// Computes the max-normalised softmax (Eq. 13) of a vector: one pass
    /// accumulating the exp sum in the MAC, one pass normalising each
    /// element through the shared divider.
    ///
    /// # Errors
    ///
    /// Returns [`NacuError::EmptyVector`] for an empty input, or
    /// [`NacuError::Fixed`] if the inputs carry mixed formats.
    pub fn softmax(&self, inputs: &[Fx]) -> Result<Vec<Fx>, NacuError> {
        self.softmax_with(inputs, |x| Ok(self.exp(x)))
    }

    /// [`Nacu::softmax`] with a pluggable, fallible exp stage: `exp_fn`
    /// must map a non-positive operand in the configured format to `e^x`
    /// in the same format, exactly as [`Nacu::exp`] does, or fail. The
    /// max-normalisation, the widened MAC accumulation and the pass-2
    /// restoring divider are this datapath's own either way.
    ///
    /// Two stages plug in here: the serving engine's response-table fast
    /// path ([`crate::table::ResponseTables`]), whose exp stage is an
    /// exhaustively datapath-equal table — the working-format resize
    /// after `exp_fn` is exact for any value in `[0, 1]`, the entire exp
    /// range — and `nacu-faults`' checked unit, whose exp stage can raise
    /// a detector event.
    ///
    /// # Errors
    ///
    /// As [`Nacu::softmax`] (converted into `E`), or the first error of
    /// `exp_fn`.
    pub fn softmax_with<E, F>(&self, inputs: &[Fx], mut exp_fn: F) -> Result<Vec<Fx>, E>
    where
        E: From<NacuError>,
        F: FnMut(Fx) -> Result<Fx, E>,
    {
        if inputs.is_empty() {
            return Err(NacuError::EmptyVector.into());
        }
        for x in inputs {
            if x.format() != self.config.format {
                return Err(NacuError::Fixed(nacu_fixed::FxError::FormatMismatch {
                    lhs: x.format(),
                    rhs: self.config.format,
                })
                .into());
            }
        }
        let max_raw = inputs.iter().map(Fx::raw).max().expect("non-empty");
        let max = Fx::from_raw_saturating(max_raw, self.config.format);
        // Pass 1: e^{x_i - x_max} in the working word; MAC accumulates the
        // denominator in a widened accumulator (Fig. 2's feedback path).
        let work_fmt = self.bias_fmt;
        let wf = work_fmt.frac_bits();
        let acc_fmt = QFormat::new(self.config.format.int_bits() + 7, wf).expect("acc format");
        let mut denom = Fx::zero(acc_fmt);
        let mut exps = Vec::with_capacity(inputs.len());
        for &x in inputs {
            let diff = x.saturating_sub(max).map_err(NacuError::Fixed)?;
            let e = exp_fn(diff)?;
            // Keep the full working precision for normalisation.
            let e_work = e.resize(work_fmt, Rounding::Nearest, Overflow::Saturate);
            exps.push(e_work);
            denom = denom
                .saturating_add(e_work.resize(acc_fmt, Rounding::Nearest, Overflow::Saturate))
                .map_err(NacuError::Fixed)?;
        }
        // Pass 2: scale each exp by the common normalisation factor.
        let mut out = Vec::with_capacity(inputs.len());
        for e in exps {
            let q =
                divider::restoring_divide(e.raw(), denom.raw(), wf).map_err(NacuError::Fixed)?;
            let q_work = Fx::from_raw_saturating(work_fmt.saturate_raw(q as i128), work_fmt);
            out.push(q_work.resize(self.config.format, Rounding::Nearest, Overflow::Saturate));
        }
        Ok(out)
    }

    /// Single-input dispatch over the configured functions.
    ///
    /// # Panics
    ///
    /// Panics if called with [`Function::Softmax`] or [`Function::Mac`],
    /// which need a vector/accumulator — use [`Nacu::softmax`] /
    /// [`MacAccumulator`].
    #[must_use]
    pub fn compute(&self, function: Function, x: Fx) -> Fx {
        let Ok(y) = self.compute_with(&Golden, function, x);
        y
    }

    fn assert_format(&self, x: Fx) {
        assert_eq!(
            x.format(),
            self.config.format,
            "input format {} does not match the configured {}",
            x.format(),
            self.config.format
        );
    }
}

/// The MAC mode of Fig. 2: multiply-accumulate with the widened adder's
/// feedback register (used for convolution sums before the non-linearity
/// and for the softmax denominator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacAccumulator {
    acc: Fx,
}

impl MacAccumulator {
    /// A cleared accumulator in the datapath format.
    #[must_use]
    pub fn new(format: QFormat) -> Self {
        Self {
            acc: Fx::zero(format),
        }
    }

    /// One MAC step: `acc ← acc + a·b` (saturating, round-to-nearest).
    ///
    /// # Panics
    ///
    /// Panics if operand formats differ from the accumulator's.
    pub fn step(&mut self, a: Fx, b: Fx) {
        self.acc += a * b;
    }

    /// The accumulated value.
    #[must_use]
    pub fn value(&self) -> Fx {
        self.acc
    }

    /// Clears the accumulator.
    pub fn clear(&mut self) {
        self.acc = Fx::zero(self.acc.format());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu_funcapprox::metrics;

    fn paper() -> Nacu {
        Nacu::new(NacuConfig::paper_16bit()).expect("paper config builds")
    }

    fn fx(nacu: &Nacu, v: f64) -> Fx {
        Fx::from_f64(v, nacu.config().format, Rounding::Nearest)
    }

    #[test]
    fn sigmoid_hits_paper_accuracy_over_full_range() {
        let n = paper();
        let fmt = n.config().format;
        let report = metrics::sweep_raw_range(
            fmt,
            fmt.min_raw(),
            fmt.max_raw(),
            nacu_funcapprox::reference::sigmoid,
            |x| n.sigmoid(x).to_f64(),
        );
        // §VII.A: RMSE 2.07e-4, correlation 0.999 at 16 bits.
        assert!(report.rmse < 4e-4, "rmse {}", report.rmse);
        assert!(report.max_error < 1.2e-3, "max {}", report.max_error);
        assert!(report.correlation > 0.999, "corr {}", report.correlation);
    }

    #[test]
    fn tanh_hits_paper_accuracy_over_full_range() {
        let n = paper();
        let fmt = n.config().format;
        let report = metrics::sweep_raw_range(
            fmt,
            fmt.min_raw(),
            fmt.max_raw(),
            |x| x.tanh(),
            |x| n.tanh(x).to_f64(),
        );
        // §VII.B: RMSE 2.09e-4, correlation 0.999 at 16 bits.
        assert!(report.rmse < 5e-4, "rmse {}", report.rmse);
        assert!(report.max_error < 2.5e-3, "max {}", report.max_error);
        assert!(report.correlation > 0.999, "corr {}", report.correlation);
    }

    #[test]
    fn exp_respects_the_eq16_error_bound() {
        let n = paper();
        let fmt = n.config().format;
        // δσ in the working word ≈ PWL fit error (~6e-4 worst segment);
        // Eq. 16 bounds the exp error by 4·δσ.
        let report =
            metrics::sweep_raw_range(fmt, fmt.min_raw(), 0, |x| x.exp(), |x| n.exp(x).to_f64());
        assert!(report.max_error < 4.0 * 1e-3, "max {}", report.max_error);
        assert!(report.rmse < 1e-3, "rmse {}", report.rmse);
    }

    #[test]
    fn sigmoid_centrosymmetry_is_bit_exact() {
        // Eq. 4 is implemented structurally, so σ(−x) + σ(x) must equal
        // 1.0 exactly in raw codes (both branches read the same LUT entry).
        let n = paper();
        let fmt = n.config().format;
        let one = 1_i64 << fmt.frac_bits();
        for raw in (0..=fmt.max_raw()).step_by(97) {
            let pos = n.sigmoid(Fx::from_raw(raw, fmt).unwrap()).raw();
            let neg = n.sigmoid(Fx::from_raw(-raw, fmt).unwrap()).raw();
            assert!(
                (pos + neg - one).abs() <= 1,
                "raw {raw}: {pos} + {neg} != {one}"
            );
        }
    }

    #[test]
    fn tanh_odd_symmetry_is_bit_exact() {
        // Eq. 5: tanh(−x) = −tanh(x), structurally.
        let n = paper();
        let fmt = n.config().format;
        // Start at 1: raw 0 is its own negation in two's complement, so
        // oddness only constrains non-zero codes (tanh(0) itself may carry
        // the segment's fit offset of ~1 LSB).
        for raw in (1..=fmt.max_raw()).step_by(89) {
            let pos = n.tanh(Fx::from_raw(raw, fmt).unwrap()).raw();
            let neg = n.tanh(Fx::from_raw(-raw, fmt).unwrap()).raw();
            assert!((pos + neg).abs() <= 1, "raw {raw}: {pos} vs {neg}");
        }
    }

    #[test]
    fn known_values() {
        let n = paper();
        assert!((n.sigmoid(fx(&n, 0.0)).to_f64() - 0.5).abs() < 1e-3);
        assert!(n.tanh(fx(&n, 0.0)).to_f64().abs() < 1e-3);
        assert!((n.exp(fx(&n, 0.0)).to_f64() - 1.0).abs() < 2e-3);
        assert!((n.exp(fx(&n, -1.0)).to_f64() - (-1.0f64).exp()).abs() < 2e-3);
        assert!((n.sigmoid(fx(&n, 15.9)).to_f64() - 1.0).abs() < 1e-3);
        assert!(n.exp(fx(&n, -15.9)).to_f64() < 1e-3);
    }

    #[test]
    fn exp_clamps_positive_inputs() {
        let n = paper();
        assert_eq!(n.exp(fx(&n, 3.0)), n.exp(fx(&n, 0.0)));
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let n = paper();
        let inputs: Vec<Fx> = [1.5, -0.5, 3.0, 0.0].iter().map(|&v| fx(&n, v)).collect();
        let out = n.softmax(&inputs).unwrap();
        let sum: f64 = out.iter().map(Fx::to_f64).sum();
        assert!((sum - 1.0).abs() < 0.02, "sum {sum}");
        // Largest input gets the largest probability.
        assert!(out[2] > out[0] && out[0] > out[3] && out[3] > out[1]);
        let golden = nacu_funcapprox::reference::softmax(&[1.5, -0.5, 3.0, 0.0]);
        for (got, want) in out.iter().zip(&golden) {
            assert!((got.to_f64() - want).abs() < 5e-3, "{got} vs {want}");
        }
    }

    #[test]
    fn softmax_survives_saturating_inputs() {
        // Eq. 13's point: even inputs at the format limits normalise
        // sanely because only differences reach the exp.
        let n = paper();
        let fmt = n.config().format;
        let inputs = vec![Fx::max(fmt), Fx::max(fmt), Fx::min(fmt)];
        let out = n.softmax(&inputs).unwrap();
        assert!((out[0].to_f64() - 0.5).abs() < 0.01);
        assert!((out[1].to_f64() - 0.5).abs() < 0.01);
        assert!(out[2].to_f64() < 0.01);
    }

    #[test]
    fn softmax_rejects_empty_and_mixed_formats() {
        let n = paper();
        assert!(matches!(n.softmax(&[]), Err(NacuError::EmptyVector)));
        let alien = Fx::zero(QFormat::new(2, 13).unwrap());
        assert!(n.softmax(&[alien]).is_err());
    }

    #[test]
    fn mac_accumulates_products() {
        let n = paper();
        let fmt = n.config().format;
        let mut mac = MacAccumulator::new(fmt);
        for i in 1..=4 {
            mac.step(fx(&n, f64::from(i) * 0.5), fx(&n, 2.0));
        }
        // Σ i·0.5·2 = 1+2+3+4 = 10... wait: Σ (i·0.5)·2 = Σ i = 10? No:
        // (0.5+1.0+1.5+2.0)·2 = 10. Saturates at 15.999 so 10 is exact.
        assert!((mac.value().to_f64() - 10.0).abs() < 1e-9);
        mac.clear();
        assert!(mac.value().is_zero());
    }

    #[test]
    fn compute_dispatch_matches_direct_calls() {
        let n = paper();
        let x = fx(&n, 0.7);
        assert_eq!(n.compute(Function::Sigmoid, x), n.sigmoid(x));
        assert_eq!(n.compute(Function::Tanh, x), n.tanh(x));
        assert_eq!(n.compute(Function::Exp, fx(&n, -0.7)), n.exp(fx(&n, -0.7)));
    }

    #[test]
    #[should_panic(expected = "needs the vector/accumulator interface")]
    fn compute_rejects_softmax() {
        let n = paper();
        let x = fx(&n, 0.0);
        let _ = n.compute(Function::Softmax, x);
    }

    #[test]
    #[should_panic(expected = "does not match the configured")]
    fn wrong_input_format_panics() {
        let n = paper();
        let _ = n.sigmoid(Fx::zero(QFormat::new(2, 13).unwrap()));
    }

    #[test]
    fn narrower_widths_degrade_gracefully() {
        // Fig. 6c–e: NACU error grows as the width shrinks but the unit
        // still works at 10 bits.
        let mut last_rmse = 0.0;
        for width in [16u32, 14, 10] {
            let n = Nacu::new(NacuConfig::for_width(width).unwrap()).unwrap();
            let fmt = n.config().format;
            let report = metrics::sweep_raw_range(
                fmt,
                fmt.min_raw(),
                fmt.max_raw(),
                nacu_funcapprox::reference::sigmoid,
                |x| n.sigmoid(x).to_f64(),
            );
            assert!(
                report.rmse > last_rmse,
                "narrower width should be less accurate"
            );
            assert!(report.correlation > 0.99);
            last_rmse = report.rmse;
        }
    }

    #[test]
    fn exposed_nets_agree_with_the_private_path() {
        // The injection hooks (lookup_index / segment_bounds /
        // magnitude_raw) must describe exactly the nets the private
        // evaluation uses, or external checkers would shadow a different
        // datapath.
        let n = paper();
        let fmt = n.config().format;
        let bounds = n.segment_bounds();
        assert_eq!(bounds.len(), n.lut_entries() + 1);
        assert_eq!(bounds[0], 0);
        for raw in (fmt.min_raw()..=fmt.max_raw()).step_by(211) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            let mag = n.magnitude_raw(x);
            assert!(mag >= 0);
            let idx = n.lookup_index(mag);
            assert!(idx < n.lut_entries());
            // The decoded segment contains the (clamped) address.
            let clamped = mag.clamp(0, bounds[bounds.len() - 1] - 1);
            assert!(bounds[idx] <= clamped && clamped < bounds[idx + 1]);
        }
        // The asymmetric minimum saturates instead of overflowing.
        assert_eq!(n.magnitude_raw(Fx::min(fmt)), fmt.max_raw());
    }

    #[test]
    fn instance_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Nacu>();
    }
}
