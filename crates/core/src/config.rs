//! NACU configuration: function selection and datapath parameters.

use std::fmt;

use nacu_fixed::QFormat;
use nacu_funcapprox::segment::FitMethod;

use crate::format;
use crate::NacuError;

/// The function a NACU instance is dynamically configured to compute (§V).
///
/// Reconfiguration is the paper's headline feature: the same datapath
/// morphs between all five modes by multiplexer settings, not by swapping
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Function {
    /// Logistic sigmoid over the full (positive and negative) input range.
    Sigmoid,
    /// Hyperbolic tangent over the full input range.
    Tanh,
    /// Exponential of a non-positive (max-normalised) input.
    Exp,
    /// Vector softmax, Eq. 13.
    Softmax,
    /// Plain multiply-accumulate (the convolution/denominator mode).
    Mac,
}

impl Function {
    /// All configurable functions.
    #[must_use]
    pub fn all() -> [Function; 5] {
        [
            Function::Sigmoid,
            Function::Tanh,
            Function::Exp,
            Function::Softmax,
            Function::Mac,
        ]
    }

    /// The function's id on the `nacu-net` wire and in `nacu-replay`
    /// trace logs, one id space for both. MAC is stateful, is never
    /// served or recorded, and has no id.
    #[must_use]
    pub fn id(self) -> Option<u8> {
        match self {
            Function::Sigmoid => Some(0),
            Function::Tanh => Some(1),
            Function::Exp => Some(2),
            Function::Softmax => Some(3),
            Function::Mac => None,
        }
    }

    /// The function with wire/trace-log id `id` (see [`Function::id`]).
    #[must_use]
    pub fn from_id(id: u8) -> Option<Function> {
        match id {
            0 => Some(Function::Sigmoid),
            1 => Some(Function::Tanh),
            2 => Some(Function::Exp),
            3 => Some(Function::Softmax),
            _ => None,
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Function::Sigmoid => "sigmoid",
            Function::Tanh => "tanh",
            Function::Exp => "exp",
            Function::Softmax => "softmax",
            Function::Mac => "mac",
        };
        f.write_str(name)
    }
}

/// Structural configuration of a NACU instance.
///
/// # Example
///
/// ```
/// use nacu::NacuConfig;
/// use nacu_fixed::QFormat;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's unit: Q4.11, 53-entry coefficient LUT.
/// let cfg = NacuConfig::paper_16bit();
/// assert_eq!(cfg.format, QFormat::new(4, 11)?);
/// assert_eq!(cfg.lut_entries, 53);
///
/// // A narrower unit for the Fig. 6 bit-width sweeps.
/// let cfg10 = NacuConfig::for_width(10)?;
/// assert_eq!(cfg10.format.total_bits(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NacuConfig {
    /// Datapath word format (input and output share it, as §III
    /// recommends).
    pub format: QFormat,
    /// σ coefficient LUT entries (PWL segments over the positive range).
    pub lut_entries: usize,
    /// Per-segment fitting method used to generate the LUT contents.
    pub fit_method: FitMethod,
}

impl NacuConfig {
    /// The paper's reference configuration: 16-bit `Q4.11`, 53 LUT entries,
    /// minimax fitting.
    #[must_use]
    pub fn paper_16bit() -> Self {
        Self {
            format: QFormat::new(4, 11).expect("Q4.11 is valid"),
            lut_entries: 53,
            fit_method: FitMethod::Minimax,
        }
    }

    /// A configuration for an arbitrary word width, using the §III Eq. 7
    /// dimensioning and an entry count scaled to keep the PWL fit error at
    /// the width's quantisation floor (the procedure behind the Fig. 6c–e
    /// bit-width sweep).
    ///
    /// # Errors
    ///
    /// Returns [`NacuError::FormatTooNarrow`] if no `i_b` satisfies Eq. 7
    /// at this width, or any other [`NacuConfig::validate`] failure (past
    /// [`NacuConfig::max_width`], the datapath words do not fit).
    pub fn for_width(total_bits: u32) -> Result<Self, NacuError> {
        let fmt = format::recommended_format(total_bits).ok_or(NacuError::FormatTooNarrow {
            int_bits: 0,
            required: 1,
        })?;
        // PWL fit error scales as w²: to track the 2^{-f_b} floor the
        // entry count grows as 2^{f_b/2}. Anchored at the paper's 53 @ f_b=11.
        let entries = (53.0 * 2.0_f64.powf((f64::from(fmt.frac_bits()) - 11.0) / 2.0))
            .round()
            .clamp(4.0, 4096.0) as usize;
        let config = Self {
            format: fmt,
            lut_entries: entries,
            fit_method: FitMethod::Minimax,
        };
        config.validate()?;
        Ok(config)
    }

    /// The widest `N` [`NacuConfig::for_width`] accepts: past it the
    /// softmax accumulator, the datapath's widest word (see
    /// [`format::DatapathWords`]), outgrows 63 bits.
    #[must_use]
    pub fn max_width() -> u32 {
        (2..=63)
            .rev()
            .find(|&n| Self::for_width(n).is_ok())
            .expect("the paper's 16-bit unit is valid")
    }

    /// Replaces the LUT entry count.
    #[must_use]
    pub fn with_lut_entries(mut self, entries: usize) -> Self {
        self.lut_entries = entries;
        self
    }

    /// Replaces the fitting method.
    #[must_use]
    pub fn with_fit_method(mut self, method: FitMethod) -> Self {
        self.fit_method = method;
        self
    }

    /// Validates the configuration against Eq. 7, the datapath word sizes
    /// and the LUT size limits.
    ///
    /// # Errors
    ///
    /// [`NacuError::FormatTooNarrow`] if Eq. 7 fails for the format,
    /// [`NacuError::DatapathWordUnfit`] if a datapath word derived from
    /// it does not fit, [`NacuError::BadLutSize`] for a zero or
    /// oversized LUT.
    pub fn validate(&self) -> Result<(), NacuError> {
        if !format::eq7_holds(self.format, self.format) {
            let required = format::min_int_bits(self.format.total_bits())
                .unwrap_or(self.format.int_bits() + 1);
            return Err(NacuError::FormatTooNarrow {
                int_bits: self.format.int_bits(),
                required,
            });
        }
        format::DatapathWords::for_format(self.format)?;
        let codes = usize::try_from(self.format.max_raw()).unwrap_or(usize::MAX);
        if self.lut_entries == 0 || self.lut_entries > codes {
            return Err(NacuError::BadLutSize {
                entries: self.lut_entries,
            });
        }
        Ok(())
    }
}

impl Default for NacuConfig {
    fn default() -> Self {
        Self::paper_16bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_ids_round_trip_and_exclude_mac() {
        for f in [
            Function::Sigmoid,
            Function::Tanh,
            Function::Exp,
            Function::Softmax,
        ] {
            let id = f.id().unwrap();
            assert_eq!(Function::from_id(id), Some(f));
        }
        assert_eq!(Function::Mac.id(), None);
        assert_eq!(Function::from_id(4), None);
    }

    #[test]
    fn paper_config_validates() {
        assert!(NacuConfig::paper_16bit().validate().is_ok());
    }

    #[test]
    fn for_width_reproduces_paper_at_16_bits() {
        let cfg = NacuConfig::for_width(16).unwrap();
        assert_eq!(cfg.format, QFormat::new(4, 11).unwrap());
        assert_eq!(cfg.lut_entries, 53);
    }

    #[test]
    fn related_work_widths_are_constructible() {
        // Fig. 6c–e compares NACU at 10, 14, 16, 18 and 21 bits.
        for n in [10, 14, 16, 18, 21] {
            let cfg = NacuConfig::for_width(n).unwrap();
            assert_eq!(cfg.format.total_bits(), n);
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn narrow_format_is_rejected() {
        let cfg = NacuConfig {
            format: QFormat::new(1, 14).unwrap(), // 2 < ln2·14
            lut_entries: 53,
            fit_method: FitMethod::Minimax,
        };
        assert!(matches!(
            cfg.validate(),
            Err(NacuError::FormatTooNarrow { .. })
        ));
    }

    #[test]
    fn the_softmax_accumulator_sets_the_widest_width() {
        // At 52 bits Eq. 7 gives Q5.46 and the accumulator Q12.49 (62
        // bits); at 53 it gives Q6.46 and the accumulator would need 64.
        assert_eq!(NacuConfig::max_width(), 52);
        assert!(NacuConfig::for_width(52).is_ok());
        for n in 53..=63 {
            assert!(
                matches!(
                    NacuConfig::for_width(n),
                    Err(NacuError::DatapathWordUnfit {
                        word: "softmax accumulator",
                        ..
                    })
                ),
                "width {n}"
            );
        }
    }

    #[test]
    fn a_two_bit_format_is_refused_not_underflowed() {
        // Q1.0 satisfies Eq. 7 (it has no fractional bits to resolve),
        // but its bias word Q2.(N−3) cannot be formed.
        let cfg = NacuConfig {
            format: QFormat::new(1, 0).unwrap(),
            lut_entries: 1,
            fit_method: FitMethod::Minimax,
        };
        assert!(matches!(
            cfg.validate(),
            Err(NacuError::DatapathWordUnfit { word: "bias", .. })
        ));
    }

    #[test]
    fn zero_lut_is_rejected() {
        let cfg = NacuConfig::paper_16bit().with_lut_entries(0);
        assert!(matches!(cfg.validate(), Err(NacuError::BadLutSize { .. })));
    }

    #[test]
    fn builder_methods_replace_fields() {
        let cfg = NacuConfig::paper_16bit()
            .with_lut_entries(64)
            .with_fit_method(FitMethod::Interpolate);
        assert_eq!(cfg.lut_entries, 64);
        assert_eq!(cfg.fit_method, FitMethod::Interpolate);
    }

    #[test]
    fn entry_scaling_grows_with_precision() {
        let narrow = NacuConfig::for_width(10).unwrap();
        let wide = NacuConfig::for_width(21).unwrap();
        assert!(wide.lut_entries > narrow.lut_entries);
    }
}
