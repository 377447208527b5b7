//! Analytic error bounds for a NACU configuration.
//!
//! The measured errors of §VII decompose into quantities that can be
//! bounded *before* building anything: per-segment PWL fit error
//! (`|f″|·w²/16` for the minimax line), coefficient quantisation, and the
//! single output rounding. This module computes those bounds for any
//! [`NacuConfig`] and the tests verify the measured sweeps respect them —
//! the "formal method" companion to the paper's empirical §VII.

use nacu_fixed::QFormat;
use nacu_funcapprox::reference::RefFunc;

use crate::config::NacuConfig;
use crate::error_prop;
use crate::format::DatapathWords;

/// Error-budget decomposition for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Worst per-segment minimax fit error of the σ PWL.
    pub fit: f64,
    /// Error contribution of slope quantisation (after bias refit: the
    /// residual tilt across one segment).
    pub slope_quant: f64,
    /// Bias quantisation (half an LSB of the bias word).
    pub bias_quant: f64,
    /// Final output rounding (half an LSB of the output word).
    pub output_round: f64,
}

impl ErrorBudget {
    /// Total worst-case σ error bound (straight sum — the components are
    /// independent and can align).
    #[must_use]
    pub fn sigma_bound(&self) -> f64 {
        self.fit + self.slope_quant + self.bias_quant + self.output_round
    }

    /// Worst-case tanh bound: Eq. 3 doubles the σ error (`2σ(2x) − 1`),
    /// with its own final rounding instead of σ's.
    #[must_use]
    pub fn tanh_bound(&self) -> f64 {
        2.0 * (self.fit + self.slope_quant + self.bias_quant) + self.output_round
    }

    /// Worst-case exp bound via Eq. 16: 4× the σ error in the divider's
    /// working word, plus the divider truncation and output rounding.
    #[must_use]
    pub fn exp_bound(&self, work_fmt: QFormat, out_fmt: QFormat) -> f64 {
        let sigma_work = self.fit + self.slope_quant + self.bias_quant + work_fmt.resolution();
        error_prop::normalized_bound(sigma_work)
            + work_fmt.resolution() // divider truncation
            + out_fmt.resolution() / 2.0
    }
}

/// Computes the error budget of a configuration.
///
/// # Panics
///
/// Panics if the configuration does not validate (call
/// [`NacuConfig::validate`] first for a `Result`).
#[must_use]
pub fn budget(config: &NacuConfig) -> ErrorBudget {
    config.validate().expect("valid configuration");
    let fmt = config.format;
    let words = DatapathWords::for_format(fmt).expect("valid configuration");
    let (coef_fmt, bias_fmt) = (words.coef, words.bias);
    let width = fmt.max_value() / config.lut_entries as f64;
    // Max |σ''| over x ≥ 0 is at x = ln(2 + √3) ≈ 1.317: |σ''| ≈ 0.0962.
    let max_curvature = sigma_second_derivative_max();
    let fit = max_curvature * width * width / 16.0;
    // Slope quantised to half an LSB of the coefficient word; after the
    // bias refit only the tilt across the segment half-width remains.
    let slope_quant = coef_fmt.resolution() / 2.0 * width / 2.0;
    let bias_quant = bias_fmt.resolution() / 2.0;
    let output_round = fmt.resolution() / 2.0;
    ErrorBudget {
        fit,
        slope_quant,
        bias_quant,
        output_round,
    }
}

/// `max_{x≥0} |σ''(x)|`, attained at `x = ln(2 + √3)`.
#[must_use]
pub fn sigma_second_derivative_max() -> f64 {
    let x = (2.0 + 3.0_f64.sqrt()).ln();
    RefFunc::Sigmoid.second_derivative(x).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::Nacu;
    use nacu_funcapprox::metrics;
    use nacu_funcapprox::reference;

    #[test]
    fn curvature_maximum_is_the_known_constant() {
        // |σ''|max = 1/(6√3) ≈ 0.09623.
        let expected = 1.0 / (6.0 * 3.0_f64.sqrt());
        assert!((sigma_second_derivative_max() - expected).abs() < 1e-12);
    }

    #[test]
    fn measured_sigma_error_respects_the_bound() {
        let config = NacuConfig::paper_16bit();
        let bound = budget(&config).sigma_bound();
        let nacu = Nacu::new(config).unwrap();
        let fmt = config.format;
        let report =
            metrics::sweep_raw_range(fmt, fmt.min_raw(), fmt.max_raw(), reference::sigmoid, |x| {
                nacu.sigmoid(x).to_f64()
            });
        assert!(
            report.max_error <= bound,
            "measured {} exceeds bound {bound}",
            report.max_error
        );
        // And the bound is not vacuous: within 4x of the measurement.
        assert!(bound <= 4.0 * report.max_error, "bound {bound} too loose");
    }

    #[test]
    fn measured_tanh_error_respects_the_bound() {
        let config = NacuConfig::paper_16bit();
        let bound = budget(&config).tanh_bound();
        let nacu = Nacu::new(config).unwrap();
        let fmt = config.format;
        let report = metrics::sweep_raw_range(
            fmt,
            fmt.min_raw(),
            fmt.max_raw(),
            |x| x.tanh(),
            |x| nacu.tanh(x).to_f64(),
        );
        assert!(
            report.max_error <= bound,
            "measured {} exceeds bound {bound}",
            report.max_error
        );
    }

    #[test]
    fn measured_exp_error_respects_the_eq16_bound() {
        let config = NacuConfig::paper_16bit();
        let fmt = config.format;
        let work = QFormat::new(2, fmt.total_bits() - 3).unwrap();
        let bound = budget(&config).exp_bound(work, fmt);
        let nacu = Nacu::new(config).unwrap();
        let report =
            metrics::sweep_raw_range(fmt, fmt.min_raw(), 0, |x| x.exp(), |x| nacu.exp(x).to_f64());
        assert!(
            report.max_error <= bound,
            "measured {} exceeds bound {bound}",
            report.max_error
        );
    }

    #[test]
    fn budget_shrinks_with_width_and_entries() {
        let wide = budget(&NacuConfig::for_width(20).unwrap());
        let narrow = budget(&NacuConfig::for_width(10).unwrap());
        assert!(wide.sigma_bound() < narrow.sigma_bound());
        let few = budget(&NacuConfig::paper_16bit().with_lut_entries(8));
        let many = budget(&NacuConfig::paper_16bit().with_lut_entries(128));
        assert!(many.fit < few.fit);
    }
}
