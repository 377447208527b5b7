//! The recursive centred-interpolation σ of Basterretxea et al. \[7\].
//!
//! \[7\] builds a PWL approximation by **recursive refinement**: starting
//! from one segment spanning the whole range, each recursion level splits
//! every segment at its midpoint and pulls the new vertex halfway towards
//! the true function value (the "centred linear interpolation" CRI
//! scheme, divider-free because every step is an average — a right
//! shift). The recursion depth dials accuracy against table size, the
//! "progressively refine and dimension the number of segments" of §VI.

use nacu_fixed::{Fx, QFormat, Rounding};
use nacu_funcapprox::reference::sigmoid;

use crate::{Comparator, TargetFunc};

/// 16-bit `Q3.12` (the paper's experiments use a ±8 range).
fn fmt() -> QFormat {
    QFormat::new(3, 12).expect("Q3.12 is valid")
}

/// Recursion depth: 2^q segments over the positive range.
const DEPTH: u32 = 4;

/// The \[7\] comparator.
#[derive(Debug, Clone)]
pub struct BasterretxeaCri {
    /// Vertex ordinates at the 2^DEPTH + 1 uniform breakpoints.
    vertices: Vec<f64>,
    /// Half-residual triangular corrections, one per finest segment.
    corrections: Vec<f64>,
}

impl BasterretxeaCri {
    /// Builds the depth-4 recursive interpolation.
    #[must_use]
    pub fn new() -> Self {
        Self::with_depth(DEPTH)
    }

    /// Builds an arbitrary-depth variant (exposed for the convergence
    /// tests and the ablation bench).
    ///
    /// Each recursion level doubles the breakpoint count (new breakpoints
    /// take the true function value — the interpolation step); the final
    /// level applies the *centred* correction: instead of a last full
    /// subdivision, each finest segment adds half its midpoint residual as
    /// a triangular bump — one add and one shift, no extra table entry.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or greater than 12.
    #[must_use]
    pub fn with_depth(depth: u32) -> Self {
        assert!((1..=12).contains(&depth), "depth must be 1..=12");
        let hi = fmt().max_value();
        let segments = 1usize << depth;
        let f = fmt();
        let quant = |v: f64| Fx::from_f64(v, f, Rounding::Nearest).to_f64();
        let vertices: Vec<f64> = (0..=segments)
            .map(|k| quant(sigmoid(hi * k as f64 / segments as f64)))
            .collect();
        // Centred-interpolation correction per finest segment: half the
        // midpoint residual, applied as a triangular profile.
        let corrections: Vec<f64> = (0..segments)
            .map(|k| {
                let seg_w = hi / segments as f64;
                let mid_x = seg_w * (k as f64 + 0.5);
                let chord_mid = 0.5 * (vertices[k] + vertices[k + 1]);
                quant(0.5 * (sigmoid(mid_x) - chord_mid))
            })
            .collect();
        Self {
            vertices,
            corrections,
        }
    }

    /// Number of linear segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.vertices.len() - 1
    }

    fn positive(&self, mag: f64) -> f64 {
        let hi = fmt().max_value();
        let segments = self.segments() as f64;
        let pos = (mag / hi * segments).min(segments - 1e-9);
        let idx = pos as usize;
        let frac = pos - idx as f64;
        let chord = self.vertices[idx] * (1.0 - frac) + self.vertices[idx + 1] * frac;
        // Triangular centred correction: peaks at the segment midpoint.
        let triangle = 1.0 - (2.0 * frac - 1.0).abs();
        chord + self.corrections[idx] * triangle
    }
}

impl Default for BasterretxeaCri {
    fn default() -> Self {
        Self::new()
    }
}

impl Comparator for BasterretxeaCri {
    fn citation(&self) -> &'static str {
        "[7]"
    }

    fn implementation(&self) -> &'static str {
        "recursive PWL (CRI)"
    }

    fn func(&self) -> TargetFunc {
        TargetFunc::Sigmoid
    }

    fn input_format(&self) -> QFormat {
        fmt()
    }

    fn output_format(&self) -> QFormat {
        fmt()
    }

    fn eval(&self, x: Fx) -> Fx {
        assert_eq!(x.format(), fmt(), "input format mismatch");
        let mag = (x.raw().abs() as f64) * fmt().resolution();
        let y = self.positive(mag);
        let out = if x.raw() < 0 { 1.0 - y } else { y };
        Fx::from_f64(out, fmt(), Rounding::Nearest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;

    #[test]
    fn depth_grows_segments_exponentially() {
        assert_eq!(BasterretxeaCri::with_depth(1).segments(), 2);
        assert_eq!(BasterretxeaCri::with_depth(4).segments(), 16);
        assert_eq!(BasterretxeaCri::with_depth(6).segments(), 64);
    }

    #[test]
    fn each_recursion_level_refines_the_error() {
        let mut last = f64::INFINITY;
        for depth in [2, 4, 6] {
            let d = BasterretxeaCri::with_depth(depth);
            let err = measure_positive_err(&d);
            assert!(err < last, "depth {depth}: {err} vs {last}");
            last = err;
        }
    }

    fn measure_positive_err(d: &BasterretxeaCri) -> f64 {
        let f = fmt();
        let mut worst = 0.0_f64;
        for raw in (0..f.max_raw()).step_by(37) {
            let x = Fx::from_raw(raw, f).unwrap();
            worst = worst.max((d.eval(x).to_f64() - sigmoid(x.to_f64())).abs());
        }
        worst
    }

    #[test]
    fn default_depth_lands_in_the_published_decade() {
        // [7] reports maximum errors in the 1e-2..1e-3 decade for its
        // moderate-depth configurations.
        let report = measure(&BasterretxeaCri::new());
        assert!(
            report.max_error > 1e-4 && report.max_error < 3e-2,
            "max {}",
            report.max_error
        );
        assert!(report.correlation > 0.999);
    }

    #[test]
    fn symmetry_holds() {
        let d = BasterretxeaCri::new();
        let f = fmt();
        let x = Fx::from_f64(1.7, f, Rounding::Nearest);
        let nx = Fx::from_f64(-1.7, f, Rounding::Nearest);
        let sum = d.eval(x).to_f64() + d.eval(nx).to_f64();
        assert!((sum - 1.0).abs() < 2e-3);
    }

    #[test]
    #[should_panic(expected = "depth must be 1..=12")]
    fn zero_depth_panics() {
        let _ = BasterretxeaCri::with_depth(0);
    }
}
