//! Function-approximation substrate for the NACU reproduction.
//!
//! Section VI of the paper surveys four architectural families for
//! computing bounded non-linear functions in hardware:
//!
//! * [`UniformLut`] — uniform segments, one constant per segment (*LUT*),
//! * [`RangeLut`] — non-uniform segments, one constant per segment
//!   (*RALUT*, range-addressable LUT),
//! * [`UniformPwl`] — uniform segments, first-order polynomial per segment
//!   (*PWL*, the family NACU itself belongs to),
//! * [`NonUniformPwl`] — non-uniform segments, first-order polynomial
//!   (*NUPWL*).
//!
//! Each family is built against an f64 [`reference`](mod@reference) function over a domain
//! and evaluated **bit-accurately**: inputs, table contents and outputs are
//! quantised [`nacu_fixed::Fx`] values, so measured errors include both the
//! approximation error and the fixed-point quantisation error — exactly the
//! quantity Fig. 4 of the paper plots.
//!
//! The [`metrics`] module provides the exhaustive-sweep error measures the
//! paper reports (max error, average error, RMSE, correlation), and
//! [`search`] implements the "explore all interval counts, keep the best"
//! procedure behind Fig. 4a/4b.
//!
//! # Example
//!
//! ```
//! use nacu_fixed::QFormat;
//! use nacu_funcapprox::{reference::RefFunc, UniformPwl, FixedApprox, metrics};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fmt = QFormat::new(4, 11)?;
//! // 53-entry PWL over the positive sigmoid range, as in the paper.
//! let pwl = UniformPwl::fit(RefFunc::Sigmoid, 53, fmt, fmt)?;
//! let report = metrics::sweep(&pwl, RefFunc::Sigmoid);
//! assert!(report.max_error < 1e-3);
//! # Ok(())
//! # }
//! ```

mod approx;
pub mod metrics;
pub mod reference;
pub mod search;
pub mod segment;

pub use approx::lut::UniformLut;
pub use approx::nupwl::NonUniformPwl;
pub use approx::poly2::SecondOrderTable;
pub use approx::pwl::UniformPwl;
pub use approx::ralut::RangeLut;
pub use approx::{ApproxError, FixedApprox};
