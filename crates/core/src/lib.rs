//! Bit-accurate model of **NACU**, the reconfigurable Non-linear Arithmetic
//! Computation Unit of Baccelli et al. (DAC 2020).
//!
//! NACU computes the sigmoid, hyperbolic tangent, exponential and softmax
//! functions — plus plain multiply-accumulate — from one shared fixed-point
//! datapath. A single piecewise-linear coefficient LUT models the
//! **positive range of σ only**; everything else is derived with cheap
//! bit-level operations:
//!
//! * `tanh(x) = 2σ(2x) − 1` (Eq. 3) — an address shift plus coefficient
//!   scaling,
//! * `σ(−x) = 1 − σ(x)` and `tanh(−x) = −tanh(x)` (Eqs. 4–5) — the Fig. 3
//!   bias-derivation units in [`bias`],
//! * `e^x = 1/σ(−x) − 1` (Eq. 14) — the restoring [`divider`] and a
//!   decrementor,
//! * softmax (Eq. 13) — max-normalised exp plus the MAC and divider.
//!
//! That walk is written once, in [`datapath`], generic over the
//! [`datapath::Nets`] on its named wires: [`Nacu`] runs it over
//! fault-free nets, and `nacu-faults` runs the same walk with fault taps
//! and detectors on them.
//!
//! The model operates on raw two's-complement codes throughout
//! ([`nacu_fixed::Fx`]), so its outputs are bit-identical to an RTL
//! simulation of the same micro-architecture; every error figure in the
//! paper's §VII can be measured directly against it.
//!
//! # Quickstart
//!
//! ```
//! use nacu::{Nacu, NacuConfig};
//! use nacu_fixed::{Fx, Rounding};
//!
//! # fn main() -> Result<(), nacu::NacuError> {
//! let nacu = Nacu::new(NacuConfig::paper_16bit())?;
//! let fmt = nacu.config().format;
//! let x = Fx::from_f64(1.0, fmt, Rounding::Nearest);
//! let y = nacu.sigmoid(x);
//! assert!((y.to_f64() - 0.731_058).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod bias;
pub mod bounds;
pub mod config;
pub mod datapath;
pub mod divider;
pub mod error_prop;
pub mod format;
pub mod pipeline;
pub mod table;
pub mod vcd;
pub mod verilog;

mod error;

pub use config::{Function, NacuConfig};
pub use datapath::Nacu;
pub use error::NacuError;
pub use table::{ResponseTable, ResponseTables};
