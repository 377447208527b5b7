use std::error::Error;
use std::fmt;

use nacu_fixed::FxError;

/// Errors produced when configuring or driving the NACU model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NacuError {
    /// The configured format violates the Eq. 7 dimensioning rule: the
    /// input range is too small for σ to saturate within one output LSB,
    /// so the unit cannot meet its own accuracy contract.
    FormatTooNarrow {
        /// Integer bits of the rejected format.
        int_bits: u32,
        /// Minimum integer bits Eq. 7 requires at this width.
        required: u32,
    },
    /// The coefficient LUT entry count is invalid (zero, or more entries
    /// than representable input codes).
    BadLutSize {
        /// The offending entry count.
        entries: usize,
    },
    /// A datapath word derived from the I/O format (see
    /// [`crate::format::DatapathWords`]) does not fit a fixed-point word
    /// of 2 to 63 bits, so no unit can be built at this width.
    DatapathWordUnfit {
        /// The word that does not fit.
        word: &'static str,
        /// Width `N` of the I/O format it derives from.
        total_bits: u32,
    },
    /// Softmax was asked to normalise an empty vector.
    EmptyVector,
    /// An underlying fixed-point operation failed.
    Fixed(FxError),
}

impl fmt::Display for NacuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NacuError::FormatTooNarrow { int_bits, required } => write!(
                f,
                "format has {int_bits} integer bits but Eq. 7 requires at least {required}"
            ),
            NacuError::BadLutSize { entries } => {
                write!(f, "invalid coefficient LUT size: {entries}")
            }
            NacuError::DatapathWordUnfit { word, total_bits } => write!(
                f,
                "the {word} word of a {total_bits}-bit datapath does not fit 2 to 63 bits"
            ),
            NacuError::EmptyVector => write!(f, "softmax of an empty vector"),
            NacuError::Fixed(e) => write!(f, "fixed-point failure: {e}"),
        }
    }
}

impl Error for NacuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NacuError::Fixed(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<FxError> for NacuError {
    fn from(e: FxError) -> Self {
        NacuError::Fixed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = NacuError::FormatTooNarrow {
            int_bits: 2,
            required: 4,
        };
        assert!(e.to_string().contains("Eq. 7"));
        assert!(NacuError::EmptyVector.to_string().contains("empty"));
    }

    #[test]
    fn fx_errors_chain_as_source() {
        let e = NacuError::from(FxError::DivideByZero);
        assert!(e.source().is_some());
    }
}
