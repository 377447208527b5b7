//! Flattened response tables: the whole unary transfer function of a
//! narrow NACU, precomputed by the datapath itself.
//!
//! For an `N`-bit format with `N ≤ 16`, σ/tanh/exp are pure functions of
//! a ≤16-bit two's-complement input code, so the **entire** response fits
//! in a `2^N`-entry table of output codes — the flattened-LUT end of the
//! design space the segmented coefficient LUT economises on (cf. the
//! activation-circuit DSE literature). The serving engine uses these
//! tables as its hot path: one bounds-checked index per operand instead
//! of a segment select, a Fig. 3 bias transform and (for exp) a restoring
//! division.
//!
//! Bit-identity is **by construction**, not by approximation: the builder
//! runs the golden [`Nacu`] datapath once over every input code and
//! stores the raw output codes verbatim. A table lookup therefore cannot
//! disagree with the datapath — the exhaustive equivalence tests in this
//! module and in `nacu-engine` merely re-verify what the construction
//! already guarantees.
//!
//! Memory cost: 2 bytes per code per function — 128 KiB per function and
//! 384 KiB for all three at the paper's 16-bit format, proportionally
//! less for narrower sweeps. Formats wider than
//! [`ResponseTables::MAX_TABLE_BITS`] get no tables
//! ([`ResponseTables::build`] returns `None`) and callers fall back to
//! the datapath.

use nacu_fixed::{Fx, QFormat};

use crate::config::Function;
use crate::datapath::Nacu;

/// One unary function's complete response, indexed by raw input code.
#[derive(Debug, Clone)]
pub struct ResponseTable {
    function: Function,
    format: QFormat,
    /// `codes[(x.raw() - min_raw) as usize]` is the raw output code for
    /// input `x`. `i16` holds any code of a ≤16-bit format.
    codes: Box<[i16]>,
}

impl ResponseTable {
    /// Tabulates `function` by evaluating the golden datapath at every
    /// one of the format's `2^N` input codes.
    fn build(nacu: &Nacu, function: Function) -> Self {
        let format = nacu.config().format;
        let codes: Box<[i16]> = format
            .raw_codes()
            .map(|raw| {
                let x = Fx::from_raw_saturating(raw, format);
                nacu.compute(function, x).raw() as i16
            })
            .collect();
        // The batch-gather entry points below rely on the exact-2^N size
        // to make masked indexing a no-op (see `index_mask`).
        assert!(
            codes.len().is_power_of_two(),
            "an N-bit format has exactly 2^N codes"
        );
        Self {
            function,
            format,
            codes,
        }
    }

    /// The tabulated function.
    #[must_use]
    pub fn function(&self) -> Function {
        self.function
    }

    /// The input/output format the table was built for.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Table size in entries (`2^N`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `false` always — a built table covers every input code.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The function value at `x`, bit-identical to the datapath that
    /// built the table.
    ///
    /// # Panics
    ///
    /// Panics if `x` carries a different format than the table was built
    /// for (same contract as [`Nacu::compute`]).
    #[must_use]
    #[inline]
    pub fn lookup(&self, x: Fx) -> Fx {
        assert_eq!(
            x.format(),
            self.format,
            "input format {} does not match the tabulated {}",
            x.format(),
            self.format
        );
        let index = (x.raw() - self.format.min_raw()) as usize;
        Fx::from_raw_saturating(i64::from(self.codes[index]), self.format)
    }

    /// `len() - 1`, usable as an index mask: the table holds exactly
    /// `2^N` entries (asserted at build), so `offset & index_mask()` is
    /// always `< len()`. For any in-range input the AND is a no-op —
    /// `x.raw() - min_raw()` already lies in `[0, 2^N)` — it exists so
    /// the compiler can *prove* the bound and drop the bounds check from
    /// gather loops.
    #[must_use]
    #[inline]
    pub fn index_mask(&self) -> usize {
        self.codes.len() - 1
    }

    /// [`Self::lookup`] without the release-mode format assert, for hot
    /// batch loops whose inputs were already validated upstream (the
    /// serving engine checks every operand's format at submit). The index
    /// is masked, so even a format-confused caller reads a wrong-but-
    /// in-bounds entry rather than panicking mid-batch.
    #[must_use]
    #[inline]
    pub fn lookup_fast(&self, x: Fx) -> Fx {
        debug_assert_eq!(
            x.format(),
            self.format,
            "input format {} does not match the tabulated {}",
            x.format(),
            self.format
        );
        let index = (x.raw() - self.format.min_raw()) as usize & self.index_mask();
        Fx::from_raw_saturating(i64::from(self.codes[index]), self.format)
    }

    /// Rewrites every element of `xs` with its table response, in place.
    /// This is the gather `nacu-engine` serves every table-backed batch
    /// with.
    #[inline]
    pub fn lookup_in_place(&self, xs: &mut [Fx]) {
        for x in xs {
            *x = self.lookup_fast(*x);
        }
    }
}

/// The three unary tables of one configuration, built together so a
/// serving pool can share them behind one `Arc`.
#[derive(Debug, Clone)]
pub struct ResponseTables {
    sigmoid: ResponseTable,
    tanh: ResponseTable,
    exp: ResponseTable,
    format: QFormat,
}

impl ResponseTables {
    /// Widest format the tables are built for. Beyond 16 bits the table
    /// grows past `2^16` entries per function and the flattened-LUT
    /// trade-off inverts: the segmented coefficient LUT is the smaller
    /// artefact, so wide configurations keep the datapath.
    pub const MAX_TABLE_BITS: u32 = 16;

    /// Builds σ/tanh/exp tables from the golden datapath, or `None` when
    /// the format is wider than [`Self::MAX_TABLE_BITS`].
    #[must_use]
    pub fn build(nacu: &Nacu) -> Option<Self> {
        let format = nacu.config().format;
        if format.total_bits() > Self::MAX_TABLE_BITS {
            return None;
        }
        Some(Self {
            sigmoid: ResponseTable::build(nacu, Function::Sigmoid),
            tanh: ResponseTable::build(nacu, Function::Tanh),
            exp: ResponseTable::build(nacu, Function::Exp),
            format,
        })
    }

    /// The format the tables serve.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The table for a unary function, `None` for softmax/MAC (softmax
    /// keeps the divider and draws only its exp stage from
    /// [`Self::exp`]).
    #[must_use]
    pub fn get(&self, function: Function) -> Option<&ResponseTable> {
        match function {
            Function::Sigmoid => Some(&self.sigmoid),
            Function::Tanh => Some(&self.tanh),
            Function::Exp => Some(&self.exp),
            _ => None,
        }
    }

    /// The exp table — softmax's table-served stage.
    #[must_use]
    pub fn exp(&self) -> &ResponseTable {
        &self.exp
    }

    /// Total table memory in bytes (the fast path's footprint).
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.sigmoid.len() + self.tanh.len() + self.exp.len()) * std::mem::size_of::<i16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NacuConfig;
    use crate::NacuError;

    fn tables_for(config: NacuConfig) -> (Nacu, ResponseTables) {
        let nacu = Nacu::new(config).expect("valid config");
        let tables = ResponseTables::build(&nacu).expect("narrow enough to tabulate");
        (nacu, tables)
    }

    /// The tentpole guarantee, exhaustively at the paper's format: every
    /// one of the 2^16 codes agrees bit-for-bit for all three functions.
    #[test]
    fn paper_16bit_tables_match_the_datapath_on_every_code() {
        let (nacu, tables) = tables_for(NacuConfig::paper_16bit());
        let fmt = nacu.config().format;
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let table = tables.get(function).expect("unary");
            for raw in fmt.raw_codes() {
                let x = Fx::from_raw_saturating(raw, fmt);
                assert_eq!(
                    table.lookup(x),
                    nacu.compute(function, x),
                    "{function} diverges at raw {raw}"
                );
            }
        }
    }

    /// Every width in the paper's sweep that fits the table budget gets
    /// an exhaustive bit-identity check (narrow formats are cheap: 2^N).
    #[test]
    fn width_sweep_tables_match_the_datapath_exhaustively() {
        for width in [8u32, 10, 12, 14, 16] {
            let config = NacuConfig::for_width(width).expect("sweep width");
            let (nacu, tables) = tables_for(config);
            let fmt = nacu.config().format;
            for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
                let table = tables.get(function).expect("unary");
                for raw in fmt.raw_codes() {
                    let x = Fx::from_raw_saturating(raw, fmt);
                    assert_eq!(
                        table.lookup(x),
                        nacu.compute(function, x),
                        "{function} diverges at width {width}, raw {raw}"
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_with_table_exp_is_bit_identical_to_the_datapath() {
        let (nacu, tables) = tables_for(NacuConfig::paper_16bit());
        let fmt = nacu.config().format;
        let inputs: Vec<Fx> = [-3.2, 0.0, 1.5, 7.75, -0.125, 2.0]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, nacu_fixed::Rounding::Nearest))
            .collect();
        let golden = nacu.softmax(&inputs).expect("valid vector");
        let fast = nacu
            .softmax_with(&inputs, |x| Ok::<_, NacuError>(tables.exp().lookup(x)))
            .expect("valid vector");
        assert_eq!(golden, fast);
    }

    /// The masked fast lookup and the in-place batch gather agree with
    /// the asserting scalar lookup on every code of the paper's format.
    #[test]
    fn fast_and_in_place_lookups_match_the_checked_lookup_exhaustively() {
        let (nacu, tables) = tables_for(NacuConfig::paper_16bit());
        let fmt = nacu.config().format;
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let table = tables.get(function).expect("unary");
            assert_eq!(table.index_mask(), table.len() - 1);
            let mut batch: Vec<Fx> = fmt
                .raw_codes()
                .map(|raw| Fx::from_raw_saturating(raw, fmt))
                .collect();
            for &x in &batch {
                assert_eq!(table.lookup_fast(x), table.lookup(x));
            }
            let expect: Vec<Fx> = batch.iter().map(|&x| table.lookup(x)).collect();
            table.lookup_in_place(&mut batch);
            assert_eq!(batch, expect);
        }
    }

    #[test]
    fn wide_formats_are_not_tabulated() {
        let nacu = Nacu::new(NacuConfig::for_width(18).expect("wide sweep")).expect("valid");
        assert!(ResponseTables::build(&nacu).is_none());
    }

    #[test]
    fn table_memory_cost_matches_the_documented_figure() {
        let (_, tables) = tables_for(NacuConfig::paper_16bit());
        // 3 functions × 2^16 entries × 2 bytes = 384 KiB.
        assert_eq!(tables.bytes(), 3 * 65_536 * 2);
        assert_eq!(tables.get(Function::Sigmoid).unwrap().len(), 65_536);
        assert!(tables.get(Function::Softmax).is_none());
        assert!(tables.get(Function::Mac).is_none());
    }

    #[test]
    #[should_panic(expected = "does not match the tabulated")]
    fn lookup_rejects_alien_formats() {
        let (_, tables) = tables_for(NacuConfig::paper_16bit());
        let alien = Fx::zero(QFormat::new(2, 13).unwrap());
        let _ = tables.exp().lookup(alien);
    }
}
