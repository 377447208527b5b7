//! The batch-executor seam between the worker pool and the arithmetic
//! that actually serves a unary batch.
//!
//! A [`BatchExecutor`] rewrites one operand buffer in place with the
//! function's responses. There are two: [`ResponseTable`] itself, one
//! masked table read per operand ([`ResponseTable::lookup_in_place`]),
//! for every table-backed request a healthy engine serves inline; and
//! [`DatapathWalk`], the checked datapath — the golden reference and
//! fault harness — which every pool worker serves with. A healthy engine
//! serves a format too wide to tabulate from the integer kernel
//! ([`nacu::Nacu::kernel_in_place`]) instead. That is also the seam a
//! CGRA-backed worker variant would plug into later: anything that can
//! turn a batch of operands into bit-identical outputs is an executor.
//!
//! The gather needs no unchecked indexing: tables hold exactly `2^N`
//! entries, so `offset & table.index_mask()` is provably in bounds and
//! the compiler drops the bounds checks (see
//! [`ResponseTable::index_mask`]). Bit-identity is by construction — the
//! tables were built by the kernel, which equals the golden walk on every
//! code — and re-proven by the exhaustive sweeps in this module and in
//! the root `tests/bit_identical.rs`.

use nacu::{Function, ResponseTable};
use nacu_faults::{CheckedNacu, FaultEvent};
use nacu_fixed::Fx;

/// The table executor an engine serves its fast path with. There is
/// only one, so this and [`ExecutorSelect`] carry no choice; they exist
/// only so the benchmark adapter's
/// `table_executor(ExecutorSelect::default().resolve(), table)` keeps
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// [`ResponseTable::lookup_in_place`]: one table read per operand.
    Scalar,
}

/// See [`ExecutorKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorSelect;

impl ExecutorSelect {
    /// Always [`ExecutorKind::Scalar`].
    #[must_use]
    pub fn resolve(self) -> ExecutorKind {
        ExecutorKind::Scalar
    }
}

/// Turns one batch of operands into the function's responses, in place.
pub trait BatchExecutor {
    /// Rewrites every element of `xs` with its response, bit-identical
    /// to the golden datapath. The table gather is infallible; the
    /// datapath walk stops at the first detector event, leaving `xs`
    /// partially rewritten — callers that need pristine operands for a
    /// retry execute on a copy, as the pool's datapath arm does.
    fn execute(&self, xs: &mut [Fx]) -> Result<(), FaultEvent>;
}

/// The fast path: one scalar masked lookup per operand.
impl BatchExecutor for ResponseTable {
    fn execute(&self, xs: &mut [Fx]) -> Result<(), FaultEvent> {
        self.lookup_in_place(xs);
        Ok(())
    }
}

/// Full datapath walk through a worker's [`CheckedNacu`] — the fallible
/// executor every pool worker serves from.
pub struct DatapathWalk<'a> {
    unit: &'a CheckedNacu,
    function: Function,
}

impl<'a> DatapathWalk<'a> {
    #[must_use]
    pub fn new(unit: &'a CheckedNacu, function: Function) -> Self {
        Self { unit, function }
    }
}

impl BatchExecutor for DatapathWalk<'_> {
    fn execute(&self, xs: &mut [Fx]) -> Result<(), FaultEvent> {
        for x in xs {
            *x = self.unit.compute(self.function, *x)?;
        }
        Ok(())
    }
}

/// Returns `table` as its own executor. `kind` is accepted for the
/// benchmark adapter's call shape and ignored: every table-backed batch
/// is served by [`ResponseTable::lookup_in_place`].
#[must_use]
pub fn table_executor(_kind: ExecutorKind, table: &ResponseTable) -> &ResponseTable {
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu::{Nacu, NacuConfig, ResponseTables};
    use nacu_fixed::Rounding;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fixture() -> (Nacu, ResponseTables) {
        let nacu = Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
        let tables = ResponseTables::build(&nacu).expect("16-bit fits");
        (nacu, tables)
    }

    /// Runs the table gather over every input code of the paper's
    /// format and checks each output against the golden datapath.
    #[test]
    fn table_gather_is_bit_identical_on_every_code() {
        let (nacu, tables) = fixture();
        let fmt = nacu.config().format;
        let inputs: Vec<Fx> = fmt
            .raw_codes()
            .map(|raw| Fx::from_raw_saturating(raw, fmt))
            .collect();
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let table = tables.get(function).expect("unary");
            let mut batch = inputs.clone();
            table_executor(ExecutorSelect.resolve(), table)
                .execute(&mut batch)
                .expect("table path");
            for (&x, &y) in inputs.iter().zip(batch.iter()) {
                assert_eq!(
                    y,
                    nacu.compute(function, x),
                    "{function} vs datapath at {x}"
                );
            }
        }
    }

    #[test]
    fn datapath_walk_matches_the_golden_unit() {
        let (nacu, _) = fixture();
        let unit = CheckedNacu::new(*nacu.config()).expect("paper config");
        let walk = DatapathWalk::new(&unit, Function::Tanh);
        let fmt = nacu.config().format;
        let mut xs: Vec<Fx> = [-3.0, -0.5, 0.0, 0.75, 2.5]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        let inputs = xs.clone();
        walk.execute(&mut xs).expect("no faults planned");
        for (&x, &y) in inputs.iter().zip(xs.iter()) {
            assert_eq!(y, nacu.compute(Function::Tanh, x));
        }
    }

    proptest! {
        /// Batches of every length, the empty batch included, agree
        /// with the datapath walk operand for operand.
        #[test]
        fn table_gather_matches_the_datapath_on_any_batch_size(
            values in vec(-8.0f64..8.0, 0..103),
        ) {
            let (nacu, tables) = fixture();
            let fmt = nacu.config().format;
            let table = tables.get(Function::Sigmoid).expect("unary");
            let unit = CheckedNacu::new(*nacu.config()).expect("paper config");
            let inputs: Vec<Fx> = values
                .iter()
                .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
                .collect();
            let mut expect = inputs.clone();
            DatapathWalk::new(&unit, Function::Sigmoid)
                .execute(&mut expect)
                .expect("no faults planned");
            let mut batch = inputs;
            table.execute(&mut batch).expect("table path");
            prop_assert_eq!(batch, expect);
        }
    }
}
