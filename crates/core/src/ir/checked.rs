//! The checked operations compiled routines are made of.
//!
//! Each fails with the [`InterpError`] the interpreter raises for the same
//! fault, payload included, so a routine in [`compiled`](crate::ir::compiled)
//! and the same routine run by [`Interpreter`](crate::ir::interp::Interpreter)
//! cannot be told apart by their results. There is no unchecked access: every
//! index goes through `get`, and every failure is a returned error, boxed (as
//! the interpreter boxes it) so that a `Checked<i64>` is two words wide and
//! the hot paths pass it in registers.

use crate::ir::interp::InterpError;

/// The outcome of a checked operation.
pub type Checked<T> = Result<T, Box<InterpError>>;

#[cold]
#[inline(never)]
fn out_of_bounds(buffer: &str, index: i64, len: usize) -> Box<InterpError> {
    let buffer = buffer.to_string();
    Box::new(InterpError::OutOfBounds { buffer, index, len })
}

/// `data[index]`, checked.
#[inline(always)]
pub fn ld<T: Copy>(data: &[T], index: i64, buffer: &str) -> Checked<T> {
    match usize::try_from(index).ok().and_then(|i| data.get(i)) {
        Some(value) => Ok(*value),
        None => Err(out_of_bounds(buffer, index, data.len())),
    }
}

/// `data[index] = combine(data[index], value)`, checked: a store when
/// `combine` keeps its second operand, `+=`, `max=` and `|=` otherwise.
#[inline(always)]
pub fn update<T: Copy>(
    index: i64,
    value: T,
    data: &mut [T],
    buffer: &str,
    combine: impl FnOnce(T, T) -> T,
) -> Checked<()> {
    let len = data.len();
    match usize::try_from(index).ok().and_then(|i| data.get_mut(i)) {
        Some(cell) => {
            *cell = combine(*cell, value);
            Ok(())
        }
        None => Err(out_of_bounds(buffer, index, len)),
    }
}

/// `a / b`, wrapping, with a zero divisor an error.
#[inline(always)]
pub fn div(a: i64, b: i64) -> Checked<i64> {
    match b {
        0 => Err(Box::new(InterpError::DivisionByZero)),
        b => Ok(a.wrapping_div(b)),
    }
}

/// `a % b`, wrapping, with a zero divisor an error.
#[inline(always)]
pub fn rem(a: i64, b: i64) -> Checked<i64> {
    match b {
        0 => Err(Box::new(InterpError::DivisionByZero)),
        b => Ok(a.wrapping_rem(b)),
    }
}

/// `size` zeroed elements.
pub fn alloc<T: Copy + Default>(size: i64) -> Checked<Vec<T>> {
    let len = usize::try_from(size).map_err(|_| InterpError::NegativeAllocation(size))?;
    let mut data = Vec::new();
    let failed = |_| InterpError::AllocationFailed(size);
    data.try_reserve_exact(len).map_err(failed)?;
    data.resize(len, T::default());
    Ok(data)
}

/// Spends one iteration of a `while` loop's budget.
#[inline(always)]
pub fn tick(left: &mut u64) -> Checked<()> {
    *left = left.checked_sub(1).ok_or(InterpError::IterationLimit)?;
    Ok(())
}
