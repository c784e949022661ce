//! What compiled routines are made of: the checked operations, the inputs
//! they borrow, the outputs they return and the errors they raise.
//!
//! A [`Routine`] borrows its source's arrays as [`Inputs`] and returns, as
//! [`Outputs`], only what the target's container is built from. Each
//! operation fails with the [`InterpError`] the IR's reference interpreter
//! (a test-only module) raises for the same fault, payload included, so the
//! two cannot be told apart by their results. There is no unchecked access:
//! every index goes through `get`, and every failure is a returned error,
//! boxed so that a `Checked<i64>` is two words wide and the hot paths pass it
//! in registers.

use std::error::Error;
use std::fmt;

/// Errors raised while executing IR.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A scalar variable was read before being defined.
    UndefinedVariable(String),
    /// A buffer was accessed that does not exist in the environment.
    UndefinedBuffer(String),
    /// A buffer access was out of bounds.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Offending index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// A value, or a name's definitions, had the wrong type.
    TypeError(String),
    /// Division or remainder by zero.
    DivisionByZero,
    /// A loop exceeded its iteration budget ([`WHILE_BUDGET`]; guards
    /// against nontermination).
    IterationLimit,
    /// An allocation size was negative.
    NegativeAllocation(i64),
    /// An allocation of this many elements could not be made: its size in
    /// bytes overflows, or the allocator refused it.
    AllocationFailed(i64),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UndefinedVariable(name) => write!(f, "undefined variable `{name}`"),
            InterpError::UndefinedBuffer(name) => write!(f, "undefined buffer `{name}`"),
            InterpError::OutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for buffer `{buffer}` of length {len}"
                )
            }
            InterpError::TypeError(msg) => write!(f, "type error: {msg}"),
            InterpError::DivisionByZero => write!(f, "division by zero"),
            InterpError::IterationLimit => write!(f, "iteration limit exceeded"),
            InterpError::NegativeAllocation(size) => write!(f, "negative allocation size {size}"),
            InterpError::AllocationFailed(size) => write!(f, "cannot allocate {size} elements"),
        }
    }
}

impl Error for InterpError {}

/// The outcome of a checked operation.
pub type Checked<T> = Result<T, Box<InterpError>>;

/// The most iterations one `while` loop may run.
pub const WHILE_BUDGET: u64 = 1 << 32;

/// What a routine parameter, or a value it returns, holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// An integer array (`pos`, `crd`).
    Ints,
    /// A value array.
    Floats,
    /// An integer scalar (an extent or a count).
    Int,
}

/// A compiled routine.
pub type Routine = fn(&Inputs<'_>) -> Checked<Outputs>;

/// What a routine reads: its parameters by kind, each kind in parameter
/// order. The integer arrays are the source container's own; a routine
/// widens what it loads to `i64`.
#[derive(Debug, Clone, Default)]
pub struct Inputs<'a> {
    /// The integer arrays.
    pub ints: Vec<&'a [usize]>,
    /// The value arrays.
    pub floats: Vec<&'a [f64]>,
    /// The integer scalars.
    pub scalars: Vec<i64>,
}

impl<'a> Inputs<'a> {
    /// The integer array at `at`, which the routine calls `name`.
    pub fn int_array(&self, at: usize, name: &str) -> Checked<&'a [usize]> {
        let array = self.ints.get(at).copied();
        array.ok_or_else(|| Box::new(InterpError::UndefinedBuffer(name.to_string())))
    }

    /// The value array at `at`, which the routine calls `name`.
    pub fn float_array(&self, at: usize, name: &str) -> Checked<&'a [f64]> {
        let array = self.floats.get(at).copied();
        array.ok_or_else(|| Box::new(InterpError::UndefinedBuffer(name.to_string())))
    }

    /// The integer scalar at `at`, which the routine calls `name`.
    pub fn int(&self, at: usize, name: &str) -> Checked<i64> {
        let value = self.scalars.get(at).copied();
        value.ok_or_else(|| Box::new(InterpError::UndefinedVariable(name.to_string())))
    }
}

/// What a routine returns, by name: the buffers and scalars its target's
/// container is built from.
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    /// The integer buffers.
    pub ints: Vec<(&'static str, Vec<i64>)>,
    /// The value buffers.
    pub floats: Vec<(&'static str, Vec<f64>)>,
    /// The integer scalars.
    pub scalars: Vec<(&'static str, i64)>,
}

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
