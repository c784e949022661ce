//! Errors of the conversion engine.

use std::error::Error;
use std::fmt;

use crate::format::Format;

/// Errors raised while planning or executing a conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvertError {
    /// The requested target format cannot represent the input (e.g. skyline
    /// targets require a square matrix).
    Unsupported(String),
    /// The requested format is not available as a conversion target (DOK is
    /// not described by a coordinate hierarchy; it is supported only as a
    /// conversion *source*).
    UnsupportedTarget(Format),
    /// The format specification itself is rejected: its level composition or
    /// remapping cannot be assembled by the dynamic driver (e.g. a banded
    /// level at the root, or edge insertion under a non-chainable ancestor).
    /// Builder-made specs surface this instead of panicking mid-assembly.
    UnsupportedSpec {
        /// Why the specification was rejected.
        reason: String,
    },
    /// An I/O operation failed while streaming tensor data (reading a
    /// dataset file, spilling or re-reading external-sort runs). Carries the
    /// rendered `std::io::Error`, which keeps this enum `Clone + PartialEq`.
    Io(String),
    /// A streamed dataset file (Matrix Market, FROSTT) failed to parse.
    Parse {
        /// 1-based line number the parser stopped at (0 when unknown).
        line: u64,
        /// What was wrong with the line.
        message: String,
    },
    /// The produced data structures failed validation.
    Structure(sparse_tensor::TensorError),
    /// A remapping failed to evaluate.
    Remap(crate::remap::RemapError),
    /// An attribute query failed to evaluate.
    Query(crate::query::QueryError),
    /// Generated IR failed to execute.
    Interp(crate::ir::checked::InterpError),
    /// A padded output (DIA diagonals or ELL slices times rows, BCSR blocks
    /// times the block size, the value array of a spec's full levels) would
    /// hold more slots than [`crate::tunables::PADDED_EXPANSION_MAX`] admits
    /// for its input, or more than `usize::MAX`.
    PaddingLimit {
        /// The slots the output asks for (`None` past `usize::MAX`).
        slots: Option<usize>,
        /// The most slots the input admits.
        limit: usize,
    },
    /// An array sized by a level's extent (2^60 rows, say) was refused.
    Allocation {
        /// The entries the array needed.
        len: usize,
    },
    /// A worker thread panicked while running its share of a phase. The
    /// conversion is abandoned; the caller, its service and every other
    /// worker carry on.
    WorkerPanicked {
        /// The span name of the phase whose worker died (`kernel.scatter`,
        /// `pool.run`, `stream.producer`, …).
        phase: &'static str,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::Unsupported(msg) => write!(f, "unsupported conversion: {msg}"),
            ConvertError::UnsupportedTarget(format) => {
                write!(
                    f,
                    "{format} has no coordinate-hierarchy specification and cannot \
                     be a conversion target (it is supported only as a source)"
                )
            }
            ConvertError::UnsupportedSpec { reason } => {
                write!(f, "unsupported format specification: {reason}")
            }
            ConvertError::Io(msg) => write!(f, "I/O error: {msg}"),
            ConvertError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ConvertError::Structure(e) => write!(f, "invalid output structure: {e}"),
            ConvertError::Remap(e) => write!(f, "remapping error: {e}"),
            ConvertError::Query(e) => write!(f, "attribute query error: {e}"),
            ConvertError::Interp(e) => write!(f, "generated code failed: {e}"),
            ConvertError::PaddingLimit { slots, limit } => {
                let slots = slots.map_or("more than usize::MAX".into(), |s| s.to_string());
                write!(
                    f,
                    "the padded output needs {slots} slots, over the limit of {limit}"
                )
            }
            ConvertError::Allocation { len } => write!(f, "allocation of {len} entries refused"),
            ConvertError::WorkerPanicked { phase } => {
                write!(f, "a worker thread panicked during {phase}")
            }
        }
    }
}

impl ConvertError {
    /// The error for remapped coordinates holding a duplicate, which a
    /// specification-driven conversion to `format` cannot assemble.
    pub(crate) fn duplicate_coordinates(format: &str) -> Self {
        ConvertError::Unsupported(format!(
            "the dynamic converter requires duplicate-free coordinates for {format} \
             targets; sum duplicates first (the engine path stores them verbatim)"
        ))
    }
}

impl Error for ConvertError {}

impl From<std::io::Error> for ConvertError {
    fn from(e: std::io::Error) -> Self {
        ConvertError::Io(e.to_string())
    }
}

impl From<sparse_tensor::TensorError> for ConvertError {
    fn from(e: sparse_tensor::TensorError) -> Self {
        ConvertError::Structure(e)
    }
}

impl From<crate::remap::RemapError> for ConvertError {
    fn from(e: crate::remap::RemapError) -> Self {
        ConvertError::Remap(e)
    }
}

impl From<crate::query::QueryError> for ConvertError {
    fn from(e: crate::query::QueryError) -> Self {
        ConvertError::Query(e)
    }
}

impl From<crate::ir::checked::InterpError> for ConvertError {
    fn from(e: crate::ir::checked::InterpError) -> Self {
        ConvertError::Interp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: ConvertError = sparse_tensor::TensorError::InvalidStructure("bad pos".into()).into();
        assert!(e.to_string().contains("bad pos"));
        let e: ConvertError = crate::remap::RemapError::DivisionByZero.into();
        assert!(e.to_string().contains("remapping"));
        let e: ConvertError = crate::query::QueryError::Parse("x".into()).into();
        assert!(e.to_string().contains("query"));
        let e: ConvertError = crate::ir::checked::InterpError::DivisionByZero.into();
        assert!(e.to_string().contains("generated code"));
        assert!(ConvertError::Unsupported("skyline needs square".into())
            .to_string()
            .contains("skyline"));
        assert!(ConvertError::UnsupportedTarget(Format::dok())
            .to_string()
            .contains("DOK"));
        assert!(ConvertError::UnsupportedSpec {
            reason: "banded level at the root".into()
        }
        .to_string()
        .contains("banded level at the root"));
        let e: ConvertError = std::io::Error::new(std::io::ErrorKind::NotFound, "no.mtx").into();
        assert!(e.to_string().contains("no.mtx"));
        assert!(ConvertError::Parse {
            line: 7,
            message: "bad coordinate".into()
        }
        .to_string()
        .contains("line 7"));
        assert!(ConvertError::WorkerPanicked {
            phase: "kernel.scatter"
        }
        .to_string()
        .contains("kernel.scatter"));
    }
}
