//! Errors for the attribute query language.

use std::error::Error;
use std::fmt;

/// Errors raised while parsing, lowering, or evaluating attribute queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query text could not be parsed.
    Parse(String),
    /// A query referenced an index variable that the tensor does not have.
    UnknownIndexVariable(String),
    /// A query result was requested for an unknown field label.
    UnknownField(String),
    /// A coordinate passed to the evaluator was outside the declared bounds.
    CoordinateOutOfBounds {
        /// The offending coordinate value.
        coordinate: i64,
        /// The dimension it indexed.
        dimension: usize,
    },
    /// The evaluator was given coordinates of the wrong arity.
    ArityMismatch {
        /// Expected number of coordinates.
        expected: usize,
        /// Number supplied.
        found: usize,
    },
    /// The group-by coordinate space has more points than `usize::MAX`, so
    /// no dense result table can hold it.
    GroupSpaceOverflow,
    /// A Table 1 transformation was applied to a statement that does not
    /// satisfy its preconditions.
    PreconditionViolated(&'static str),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(msg) => write!(f, "parse error: {msg}"),
            QueryError::UnknownIndexVariable(name) => {
                write!(f, "unknown index variable `{name}`")
            }
            QueryError::UnknownField(name) => write!(f, "unknown query field `{name}`"),
            QueryError::CoordinateOutOfBounds {
                coordinate,
                dimension,
            } => {
                write!(
                    f,
                    "coordinate {coordinate} out of bounds in dimension {dimension}"
                )
            }
            QueryError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} coordinates, found {found}")
            }
            QueryError::GroupSpaceOverflow => {
                write!(f, "the group-by space has more than usize::MAX points")
            }
            QueryError::PreconditionViolated(rule) => {
                write!(
                    f,
                    "preconditions of the `{rule}` transformation are not satisfied"
                )
            }
        }
    }
}

impl Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(QueryError::Parse("bad".into()).to_string().contains("bad"));
        assert!(QueryError::UnknownIndexVariable("z".into())
            .to_string()
            .contains("`z`"));
        assert!(QueryError::UnknownField("nir".into())
            .to_string()
            .contains("`nir`"));
        assert!(QueryError::CoordinateOutOfBounds {
            coordinate: 9,
            dimension: 1
        }
        .to_string()
        .contains('9'));
        assert!(QueryError::ArityMismatch {
            expected: 2,
            found: 1
        }
        .to_string()
        .contains('2'));
        assert!(QueryError::PreconditionViolated("inline-temporary")
            .to_string()
            .contains("inline-temporary"));
    }
}
