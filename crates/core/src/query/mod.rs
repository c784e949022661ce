//! The attribute query language (Section 5 of the PLDI 2020 paper).
//!
//! Attribute queries compute summaries of a tensor's sparsity structure as
//! aggregations over the coordinates of its nonzeros:
//!
//! ```text
//! select [i1,...,im] -> <aggr1> as label1, ..., <aggrn> as labeln
//! ```
//!
//! where each aggregation is `count(...)`, `max(i)`, `min(i)`, or `id()`.
//! Query results are used by the assembly abstraction (Section 6) to reserve
//! exactly enough memory for the output tensor — e.g. converting to ELL needs
//! `select [] -> max(k) as max_crd` over the `#i`-remapped tensor, and
//! converting to CSR needs `select [i] -> count(j) as nir`.
//!
//! The module provides:
//!
//! * an AST ([`AttrQuery`]) and parser ([`parse_query`]), and
//! * evaluators ([`eval`]): a reference evaluator over remapped coordinate
//!   streams, plus the dense-result [`eval::QueryResult`] representation that
//!   the conversion engine consumes.
//!
//! # Example
//!
//! ```
//! use sparse_conv::query::{parse_query, eval::evaluate_on_coords};
//! use sparse_tensor::DimBounds;
//!
//! // Number of nonzeros per row of a 4-row matrix (Figure 10, left).
//! let query = parse_query("select [i] -> count(j) as nir")?;
//! let coords = vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![3, 2]];
//! let result = evaluate_on_coords(
//!     &query,
//!     &["i".into(), "j".into()],
//!     &[DimBounds::from_extent(4), DimBounds::from_extent(4)],
//!     coords.iter().map(|c| c.as_slice()),
//! )?;
//! assert_eq!(result.get(&[0], "nir")?, 2);
//! assert_eq!(result.get(&[2], "nir")?, 0);
//! assert!(result.get(&[0], "oops").is_err());
//! # Ok::<(), sparse_conv::query::QueryError>(())
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod parser;

pub use ast::{Aggregate, AttrQuery, QueryField};
pub use error::QueryError;
pub use eval::QueryResult;
pub use parser::parse_query;
