//! Coordinate remapping notation (Section 4 of the PLDI 2020 paper).
//!
//! A *coordinate remapping* describes how a tensor format groups together and
//! orders nonzeros in memory by mapping each component's canonical coordinates
//! to coordinates in a higher-order "remapped" space whose lexicographic order
//! matches the format's storage order. Examples from the paper:
//!
//! * DIA:   `(i,j) -> (j-i,i,j)` — group nonzeros by diagonal,
//! * BCSR:  `(i,j) -> (i/M,j/N,i,j)` — group nonzeros by fixed-size block,
//! * ELL:   `(i,j) -> (k=#i in k,i,j)` — the `k`-th nonzero of each row goes
//!   to slice `k` (`#i` is a per-row counter),
//! * HiCOO-style Morton orders via let-bound bit interleaving.
//!
//! This module implements the notation end to end: a lexer and recursive
//! descent parser for the grammar of Figure 8, a typed AST, an evaluator with
//! counter state (including the scalar-counter optimisation of Section 4.2),
//! conservative bounds inference for remapped dimensions, and the two built
//! remappings ([`Remapping::mode_permutation`], [`Remapping::blocked`]). The
//! stock formats' remappings are written as text in their `STOCK` rows.
//!
//! # Example
//!
//! ```
//! use sparse_conv::remap::{Remapping, EvalContext};
//!
//! let remap: Remapping = "(i,j) -> (j-i,i,j)".parse()?;
//! let mut ctx = EvalContext::new(&remap);
//! assert_eq!(ctx.apply(&[2, 0])?, vec![-2, 2, 0]);
//! # Ok::<(), sparse_conv::remap::RemapError>(())
//! ```

pub mod ast;
pub mod bounds;
pub mod error;
pub mod eval;
pub mod invert;
pub mod parser;
pub mod token;

pub(crate) use ast::is_permutation;
pub use ast::{BinOp, DstIndex, IndexExpr, Remapping};
pub use bounds::{infer_bounds, BoundsEnv};
pub use error::RemapError;
pub use eval::{CounterState, EvalContext, RemappedTriples};
pub use invert::Inverter;
pub use parser::parse_remapping;
