//! Imperative intermediate representation for generated conversion routines.
//!
//! The paper's prototype extends taco to *emit C code* like the listings in
//! Figure 6. This module plays the role of that emitted code in the Rust
//! reproduction: the conversion code generator (`codegen`) lowers a
//! conversion plan to [`Function`]s in this IR, which can be
//!
//! * built ([`build`]), simplified ([`simplify`]: constant folding, algebraic
//!   identities) and pretty printed as C-like source ([`printer`],
//!   structurally comparable to Figure 6), and
//! * run compiled. Every routine the code generator serves is emitted ahead
//!   of time as checked Rust into the `@generated` [`compiled`] module: a
//!   [`Routine`](checked::Routine) borrows its source's arrays and returns
//!   only what the target's container is built from, with every access
//!   checked by [`checked`] and every fault an
//!   [`InterpError`](checked::InterpError).
//!
//! The emitter that writes [`compiled`], and the resolve-then-run interpreter
//! that gives the IR its reference semantics, are compiled for tests only: a
//! unit test of `codegen` keeps the file equal to what the emitter prints now
//! (there is no build script: it could not run the generator of the crate it
//! builds), and the parity tests check every compiled routine against the
//! interpreter on outputs and errors.
//!
//! # Example
//!
//! ```
//! use sparse_conv::ir::build::*;
//! use sparse_conv::ir::printer::print_function;
//! use sparse_conv::ir::Function;
//!
//! // for (i = 0; i < 4; i++) out[i] = in[i] * 2;
//! let f = Function::new(
//!     "double",
//!     vec!["in".into(), "out".into()],
//!     vec![for_("i", int(0), int(4), vec![
//!         store("out", var("i"), mul(load("in", var("i")), int(2))),
//!     ])],
//! );
//! let listing = print_function(&f);
//! assert!(listing.starts_with("void double("), "{listing}");
//! assert!(listing.contains("out[i] = (in[i] * 2);"), "{listing}");
//! ```

pub mod build;
pub mod checked;
#[rustfmt::skip]
pub mod compiled;
#[cfg(test)]
pub mod emit;
pub mod expr;
#[cfg(test)]
pub mod interp;
pub mod printer;
pub mod simplify;
pub mod stmt;

pub use expr::{CmpOp, Expr, IrBinOp};
pub use stmt::{Function, Stmt};
