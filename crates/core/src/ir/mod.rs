//! Imperative intermediate representation for generated conversion routines.
//!
//! The paper's prototype extends taco to *emit C code* like the listings in
//! Figure 6. This module plays the role of that emitted code in the Rust
//! reproduction: the conversion code generator (`codegen`) lowers a
//! conversion plan to [`Function`]s in this IR, which can be
//!
//! * pretty printed as C-like source (structurally comparable to Figure 6),
//! * simplified (constant folding, algebraic identities),
//! * executed by [`interp::Interpreter`], which resolves a routine once to
//!   typed slots and closures, then runs it against named `i64` / `f64`
//!   buffers with every access checked, so generated routines are testable,
//!   and
//! * emitted as checked Rust ([`emit`]), which keeps the interpreter's
//!   contract (every access checked through [`checked`], the same
//!   [`InterpError`](interp::InterpError)s, wrapping arithmetic) and runs
//!   against the same tables. The routines the code generator serves are
//!   emitted ahead of time into the `@generated` [`compiled`] module, which
//!   a unit test of `codegen` keeps equal to what the emitter prints now
//!   (there is no build script: it could not run the generator of the crate
//!   it builds). The interpreter runs every other routine, and is the
//!   reference the compiled tier is tested against.
//!
//! # Example
//!
//! ```
//! use sparse_conv::ir::build::*;
//! use sparse_conv::ir::interp::{Buffer, Interpreter};
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
//! let mut interp = Interpreter::new();
//! interp.insert_buffer("in", Buffer::Ints(vec![1, 2, 3, 4]));
//! interp.insert_buffer("out", Buffer::Ints(vec![0; 4]));
//! interp.run(&f)?;
//! assert_eq!(interp.buffer("out").unwrap().as_ints(), Some(&[2, 4, 6, 8][..]));
//! # Ok::<(), sparse_conv::ir::interp::InterpError>(())
//! ```

pub mod build;
pub mod checked;
#[rustfmt::skip]
pub mod compiled;
pub mod emit;
pub mod expr;
pub mod interp;
pub mod printer;
pub mod simplify;
pub mod stmt;

pub use expr::{CmpOp, Expr, IrBinOp};
pub use stmt::{Function, Stmt};
