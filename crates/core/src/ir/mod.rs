//! Imperative intermediate representation for generated conversion routines.
//!
//! The paper's prototype extends taco to *emit C code* like the listings in
//! Figure 6. This module plays the role of that emitted code in the Rust
//! reproduction: the conversion code generator (`codegen`) lowers a
//! conversion plan to [`Function`]s in this IR, which can be
//!
//! * pretty printed as C-like source (structurally comparable to Figure 6),
//! * simplified (constant folding, algebraic identities), and
//! * executed by [`interp::Interpreter`], which resolves a routine once to
//!   typed slots and closures, then runs it against named `i64` / `f64`
//!   buffers with every access checked, so generated routines are testable.
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
pub mod expr;
pub mod interp;
pub mod printer;
pub mod simplify;
pub mod stmt;

pub use expr::{CmpOp, Expr, IrBinOp};
pub use stmt::{Function, Stmt};
