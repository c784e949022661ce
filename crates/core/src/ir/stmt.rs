//! Statements and functions of the conversion IR.

use crate::ir::expr::Expr;

/// The element type of an allocated buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// 64-bit integers (`pos`, `crd`, `perm`, counters, bit sets, ...).
    Int,
    /// Double-precision values (`vals`).
    Float,
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare (or overwrite) a scalar variable with an initial value.
    DeclScalar {
        /// Variable name.
        name: String,
        /// Initialiser.
        init: Expr,
    },
    /// Assign a new value to a scalar variable.
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// Allocate a buffer of `size` elements.
    Alloc {
        /// Buffer name.
        name: String,
        /// Element type.
        kind: BufferKind,
        /// Number of elements.
        size: Expr,
        /// Whether the buffer is zero-initialised (`calloc`) or left
        /// uninitialised (`malloc`). The interpreter always zero-fills, but
        /// the flag is kept for faithful C listings and for the calloc-based
        /// optimisation discussed in Section 7.2.
        zero_init: bool,
    },
    /// `buffer[index] = value;`
    Store {
        /// Buffer name.
        buffer: String,
        /// Index expression.
        index: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `buffer[index] += value;` (used by count/histogram queries).
    StoreAdd {
        /// Buffer name.
        buffer: String,
        /// Index expression.
        index: Expr,
        /// Added value.
        value: Expr,
    },
    /// `buffer[index] = max(buffer[index], value);` (used by max/min queries).
    StoreMax {
        /// Buffer name.
        buffer: String,
        /// Index expression.
        index: Expr,
        /// Compared value.
        value: Expr,
    },
    /// `buffer[index] |= value;` (boolean OR reduction for `id` queries).
    StoreOr {
        /// Buffer name.
        buffer: String,
        /// Index expression.
        index: Expr,
        /// OR-ed value.
        value: Expr,
    },
    /// `for (var = lo; var < hi; var++) body`
    For {
        /// Loop variable.
        var: String,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while (cond) body`
    While {
        /// Loop condition (nonzero = continue).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) then else otherwise`
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// True branch.
        then: Vec<Stmt>,
        /// False branch (possibly empty).
        otherwise: Vec<Stmt>,
    },
    /// A comment, kept so printed listings can mark the remap / analysis /
    /// assembly phases like the background colours in Figure 6.
    Comment(String),
}

impl Stmt {
    /// Convenience constructor for a `for` loop.
    pub fn for_loop(var: &str, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Self {
        Stmt::For {
            var: var.to_string(),
            lo,
            hi,
            body,
        }
    }
}

/// A generated routine: a name, the buffers/scalars it expects to find in the
/// execution environment, and a statement body.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Routine name, e.g. `convert_csr_to_dia`.
    pub name: String,
    /// Names of buffers and scalars the routine reads as inputs.
    pub params: Vec<String>,
    /// The routine body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Creates a function.
    pub fn new(name: &str, params: Vec<String>, body: Vec<Stmt>) -> Self {
        Function {
            name: name.to_string(),
            params,
            body,
        }
    }

    /// Total number of statements, counting nested bodies (a crude size
    /// metric used in tests and ablation reports).
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::For { body, .. } | Stmt::While { body, .. } => 1 + count(body),
                    Stmt::If {
                        then, otherwise, ..
                    } => 1 + count(then) + count(otherwise),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}
