//! Expressions of the conversion IR.

use std::fmt;

/// Binary operators over IR expressions.
///
/// Arithmetic and bitwise operators follow C semantics on 64-bit integers;
/// `Add`/`Sub`/`Mul`/`Div` are also defined on floating-point values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&` (operands interpreted as booleans: nonzero = true)
    LogicalAnd,
    /// `||`
    LogicalOr,
}

impl IrBinOp {
    /// The operator's C surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            IrBinOp::Add => "+",
            IrBinOp::Sub => "-",
            IrBinOp::Mul => "*",
            IrBinOp::Div => "/",
            IrBinOp::Rem => "%",
            IrBinOp::Shl => "<<",
            IrBinOp::Shr => ">>",
            IrBinOp::BitAnd => "&",
            IrBinOp::BitOr => "|",
            IrBinOp::BitXor => "^",
            IrBinOp::LogicalAnd => "&&",
            IrBinOp::LogicalOr => "||",
        }
    }
}

impl fmt::Display for IrBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Comparison operators; comparisons evaluate to `1` or `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator's C surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Applies the comparison to two integers.
    pub fn apply_int(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An IR expression.
///
/// Expressions are dynamically typed between integers and floating-point
/// values: loads from value buffers produce floats, everything else produces
/// integers, and the interpreter reports a type error on mismatched use.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// A scalar variable reference (loop variables, sizes, accumulators).
    Var(String),
    /// `buffer[index]`.
    Load {
        /// Name of the buffer being indexed.
        buffer: String,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A binary operation.
    Binary(IrBinOp, Box<Expr>, Box<Expr>),
    /// A comparison producing 0 or 1.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical negation (`!e`): 1 if the operand is zero, else 0.
    Not(Box<Expr>),
    /// Two-argument minimum.
    Min(Box<Expr>, Box<Expr>),
    /// Two-argument maximum.
    Max(Box<Expr>, Box<Expr>),
    /// Conditional expression `cond ? then : otherwise`.
    Select {
        /// Condition (nonzero = true).
        cond: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value when it does not.
        otherwise: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a binary operation.
    pub fn binary(op: IrBinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a comparison.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// True when the expression is the integer literal `value`.
    pub fn is_int(&self, value: i64) -> bool {
        matches!(self, Expr::Int(v) if *v == value)
    }

    /// Names of all buffers the expression reads.
    pub fn buffers_read(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_buffers(&mut out);
        out
    }

    fn collect_buffers(&self, out: &mut Vec<String>) {
        match self {
            Expr::Load { buffer, index } => {
                if !out.contains(buffer) {
                    out.push(buffer.clone());
                }
                index.collect_buffers(out);
            }
            Expr::Binary(_, l, r) | Expr::Cmp(_, l, r) | Expr::Min(l, r) | Expr::Max(l, r) => {
                l.collect_buffers(out);
                r.collect_buffers(out);
            }
            Expr::Not(e) => e.collect_buffers(out),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                cond.collect_buffers(out);
                then.collect_buffers(out);
                otherwise.collect_buffers(out);
            }
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
        }
    }
}
