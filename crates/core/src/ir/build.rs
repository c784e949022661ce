//! Terse constructors for building IR, used by the code generator and tests.

use crate::ir::expr::{CmpOp, Expr, IrBinOp};
use crate::ir::stmt::{BufferKind, Stmt};

/// Integer literal.
pub fn int(v: i64) -> Expr {
    Expr::Int(v)
}

/// Floating-point literal.
pub fn float(v: f64) -> Expr {
    Expr::Float(v)
}

/// Scalar variable reference.
pub fn var(name: &str) -> Expr {
    Expr::Var(name.to_string())
}

/// Buffer load `buffer[index]`.
pub fn load(buffer: &str, index: Expr) -> Expr {
    Expr::Load {
        buffer: buffer.to_string(),
        index: Box::new(index),
    }
}

/// `lhs + rhs`
pub fn add(lhs: Expr, rhs: Expr) -> Expr {
    Expr::binary(IrBinOp::Add, lhs, rhs)
}

/// `lhs - rhs`
pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
    Expr::binary(IrBinOp::Sub, lhs, rhs)
}

/// `lhs * rhs`
pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
    Expr::binary(IrBinOp::Mul, lhs, rhs)
}

/// `lhs / rhs`
pub fn div(lhs: Expr, rhs: Expr) -> Expr {
    Expr::binary(IrBinOp::Div, lhs, rhs)
}

/// `lhs % rhs`
pub fn rem(lhs: Expr, rhs: Expr) -> Expr {
    Expr::binary(IrBinOp::Rem, lhs, rhs)
}

/// `min(lhs, rhs)`
pub fn min(lhs: Expr, rhs: Expr) -> Expr {
    Expr::Min(Box::new(lhs), Box::new(rhs))
}

/// `max(lhs, rhs)`
pub fn max(lhs: Expr, rhs: Expr) -> Expr {
    Expr::Max(Box::new(lhs), Box::new(rhs))
}

/// `lhs < rhs`
pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
    Expr::cmp(CmpOp::Lt, lhs, rhs)
}

/// `lhs <= rhs`
pub fn le(lhs: Expr, rhs: Expr) -> Expr {
    Expr::cmp(CmpOp::Le, lhs, rhs)
}

/// `lhs > rhs`
pub fn gt(lhs: Expr, rhs: Expr) -> Expr {
    Expr::cmp(CmpOp::Gt, lhs, rhs)
}

/// `lhs >= rhs`
pub fn ge(lhs: Expr, rhs: Expr) -> Expr {
    Expr::cmp(CmpOp::Ge, lhs, rhs)
}

/// `lhs == rhs`
pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
    Expr::cmp(CmpOp::Eq, lhs, rhs)
}

/// `lhs != rhs`
pub fn ne(lhs: Expr, rhs: Expr) -> Expr {
    Expr::cmp(CmpOp::Ne, lhs, rhs)
}

/// Declares a scalar with an initial value.
pub fn decl(name: &str, init: Expr) -> Stmt {
    Stmt::DeclScalar {
        name: name.to_string(),
        init,
    }
}

/// Assigns to a scalar.
pub fn assign(name: &str, value: Expr) -> Stmt {
    Stmt::Assign {
        name: name.to_string(),
        value,
    }
}

/// Allocates an integer buffer.
pub fn alloc_int(name: &str, size: Expr, zero_init: bool) -> Stmt {
    Stmt::Alloc {
        name: name.to_string(),
        kind: BufferKind::Int,
        size,
        zero_init,
    }
}

/// Allocates a floating-point buffer.
pub fn alloc_float(name: &str, size: Expr, zero_init: bool) -> Stmt {
    Stmt::Alloc {
        name: name.to_string(),
        kind: BufferKind::Float,
        size,
        zero_init,
    }
}

/// `buffer[index] = value;`
pub fn store(buffer: &str, index: Expr, value: Expr) -> Stmt {
    Stmt::Store {
        buffer: buffer.to_string(),
        index,
        value,
    }
}

/// `buffer[index] += value;`
pub fn store_add(buffer: &str, index: Expr, value: Expr) -> Stmt {
    Stmt::StoreAdd {
        buffer: buffer.to_string(),
        index,
        value,
    }
}

/// `buffer[index] = max(buffer[index], value);`
pub fn store_max(buffer: &str, index: Expr, value: Expr) -> Stmt {
    Stmt::StoreMax {
        buffer: buffer.to_string(),
        index,
        value,
    }
}

/// `buffer[index] |= value;`
pub fn store_or(buffer: &str, index: Expr, value: Expr) -> Stmt {
    Stmt::StoreOr {
        buffer: buffer.to_string(),
        index,
        value,
    }
}

/// `for (var = lo; var < hi; var++) body`
pub fn for_(var: &str, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: var.to_string(),
        lo,
        hi,
        body,
    }
}

/// `if (cond) then`
pub fn if_(cond: Expr, then: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then,
        otherwise: vec![],
    }
}

/// `if (cond) then else otherwise`
pub fn if_else(cond: Expr, then: Vec<Stmt>, otherwise: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then,
        otherwise,
    }
}

/// A comment line.
pub fn comment(text: &str) -> Stmt {
    Stmt::Comment(text.to_string())
}
