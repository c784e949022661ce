//! Algebraic simplification of IR expressions and statements.
//!
//! The code generator composes expressions mechanically (remapped coordinates
//! are inlined into position computations), which produces terms like
//! `(i * 1) + 0`. Simplification keeps generated listings readable and is a
//! small stand-in for the constant folding the paper mentions in Section 5.2.

use crate::ir::expr::{Expr, IrBinOp};
use crate::ir::stmt::{Function, Stmt};

/// Simplifies an expression: constant folding plus the identities
/// `x + 0`, `0 + x`, `x - 0`, `x * 1`, `1 * x`, `x * 0`, `0 * x`, `x / 1`.
pub fn simplify_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Binary(op, lhs, rhs) => {
            let l = simplify_expr(lhs);
            let r = simplify_expr(rhs);
            if let (Expr::Int(a), Expr::Int(b)) = (&l, &r) {
                if let Some(v) = fold(*op, *a, *b) {
                    return Expr::Int(v);
                }
            }
            match (op, &l, &r) {
                (IrBinOp::Add, e, z) | (IrBinOp::Add, z, e) if z.is_int(0) => e.clone(),
                (IrBinOp::Sub, e, z) if z.is_int(0) => e.clone(),
                (IrBinOp::Mul, e, one) | (IrBinOp::Mul, one, e) if one.is_int(1) => e.clone(),
                (IrBinOp::Mul, _, z) | (IrBinOp::Mul, z, _) if z.is_int(0) => Expr::Int(0),
                (IrBinOp::Div, e, one) if one.is_int(1) => e.clone(),
                _ => Expr::Binary(*op, Box::new(l), Box::new(r)),
            }
        }
        Expr::Cmp(op, lhs, rhs) => {
            let l = simplify_expr(lhs);
            let r = simplify_expr(rhs);
            if let (Expr::Int(a), Expr::Int(b)) = (&l, &r) {
                return Expr::Int(op.apply_int(*a, *b) as i64);
            }
            Expr::Cmp(*op, Box::new(l), Box::new(r))
        }
        Expr::Not(e) => {
            let inner = simplify_expr(e);
            if let Expr::Int(v) = inner {
                Expr::Int((v == 0) as i64)
            } else {
                Expr::Not(Box::new(inner))
            }
        }
        Expr::Min(l, r) => {
            let (l, r) = (simplify_expr(l), simplify_expr(r));
            if let (Expr::Int(a), Expr::Int(b)) = (&l, &r) {
                Expr::Int(*a.min(b))
            } else {
                Expr::Min(Box::new(l), Box::new(r))
            }
        }
        Expr::Max(l, r) => {
            let (l, r) = (simplify_expr(l), simplify_expr(r));
            if let (Expr::Int(a), Expr::Int(b)) = (&l, &r) {
                Expr::Int(*a.max(b))
            } else {
                Expr::Max(Box::new(l), Box::new(r))
            }
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            let cond = simplify_expr(cond);
            match cond {
                Expr::Int(0) => simplify_expr(otherwise),
                Expr::Int(_) => simplify_expr(then),
                _ => Expr::Select {
                    cond: Box::new(cond),
                    then: Box::new(simplify_expr(then)),
                    otherwise: Box::new(simplify_expr(otherwise)),
                },
            }
        }
        Expr::Load { buffer, index } => Expr::Load {
            buffer: buffer.clone(),
            index: Box::new(simplify_expr(index)),
        },
        Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => expr.clone(),
    }
}

fn fold(op: IrBinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        IrBinOp::Add => a.checked_add(b)?,
        IrBinOp::Sub => a.checked_sub(b)?,
        IrBinOp::Mul => a.checked_mul(b)?,
        IrBinOp::Div => a.checked_div(b)?,
        IrBinOp::Rem => a.checked_rem(b)?,
        IrBinOp::Shl => {
            if (0..64).contains(&b) {
                a << b
            } else {
                return None;
            }
        }
        IrBinOp::Shr => {
            if (0..64).contains(&b) {
                a >> b
            } else {
                return None;
            }
        }
        IrBinOp::BitAnd => a & b,
        IrBinOp::BitOr => a | b,
        IrBinOp::BitXor => a ^ b,
        IrBinOp::LogicalAnd => ((a != 0) && (b != 0)) as i64,
        IrBinOp::LogicalOr => ((a != 0) || (b != 0)) as i64,
    })
}

fn simplify_stmt(stmt: &Stmt) -> Option<Stmt> {
    let simplified = match stmt {
        Stmt::DeclScalar { name, init } => Stmt::DeclScalar {
            name: name.clone(),
            init: simplify_expr(init),
        },
        Stmt::Assign { name, value } => Stmt::Assign {
            name: name.clone(),
            value: simplify_expr(value),
        },
        Stmt::Alloc {
            name,
            kind,
            size,
            zero_init,
        } => Stmt::Alloc {
            name: name.clone(),
            kind: *kind,
            size: simplify_expr(size),
            zero_init: *zero_init,
        },
        Stmt::Store {
            buffer,
            index,
            value,
        } => Stmt::Store {
            buffer: buffer.clone(),
            index: simplify_expr(index),
            value: simplify_expr(value),
        },
        Stmt::StoreAdd {
            buffer,
            index,
            value,
        } => Stmt::StoreAdd {
            buffer: buffer.clone(),
            index: simplify_expr(index),
            value: simplify_expr(value),
        },
        Stmt::StoreMax {
            buffer,
            index,
            value,
        } => Stmt::StoreMax {
            buffer: buffer.clone(),
            index: simplify_expr(index),
            value: simplify_expr(value),
        },
        Stmt::StoreOr {
            buffer,
            index,
            value,
        } => Stmt::StoreOr {
            buffer: buffer.clone(),
            index: simplify_expr(index),
            value: simplify_expr(value),
        },
        Stmt::For { var, lo, hi, body } => {
            let lo = simplify_expr(lo);
            let hi = simplify_expr(hi);
            // Drop loops with a statically empty range.
            if let (Expr::Int(a), Expr::Int(b)) = (&lo, &hi) {
                if a >= b {
                    return None;
                }
            }
            Stmt::For {
                var: var.clone(),
                lo,
                hi,
                body: simplify_block(body),
            }
        }
        Stmt::While { cond, body } => {
            let cond = simplify_expr(cond);
            if cond.is_int(0) {
                return None;
            }
            Stmt::While {
                cond,
                body: simplify_block(body),
            }
        }
        Stmt::If {
            cond,
            then,
            otherwise,
        } => {
            let cond = simplify_expr(cond);
            match cond {
                Expr::Int(0) => {
                    let otherwise = simplify_block(otherwise);
                    if otherwise.is_empty() {
                        return None;
                    }
                    return Some(Stmt::If {
                        cond: Expr::Int(1),
                        then: otherwise,
                        otherwise: vec![],
                    });
                }
                Expr::Int(_) => {
                    return Some(Stmt::If {
                        cond: Expr::Int(1),
                        then: simplify_block(then),
                        otherwise: vec![],
                    })
                }
                _ => Stmt::If {
                    cond,
                    then: simplify_block(then),
                    otherwise: simplify_block(otherwise),
                },
            }
        }
        Stmt::Comment(text) => Stmt::Comment(text.clone()),
    };
    Some(simplified)
}

fn simplify_block(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts.iter().filter_map(simplify_stmt).collect()
}

/// Simplifies every statement of a function.
pub fn simplify_function(f: &Function) -> Function {
    Function {
        name: f.name.clone(),
        params: f.params.clone(),
        body: simplify_block(&f.body),
    }
}
