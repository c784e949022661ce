//! Pretty printer producing C-like listings of IR functions.
//!
//! The printed form is intended to be read side by side with Figure 6 of the
//! paper; it is not guaranteed to be compilable C (buffers are untyped
//! pointers, and `min`/`max` are printed as calls).

use std::fmt::Write as _;

use crate::ir::expr::Expr;
use crate::ir::stmt::{BufferKind, Function, Stmt};

/// Prints an expression as C-like source text.
pub fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => format!("{v:?}"),
        Expr::Var(name) => name.clone(),
        Expr::Load { buffer, index } => format!("{buffer}[{}]", print_expr(index)),
        Expr::Binary(op, l, r) => {
            format!("({} {} {})", print_expr(l), op.symbol(), print_expr(r))
        }
        Expr::Cmp(op, l, r) => format!("({} {} {})", print_expr(l), op.symbol(), print_expr(r)),
        Expr::Not(e) => format!("!({})", print_expr(e)),
        Expr::Min(l, r) => format!("min({}, {})", print_expr(l), print_expr(r)),
        Expr::Max(l, r) => format!("max({}, {})", print_expr(l), print_expr(r)),
        Expr::Select {
            cond,
            then,
            otherwise,
        } => format!(
            "({} ? {} : {})",
            print_expr(cond),
            print_expr(then),
            print_expr(otherwise)
        ),
    }
}

fn print_stmt(stmt: &Stmt, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match stmt {
        Stmt::DeclScalar { name, init } => {
            let _ = writeln!(out, "{pad}int {name} = {};", print_expr(init));
        }
        Stmt::Assign { name, value } => {
            let _ = writeln!(out, "{pad}{name} = {};", print_expr(value));
        }
        Stmt::Alloc {
            name,
            kind,
            size,
            zero_init,
        } => {
            let ty = match kind {
                BufferKind::Int => "int",
                BufferKind::Float => "double",
            };
            let alloc = if *zero_init { "calloc" } else { "malloc" };
            let _ = writeln!(
                out,
                "{pad}{ty}* {name} = {alloc}({}, sizeof({ty}));",
                print_expr(size)
            );
        }
        Stmt::Store {
            buffer,
            index,
            value,
        } => {
            let _ = writeln!(
                out,
                "{pad}{buffer}[{}] = {};",
                print_expr(index),
                print_expr(value)
            );
        }
        Stmt::StoreAdd {
            buffer,
            index,
            value,
        } => {
            let _ = writeln!(
                out,
                "{pad}{buffer}[{}] += {};",
                print_expr(index),
                print_expr(value)
            );
        }
        Stmt::StoreMax {
            buffer,
            index,
            value,
        } => {
            let idx = print_expr(index);
            let _ = writeln!(
                out,
                "{pad}{buffer}[{idx}] = max({buffer}[{idx}], {});",
                print_expr(value)
            );
        }
        Stmt::StoreOr {
            buffer,
            index,
            value,
        } => {
            let _ = writeln!(
                out,
                "{pad}{buffer}[{}] |= {};",
                print_expr(index),
                print_expr(value)
            );
        }
        Stmt::For { var, lo, hi, body } => {
            let _ = writeln!(
                out,
                "{pad}for (int {var} = {}; {var} < {}; {var}++) {{",
                print_expr(lo),
                print_expr(hi)
            );
            for s in body {
                print_stmt(s, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "{pad}while ({}) {{", print_expr(cond));
            for s in body {
                print_stmt(s, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::If {
            cond,
            then,
            otherwise,
        } => {
            let _ = writeln!(out, "{pad}if ({}) {{", print_expr(cond));
            for s in then {
                print_stmt(s, indent + 1, out);
            }
            if otherwise.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in otherwise {
                    print_stmt(s, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::Comment(text) => {
            let _ = writeln!(out, "{pad}// {text}");
        }
    }
}

/// Prints a whole function as a C-like listing.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    let params = f.params.join(", ");
    let _ = writeln!(out, "void {}({params}) {{", f.name);
    for s in &f.body {
        print_stmt(s, 1, &mut out);
    }
    let _ = writeln!(out, "}}");
    out
}
