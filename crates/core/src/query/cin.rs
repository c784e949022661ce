//! Concrete index notation (CIN) for attribute queries.
//!
//! Section 5.2 lowers every attribute query to a canonical form in concrete
//! index notation — nested `forall` loops around a single reduction statement,
//! optionally with a `where` clause defining a temporary — and then optimises
//! that form with the rewrite rules of Table 1. This module defines the CIN
//! data structures, the lowering, and a display form used by tests.
//!
//! Nothing outside the `query` module calls the lowering: the generic driver
//! evaluates queries with [`eval`](crate::query::eval), generated code with
//! hand-written analysis loops, and only this module's and
//! [`transform`](crate::query::transform)'s tests use CIN.
//! Whether it becomes a step toward the IR or is deleted is ROADMAP item
//! 1(b).

use std::fmt;

use crate::remap::{BinOp, IndexExpr, Remapping};

use crate::query::ast::{Aggregate, AttrQuery};
use crate::query::error::QueryError;

/// An access `T[e1, ..., ek]` where each index is an expression over the
/// statement's loop variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Tensor (or query-result) name.
    pub tensor: String,
    /// Index expressions.
    pub indices: Vec<IndexExpr>,
}

impl Access {
    /// Creates an access with plain-variable indices.
    pub fn with_vars(tensor: &str, vars: &[String]) -> Self {
        Access {
            tensor: tensor.to_string(),
            indices: vars.iter().map(|v| IndexExpr::Var(v.clone())).collect(),
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idx: Vec<String> = self.indices.iter().map(|e| e.to_string()).collect();
        write!(f, "{}[{}]", self.tensor, idx.join(","))
    }
}

/// The reduction operator of a CIN assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Plain assignment `=`.
    Assign,
    /// Sum reduction `+=`.
    Add,
    /// Max reduction `max=`.
    Max,
    /// Boolean OR reduction `|=`.
    Or,
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Reduction::Assign => "=",
            Reduction::Add => "+=",
            Reduction::Max => "max=",
            Reduction::Or => "|=",
        })
    }
}

/// A value expression on the right-hand side of a CIN assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum CinExpr {
    /// An integer constant.
    Const(i64),
    /// A coordinate-valued expression over loop variables (the extension of
    /// concrete index notation described in Section 5.2).
    Coord(IndexExpr),
    /// `map(source, value)`: `value` if the source component is nonzero, else 0.
    Map {
        /// The guarding tensor access.
        source: Access,
        /// The produced value.
        value: Box<CinExpr>,
    },
    /// A read of a (temporary) tensor.
    Read(Access),
    /// The number of stored nonzeros of `tensor` along dimension `over` for
    /// the slice identified by `indices` — the `B'` operand introduced by the
    /// `simplify-width-count` transformation, computed from level functions
    /// (e.g. `pos[i+1] - pos[i]`) rather than materialised.
    Width {
        /// Source tensor.
        tensor: String,
        /// The reduced (innermost) index variable.
        over: String,
        /// Indices identifying the slice.
        indices: Vec<IndexExpr>,
    },
    /// Product of two value expressions.
    Mul(Box<CinExpr>, Box<CinExpr>),
}

impl fmt::Display for CinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CinExpr::Const(c) => write!(f, "{c}"),
            CinExpr::Coord(e) => write!(f, "{e}"),
            CinExpr::Map { source, value } => write!(f, "map({source}, {value})"),
            CinExpr::Read(a) => write!(f, "{a}"),
            CinExpr::Width {
                tensor,
                over,
                indices,
            } => {
                let idx: Vec<String> = indices.iter().map(|e| e.to_string()).collect();
                write!(f, "width({tensor}; {over})[{}]", idx.join(","))
            }
            CinExpr::Mul(l, r) => write!(f, "{l} * {r}"),
        }
    }
}

/// A CIN statement: `forall v1 ... vn: dest <red> value [ where <stmt> ]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CinStmt {
    /// The loop variables, outermost first.
    pub loop_vars: Vec<String>,
    /// The reduction destination.
    pub dest: Access,
    /// The reduction operator.
    pub reduction: Reduction,
    /// The right-hand side.
    pub value: CinExpr,
    /// Optional `where` clause computing a temporary used by `value`.
    pub where_stmt: Option<Box<CinStmt>>,
}

impl fmt::Display for CinStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let foralls: Vec<String> = self
            .loop_vars
            .iter()
            .map(|v| format!("forall {v}"))
            .collect();
        write!(
            f,
            "{}: {} {} {}",
            foralls.join(" "),
            self.dest,
            self.reduction,
            self.value
        )?;
        if let Some(inner) = &self.where_stmt {
            write!(f, " where ({inner})")?;
        }
        Ok(())
    }
}

/// Context needed to lower a query: how the remapped dimensions the query
/// ranges over are computed from the source tensor's index variables.
#[derive(Debug, Clone)]
pub struct LowerContext<'a> {
    /// The target format's coordinate remapping.
    pub remapping: &'a Remapping,
    /// Name of each remapped dimension, in remapping destination order. Query
    /// variables must refer to these names.
    pub dim_names: Vec<String>,
    /// Name of the source tensor (`B` in the paper).
    pub source: String,
    /// Smallest possible coordinate of each remapped dimension (the `s` of
    /// the max-query lowering); defaults to zero for ordinary dimensions.
    pub dim_lower_bounds: Vec<i64>,
}

impl<'a> LowerContext<'a> {
    /// Creates a context with all lower bounds zero.
    pub fn new(remapping: &'a Remapping, dim_names: Vec<String>, source: &str) -> Self {
        let n = remapping.dest_order();
        assert_eq!(dim_names.len(), n, "one name per remapped dimension");
        LowerContext {
            remapping,
            dim_names,
            source: source.to_string(),
            dim_lower_bounds: vec![0; n],
        }
    }

    /// Overrides the lower bound of a remapped dimension.
    pub fn with_lower_bound(mut self, dim: usize, lower: i64) -> Self {
        self.dim_lower_bounds[dim] = lower;
        self
    }

    fn dim_expr(&self, name: &str) -> Result<(usize, IndexExpr), QueryError> {
        let d = self
            .dim_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| QueryError::UnknownIndexVariable(name.to_string()))?;
        let dst = &self.remapping.dst[d];
        // Inline let bindings so the destination expression is a closed form
        // over the source index variables.
        let mut expr = dst.expr.clone();
        for (let_name, let_expr) in dst.lets.iter().rev() {
            expr = substitute_let(&expr, let_name, let_expr);
        }
        Ok((d, expr))
    }
}

fn substitute_let(expr: &IndexExpr, name: &str, replacement: &IndexExpr) -> IndexExpr {
    match expr {
        IndexExpr::LetVar(n) if n == name => replacement.clone(),
        IndexExpr::Binary(op, l, r) => IndexExpr::Binary(
            *op,
            Box::new(substitute_let(l, name, replacement)),
            Box::new(substitute_let(r, name, replacement)),
        ),
        other => other.clone(),
    }
}

/// Lowers a single-aggregate attribute query to its canonical CIN form
/// (Section 5.2). Multi-aggregate queries are lowered field by field.
///
/// # Errors
///
/// Returns an error when the query refers to unknown remapped dimensions.
pub fn lower_query(
    query: &AttrQuery,
    field_label: &str,
    ctx: &LowerContext<'_>,
) -> Result<CinStmt, QueryError> {
    let field = query
        .field(field_label)
        .ok_or_else(|| QueryError::UnknownField(field_label.to_string()))?;
    let src_vars = ctx.remapping.src.clone();
    let source_access = Access::with_vars(&ctx.source, &src_vars);

    // Destination indices: the group-by coordinates as expressions over the
    // source index variables.
    let mut dest_indices = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        dest_indices.push(ctx.dim_expr(g)?.1);
    }
    let dest = Access {
        tensor: field_label.to_string(),
        indices: dest_indices.clone(),
    };

    match &field.aggregate {
        Aggregate::Id => Ok(CinStmt {
            loop_vars: src_vars,
            dest,
            reduction: Reduction::Or,
            value: CinExpr::Map {
                source: source_access,
                value: Box::new(CinExpr::Const(1)),
            },
            where_stmt: None,
        }),
        Aggregate::Count(counted) => {
            // Temporary W indexed by group-by plus counted dimensions.
            let mut w_dims = query.group_by.clone();
            w_dims.extend(counted.iter().cloned());
            let mut w_indices = Vec::with_capacity(w_dims.len());
            for name in &w_dims {
                w_indices.push(ctx.dim_expr(name)?.1);
            }
            let w_name = format!("W_{field_label}");
            let inner = CinStmt {
                loop_vars: src_vars,
                dest: Access {
                    tensor: w_name.clone(),
                    indices: w_indices,
                },
                reduction: Reduction::Or,
                value: CinExpr::Map {
                    source: source_access,
                    value: Box::new(CinExpr::Const(1)),
                },
                where_stmt: None,
            };
            let outer_loop_vars = w_dims.clone();
            Ok(CinStmt {
                loop_vars: outer_loop_vars.clone(),
                dest: Access {
                    tensor: field_label.to_string(),
                    indices: query
                        .group_by
                        .iter()
                        .map(|g| IndexExpr::Var(g.clone()))
                        .collect(),
                },
                reduction: Reduction::Add,
                value: CinExpr::Map {
                    source: Access::with_vars(&w_name, &outer_loop_vars),
                    value: Box::new(CinExpr::Const(1)),
                },
                where_stmt: Some(Box::new(inner)),
            })
        }
        Aggregate::Max(v) => {
            let (d, expr) = ctx.dim_expr(v)?;
            let shift = 1 - ctx.dim_lower_bounds[d];
            let value_expr = IndexExpr::binary(BinOp::Add, expr, IndexExpr::Const(shift));
            Ok(CinStmt {
                loop_vars: src_vars,
                dest,
                reduction: Reduction::Max,
                value: CinExpr::Map {
                    source: source_access,
                    value: Box::new(CinExpr::Coord(value_expr)),
                },
                where_stmt: None,
            })
        }
        Aggregate::Min(v) => {
            let (d, expr) = ctx.dim_expr(v)?;
            // min over coordinates = max over negated, shifted coordinates.
            let upper_shift = ctx.dim_lower_bounds[d]; // placeholder for t; callers supply bounds
            let negated = IndexExpr::binary(
                BinOp::Add,
                IndexExpr::binary(BinOp::Sub, IndexExpr::Const(0), expr),
                IndexExpr::Const(upper_shift + 1),
            );
            Ok(CinStmt {
                loop_vars: src_vars,
                dest,
                reduction: Reduction::Max,
                value: CinExpr::Map {
                    source: source_access,
                    value: Box::new(CinExpr::Coord(negated)),
                },
                where_stmt: None,
            })
        }
    }
}
