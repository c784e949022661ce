//! The query-optimisation rewrite rules of Table 1.
//!
//! Each rule is implemented as a function that checks the rule's
//! preconditions and returns the rewritten statement (or a
//! [`QueryError::PreconditionViolated`] error). [`optimize`] is their
//! driver: it eagerly applies the rules in the order the paper's worked
//! example does (Section 5.2), given a flag describing whether the source
//! format stores only nonzeros.
//!
//! Nothing outside the `query` module calls these rules: the generic driver
//! evaluates queries with [`eval`](crate::query::eval), generated code with
//! hand-written analysis loops, and only this module's tests exercise the
//! rewrites. Whether they are lowered into
//! generated code or deleted is ROADMAP item 1(b).

use crate::remap::IndexExpr;

use crate::query::cin::{Access, CinExpr, CinStmt, Reduction};
use crate::query::error::QueryError;

/// `reduction-to-assign`: when every loop variable also appears directly as a
/// destination index, every result component is written at most once, so the
/// reduction can become a plain assignment.
pub fn reduction_to_assign(stmt: &CinStmt) -> Result<CinStmt, QueryError> {
    if stmt.reduction == Reduction::Assign {
        return Err(QueryError::PreconditionViolated("reduction-to-assign"));
    }
    let covered = stmt.loop_vars.iter().all(|v| {
        stmt.dest
            .indices
            .iter()
            .any(|e| matches!(e, IndexExpr::Var(name) if name == v))
    });
    if !covered {
        return Err(QueryError::PreconditionViolated("reduction-to-assign"));
    }
    Ok(CinStmt {
        reduction: Reduction::Assign,
        ..stmt.clone()
    })
}

/// `inline-temporary`: when the `where` clause defines its temporary with a
/// plain assignment, the temporary can be inlined into the outer statement,
/// eliminating it.
pub fn inline_temporary(stmt: &CinStmt) -> Result<CinStmt, QueryError> {
    let inner = stmt
        .where_stmt
        .as_deref()
        .ok_or(QueryError::PreconditionViolated("inline-temporary"))?;
    if inner.reduction != Reduction::Assign {
        return Err(QueryError::PreconditionViolated("inline-temporary"));
    }
    // The outer statement must index the temporary with exactly its own loop
    // variables (which is how lowering constructs count queries).
    let temp = &inner.dest.tensor;
    let outer_reads_temp_with_loop_vars = reads_with_vars(&stmt.value, temp, &stmt.loop_vars);
    if !outer_reads_temp_with_loop_vars {
        return Err(QueryError::PreconditionViolated("inline-temporary"));
    }
    // Substitute: the outer statement now iterates the inner statement's loop
    // variables, its destination indices are rewritten through the inner
    // statement's destination expressions, and reads of the temporary become
    // the inner statement's right-hand side.
    let mut dest_indices = Vec::with_capacity(stmt.dest.indices.len());
    for idx in &stmt.dest.indices {
        dest_indices.push(rewrite_index(idx, &stmt.loop_vars, &inner.dest.indices));
    }
    let value = replace_temp_reads(&stmt.value, temp, &inner.value);
    Ok(CinStmt {
        loop_vars: inner.loop_vars.clone(),
        dest: Access {
            tensor: stmt.dest.tensor.clone(),
            indices: dest_indices,
        },
        reduction: stmt.reduction,
        value: simplify(&value),
        where_stmt: None,
    })
}

/// `simplify-width-count`: a count over the innermost stored dimension of a
/// source that stores only nonzeros can be answered from the level structure
/// (e.g. `pos[i+1] - pos[i]`) without touching the nonzeros themselves.
pub fn simplify_width_count(
    stmt: &CinStmt,
    source_stores_only_nonzeros: bool,
) -> Result<CinStmt, QueryError> {
    if !source_stores_only_nonzeros || stmt.reduction != Reduction::Add {
        return Err(QueryError::PreconditionViolated("simplify-width-count"));
    }
    let (source, constant) = match &stmt.value {
        CinExpr::Map { source, value } => match value.as_ref() {
            CinExpr::Const(c) => (source, *c),
            _ => return Err(QueryError::PreconditionViolated("simplify-width-count")),
        },
        _ => return Err(QueryError::PreconditionViolated("simplify-width-count")),
    };
    let innermost = stmt
        .loop_vars
        .last()
        .ok_or(QueryError::PreconditionViolated("simplify-width-count"))?
        .clone();
    // The innermost loop variable must index the innermost dimension of the
    // source and must be a pure reduction variable (not used by the
    // destination).
    let indexes_innermost = matches!(
        source.indices.last(),
        Some(IndexExpr::Var(v)) if *v == innermost
    );
    let used_by_dest = stmt.dest.indices.iter().any(|e| uses_var(e, &innermost));
    if !indexes_innermost || used_by_dest {
        return Err(QueryError::PreconditionViolated("simplify-width-count"));
    }
    let remaining: Vec<String> = stmt.loop_vars[..stmt.loop_vars.len() - 1].to_vec();
    let width = CinExpr::Width {
        tensor: source.tensor.clone(),
        over: innermost,
        indices: source.indices[..source.indices.len() - 1].to_vec(),
    };
    let value = if constant == 1 {
        width
    } else {
        CinExpr::Mul(Box::new(width), Box::new(CinExpr::Const(constant)))
    };
    Ok(CinStmt {
        loop_vars: remaining,
        dest: stmt.dest.clone(),
        reduction: Reduction::Add,
        value,
        where_stmt: stmt.where_stmt.clone(),
    })
}

/// `counter-to-histogram`: a max over a counter expression (`#j... + 1`) is
/// rewritten into a histogram temporary followed by a max over the histogram,
/// eliminating the stateful counter.
pub fn counter_to_histogram(stmt: &CinStmt) -> Result<CinStmt, QueryError> {
    if stmt.reduction != Reduction::Max {
        return Err(QueryError::PreconditionViolated("counter-to-histogram"));
    }
    let (source, counter_vars) = match &stmt.value {
        CinExpr::Map { source, value } => match value.as_ref() {
            CinExpr::Coord(expr) => match counter_plus_one(expr) {
                Some(vars) => (source, vars),
                None => return Err(QueryError::PreconditionViolated("counter-to-histogram")),
            },
            _ => return Err(QueryError::PreconditionViolated("counter-to-histogram")),
        },
        _ => return Err(QueryError::PreconditionViolated("counter-to-histogram")),
    };
    let hist_name = format!("W_{}", stmt.dest.tensor);
    // Histogram indexed by the destination's group indices plus the counter's
    // indexing variables.
    let mut hist_indices = stmt.dest.indices.clone();
    hist_indices.extend(counter_vars.iter().map(|v| IndexExpr::Var(v.clone())));
    let inner = CinStmt {
        loop_vars: stmt.loop_vars.clone(),
        dest: Access {
            tensor: hist_name.clone(),
            indices: hist_indices,
        },
        reduction: Reduction::Add,
        value: CinExpr::Map {
            source: source.clone(),
            value: Box::new(CinExpr::Const(1)),
        },
        where_stmt: None,
    };
    // Outer statement: max over the histogram.
    let mut outer_loop_vars: Vec<String> = Vec::new();
    for idx in &stmt.dest.indices {
        if let IndexExpr::Var(v) = idx {
            outer_loop_vars.push(v.clone());
        }
    }
    outer_loop_vars.extend(counter_vars.iter().cloned());
    let outer_read_vars: Vec<String> = outer_loop_vars.clone();
    Ok(CinStmt {
        loop_vars: outer_loop_vars,
        dest: stmt.dest.clone(),
        reduction: Reduction::Max,
        value: CinExpr::Read(Access::with_vars(&hist_name, &outer_read_vars)),
        where_stmt: Some(Box::new(inner)),
    })
}

/// Applies the Table 1 rules eagerly, mirroring the Section 5.2 worked
/// example: counters are first eliminated, `where` temporaries are turned
/// into assignments and inlined, width counts are simplified when the source
/// stores only nonzeros, and the final reduction is turned into an assignment
/// when possible.
pub fn optimize(stmt: &CinStmt, source_stores_only_nonzeros: bool) -> CinStmt {
    let mut current = stmt.clone();
    if let Ok(rewritten) = counter_to_histogram(&current) {
        current = rewritten;
    }
    // Optimise the where clause: reduction-to-assign then inline.
    if let Some(inner) = &current.where_stmt {
        if let Ok(assigned) = reduction_to_assign(inner) {
            current.where_stmt = Some(Box::new(assigned));
        }
        if let Ok(inlined) = inline_temporary(&current) {
            current = inlined;
        }
    }
    if let Ok(simplified) = simplify_width_count(&current, source_stores_only_nonzeros) {
        current = simplified;
    }
    if let Ok(assigned) = reduction_to_assign(&current) {
        current = assigned;
    }
    CinStmt {
        value: simplify(&current.value),
        ..current
    }
}

/// Collapses `map(map(B, c1), c2)` into `map(B, c2)` (constant folding on
/// nested maps, used after inlining).
pub fn simplify(expr: &CinExpr) -> CinExpr {
    match expr {
        CinExpr::Map { source, value } => {
            let value = simplify(value);
            if let CinExpr::Map {
                source: inner_source,
                value: inner_value,
            } = &value
            {
                // map(X, map(Y, v)) with the same guard collapses; lowering
                // only produces nested maps guarded by the same source.
                if inner_source.tensor == source.tensor {
                    return CinExpr::Map {
                        source: source.clone(),
                        value: inner_value.clone(),
                    };
                }
            }
            CinExpr::Map {
                source: source.clone(),
                value: Box::new(value),
            }
        }
        CinExpr::Mul(l, r) => {
            let (l, r) = (simplify(l), simplify(r));
            if let CinExpr::Const(1) = r {
                return l;
            }
            if let CinExpr::Const(1) = l {
                return r;
            }
            CinExpr::Mul(Box::new(l), Box::new(r))
        }
        other => other.clone(),
    }
}

fn reads_with_vars(expr: &CinExpr, tensor: &str, vars: &[String]) -> bool {
    match expr {
        CinExpr::Read(a) | CinExpr::Map { source: a, .. } if a.tensor == tensor => {
            a.indices.len() == vars.len()
                && a.indices
                    .iter()
                    .zip(vars)
                    .all(|(e, v)| matches!(e, IndexExpr::Var(name) if name == v))
        }
        CinExpr::Map { value, .. } => reads_with_vars(value, tensor, vars),
        CinExpr::Mul(l, r) => reads_with_vars(l, tensor, vars) || reads_with_vars(r, tensor, vars),
        _ => false,
    }
}

fn replace_temp_reads(expr: &CinExpr, tensor: &str, replacement: &CinExpr) -> CinExpr {
    match expr {
        CinExpr::Read(a) if a.tensor == tensor => replacement.clone(),
        CinExpr::Map { source, value } if source.tensor == tensor => CinExpr::Map {
            source: match replacement {
                CinExpr::Map { source: inner, .. } => inner.clone(),
                _ => source.clone(),
            },
            value: Box::new(replace_temp_reads(value, tensor, replacement)),
        },
        CinExpr::Map { source, value } => CinExpr::Map {
            source: source.clone(),
            value: Box::new(replace_temp_reads(value, tensor, replacement)),
        },
        CinExpr::Mul(l, r) => CinExpr::Mul(
            Box::new(replace_temp_reads(l, tensor, replacement)),
            Box::new(replace_temp_reads(r, tensor, replacement)),
        ),
        other => other.clone(),
    }
}

fn rewrite_index(
    idx: &IndexExpr,
    outer_vars: &[String],
    inner_dest_indices: &[IndexExpr],
) -> IndexExpr {
    match idx {
        IndexExpr::Var(v) => match outer_vars.iter().position(|o| o == v) {
            Some(p) if p < inner_dest_indices.len() => inner_dest_indices[p].clone(),
            _ => idx.clone(),
        },
        IndexExpr::Binary(op, l, r) => IndexExpr::Binary(
            *op,
            Box::new(rewrite_index(l, outer_vars, inner_dest_indices)),
            Box::new(rewrite_index(r, outer_vars, inner_dest_indices)),
        ),
        other => other.clone(),
    }
}

fn uses_var(expr: &IndexExpr, var: &str) -> bool {
    expr.free_vars().iter().any(|v| v == var)
}

fn counter_plus_one(expr: &IndexExpr) -> Option<Vec<String>> {
    use crate::remap::BinOp;
    if let IndexExpr::Binary(BinOp::Add, l, r) = expr {
        if let (IndexExpr::Counter(vars), IndexExpr::Const(1)) = (l.as_ref(), r.as_ref()) {
            return Some(vars.clone());
        }
    }
    None
}
