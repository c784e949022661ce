//! Conservative bounds inference for remapped coordinate expressions.
//!
//! Generated conversion code needs static bounds for the auxiliary data
//! structures that the remapping implies: the `nz` bit set for CSR→DIA has
//! `2N-1` entries because the offset expression `j-i` ranges over
//! `[-(N-1), N-1]`, and a counter array for `#i` has one entry per possible
//! value of `i`. This module computes such bounds by interval analysis over
//! the remapping AST.

use std::collections::HashMap;

use sparse_tensor::DimBounds;

use crate::remap::ast::{BinOp, DstIndex, IndexExpr, Remapping};
use crate::remap::error::RemapError;

/// Environment for bounds inference: bounds of every source index variable,
/// values of symbolic parameters, and (optionally) the source nonzero count
/// used to bound counters.
#[derive(Debug, Clone, Default)]
pub struct BoundsEnv {
    vars: HashMap<String, DimBounds>,
    params: HashMap<String, i64>,
    nnz: Option<usize>,
}

impl BoundsEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        BoundsEnv::default()
    }

    /// Builds an environment from a remapping's source variables and the
    /// extents of the corresponding canonical tensor dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the remapping's source order.
    pub fn for_remapping(remap: &Remapping, dims: &[usize]) -> Self {
        assert_eq!(dims.len(), remap.source_order(), "dimension count mismatch");
        let mut env = BoundsEnv::new();
        for (name, &extent) in remap.src.iter().zip(dims) {
            env.vars
                .insert(name.clone(), DimBounds::from_extent(extent));
        }
        env
    }

    /// Sets the bounds of a source index variable.
    pub fn with_var(mut self, name: &str, bounds: DimBounds) -> Self {
        self.vars.insert(name.to_string(), bounds);
        self
    }

    /// Binds a symbolic parameter.
    pub fn with_param(mut self, name: &str, value: i64) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Supplies the source nonzero count, used as the bound for counters.
    pub fn with_nnz(mut self, nnz: usize) -> Self {
        self.nnz = Some(nnz);
        self
    }

    fn var(&self, name: &str) -> Result<Interval, RemapError> {
        self.vars
            .get(name)
            .map(|b| Interval {
                lo: b.lower,
                hi: b.upper - 1,
            })
            .ok_or_else(|| RemapError::UnboundVariable(name.to_string()))
    }

    fn param(&self, name: &str) -> Result<Interval, RemapError> {
        self.params
            .get(name)
            .map(|&v| Interval { lo: v, hi: v })
            .ok_or_else(|| RemapError::MissingParameter(name.to_string()))
    }

    /// Conservative bound for a counter: a counter over variables
    /// `(i1, ..., ik)` cannot exceed the number of distinct coordinates of the
    /// remaining dimensions (duplicate-free input), nor the total number of
    /// nonzeros when that is known.
    fn counter(&self, vars: &[String]) -> Interval {
        let mut others: i64 = 1;
        for (name, b) in &self.vars {
            if !vars.contains(name) {
                others = others.saturating_mul(b.extent() as i64);
            }
        }
        let mut hi = others.saturating_sub(1).max(0);
        if let Some(nnz) = self.nnz {
            hi = hi.min((nnz as i64).saturating_sub(1).max(0));
        }
        Interval { lo: 0, hi }
    }
}

/// A closed integer interval `[lo, hi]` used internally by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    fn constant(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    fn nonneg(&self) -> bool {
        self.lo >= 0
    }
}

fn combine(op: BinOp, a: Interval, b: Interval) -> Result<Interval, RemapError> {
    let iv = |lo: i64, hi: i64| Interval {
        lo: lo.min(hi),
        hi: lo.max(hi),
    };
    match op {
        BinOp::Add => Ok(iv(a.lo.saturating_add(b.lo), a.hi.saturating_add(b.hi))),
        BinOp::Sub => Ok(iv(a.lo.saturating_sub(b.hi), a.hi.saturating_sub(b.lo))),
        BinOp::Mul => {
            let products = [
                a.lo.saturating_mul(b.lo),
                a.lo.saturating_mul(b.hi),
                a.hi.saturating_mul(b.lo),
                a.hi.saturating_mul(b.hi),
            ];
            Ok(Interval {
                lo: *products.iter().min().expect("nonempty"),
                hi: *products.iter().max().expect("nonempty"),
            })
        }
        BinOp::Div => {
            if b.lo <= 0 && b.hi >= 0 {
                return Err(RemapError::DivisionByZero);
            }
            let quotients = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
            Ok(Interval {
                lo: *quotients.iter().min().expect("nonempty"),
                hi: *quotients.iter().max().expect("nonempty"),
            })
        }
        BinOp::Rem => {
            if b.lo <= 0 && b.hi >= 0 {
                return Err(RemapError::DivisionByZero);
            }
            let max_abs = b.lo.abs().max(b.hi.abs()) - 1;
            if a.nonneg() {
                Ok(Interval {
                    lo: 0,
                    hi: max_abs.min(a.hi),
                })
            } else {
                Ok(Interval {
                    lo: -max_abs,
                    hi: max_abs,
                })
            }
        }
        BinOp::Shl => {
            if b.lo < 0 || b.hi >= 64 {
                return Err(RemapError::InvalidShift(if b.lo < 0 { b.lo } else { b.hi }));
            }
            let candidates = [
                a.lo.checked_shl(b.lo as u32).unwrap_or(i64::MAX),
                a.lo.checked_shl(b.hi as u32).unwrap_or(i64::MAX),
                a.hi.checked_shl(b.lo as u32).unwrap_or(i64::MAX),
                a.hi.checked_shl(b.hi as u32).unwrap_or(i64::MAX),
            ];
            Ok(Interval {
                lo: *candidates.iter().min().expect("nonempty"),
                hi: *candidates.iter().max().expect("nonempty"),
            })
        }
        BinOp::Shr => {
            if b.lo < 0 || b.hi >= 64 {
                return Err(RemapError::InvalidShift(if b.lo < 0 { b.lo } else { b.hi }));
            }
            let candidates = [a.lo >> b.lo, a.lo >> b.hi, a.hi >> b.lo, a.hi >> b.hi];
            Ok(Interval {
                lo: *candidates.iter().min().expect("nonempty"),
                hi: *candidates.iter().max().expect("nonempty"),
            })
        }
        BinOp::And => {
            if a.nonneg() && b.nonneg() {
                Ok(Interval {
                    lo: 0,
                    hi: a.hi.min(b.hi),
                })
            } else {
                Ok(Interval {
                    lo: a.lo.min(b.lo).min(0),
                    hi: a.hi.max(b.hi).max(0),
                })
            }
        }
        BinOp::Or | BinOp::Xor => {
            if a.nonneg() && b.nonneg() {
                let max = a.hi.max(b.hi);
                // Smallest all-ones value covering `max`.
                let mut mask: i64 = 1;
                while mask <= max {
                    mask = (mask << 1) | 1;
                }
                Ok(Interval { lo: 0, hi: mask })
            } else {
                // Conservative fallback for signed bit operations.
                Ok(Interval {
                    lo: i64::MIN / 4,
                    hi: i64::MAX / 4,
                })
            }
        }
    }
}

fn infer_interval(
    expr: &IndexExpr,
    env: &BoundsEnv,
    lets: &HashMap<String, Interval>,
) -> Result<Interval, RemapError> {
    match expr {
        IndexExpr::Const(c) => Ok(Interval::constant(*c)),
        IndexExpr::Var(name) => env.var(name),
        IndexExpr::LetVar(name) => lets
            .get(name)
            .copied()
            .ok_or_else(|| RemapError::UnboundVariable(name.clone())),
        IndexExpr::Param(name) => env.param(name),
        IndexExpr::Counter(vars) => Ok(env.counter(vars)),
        IndexExpr::Binary(op, lhs, rhs) => {
            let a = infer_interval(lhs, env, lets)?;
            let b = infer_interval(rhs, env, lets)?;
            combine(*op, a, b)
        }
    }
}

fn infer_dst_bounds(dst: &DstIndex, env: &BoundsEnv) -> Result<DimBounds, RemapError> {
    let mut lets: HashMap<String, Interval> = HashMap::new();
    for (name, expr) in &dst.lets {
        let interval = infer_interval(expr, env, &lets)?;
        lets.insert(name.clone(), interval);
    }
    let interval = infer_interval(&dst.expr, env, &lets)?;
    Ok(DimBounds::new(interval.lo, interval.hi + 1))
}

/// Infers conservative coordinate bounds for every destination dimension of a
/// remapping.
///
/// # Errors
///
/// Returns an error when a variable or parameter is unbound, or when the
/// analysis encounters a possible division by zero or invalid shift.
pub fn infer_bounds(remap: &Remapping, env: &BoundsEnv) -> Result<Vec<DimBounds>, RemapError> {
    remap.dst.iter().map(|d| infer_dst_bounds(d, env)).collect()
}
