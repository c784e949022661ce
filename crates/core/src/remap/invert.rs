//! Point inversion of coordinate remappings.
//!
//! A remapping sends canonical coordinates into the format's storage order;
//! reading a format *back* (making an assembled custom tensor a conversion
//! source) needs the opposite direction: given a storage coordinate tuple,
//! recover the canonical coordinates it came from.
//!
//! General remappings are not invertible (a counter `#i` erases the column,
//! a Morton code folds two variables into one), but every remapping whose
//! destination preserves its sources *is* — and in practice format
//! remappings do preserve their sources, because the innermost storage
//! dimensions must still address the original tensor. Two recovery shapes
//! cover the entire stock zoo and the builder formats we care about:
//!
//! 1. **projection** — a destination dimension is literally the source
//!    variable (`(i,j) -> (j-i,i,j)` keeps both `i` and `j`);
//! 2. **div/rem recombination** — a pair of destination dimensions splits the
//!    variable by a positive constant (`(i,j) -> (i/2,j/2,i%2,j%2)` stores
//!    `i` as quotient and remainder; `i = (i/2)*2 + i%2`).
//!
//! [`Remapping::inverter`] analyses the AST once and returns a reusable
//! [`Inverter`]; remappings outside the two shapes (counters only, folded
//! variables) return `None` and the format stays target-only.

use crate::remap::ast::{BinOp, IndexExpr, Remapping};

/// How one source variable is recovered from a storage coordinate tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// The variable appears verbatim at this destination dimension.
    Direct(usize),
    /// The variable was split as `var / c` (at `div`) and `var % c` (at
    /// `rem`) for a positive constant `c`; recombine as `dst[div]*c +
    /// dst[rem]`.
    DivRem { div: usize, rem: usize, c: i64 },
}

/// A precomputed inverse of a [`Remapping`], mapping destination (storage)
/// coordinate tuples back to canonical source coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inverter {
    per_src: Vec<Recovery>,
}

impl Inverter {
    /// Recovers the canonical coordinates of one storage coordinate tuple.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is shorter than the remapping's destination order
    /// (the tuple must come from the same remapping the inverter was built
    /// for).
    pub fn apply(&self, dest: &[i64]) -> Vec<i64> {
        self.per_src
            .iter()
            .map(|r| match *r {
                Recovery::Direct(d) => dest[d],
                Recovery::DivRem { div, rem, c } => dest[div] * c + dest[rem],
            })
            .collect()
    }
}

/// Matches `expr` as `op(Var(v), Const(c))` and returns `(v, c)`.
fn as_var_op_const(expr: &IndexExpr, op: BinOp) -> Option<(&str, i64)> {
    match expr {
        IndexExpr::Binary(o, lhs, rhs) if *o == op => match (lhs.as_ref(), rhs.as_ref()) {
            (IndexExpr::Var(v), IndexExpr::Const(c)) => Some((v.as_str(), *c)),
            _ => None,
        },
        _ => None,
    }
}

impl Remapping {
    /// Builds a point inverse of the remapping, or `None` when some source
    /// variable cannot be recovered from the destination dimensions (see the
    /// module docs for the recovery shapes supported).
    pub fn inverter(&self) -> Option<Inverter> {
        let mut per_src = Vec::with_capacity(self.src.len());
        for var in &self.src {
            let recovery = self.recover(var)?;
            per_src.push(recovery);
        }
        Some(Inverter { per_src })
    }

    /// True when [`Remapping::inverter`] would succeed.
    pub fn is_invertible(&self) -> bool {
        self.inverter().is_some()
    }

    fn recover(&self, var: &str) -> Option<Recovery> {
        // Projection: some destination dimension is exactly `var`. Let
        // bindings are ignored — a let-wrapped body is no longer a plain
        // projection.
        for (d, dst) in self.dst.iter().enumerate() {
            if dst.lets.is_empty() && dst.expr == IndexExpr::Var(var.to_string()) {
                return Some(Recovery::Direct(d));
            }
        }
        // Div/rem split by the same positive constant.
        for (d_div, dst_div) in self.dst.iter().enumerate() {
            if !dst_div.lets.is_empty() {
                continue;
            }
            let Some((v, c)) = as_var_op_const(&dst_div.expr, BinOp::Div) else {
                continue;
            };
            if v != var || c <= 0 {
                continue;
            }
            for (d_rem, dst_rem) in self.dst.iter().enumerate() {
                if !dst_rem.lets.is_empty() {
                    continue;
                }
                if as_var_op_const(&dst_rem.expr, BinOp::Rem) == Some((v, c)) {
                    return Some(Recovery::DivRem {
                        div: d_div,
                        rem: d_rem,
                        c,
                    });
                }
            }
        }
        None
    }
}
