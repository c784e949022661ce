//! Evaluation of coordinate remappings.
//!
//! The evaluator implements the semantics of Section 4: for each nonzero of
//! the canonical input tensor, the destination expressions are evaluated over
//! its coordinates to produce the remapped coordinates. Counters (`#i...`)
//! are stateful: they count how many nonzeros with the same values of the
//! listed index variables have been seen so far, in iteration order.

use std::collections::HashMap;

use sparse_tensor::{Coord, DimBounds, SparseTriples, Value};

use crate::remap::ast::{BinOp, DstIndex, IndexExpr, Remapping};
use crate::remap::error::RemapError;

/// State of every counter appearing in a remapping.
///
/// Each counter `#i1...ik` is keyed by the tuple of current values of
/// `(i1, ..., ik)`; evaluating the counter returns the current count for that
/// tuple and then increments it (Section 4.2).
#[derive(Debug, Default, Clone)]
pub struct CounterState {
    counters: HashMap<Vec<String>, HashMap<Vec<i64>, i64>>,
}

impl CounterState {
    /// Creates empty counter state.
    pub fn new() -> Self {
        CounterState::default()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.counters.clear();
    }

    /// Returns the current count for a counter/key pair and increments it.
    pub fn next(&mut self, vars: &[String], key: Vec<i64>) -> i64 {
        let slot = self
            .counters
            .entry(vars.to_vec())
            .or_default()
            .entry(key)
            .or_insert(0);
        let current = *slot;
        *slot += 1;
        current
    }

    /// Returns the current count for a counter/key pair without incrementing.
    pub fn peek(&self, vars: &[String], key: &[i64]) -> i64 {
        self.counters
            .get(vars)
            .and_then(|m| m.get(key))
            .copied()
            .unwrap_or(0)
    }
}

/// Applies binary operators with the same semantics the generated C code
/// would have (truncating division, 64-bit shifts).
pub(crate) fn apply_binop(op: BinOp, lhs: i64, rhs: i64) -> Result<i64, RemapError> {
    match op {
        BinOp::Add => Ok(lhs.wrapping_add(rhs)),
        BinOp::Sub => Ok(lhs.wrapping_sub(rhs)),
        BinOp::Mul => Ok(lhs.wrapping_mul(rhs)),
        BinOp::Div => {
            if rhs == 0 {
                Err(RemapError::DivisionByZero)
            } else {
                Ok(lhs / rhs)
            }
        }
        BinOp::Rem => {
            if rhs == 0 {
                Err(RemapError::DivisionByZero)
            } else {
                Ok(lhs % rhs)
            }
        }
        BinOp::Shl => {
            if !(0..64).contains(&rhs) {
                Err(RemapError::InvalidShift(rhs))
            } else {
                Ok(lhs << rhs)
            }
        }
        BinOp::Shr => {
            if !(0..64).contains(&rhs) {
                Err(RemapError::InvalidShift(rhs))
            } else {
                Ok(lhs >> rhs)
            }
        }
        BinOp::And => Ok(lhs & rhs),
        BinOp::Or => Ok(lhs | rhs),
        BinOp::Xor => Ok(lhs ^ rhs),
    }
}

/// Evaluation context for one remapping: parameter bindings plus counter
/// state.
#[derive(Debug, Clone)]
pub struct EvalContext<'a> {
    remap: &'a Remapping,
    params: HashMap<String, i64>,
    counters: CounterState,
}

impl<'a> EvalContext<'a> {
    /// Creates a context with no parameters bound.
    pub fn new(remap: &'a Remapping) -> Self {
        EvalContext {
            remap,
            params: HashMap::new(),
            counters: CounterState::new(),
        }
    }

    /// Binds a symbolic parameter (e.g. a block size `M`) to a value.
    pub fn with_param(mut self, name: &str, value: i64) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Binds a symbolic parameter in place.
    pub fn set_param(&mut self, name: &str, value: i64) {
        self.params.insert(name.to_string(), value);
    }

    /// The remapping this context evaluates.
    pub fn remapping(&self) -> &Remapping {
        self.remap
    }

    /// Resets counter state (e.g. before re-running a fused phase, as the
    /// generated CSR→ELL code does between analysis and assembly).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Evaluates the remapping on one source coordinate, advancing counters.
    ///
    /// # Errors
    ///
    /// Returns an error when the coordinate arity does not match the
    /// remapping, a parameter is unbound, or evaluation hits a division by
    /// zero / invalid shift.
    pub fn apply(&mut self, source: &[i64]) -> Result<Coord, RemapError> {
        if source.len() != self.remap.source_order() {
            return Err(RemapError::ArityMismatch {
                expected: self.remap.source_order(),
                found: source.len(),
            });
        }
        let mut out = Vec::with_capacity(self.remap.dest_order());
        let dst: &[DstIndex] = &self.remap.dst;
        for d in dst {
            let mut lets: HashMap<String, i64> = HashMap::new();
            for (name, expr) in &d.lets {
                let v = self.eval_expr(expr, source, &lets)?;
                lets.insert(name.clone(), v);
            }
            out.push(self.eval_expr(&d.expr, source, &lets)?);
        }
        Ok(out)
    }

    fn eval_expr(
        &mut self,
        expr: &IndexExpr,
        source: &[i64],
        lets: &HashMap<String, i64>,
    ) -> Result<i64, RemapError> {
        match expr {
            IndexExpr::Const(c) => Ok(*c),
            IndexExpr::Var(name) => {
                let idx = self
                    .remap
                    .src
                    .iter()
                    .position(|s| s == name)
                    .ok_or_else(|| RemapError::UnboundVariable(name.clone()))?;
                Ok(source[idx])
            }
            IndexExpr::LetVar(name) => lets
                .get(name)
                .copied()
                .ok_or_else(|| RemapError::UnboundVariable(name.clone())),
            IndexExpr::Param(name) => self
                .params
                .get(name)
                .copied()
                .ok_or_else(|| RemapError::MissingParameter(name.clone())),
            IndexExpr::Counter(vars) => {
                let mut key = Vec::with_capacity(vars.len());
                for v in vars {
                    let idx = self
                        .remap
                        .src
                        .iter()
                        .position(|s| s == v)
                        .ok_or_else(|| RemapError::UnboundVariable(v.clone()))?;
                    key.push(source[idx]);
                }
                Ok(self.counters.next(vars, key))
            }
            IndexExpr::Binary(op, lhs, rhs) => {
                let l = self.eval_expr(lhs, source, lets)?;
                let r = self.eval_expr(rhs, source, lets)?;
                apply_binop(*op, l, r)
            }
        }
    }

    /// Remaps an entire tensor, producing the remapped component list along
    /// with the observed coordinate bounds of every remapped dimension.
    ///
    /// The iteration order of `tensor` matters when the remapping contains
    /// counters (Figure 9 notes that the result of `#i` depends on the order
    /// nonzeros are iterated in); counters are reset before the pass.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn apply_all(&mut self, tensor: &SparseTriples) -> Result<RemappedTriples, RemapError> {
        self.reset_counters();
        let mut triples = Vec::with_capacity(tensor.nnz());
        for t in tensor.iter() {
            let coord = self.apply(&t.coord)?;
            triples.push((coord, t.value));
        }
        let dest_order = self.remap.dest_order();
        let mut bounds = vec![DimBounds::new(0, 0); dest_order];
        if !triples.is_empty() {
            for d in 0..dest_order {
                let lo = triples.iter().map(|(c, _)| c[d]).min().expect("nonempty");
                let hi = triples.iter().map(|(c, _)| c[d]).max().expect("nonempty");
                bounds[d] = DimBounds::new(lo, hi + 1);
            }
        }
        Ok(RemappedTriples {
            bounds,
            triples,
            source_shape: tensor.shape().clone(),
        })
    }
}

/// A tensor in remapped coordinate space.
///
/// Remapped coordinates can be negative (e.g. DIA diagonal offsets), so the
/// remapped tensor carries [`DimBounds`] instead of a [`sparse_tensor::Shape`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemappedTriples {
    /// Observed coordinate bounds of every remapped dimension.
    pub bounds: Vec<DimBounds>,
    /// Remapped coordinates and values, in source iteration order.
    pub triples: Vec<(Coord, Value)>,
    /// Shape of the canonical source tensor.
    pub source_shape: sparse_tensor::Shape,
}

impl RemappedTriples {
    /// Number of remapped components.
    pub fn nnz(&self) -> usize {
        self.triples.len()
    }

    /// Order of the remapped coordinate space.
    pub fn order(&self) -> usize {
        self.bounds.len()
    }

    /// Returns the components sorted lexicographically by remapped
    /// coordinate — the storage order of the target format (Section 4).
    pub fn sorted(&self) -> Vec<(Coord, Value)> {
        let mut v = self.triples.clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}
