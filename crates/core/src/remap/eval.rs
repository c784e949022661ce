//! Evaluation of coordinate remappings.
//!
//! The evaluator implements the semantics of Section 4: for each nonzero of
//! the canonical input tensor, the destination expressions are evaluated over
//! its coordinates to produce the remapped coordinates. Counters (`#i...`)
//! are stateful: they count how many nonzeros with the same values of the
//! listed index variables have been seen so far, in iteration order.
//!
//! [`EvalContext::apply_columns`] evaluates a whole tensor at once, one
//! expression over every nonzero at a time: a counter is read off
//! occurrence ranks, and the result is one flat row-major buffer.

use std::collections::HashMap;

use sparse_tensor::stats::{distinct_pairs, Dense};
use sparse_tensor::{Coord, DimBounds, SparseTriples, Value};

use crate::remap::ast::{BinOp, IndexExpr, Remapping};
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
        // One nonzero's columns; a negative coordinate survives the round
        // trip through `usize`.
        let cols: Vec<[usize; 1]> = source.iter().map(|&c| [c as usize]).collect();
        let cols: Vec<&[usize]> = cols.iter().map(|c| &c[..]).collect();
        let mut state = std::mem::take(&mut self.counters);
        let out = self.run(1, &cols, &mut Counters::State(&mut state));
        self.counters = state;
        out
    }

    /// Remaps a tensor given as coordinate columns (`crd[d][p]` is nonzero
    /// `p`'s coordinate in dimension `d`) into one row-major buffer: nonzero
    /// `p`'s remapped coordinates are `out[p * dest_order..][..dest_order]`.
    /// The result and the errors are those of [`EvalContext::apply_all`] on
    /// the same nonzeros in the same order; the counter state is neither
    /// read nor advanced.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors, at the first nonzero that raises one.
    pub fn apply_columns(&self, crd: &[&[usize]]) -> Result<Vec<i64>, RemapError> {
        let n = crd.first().map_or(0, |c| c.len());
        if crd.len() != self.remap.source_order() && n > 0 {
            let (expected, found) = (self.remap.source_order(), crd.len());
            return Err(RemapError::ArityMismatch { expected, found });
        }
        let mut uses = Vec::new();
        for d in &self.remap.dst {
            d.lets
                .iter()
                .map(|(_, e)| e)
                .chain([&d.expr])
                .for_each(|e| count_uses(e, &mut uses));
        }
        self.run(n, crd, &mut Counters::Ranks(uses))
    }

    /// Evaluates the remapping at `n` nonzeros, one column per expression,
    /// into rows of destination coordinates. The error is the one a
    /// nonzero-at-a-time walk meets first: lowest nonzero, then evaluation
    /// order.
    fn run(&self, n: usize, src: &[&[usize]], ctr: &mut Counters) -> Result<Vec<i64>, RemapError> {
        let (mut cols, mut first) = (Vec::with_capacity(self.remap.dest_order()), None);
        for d in &self.remap.dst {
            let mut lets: Vec<(&str, Vec<i64>)> = Vec::with_capacity(d.lets.len());
            for (name, expr) in &d.lets {
                let (col, err) = self.eval_column(expr, n, src, &lets, ctr);
                first = earliest([first, err]);
                lets.push((name, col));
            }
            let (col, err) = self.eval_column(&d.expr, n, src, &lets, ctr);
            first = earliest([first, err]);
            cols.push(col);
        }
        if let Some((_, err)) = first {
            return Err(err);
        }
        let mut rows = vec![0; n * cols.len()];
        for (d, col) in cols.iter().enumerate() {
            let dim = rows.iter_mut().skip(d).step_by(cols.len());
            dim.zip(col).for_each(|(x, &c)| *x = c);
        }
        Ok(rows)
    }

    /// Evaluates `expr` at all `n` nonzeros, given the source columns and
    /// the let bindings in scope (latest last).
    fn eval_column(
        &self,
        expr: &IndexExpr,
        n: usize,
        src: &[&[usize]],
        lets: &[(&str, Vec<i64>)],
        ctr: &mut Counters,
    ) -> Column {
        let fail = |e: RemapError| (vec![0; n], (n > 0).then_some((0, e)));
        let unbound = |name: &String| fail(RemapError::UnboundVariable(name.clone()));
        let dim = |name: &String| self.remap.src.iter().position(|s| s == name);
        match expr {
            IndexExpr::Const(c) => (vec![*c; n], None),
            IndexExpr::Var(name) => match dim(name) {
                Some(d) => (src[d].iter().map(|&c| c as i64).collect(), None),
                None => unbound(name),
            },
            IndexExpr::LetVar(name) => match lets.iter().rev().find(|(l, _)| l == name) {
                Some((_, col)) => (col.clone(), None),
                None => unbound(name),
            },
            IndexExpr::Param(name) => match self.params.get(name) {
                Some(&v) => (vec![v; n], None),
                None => fail(RemapError::MissingParameter(name.clone())),
            },
            IndexExpr::Counter(vars) => {
                let key: Vec<usize> = match vars.iter().map(|v| dim(v).ok_or(v)).collect() {
                    Ok(key) => key,
                    Err(v) => return unbound(v),
                };
                match ctr {
                    Counters::State(state) => {
                        let key = key.iter().map(|&d| src[d][0] as i64).collect();
                        (vec![state.next(vars, key)], None)
                    }
                    // The `nth` use at a nonzero: the number of earlier
                    // nonzeros with the same key tuple, times the uses per
                    // nonzero, plus `nth`.
                    Counters::Ranks(uses) => {
                        let (_, per, nth) = uses
                            .iter_mut()
                            .find(|u| u.0 == vars)
                            .expect("count_uses lists every counter");
                        let mut ids = Dense {
                            idx: vec![0; n].into(),
                            extent: 1,
                        };
                        for &d in &key {
                            let extent = src[d].iter().max().map_or(0, |&m| m + 1);
                            ids = distinct_pairs(&ids, &Dense::new(src[d], extent)).0;
                        }
                        let mut seen = vec![*nth - *per; ids.extent];
                        *nth += 1;
                        let rank = |&k: &usize| {
                            seen[k] += *per;
                            seen[k]
                        };
                        (ids.idx.iter().map(rank).collect(), None)
                    }
                }
            }
            IndexExpr::Binary(op, l, r) => {
                let (mut vals, l_err) = self.eval_column(l, n, src, lets, ctr);
                let (rhs, r_err) = self.eval_column(r, n, src, lets, ctr);
                let mut err = None;
                for (p, (a, &b)) in vals.iter_mut().zip(&rhs).enumerate() {
                    match apply_binop(*op, *a, b) {
                        Ok(v) => *a = v,
                        Err(e) => err = err.or(Some((p, e))),
                    }
                }
                (vals, earliest([l_err, r_err, err]))
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

/// How [`EvalContext::apply`] and [`EvalContext::apply_columns`] evaluate
/// counters.
enum Counters<'s> {
    /// At one coordinate, from (and advancing) the context's state.
    State(&'s mut CounterState),
    /// Over whole columns, from occurrence ranks: each counter's variables
    /// with its uses per nonzero and the uses evaluated so far.
    Ranks(Vec<(&'s [String], i64, i64)>),
}

/// Lists each counter in `expr` with its uses (see [`Counters::Ranks`]).
fn count_uses<'e>(expr: &'e IndexExpr, uses: &mut Vec<(&'e [String], i64, i64)>) {
    match expr {
        IndexExpr::Counter(vars) => match uses.iter_mut().find(|u| u.0 == vars) {
            Some(u) => u.1 += 1,
            None => uses.push((vars, 1, 0)),
        },
        IndexExpr::Binary(_, l, r) => {
            count_uses(l, uses);
            count_uses(r, uses);
        }
        _ => {}
    }
}

/// A column of values, and the first nonzero whose evaluation failed.
type Column = (Vec<i64>, Option<(usize, RemapError)>);

/// The error at the lowest nonzero, the first listed on a tie.
fn earliest<const N: usize>(errs: [Option<(usize, RemapError)>; N]) -> Option<(usize, RemapError)> {
    errs.into_iter().flatten().min_by_key(|(p, _)| *p)
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
