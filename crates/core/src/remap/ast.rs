//! Abstract syntax of coordinate remapping notation (Figure 8).

use std::fmt;
use std::str::FromStr;

use crate::remap::error::RemapError;

/// Binary operators usable in remapped coordinate expressions.
///
/// The grammar of Figure 8 admits arithmetic, shift, and bitwise operators;
/// bitwise operators are what make Morton-order (HiCOO-style) remappings
/// expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division, truncating toward negative infinity is *not*
    /// used; the generated C code uses truncating division so we do too)
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
}

impl BinOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
        }
    }

    /// Binding strength used by the parser and pretty printer. Higher binds
    /// tighter, mirroring the precedence levels of the Figure 8 grammar
    /// (`|` < `^` < `&` < shifts < additive < multiplicative).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::Xor => 2,
            BinOp::And => 3,
            BinOp::Shl | BinOp::Shr => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 6,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression computing one remapped coordinate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexExpr {
    /// A source index variable, e.g. `i`.
    Var(String),
    /// A let-bound variable introduced by an enclosing `v = e in ...`.
    LetVar(String),
    /// A symbolic parameter such as a block size `M` or dimension size `N`;
    /// bound at evaluation / code-generation time.
    Param(String),
    /// An integer literal.
    Const(i64),
    /// A counter `#i1...ik`: the number of nonzeros with the same values of
    /// the listed index variables seen so far (Section 4.1). An empty list is
    /// a single global counter.
    Counter(Vec<String>),
    /// A binary operation.
    Binary(BinOp, Box<IndexExpr>, Box<IndexExpr>),
}

impl IndexExpr {
    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinOp, lhs: IndexExpr, rhs: IndexExpr) -> Self {
        IndexExpr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a source variable reference.
    pub fn var(name: &str) -> Self {
        IndexExpr::Var(name.to_string())
    }

    /// True when the expression contains a counter anywhere.
    pub fn has_counter(&self) -> bool {
        match self {
            IndexExpr::Counter(_) => true,
            IndexExpr::Binary(_, l, r) => l.has_counter() || r.has_counter(),
            _ => false,
        }
    }

    /// Collects the source variables the expression reads, in first-use order.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut Vec<String>) {
        match self {
            IndexExpr::Var(v) if !out.contains(v) => out.push(v.clone()),
            IndexExpr::Var(_) => {}
            IndexExpr::Counter(vs) => {
                for v in vs {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            }
            IndexExpr::Binary(_, l, r) => {
                l.collect_free_vars(out);
                r.collect_free_vars(out);
            }
            _ => {}
        }
    }

    /// Collects the parameter names the expression references.
    pub fn params(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut Vec<String>) {
        match self {
            IndexExpr::Param(p) if !out.contains(p) => out.push(p.clone()),
            IndexExpr::Param(_) => {}
            IndexExpr::Binary(_, l, r) => {
                l.collect_params(out);
                r.collect_params(out);
            }
            _ => {}
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        match self {
            IndexExpr::Var(v) | IndexExpr::LetVar(v) | IndexExpr::Param(v) => f.write_str(v),
            IndexExpr::Const(c) => write!(f, "{c}"),
            IndexExpr::Counter(vs) => {
                write!(f, "#{}", vs.join(" "))
            }
            IndexExpr::Binary(op, l, r) => {
                let prec = op.precedence();
                let need_parens = prec < parent;
                if need_parens {
                    f.write_str("(")?;
                }
                l.fmt_prec(f, prec)?;
                write!(f, "{op}")?;
                r.fmt_prec(f, prec + 1)?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// One destination coordinate: an optional chain of let bindings followed by
/// the coordinate expression (`ivar_let` in Figure 8).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DstIndex {
    /// Let bindings, evaluated in order; later bindings and the body may
    /// reference earlier ones.
    pub lets: Vec<(String, IndexExpr)>,
    /// The expression producing the coordinate.
    pub expr: IndexExpr,
}

impl DstIndex {
    /// A destination index with no let bindings.
    pub fn simple(expr: IndexExpr) -> Self {
        DstIndex {
            lets: Vec::new(),
            expr,
        }
    }

    /// True when this destination coordinate uses a counter.
    pub fn has_counter(&self) -> bool {
        self.expr.has_counter() || self.lets.iter().any(|(_, e)| e.has_counter())
    }
}

impl fmt::Display for DstIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, expr) in &self.lets {
            write!(f, "{name}={expr} in ")?;
        }
        write!(f, "{}", self.expr)
    }
}

/// A complete coordinate remapping statement: `(src...) -> (dst...)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Remapping {
    /// Source index variables (one per dimension of the canonical tensor).
    pub src: Vec<String>,
    /// Destination coordinate expressions (one per dimension of the remapped
    /// tensor).
    pub dst: Vec<DstIndex>,
}

impl Remapping {
    /// Creates a remapping from parts.
    ///
    /// # Panics
    ///
    /// Panics if either side is empty.
    pub fn new(src: Vec<String>, dst: Vec<DstIndex>) -> Self {
        assert!(
            !src.is_empty(),
            "remapping must have at least one source index"
        );
        assert!(
            !dst.is_empty(),
            "remapping must have at least one destination index"
        );
        Remapping { src, dst }
    }

    /// The identity remapping over `order` dimensions with variables
    /// `i1..i_order` (or `i, j, k, l` for low orders, matching the paper's
    /// presentation).
    pub fn identity(order: usize) -> Self {
        let names = canonical_names(order);
        let dst = names
            .iter()
            .map(|n| DstIndex::simple(IndexExpr::Var(n.clone())))
            .collect();
        Remapping::new(names, dst)
    }

    /// A pure mode-permutation remapping over the canonical variable names:
    /// storage dimension `d` holds canonical mode `order[d]`, so `&[2, 0, 1]`
    /// yields `(i,j,k) -> (k,i,j)` (mode `k` outermost). The identity order
    /// reproduces [`Remapping::identity`].
    ///
    /// These remappings are the paper's "mode ordering" degree of freedom: they
    /// are trivially invertible (every destination index is a bare source
    /// variable), so formats built on them are both conversion targets and
    /// readable conversion sources.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn mode_permutation(order: &[usize]) -> Self {
        assert!(
            is_permutation(order),
            "mode order {order:?} is not a permutation of 0..{}",
            order.len()
        );
        let names = canonical_names(order.len());
        let dst = order
            .iter()
            .map(|&m| DstIndex::simple(IndexExpr::Var(names[m].clone())))
            .collect();
        Remapping::new(names, dst)
    }

    /// The BCSR remapping with concrete block sizes substituted for `M` and
    /// `N`, and block-local coordinates in the inner dimensions:
    /// `(i,j) -> (i/bm,j/bn,i%bm,j%bn)`. Built, not parsed, so a new block
    /// shape costs no parse.
    ///
    /// # Panics
    ///
    /// Panics if either block size is zero.
    pub fn blocked(block_rows: usize, block_cols: usize) -> Self {
        assert!(
            block_rows > 0 && block_cols > 0,
            "block sizes must be positive"
        );
        let (bm, bn) = (block_rows as i64, block_cols as i64);
        let i = || IndexExpr::var("i");
        let j = || IndexExpr::var("j");
        Remapping::new(
            vec!["i".into(), "j".into()],
            vec![
                DstIndex::simple(IndexExpr::binary(BinOp::Div, i(), IndexExpr::Const(bm))),
                DstIndex::simple(IndexExpr::binary(BinOp::Div, j(), IndexExpr::Const(bn))),
                DstIndex::simple(IndexExpr::binary(BinOp::Rem, i(), IndexExpr::Const(bm))),
                DstIndex::simple(IndexExpr::binary(BinOp::Rem, j(), IndexExpr::Const(bn))),
            ],
        )
    }

    /// Order of the canonical (source) tensor.
    pub fn source_order(&self) -> usize {
        self.src.len()
    }

    /// Order of the remapped (destination) tensor.
    pub fn dest_order(&self) -> usize {
        self.dst.len()
    }

    /// True when any destination coordinate uses a counter.
    pub fn has_counter(&self) -> bool {
        self.dst.iter().any(DstIndex::has_counter)
    }

    /// All parameter names referenced anywhere in the remapping.
    pub fn params(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.dst {
            for (_, e) in &d.lets {
                for p in e.params() {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
            for p in d.expr.params() {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// True when the remapping is the identity on its source variables.
    pub fn is_identity(&self) -> bool {
        self.src.len() == self.dst.len()
            && self
                .src
                .iter()
                .zip(&self.dst)
                .all(|(s, d)| d.lets.is_empty() && d.expr == IndexExpr::Var(s.clone()))
    }
}

impl fmt::Display for Remapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dst: Vec<String> = self.dst.iter().map(|d| d.to_string()).collect();
        write!(f, "({}) -> ({})", self.src.join(","), dst.join(","))
    }
}

impl FromStr for Remapping {
    type Err = RemapError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::remap::parser::parse_remapping(s)
    }
}

/// Canonical index variable names used by [`Remapping::identity`]: `i, j, k, l`
/// for orders up to 4, then `i1, i2, ...`.
pub fn canonical_names(order: usize) -> Vec<String> {
    if order <= 4 {
        ["i", "j", "k", "l"][..order]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        (1..=order).map(|d| format!("i{d}")).collect()
    }
}

/// True when `order` is a permutation of `0..order.len()` — a mode order.
pub(crate) fn is_permutation(order: &[usize]) -> bool {
    let mut seen = vec![false; order.len()];
    order
        .iter()
        .all(|&m| m < order.len() && !std::mem::replace(&mut seen[m], true))
}
