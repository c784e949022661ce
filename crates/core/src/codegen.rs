//! Conversion code generation (the compiler path).
//!
//! This module plays the role of taco's code generator in the reproduction:
//! given a source and a target [`Format`], it emits an imperative [`ir`](crate::ir)
//! routine implementing the conversion, structured exactly like the listings
//! of Figure 6 — a fused coordinate-remapping + analysis phase, one-shot
//! allocation from the analysis results, and a fused remapping + assembly
//! phase. Both sides are read off the formats' specifications: the source
//! loops and the parameter list from the source's level chain (a coordinate
//! list, a dense level over a compressed one under a row- or column-major
//! remapping, or a chain of compressed fibres), the assembly from the
//! target's (those three, plus DIA- and ELL-shaped chains, whose remapped
//! coordinate expressions are lowered from the target's remapping). Counters
//! are realised as scalars or arrays according to the source's iteration
//! order (Section 4.2). A builder-made format with one of those chains
//! generates like the stock format it resembles; a mode-ordered `CSF@perm`
//! target is just another [`Format`].
//!
//! Generated routines can be pretty printed ([`listing`]) for comparison with
//! Figure 6 and executed against real inputs ([`execute_format`]). Every
//! routine `execute_format` can serve (each stock source into each stock
//! format and `CSF@perm` that [`generate`] accepts) is compiled Rust in the
//! `@generated` [`ir::compiled`](crate::ir::compiled) module: the test-only
//! emitter prints it with every access checked, and the unit test
//! `compiled_routines_are_fresh` rewrites that file, and fails, whenever the
//! generator or the emitter would now print something else. A routine
//! borrows the source container's slices and returns only the buffers the
//! target's container is built from. Routines are keyed by structure, not by
//! name: a builder-made fibre chain runs the routine of the registered
//! `CSF@perm` with its mode order, and a builder-made target of any other
//! chain has no container and is refused before anything runs. The IR's
//! test-only interpreter is the reference the compiled routines are tested
//! against, on outputs and errors; the engine kernels stay the reference
//! both are tested against, bit for bit. `execute_format` records its phases
//! as the spans `codegen.generate`, `codegen.bind`, `ir.run` and
//! `codegen.unpack`, and `ir.run` has one child, `ir.compiled`.
//!
//! Buffer naming conventions: the source is `A` (`A_pos`, `A_crd`, `A_vals`,
//! or `A1_crd`/`A2_crd`/`A2_pos` per level for coordinate lists and fibre
//! chains), the output is `B`, and scalar inputs are `N`, `M`, `L` (the
//! extents of canonical modes `i`, `j`, `k`), `R1` (root fibres) and `nnz`.

use obs::Span;
use sparse_formats::{CooMatrix, CooTensor, CscMatrix, CsfTensor, CsrMatrix, DiaMatrix, EllMatrix};
use sparse_tensor::Shape;

use crate::convert::AnyTensor;
use crate::error::ConvertError;
use crate::format::Format;
use crate::ir::build::*;
use crate::ir::checked::{Inputs, Outputs, Param};
use crate::ir::compiled;
use crate::ir::printer::print_function;
use crate::ir::simplify::simplify_function;
use crate::ir::{Expr, Function, IrBinOp, Stmt};
use crate::levels::LevelKind;
use crate::mode;
use crate::remap::{BinOp as RBinOp, DstIndex, IndexExpr, Remapping};
use crate::spec::FormatSpec;
use crate::stock::STOCK;

/// The IR variable holding each canonical mode's coordinate.
const SYM: [&str; 3] = ["i", "j", "k"];
/// The scalar input holding each canonical mode's extent.
const EXTENT: [&str; 3] = ["N", "M", "L"];
/// The output coordinate array of each level of a coordinate list or fibre
/// chain.
const B_CRD: [&str; 3] = ["B1_crd", "B2_crd", "B3_crd"];

/// The level chains the generator has loops (sources) or assembly (targets)
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chain {
    /// A compressed non-unique root over singletons, one position per
    /// nonzero (COO, COO3).
    Coordinates,
    /// A dense root over a compressed leaf (CSR, CSC).
    DenseCompressed,
    /// Every level compressed: a fibre tree (CSF, `CSF@perm`).
    Fibers,
    /// `(f(i,j), i, j)` under squeezed, dense and singleton levels (DIA).
    /// Target only.
    Diagonals,
    /// `(#i, i, j)` under sliced, dense and singleton levels (ELL). Target
    /// only.
    Slices,
}

/// A format as the generator reads it.
struct Layout<'a> {
    format: &'a Format,
    spec: &'a FormatSpec,
    chain: Chain,
    /// The canonical mode each level of a coordinate list, dense-compressed
    /// pair or fibre chain stores, outer to inner (empty for the other two).
    modes: Vec<usize>,
}

/// The leading index of a remapping `(e, i, j)` that keeps the row and the
/// column as its two inner dimensions.
fn leading_index(remapping: &Remapping) -> Option<&DstIndex> {
    let ([i, j], [lead, row, col]) = (remapping.src.as_slice(), remapping.dst.as_slice()) else {
        return None;
    };
    let kept = |dst: &DstIndex, v: &str| *dst == DstIndex::simple(IndexExpr::var(v));
    (kept(row, i) && kept(col, j)).then_some(lead)
}

/// True when `lead` is the per-row counter `#i`, written bare or let-bound
/// (`k=#i in k`).
fn counts_within_rows(lead: &DstIndex, row: &str) -> bool {
    let counter = IndexExpr::Counter(vec![row.to_string()]);
    match (lead.lets.as_slice(), &lead.expr) {
        ([], expr) => *expr == counter,
        ([(name, bound)], IndexExpr::LetVar(used)) => name == used && *bound == counter,
        _ => false,
    }
}

impl<'a> Layout<'a> {
    fn of(format: &'a Format) -> Result<Self, ConvertError> {
        use LevelKind::{Compressed, CompressedNonUnique, Dense, Singleton, Sliced, Squeezed};
        let unsupported = |why: &str| {
            Err(ConvertError::Unsupported(format!(
                "code generation does not support {format}: {why}"
            )))
        };
        let Some(spec) = format.spec() else {
            return unsupported("it has no level specification");
        };
        if spec.source_order() > SYM.len() {
            return unsupported("only orders up to 3 have named index variables");
        }
        let permutation = mode::permutation_of(&spec.remapping);
        let lead = leading_index(&spec.remapping);
        let chain = match (spec.levels.as_slice(), &permutation) {
            ([CompressedNonUnique, rest @ ..], Some(_)) if rest.iter().all(|k| *k == Singleton) => {
                Chain::Coordinates
            }
            ([Dense, Compressed], Some(_)) => Chain::DenseCompressed,
            (levels, Some(_)) if levels.iter().all(|k| *k == Compressed) => Chain::Fibers,
            ([Squeezed, Dense, Singleton], None) if lead.is_some_and(|l| l.lets.is_empty()) => {
                Chain::Diagonals
            }
            ([Sliced, Dense, Singleton], None)
                if lead.is_some_and(|l| counts_within_rows(l, &spec.remapping.src[0])) =>
            {
                Chain::Slices
            }
            _ => return unsupported("no lowering for its remapping and level chain"),
        };
        Ok(Layout {
            format,
            spec,
            chain,
            modes: permutation.unwrap_or_default(),
        })
    }

    /// The format's name as a C identifier: lowercased, the commas of a
    /// `CSF@2,0,1` mode list dropped, anything else that is not alphanumeric
    /// an underscore.
    fn ident(&self) -> String {
        let name = self.format.name().to_lowercase();
        let kept = name.chars().filter(|c| *c != ',');
        kept.map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect()
    }

    /// The parameters of a routine reading this format, with what each
    /// holds: the level arrays, the values, the extents, the root fibre
    /// count of a fibre chain, and the nonzero count.
    fn params(&self) -> Vec<(String, Param)> {
        let order = self.modes.len();
        let arrays: Vec<String> = match self.chain {
            Chain::Coordinates => (1..=order).map(|d| format!("A{d}_crd")).collect(),
            Chain::Fibers => {
                let deeper = (2..=order).flat_map(|d| [format!("A{d}_pos"), format!("A{d}_crd")]);
                [vec!["A1_crd".to_string()], deeper.collect()].concat()
            }
            _ => vec!["A_pos".to_string(), "A_crd".to_string()],
        };
        let mut params: Vec<_> = arrays.into_iter().map(|a| (a, Param::Ints)).collect();
        params.push(("A_vals".to_string(), Param::Floats));
        let mut scalars: Vec<&str> = EXTENT[..order].to_vec();
        if self.chain == Chain::Fibers {
            scalars.push("R1");
        }
        scalars.push("nnz");
        params.extend(scalars.into_iter().map(|s| (s.to_string(), Param::Int)));
        params
    }

    /// What a routine assembling this (target) format returns: the buffers
    /// and scalars [`unpack_target`] builds its container from. The emitter
    /// compiles each routine to return these.
    #[cfg(test)]
    fn outputs(&self) -> Vec<(&'static str, Param)> {
        let ints: &[&'static str] = match self.chain {
            Chain::Coordinates => &B_CRD[..self.modes.len()],
            Chain::DenseCompressed => &["B_pos", "B_crd"],
            Chain::Diagonals => &["B_perm"],
            Chain::Slices => &["B_crd"],
            Chain::Fibers => &["B1_crd", "B2_pos", "B2_crd", "B3_pos", "B3_crd"],
        };
        let scalars: &[&'static str] = match self.chain {
            Chain::Diagonals | Chain::Slices => &["K"],
            Chain::Fibers => &["q1", "q2"],
            _ => &[],
        };
        let ints = ints.iter().map(|&name| (name, Param::Ints));
        let scalars = scalars.iter().map(|&name| (name, Param::Int));
        ints.chain([("B_vals", Param::Floats)])
            .chain(scalars)
            .collect()
    }

    /// Wraps `body` in loops iterating this (source) format. Inside, the IR
    /// variables [`SYM`] hold the nonzero's canonical coordinates and
    /// [`source_value`] reads its value. `row_prologue` runs once per
    /// outermost coordinate, before that coordinate's nonzeros; only formats
    /// that [iterate rows in order](FormatSpec::iterates_rows_in_order) have
    /// such a place.
    fn loops(&self, row_prologue: Vec<Stmt>, body: Vec<Stmt>) -> Vec<Stmt> {
        let sym = |d: usize| SYM[self.modes[d]];
        match self.chain {
            Chain::Coordinates => {
                debug_assert!(row_prologue.is_empty(), "coordinate lists have no row loop");
                let coords = (0..self.modes.len())
                    .map(|d| decl(sym(d), load(&format!("A{}_crd", d + 1), var("p"))));
                vec![for_(
                    "p",
                    int(0),
                    var("nnz"),
                    [coords.collect(), body].concat(),
                )]
            }
            Chain::DenseCompressed => {
                let inner = for_(
                    "p",
                    load("A_pos", var(sym(0))),
                    load("A_pos", add(var(sym(0)), int(1))),
                    [vec![decl(sym(1), load("A_crd", var("p")))], body].concat(),
                );
                vec![for_(
                    sym(0),
                    int(0),
                    var(EXTENT[self.modes[0]]),
                    [row_prologue, vec![inner]].concat(),
                )]
            }
            Chain::Fibers => {
                // Level `d` is walked by `r`, then `s`; the leaf level by `p`,
                // which also indexes the values.
                let last = self.modes.len() - 1;
                let walker = |d: usize| if d == last { "p" } else { ["r", "s"][d] };
                let mut nest = body;
                for d in (0..=last).rev() {
                    let crd = decl(sym(d), load(&format!("A{}_crd", d + 1), var(walker(d))));
                    let (lo, hi, prologue) = if d == 0 {
                        (int(0), var("R1"), row_prologue.clone())
                    } else {
                        let (pos, parent) = (format!("A{}_pos", d + 1), walker(d - 1));
                        let end = load(&pos, add(var(parent), int(1)));
                        (load(&pos, var(parent)), end, vec![])
                    };
                    let inside = [vec![crd], prologue, nest].concat();
                    nest = vec![for_(walker(d), lo, hi, inside)];
                }
                nest
            }
            Chain::Diagonals | Chain::Slices => {
                unreachable!("generate rejects {:?} sources", self.chain)
            }
        }
    }
}

/// The expression reading the current nonzero's value inside the source loops.
fn source_value() -> Expr {
    load("A_vals", var("p"))
}

/// Lowers a coordinate-remapping index expression to an IR expression, given
/// the IR variable names bound to the remapping's source index variables.
///
/// # Errors
///
/// Returns [`ConvertError::UnsupportedSpec`] for a variable the remapping
/// does not bind and for a counter (counters become scalar or array counters
/// in the assembly a target's chain selects; none takes one here).
fn lower_index_expr(expr: &IndexExpr, src_vars: &[(&str, &str)]) -> Result<Expr, ConvertError> {
    let reject = |reason: String| Err(ConvertError::UnsupportedSpec { reason });
    Ok(match expr {
        IndexExpr::Const(c) => int(*c),
        IndexExpr::Var(name) => match src_vars.iter().find(|(v, _)| v == name) {
            Some((_, ir_name)) => var(ir_name),
            None => return reject(format!("unbound remapping variable `{name}`")),
        },
        IndexExpr::LetVar(name) | IndexExpr::Param(name) => var(name),
        IndexExpr::Counter(_) => {
            return reject(format!(
                "the counter `{expr}` cannot be lowered as a coordinate expression"
            ))
        }
        IndexExpr::Binary(op, l, r) => {
            let l = lower_index_expr(l, src_vars)?;
            let r = lower_index_expr(r, src_vars)?;
            let op = match op {
                RBinOp::Add => IrBinOp::Add,
                RBinOp::Sub => IrBinOp::Sub,
                RBinOp::Mul => IrBinOp::Mul,
                RBinOp::Div => IrBinOp::Div,
                RBinOp::Rem => IrBinOp::Rem,
                RBinOp::Shl => IrBinOp::Shl,
                RBinOp::Shr => IrBinOp::Shr,
                RBinOp::And => IrBinOp::BitAnd,
                RBinOp::Or => IrBinOp::BitOr,
                RBinOp::Xor => IrBinOp::BitXor,
            };
            Expr::binary(op, l, r)
        }
    })
}

/// Generates a conversion routine from `source` to `target`.
///
/// # Errors
///
/// Returns [`ConvertError::Unsupported`] for combinations the generator does
/// not cover (sources: coordinate lists, dense-compressed pairs and fibre
/// chains of order up to 3; targets: those, plus DIA- and ELL-shaped chains,
/// a fibre chain only from an order-3 coordinate list; both sides of one
/// order), and [`ConvertError::UnsupportedSpec`] when a builder-made target's
/// remapping cannot be lowered.
pub fn generate(source: &Format, target: &Format) -> Result<Function, ConvertError> {
    let (src, dst) = (Layout::of(source)?, Layout::of(target)?);
    if matches!(src.chain, Chain::Diagonals | Chain::Slices) {
        return Err(ConvertError::Unsupported(format!(
            "code generation does not support {source} sources yet"
        )));
    }
    if source.order() != target.order() {
        return Err(ConvertError::Unsupported(format!(
            "code generation cannot mix the order of {source} sources and {target} targets"
        )));
    }
    let body = match dst.chain {
        Chain::Coordinates => gen_to_coordinates(&src, &dst),
        Chain::DenseCompressed => gen_to_compressed(&src, &dst),
        Chain::Diagonals => gen_to_dia(&src, &dst)?,
        Chain::Slices => gen_to_ell(&src),
        Chain::Fibers => gen_to_fibers(&src, &dst)?,
    };
    let name = format!("convert_{}_to_{}", src.ident(), dst.ident());
    let params = src.params().into_iter().map(|(name, _)| name).collect();
    Ok(simplify_function(&Function::new(&name, params, body)))
}

/// Pretty prints the generated routine for a pair as a C-like listing.
///
/// # Errors
///
/// Propagates [`generate`] errors.
pub fn listing(source: &Format, target: &Format) -> Result<String, ConvertError> {
    Ok(print_function(&generate(source, target)?))
}

/// CSR/CSC-style target: count children per outer coordinate, prefix-sum into
/// `B_pos`, then scatter (Figure 6c generalised to any supported source).
fn gen_to_compressed(src: &Layout, dst: &Layout) -> Vec<Stmt> {
    let (outer_var, inner_var) = (SYM[dst.modes[0]], SYM[dst.modes[1]]);
    let outer_extent = EXTENT[dst.modes[0]];
    let mut body = vec![comment("analysis: count nonzeros per output group")];
    body.push(alloc_int("count", var(outer_extent), true));
    body.extend(src.loops(vec![], vec![store_add("count", var(outer_var), int(1))]));
    body.push(comment(
        "assembly: sequenced edge insertion (pos) then coordinate insertion",
    ));
    body.push(alloc_int("B_pos", add(var(outer_extent), int(1)), true));
    body.push(for_(
        "r",
        int(0),
        var(outer_extent),
        vec![store(
            "B_pos",
            add(var("r"), int(1)),
            add(load("B_pos", var("r")), load("count", var("r"))),
        )],
    ));
    body.push(alloc_int("B_crd", var("nnz"), false));
    body.push(alloc_float("B_vals", var("nnz"), false));
    body.push(alloc_int("cursor", var(outer_extent), true));
    body.extend(src.loops(
        vec![],
        vec![
            decl(
                "pB",
                add(
                    load("B_pos", var(outer_var)),
                    load("cursor", var(outer_var)),
                ),
            ),
            store_add("cursor", var(outer_var), int(1)),
            store("B_crd", var("pB"), var(inner_var)),
            store("B_vals", var("pB"), source_value()),
        ],
    ));
    body
}

/// Coordinate-list target (COO, COO3): append coordinates and values in
/// source order.
fn gen_to_coordinates(src: &Layout, dst: &Layout) -> Vec<Stmt> {
    let crd = |d: usize| format!("B{}_crd", d + 1);
    let levels = 0..dst.modes.len();
    let mut body = vec![comment("assembly: append nonzeros in source order")];
    body.extend(
        levels
            .clone()
            .map(|d| alloc_int(&crd(d), var("nnz"), false)),
    );
    body.push(alloc_float("B_vals", var("nnz"), false));
    body.push(decl("q", int(0)));
    let mut append: Vec<Stmt> = levels
        .map(|d| store(&crd(d), var("q"), var(SYM[dst.modes[d]])))
        .collect();
    append.push(store("B_vals", var("q"), source_value()));
    append.push(assign("q", add(var("q"), int(1))));
    body.extend(src.loops(vec![], append));
    body
}

/// DIA-shaped target (Figure 6a): the offset expression is lowered from the
/// target spec's remapping `(i,j) -> (j-i,i,j)` rather than hard-coded. The
/// offset window is DIA's, `-(N-1) ..= M-1`; a builder-made remapping that
/// leaves it fails in the interpreter with an out-of-bounds store.
fn gen_to_dia(src: &Layout, dst: &Layout) -> Result<Vec<Stmt>, ConvertError> {
    let remapping = &dst.spec.remapping;
    let src_vars: Vec<(&str, &str)> = remapping.src.iter().map(String::as_str).zip(SYM).collect();
    let offset_expr = lower_index_expr(&remapping.dst[0].expr, &src_vars)?;
    // A 0x0 matrix has no diagonal: clamp `N + M - 1` rather than allocate -1.
    let ndiag = max(sub(add(var("N"), var("M")), int(1)), int(0));
    let shift = sub(var("N"), int(1));

    let mut body = vec![comment(
        "fused remapping + analysis: mark nonzero diagonals",
    )];
    body.push(alloc_int("nz", ndiag.clone(), true));
    body.extend(src.loops(
        vec![],
        vec![
            decl("k", offset_expr.clone()),
            store("nz", add(var("k"), shift.clone()), int(1)),
        ],
    ));
    body.push(comment(
        "assembly: collect offsets (perm), build rperm, scatter values",
    ));
    body.push(alloc_int("B_perm", ndiag.clone(), false));
    body.push(decl("K", int(0)));
    body.push(for_(
        "d",
        int(0),
        ndiag.clone(),
        vec![if_(
            ne(load("nz", var("d")), int(0)),
            vec![
                store("B_perm", var("K"), sub(var("d"), shift.clone())),
                assign("K", add(var("K"), int(1))),
            ],
        )],
    ));
    body.push(alloc_int("rperm", ndiag, true));
    body.push(for_(
        "d",
        int(0),
        var("K"),
        vec![store(
            "rperm",
            add(load("B_perm", var("d")), shift.clone()),
            var("d"),
        )],
    ));
    body.push(alloc_float("B_vals", mul(var("K"), var("N")), true));
    body.extend(src.loops(
        vec![],
        vec![
            decl("k", offset_expr),
            decl("pB1", load("rperm", add(var("k"), shift))),
            decl("pB2", add(mul(var("pB1"), var("N")), var("i"))),
            store("B_vals", var("pB2"), source_value()),
        ],
    ));
    Ok(body)
}

/// ELL-shaped target (Figure 6b): the `#i` counter is a scalar reset per row
/// for sources that iterate rows in order and a counter array otherwise
/// (Section 4.2).
fn gen_to_ell(src: &Layout) -> Vec<Stmt> {
    let mut body = vec![comment("analysis: maximum number of nonzeros in any row")];
    body.push(alloc_int("count", var("N"), true));
    body.extend(src.loops(vec![], vec![store_add("count", var("i"), int(1))]));
    body.push(decl("K", int(0)));
    body.push(for_(
        "r",
        int(0),
        var("N"),
        vec![assign("K", max(var("K"), load("count", var("r"))))],
    ));
    body.push(comment("assembly: scatter into K slices (calloc'd output)"));
    body.push(alloc_int("B_crd", mul(var("K"), var("N")), true));
    body.push(alloc_float("B_vals", mul(var("K"), var("N")), true));
    let slot = decl("pB", add(mul(var("c"), var("N")), var("i")));
    let scatter = [
        store("B_crd", var("pB"), var("j")),
        store("B_vals", var("pB"), source_value()),
    ];
    if src.spec.iterates_rows_in_order() {
        let count = vec![slot, assign("c", add(var("c"), int(1)))];
        body.extend(src.loops(vec![decl("c", int(0))], [count, scatter.to_vec()].concat()));
    } else {
        body.push(alloc_int("counter", var("N"), true));
        let count = vec![
            decl("c", load("counter", var("i"))),
            store_add("counter", var("i"), int(1)),
            slot,
        ];
        body.extend(src.loops(vec![], [count, scatter.to_vec()].concat()));
    }
    body
}

/// One stable counting-sort pass over the working arrays, keyed by
/// `key_buf` with `extent` distinct values, scattering `(i, j, k, v)` from
/// the `src` array set into the `dst` array set.
fn counting_sort_pass(
    pass: usize,
    key_buf: &str,
    extent: &str,
    src: [&str; 4],
    dst: [&str; 4],
) -> Vec<Stmt> {
    let cnt = format!("cnt{pass}");
    let mut body = vec![comment(&format!(
        "stable counting sort by {key_buf} ({extent} buckets)"
    ))];
    body.push(alloc_int(&cnt, add(var(extent), int(1)), true));
    body.push(for_(
        "p",
        int(0),
        var("nnz"),
        vec![store_add(
            &cnt,
            add(load(key_buf, var("p")), int(1)),
            int(1),
        )],
    ));
    body.push(for_(
        "r",
        int(0),
        var(extent),
        vec![store(
            &cnt,
            add(var("r"), int(1)),
            add(load(&cnt, add(var("r"), int(1))), load(&cnt, var("r"))),
        )],
    ));
    for (n, name) in dst.iter().enumerate() {
        if n < 3 {
            body.push(alloc_int(name, var("nnz"), false));
        } else {
            body.push(alloc_float(name, var("nnz"), false));
        }
    }
    body.push(for_(
        "p",
        int(0),
        var("nnz"),
        vec![
            decl("d", load(&cnt, load(key_buf, var("p")))),
            store_add(&cnt, load(key_buf, var("p")), int(1)),
            store(dst[0], var("d"), load(src[0], var("p"))),
            store(dst[1], var("d"), load(src[1], var("p"))),
            store(dst[2], var("d"), load(src[2], var("p"))),
            store(dst[3], var("d"), load(src[3], var("p"))),
        ],
    ));
    body
}

/// Fibre-chain target (CSF, `CSF@perm`) from an order-3 coordinate list: the
/// paper's tensor sort-then-pack conversion, lowered to the IR. The
/// lexicographic sort along the target's mode order is realised as three
/// stable counting-sort passes, keyed innermost-storage-dimension first on
/// the *canonical* buffers holding each storage dimension's mode, which is
/// bit-identical to the engine's stable comparison sort; the pack pass over
/// the storage-ordered arrays then opens a fresh fiber at the first level
/// whose coordinate changes.
fn gen_to_fibers(src: &Layout, dst: &Layout) -> Result<Vec<Stmt>, ConvertError> {
    let (Chain::Coordinates, [0, 1, 2], &[outer, middle, inner]) =
        (src.chain, src.modes.as_slice(), dst.modes.as_slice())
    else {
        return Err(ConvertError::Unsupported(format!(
            "code generation packs fibre trees from order-3 coordinate lists only, not {} \
             into {}",
            src.format, dst.format
        )));
    };
    // Canonical mode `m` lives in source buffer `A{m+1}_crd` (and the
    // working arrays suffixed with its index variable) with extent N/M/L.
    let mut body = vec![comment(&format!(
        "sort: LSD radix over ({}, {}, {}) = stable lexicographic order",
        SYM[inner], SYM[middle], SYM[outer],
    ))];
    body.extend(counting_sort_pass(
        1,
        &format!("A{}_crd", inner + 1),
        EXTENT[inner],
        ["A1_crd", "A2_crd", "A3_crd", "A_vals"],
        ["t1_i", "t1_j", "t1_k", "t1_v"],
    ));
    body.extend(counting_sort_pass(
        2,
        &format!("t1_{}", SYM[middle]),
        EXTENT[middle],
        ["t1_i", "t1_j", "t1_k", "t1_v"],
        ["t2_i", "t2_j", "t2_k", "t2_v"],
    ));
    body.extend(counting_sort_pass(
        3,
        &format!("t2_{}", SYM[outer]),
        EXTENT[outer],
        ["t2_i", "t2_j", "t2_k", "t2_v"],
        ["s_i", "s_j", "s_k", "s_v"],
    ));
    body.push(comment(
        "pack: append fibers where a coordinate prefix changes",
    ));
    body.push(alloc_int("B1_crd", var("nnz"), false));
    body.push(alloc_int("B2_pos", add(var("nnz"), int(1)), true));
    body.push(alloc_int("B2_crd", var("nnz"), false));
    body.push(alloc_int("B3_pos", add(var("nnz"), int(1)), true));
    body.push(alloc_int("B3_crd", var("nnz"), false));
    body.push(alloc_float("B_vals", var("nnz"), false));
    body.push(decl("q1", int(0)));
    body.push(decl("q2", int(0)));
    body.push(decl("prev_i", int(-1)));
    body.push(decl("prev_j", int(-1)));
    body.push(for_(
        "p",
        int(0),
        var("nnz"),
        vec![
            decl("i", load(&format!("s_{}", SYM[outer]), var("p"))),
            decl("j", load(&format!("s_{}", SYM[middle]), var("p"))),
            if_(
                ne(var("i"), var("prev_i")),
                vec![
                    store("B1_crd", var("q1"), var("i")),
                    assign("q1", add(var("q1"), int(1))),
                    assign("prev_i", var("i")),
                    assign("prev_j", int(-1)),
                ],
            ),
            if_(
                ne(var("j"), var("prev_j")),
                vec![
                    store("B2_crd", var("q2"), var("j")),
                    assign("q2", add(var("q2"), int(1))),
                    store("B2_pos", var("q1"), var("q2")),
                    assign("prev_j", var("j")),
                ],
            ),
            store(
                "B3_crd",
                var("p"),
                load(&format!("s_{}", SYM[inner]), var("p")),
            ),
            store("B_vals", var("p"), load("s_v", var("p"))),
            store("B3_pos", var("q2"), add(var("p"), int(1))),
        ],
    ));
    Ok(body)
}

/// Borrows a source container's arrays, and reads its extents and nonzero
/// count, as the parameters [`Layout::params`] lists for its format.
fn bind(src: &AnyTensor) -> Result<Inputs<'_>, ConvertError> {
    let (shape, format) = (src.shape(), src.format());
    // The rank-N containers hold tensors of any order; a routine is
    // generated for the order of the format's specification.
    if shape.order() != format.order() {
        return Err(ConvertError::Unsupported(format!(
            "code generation reads {format} at order {}, got an order-{} container",
            format.order(),
            shape.order()
        )));
    }
    let mut scalars: Vec<i64> = shape.dims().iter().map(|&dim| dim as i64).collect();
    let (ints, values) = match src {
        AnyTensor::Coo(m) => (vec![m.row_indices(), m.col_indices()], m.values()),
        AnyTensor::Csr(m) => (vec![m.pos(), m.crd()], m.values()),
        AnyTensor::Csc(m) => (vec![m.pos(), m.crd()], m.values()),
        AnyTensor::Coo3(t) => ((0..t.order()).map(|d| t.crd(d)).collect(), t.values()),
        AnyTensor::Csf(t) => {
            scalars.push(t.num_fibers(0) as i64);
            let deeper = (1..t.order()).flat_map(|d| [t.pos(d - 1), t.crd(d)]);
            ([vec![t.crd(0)], deeper.collect()].concat(), t.values())
        }
        other => {
            return Err(ConvertError::Unsupported(format!(
                "code generation cannot read {} containers yet",
                other.format()
            )))
        }
    };
    scalars.push(src.nnz() as i64);
    let floats = vec![values];
    Ok(Inputs {
        ints,
        floats,
        scalars,
    })
}

/// The value named `name`, taken out of `named`.
fn take<T: Default>(named: &mut [(&str, T)], name: &str, what: &str) -> Result<T, ConvertError> {
    match named.iter_mut().find(|(n, _)| *n == name) {
        Some((_, value)) => Ok(std::mem::take(value)),
        None => Err(ConvertError::UnsupportedSpec {
            reason: format!("the compiled routine returns no {what} `{name}`"),
        }),
    }
}

/// What a routine returned, taken out by name.
impl Outputs {
    /// The first `len` entries (all of a shorter buffer).
    fn raw_ints(&mut self, name: &str, len: usize) -> Result<Vec<i64>, ConvertError> {
        let mut ints = take(&mut self.ints, name, "integer buffer")?;
        ints.truncate(len);
        Ok(ints)
    }

    /// The first `len` entries (all of a shorter buffer), converted in place.
    fn ints(&mut self, name: &str, len: usize) -> Result<Vec<usize>, ConvertError> {
        let ints = self.raw_ints(name, len)?.into_iter();
        Ok(ints.map(|x| x as usize).collect())
    }

    fn floats(&mut self, name: &str, len: usize) -> Result<Vec<f64>, ConvertError> {
        let mut floats = take(&mut self.floats, name, "value buffer")?;
        floats.truncate(len);
        Ok(floats)
    }

    fn scalar(&mut self, name: &str) -> Result<usize, ConvertError> {
        Ok(take(&mut self.scalars, name, "scalar")? as usize)
    }
}

/// Rebuilds the target's container from the outputs the assembly of its
/// chain returns.
fn unpack_target(
    mut out: Outputs,
    src: &AnyTensor,
    target: &Layout,
) -> Result<AnyTensor, ConvertError> {
    const ALL: usize = usize::MAX;
    let (rows, cols, nnz, shape) = (src.rows(), src.cols(), src.nnz(), src.shape());
    let compressed = |out: &mut Outputs| -> Result<_, ConvertError> {
        Ok((
            out.ints("B_pos", ALL)?,
            out.ints("B_crd", ALL)?,
            out.floats("B_vals", ALL)?,
        ))
    };
    Ok(match (target.chain, target.modes.as_slice()) {
        (Chain::DenseCompressed, [0, 1]) => {
            let (pos, crd, vals) = compressed(&mut out)?;
            AnyTensor::Csr(CsrMatrix::from_parts(rows, cols, pos, crd, vals)?)
        }
        (Chain::DenseCompressed, _) => {
            let (pos, crd, vals) = compressed(&mut out)?;
            AnyTensor::Csc(CscMatrix::from_parts(rows, cols, pos, crd, vals)?)
        }
        (Chain::Coordinates, [_, _]) => AnyTensor::Coo(CooMatrix::from_parts(
            rows,
            cols,
            out.ints("B1_crd", ALL)?,
            out.ints("B2_crd", ALL)?,
            out.floats("B_vals", ALL)?,
        )?),
        (Chain::Coordinates, modes) => {
            let crd = B_CRD[..modes.len()].iter().map(|name| out.ints(name, ALL));
            let crd = crd.collect::<Result<_, _>>()?;
            AnyTensor::Coo3(CooTensor::from_parts(
                shape,
                crd,
                out.floats("B_vals", ALL)?,
            )?)
        }
        (Chain::Diagonals, _) => {
            let k = out.scalar("K")?;
            AnyTensor::Dia(DiaMatrix::from_parts(
                rows,
                cols,
                out.raw_ints("B_perm", k)?,
                out.floats("B_vals", ALL)?,
            )?)
        }
        (Chain::Slices, _) => AnyTensor::Ell(EllMatrix::from_parts(
            rows,
            cols,
            out.scalar("K")?,
            out.ints("B_crd", ALL)?,
            out.floats("B_vals", ALL)?,
        )?),
        (Chain::Fibers, modes) => {
            let (q1, q2) = (out.scalar("q1")?, out.scalar("q2")?);
            let csf = CsfTensor::from_parts(
                Shape::new(modes.iter().map(|&m| shape.dim(m)).collect()),
                vec![
                    out.ints("B1_crd", q1)?,
                    out.ints("B2_crd", q2)?,
                    out.ints("B3_crd", nnz)?,
                ],
                vec![out.ints("B2_pos", q1 + 1)?, out.ints("B3_pos", q2 + 1)?],
                out.floats("B_vals", nnz)?,
            )?;
            if *target.format == Format::csf() {
                AnyTensor::Csf(csf)
            } else {
                // Wrapped exactly as the dynamic driver assembles a
                // mode-ordered target, so the paths stay byte-comparable.
                let custom = mode::custom_from_csf(target.spec, modes, csf)?;
                AnyTensor::Custom(Box::new(custom))
            }
        }
    })
}

/// The name of the compiled routine from `source` into `target`, keyed by
/// structure: a stock target's own; a fibre chain's, the registered
/// `CSF@perm`'s of its mode order (whose output [`unpack_target`] wraps).
/// Any other builder-made target has no container: `Unsupported`.
fn routine_name(source: &Layout, target: &Layout) -> Result<String, ConvertError> {
    let stand_in = match target.chain {
        _ if target.format.id().is_some() => target.format.clone(),
        Chain::Fibers => Format::csf_ordered(&target.modes)?,
        _ => {
            return Err(ConvertError::Unsupported(format!(
                "code generation has no container for {}; the dynamic driver assembles it",
                target.format
            )))
        }
    };
    let target = Layout::of(&stand_in)?.ident();
    Ok(format!("convert_{}_to_{target}", source.ident()))
}

/// Generates the routine from `src`'s format to `target`, runs its compiled
/// form on `src`'s borrowed arrays, and rebuilds the target's container from
/// the buffers it returns. Stock targets come back in their stock container;
/// a mode-ordered fibre chain (a `CSF@perm`, or a builder format of that
/// structure) is wrapped exactly as the dynamic driver assembles it, so all
/// three execution paths stay byte-comparable.
///
/// # Errors
///
/// Propagates [`generate`] errors; returns [`ConvertError::Unsupported`],
/// before running anything, for builder-made targets without a container,
/// and for sources that are not a COO, CSR, CSC, COO3 or CSF container at
/// their format's own order; [`ConvertError::Unsupported`] for duplicate
/// coordinates under a mode-ordered target (which the dynamic driver also
/// rejects); [`ConvertError::Interp`] when the generated code fails to
/// execute.
pub fn execute_format(src: &AnyTensor, target: &Format) -> Result<AnyTensor, ConvertError> {
    let (layout, routine) = {
        let _span = Span::enter("codegen.generate");
        let source = src.format();
        generate(&source, target)?;
        let layout = Layout::of(target)?;
        let name = routine_name(&Layout::of(&source)?, &layout)?;
        let missing = || {
            ConvertError::Unsupported(format!(
                "no routine is compiled from {source} into {target}"
            ))
        };
        (layout, compiled::lookup(&name).ok_or_else(missing)?)
    };
    let inputs = {
        let _span = Span::enter("codegen.bind");
        bind(src)?
    };
    let outputs = {
        let span = Span::enter("ir.run");
        span.add_items(src.nnz() as u64);
        let _tier = Span::enter("ir.compiled");
        routine(&inputs).map_err(|fault| *fault)?
    };
    let _span = Span::enter("codegen.unpack");
    unpack_target(outputs, src, &layout)
}

/// The stock (source, target) pairs the code generator covers — every pair
/// of distinct [stock-table](crate::stock::STOCK) formats [`generate`]
/// accepts: the seven pairs evaluated in Table 3 among the matrix ones, and
/// the paper's order-3 sorting/packing conversions. COO3 also converts to
/// every `CSF@perm`.
pub fn supported_pairs() -> Vec<(Format, Format)> {
    let stock: Vec<Format> = STOCK.iter().map(|row| row.format()).collect();
    let mut pairs = Vec::new();
    for source in &stock {
        for target in &stock {
            if source != target && generate(source, target).is_ok() {
                pairs.push((source.clone(), target.clone()));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use crate::emit::tests::{bits, interpret};
    use crate::generic::convert_with_spec;
    use crate::ir::checked::InterpError;
    use crate::ir::emit::{emit_function, emit_module};
    use crate::select::ORDER3_MODE_ORDERS;
    use obs::Collector;
    use proptest::prelude::*;
    use sparse_formats::CooMatrix;
    use sparse_tensor::example::figure1_matrix;
    use sparse_tensor::SparseTriples;

    #[test]
    fn generated_listings_have_figure6_structure() {
        let csr_dia = listing(&Format::csr(), &Format::dia()).unwrap();
        assert!(csr_dia.contains("convert_csr_to_dia"));
        // The DIA offset expression comes from the remapping (j - i).
        assert!(csr_dia.contains("(j - i)"), "listing:\n{csr_dia}");
        assert!(csr_dia.contains("calloc"));
        assert!(csr_dia.contains("rperm"));

        let csr_ell = listing(&Format::csr(), &Format::ell()).unwrap();
        assert!(csr_ell.contains("max(K, count[r])"));
        // Scalar counter for the row-ordered CSR source.
        assert!(csr_ell.contains("int c = 0;"), "listing:\n{csr_ell}");

        let coo_ell = listing(&Format::coo(), &Format::ell()).unwrap();
        // Counter array for the unordered COO source.
        assert!(coo_ell.contains("counter"), "listing:\n{coo_ell}");

        let coo_csr = listing(&Format::coo(), &Format::csr()).unwrap();
        assert!(coo_csr.contains("B_pos"));
        assert!(coo_csr.contains("count"));
    }

    /// Runs every supported pair of the given order on `t`.
    fn check_supported_pairs(t: &sparse_tensor::SparseTriples) {
        let pairs = supported_pairs();
        let of_order = pairs.iter().filter(|(s, _)| s.order() == t.order());
        assert!(of_order.clone().count() > 0);
        for (source, target) in of_order {
            let src = AnyTensor::from_triples(t, source).unwrap();
            let generated = execute_format(&src, target).unwrap();
            let engine_result = convert(&src, target).unwrap();
            assert_eq!(
                generated, engine_result,
                "generated code disagrees with the engine for {source} -> {target}"
            );
        }
    }

    #[test]
    fn generated_code_matches_engine_for_all_supported_pairs() {
        check_supported_pairs(&figure1_matrix());
    }

    #[test]
    fn generated_code_handles_unsorted_coo() {
        let t = figure1_matrix();
        let mut coo = CooMatrix::from_triples(&t);
        let mut state = 11usize;
        coo.shuffle_with(|bound| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            state % bound
        });
        let src = AnyTensor::Coo(coo);
        for target in [Format::csr(), Format::dia(), Format::ell(), Format::csc()] {
            let generated = execute_format(&src, &target).unwrap();
            assert!(generated.to_triples().same_values(&t), "target {target}");
        }
    }

    #[test]
    fn generated_tensor_code_matches_engine() {
        check_supported_pairs(&sparse_tensor::example::example3_tensor());
    }

    #[test]
    fn generated_coo3_to_csf_handles_shuffled_input() {
        let t = sparse_tensor::example::example3_tensor();
        let mut coo = sparse_formats::CooTensor::from_triples(&t);
        let mut state = 23usize;
        coo.shuffle_with(|bound| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            state % bound
        });
        let src = AnyTensor::Coo3(coo.clone());
        let generated = execute_format(&src, &Format::csf()).unwrap();
        // The counting-sort lowering must match the engine's stable sort on
        // the same (shuffled) input, bit for bit.
        assert_eq!(generated, AnyTensor::Csf(crate::engine::to_csf(&coo)));
        assert!(generated.to_triples().same_values(&t));
    }

    #[test]
    fn tensor_listings_have_sort_and_pack_phases() {
        let listing = listing(&Format::coo3(), &Format::csf()).unwrap();
        assert!(listing.contains("convert_coo3_to_csf"));
        assert!(listing.contains("stable counting sort"), "{listing}");
        assert!(listing.contains("B2_pos"), "{listing}");
        assert!(listing.contains("B3_pos"), "{listing}");
    }

    #[test]
    fn mixed_order_pairs_are_rejected() {
        assert!(generate(&Format::coo3(), &Format::csr()).is_err());
        assert!(generate(&Format::csr(), &Format::csf()).is_err());
        assert!(generate(&Format::csf(), &Format::csf()).is_err());
        // An order-2 CSF container cannot drive the order-3 generated code.
        let m = figure1_matrix();
        let dcsr = convert(&AnyTensor::Coo(CooMatrix::from_triples(&m)), Format::csf()).unwrap();
        assert!(execute_format(&dcsr, &Format::coo3()).is_err());
    }

    #[test]
    fn unsupported_pairs_are_reported() {
        assert!(generate(&Format::dia(), &Format::csr()).is_err());
        assert!(generate(&Format::csr(), &Format::jad()).is_err());
        assert!(generate(&Format::dok(), &Format::csr()).is_err());
        assert!(generate(&Format::csr(), &Format::dok()).is_err());
        let t = figure1_matrix();
        let dia = AnyTensor::from_triples(&t, Format::dia()).unwrap();
        assert!(execute_format(&dia, &Format::csr()).is_err());
    }

    #[test]
    fn statement_counts_are_reasonable() {
        // The generated CSR->DIA routine should be in the same ballpark as
        // Figure 6a (28 lines), not an order of magnitude larger.
        let f = generate(&Format::csr(), &Format::dia()).unwrap();
        assert!(f.statement_count() < 60, "got {}", f.statement_count());
    }

    /// The unpacker is chosen by the same chain as the assembly, so no
    /// `Format` reaches it with a buffer missing; should the two ever drift
    /// apart, that is an error naming the buffer, not a panic.
    #[test]
    fn unpacking_a_routine_that_omits_a_buffer_or_scalar_is_an_error() {
        let src = AnyTensor::Coo(CooMatrix::from_triples(&figure1_matrix()));
        // Run the COO -> COO routine, then unpack as if it had assembled...
        let routine = compiled::lookup("convert_coo_to_coo").unwrap();
        let inputs = bind(&src).unwrap();
        for (target, name) in [
            (Format::csr(), "`B_pos`"), // ...a compressed level,
            (Format::ell(), "`K`"),     // ...and an analysed slice count.
        ] {
            let outputs = routine(&inputs).unwrap();
            let got = unpack_target(outputs, &src, &Layout::of(&target).unwrap());
            let Err(ConvertError::UnsupportedSpec { reason }) = got else {
                panic!("{target}: {got:?}");
            };
            assert!(reason.contains(name), "{reason}");
        }
    }

    /// Every pair `execute_format` can serve: each stock source the
    /// generator reads, into every stock format and every `CSF@perm` it
    /// generates a routine for (`supported_pairs`, the identity pairs, and
    /// COO3 into the five non-stock mode orders).
    fn compiled_pairs() -> Vec<(Format, Format)> {
        let targets = targets();
        let stock = STOCK.iter().map(|row| row.format());
        let pairs = stock.flat_map(|s| targets.iter().map(move |t| (s.clone(), t.clone())));
        pairs.filter(|(s, t)| generate(s, t).is_ok()).collect()
    }

    /// The stock formats, then the `CSF@perm`s that are not stock.
    fn targets() -> Vec<Format> {
        let stock = STOCK.iter().map(|row| row.format());
        let perms = ORDER3_MODE_ORDERS
            .iter()
            .map(|o| Format::csf_ordered(o).unwrap());
        let mut targets: Vec<Format> = Vec::new();
        for target in stock.chain(perms) {
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        targets
    }

    /// `ir/compiled.rs` is what the emitter makes of `compiled_pairs` now.
    /// A stale file is rewritten, and the test fails so that `git diff`
    /// shows the change to review and commit. (A file that no longer
    /// compiles is first replaced by what `emit_module(&[], &[])` prints.)
    #[test]
    fn compiled_routines_are_fresh() {
        let routines: Vec<(String, String)> = compiled_pairs()
            .iter()
            .map(|(source, target)| {
                let function = generate(source, target).unwrap();
                let params = Layout::of(source).unwrap().params();
                let outputs = Layout::of(target).unwrap().outputs();
                let code = emit_function(&function, &params, &outputs).unwrap();
                (function.name, code)
            })
            .collect();
        let (function, params, outputs) = crate::emit::tests::fixture();
        let fixture = emit_function(&function, &params, &outputs).unwrap();
        let fresh = emit_module(&routines, &[(function.name, fixture)]);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/ir/compiled.rs");
        if std::fs::read_to_string(&path).ok().as_deref() != Some(fresh.as_str()) {
            std::fs::write(&path, fresh).unwrap();
            panic!(
                "{} was stale and is rewritten: run the tests again, review and commit it",
                path.display()
            );
        }
    }

    /// Every pair `execute_format` serves, from any stock source into any
    /// stock or `CSF@perm` target, has a compiled routine.
    #[test]
    fn every_servable_pair_is_compiled() {
        let targets = targets();
        let mut served = 0;
        for source in STOCK.iter().map(|row| row.format()) {
            let t = match source.order() {
                2 => figure1_matrix(),
                _ => sparse_tensor::example::example3_tensor(),
            };
            let Ok(src) = AnyTensor::from_triples(&t, &source) else {
                continue;
            };
            for target in &targets {
                if execute_format(&src, target).is_ok() {
                    let name = generate(&source, target).unwrap().name;
                    assert!(compiled::lookup(&name).is_some(), "{source} -> {target}");
                    served += 1;
                }
            }
        }
        assert_eq!(served, compiled_pairs().len());
    }

    /// Runs `source`'s routine into `target` on `inputs` through the
    /// interpreter and the compiled routine, which must return the same
    /// outputs, bit for bit, or the same error; returns the result.
    fn both_tiers(
        source: &Format,
        target: &Format,
        inputs: &Inputs,
    ) -> Result<Outputs, InterpError> {
        let pair = format!("{source} -> {target}");
        let function = generate(source, target).unwrap();
        let (src, dst) = (Layout::of(source).unwrap(), Layout::of(target).unwrap());
        let name = routine_name(&src, &dst).unwrap();
        let routine = compiled::lookup(&name).expect("a compiled routine");
        let expected = interpret(&function, &src.params(), inputs, &dst.outputs());
        let got = routine(inputs).map_err(|fault| *fault);
        let bits =
            |result: &Result<Outputs, InterpError>| result.as_ref().map(bits).map_err(Clone::clone);
        assert_eq!(bits(&expected), bits(&got), "{pair}");
        got
    }

    /// Runs every compiled pair from `t`'s order on `t` (coordinate lists
    /// shuffled by `seed`) through the interpreter and the compiled routine.
    fn check_tiers(t: &SparseTriples, seed: u64) {
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for (source, target) in compiled_pairs()
            .iter()
            .filter(|(s, _)| s.order() == t.order())
        {
            let pair = format!("{source} -> {target}");
            let src = match AnyTensor::from_triples(t, source).unwrap() {
                AnyTensor::Coo(mut coo) => {
                    coo.shuffle_with(&mut next);
                    AnyTensor::Coo(coo)
                }
                AnyTensor::Coo3(mut coo) => {
                    coo.shuffle_with(&mut next);
                    AnyTensor::Coo3(coo)
                }
                other => other,
            };
            let outputs = both_tiers(source, target, &bind(&src).unwrap());
            let outputs = outputs.unwrap_or_else(|fault| panic!("{pair}: {fault}"));
            let unpacked = unpack_target(outputs, &src, &Layout::of(target).unwrap());
            assert!(unpacked.is_ok(), "{pair}: {unpacked:?}");
        }
    }

    /// Arrays no container would accept, bound directly: each source chain
    /// reads past an array, and both tiers report the same load or store.
    #[test]
    fn damaged_inputs_fail_alike_in_both_tiers() {
        let out_of_bounds = |buffer: &str, index, len| InterpError::OutOfBounds {
            buffer: buffer.into(),
            index,
            len,
        };
        let vals = [1.0, 2.0, 3.0, 4.0];
        // CSR: row 1 ends at 4, past `crd`'s 3 entries.
        let (pos, crd) = ([0, 2, 4], [0, 1, 1]);
        let csr = Inputs {
            ints: vec![&pos, &crd],
            floats: vec![&vals[..3]],
            scalars: vec![2, 2, 3],
        };
        let want = out_of_bounds("A_crd", 3, 3);
        assert_eq!(
            both_tiers(&Format::csr(), &Format::csc(), &csr).err(),
            Some(want)
        );
        // COO: a row coordinate of 5 in a 2 x 2 matrix.
        let (rows, cols) = ([0, 5], [1, 0]);
        let coo = Inputs {
            ints: vec![&rows, &cols],
            floats: vec![&vals[..2]],
            scalars: vec![2, 2, 2],
        };
        let want = out_of_bounds("count", 5, 2);
        assert_eq!(
            both_tiers(&Format::coo(), &Format::csr(), &coo).err(),
            Some(want)
        );
        // CSF: the leaf `pos` steps back from 3 to 1, so the leaves are
        // walked six times for four nonzeros.
        let (i, j_pos, j, k_pos, k) = ([0], [0, 3], [0, 1, 2], [0, 3, 1, 4], [0, 1, 2, 3]);
        let csf = Inputs {
            ints: vec![&i, &j_pos, &j, &k_pos, &k],
            floats: vec![&vals],
            scalars: vec![1, 3, 4, 1, 4],
        };
        let want = out_of_bounds("B1_crd", 4, 4);
        assert_eq!(
            both_tiers(&Format::csf(), &Format::coo3(), &csf).err(),
            Some(want)
        );
    }

    /// A builder format whose routine has a compiled routine's name (its
    /// name lowercases to `csf_201`) but another mode order runs the routine
    /// of its structure, `CSF@1,0,2`'s, as does a builder CSF in the
    /// identity order; both convert to what the dynamic driver builds.
    #[test]
    fn a_builder_format_named_like_a_compiled_routine_is_compiled() {
        let t = sparse_tensor::example::example3_tensor();
        let src = AnyTensor::from_triples(&t, Format::coo3()).unwrap();
        let coo3 = Format::coo3();
        let coo3 = Layout::of(&coo3).unwrap();
        for (spec, listed, routine) in [
            (
                "CSF_201:(i,j,k)->(j,i,k):j,i,k:compressed,compressed,compressed",
                "convert_coo3_to_csf_201",
                "convert_coo3_to_csf_102",
            ),
            (
                "CODEGEN-TEST-CSF:(i,j,k)->(i,j,k):i,j,k:compressed,compressed,compressed",
                "convert_coo3_to_codegen_test_csf",
                "convert_coo3_to_csf",
            ),
        ] {
            let builder: Format = spec.parse().unwrap();
            assert!(builder.id().is_none(), "{builder}");
            let function = generate(&Format::coo3(), &builder).unwrap();
            assert_eq!(function.name, listed);
            let layout = Layout::of(&builder).unwrap();
            assert_eq!(routine_name(&coo3, &layout).unwrap(), routine);
            let root = Span::enter_traced("test.builder_csf");
            let trace = root.handle().trace_id();
            let got = execute_format(&src, &builder).unwrap();
            drop(root);
            let expected = convert_with_spec(&src, builder.spec().unwrap()).unwrap();
            assert_eq!(got, AnyTensor::Custom(Box::new(expected)), "{builder}");
            let records = Collector::global().take_trace(trace);
            let run = records.iter().find(|r| r.name == "ir.run").unwrap();
            let tiers: Vec<_> = records
                .iter()
                .filter(|r| r.parent == Some(run.id))
                .collect();
            assert_eq!(tiers.len(), 1, "{builder}");
            assert_eq!(tiers[0].name, "ir.compiled", "{builder}");
        }
    }

    /// A builder-made order-2 target generates, but has no container: it is
    /// refused before its inputs are bound or anything runs.
    #[test]
    fn order2_builder_targets_are_refused_before_running() {
        let src = AnyTensor::Coo(CooMatrix::from_triples(&figure1_matrix()));
        for spec in [
            "CODEGEN-TEST-COO:(i,j)->(i,j):i,j:compressed-nonunique,singleton",
            "CODEGEN-TEST-CSR:(i,j)->(i,j):i,j:dense,compressed",
            "CODEGEN-TEST-CSC:(i,j)->(j,i):j,i:dense,compressed",
            "CODEGEN-TEST-DIA:(i,j)->(j-i,i,j):k,i,j:squeezed,dense,singleton",
            "CODEGEN-TEST-ELL:(i,j)->(k=#i in k,i,j):k,i,j:sliced,dense,singleton",
        ] {
            let builder: Format = spec.parse().unwrap();
            assert!(generate(&Format::coo(), &builder).is_ok(), "{builder}");
            let root = Span::enter_traced("test.order2_builder");
            let trace = root.handle().trace_id();
            let got = execute_format(&src, &builder);
            drop(root);
            assert!(
                matches!(got, Err(ConvertError::Unsupported(_))),
                "{builder}: {got:?}"
            );
            let records = Collector::global().take_trace(trace);
            let names: Vec<_> = records.iter().map(|r| r.name).collect();
            assert_eq!(
                names,
                ["codegen.generate", "test.order2_builder"],
                "{builder}"
            );
        }
    }

    /// Payloads: ordinary values, both zeros and two NaNs (one with a
    /// payload), so a tier that rewrote a value would show.
    const PAYLOADS: [f64; 6] = [1.5, -0.0, 0.0, f64::NAN, -7.0, -2.0];

    fn payload(index: usize) -> f64 {
        match index {
            5 => f64::from_bits(f64::NAN.to_bits() | 0xbeef),
            i => PAYLOADS[i],
        }
    }

    /// `shape` with the entries at `coords` (first occurrence kept).
    fn triples(shape: Shape, entries: Vec<(Vec<i64>, usize)>) -> SparseTriples {
        let mut t = SparseTriples::new(shape);
        let mut seen = std::collections::BTreeSet::new();
        for (coord, p) in entries {
            if seen.insert(coord.clone()) {
                t.push(coord, payload(p)).unwrap();
            }
        }
        t
    }

    proptest! {
        /// Empty, 1xN, Nx1, small and short-and-wide matrices: every
        /// compiled matrix pair leaves what the interpreter leaves.
        #[test]
        fn compiled_matrix_routines_match_the_interpreter(
            (rows, cols, entries, seed) in (0usize..4, 1usize..40, 1usize..40).prop_flat_map(|(kind, a, b)| {
                let (rows, cols) = [(1, a), (a, 1), (a % 12 + 1, b % 12 + 1), (a % 3 + 1, b)][kind];
                let entry = (0..rows, 0..cols, 0..PAYLOADS.len());
                let entries = proptest::collection::vec(entry, 0..(rows * cols).min(160) + 1);
                (Just(rows), Just(cols), entries, 1u64..u64::MAX)
            })
        ) {
            let entries = entries.into_iter().map(|(i, j, p)| (vec![i as i64, j as i64], p));
            check_tiers(&triples(Shape::matrix(rows, cols), entries.collect()), seed);
        }

        /// Order-3 tensors, thin in one or two modes at times: COO3 <-> CSF
        /// and COO3 into every `CSF@perm`.
        #[test]
        fn compiled_tensor_routines_match_the_interpreter(
            (dims, entries, seed) in (1usize..8, 1usize..8, 1usize..16).prop_flat_map(|(d0, d1, d2)| {
                let entry = (0..d0, 0..d1, 0..d2, 0..PAYLOADS.len());
                let entries = proptest::collection::vec(entry, 0..(d0 * d1 * d2).min(96) + 1);
                (Just((d0, d1, d2)), entries, 1u64..u64::MAX)
            })
        ) {
            let coords = entries.into_iter();
            let entries = coords.map(|(i, j, k, p)| (vec![i as i64, j as i64, k as i64], p));
            let shape = Shape::tensor3(dims.0, dims.1, dims.2);
            check_tiers(&triples(shape, entries.collect()), seed);
        }
    }

    /// Shapes with no entries at all, and with no rows or columns.
    #[test]
    fn compiled_routines_match_the_interpreter_on_empty_shapes() {
        for (rows, cols) in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 3)] {
            check_tiers(&SparseTriples::new(Shape::matrix(rows, cols)), 7);
        }
        for dims in [(0, 0, 0), (1, 0, 4), (2, 2, 2)] {
            check_tiers(
                &SparseTriples::new(Shape::tensor3(dims.0, dims.1, dims.2)),
                7,
            );
        }
    }
}
