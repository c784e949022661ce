//! Conversion code generation (the compiler path).
//!
//! This module plays the role of taco's code generator in the reproduction:
//! given a source and a target format, it emits an imperative [`conv_ir`]
//! routine implementing the conversion, structured exactly like the listings
//! of Figure 6 — a fused coordinate-remapping + analysis phase, one-shot
//! allocation from the analysis results, and a fused remapping + assembly
//! phase. The remapped coordinate expressions are lowered from the target's
//! [`FormatSpec`] remapping (they are not hard-coded per pair), and counters
//! are realised as scalars or arrays according to the conversion plan
//! (Section 4.2).
//!
//! Generated routines can be pretty printed ([`listing`]) for comparison with
//! Figure 6 and executed against real inputs through the IR interpreter
//! ([`execute`]), which the tests use to check the generated code against the
//! engine kernels bit for bit.
//!
//! Buffer naming conventions: the source is `A` (`A_pos`, `A_crd`, `A_vals`,
//! or `A1_crd`/`A2_crd` for COO), the output is `B`, and scalar inputs are
//! `N` (rows), `M` (columns), and `nnz`.

use conv_ir::build::*;
use conv_ir::interp::{Buffer, Interpreter};
use conv_ir::printer::print_function;
use conv_ir::simplify::simplify_function;
use conv_ir::{Expr, Function, Stmt};
use coord_remap::{BinOp as RBinOp, IndexExpr};
use sparse_formats::{CooMatrix, CooTensor, CscMatrix, CsfTensor, CsrMatrix, DiaMatrix, EllMatrix};

use crate::convert::{AnyTensor, FormatId};
use crate::error::ConvertError;
use crate::format::Format;
use crate::spec::FormatSpec;

/// Lowers a coordinate-remapping index expression to an IR expression, given
/// the IR variable names bound to the source index variables. Counters are
/// handled by the caller (they become scalar or array counters in the
/// generated code), so this lowering rejects them.
fn lower_index_expr(expr: &IndexExpr, src_vars: &[(String, &str)]) -> Expr {
    match expr {
        IndexExpr::Const(c) => int(*c),
        IndexExpr::Var(name) => {
            let (_, ir_name) = src_vars
                .iter()
                .find(|(v, _)| v == name)
                .unwrap_or_else(|| panic!("unbound remapping variable `{name}`"));
            var(ir_name)
        }
        IndexExpr::LetVar(name) | IndexExpr::Param(name) => var(name),
        IndexExpr::Counter(_) => panic!("counters are lowered by the assembly generator"),
        IndexExpr::Binary(op, l, r) => {
            let l = lower_index_expr(l, src_vars);
            let r = lower_index_expr(r, src_vars);
            let op = match op {
                RBinOp::Add => conv_ir::IrBinOp::Add,
                RBinOp::Sub => conv_ir::IrBinOp::Sub,
                RBinOp::Mul => conv_ir::IrBinOp::Mul,
                RBinOp::Div => conv_ir::IrBinOp::Div,
                RBinOp::Rem => conv_ir::IrBinOp::Rem,
                RBinOp::Shl => conv_ir::IrBinOp::Shl,
                RBinOp::Shr => conv_ir::IrBinOp::Shr,
                RBinOp::And => conv_ir::IrBinOp::BitAnd,
                RBinOp::Or => conv_ir::IrBinOp::BitOr,
                RBinOp::Xor => conv_ir::IrBinOp::BitXor,
            };
            Expr::binary(op, l, r)
        }
    }
}

/// Wraps `body` (which may reference the IR variables `i`, `j` — and `k` for
/// order-3 sources — plus the value expression returned alongside) in loops
/// iterating the source format.
fn source_loops(source: FormatId, body: Vec<Stmt>) -> Result<Vec<Stmt>, ConvertError> {
    match source {
        FormatId::Coo3 => Ok(vec![for_(
            "p",
            int(0),
            var("nnz"),
            [
                vec![
                    decl("i", load("A1_crd", var("p"))),
                    decl("j", load("A2_crd", var("p"))),
                    decl("k", load("A3_crd", var("p"))),
                ],
                body,
            ]
            .concat(),
        )]),
        FormatId::Csf => Ok(vec![for_(
            "r",
            int(0),
            var("R1"),
            vec![
                decl("i", load("A1_crd", var("r"))),
                for_(
                    "s",
                    load("A2_pos", var("r")),
                    load("A2_pos", add(var("r"), int(1))),
                    vec![
                        decl("j", load("A2_crd", var("s"))),
                        for_(
                            "p",
                            load("A3_pos", var("s")),
                            load("A3_pos", add(var("s"), int(1))),
                            [vec![decl("k", load("A3_crd", var("p")))], body].concat(),
                        ),
                    ],
                ),
            ],
        )]),
        FormatId::Coo => Ok(vec![for_(
            "p",
            int(0),
            var("nnz"),
            [
                vec![
                    decl("i", load("A1_crd", var("p"))),
                    decl("j", load("A2_crd", var("p"))),
                ],
                body,
            ]
            .concat(),
        )]),
        FormatId::Csr => Ok(vec![for_(
            "i",
            int(0),
            var("N"),
            vec![for_(
                "p",
                load("A_pos", var("i")),
                load("A_pos", add(var("i"), int(1))),
                [vec![decl("j", load("A_crd", var("p")))], body].concat(),
            )],
        )]),
        FormatId::Csc => Ok(vec![for_(
            "j",
            int(0),
            var("M"),
            vec![for_(
                "p",
                load("A_pos", var("j")),
                load("A_pos", add(var("j"), int(1))),
                [vec![decl("i", load("A_crd", var("p")))], body].concat(),
            )],
        )]),
        other => Err(ConvertError::Unsupported(format!(
            "code generation does not support {other} sources yet"
        ))),
    }
}

/// The expression reading the current nonzero's value inside the source loops.
fn source_value(source: FormatId) -> Expr {
    match source {
        FormatId::Coo | FormatId::Csr | FormatId::Csc | FormatId::Coo3 | FormatId::Csf => {
            load("A_vals", var("p"))
        }
        _ => unreachable!("guarded by source_loops"),
    }
}

/// Generates a conversion routine from `source` to `target`.
///
/// # Errors
///
/// Returns [`ConvertError::Unsupported`] for combinations the generator does
/// not cover (supported sources: COO, CSR, CSC; targets: COO, CSR, CSC, DIA,
/// ELL).
pub fn generate(source: FormatId, target: FormatId) -> Result<Function, ConvertError> {
    let name = format!(
        "convert_{}_to_{}",
        source.to_string().to_lowercase(),
        target.to_string().to_lowercase()
    );
    let params: Vec<String> = match source {
        FormatId::Coo => vec!["A1_crd", "A2_crd", "A_vals", "N", "M", "nnz"],
        FormatId::Csr | FormatId::Csc => vec!["A_pos", "A_crd", "A_vals", "N", "M", "nnz"],
        FormatId::Coo3 => vec!["A1_crd", "A2_crd", "A3_crd", "A_vals", "N", "M", "L", "nnz"],
        FormatId::Csf => vec![
            "A1_crd", "A2_pos", "A2_crd", "A3_pos", "A3_crd", "A_vals", "N", "M", "L", "R1", "nnz",
        ],
        other => {
            return Err(ConvertError::Unsupported(format!(
                "code generation does not support {other} sources yet"
            )))
        }
    }
    .into_iter()
    .map(str::to_string)
    .collect();
    // Order-3 sources convert among the tensor formats; matrix targets
    // cannot represent them (and vice versa).
    let tensor_source = matches!(source, FormatId::Coo3 | FormatId::Csf);
    let tensor_target = matches!(target, FormatId::Coo3 | FormatId::Csf);
    if tensor_source != tensor_target {
        return Err(ConvertError::Unsupported(format!(
            "code generation cannot mix the order of {source} sources and {target} targets"
        )));
    }

    let target_spec = FormatSpec::stock(target)?;
    let body = match target {
        FormatId::Csr => gen_to_compressed(source, "i", "N")?,
        FormatId::Csc => gen_to_compressed(source, "j", "M")?,
        FormatId::Coo => gen_to_coo(source)?,
        FormatId::Dia => gen_to_dia(source, &target_spec)?,
        FormatId::Ell => gen_to_ell(source)?,
        FormatId::Csf => gen_to_csf(source)?,
        FormatId::Coo3 => gen_to_coo3(source)?,
        other => {
            return Err(ConvertError::Unsupported(format!(
                "code generation does not support {other} targets yet"
            )))
        }
    };
    Ok(simplify_function(&Function::new(&name, params, body)))
}

/// Pretty prints the generated routine for a pair as a C-like listing.
///
/// # Errors
///
/// Propagates [`generate`] errors.
pub fn listing(source: FormatId, target: FormatId) -> Result<String, ConvertError> {
    Ok(print_function(&generate(source, target)?))
}

/// Generates the COO3 → mode-ordered CSF conversion routine (the identity
/// order is [`generate`]'s stock COO3 → CSF listing, under a different
/// function name).
///
/// # Errors
///
/// Returns [`ConvertError::Unsupported`] when `mode_order` is not a
/// permutation of `0..3` or the source is not COO3.
pub fn generate_csf_ordered(
    source: FormatId,
    mode_order: &[usize; 3],
) -> Result<Function, ConvertError> {
    let mut seen = [false; 3];
    for &m in mode_order {
        if m >= 3 || seen[m] {
            return Err(ConvertError::Unsupported(format!(
                "mode order {mode_order:?} is not a permutation of 0..3"
            )));
        }
        seen[m] = true;
    }
    if source != FormatId::Coo3 {
        return Err(ConvertError::Unsupported(format!(
            "code generation does not support {source} sources for CSF targets yet"
        )));
    }
    let name = format!(
        "convert_{}_to_csf_{}{}{}",
        source.to_string().to_lowercase(),
        mode_order[0],
        mode_order[1],
        mode_order[2]
    );
    let params: Vec<String> = ["A1_crd", "A2_crd", "A3_crd", "A_vals", "N", "M", "L", "nnz"]
        .into_iter()
        .map(str::to_string)
        .collect();
    let body = gen_to_csf_ordered(source, mode_order)?;
    Ok(simplify_function(&Function::new(&name, params, body)))
}

/// Pretty prints the mode-ordered COO3 → CSF routine as a C-like listing.
///
/// # Errors
///
/// Propagates [`generate_csf_ordered`] errors.
pub fn listing_csf_ordered(
    source: FormatId,
    mode_order: &[usize; 3],
) -> Result<String, ConvertError> {
    Ok(print_function(&generate_csf_ordered(source, mode_order)?))
}

/// CSR/CSC-style target: count children per outer coordinate, prefix-sum into
/// `B_pos`, then scatter (Figure 6c generalised to any supported source).
fn gen_to_compressed(
    source: FormatId,
    outer_var: &str,
    outer_extent: &str,
) -> Result<Vec<Stmt>, ConvertError> {
    let mut body = vec![comment("analysis: count nonzeros per output group")];
    body.push(alloc_int("count", var(outer_extent), true));
    body.extend(source_loops(
        source,
        vec![store_add("count", var(outer_var), int(1))],
    )?);
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
    let inner_var = if outer_var == "i" { "j" } else { "i" };
    body.extend(source_loops(
        source,
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
            store("B_vals", var("pB"), source_value(source)),
        ],
    )?);
    Ok(body)
}

/// COO target: append coordinates and values in source order.
fn gen_to_coo(source: FormatId) -> Result<Vec<Stmt>, ConvertError> {
    let mut body = vec![
        comment("assembly: append nonzeros in source order"),
        alloc_int("B1_crd", var("nnz"), false),
        alloc_int("B2_crd", var("nnz"), false),
        alloc_float("B_vals", var("nnz"), false),
        decl("q", int(0)),
    ];
    body.extend(source_loops(
        source,
        vec![
            store("B1_crd", var("q"), var("i")),
            store("B2_crd", var("q"), var("j")),
            store("B_vals", var("q"), source_value(source)),
            assign("q", add(var("q"), int(1))),
        ],
    )?);
    Ok(body)
}

/// DIA target (Figure 6a): the offset expression is lowered from the target
/// spec's remapping `(i,j) -> (j-i,i,j)` rather than hard-coded.
fn gen_to_dia(source: FormatId, spec: &FormatSpec) -> Result<Vec<Stmt>, ConvertError> {
    let src_vars = vec![("i".to_string(), "i"), ("j".to_string(), "j")];
    let offset_expr = lower_index_expr(&spec.remapping.dst[0].expr, &src_vars);
    let ndiag = sub(add(var("N"), var("M")), int(1));
    let shift = sub(var("N"), int(1));

    let mut body = vec![comment(
        "fused remapping + analysis: mark nonzero diagonals",
    )];
    body.push(alloc_int("nz", ndiag.clone(), true));
    body.extend(source_loops(
        source,
        vec![
            decl("k", offset_expr.clone()),
            store("nz", add(var("k"), shift.clone()), int(1)),
        ],
    )?);
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
    body.extend(source_loops(
        source,
        vec![
            decl("k", offset_expr),
            decl("pB1", load("rperm", add(var("k"), shift))),
            decl("pB2", add(mul(var("pB1"), var("N")), var("i"))),
            store("B_vals", var("pB2"), source_value(source)),
        ],
    )?);
    Ok(body)
}

/// ELL target (Figure 6b): the `#i` counter is a scalar for row-ordered
/// sources and a counter array otherwise (Section 4.2).
fn gen_to_ell(source: FormatId) -> Result<Vec<Stmt>, ConvertError> {
    let mut body = vec![comment("analysis: maximum number of nonzeros in any row")];
    body.push(alloc_int("count", var("N"), true));
    body.extend(source_loops(
        source,
        vec![store_add("count", var("i"), int(1))],
    )?);
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
    if crate::kernel_table::stock_facts(source).rows_in_order {
        // Scalar counter reset per row: re-emit the row loop directly.
        body.push(for_(
            "i",
            int(0),
            var("N"),
            vec![
                decl("c", int(0)),
                for_(
                    "p",
                    load("A_pos", var("i")),
                    load("A_pos", add(var("i"), int(1))),
                    vec![
                        decl("j", load("A_crd", var("p"))),
                        decl("pB", add(mul(var("c"), var("N")), var("i"))),
                        assign("c", add(var("c"), int(1))),
                        store("B_crd", var("pB"), var("j")),
                        store("B_vals", var("pB"), load("A_vals", var("p"))),
                    ],
                ),
            ],
        ));
    } else {
        body.push(alloc_int("counter", var("N"), true));
        body.extend(source_loops(
            source,
            vec![
                decl("c", load("counter", var("i"))),
                store_add("counter", var("i"), int(1)),
                decl("pB", add(mul(var("c"), var("N")), var("i"))),
                store("B_crd", var("pB"), var("j")),
                store("B_vals", var("pB"), source_value(source)),
            ],
        )?);
    }
    Ok(body)
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

/// COO3 → CSF: the paper's tensor sort-then-pack conversion, lowered to the
/// IR. The lexicographic sort is realised as three stable counting-sort
/// passes (least-significant dimension first), which is bit-identical to the
/// engine's stable comparison sort; the pack pass then opens a fresh fiber
/// at the first level whose coordinate changes.
fn gen_to_csf(source: FormatId) -> Result<Vec<Stmt>, ConvertError> {
    gen_to_csf_ordered(source, &[0, 1, 2])
}

/// COO3 → CSF along an arbitrary mode order: the same three-pass stable LSD
/// counting sort, keyed innermost-storage-dimension first on the *canonical*
/// buffers holding each storage dimension's mode, then the unchanged pack
/// pass over the storage-ordered arrays. The identity order reproduces
/// [`gen_to_csf`]'s canonical listing.
fn gen_to_csf_ordered(source: FormatId, order: &[usize; 3]) -> Result<Vec<Stmt>, ConvertError> {
    if source != FormatId::Coo3 {
        return Err(ConvertError::Unsupported(format!(
            "code generation does not support {source} sources for CSF targets yet"
        )));
    }
    // Canonical mode `m` lives in source buffer `A{m+1}_crd` (and the
    // working arrays suffixed with its index variable) with extent N/M/L.
    const SYM: [&str; 3] = ["i", "j", "k"];
    const EXTENT: [&str; 3] = ["N", "M", "L"];
    let mut body = vec![comment(&format!(
        "sort: LSD radix over ({}, {}, {}) = stable lexicographic order",
        SYM[order[2]], SYM[order[1]], SYM[order[0]],
    ))];
    body.extend(counting_sort_pass(
        1,
        &format!("A{}_crd", order[2] + 1),
        EXTENT[order[2]],
        ["A1_crd", "A2_crd", "A3_crd", "A_vals"],
        ["t1_i", "t1_j", "t1_k", "t1_v"],
    ));
    body.extend(counting_sort_pass(
        2,
        &format!("t1_{}", SYM[order[1]]),
        EXTENT[order[1]],
        ["t1_i", "t1_j", "t1_k", "t1_v"],
        ["t2_i", "t2_j", "t2_k", "t2_v"],
    ));
    body.extend(counting_sort_pass(
        3,
        &format!("t2_{}", SYM[order[0]]),
        EXTENT[order[0]],
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
            decl("i", load(&format!("s_{}", SYM[order[0]]), var("p"))),
            decl("j", load(&format!("s_{}", SYM[order[1]]), var("p"))),
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
                load(&format!("s_{}", SYM[order[2]]), var("p")),
            ),
            store("B_vals", var("p"), load("s_v", var("p"))),
            store("B3_pos", var("q2"), add(var("p"), int(1))),
        ],
    ));
    Ok(body)
}

/// CSF / COO3 → COO3: append coordinates and values in source order (the
/// order-3 analogue of [`gen_to_coo`]).
fn gen_to_coo3(source: FormatId) -> Result<Vec<Stmt>, ConvertError> {
    let mut body = vec![
        comment("assembly: append nonzeros in source order"),
        alloc_int("B1_crd", var("nnz"), false),
        alloc_int("B2_crd", var("nnz"), false),
        alloc_int("B3_crd", var("nnz"), false),
        alloc_float("B_vals", var("nnz"), false),
        decl("q", int(0)),
    ];
    body.extend(source_loops(
        source,
        vec![
            store("B1_crd", var("q"), var("i")),
            store("B2_crd", var("q"), var("j")),
            store("B3_crd", var("q"), var("k")),
            store("B_vals", var("q"), source_value(source)),
            assign("q", add(var("q"), int(1))),
        ],
    )?);
    Ok(body)
}

/// Executes a generated routine on an actual matrix and reconstructs the
/// target container from the output buffers.
///
/// # Errors
///
/// Returns an error when the pair is unsupported, the source container does
/// not match `source`, or the generated code fails to execute.
pub fn execute(src: &AnyTensor, target: FormatId) -> Result<AnyTensor, ConvertError> {
    let source = src.format().id().ok_or_else(|| {
        ConvertError::Unsupported(format!(
            "code generation covers stock format pairs; {} is a registry \
             format (use the dynamic driver)",
            src.format()
        ))
    })?;
    let function = generate(source, target)?;
    let mut interp = Interpreter::new();
    let shape = src.shape();
    if matches!(src, AnyTensor::Coo3(_) | AnyTensor::Csf(_)) && shape.order() != 3 {
        return Err(ConvertError::Unsupported(format!(
            "code generation supports order-3 tensor sources only, got order {}",
            shape.order()
        )));
    }
    interp.insert_int("N", shape.dim(0) as i64);
    interp.insert_int("M", shape.dim(1) as i64);
    if shape.order() > 2 {
        interp.insert_int("L", shape.dim(2) as i64);
    }
    interp.insert_int("nnz", src.nnz() as i64);
    match src {
        AnyTensor::Coo(m) => {
            interp.insert_buffer(
                "A1_crd",
                Buffer::Ints(m.row_indices().iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A2_crd",
                Buffer::Ints(m.col_indices().iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer("A_vals", Buffer::Floats(m.values().to_vec()));
        }
        AnyTensor::Csr(m) => {
            interp.insert_buffer(
                "A_pos",
                Buffer::Ints(m.pos().iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A_crd",
                Buffer::Ints(m.crd().iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer("A_vals", Buffer::Floats(m.values().to_vec()));
        }
        AnyTensor::Csc(m) => {
            interp.insert_buffer(
                "A_pos",
                Buffer::Ints(m.pos().iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A_crd",
                Buffer::Ints(m.crd().iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer("A_vals", Buffer::Floats(m.values().to_vec()));
        }
        AnyTensor::Coo3(t) => {
            for (d, name) in ["A1_crd", "A2_crd", "A3_crd"].into_iter().enumerate() {
                interp.insert_buffer(
                    name,
                    Buffer::Ints(t.crd(d).iter().map(|&x| x as i64).collect()),
                );
            }
            interp.insert_buffer("A_vals", Buffer::Floats(t.values().to_vec()));
        }
        AnyTensor::Csf(t) => {
            interp.insert_int("R1", t.num_fibers(0) as i64);
            interp.insert_buffer(
                "A1_crd",
                Buffer::Ints(t.crd(0).iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A2_pos",
                Buffer::Ints(t.pos(0).iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A2_crd",
                Buffer::Ints(t.crd(1).iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A3_pos",
                Buffer::Ints(t.pos(1).iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer(
                "A3_crd",
                Buffer::Ints(t.crd(2).iter().map(|&x| x as i64).collect()),
            );
            interp.insert_buffer("A_vals", Buffer::Floats(t.values().to_vec()));
        }
        other => {
            return Err(ConvertError::Unsupported(format!(
                "code generation does not support {} sources yet",
                other.format()
            )))
        }
    }
    interp.run(&function)?;

    let rows = src.rows();
    let cols = src.cols();
    let ints = |interp: &Interpreter, name: &str| -> Vec<usize> {
        interp
            .buffer(name)
            .expect("generated buffer")
            .as_ints()
            .iter()
            .map(|&x| x as usize)
            .collect()
    };
    let floats = |interp: &Interpreter, name: &str| -> Vec<f64> {
        interp
            .buffer(name)
            .expect("generated buffer")
            .as_floats()
            .to_vec()
    };
    Ok(match target {
        FormatId::Csr => AnyTensor::Csr(CsrMatrix::from_parts(
            rows,
            cols,
            ints(&interp, "B_pos"),
            ints(&interp, "B_crd"),
            floats(&interp, "B_vals"),
        )?),
        FormatId::Csc => AnyTensor::Csc(CscMatrix::from_parts(
            rows,
            cols,
            ints(&interp, "B_pos"),
            ints(&interp, "B_crd"),
            floats(&interp, "B_vals"),
        )?),
        FormatId::Coo => AnyTensor::Coo(CooMatrix::from_parts(
            rows,
            cols,
            ints(&interp, "B1_crd"),
            ints(&interp, "B2_crd"),
            floats(&interp, "B_vals"),
        )?),
        FormatId::Dia => {
            let k = interp.int("K").expect("generated scalar K") as usize;
            let perm_full = interp.buffer("B_perm").expect("generated buffer").as_ints();
            let offsets: Vec<i64> = perm_full[..k].to_vec();
            AnyTensor::Dia(DiaMatrix::from_parts(
                rows,
                cols,
                offsets,
                floats(&interp, "B_vals"),
            )?)
        }
        FormatId::Ell => {
            let k = interp.int("K").expect("generated scalar K") as usize;
            AnyTensor::Ell(EllMatrix::from_parts(
                rows,
                cols,
                k,
                ints(&interp, "B_crd"),
                floats(&interp, "B_vals"),
            )?)
        }
        FormatId::Csf => {
            let q1 = interp.int("q1").expect("generated scalar q1") as usize;
            let q2 = interp.int("q2").expect("generated scalar q2") as usize;
            let nnz = src.nnz();
            AnyTensor::Csf(CsfTensor::from_parts(
                shape,
                vec![
                    ints(&interp, "B1_crd")[..q1].to_vec(),
                    ints(&interp, "B2_crd")[..q2].to_vec(),
                    ints(&interp, "B3_crd")[..nnz].to_vec(),
                ],
                vec![
                    ints(&interp, "B2_pos")[..q1 + 1].to_vec(),
                    ints(&interp, "B3_pos")[..q2 + 1].to_vec(),
                ],
                floats(&interp, "B_vals")[..nnz].to_vec(),
            )?)
        }
        FormatId::Coo3 => AnyTensor::Coo3(CooTensor::from_parts(
            shape,
            vec![
                ints(&interp, "B1_crd"),
                ints(&interp, "B2_crd"),
                ints(&interp, "B3_crd"),
            ],
            floats(&interp, "B_vals"),
        )?),
        other => {
            return Err(ConvertError::Unsupported(format!(
                "code generation does not support {other} targets yet"
            )))
        }
    })
}

/// Executes a generated routine for any [`Format`] target: stock targets
/// dispatch through [`execute`]; mode-ordered CSF registry targets run the
/// counting-sort lowering and wrap the packed fiber tree exactly as the
/// dynamic driver assembles it, so all three execution paths stay
/// byte-comparable.
///
/// # Errors
///
/// Returns [`ConvertError::Unsupported`] for registry targets that are not
/// mode-ordered CSF, for non-COO3 sources of mode-ordered targets, and for
/// duplicate coordinates (which the dynamic driver also rejects).
pub fn execute_format(src: &AnyTensor, target: &Format) -> Result<AnyTensor, ConvertError> {
    if let Some(id) = target.id() {
        return execute(src, id);
    }
    let spec = target
        .spec()
        .expect("non-stock formats always carry a spec");
    let Some(order) = crate::mode::mode_order_of(spec) else {
        return Err(ConvertError::Unsupported(format!(
            "code generation covers stock formats and mode-ordered CSF; {target} \
             is a general registry format (use the dynamic driver)"
        )));
    };
    let AnyTensor::Coo3(t) = src else {
        return Err(ConvertError::Unsupported(format!(
            "code generation supports COO3 sources for mode-ordered CSF targets, got {}",
            src.format()
        )));
    };
    if t.order() != 3 || order.len() != 3 {
        return Err(ConvertError::Unsupported(format!(
            "mode-ordered code generation is order-3 only (source order {}, \
             {} storage levels)",
            t.order(),
            order.len()
        )));
    }
    let mode_order = [order[0], order[1], order[2]];
    let function = generate_csf_ordered(FormatId::Coo3, &mode_order)?;
    let mut interp = Interpreter::new();
    let shape = t.shape();
    interp.insert_int("N", shape.dim(0) as i64);
    interp.insert_int("M", shape.dim(1) as i64);
    interp.insert_int("L", shape.dim(2) as i64);
    interp.insert_int("nnz", t.nnz() as i64);
    for (d, name) in ["A1_crd", "A2_crd", "A3_crd"].into_iter().enumerate() {
        interp.insert_buffer(
            name,
            Buffer::Ints(t.crd(d).iter().map(|&x| x as i64).collect()),
        );
    }
    interp.insert_buffer("A_vals", Buffer::Floats(t.values().to_vec()));
    interp.run(&function)?;
    let ints = |name: &str| -> Vec<usize> {
        interp
            .buffer(name)
            .expect("generated buffer")
            .as_ints()
            .iter()
            .map(|&x| x as usize)
            .collect()
    };
    let q1 = interp.int("q1").expect("generated scalar q1") as usize;
    let q2 = interp.int("q2").expect("generated scalar q2") as usize;
    let nnz = t.nnz();
    let packed_shape =
        sparse_tensor::Shape::new(mode_order.iter().map(|&m| shape.dim(m)).collect());
    let csf = CsfTensor::from_parts(
        packed_shape,
        vec![
            ints("B1_crd")[..q1].to_vec(),
            ints("B2_crd")[..q2].to_vec(),
            ints("B3_crd")[..nnz].to_vec(),
        ],
        vec![
            ints("B2_pos")[..q1 + 1].to_vec(),
            ints("B3_pos")[..q2 + 1].to_vec(),
        ],
        interp
            .buffer("B_vals")
            .expect("generated buffer")
            .as_floats()[..nnz]
            .to_vec(),
    )?;
    Ok(AnyTensor::Custom(Box::new(crate::mode::custom_from_csf(
        spec, &order, &csf,
    )?)))
}

/// The (source, target) pairs the code generator covers, including the seven
/// pairs evaluated in Table 3.
pub fn supported_pairs() -> Vec<(FormatId, FormatId)> {
    let sources = [FormatId::Coo, FormatId::Csr, FormatId::Csc];
    let targets = [
        FormatId::Coo,
        FormatId::Csr,
        FormatId::Csc,
        FormatId::Dia,
        FormatId::Ell,
    ];
    let mut out = Vec::new();
    for s in sources {
        for t in targets {
            if s != t {
                out.push((s, t));
            }
        }
    }
    out
}

/// The order-3 (source, target) pairs the code generator covers (the
/// paper's tensor sorting/packing conversions).
pub fn supported_tensor_pairs() -> Vec<(FormatId, FormatId)> {
    vec![
        (FormatId::Coo3, FormatId::Csf),
        (FormatId::Csf, FormatId::Coo3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use sparse_formats::CooMatrix;
    use sparse_tensor::example::figure1_matrix;

    #[test]
    fn generated_listings_have_figure6_structure() {
        let csr_dia = listing(FormatId::Csr, FormatId::Dia).unwrap();
        assert!(csr_dia.contains("convert_csr_to_dia"));
        // The DIA offset expression comes from the remapping (j - i).
        assert!(csr_dia.contains("(j - i)"), "listing:\n{csr_dia}");
        assert!(csr_dia.contains("calloc"));
        assert!(csr_dia.contains("rperm"));

        let csr_ell = listing(FormatId::Csr, FormatId::Ell).unwrap();
        assert!(csr_ell.contains("max(K, count[r])"));
        // Scalar counter for the row-ordered CSR source.
        assert!(csr_ell.contains("int c = 0;"), "listing:\n{csr_ell}");

        let coo_ell = listing(FormatId::Coo, FormatId::Ell).unwrap();
        // Counter array for the unordered COO source.
        assert!(coo_ell.contains("counter"), "listing:\n{coo_ell}");

        let coo_csr = listing(FormatId::Coo, FormatId::Csr).unwrap();
        assert!(coo_csr.contains("B_pos"));
        assert!(coo_csr.contains("count"));
    }

    #[test]
    fn generated_code_matches_engine_for_all_supported_pairs() {
        let t = figure1_matrix();
        for (source, target) in supported_pairs() {
            let src = AnyTensor::from_triples(&t, source).unwrap();
            let generated = execute(&src, target).unwrap();
            let engine_result = convert(&src, target).unwrap();
            assert_eq!(
                generated, engine_result,
                "generated code disagrees with the engine for {source} -> {target}"
            );
        }
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
        for target in [FormatId::Csr, FormatId::Dia, FormatId::Ell, FormatId::Csc] {
            let generated = execute(&src, target).unwrap();
            assert!(generated.to_triples().same_values(&t), "target {target}");
        }
    }

    #[test]
    fn generated_tensor_code_matches_engine() {
        let t = sparse_tensor::example::example3_tensor();
        for (source, target) in supported_tensor_pairs() {
            let src = AnyTensor::from_triples(&t, source).unwrap();
            let generated = execute(&src, target).unwrap();
            let engine_result = convert(&src, target).unwrap();
            assert_eq!(
                generated, engine_result,
                "generated code disagrees with the engine for {source} -> {target}"
            );
        }
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
        let generated = execute(&src, FormatId::Csf).unwrap();
        // The counting-sort lowering must match the engine's stable sort on
        // the same (shuffled) input, bit for bit.
        assert_eq!(generated, AnyTensor::Csf(crate::engine::to_csf(&coo)));
        assert!(generated.to_triples().same_values(&t));
    }

    #[test]
    fn tensor_listings_have_sort_and_pack_phases() {
        let listing = listing(FormatId::Coo3, FormatId::Csf).unwrap();
        assert!(listing.contains("convert_coo3_to_csf"));
        assert!(listing.contains("stable counting sort"), "{listing}");
        assert!(listing.contains("B2_pos"), "{listing}");
        assert!(listing.contains("B3_pos"), "{listing}");
    }

    #[test]
    fn mixed_order_pairs_are_rejected() {
        assert!(generate(FormatId::Coo3, FormatId::Csr).is_err());
        assert!(generate(FormatId::Csr, FormatId::Csf).is_err());
        assert!(generate(FormatId::Csf, FormatId::Csf).is_err());
        // An order-2 CSF container cannot drive the order-3 generated code.
        let m = figure1_matrix();
        let dcsr = convert(&AnyTensor::Coo(CooMatrix::from_triples(&m)), FormatId::Csf).unwrap();
        assert!(execute(&dcsr, FormatId::Coo3).is_err());
    }

    #[test]
    fn unsupported_pairs_are_reported() {
        assert!(generate(FormatId::Dia, FormatId::Csr).is_err());
        assert!(generate(FormatId::Csr, FormatId::Jad).is_err());
        let t = figure1_matrix();
        let dia = AnyTensor::from_triples(&t, FormatId::Dia).unwrap();
        assert!(execute(&dia, FormatId::Csr).is_err());
    }

    #[test]
    fn statement_counts_are_reasonable() {
        // The generated CSR->DIA routine should be in the same ballpark as
        // Figure 6a (28 lines), not an order of magnitude larger.
        let f = generate(FormatId::Csr, FormatId::Dia).unwrap();
        assert!(f.statement_count() < 60, "got {}", f.statement_count());
    }
}
