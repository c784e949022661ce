//! The kernel table: every conversion routine and every per-format fact,
//! declared once and read by every layer.
//!
//! [`KERNELS`] holds one [`KernelRow`] per routine — which sources and
//! targets it serves, the function that runs it, and whether it partitions
//! across threads. [`convert_with`](crate::convert_with) dispatches through
//! it, the conversion service reads `parallel` off the row that ran, and the
//! planner grants its parallel credit to exactly the flagged rows. Rows are
//! matched top to bottom and the first match wins, so a specialised kernel
//! sits above the general routine it shadows.
//!
//! [`facts`] answers with a format's [`FormatFacts`] — what the planner's cost
//! model and admissibility filter, the service's via-COO label and the
//! streaming classifier need to know about it: the row of the
//! [stock table](crate::stock::STOCK) for a stock format, a row derived from
//! the spec for a registry format.
//!
//! Adding a kernel is one row in [`KERNELS`] (plus the function it names,
//! when the routine does not fit the row); `tests/kernel_table.rs` iterates
//! the table, so the new row is checked for thread-count invariance,
//! round-tripping and consumer agreement without an edit anywhere else.

use sparse_formats::CsfTensor;

use crate::convert::{with_source, AnyTensor};
use crate::error::ConvertError;
use crate::format::Format;
use crate::stock::{FormatId, STOCK};
use crate::{engine, generic, kernels, mode};

/// The signature every conversion routine is called through: the source,
/// the target handle, and the worker threads it may use (`1` = sequential).
pub type KernelFn = fn(&AnyTensor, &Format, usize) -> Result<AnyTensor, ConvertError>;

/// Which formats one side (source or target) of a [`KernelRow`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pattern {
    /// Exactly this (non-parametric) stock format.
    Is(FormatId),
    /// BCSR with any block shape.
    Bcsr,
    /// Any stock matrix format (as a source, DOK included).
    Matrix,
    /// The rank-N containers (COO3, CSF), at any order.
    Tensor,
    /// A registry `CSF@perm` target whose mode order covers the source's
    /// order.
    OrderedCsf,
    /// Any registry (user-defined) format.
    Registry,
    /// Anything.
    Any,
}

impl Pattern {
    /// `ordered_csf` says whether the format is a `CSF@perm` covering the
    /// source's order (only ever true for registry targets).
    fn matches(self, id: Option<FormatId>, ordered_csf: bool) -> bool {
        let tensor = matches!(id, Some(FormatId::Coo3 | FormatId::Csf));
        match self {
            Pattern::Is(want) => id == Some(want),
            Pattern::Bcsr => matches!(id, Some(FormatId::Bcsr { .. })),
            Pattern::Matrix => id.is_some() && !tensor,
            Pattern::Tensor => tensor,
            Pattern::OrderedCsf => ordered_csf,
            Pattern::Registry => id.is_none(),
            Pattern::Any => true,
        }
    }
}

/// One conversion routine.
#[derive(Debug)]
pub struct KernelRow {
    /// Stable row name (what tests and reports print).
    pub name: &'static str,
    /// Sources the routine serves.
    pub(crate) source: Pattern,
    /// Targets the routine serves.
    pub(crate) target: Pattern,
    /// True when `run` partitions across threads at `threads > 1`; every
    /// routine is byte-identical at every thread count either way.
    pub parallel: bool,
    /// The routine. Only called with a source and target the patterns
    /// matched.
    pub run: KernelFn,
}

const fn row(
    name: &'static str,
    source: Pattern,
    target: Pattern,
    parallel: bool,
    run: KernelFn,
) -> KernelRow {
    KernelRow {
        name,
        source,
        target,
        parallel,
        run,
    }
}

use FormatId::{Coo, Coo3, Csc, Csf, Csr, Dia, Ell, Jad, Skyline};
use Pattern::{Any, Bcsr, Is, Matrix, OrderedCsf, Registry, Tensor};

/// The table, matched top to bottom. One-line routines are written in their
/// row; the longer ones are the functions at the end of this file.
#[rustfmt::skip]
pub static KERNELS: &[KernelRow] = &[
    // Registry-format sources lower through their level read-back.
    row("custom-lower", Registry, Any, false, lower_and_redispatch),
    // Pairs whose source cuts into chunks: the routine gets the threads.
    row("coo-csr", Is(Coo), Is(Csr), true,
        |src, _, threads| Ok(AnyTensor::Csr(engine::to_csr(source_as!(src, Coo), threads)?))),
    row("csr-csc", Is(Csr), Is(Csc), true,
        |src, _, threads| Ok(AnyTensor::Csc(engine::to_csc(source_as!(src, Csr), threads)?))),
    row("csr-bcsr", Is(Csr), Bcsr, true, to_bcsr),
    row("coo3-csf", Is(Coo3), Is(Csf), true,
        |src, _, threads| Ok(AnyTensor::Csf(kernels::coo_to_csf(source_as!(src, Coo3), threads)?))),
    row("coo3-csf-ordered", Is(Coo3), OrderedCsf, true, |src, target, threads| ordered(target,
        |order| kernels::coo_to_csf_ordered(source_as!(src, Coo3), order, threads))),
    // Rank-N containers on the rank-generic engine routines.
    row("tensor-coo3", Tensor, Is(Coo3), false, tensor_to_coo3),
    row("tensor-csf", Tensor, Is(Csf), false,
        |src, _, _| Ok(AnyTensor::Csf(with_tensor!(src, t => engine::to_csf(t))))),
    row("tensor-csf-ordered", Tensor, OrderedCsf, false,
        |src, target, _| ordered(target, |order| Ok(with_tensor!(src, t => engine::to_csf_ordered(t, order))))),
    row("tensor-lower", Tensor, Matrix, false, lower_order2_tensor),
    // Matrix containers on the monomorphised engine, at one chunk.
    row("matrix-coo", Matrix, Is(Coo), false,
        |src, _, _| Ok(AnyTensor::Coo(with_source!(src, m => engine::to_coo(m))))),
    row("matrix-csr", Matrix, Is(Csr), false,
        |src, _, _| Ok(AnyTensor::Csr(with_source!(src, m => engine::to_csr(m, 1))?))),
    row("matrix-csc", Matrix, Is(Csc), false,
        |src, _, _| Ok(AnyTensor::Csc(with_source!(src, m => engine::to_csc(m, 1))?))),
    row("matrix-dia", Matrix, Is(Dia), false,
        |src, _, _| Ok(AnyTensor::Dia(with_source!(src, m => engine::to_dia(m))?))),
    row("matrix-ell", Matrix, Is(Ell), false,
        |src, _, _| Ok(AnyTensor::Ell(with_source!(src, m => engine::to_ell(m))?))),
    row("matrix-bcsr", Matrix, Bcsr, false, |src, target, _| to_bcsr(src, target, 1)),
    row("matrix-skyline", Matrix, Is(Skyline), false,
        |src, _, _| Ok(AnyTensor::Skyline(with_source!(src, m => engine::to_skyline(m))?))),
    row("matrix-jad", Matrix, Is(Jad), false,
        |src, _, _| Ok(AnyTensor::Jad(with_source!(src, m => engine::to_jad(m))))),
    // An order-2 source packs into CSF as DCSR.
    row("matrix-csf", Matrix, Is(Csf), false,
        |src, _, _| Ok(AnyTensor::Csf(with_source!(src, m => engine::matrix_to_csf(m, &[0, 1]))?))),
    row("matrix-csf-ordered", Matrix, OrderedCsf, false,
        |src, target, _| ordered(target, |order| with_source!(src, m => engine::matrix_to_csf(m, order)))),
    // Every other registry target assembles on the spec-driven driver.
    row("generic", Any, Registry, false, generic_driver),
];

fn find(id: Option<FormatId>, order: usize, target: &Format) -> Option<&'static KernelRow> {
    // DOK has no coordinate hierarchy: a conversion source only.
    target.spec()?;
    let target_id = target.tag();
    let ordered_csf = target_id.is_none() && target.mode_order().is_some_and(|o| o.len() == order);
    KERNELS
        .iter()
        .find(|row| row.source.matches(id, false) && row.target.matches(target_id, ordered_csf))
}

/// The row that converts `src` to `target`, or `None` when no routine can
/// (DOK targets, rank mismatches between stock containers).
pub fn lookup(src: &AnyTensor, target: &Format) -> Option<&'static KernelRow> {
    find(src.tag(), src.order(), target)
}

/// [`lookup`] for a format *pair* (what the planner prices): the row a
/// source stored as `source`, at that format's specification order, runs.
pub fn lookup_formats(source: &Format, target: &Format) -> Option<&'static KernelRow> {
    find(source.tag(), source.order(), target)
}

/// How a target's stored bytes depend on the order its nonzeros arrive in;
/// also the unit way-point safety is stated in ([`FormatFacts::way_point`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sensitivity {
    /// Assembly canonicalises (sorts or scatters by coordinate).
    Insensitive,
    /// Only the relative order of nonzeros *within a row* matters.
    RowOrder,
    /// Only the relative order of nonzeros *within a column* matters.
    ColumnOrder,
    /// The full iteration order is stored verbatim.
    Full,
}

/// Whether (and how) a format stores explicit zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// Only nonzeros are stored.
    None,
    /// Every row is padded to the longest row (ELL), so assembly writes
    /// `rows × max nnz per row` entries.
    ToLongestRow,
    /// Structural padding (DIA diagonals, BCSR blocks, the skyline profile).
    Structural,
}

/// How a streamed conversion keys its external sort for a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKey {
    /// By row alone, then count/prefix/fill (CSR; order-2 streams only).
    Rows,
    /// By every mode in storage order, then pack fibers (CSF, `CSF@perm`).
    Modes,
}

/// What the planner, the service and the streaming path know about a format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatFacts {
    /// Per-entry assembly weight as a target, relative to a plain
    /// coordinate write (infinite: not a target).
    pub assembly_weight: f64,
    /// Factor on the weight when the feeding source does not iterate rows in
    /// order. BCSR's 1.8 was measured on the sort-based routine; its counting
    /// order pays 0.97–1.06× at 16 k nnz and ≈ 1.65× at 512 k (one thread).
    pub unsorted_feed_penalty: f64,
    /// What the stored bytes depend on when the format is a target.
    pub sensitivity: Sensitivity,
    /// `Some(s)` when the format may be a route way-point: a hop through it
    /// keeps every order a target of sensitivity `s` (or less) depends on —
    /// COO replays its input (`Full`), CSR stably groups by row
    /// (`RowOrder`), CSF sorts (`Insensitive`).
    pub way_point: Option<Sensitivity>,
    /// Explicit zeros a conversion pass re-scans when the format is a
    /// source.
    pub padding: Padding,
    /// The format's storage groups nonzeros by row, rows ascending.
    pub rows_in_order: bool,
    /// How `convert_stream` sorts for this target; `None` materialises.
    pub stream_key: Option<StreamKey>,
}

impl FormatFacts {
    /// True for way-points that replay their input's iteration exactly.
    pub fn replays(&self) -> bool {
        self.way_point == Some(Sensitivity::Full)
    }

    /// Whether a hop through this format leaves a target of the given
    /// sensitivity byte-identical to its direct conversion.
    pub fn admissible_before(&self, target: Sensitivity) -> bool {
        self.way_point.is_some_and(|kept| {
            kept == Sensitivity::Full || target == Sensitivity::Insensitive || kept == target
        })
    }
}

/// The facts row of any format handle: a stock format's is its
/// [stock table](crate::stock::STOCK) row's. A registry format's row derives
/// from its specification: the generic driver sorts exactly when the level chain
/// needs prefix grouping (heavier assembly, but the input order cannot leak
/// into the bytes), and `CSF@perm` formats stream like CSF.
pub fn facts(format: &Format) -> FormatFacts {
    if let Some(row) = format.id() {
        return row.facts;
    }
    let spec = format.spec().expect("registry formats carry a spec");
    let sorts = generic::needs_prefix_grouping(&spec.levels);
    FormatFacts {
        assembly_weight: if sorts { 3.5 } else { 2.5 },
        unsorted_feed_penalty: 1.0,
        sensitivity: if sorts {
            Sensitivity::Insensitive
        } else {
            Sensitivity::Full
        },
        way_point: None,
        padding: Padding::None,
        rows_in_order: false,
        stream_key: mode::mode_order_of(spec).map(|_| StreamKey::Modes),
    }
}

/// The stock formats of the given order that may serve as route way-points.
pub fn way_points(order: usize) -> impl Iterator<Item = Format> {
    STOCK
        .iter()
        .filter(|row| row.facts.way_point.is_some())
        .map(|row| row.format())
        .filter(move |format| format.order() == order)
}

// ---- the routines too long for their row ----

type KernelResult = Result<AnyTensor, ConvertError>;

/// Unwraps the one container variant an `Is(..)` source pattern matched.
macro_rules! source_as {
    ($src:expr, $variant:ident) => {
        match $src {
            AnyTensor::$variant(inner) => inner,
            other => unreachable!("row matched a {} source", other.format()),
        }
    };
}
use source_as;

/// Applies a closure to a rank-N container as a `SourceTensor`.
macro_rules! with_tensor {
    ($src:expr, $t:ident => $body:expr) => {
        match $src {
            AnyTensor::Coo3($t) => $body,
            AnyTensor::Csf($t) => $body,
            other => unreachable!("row matched a {} source", other.format()),
        }
    };
}
use with_tensor;

fn to_bcsr(src: &AnyTensor, target: &Format, threads: usize) -> KernelResult {
    let shape = target.tag().and_then(FormatId::block_shape);
    let (rows, cols) = shape.expect("row matched a BCSR target");
    Ok(AnyTensor::Bcsr(match src {
        AnyTensor::Csr(csr) if threads > 1 => kernels::csr_to_bcsr(csr, rows, cols, threads)?,
        _ => with_source!(src, m => engine::to_bcsr(m, rows, cols))?,
    }))
}

/// Builds the fiber tree of a `CSF@perm` target along its mode order and
/// wraps it into the `CustomTensor` the generic driver would assemble, byte
/// for byte (the driver's stable sort of remapped tuples and the stable
/// lexicographic sort of permuted columns order the nonzeros identically).
fn ordered(
    target: &Format,
    build: impl FnOnce(&[usize]) -> Result<CsfTensor, ConvertError>,
) -> KernelResult {
    let order = target.mode_order().expect("row matched a CSF@perm");
    let spec = target.spec().expect("registry formats carry a spec");
    let custom = mode::custom_from_csf(spec, &order, build(&order)?)?;
    Ok(AnyTensor::Custom(Box::new(custom)))
}

fn tensor_to_coo3(src: &AnyTensor, _: &Format, _: usize) -> KernelResult {
    if src.order() != 3 {
        return Err(ConvertError::Unsupported(format!(
            "COO3 targets require an order-3 source, got order-{} {}",
            src.order(),
            src.format()
        )));
    }
    Ok(AnyTensor::Coo3(
        with_tensor!(src, t => engine::tensor_to_coo(t)),
    ))
}

/// Lowers `src` through canonical triples to the coordinate container
/// holding its nonzeros, then re-dispatches (sequentially). This is what
/// makes a builder-made format a valid conversion *source*.
fn lower_and_redispatch(src: &AnyTensor, target: &Format, _: usize) -> KernelResult {
    AnyTensor::from_triples(&src.try_to_triples()?, target)
}

/// An *order-2* tensor container (the DCSR an order-2 matrix packs into CSF
/// as) lowers the same way, so matrix → CSF → matrix round-trips; higher
/// orders have no matrix representation.
fn lower_order2_tensor(src: &AnyTensor, target: &Format, threads: usize) -> KernelResult {
    if src.order() != 2 {
        return Err(ConvertError::Unsupported(format!(
            "{target} targets cannot represent an order-{} {} source",
            src.order(),
            src.format()
        )));
    }
    lower_and_redispatch(src, target, threads)
}

/// Registry targets assemble through the dynamic spec-driven driver.
fn generic_driver(src: &AnyTensor, target: &Format, _: usize) -> KernelResult {
    let spec = target.spec().expect("registry formats carry a spec");
    let custom = generic::convert_with_spec(src, spec)?;
    Ok(AnyTensor::Custom(Box::new(custom)))
}
