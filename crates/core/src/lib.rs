//! The conversion-routine generator: the paper's primary contribution.
//!
//! `sparse-conv` combines the three per-format specification languages —
//! coordinate remappings ([`remap`], §4), attribute queries ([`query`], §5)
//! and the assembly abstract interface ([`levels`], §6) — into conversion
//! routines between arbitrary pairs of supported formats:
//!
//! * [`spec`] — [`FormatSpec`]s describing every supported format by its
//!   remapping, level composition, and required attribute queries (one spec
//!   per format, *not* per pair).
//! * [`plan`] — the conversion planner: given a source and target spec it
//!   decides phase fusion, sequenced vs. unsequenced edge insertion, and
//!   scalar vs. array counters (Sections 3, 4.2, 6.2).
//! * [`engine`] — monomorphised conversion kernels, the runtime analogue of
//!   the specialised C code taco emits (Figure 6); this is the path the
//!   benchmarks measure. One routine per target, run over a schedule.
//! * [`partition`] — the schedule: the one fork-join, the analyse → merge →
//!   assemble skeleton every chunked routine runs in, and the chunk helpers.
//! * [`kernels`] — the one bespoke kernel (radix-sorted COO→CSF), on the same
//!   primitives.
//! * [`tunables`] — the kernels' measured thresholds, in one place.
//! * [`kernel_table`] — the one table naming every conversion routine
//!   (which pairs it serves, whether it is parallel) and every per-format
//!   fact the planner, the service and the streaming path read.
//! * [`codegen`] — lowers a conversion plan to executable [`ir`] routines
//!   and C-like listings structurally comparable to Figure 6.
//! * [`ir`] — the imperative IR generated routines are written in: builder,
//!   printer, simplifier, and the checked Rust every served routine is
//!   compiled to (a test-only interpreter is its reference).
//! * [`planner`] — multi-hop route planning: formats as nodes, kernel-table
//!   rows as edges priced from [`TensorAttrs`](planner::TensorAttrs).
//! * [`generic`] — a fully dynamic converter driven by [`FormatSpec`]s and
//!   trait objects, used for user-defined custom formats.
//! * [`format`](mod@format) — the spec-first public surface: [`Format`]
//!   handles — the one way to name a format — interned in the
//!   [`FormatRegistry`], with [`Format::builder`] for user-defined formats.
//! * [`stock`] — the one table declaring every built-in format (name,
//!   aliases, specification, facts).
//! * [`convert`](mod@convert) — the public entry points ([`convert`](convert::convert),
//!   [`convert_with`], [`AnyTensor`]), dispatching through the kernel table.
//!
//! # Quickstart
//!
//! ```
//! use sparse_conv::prelude::*;
//! use sparse_formats::CooMatrix;
//! use sparse_tensor::example::figure1_matrix;
//!
//! let coo = AnyTensor::Coo(CooMatrix::from_triples(&figure1_matrix()));
//!
//! // Stock formats are registry presets with `Format` constructors...
//! let dia = convert(&coo, Format::dia())?;
//! assert_eq!(dia.format(), Format::dia());
//! assert!(dia.to_triples().same_values(&figure1_matrix()));
//!
//! // ...and user-defined formats, built from a spec alone, convert in both
//! // directions through exactly the same entry point.
//! let dcsr = Format::builder("DCSR-quickstart")
//!     .remap_str("(i,j) -> (i,j)")?
//!     .dims(["i", "j"])
//!     .levels([LevelKind::Compressed, LevelKind::Compressed])
//!     .build()?;
//! let packed = convert(&coo, &dcsr)?;
//! assert_eq!(packed.format(), dcsr);
//! let back = convert(&packed, Format::csr())?;
//! assert!(back.to_triples().same_values(&figure1_matrix()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod convert;
pub mod engine;
pub mod error;
pub mod format;
pub mod generic;
pub mod ir;
pub mod kernel_table;
pub mod kernels;
pub mod levels;
pub mod mode;
pub mod partition;
pub mod plan;
pub mod planner;
pub mod query;
pub mod remap;
pub mod select;
pub mod source;
pub mod spec;
pub mod stock;
pub mod tunables;

pub use convert::{convert, convert_with, plan_for_formats, AnyTensor};
pub use error::ConvertError;
pub use format::{Format, FormatBuilder, FormatRegistry, ParseFormatError};
pub use plan::ConversionPlan;
pub use select::{auto_select, TensorProfile};
pub use source::{SourceMatrix, SourceTensor};
pub use spec::FormatSpec;

/// One-stop import of the spec-first public surface.
///
/// ```
/// use sparse_conv::prelude::*;
/// ```
pub mod prelude {
    pub use crate::convert::{convert, plan_for, plan_for_formats, AnyTensor};
    pub use crate::error::ConvertError;
    pub use crate::format::{Format, FormatBuilder, FormatRegistry};
    pub use crate::select::{auto_select, TensorProfile};
    pub use crate::spec::FormatSpec;
    // The vocabulary user-defined specs are composed from.
    pub use crate::levels::LevelKind;
    pub use crate::remap::{parse_remapping, Remapping};
}

// Unit tests of `remap`, `query`, `levels`, `ir` and `planner` live beside
// their modules in `*_tests.rs` files and are mounted here, at the crate root,
// so that each keeps the short name it is tracked under (`interp::tests::…`,
// not `ir::interp::tests::…`). Where `remap` and `query` share a file name
// (`ast`, `eval`, `parser`), `remap` holds the short name and `query`'s tests
// stay inside their module.
#[cfg(test)]
macro_rules! mount_tests {
    ($($name:ident: $path:literal,)*) => {
        $(#[path = $path] mod $name;)*
    };
}
#[cfg(test)]
mount_tests! {
    assembler: "levels/assembler_tests.rs",
    ast: "remap/ast_tests.rs",
    banded: "levels/banded_tests.rs",
    bounds: "remap/bounds_tests.rs",
    build: "ir/build_tests.rs",
    checked: "ir/checked_tests.rs",
    compressed: "levels/compressed_tests.rs",
    cost: "planner/cost_tests.rs",
    dense: "levels/dense_tests.rs",
    emit: "ir/emit_tests.rs",
    eval: "remap/eval_tests.rs",
    expr: "ir/expr_tests.rs",
    graph: "planner/graph_tests.rs",
    hashed: "levels/hashed_tests.rs",
    interp: "ir/interp_tests.rs",
    invert: "remap/invert_tests.rs",
    parser: "remap/parser_tests.rs",
    printer: "ir/printer_tests.rs",
    properties: "levels/properties_tests.rs",
    simplify: "ir/simplify_tests.rs",
    singleton: "levels/singleton_tests.rs",
    sliced: "levels/sliced_tests.rs",
    squeezed: "levels/squeezed_tests.rs",
    stmt: "ir/stmt_tests.rs",
    token: "remap/token_tests.rs",
}
