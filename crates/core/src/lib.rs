//! The conversion-routine generator: the paper's primary contribution.
//!
//! `sparse-conv` combines the three per-format specification languages —
//! coordinate remappings (`coord-remap`), attribute queries (`attr-query`),
//! and the assembly abstract interface (`level-formats`) — into conversion
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
//! * [`codegen`] — lowers a conversion plan to executable [`conv_ir`]
//!   routines and C-like listings structurally comparable to Figure 6.
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
pub mod kernel_table;
pub mod kernels;
pub mod mode;
pub mod partition;
pub mod plan;
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
pub use source::{MatrixAsTensor, SourceMatrix, SourceTensor};
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
    pub use coord_remap::{parse_remapping, Remapping};
    pub use level_formats::LevelKind;
}
