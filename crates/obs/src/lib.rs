//! Zero-dependency observability for sparse format conversions.
//!
//! Two layers, smallest first:
//!
//! ```text
//!   Span::enter("phase") ──drop──▶ Collector (global, per-trace extraction)
//!   Collector::take_trace ────────▶ ConversionReport ──▶ JSON
//! ```
//!
//! * **Spans** ([`Span`], [`Collector`]) are RAII phase timers with
//!   parent/child nesting across threads. Recording is opt-in per trace:
//!   only spans under an [`Span::enter_traced`] root reach the collector,
//!   so instrumented library code is near-free when nobody is tracing.
//! * **Reports** ([`ConversionReport`], [`PhaseReport`]) aggregate one
//!   trace into a per-phase breakdown with routing metadata, exported as a
//!   documented JSON object. Only a caller who asks for a report gets one
//!   built; counters live in the service's and the sorter's own stats.
//!
//! # Feature flags
//!
//! The `collector` feature (default-on, surfaced as `conv-obs` by the
//! workspace crates) gates the span *implementation*. With it disabled
//! every span type is an inline zero-sized no-op — the instrumented crates
//! compile unchanged and the hot loops carry no collector dependency
//! (asserted by a `size_of` test). [`ConversionReport`] is plain data and
//! always compiled, so APIs returning reports keep one signature in both
//! builds.

#![warn(missing_docs)]

mod report;
mod span;

pub use report::{validate_json, ConversionReport, PhaseReport};
pub use span::{Collector, Span, SpanHandle, SpanRecord};
