//! Cost-model-driven multi-hop route planning over the format graph.
//!
//! The conversion service's original router made one hard-coded choice per
//! request: convert directly, or materialise COO first when the source is
//! padded. This module generalises that decision into *routing over a format
//! graph*: formats are nodes, known conversion kernels are weighted edges,
//! and a conversion is planned as a shortest path — so a shuffled COO→BCSR
//! request can discover that hopping through CSR (whose row-major output
//! feeds BCSR's block analysis in order) is cheaper than the direct kernel,
//! and a padded DIA→BCSR request composes both tricks into a three-hop
//! `DIA → COO → CSR → BCSR` route.
//!
//! Edge weights come from two layers:
//!
//! 1. **static per-kernel cost functions** ([`cost::static_edge_units`])
//!    over the request's [`TensorAttrs`] — pass counts from the symbolic
//!    [`ConversionPlan`](crate::ConversionPlan), padded storage sizes,
//!    per-kernel write weights, and an out-of-order penalty for the
//!    block-analysis kernels; and
//! 2. **online refinement** ([`FormatGraph::observe`]) from per-hop
//!    durations the service measures while executing routes, folded into a
//!    bounded, thread-safe EWMA per directed edge.
//!
//! Calibrated ratios are normalised by a global machine factor, so a
//! uniformly slower machine does not bias the search toward unobserved
//! edges; per-edge multipliers are clamped to a bounded band around the
//! static estimate.
//!
//! Routing never trades correctness for speed: intermediates are filtered
//! by an admissibility rule derived from each target's sensitivity to
//! iteration order ([`graph`] module docs), so every planned route is
//! bit-identical to the direct conversion.

pub mod cost;
pub mod graph;

pub use cost::{static_edge_units, CostModel, TensorAttrs};
pub use graph::{FormatGraph, PlannerConfig, RoutePlan};
