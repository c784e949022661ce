//! Static per-kernel cost functions and the calibrated multiplier store.
//!
//! Costs are expressed in *entry units*: one unit is one simple read or
//! write of a stored entry. The static model for an edge `A → B` is
//!
//! ```text
//! units(A→B) = passes(A,B) · stored(A)            (scan work)
//!            + weight(B) · penalty · writes(B)    (assembly work)
//!            + HOP_SETUP                          (per-hop constant)
//! ```
//!
//! where `passes` comes from the symbolic conversion plan (padded sources
//! are re-scanned by every pass — the original via-COO rule falls out of
//! this term), `weight(B)` captures how heavy the target's assembly is per
//! entry (a CSC scatter is cheap, a BCSR block analysis with its per-block
//! sort/dedup and binary-search scatter is not), and `penalty` charges
//! block-analysis targets extra when the feeding source does not iterate
//! rows in order. Weights, penalties and padding come from the target's
//! [`crate::kernel_table::FormatFacts`] row; edges whose
//! [`crate::kernel_table::KernelRow`] is flagged `parallel` get a
//! modest credit when the request will engage the pool
//! ([`PlannerConfig::parallel`]).
//!
//! [`CostModel`] layers measured reality on top: every observation stores
//! the ratio `measured_ns / predicted_ns` per directed edge (bounded EWMA),
//! normalised by the *median* ratio across observed edges — a robust
//! machine-speed factor — so that a uniformly faster or slower machine
//! cancels out instead of biasing the search toward unobserved edges, and a
//! single pathological edge cannot drag every other multiplier with it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::convert::AnyTensor;
use crate::kernel_table::{self, Padding};
use crate::Format;

use crate::planner::graph::PlannerConfig;

/// Nanoseconds one entry unit is assumed to cost on the reference machine.
/// Only the *ratio* between edges matters for routing; this constant anchors
/// calibration observations to the static scale.
pub(crate) const NS_PER_UNIT: f64 = 2.0;
/// Fixed per-hop cost (allocation, dispatch, cache warm-up) in entry units;
/// keeps multi-hop routes away from tiny inputs.
pub(crate) const HOP_SETUP: f64 = 256.0;
/// Work discount on parallel-kernel edges when the pool engages. Kept
/// deliberately modest so routing decisions stay stable across thread
/// counts.
const PARALLEL_CREDIT: f64 = 0.75;
/// Calibrated multiplier band around the static estimate.
const MULTIPLIER_MIN: f64 = 0.25;
const MULTIPLIER_MAX: f64 = 4.0;
/// EWMA smoothing for per-edge ratios.
const EWMA_EDGE: f64 = 0.25;

/// Attribute summary of a conversion request's source tensor — everything
/// the cost model reads. All fields are O(1) queries except
/// [`TensorAttrs::rows_in_order`], which for COO sources is an early-exit
/// monotonicity scan (first out-of-order pair returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorAttrs {
    /// Tensor order (2 for matrices, 3 for third-order tensors).
    pub order: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Entries of the value array, padding included — what a plan pass
    /// actually scans (equals `nnz` for unpadded formats).
    pub stored_entries: usize,
    /// Extent of the first dimension.
    pub rows: usize,
    /// Extent of the second dimension.
    pub cols: usize,
    /// Whether the source's iteration visits rows in non-decreasing order.
    pub rows_in_order: bool,
    /// Maximum nonzeros in any row, when a stats pass has already computed
    /// it (see `crate::select::TensorProfile`); refines the write
    /// estimate of padded-by-row targets such as ELL.
    pub max_nnz_per_row: Option<usize>,
}

impl TensorAttrs {
    /// The attribute queries for a concrete source instance.
    pub fn from_matrix(src: &AnyTensor) -> TensorAttrs {
        TensorAttrs {
            order: src.order(),
            nnz: src.nnz(),
            stored_entries: src.stored_entries(),
            rows: src.rows(),
            cols: src.cols(),
            rows_in_order: src.iterates_rows_in_order(),
            max_nnz_per_row: None,
        }
    }

    /// Attaches a previously computed per-row maximum (from a shared stats
    /// pass), refining padded-target write estimates.
    pub fn with_max_nnz_per_row(mut self, k: usize) -> TensorAttrs {
        self.max_nnz_per_row = Some(k);
        self
    }

    /// Folds in the statistics a [`crate::TensorProfile`] already
    /// computed for `auto_select`, so pricing ELL-style padded targets does
    /// not trigger a second pass over the coordinates.
    pub fn with_profile(self, profile: &crate::TensorProfile) -> TensorAttrs {
        match profile.max_nnz_per_row {
            Some(k) => self.with_max_nnz_per_row(k),
            None => self,
        }
    }
}

/// The static cost, in entry units, of converting along the edge
/// `src → dst`, fed by `entries_in` stored entries whose iteration order is
/// row-major iff `feeds_rows_in_order`. `passes` is the symbolic plan's
/// input pass count for the pair.
pub fn static_edge_units(
    src: &Format,
    dst: &Format,
    passes: usize,
    entries_in: usize,
    feeds_rows_in_order: bool,
    attrs: &TensorAttrs,
    cfg: &PlannerConfig,
) -> f64 {
    let facts = kernel_table::facts(dst);
    let read = (passes * entries_in) as f64;
    let mut weight = facts.assembly_weight;
    if !feeds_rows_in_order {
        weight *= facts.unsorted_feed_penalty;
    }
    // Row-padded targets materialise rows × the longest row when a stats
    // pass has provided it; everything else (and the fallback) writes nnz.
    let writes = match (facts.padding, attrs.max_nnz_per_row) {
        (Padding::ToLongestRow, Some(k)) => (k * attrs.rows).max(attrs.nnz),
        _ => attrs.nnz,
    };
    let mut work = read + weight * writes as f64;
    if cfg.parallel && kernel_table::lookup_formats(src, dst).is_some_and(|row| row.parallel) {
        work *= PARALLEL_CREDIT;
    }
    work + HOP_SETUP
}

/// Thread-safe store of calibrated edge-cost multipliers.
///
/// Each observation records the ratio between a measured duration and the
/// static prediction for that edge, folded into a per-edge EWMA. The
/// multiplier applied during routing is the per-edge ratio *normalised by
/// the median ratio across observed edges* and clamped to `[0.25, 4.0]`:
/// the median estimates the machine's overall speed relative to the
/// reference, so systematic machine speed cancels, an edge that is merely
/// unobserved keeps multiplier 1, and only an edge's deviation from its
/// siblings shifts the search.
#[derive(Debug, Default)]
pub struct CostModel {
    /// Directed `(source fingerprint, target fingerprint)` → EWMA of
    /// `measured / predicted`.
    edges: Mutex<HashMap<(u64, u64), f64>>,
    version: AtomicU64,
}

/// Robust machine-speed factor: the (lower) median of per-edge ratios.
fn machine_factor(edges: &HashMap<(u64, u64), f64>) -> Option<f64> {
    if edges.is_empty() {
        return None;
    }
    let mut ratios: Vec<f64> = edges.values().copied().collect();
    ratios.sort_by(f64::total_cmp);
    Some(ratios[(ratios.len() - 1) / 2])
}

impl CostModel {
    /// An empty model: every multiplier is 1 until observations arrive.
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// The calibrated multiplier for an edge (1.0 when unobserved).
    pub fn multiplier(&self, src: &Format, dst: &Format) -> f64 {
        let edges = self.edges.lock().unwrap();
        match (
            edges.get(&(src.fingerprint(), dst.fingerprint())),
            machine_factor(&edges),
        ) {
            (Some(&edge), Some(global)) if global > 0.0 => {
                (edge / global).clamp(MULTIPLIER_MIN, MULTIPLIER_MAX)
            }
            _ => 1.0,
        }
    }

    /// Folds one measured duration for an edge whose static estimate was
    /// `predicted_units` into the calibration state.
    pub fn observe_units(
        &self,
        src: &Format,
        dst: &Format,
        predicted_units: f64,
        measured_ns: u64,
    ) {
        if predicted_units <= 0.0 || !predicted_units.is_finite() || measured_ns == 0 {
            return;
        }
        let ratio = measured_ns as f64 / (predicted_units * NS_PER_UNIT);
        let mut edges = self.edges.lock().unwrap();
        let edge = edges
            .entry((src.fingerprint(), dst.fingerprint()))
            .or_insert(ratio);
        *edge += EWMA_EDGE * (ratio - *edge);
        drop(edges);
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotonic counter incremented by every observation — lets cached
    /// routing decisions detect that edge costs moved.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Number of directed edges with at least one observation.
    pub fn observed_edges(&self) -> usize {
        self.edges.lock().unwrap().len()
    }
}
