//! The format graph and its shortest-path route search.
//!
//! Nodes are interned [`Format`] handles; a directed edge `A → B` exists
//! when the symbolic planner can produce a conversion plan for the pair
//! (stock engine kernels, the runtime's parallel kernels, and generic-driver
//! edges for registry formats all plan through the same entry point). Edge
//! weights are [`static_edge_units`] scaled by the [`CostModel`]'s
//! calibrated multiplier.
//!
//! # Admissibility
//!
//! A route is only useful if it produces *bytes identical* to the direct
//! conversion, so intermediates are filtered by the target's sensitivity to
//! the source's iteration order (both sides are
//! [`FormatFacts`](crate::kernel_table::FormatFacts) columns —
//! `sensitivity` and `way_point`):
//!
//! | target                                | sensitive to            | admissible intermediates |
//! |---------------------------------------|-------------------------|--------------------------|
//! | DIA, BCSR, SKY, CSF, sorted customs   | nothing (canonicalises) | COO, CSR, CSF            |
//! | CSR, ELL, JAD                         | within-row order        | COO, CSR                 |
//! | CSC                                   | within-column order     | COO                      |
//! | COO, COO3, unsorted customs           | full iteration order    | COO                      |
//!
//! The rules follow from what each intermediate does to the nonzero
//! stream: a COO hop *replays* its source's iteration exactly (so it is
//! always safe), a CSR hop stably groups by row (preserving within-row
//! order but rewriting everything else), and a CSF hop sorts
//! lexicographically (safe only for targets that canonicalise anyway).
//! Registry (custom) targets count as canonicalising exactly when their
//! spec makes the generic driver sort (`needs_prefix_grouping`).
//!
//! # Search
//!
//! The per-request subgraph is tiny — the source, the target, and at most
//! `MAX_INTERMEDIATES` stock way-points of the same order — so the shortest-path search enumerates every admissible path in cost
//! order (Dijkstra degenerates to exhaustive enumeration on a graph this
//! small) with a deterministic tie-break: cheaper first, then fewer hops,
//! then lexicographic by fingerprint.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::kernel_table;
use crate::Format;

use crate::planner::cost::{static_edge_units, CostModel, TensorAttrs};

/// Maximum way-points between source and target (2 allows three-hop routes
/// such as `DIA → COO → CSR → BCSR`).
const MAX_INTERMEDIATES: usize = 2;
const _: () = assert!(
    MAX_INTERMEDIATES == 2,
    "plan_route enumerates the one- and two-way-point chains explicitly"
);

/// Knobs of a route search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerConfig {
    /// Whether the executing service will run this request's hops on its
    /// parallel kernels (pool wider than one thread, input above its
    /// threshold, not a batch job); engages the parallel-kernel credit.
    pub parallel: bool,
    /// Drop the direct path whenever an admissible multi-hop route exists
    /// (the `--route=multi-hop` ablation); falls back to direct when no
    /// chain is admissible.
    pub exclude_direct: bool,
}

/// A planned conversion route: the full node path (source first, target
/// last) and its estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Formats visited, source and target included (`len() >= 2`).
    pub path: Vec<Format>,
    /// Estimated total cost in entry units (calibration applied).
    pub cost_units: f64,
}

impl RoutePlan {
    /// Whether the plan is the single direct hop.
    pub fn is_direct(&self) -> bool {
        self.path.len() == 2
    }

    /// Number of conversions executed along the route.
    pub fn hop_count(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The path as display names (what reports record).
    pub fn names(&self) -> Vec<String> {
        self.path.iter().map(|f| f.to_string()).collect()
    }
}

/// The format graph: memoised symbolic edges plus the calibrated cost
/// model. One graph lives inside each `ConversionService` and is shared by
/// every request; all state is interior-mutable and thread-safe.
#[derive(Debug, Default)]
pub struct FormatGraph {
    cost: CostModel,
    /// `(source, target)` fingerprints → the symbolic plan's input pass
    /// count, or `None` when the pair has no conversion routine.
    passes: Mutex<HashMap<(u64, u64), Option<usize>>>,
}

impl FormatGraph {
    /// An empty graph with an uncalibrated cost model.
    pub fn new() -> FormatGraph {
        FormatGraph::default()
    }

    /// The calibrated multiplier store.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Monotonic version of the calibration state (see
    /// [`CostModel::version`]).
    pub fn version(&self) -> u64 {
        self.cost.version()
    }

    /// The symbolic plan's input pass count for an edge, memoised; `None`
    /// when the pair cannot be planned (no edge in the graph).
    fn passes(&self, src: &Format, dst: &Format) -> Option<usize> {
        let key = (src.fingerprint(), dst.fingerprint());
        *self.passes.lock().unwrap().entry(key).or_insert_with(|| {
            crate::plan_for_formats(src, dst).ok().map(|p| {
                // The engine lowers coordinate targets to a single
                // replay pass (`to_coo` pushes as it scans); the
                // symbolic plan's count-then-fill structure
                // overestimates them.
                if kernel_table::facts(dst).replays() {
                    p.input_passes.min(1)
                } else {
                    p.input_passes
                }
            })
        })
    }

    /// The calibrated cost of one edge, or `None` when no kernel exists.
    pub fn edge_units(
        &self,
        src: &Format,
        dst: &Format,
        entries_in: usize,
        feeds_rows_in_order: bool,
        attrs: &TensorAttrs,
        cfg: &PlannerConfig,
    ) -> Option<f64> {
        let passes = self.passes(src, dst)?;
        let units = static_edge_units(
            src,
            dst,
            passes,
            entries_in,
            feeds_rows_in_order,
            attrs,
            cfg,
        );
        Some(units * self.cost.multiplier(src, dst))
    }

    /// Folds a measured edge duration back into the cost model (online
    /// calibration). `entries_in` and `feeds_rows_in_order` describe the
    /// instance that actually fed the hop.
    // The parameter list mirrors `static_edge_units` plus the measurement:
    // collapsing it into a struct would just move the same seven names.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &self,
        src: &Format,
        dst: &Format,
        entries_in: usize,
        feeds_rows_in_order: bool,
        attrs: &TensorAttrs,
        cfg: &PlannerConfig,
        measured_ns: u64,
    ) {
        if let Some(passes) = self.passes(src, dst) {
            let predicted = static_edge_units(
                src,
                dst,
                passes,
                entries_in,
                feeds_rows_in_order,
                attrs,
                cfg,
            );
            self.cost.observe_units(src, dst, predicted, measured_ns);
        }
    }

    /// Total calibrated cost of a full path, walking the stored-entry count
    /// and iteration-order flag through each hop; `None` when any edge is
    /// missing.
    fn path_units(&self, path: &[Format], attrs: &TensorAttrs, cfg: &PlannerConfig) -> Option<f64> {
        let mut total = 0.0;
        let mut entries = attrs.stored_entries;
        let mut in_order = attrs.rows_in_order;
        for pair in path.windows(2) {
            total += self.edge_units(&pair[0], &pair[1], entries, in_order, attrs, cfg)?;
            // Whatever the hop produced: intermediates are unpadded stock
            // containers storing exactly the nonzeros.
            entries = attrs.nnz;
            // A replaying hop (COO) preserves whatever order fed it.
            let produced = kernel_table::facts(&pair[1]);
            in_order = produced.rows_in_order || (produced.replays() && in_order);
        }
        Some(total)
    }

    /// Plans the cheapest admissible route from `source` to `target` for a
    /// tensor described by `attrs`. Returns `None` when the graph has no
    /// path at all (the pair cannot be planned).
    pub fn plan_route(
        &self,
        source: &Format,
        target: &Format,
        attrs: &TensorAttrs,
        cfg: &PlannerConfig,
    ) -> Option<RoutePlan> {
        let direct_path = vec![source.clone(), target.clone()];
        let direct = self
            .path_units(&direct_path, attrs, cfg)
            .map(|cost_units| RoutePlan {
                path: direct_path,
                cost_units,
            });
        // Empty and identity conversions never profit from hops.
        if attrs.nnz == 0 || source.fingerprint() == target.fingerprint() {
            return direct;
        }
        let sens = kernel_table::facts(target).sensitivity;
        let mids: Vec<Format> = kernel_table::way_points(attrs.order)
            .filter(|f| {
                f.fingerprint() != source.fingerprint()
                    && f.fingerprint() != target.fingerprint()
                    && kernel_table::facts(f).admissible_before(sens)
            })
            .collect();
        // Every chain of one or two distinct way-points.
        let mut candidates: Vec<Vec<Format>> = Vec::new();
        for a in &mids {
            candidates.push(vec![source.clone(), a.clone(), target.clone()]);
            for b in mids.iter().filter(|b| *b != a) {
                candidates.push(vec![source.clone(), a.clone(), b.clone(), target.clone()]);
            }
        }
        let mut routed: Vec<RoutePlan> = candidates
            .into_iter()
            .filter_map(|path| {
                let cost_units = self.path_units(&path, attrs, cfg)?;
                Some(RoutePlan { path, cost_units })
            })
            .collect();
        // Deterministic order: cheapest, then fewest hops, then
        // lexicographic by fingerprint sequence.
        routed.sort_by(|a, b| {
            a.cost_units
                .total_cmp(&b.cost_units)
                .then(a.path.len().cmp(&b.path.len()))
                .then_with(|| {
                    let fa: Vec<u64> = a.path.iter().map(Format::fingerprint).collect();
                    let fb: Vec<u64> = b.path.iter().map(Format::fingerprint).collect();
                    fa.cmp(&fb)
                })
        });
        let best_chain = routed.into_iter().next();
        match (direct, best_chain) {
            (Some(d), Some(c)) => {
                if cfg.exclude_direct || c.cost_units < d.cost_units {
                    Some(c)
                } else {
                    Some(d)
                }
            }
            (Some(d), None) => Some(d),
            (None, c) => c,
        }
    }
}
