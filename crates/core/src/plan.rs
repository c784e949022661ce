//! The conversion planner.
//!
//! Given a source and a target specification, the planner makes the decisions
//! the paper's code generator makes (Sections 3, 4.2 and 6.2):
//!
//! * whether coordinate remapping can be *fused* into the analysis and
//!   assembly passes (cheap arithmetic remappings are recomputed; complex
//!   remappings would be materialised),
//! * whether counters can use a single scalar (source iterates the counter
//!   index in order) or need a counter array,
//! * whether edge insertion can be *sequenced* (parent positions visited in
//!   order) or must be unsequenced with a trailing prefix sum,
//! * which attribute queries must be computed, and whether they can be
//!   answered from the source's structure without touching nonzeros,
//! * whether the assembly of adjacent output levels can be fused into a
//!   single pass over the input.

use std::fmt;

use crate::levels::LevelKind;
use crate::spec::FormatSpec;

/// How counters in the target's remapping are realised (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterStrategy {
    /// The remapping has no counters.
    NotNeeded,
    /// A single scalar counter, reset per group (source iterates the counter
    /// index in order, e.g. CSR→ELL).
    Scalar,
    /// A counter array indexed by the counter's coordinates (unordered
    /// sources, e.g. COO→ELL).
    Array,
}

/// How edge insertion is performed for compressed-like output levels
/// (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeInsertionMode {
    /// No output level needs edge insertion (DIA, ELL targets).
    NotNeeded,
    /// Parent positions are visited in order, so `seq_insert_edges` applies.
    Sequenced,
    /// Counts are scattered and prefix-summed afterwards
    /// (`unseq_insert_edges` + `unseq_finalize_edges`).
    Unsequenced,
}

/// A conversion plan: the decisions made for one (source, target) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionPlan {
    /// Source format name.
    pub source: String,
    /// Target format name.
    pub target: String,
    /// Whether the remapping is recomputed in each pass (fused) instead of
    /// materialising remapped coordinates.
    pub fuse_remapping: bool,
    /// Counter realisation.
    pub counters: CounterStrategy,
    /// Edge insertion mode for the target's compressed-like levels.
    pub edge_insertion: EdgeInsertionMode,
    /// Attribute queries to compute during the analysis phase (rendered).
    pub queries: Vec<String>,
    /// True when every query can be answered from the source's structure
    /// (e.g. `pos` differencing) without iterating nonzeros.
    pub queries_from_structure: bool,
    /// True when all output levels are assembled in a single pass over the
    /// input (no CSR-style two-phase pos/crd construction).
    pub single_pass_assembly: bool,
    /// Number of passes over the input tensor's nonzeros the plan makes.
    pub input_passes: usize,
}

impl ConversionPlan {
    /// Plans the conversion from `source` to `target`.
    ///
    /// `source_rows_in_order` and `source_counts_from_structure` describe the
    /// source instance's properties (from [`crate::SourceMatrix`]).
    pub fn new(
        source: &FormatSpec,
        target: &FormatSpec,
        source_rows_in_order: bool,
        source_counts_from_structure: bool,
    ) -> Self {
        let counters = if !target.uses_counters() {
            CounterStrategy::NotNeeded
        } else if source_rows_in_order {
            CounterStrategy::Scalar
        } else {
            CounterStrategy::Array
        };
        let needs_edges = target.levels.iter().any(|k| {
            matches!(
                k,
                LevelKind::Compressed | LevelKind::CompressedNonUnique | LevelKind::Banded
            )
        });
        let edge_insertion = if !needs_edges {
            EdgeInsertionMode::NotNeeded
        } else if source_rows_in_order || target.levels[0] == LevelKind::Dense {
            // The parent of the compressed level is a dense level whose
            // positions are visited in order by a plain loop.
            EdgeInsertionMode::Sequenced
        } else {
            EdgeInsertionMode::Unsequenced
        };
        let queries: Vec<String> = target
            .required_queries()
            .iter()
            .map(|q| q.to_string())
            .collect();
        let queries_from_structure = source_counts_from_structure
            && !target.is_structured()
            && queries.iter().all(|q| q.contains("count("));
        // Targets without compressed levels can be assembled in one pass once
        // analysis is done; CSR-like targets need the two-phase pos/crd build.
        let single_pass_assembly = !needs_edges;
        // Passes over the input: analysis (unless answered from structure)
        // plus one assembly pass.
        let analysis_passes = if queries.is_empty() || queries_from_structure {
            0
        } else {
            1
        };
        ConversionPlan {
            source: source.name.clone(),
            target: target.name.clone(),
            fuse_remapping: true,
            counters,
            edge_insertion,
            queries,
            queries_from_structure,
            single_pass_assembly,
            input_passes: analysis_passes + 1,
        }
    }
}

impl fmt::Display for ConversionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conversion plan: {} -> {}", self.source, self.target)?;
        writeln!(
            f,
            "  coordinate remapping: {}",
            if self.fuse_remapping {
                "fused (recomputed per pass)"
            } else {
                "materialised"
            }
        )?;
        writeln!(f, "  counters: {:?}", self.counters)?;
        writeln!(f, "  edge insertion: {:?}", self.edge_insertion)?;
        if self.queries.is_empty() {
            writeln!(f, "  analysis: none")?;
        } else {
            writeln!(
                f,
                "  analysis: {} ({})",
                self.queries.join("; "),
                if self.queries_from_structure {
                    "from structure"
                } else {
                    "one pass over nonzeros"
                }
            )?;
        }
        writeln!(
            f,
            "  assembly: {}",
            if self.single_pass_assembly {
                "single pass"
            } else {
                "edge insertion + coordinate insertion"
            }
        )?;
        write!(f, "  passes over input nonzeros: {}", self.input_passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Format;

    fn plan(src: Format, dst: Format, in_order: bool, structural_counts: bool) -> ConversionPlan {
        ConversionPlan::new(
            src.spec().unwrap(),
            dst.spec().unwrap(),
            in_order,
            structural_counts,
        )
    }

    #[test]
    fn csr_to_ell_uses_scalar_counters() {
        let p = plan(Format::csr(), Format::ell(), true, true);
        assert_eq!(p.counters, CounterStrategy::Scalar);
        assert_eq!(p.edge_insertion, EdgeInsertionMode::NotNeeded);
        assert!(p.single_pass_assembly);
        assert!(p.to_string().contains("CSR -> ELL"));
    }

    #[test]
    fn coo_to_ell_needs_a_counter_array() {
        let p = plan(Format::coo(), Format::ell(), false, false);
        assert_eq!(p.counters, CounterStrategy::Array);
        assert_eq!(p.input_passes, 2);
    }

    #[test]
    fn coo_to_csr_uses_sequenced_edges_and_histogram() {
        let p = plan(Format::coo(), Format::csr(), false, false);
        assert_eq!(p.counters, CounterStrategy::NotNeeded);
        assert_eq!(p.edge_insertion, EdgeInsertionMode::Sequenced);
        assert!(!p.queries_from_structure);
        assert_eq!(p.queries, vec!["select [i] -> count(j) as nir".to_string()]);
        assert!(!p.single_pass_assembly);
    }

    #[test]
    fn csr_to_csc_answers_counts_from_structure_only_when_counts_are_cheap() {
        // CSR -> CSC needs column counts, which are not derivable from the
        // row-oriented pos array, so the caller passes `false`.
        let p = plan(Format::csr(), Format::csc(), true, false);
        assert!(!p.queries_from_structure);
        assert_eq!(p.input_passes, 2);
        // CSR -> CSR (identity) could read row counts straight off pos.
        let p = plan(Format::csr(), Format::csr(), true, true);
        assert!(p.queries_from_structure);
        assert_eq!(p.input_passes, 1);
    }

    #[test]
    fn dia_target_is_single_pass_after_analysis() {
        let p = plan(Format::csr(), Format::dia(), true, true);
        assert_eq!(p.edge_insertion, EdgeInsertionMode::NotNeeded);
        assert!(p.single_pass_assembly);
        assert_eq!(p.queries, vec!["select [k] -> id() as nz".to_string()]);
        assert_eq!(p.input_passes, 2);
        assert!(p.to_string().contains("single pass"));
    }
}
