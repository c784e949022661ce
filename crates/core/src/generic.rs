//! The specification-driven (dynamic) conversion path.
//!
//! The engine kernels in [`crate::engine`] are monomorphised for the built-in
//! formats. This module is the fully dynamic counterpart: it converts a
//! matrix into *any* format described by a [`FormatSpec`] — including
//! user-defined custom formats — by literally executing the recipe of
//! Figure 12 with level assemblers, the remapping evaluator, and the
//! attribute-query evaluator. It is slower than the engine (that gap is
//! measured by the `ablations` benchmark) but places no restriction on the
//! level composition.

use std::collections::HashMap;

use sparse_tensor::{DimBounds, Shape, Value};

use crate::convert::AnyTensor;
use crate::error::ConvertError;
use crate::levels::{
    BandedLevel, CompressedLevel, DenseLevel, EdgeInsertion, HashedLevel, LevelAssembler,
    LevelKind, LevelProperties, PositionKind, SingletonLevel, SlicedLevel, SqueezedLevel,
};
use crate::query::eval::evaluate_on_coords;
use crate::query::{AttrQuery, QueryResult};
use crate::remap::{BoundsEnv, EvalContext, Remapping};
use crate::spec::FormatSpec;

/// The assembled data of one output level.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelOutput {
    /// Dense level: nothing stored beyond the extent.
    Dense {
        /// Dimension extent.
        extent: usize,
    },
    /// Compressed level: `pos` and `crd` arrays.
    Compressed {
        /// Parent-to-children offsets.
        pos: Vec<usize>,
        /// Child coordinates.
        crd: Vec<i64>,
    },
    /// Singleton level: one coordinate per position.
    Singleton {
        /// Stored coordinates.
        crd: Vec<i64>,
    },
    /// Sliced level: the analysed slice count.
    Sliced {
        /// Number of slices `K`.
        slices: usize,
    },
    /// Squeezed level: the stored coordinate values.
    Squeezed {
        /// Stored coordinate values (e.g. DIA diagonal offsets).
        perm: Vec<i64>,
    },
    /// Banded level: run offsets and first stored coordinate per parent.
    Banded {
        /// Run offsets.
        pos: Vec<usize>,
        /// First stored coordinate per parent.
        first: Vec<usize>,
    },
    /// Hashed level: interned `(parent position, coordinate)` pairs.
    Hashed {
        /// Interned coordinates in insertion order.
        coords: Vec<(usize, i64)>,
    },
}

/// A tensor assembled from a [`FormatSpec`] by the dynamic converter.
///
/// A `CustomTensor` is a full citizen of the conversion stack: it can be
/// read *back* ([`CustomTensor::to_triples`] walks the assembled levels and
/// inverts the remapping), which is what makes user-defined formats valid
/// conversion **sources** as well as targets.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomTensor {
    /// The format specification the tensor was assembled for.
    pub spec: FormatSpec,
    /// The assembled level data, outermost first.
    pub levels: Vec<LevelOutput>,
    /// The value array, indexed by the last level's positions.
    pub vals: Vec<Value>,
    /// The canonical (source) tensor shape.
    pub source_shape: Shape,
    /// Static bounds of each remapped dimension (the bounds assembly used;
    /// needed to read dense levels back, whose lower bound — e.g. DIA's
    /// negative offsets — is not recoverable from the extent alone).
    pub bounds: Vec<DimBounds>,
    /// Number of canonical nonzeros stored (padding excluded).
    pub nnz: usize,
}

impl CustomTensor {
    /// The canonical (source) tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.source_shape
    }

    /// The tensor's canonical order.
    pub fn order(&self) -> usize {
        self.source_shape.order()
    }

    /// Number of canonical nonzeros stored (padding excluded).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Reads the tensor back into canonical triples by walking the
    /// assembled levels (enumerating every storage coordinate tuple) and
    /// inverting the spec's coordinate remapping. Positions holding padding
    /// zeros are skipped for compositions with padded levels (dense, sliced,
    /// banded), mirroring the stock structured sources.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when the remapping is not
    /// invertible (see [`crate::remap::Remapping::inverter`]); such formats
    /// are conversion targets only.
    pub fn to_triples(&self) -> Result<sparse_tensor::SparseTriples, ConvertError> {
        let inverter =
            self.spec
                .remapping
                .inverter()
                .ok_or_else(|| ConvertError::UnsupportedSpec {
                    reason: format!(
                        "format {}: the remapping {} is not invertible, so the \
                     assembled tensor cannot be read back as a conversion \
                     source",
                        self.spec.name, self.spec.remapping
                    ),
                })?;
        // Padded level kinds store explicit zeros; every other composition
        // stores nonzeros only, so a stored zero is a genuine value.
        let skip_zeros = self.levels.iter().any(|l| {
            matches!(
                l,
                LevelOutput::Dense { .. } | LevelOutput::Sliced { .. } | LevelOutput::Banded { .. }
            )
        });
        // Group each hashed level's interned pairs by parent once, so the
        // walk is linear instead of rescanning the whole pair list per
        // parent position.
        let hashed_groups: HashedGroups = self
            .levels
            .iter()
            .map(|l| match l {
                LevelOutput::Hashed { coords } => {
                    let mut groups: HashMap<usize, Vec<(usize, i64)>> = HashMap::new();
                    for (idx, &(parent, coord)) in coords.iter().enumerate() {
                        groups.entry(parent).or_default().push((idx, coord));
                    }
                    Some(groups)
                }
                _ => None,
            })
            .collect();
        let mut out =
            sparse_tensor::SparseTriples::with_capacity(self.source_shape.clone(), self.nnz);
        let mut prefix: Vec<i64> = Vec::with_capacity(self.levels.len());
        self.walk_level(0, 0, &hashed_groups, &mut prefix, &mut |pos, coords| {
            let value = self.vals.get(pos).copied().unwrap_or(0.0);
            if skip_zeros && value == 0.0 {
                return Ok(());
            }
            out.push(inverter.apply(coords), value)?;
            Ok(())
        })?;
        Ok(out)
    }

    /// Visits every storage coordinate tuple under `parent_pos` at level
    /// `k`, depth first. `hashed_groups[k]` holds level `k`'s interned pairs
    /// grouped by parent when the level is hashed.
    fn walk_level(
        &self,
        k: usize,
        parent_pos: usize,
        hashed_groups: &HashedGroups,
        prefix: &mut Vec<i64>,
        visit: &mut LevelVisitor<'_>,
    ) -> Result<(), ConvertError> {
        let children: Vec<(usize, i64)> = match &self.levels[k] {
            LevelOutput::Dense { extent } => (0..*extent)
                .map(|off| (parent_pos * extent + off, self.bounds[k].lower + off as i64))
                .collect(),
            LevelOutput::Sliced { slices } => (0..*slices)
                .map(|off| (parent_pos * slices + off, off as i64))
                .collect(),
            LevelOutput::Compressed { pos, crd } => (pos[parent_pos]..pos[parent_pos + 1])
                .map(|p| (p, crd[p]))
                .collect(),
            LevelOutput::Singleton { crd } => vec![(parent_pos, crd[parent_pos])],
            LevelOutput::Squeezed { perm } => perm
                .iter()
                .enumerate()
                .map(|(idx, &c)| (parent_pos * perm.len() + idx, c))
                .collect(),
            LevelOutput::Banded { pos, first } => (0..pos[parent_pos + 1] - pos[parent_pos])
                .map(|off| (pos[parent_pos] + off, (first[parent_pos] + off) as i64))
                .collect(),
            LevelOutput::Hashed { .. } => hashed_groups[k]
                .as_ref()
                .expect("hashed levels are grouped before the walk")
                .get(&parent_pos)
                .cloned()
                .unwrap_or_default(),
        };
        let last = k + 1 == self.levels.len();
        for (pos, coord) in children {
            prefix.push(coord);
            if last {
                visit(pos, prefix)?;
            } else {
                self.walk_level(k + 1, pos, hashed_groups, prefix, visit)?;
            }
            prefix.pop();
        }
        Ok(())
    }
}

/// Callback of [`CustomTensor::walk_level`]: receives each leaf position and
/// the full storage coordinate tuple leading to it.
type LevelVisitor<'a> = dyn FnMut(usize, &[i64]) -> Result<(), ConvertError> + 'a;

/// Per-level hashed-entry grouping used by [`CustomTensor::walk_level`]:
/// `Some` for hashed levels, mapping each parent position to its interned
/// `(position, coordinate)` pairs.
type HashedGroups = Vec<Option<HashMap<usize, Vec<(usize, i64)>>>>;

/// A level assembler of any kind, dispatched by enumeration (so that the
/// assembled data can be recovered without downcasting).
#[derive(Debug, Clone)]
pub enum AnyLevel {
    /// Dense level assembler.
    Dense(DenseLevel),
    /// Compressed level assembler (unique or non-unique).
    Compressed(CompressedLevel),
    /// Singleton level assembler.
    Singleton(SingletonLevel),
    /// Sliced level assembler.
    Sliced(SlicedLevel),
    /// Squeezed level assembler.
    Squeezed(SqueezedLevel),
    /// Banded level assembler.
    Banded(BandedLevel),
    /// Hashed level assembler.
    Hashed(HashedLevel),
}

macro_rules! each_level {
    ($self:expr, $l:ident => $e:expr) => {
        match $self {
            AnyLevel::Dense($l) => $e,
            AnyLevel::Compressed($l) => $e,
            AnyLevel::Singleton($l) => $e,
            AnyLevel::Sliced($l) => $e,
            AnyLevel::Squeezed($l) => $e,
            AnyLevel::Banded($l) => $e,
            AnyLevel::Hashed($l) => $e,
        }
    };
}

impl LevelAssembler for AnyLevel {
    fn kind(&self) -> LevelKind {
        each_level!(self, l => l.kind())
    }

    fn properties(&self) -> LevelProperties {
        each_level!(self, l => l.properties())
    }

    fn required_query(&self, dims: &[String], level: usize) -> Option<AttrQuery> {
        each_level!(self, l => l.required_query(dims, level))
    }

    fn edge_insertion(&self) -> EdgeInsertion {
        each_level!(self, l => l.edge_insertion())
    }

    fn position_kind(&self) -> PositionKind {
        each_level!(self, l => l.position_kind())
    }

    fn size(&self, parent_size: usize) -> usize {
        each_level!(self, l => l.size(parent_size))
    }

    fn init_edges(&mut self, parent_size: usize, sequenced: bool, q: Option<&QueryResult>) {
        each_level!(self, l => l.init_edges(parent_size, sequenced, q))
    }

    fn insert_edges(
        &mut self,
        parent_pos: usize,
        parent_coords: &[i64],
        sequenced: bool,
        q: Option<&QueryResult>,
    ) {
        each_level!(self, l => l.insert_edges(parent_pos, parent_coords, sequenced, q))
    }

    fn finalize_edges(&mut self, parent_size: usize, sequenced: bool) {
        each_level!(self, l => l.finalize_edges(parent_size, sequenced))
    }

    fn init_coords(&mut self, parent_size: usize, q: Option<&QueryResult>) {
        each_level!(self, l => l.init_coords(parent_size, q))
    }

    fn init_pos(&mut self, parent_size: usize) {
        each_level!(self, l => l.init_pos(parent_size))
    }

    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize {
        each_level!(self, l => l.position(parent_pos, coords))
    }

    fn insert_coord(&mut self, parent_pos: usize, pos: usize, coords: &[i64]) {
        each_level!(self, l => l.insert_coord(parent_pos, pos, coords))
    }

    fn finalize_pos(&mut self, parent_size: usize) {
        each_level!(self, l => l.finalize_pos(parent_size))
    }
}

impl AnyLevel {
    /// Extracts the assembled data.
    pub fn into_output(self, bounds: DimBounds) -> LevelOutput {
        match self {
            AnyLevel::Dense(_) => LevelOutput::Dense {
                extent: bounds.extent(),
            },
            AnyLevel::Compressed(level) => {
                let (pos, crd) = level.into_arrays();
                LevelOutput::Compressed { pos, crd }
            }
            AnyLevel::Singleton(level) => LevelOutput::Singleton {
                crd: level.into_crd(),
            },
            AnyLevel::Sliced(level) => LevelOutput::Sliced {
                slices: level.slice_count(),
            },
            AnyLevel::Squeezed(level) => LevelOutput::Squeezed {
                perm: level.into_perm(),
            },
            AnyLevel::Banded(level) => {
                let (pos, first) = level.into_arrays();
                LevelOutput::Banded { pos, first }
            }
            AnyLevel::Hashed(level) => LevelOutput::Hashed {
                coords: level.coords().to_vec(),
            },
        }
    }
}

/// Builds a level assembler for a level kind over the given coordinate
/// bounds.
pub fn make_assembler(kind: LevelKind, bounds: DimBounds) -> AnyLevel {
    match kind {
        LevelKind::Dense => {
            AnyLevel::Dense(DenseLevel::with_lower_bound(bounds.extent(), bounds.lower))
        }
        LevelKind::Compressed => AnyLevel::Compressed(CompressedLevel::new()),
        LevelKind::CompressedNonUnique => AnyLevel::Compressed(CompressedLevel::non_unique()),
        LevelKind::Singleton => AnyLevel::Singleton(SingletonLevel::new()),
        LevelKind::Sliced => AnyLevel::Sliced(SlicedLevel::new()),
        LevelKind::Squeezed => AnyLevel::Squeezed(SqueezedLevel::new(bounds.lower, bounds.upper)),
        LevelKind::Banded => AnyLevel::Banded(BandedLevel::new()),
        LevelKind::Hashed => AnyLevel::Hashed(HashedLevel::new()),
    }
}

/// Converts a tensor into the format described by `spec`.
///
/// # Errors
///
/// Returns an error when the source's order does not match the spec's
/// remapping, the remapping or a query fails to evaluate, or the spec's
/// level composition requires edge insertion under a non-full ancestor that
/// is not an ordered chain of dense/compressed levels (the one grouping the
/// dynamic driver can reconstruct by sorting, as in CSF).
pub fn convert_with_spec(src: &AnyTensor, spec: &FormatSpec) -> Result<CustomTensor, ConvertError> {
    spec.validate()?;
    let triples = src.try_to_triples()?;
    let shape = src.shape();
    if shape.order() != spec.remapping.source_order() {
        return Err(ConvertError::Unsupported(format!(
            "format {} remaps order-{} tensors, got an order-{} source",
            spec.name,
            spec.remapping.source_order(),
            shape.order()
        )));
    }

    // Phase 1: coordinate remapping (Section 4).
    let remapping: &Remapping = &spec.remapping;
    let mut ctx = EvalContext::new(remapping);
    let mut remapped = ctx.apply_all(&triples)?;

    // A banded level stores one contiguous run per parent fiber, bounded
    // above by the parent dimension's coordinate (the skyline profile).
    // Nonzeros above that bound fall outside every run, so they are dropped
    // here — exactly what the engine's skyline kernel does when it converts
    // the lower triangle of its source.
    for (k, kind) in spec.levels.iter().enumerate() {
        if matches!(kind, LevelKind::Banded) && k > 0 {
            remapped.triples.retain(|(c, _)| c[k] <= c[k - 1]);
        }
    }

    // Compressed levels nested under non-full ancestors (CSF's fiber chains)
    // need the input grouped by coordinate prefix; a stable lexicographic
    // sort of the remapped nonzeros establishes exactly the grouping the
    // paper's sort-then-pack COO→CSF recipe uses. Formats whose chains are
    // full-rooted (CSR, DIA, ...) keep the source iteration order.
    if needs_prefix_grouping(&spec.levels) {
        remapped.triples.sort_by(|a, b| a.0.cmp(&b.0));
        // The dynamic driver sizes compressed levels from count-*distinct*
        // queries, so duplicate coordinates (which the monomorphised engine
        // stores as adjacent innermost entries) cannot be assembled here;
        // reject them instead of overrunning the coordinate arrays. The sort
        // above makes the check a free adjacent comparison.
        if remapped.triples.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(ConvertError::Unsupported(format!(
                "the dynamic converter requires duplicate-free coordinates for {} \
                 targets; sum duplicates first (the engine path stores them verbatim)",
                spec.name
            )));
        }
    }

    // Static bounds of each remapped dimension, used to size dense, squeezed,
    // and counter-derived dimensions.
    let env = BoundsEnv::for_remapping(remapping, shape.dims()).with_nnz(triples.nnz());
    let bounds = crate::remap::infer_bounds(remapping, &env)?;

    // Phase 2: analysis (Section 5) — evaluate each level's attribute query
    // over the remapped coordinates.
    let coords: Vec<Vec<i64>> = remapped.triples.iter().map(|(c, _)| c.clone()).collect();
    let mut queries: Vec<Option<QueryResult>> = Vec::with_capacity(spec.levels.len());
    let mut assemblers: Vec<AnyLevel> = Vec::with_capacity(spec.levels.len());
    for (k, kind) in spec.levels.iter().enumerate() {
        let assembler = make_assembler(*kind, bounds[k]);
        match assembler.required_query(&spec.dim_names, k) {
            Some(query) => {
                let result = evaluate_on_coords(
                    &query,
                    &spec.dim_names,
                    &bounds,
                    coords.iter().map(|c| c.as_slice()),
                )?;
                queries.push(Some(result));
            }
            None => queries.push(None),
        }
        assemblers.push(assembler);
    }

    // Phase 3: assembly (Section 6, Figure 12), level by level from the top.
    let mut parent_sizes = Vec::with_capacity(spec.levels.len());
    let mut parent_size = 1usize;
    for k in 0..assemblers.len() {
        parent_sizes.push(parent_size);
        let q = queries[k].as_ref();
        let (ancestors, rest) = assemblers.split_at_mut(k);
        let assembler = &mut rest[0];
        if assembler.edge_insertion() == EdgeInsertion::SequencedOrUnsequenced {
            // Enumerate parent positions with their coordinate tuples. When
            // every ancestor level is full (dense-like), positions are the
            // cartesian product of ancestor coordinates. Otherwise the
            // ancestors must be full levels followed by compressed levels:
            // compressed positions are contiguous ranks of stored prefixes
            // in sorted order, so parent position `p` is exactly the `p`-th
            // distinct coordinate prefix in lexicographic order. (A full
            // level *below* a compressed one breaks that correspondence —
            // its positions are gappy arithmetic, not ranks — so validate
            // rejects such chains.)
            let ancestors_full = spec.levels[..k]
                .iter()
                .all(|a| matches!(a, LevelKind::Dense | LevelKind::Sliced));
            let ancestors_chainable = {
                let mut seen_compressed = false;
                spec.levels[..k].iter().all(|a| match a {
                    LevelKind::Compressed => {
                        seen_compressed = true;
                        true
                    }
                    LevelKind::Dense | LevelKind::Sliced => !seen_compressed,
                    _ => false,
                })
            };
            if k > 0 && !ancestors_full && !ancestors_chainable {
                // Unreachable after `spec.validate()`; kept as
                // defense-in-depth for specs constructed around it.
                return Err(ConvertError::UnsupportedSpec {
                    reason: format!(
                        "level {k} ({}) needs edge insertion under an \
                         ancestor chain that is not full levels followed \
                         by compressed levels",
                        spec.levels[k]
                    ),
                });
            }
            let parents = if ancestors_full {
                // Enumerate over each ancestor's *assembled* fanout, not the
                // static bounds: a sliced level is dense over its
                // data-dependent slice count `K` (0 for an empty input, and
                // generally at most the dimension extent), and its positions
                // are `parent * K + coord` with raw 0-based coordinates.
                let eff_bounds: Vec<DimBounds> = ancestors
                    .iter()
                    .zip(&bounds[..k])
                    .map(|(a, b)| match a {
                        AnyLevel::Sliced(l) => DimBounds::new(0, l.slice_count() as i64),
                        _ => *b,
                    })
                    .collect();
                enumerate_full_positions(&eff_bounds)
            } else {
                enumerate_prefix_positions(&remapped.triples, k)
            };
            debug_assert!(
                ancestors_full || parents.len() == parent_size,
                "distinct prefixes must match the assembled parent size"
            );
            assembler.init_edges(parent_size, true, q);
            for (pos, parent_coords) in parents {
                assembler.insert_edges(pos, &parent_coords, true, q);
            }
            assembler.finalize_edges(parent_size, true);
        }
        assembler.init_coords(parent_size, q);
        assembler.init_pos(parent_size);
        parent_size = assembler.size(parent_size);
    }
    let total = parent_size;

    // Coordinate insertion: one pass over the remapped nonzeros, walking the
    // level chain to compute each nonzero's position. Levels that yield
    // positions but must stay duplicate-free (e.g. an intermediate block
    // level) are deduplicated on the fly, as Section 6.2 describes.
    let mut vals = vec![0.0; total];
    let mut dedup: Vec<HashMap<(usize, i64), usize>> =
        (0..spec.levels.len()).map(|_| HashMap::new()).collect();
    for (coord, value) in &remapped.triples {
        let mut pos = 0usize;
        for (k, assembler) in assemblers.iter_mut().enumerate() {
            let prefix = &coord[..=k];
            let is_last = k + 1 == spec.levels.len();
            let needs_dedup = assembler.position_kind() == PositionKind::Yield
                && !is_last
                && assembler.properties().unique;
            let next = if needs_dedup {
                let key = (pos, coord[k]);
                if let Some(&existing) = dedup[k].get(&key) {
                    existing
                } else {
                    let fresh = assembler.position(pos, prefix);
                    assembler.insert_coord(pos, fresh, prefix);
                    dedup[k].insert(key, fresh);
                    fresh
                }
            } else {
                let fresh = assembler.position(pos, prefix);
                assembler.insert_coord(pos, fresh, prefix);
                fresh
            };
            pos = next;
        }
        // Levels whose size is only known as coordinates are interned (e.g.
        // hashed levels) grow the value array on demand.
        if pos >= vals.len() {
            vals.resize(pos + 1, 0.0);
        }
        vals[pos] = *value;
    }
    for (k, assembler) in assemblers.iter_mut().enumerate() {
        assembler.finalize_pos(parent_sizes[k]);
    }

    // Extract per-level outputs.
    let levels: Vec<LevelOutput> = assemblers
        .into_iter()
        .enumerate()
        .map(|(k, assembler)| assembler.into_output(bounds[k]))
        .collect();
    Ok(CustomTensor {
        spec: spec.clone(),
        levels,
        vals,
        source_shape: shape,
        bounds,
        nnz: remapped.triples.len(),
    })
}

/// True when some compressed-like level sits under a non-full ancestor, so
/// the input must be grouped (sorted) by coordinate prefix before assembly.
///
/// Public because the route planner uses it to classify custom targets: a
/// spec that forces the grouping sort canonicalises its input, so any
/// admissible intermediate is safe; one that does not stores the source
/// iteration order verbatim.
pub fn needs_prefix_grouping(levels: &[LevelKind]) -> bool {
    levels.iter().enumerate().any(|(k, kind)| {
        k > 0
            && matches!(
                kind,
                LevelKind::Compressed | LevelKind::CompressedNonUnique | LevelKind::Banded
            )
            && !levels[..k]
                .iter()
                .all(|a| matches!(a, LevelKind::Dense | LevelKind::Sliced))
    })
}

/// Enumerates the distinct coordinate prefixes of length `k` of
/// lexicographically sorted nonzeros, paired with their positions (ranks).
fn enumerate_prefix_positions(sorted: &[(Vec<i64>, Value)], k: usize) -> Vec<(usize, Vec<i64>)> {
    let mut out: Vec<(usize, Vec<i64>)> = Vec::new();
    for (coord, _) in sorted {
        let prefix = &coord[..k];
        if out.last().is_none_or(|(_, p)| p.as_slice() != prefix) {
            out.push((out.len(), prefix.to_vec()));
        }
    }
    out
}

/// Enumerates the positions (and coordinate tuples) of a chain of full
/// levels, in position order.
fn enumerate_full_positions(bounds: &[DimBounds]) -> Vec<(usize, Vec<i64>)> {
    let mut out = vec![(0usize, Vec::new())];
    for b in bounds {
        let mut next = Vec::with_capacity(out.len() * b.extent());
        for (pos, coords) in &out {
            for (offset, c) in (b.lower..b.upper).enumerate() {
                let mut extended = coords.clone();
                extended.push(c);
                next.push((pos * b.extent() + offset, extended));
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::AnyTensor;
    use crate::engine;
    use crate::format::Format;
    use sparse_formats::{CooMatrix, CsrMatrix, DiaMatrix, EllMatrix};
    use sparse_tensor::example::figure1_matrix;
    use sparse_tensor::SparseTriples;

    fn coo_src() -> AnyTensor {
        AnyTensor::Coo(CooMatrix::from_triples(&figure1_matrix()))
    }

    fn stock(format: Format) -> FormatSpec {
        format.spec().expect("not DOK").clone()
    }

    #[test]
    fn dynamic_csr_matches_engine_csr() {
        let spec = stock(Format::csr());
        let custom = convert_with_spec(&coo_src(), &spec).unwrap();
        let reference = engine::to_csr(&CooMatrix::from_triples(&figure1_matrix()), 1).unwrap();
        match &custom.levels[1] {
            LevelOutput::Compressed { pos, crd } => {
                assert_eq!(pos, reference.pos());
                let crd_usize: Vec<usize> = crd.iter().map(|&c| c as usize).collect();
                assert_eq!(crd_usize, reference.crd());
            }
            other => panic!("unexpected level output {other:?}"),
        }
        assert_eq!(custom.vals, reference.values());
    }

    #[test]
    fn dynamic_dia_matches_engine_dia() {
        let spec = stock(Format::dia());
        let custom = convert_with_spec(&coo_src(), &spec).unwrap();
        let reference = engine::to_dia(&CooMatrix::from_triples(&figure1_matrix())).unwrap();
        match &custom.levels[0] {
            LevelOutput::Squeezed { perm } => assert_eq!(perm, reference.offsets()),
            other => panic!("unexpected level output {other:?}"),
        }
        assert_eq!(custom.vals, reference.values());
    }

    #[test]
    fn dynamic_ell_matches_engine_ell() {
        let spec = stock(Format::ell());
        let custom = convert_with_spec(&coo_src(), &spec).unwrap();
        let reference = engine::to_ell(&CooMatrix::from_triples(&figure1_matrix()));
        match &custom.levels[0] {
            LevelOutput::Sliced { slices } => assert_eq!(*slices, reference.slices()),
            other => panic!("unexpected level output {other:?}"),
        }
        match &custom.levels[2] {
            LevelOutput::Singleton { crd } => {
                let crd_usize: Vec<usize> = crd.iter().map(|&c| c as usize).collect();
                assert_eq!(crd_usize, reference.crd());
            }
            other => panic!("unexpected level output {other:?}"),
        }
        assert_eq!(custom.vals, reference.values());
    }

    #[test]
    fn dynamic_coo_target_keeps_duplicless_row_entries() {
        let spec = stock(Format::coo());
        let custom = convert_with_spec(&coo_src(), &spec).unwrap();
        match (&custom.levels[0], &custom.levels[1]) {
            (LevelOutput::Compressed { pos, crd }, LevelOutput::Singleton { crd: cols }) => {
                assert_eq!(pos, &[0, 9]);
                assert_eq!(crd, &[0, 0, 1, 1, 2, 2, 3, 3, 3]);
                assert_eq!(cols, &[0, 1, 1, 2, 0, 2, 1, 3, 4]);
            }
            other => panic!("unexpected level outputs {other:?}"),
        }
        assert_eq!(custom.vals, &[5.0, 1.0, 7.0, 3.0, 8.0, 2.0, 4.0, 9.0, 6.0]);
    }

    #[test]
    fn dynamic_custom_blocked_format_assembles() {
        // A custom blocked format built from the spec language alone: blocks
        // interned in a hash level, block contents dense.
        let spec = FormatSpec::new(
            "BLOCK-HASH",
            Remapping::blocked(2, 2),
            vec!["bi", "bj", "li", "lj"],
            vec![
                LevelKind::Dense,
                LevelKind::Hashed,
                LevelKind::Dense,
                LevelKind::Dense,
            ],
        );
        let custom = convert_with_spec(&coo_src(), &spec).unwrap();
        match &custom.levels[1] {
            LevelOutput::Hashed { coords } => assert!(!coords.is_empty()),
            other => panic!("unexpected level output {other:?}"),
        }
        assert_eq!(custom.vals.iter().filter(|&&v| v != 0.0).count(), 9);
    }

    #[test]
    fn dynamic_skyline_assembles_lower_triangles() {
        let lower = SparseTriples::from_matrix_entries(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (1, 1, 2.0),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (3, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap();
        let src = AnyTensor::Csr(CsrMatrix::from_triples(&lower));
        let custom = convert_with_spec(&src, &stock(Format::skyline())).unwrap();
        match &custom.levels[1] {
            LevelOutput::Banded { pos, first } => {
                assert_eq!(pos, &[0, 1, 2, 5, 7]);
                assert_eq!(first, &[0, 1, 0, 2]);
            }
            other => panic!("unexpected level output {other:?}"),
        }
        assert_eq!(custom.vals, &[1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn dynamic_csf_matches_engine_csf() {
        // The COO3 source is deliberately unsorted; the dynamic driver must
        // re-establish the fiber grouping by sorting, exactly like the
        // engine's sort-then-pack kernel.
        let t = sparse_tensor::example::example3_tensor();
        let src = AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&t));
        let spec = stock(Format::csf());
        let custom = convert_with_spec(&src, &spec).unwrap();
        let reference = engine::to_csf(&sparse_formats::CooTensor::from_triples(&t));
        // Level l's `pos` array groups level l's coordinates under their
        // *parents*: level 0 has the single root parent, level l ≥ 1 maps to
        // the CSF container's pos(l - 1).
        for (level, (crd_ref, pos_ref)) in [
            (reference.crd(0), vec![0, reference.num_fibers(0)]),
            (reference.crd(1), reference.pos(0).to_vec()),
            (reference.crd(2), reference.pos(1).to_vec()),
        ]
        .into_iter()
        .enumerate()
        {
            match &custom.levels[level] {
                LevelOutput::Compressed { pos, crd } => {
                    let crd_usize: Vec<usize> = crd.iter().map(|&c| c as usize).collect();
                    assert_eq!(crd_usize, crd_ref, "crd at level {level}");
                    assert_eq!(pos, &pos_ref, "pos at level {level}");
                }
                other => panic!("unexpected level output {other:?}"),
            }
        }
        assert_eq!(custom.vals, reference.values());
        assert_eq!(custom.source_shape, *t.shape());
    }

    #[test]
    fn dynamic_coo3_preserves_source_order() {
        let t = sparse_tensor::example::example3_tensor();
        let src = AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&t));
        let spec = stock(Format::coo3());
        let custom = convert_with_spec(&src, &spec).unwrap();
        // COO3 has no compressed level under a non-full ancestor, so the
        // source order survives: the values come out exactly as stored.
        let expected: Vec<f64> = t.iter().map(|tr| tr.value).collect();
        assert_eq!(custom.vals, expected);
    }

    #[test]
    fn duplicate_coordinates_are_rejected_not_panicking() {
        // The engine stores duplicate components verbatim (adjacent innermost
        // entries); the dynamic driver sizes compressed levels from
        // count-distinct queries and must reject duplicates with an error.
        let mut coo = sparse_formats::CooTensor::new(sparse_tensor::Shape::tensor3(2, 2, 2));
        coo.push(&[1, 1, 0], 2.0);
        coo.push(&[1, 1, 0], 3.0);
        let spec = stock(Format::csf());
        assert!(matches!(
            convert_with_spec(&AnyTensor::Coo3(coo), &spec),
            Err(ConvertError::Unsupported(_))
        ));
    }

    #[test]
    fn order_mismatches_are_rejected() {
        let spec = stock(Format::csf());
        assert!(matches!(
            convert_with_spec(&coo_src(), &spec),
            Err(ConvertError::Unsupported(_))
        ));
        let t = sparse_tensor::example::example3_tensor();
        let src = AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&t));
        assert!(matches!(
            convert_with_spec(&src, &stock(Format::csr())),
            Err(ConvertError::Unsupported(_))
        ));
    }

    #[test]
    fn dynamic_path_accepts_structured_sources() {
        let dia = AnyTensor::Dia(DiaMatrix::from_triples(&figure1_matrix()));
        let spec = stock(Format::csr());
        let custom = convert_with_spec(&dia, &spec).unwrap();
        let reference = engine::to_csr(&DiaMatrix::from_triples(&figure1_matrix()), 1).unwrap();
        assert_eq!(custom.vals, reference.values());
        let ell = AnyTensor::Ell(EllMatrix::from_triples(&figure1_matrix()));
        let custom = convert_with_spec(&ell, &stock(Format::csc())).unwrap();
        let reference = engine::to_csc(&EllMatrix::from_triples(&figure1_matrix()), 1).unwrap();
        assert_eq!(custom.vals, reference.values());
    }
}
