//! The specification-driven (dynamic) conversion path.
//!
//! The engine kernels in [`crate::engine`] are monomorphised for the built-in
//! formats. This module is the fully dynamic counterpart: it converts a
//! matrix into *any* format described by a [`FormatSpec`] — including
//! user-defined custom formats — by literally executing the recipe of
//! Figure 12 with level assemblers, the remapping evaluator, and the
//! attribute-query evaluator. The driver is columnar: the source is read as
//! coordinate columns, remapped into one row-major buffer, analysed with
//! hash-free counting passes ([`sparse_tensor::stats::distinct_pairs`]) and
//! assembled level by level. It is slower than the engine (`bench_e2e`'s
//! `generic.over_engine.*` rows measure the gap, and `convprof` splits it
//! into `generic.remap`, `generic.analyse` and `generic.assemble`) but
//! places no restriction on the level composition.

use std::collections::HashMap;

use obs::Span;
use sparse_tensor::stats::{distinct_pairs, Dense};
use sparse_tensor::{DimBounds, Shape, Value};

use crate::convert::AnyTensor;
use crate::error::ConvertError;
use crate::levels::{
    BandedLevel, CompressedLevel, DenseLevel, EdgeInsertion, HashedLevel, LevelAssembler,
    LevelKind, LevelProperties, PositionKind, SingletonLevel, SlicedLevel, SqueezedLevel,
};
use crate::query::eval::evaluate_on_rows;
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
/// remapping, the remapping or a query fails to evaluate, the remapped
/// coordinates hold a duplicate, the positions of the spec's full levels
/// number more than `usize::MAX`, or the spec's level composition requires
/// edge insertion under a non-full ancestor that is not an ordered chain of
/// dense/compressed levels (the one grouping the dynamic driver can
/// reconstruct by sorting, as in CSF).
pub fn convert_with_spec(src: &AnyTensor, spec: &FormatSpec) -> Result<CustomTensor, ConvertError> {
    spec.validate()?;
    let span = Span::enter("generic.remap");
    let source = src.columns(true)?;
    let shape = src.shape();
    if shape.order() != spec.remapping.source_order() {
        return Err(ConvertError::Unsupported(format!(
            "format {} remaps order-{} tensors, got an order-{} source",
            spec.name,
            spec.remapping.source_order(),
            shape.order()
        )));
    }

    // Phase 1: coordinate remapping (Section 4), into one row-major buffer
    // of `o` coordinates per nonzero.
    let remapping: &Remapping = &spec.remapping;
    let crd: Vec<&[usize]> = source.crd.iter().map(|c| &c[..]).collect();
    let mut rows = EvalContext::new(remapping).apply_columns(&crd)?;
    let (o, mut vals) = (remapping.dest_order(), source.vals);
    let src_nnz = vals.len();

    if spec.levels.contains(&LevelKind::Banded) || needs_prefix_grouping(&spec.levels) {
        let row = |p: usize| &rows[p * o..(p + 1) * o];
        // A banded level stores one contiguous run per parent fiber, bounded
        // above by the parent dimension's coordinate (the skyline profile).
        // Nonzeros above that bound fall outside every run, so they are
        // dropped here — exactly what the engine's skyline kernel does when
        // it converts the lower triangle of its source.
        let banded = |r: &[i64], k: usize| spec.levels[k] == LevelKind::Banded && r[k] > r[k - 1];
        let kept = |&p: &usize| !(1..spec.levels.len()).any(|k| banded(row(p), k));
        let mut order: Vec<usize> = (0..vals.len()).filter(kept).collect();
        // Compressed levels nested under non-full ancestors (CSF's fiber
        // chains) need the input grouped by coordinate prefix; a stable
        // lexicographic sort of the remapped nonzeros establishes exactly
        // the grouping the paper's sort-then-pack COO→CSF recipe uses.
        // Formats whose chains are full-rooted (CSR, DIA, ...) keep the
        // source iteration order.
        if needs_prefix_grouping(&spec.levels) {
            order.sort_by(|&a, &b| row(a).cmp(row(b)));
        }
        vals = order.iter().map(|&p| vals[p]).collect::<Vec<_>>().into();
        rows = order.iter().flat_map(|&p| row(p)).copied().collect();
    }
    let n = vals.len();
    let row = |p: usize| &rows[p * o..(p + 1) * o];
    span.add_items(n as u64);
    drop(span);

    // The dynamic driver sizes compressed levels from count-*distinct*
    // queries and gives each storage coordinate tuple one position, so
    // duplicate coordinates (which the monomorphised engine stores as
    // adjacent entries) cannot be assembled here; reject them instead of
    // overrunning or overwriting level arrays.
    let span = Span::enter("generic.analyse");
    span.add_items(n as u64);
    let (first, extent) = offsets(&rows, o, 0);
    let mut tuples = Dense::new(&first, extent);
    for k in 1..o {
        let (col, extent) = offsets(&rows, o, k);
        tuples = distinct_pairs(&tuples, &Dense::new(&col, extent)).0;
    }
    if tuples.distinct() < n {
        return Err(ConvertError::Unsupported(format!(
            "the dynamic converter requires duplicate-free coordinates for {} \
             targets; sum duplicates first (the engine path stores them verbatim)",
            spec.name
        )));
    }

    // Static bounds of each remapped dimension, used to size dense, squeezed,
    // and counter-derived dimensions.
    let env = BoundsEnv::for_remapping(remapping, shape.dims()).with_nnz(src_nnz);
    let bounds = crate::remap::infer_bounds(remapping, &env)?;

    // Phase 2: analysis (Section 5) — evaluate each level's attribute query
    // over the remapped coordinates.
    let mut queries: Vec<Option<QueryResult>> = Vec::with_capacity(spec.levels.len());
    let mut assemblers: Vec<AnyLevel> = Vec::with_capacity(spec.levels.len());
    for (k, kind) in spec.levels.iter().enumerate() {
        let assembler = make_assembler(*kind, bounds[k]);
        let query = assembler.required_query(&spec.dim_names, k);
        let eval = |q: AttrQuery| evaluate_on_rows(&q, &spec.dim_names, &bounds, n, &rows);
        queries.push(query.map(eval).transpose()?);
        assemblers.push(assembler);
    }
    drop(span);

    // Phase 3: assembly (Section 6, Figure 12), level by level from the top.
    let span = Span::enter("generic.assemble");
    span.add_items(n as u64);
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
            // its positions are gappy arithmetic, not ranks — so
            // `FormatSpec::validate` rejects such chains.)
            let ancestors_full = spec.levels[..k]
                .iter()
                .all(|a| matches!(a, LevelKind::Dense | LevelKind::Sliced));
            assembler.init_edges(parent_size, true, q);
            if ancestors_full {
                // An odometer over each ancestor's *assembled* fanout, not
                // the static bounds: a sliced level is dense over its
                // data-dependent slice count `K` (0 for an empty input, and
                // generally at most the dimension extent), with raw 0-based
                // coordinates. Position `p` is the `p`-th tuple in
                // lexicographic order; there are `parent_size` of them.
                let eff: Vec<DimBounds> = ancestors
                    .iter()
                    .zip(&bounds[..k])
                    .map(|(a, b)| match a {
                        AnyLevel::Sliced(l) => DimBounds::new(0, l.slice_count() as i64),
                        _ => *b,
                    })
                    .collect();
                let mut coords: Vec<i64> = eff.iter().map(|b| b.lower).collect();
                for p in 0..parent_size {
                    assembler.insert_edges(p, &coords, true, q);
                    for (c, b) in coords.iter_mut().zip(&eff).rev() {
                        *c += 1;
                        if *c < b.upper {
                            break;
                        }
                        *c = b.lower;
                    }
                }
            } else {
                let mut count = 0;
                for p in 0..n {
                    let prefix = &row(p)[..k];
                    if p == 0 || prefix != &row(p - 1)[..k] {
                        assembler.insert_edges(count, prefix, true, q);
                        count += 1;
                    }
                }
                debug_assert_eq!(count, parent_size, "one parent per distinct prefix");
            }
            assembler.finalize_edges(parent_size, true);
        }
        assembler.init_coords(parent_size, q);
        assembler.init_pos(parent_size);
        parent_size = match spec.levels[k] {
            // Full levels multiply their parents' positions by a fanout.
            LevelKind::Dense | LevelKind::Sliced | LevelKind::Squeezed => {
                parent_size.checked_mul(assembler.size(1)).ok_or_else(|| {
                    ConvertError::Unsupported(format!(
                        "format {}: levels 0..={k} have more than usize::MAX positions",
                        spec.name
                    ))
                })?
            }
            _ => assembler.size(parent_size),
        };
    }
    let total = parent_size;

    // Coordinate insertion, one level at a time over all nonzeros in order:
    // `pos[p]` walks nonzero `p` down the level chain. Each assembler sees
    // the same calls in the same order as in a nonzero-at-a-time walk.
    let mut pos = vec![0usize; n];
    for (k, assembler) in assemblers.iter_mut().enumerate() {
        let needs_dedup = assembler.position_kind() == PositionKind::Yield
            && k + 1 < spec.levels.len()
            && assembler.properties().unique;
        let mut insert = |parent: usize, p: usize| {
            let fresh = assembler.position(parent, &row(p)[..=k]);
            assembler.insert_coord(parent, fresh, &row(p)[..=k]);
            fresh
        };
        if needs_dedup {
            // A yield level inside the chain (e.g. an intermediate block
            // level) must stay duplicate-free, as Section 6.2 describes: the
            // first nonzero of each (parent position, coordinate) pair takes
            // a fresh position, and the others share it.
            let parents = pos.iter().max().map_or(0, |&m| m + 1);
            let (col, extent) = offsets(&rows, o, k);
            let ids = distinct_pairs(&Dense::new(&pos, parents), &Dense::new(&col, extent)).0;
            let mut first = vec![usize::MAX; ids.extent];
            for (p, &id) in ids.idx.iter().enumerate() {
                if first[id] == usize::MAX {
                    first[id] = insert(pos[p], p);
                }
                pos[p] = first[id];
            }
        } else {
            for (p, slot) in pos.iter_mut().enumerate() {
                *slot = insert(*slot, p);
            }
        }
    }
    for (k, assembler) in assemblers.iter_mut().enumerate() {
        assembler.finalize_pos(parent_sizes[k]);
    }
    // Levels whose size is only known as coordinates are interned (e.g.
    // hashed levels) grow the value array on demand.
    let mut out = vec![0.0; total.max(pos.iter().max().map_or(0, |&m| m + 1))];
    for (&q, &v) in pos.iter().zip(vals.iter()) {
        out[q] = v;
    }
    drop(span);

    // Extract per-level outputs.
    let levels: Vec<LevelOutput> = assemblers
        .into_iter()
        .enumerate()
        .map(|(k, assembler)| assembler.into_output(bounds[k]))
        .collect();
    Ok(CustomTensor {
        spec: spec.clone(),
        levels,
        vals: out,
        source_shape: shape,
        bounds,
        nnz: n,
    })
}

/// Column `k` of `rows` (`o` coordinates per nonzero) as offsets from its
/// least coordinate, and one past the largest offset.
fn offsets(rows: &[i64], o: usize, k: usize) -> (Vec<usize>, usize) {
    let col = rows.iter().skip(k).step_by(o);
    let lo = col.clone().min().copied().unwrap_or(0);
    let offsets: Vec<usize> = col.map(|&c| c.abs_diff(lo) as usize).collect();
    let extent = offsets.iter().max().map_or(0, |&m| m + 1);
    (offsets, extent)
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
    fn overflowing_full_level_positions_are_typed_errors() {
        // Two dense levels over a 2^33 x 2^33 matrix have 2^66 positions.
        let side = 1usize << 33;
        let t = SparseTriples::from_matrix_entries(side, side, vec![(side - 1, 3, 1.0)]).unwrap();
        let src = AnyTensor::Coo(CooMatrix::from_triples(&t));
        let dense = FormatSpec::new(
            "DENSE2",
            Remapping::identity(2),
            vec!["i", "j"],
            vec![LevelKind::Dense, LevelKind::Dense],
        );
        assert!(matches!(
            convert_with_spec(&src, &dense),
            Err(ConvertError::Unsupported(msg)) if msg.contains("usize::MAX positions")
        ));
        // Under a compressed level the same product is the group-by space of
        // its `count` query, which overflows first.
        let t = sparse_tensor::example::example3_tensor();
        let mut wide =
            SparseTriples::new(sparse_tensor::Shape::tensor3(side, side, t.shape().dim(2)));
        for tr in t.iter() {
            wide.push(tr.coord.clone(), tr.value).unwrap();
        }
        let src = AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&wide));
        let spec = FormatSpec::new(
            "DDC",
            Remapping::identity(3),
            vec!["i", "j", "k"],
            vec![LevelKind::Dense, LevelKind::Dense, LevelKind::Compressed],
        );
        assert_eq!(
            convert_with_spec(&src, &spec),
            Err(ConvertError::Query(
                crate::query::QueryError::GroupSpaceOverflow
            ))
        );
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
