//! Public conversion entry points.

use std::borrow::Cow;

use sparse_formats::{
    BcsrMatrix, CooMatrix, CooTensor, CscMatrix, CsfTensor, CsrMatrix, DiaMatrix, DokMatrix,
    EllMatrix, JadMatrix, SkylineMatrix,
};
use sparse_tensor::{Shape, SparseTriples, Value};

use crate::error::ConvertError;
use crate::format::Format;
use crate::generic::CustomTensor;
use crate::kernel_table::{self, KernelRow};
use crate::plan::ConversionPlan;
use crate::source::SourceMatrix;
use crate::spec::FormatSpec;
use crate::stock::FormatId;

/// A tensor in any supported format — the unified value type of the public
/// API. Matrix formats hold order-2 containers; the `Coo3` and `Csf`
/// variants hold the rank-`N` tensor containers; the `Custom` variant holds
/// a tensor assembled for a user-defined (registry) format, which is a valid
/// conversion *source* like every other variant.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTensor {
    /// COO storage.
    Coo(CooMatrix),
    /// CSR storage.
    Csr(CsrMatrix),
    /// CSC storage.
    Csc(CscMatrix),
    /// DIA storage.
    Dia(DiaMatrix),
    /// ELL storage.
    Ell(EllMatrix),
    /// BCSR storage.
    Bcsr(BcsrMatrix),
    /// Skyline storage.
    Skyline(SkylineMatrix),
    /// JAD storage.
    Jad(JadMatrix),
    /// DOK storage.
    Dok(DokMatrix),
    /// Rank-`N` COO storage.
    Coo3(CooTensor),
    /// Rank-`N` CSF storage.
    Csf(CsfTensor),
    /// A tensor assembled for a user-defined (registry) format by the
    /// spec-driven driver.
    Custom(Box<CustomTensor>),
}

/// Applies a closure to the contained matrix as a [`SourceMatrix`]. The
/// rank-`N` tensor and custom variants must be dispatched by the caller
/// *before* reaching this macro; they have no [`SourceMatrix`] view.
macro_rules! with_source {
    ($matrix:expr, $binding:ident => $body:expr) => {
        match $matrix {
            AnyTensor::Coo($binding) => $body,
            AnyTensor::Csr($binding) => $body,
            AnyTensor::Csc($binding) => $body,
            AnyTensor::Dia($binding) => $body,
            AnyTensor::Ell($binding) => $body,
            AnyTensor::Bcsr($binding) => $body,
            AnyTensor::Skyline($binding) => $body,
            AnyTensor::Jad($binding) => $body,
            AnyTensor::Dok($binding) => $body,
            AnyTensor::Coo3(_) | AnyTensor::Csf(_) | AnyTensor::Custom(_) => {
                unreachable!("tensor and custom variants are dispatched before with_source!")
            }
        }
    };
}
pub(crate) use with_source;

impl AnyTensor {
    /// The stock tag of the container this tensor is stored in (`None` for
    /// custom tensors): the container → [stock row](crate::stock::STOCK)
    /// map. Unlike [`AnyTensor::format`] it never touches the registry, so
    /// dispatch can match on it for free.
    pub(crate) fn tag(&self) -> Option<FormatId> {
        Some(match self {
            AnyTensor::Coo(_) => FormatId::Coo,
            AnyTensor::Csr(_) => FormatId::Csr,
            AnyTensor::Csc(_) => FormatId::Csc,
            AnyTensor::Dia(_) => FormatId::Dia,
            AnyTensor::Ell(_) => FormatId::Ell,
            AnyTensor::Bcsr(m) => {
                let (block_rows, block_cols) = m.block_shape();
                FormatId::Bcsr {
                    block_rows,
                    block_cols,
                }
            }
            AnyTensor::Skyline(_) => FormatId::Skyline,
            AnyTensor::Jad(_) => FormatId::Jad,
            AnyTensor::Dok(_) => FormatId::Dok,
            AnyTensor::Coo3(_) => FormatId::Coo3,
            AnyTensor::Csf(_) => FormatId::Csf,
            AnyTensor::Custom(_) => return None,
        })
    }

    /// The format this tensor is stored in, as a registry [`Format`] handle.
    pub fn format(&self) -> Format {
        match self {
            AnyTensor::Custom(t) => Format::intern_spec(&t.spec),
            stock => Format::stock(stock.tag().expect("non-custom tensors are stock")),
        }
    }

    /// The canonical shape of the stored tensor.
    pub fn shape(&self) -> Shape {
        match self {
            AnyTensor::Coo3(t) => t.shape().clone(),
            AnyTensor::Csf(t) => t.shape().clone(),
            AnyTensor::Custom(t) => t.shape().clone(),
            m => Shape::matrix(
                with_source!(m, s => SourceMatrix::rows(s)),
                with_source!(m, s => SourceMatrix::cols(s)),
            ),
        }
    }

    /// The tensor's order (number of dimensions).
    pub fn order(&self) -> usize {
        match self {
            AnyTensor::Coo3(t) => t.order(),
            AnyTensor::Csf(t) => t.order(),
            AnyTensor::Custom(t) => t.order(),
            _ => 2,
        }
    }

    /// Number of rows (the extent of the first dimension).
    pub fn rows(&self) -> usize {
        match self {
            AnyTensor::Coo3(t) => t.shape().dim(0),
            AnyTensor::Csf(t) => t.shape().dim(0),
            AnyTensor::Custom(t) => t.shape().dim(0),
            m => with_source!(m, s => SourceMatrix::rows(s)),
        }
    }

    /// Number of columns (the extent of the second dimension; 1 for order-1
    /// tensor containers, which have no second dimension).
    pub fn cols(&self) -> usize {
        let tensor_cols = |shape: &Shape| {
            if shape.order() > 1 {
                shape.dim(1)
            } else {
                1
            }
        };
        match self {
            AnyTensor::Coo3(t) => tensor_cols(t.shape()),
            AnyTensor::Csf(t) => tensor_cols(t.shape()),
            AnyTensor::Custom(t) => tensor_cols(t.shape()),
            m => with_source!(m, s => SourceMatrix::cols(s)),
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        match self {
            AnyTensor::Coo3(t) => t.nnz(),
            AnyTensor::Csf(t) => t.nnz(),
            AnyTensor::Custom(t) => t.nnz(),
            m => with_source!(m, s => SourceMatrix::nnz(s)),
        }
    }

    /// Number of *stored* entries a conversion pass must visit: for padded
    /// formats (DIA, ELL, BCSR, skyline) the full values buffer including
    /// explicit zeros, for custom tensors the materialised value stream,
    /// and the nonzero count for everything else. This is the input-size
    /// attribute cost models should scale read work by.
    pub fn stored_entries(&self) -> usize {
        match self {
            AnyTensor::Dia(m) => m.values().len(),
            AnyTensor::Ell(m) => m.values().len(),
            AnyTensor::Bcsr(m) => m.values().len(),
            AnyTensor::Skyline(m) => m.values().len(),
            AnyTensor::Custom(t) => t.vals.len(),
            other => other.nnz(),
        }
    }

    /// True when *this instance* iterates its nonzeros grouped by
    /// non-decreasing leading coordinate. Structurally row-major formats
    /// (CSR, skyline, CSF) always do; coordinate containers are checked
    /// against their stored index order (an O(nnz) early-exit scan), since
    /// a COO built from a row-major source replays rows in order while a
    /// shuffled one does not. Padded and column-major formats report false.
    pub fn iterates_rows_in_order(&self) -> bool {
        match self {
            AnyTensor::Coo(m) => m.row_indices().windows(2).all(|w| w[0] <= w[1]),
            AnyTensor::Coo3(t) => t.crd(0).windows(2).all(|w| w[0] <= w[1]),
            m => m.tag().is_some_and(|tag| tag.row().facts.rows_in_order),
        }
    }

    /// The nonzeros as one coordinate column per dimension, plus the values
    /// when `with_values` is set, in the order [`AnyTensor::try_to_triples`]
    /// lists them. COO and COO3 lend their arrays, other matrix containers
    /// stream through [`SourceMatrix::for_each`], and only CSF and custom
    /// tensors go through triples.
    pub(crate) fn columns(&self, with_values: bool) -> Result<Columns<'_>, ConvertError> {
        Ok(match self {
            AnyTensor::Coo(m) => Columns {
                crd: vec![m.row_indices().into(), m.col_indices().into()],
                vals: m.values().into(),
            },
            AnyTensor::Coo3(c) => Columns {
                crd: (0..c.order()).map(|d| c.crd(d).into()).collect(),
                vals: c.values().into(),
            },
            AnyTensor::Csf(_) | AnyTensor::Custom(_) => {
                let t = self.try_to_triples()?;
                let vals: Vec<Value> = if with_values {
                    t.iter().map(|tr| tr.value).collect()
                } else {
                    Vec::new()
                };
                let crd = t.columns().into_iter().map(Cow::Owned).collect();
                Columns {
                    crd,
                    vals: vals.into(),
                }
            }
            m => {
                let nnz = m.nnz();
                let (mut row, mut col) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
                let mut vals = Vec::with_capacity(if with_values { nnz } else { 0 });
                with_source!(m, s => s.for_each(|i, j, v| {
                    row.push(i);
                    col.push(j);
                    if with_values {
                        vals.push(v);
                    }
                }));
                let crd = vec![row.into(), col.into()];
                Columns {
                    crd,
                    vals: vals.into(),
                }
            }
        })
    }

    /// Converts to canonical triples (padding skipped).
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] for a custom tensor whose
    /// remapping is not invertible (such formats are conversion targets
    /// only); every other variant is infallible.
    pub fn try_to_triples(&self) -> Result<SparseTriples, ConvertError> {
        match self {
            AnyTensor::Coo3(t) => Ok(t.to_triples()),
            AnyTensor::Csf(t) => Ok(t.to_triples()),
            AnyTensor::Custom(t) => t.to_triples(),
            m => {
                let mut t = SparseTriples::with_capacity(self.shape(), self.nnz());
                with_source!(m, s => s.for_each(|i, j, v| {
                    t.push(vec![i as i64, j as i64], v).expect("source coordinates are in bounds");
                }));
                Ok(t)
            }
        }
    }

    /// Converts to canonical triples (padding skipped).
    ///
    /// # Panics
    ///
    /// Panics for a custom tensor whose remapping is not invertible; use
    /// [`AnyTensor::try_to_triples`] to handle that case as an error.
    pub fn to_triples(&self) -> SparseTriples {
        self.try_to_triples()
            .expect("this tensor's format cannot be read back; use try_to_triples")
    }

    /// Builds a tensor in the given format from canonical triples (via the
    /// reference constructors; conversion benchmarks use [`convert`] instead).
    /// Order-2 inputs route through [`CooMatrix`], higher orders through
    /// [`CooTensor`].
    ///
    /// # Errors
    ///
    /// Returns an error when the format cannot represent the input.
    pub fn from_triples<F: Into<Format>>(
        t: &SparseTriples,
        format: F,
    ) -> Result<Self, ConvertError> {
        let source = if t.order() == 2 {
            AnyTensor::Coo(CooMatrix::from_triples(t))
        } else {
            AnyTensor::Coo3(CooTensor::from_triples(t))
        };
        convert(&source, format)
    }
}

/// A tensor's nonzeros as coordinate columns: see [`AnyTensor::columns`].
#[derive(Default)]
pub(crate) struct Columns<'a> {
    /// One column per dimension.
    pub(crate) crd: Vec<Cow<'a, [usize]>>,
    /// The values (empty unless asked for).
    pub(crate) vals: Cow<'a, [Value]>,
}

/// Converts a tensor to the requested target format — the single public
/// entry point of the conversion stack. The target is a [`Format`] handle,
/// owned or borrowed, stock preset or builder-made.
///
/// This is [`convert_with`] at one thread: the routine comes from the
/// [kernel table](crate::kernel_table) — stock pairs run on the
/// monomorphised engine kernels; registry (custom) targets run on the
/// spec-driven dynamic driver; custom *sources* are lowered through their
/// level read-back and re-dispatched, so custom↔stock and custom↔custom
/// conversions round-trip like any other pair.
///
/// # Errors
///
/// Returns an error when the target cannot represent the input (e.g. skyline
/// targets require square matrices, matrix targets require order-2 sources),
/// [`ConvertError::UnsupportedTarget`] for formats without a
/// coordinate-hierarchy specification (DOK is supported only as a conversion
/// source), or [`ConvertError::UnsupportedSpec`] when a custom source's
/// remapping cannot be inverted.
pub fn convert<F: Into<Format>>(src: &AnyTensor, target: F) -> Result<AnyTensor, ConvertError> {
    convert_with(src, target, 1).map(|(tensor, _)| tensor)
}

/// [`convert`] on up to `threads` worker threads, also returning the
/// [`KernelRow`] that ran. The output is byte-identical at every thread
/// count; rows without a partitioned kernel (`!row.parallel`) ignore
/// `threads`.
///
/// # Errors
///
/// Exactly as [`convert`].
pub fn convert_with<F: Into<Format>>(
    src: &AnyTensor,
    target: F,
    threads: usize,
) -> Result<(AnyTensor, &'static KernelRow), ConvertError> {
    let target = target.into();
    let Some(row) = kernel_table::lookup(src, &target) else {
        return Err(match target.spec() {
            None => ConvertError::UnsupportedTarget(target),
            Some(_) => ConvertError::Unsupported(format!(
                "{target} targets cannot represent an order-{} {} source",
                src.order(),
                src.format()
            )),
        });
    };
    Ok(((row.run)(src, &target, threads)?, row))
}

/// Builds the conversion plan that [`convert`] follows for the given source
/// tensor and target format (for inspection, documentation, and ablation).
///
/// # Errors
///
/// Returns an error for targets without a coordinate-hierarchy specification
/// (DOK).
pub fn plan_for<F: Into<Format>>(
    src: &AnyTensor,
    target: F,
) -> Result<ConversionPlan, ConvertError> {
    let rows_in_order = match src {
        // CSF's fiber-tree walk visits roots in ascending order; COO makes no
        // ordering promise.
        AnyTensor::Coo3(_) => false,
        AnyTensor::Csf(_) => true,
        AnyTensor::Custom(t) => t.spec.iterates_rows_in_order(),
        m => with_source!(m, s => s.rows_in_order()),
    };
    let counts_from_structure = match src {
        AnyTensor::Custom(t) => t.spec.counts_from_structure(),
        _ => src
            .format()
            .spec()
            .is_some_and(FormatSpec::counts_from_structure),
    };
    plan_with_props(
        &src.format(),
        &target.into(),
        rows_in_order,
        counts_from_structure,
    )
}

/// Builds the conversion plan for a format *pair*, without a tensor
/// instance: the per-instance properties are derived from the formats'
/// specifications (the same values every stock container reports). This is
/// the planner entry point conversion services cache on — the plan for a
/// pair never changes between calls, so it only needs to be built once.
/// Registry (custom) formats plan exactly like stock ones.
///
/// # Errors
///
/// Returns an error for targets without a coordinate-hierarchy specification
/// (DOK).
pub fn plan_for_formats(source: &Format, target: &Format) -> Result<ConversionPlan, ConvertError> {
    let (rows_in_order, counts_from_structure) = source.spec().map_or((false, false), |s| {
        (s.iterates_rows_in_order(), s.counts_from_structure())
    });
    plan_with_props(source, target, rows_in_order, counts_from_structure)
}

fn plan_with_props(
    source: &Format,
    target: &Format,
    rows_in_order: bool,
    counts_from_structure: bool,
) -> Result<ConversionPlan, ConvertError> {
    let Some(target_spec) = target.spec() else {
        return Err(ConvertError::UnsupportedTarget(target.clone()));
    };
    // DOK sources are planned through the COO spec (they have no coordinate
    // hierarchy of their own).
    let coo = Format::coo();
    let source_spec = source.spec().or(coo.spec()).expect("COO carries a spec");
    Ok(ConversionPlan::new(
        source_spec,
        target_spec,
        rows_in_order,
        counts_from_structure,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::figure1_matrix;

    fn all_targets() -> Vec<Format> {
        vec![
            Format::coo(),
            Format::csr(),
            Format::csc(),
            Format::dia(),
            Format::ell(),
            Format::bcsr(2, 2),
            Format::jad(),
        ]
    }

    #[test]
    fn every_pair_of_evaluated_formats_roundtrips() {
        let t = figure1_matrix();
        // Every target format plus DOK (a valid *source* built directly).
        let mut sources: Vec<AnyTensor> = all_targets()
            .into_iter()
            .map(|f| AnyTensor::from_triples(&t, f).unwrap())
            .collect();
        sources.push(AnyTensor::Dok(DokMatrix::from_triples(&t)));
        for src in &sources {
            for dst in all_targets() {
                let converted = convert(src, &dst).unwrap();
                assert_eq!(converted.format(), dst);
                assert!(
                    converted.to_triples().same_values(&t),
                    "conversion {} -> {} lost values",
                    src.format(),
                    dst
                );
            }
        }
    }

    #[test]
    fn dok_target_is_rejected_without_aborting() {
        let t = figure1_matrix();
        let m = AnyTensor::from_triples(&t, Format::coo()).unwrap();
        assert_eq!(
            convert(&m, Format::dok()),
            Err(ConvertError::UnsupportedTarget(Format::dok()))
        );
        assert!(AnyTensor::from_triples(&t, Format::dok()).is_err());
    }

    #[test]
    fn format_metadata_accessors() {
        let t = figure1_matrix();
        let m = AnyTensor::from_triples(&t, Format::csr()).unwrap();
        assert_eq!(m.format(), Format::csr());
        assert_eq!(m.tag(), Some(FormatId::Csr));
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 6);
        assert_eq!(m.nnz(), 9);
    }

    #[test]
    fn order_3_sources_convert_between_tensor_formats() {
        let t = sparse_tensor::example::example3_tensor();
        let coo3 = AnyTensor::from_triples(&t, Format::coo3()).unwrap();
        assert_eq!(coo3.format(), Format::coo3());
        assert_eq!(coo3.order(), 3);
        assert_eq!(coo3.shape().dims(), &[3, 4, 5]);
        assert_eq!(coo3.nnz(), 8);
        let csf = convert(&coo3, Format::csf()).unwrap();
        assert_eq!(csf.format(), Format::csf());
        assert!(csf.to_triples().same_values(&t));
        let back = convert(&csf, Format::coo3()).unwrap();
        assert!(back.to_triples().same_values(&t));
        // Identity conversions work on both tensor formats.
        assert!(convert(&coo3, Format::coo3()).is_ok());
        assert!(convert(&csf, Format::csf()).is_ok());
    }

    #[test]
    fn rank_mismatches_are_rejected_with_errors() {
        let t3 = sparse_tensor::example::example3_tensor();
        let coo3 = AnyTensor::from_triples(&t3, Format::coo3()).unwrap();
        // Tensor source, matrix target.
        assert!(matches!(
            convert(&coo3, Format::csr()),
            Err(ConvertError::Unsupported(_))
        ));
        assert!(matches!(
            convert(&coo3, Format::dok()),
            Err(ConvertError::UnsupportedTarget(_))
        ));
        // Matrix source, COO3 target.
        let m = AnyTensor::from_triples(&figure1_matrix(), Format::coo()).unwrap();
        assert!(matches!(
            convert(&m, Format::coo3()),
            Err(ConvertError::Unsupported(_))
        ));
        // Matrix source, CSF target: supported (order-2 CSF is DCSR).
        let dcsr = convert(&m, Format::csf()).unwrap();
        assert_eq!(dcsr.format(), Format::csf());
        assert_eq!(dcsr.order(), 2);
        assert!(dcsr.to_triples().same_values(&figure1_matrix()));
        // An order-2 CSF is a valid *source* for matrix targets too: the
        // matrix -> CSF -> matrix round-trip closes through triples.
        let back = convert(&dcsr, Format::csr()).unwrap();
        assert_eq!(back.format(), Format::csr());
        assert!(back.to_triples().same_values(&figure1_matrix()));
        assert!(convert(&dcsr, Format::ell()).is_ok());
        assert_eq!(
            convert(&dcsr, Format::dok()),
            Err(ConvertError::UnsupportedTarget(Format::dok()))
        );
        // An order-2 CSF cannot masquerade as COO3 either — the COO3 target
        // is strictly order-3 regardless of the source container.
        assert!(matches!(
            convert(&dcsr, Format::coo3()),
            Err(ConvertError::Unsupported(_))
        ));
        assert!(convert(&dcsr, Format::csf()).is_ok());
    }

    #[test]
    fn tensor_pairs_have_plans() {
        let plan = plan_for_formats(&Format::coo3(), &Format::csf()).unwrap();
        assert_eq!(plan.source, "COO3");
        assert_eq!(plan.target, "CSF");
        assert_eq!(plan.counters, crate::plan::CounterStrategy::NotNeeded);
        let t = sparse_tensor::example::example3_tensor();
        let coo3 = AnyTensor::from_triples(&t, Format::coo3()).unwrap();
        assert_eq!(plan_for(&coo3, Format::csf()).unwrap(), plan);
        let csf = convert(&coo3, Format::csf()).unwrap();
        assert_eq!(
            plan_for(&csf, Format::coo3()).unwrap(),
            plan_for_formats(&Format::csf(), &Format::coo3()).unwrap()
        );
        assert_eq!(Format::csf().order(), 3);
        assert_eq!(Format::csr().order(), 2);
    }

    #[test]
    fn skyline_target_requires_square_input() {
        let t = figure1_matrix();
        let m = AnyTensor::from_triples(&t, Format::coo()).unwrap();
        assert!(matches!(
            convert(&m, Format::skyline()),
            Err(ConvertError::Unsupported(_))
        ));
    }

    #[test]
    fn plans_are_available_for_every_benchmarked_pair() {
        let t = figure1_matrix();
        let coo = AnyTensor::from_triples(&t, Format::coo()).unwrap();
        let csr = AnyTensor::from_triples(&t, Format::csr()).unwrap();
        let plan = plan_for(&coo, Format::csr()).unwrap();
        assert_eq!(plan.counters, crate::plan::CounterStrategy::NotNeeded);
        let plan = plan_for(&csr, Format::ell()).unwrap();
        assert_eq!(plan.counters, crate::plan::CounterStrategy::Scalar);
        let plan = plan_for(&coo, Format::ell()).unwrap();
        assert_eq!(plan.counters, crate::plan::CounterStrategy::Array);
        assert!(plan_for(&coo, Format::dok()).is_err());
    }

    #[test]
    fn instance_free_planning_agrees_with_instance_planning() {
        let t = figure1_matrix();
        for src in [Format::coo(), Format::csr(), Format::csc()] {
            let m = AnyTensor::from_triples(&t, &src).unwrap();
            for dst in all_targets() {
                assert_eq!(
                    plan_for_formats(&src, &dst).unwrap(),
                    plan_for(&m, &dst).unwrap(),
                    "{src} -> {dst}"
                );
            }
        }
        assert_eq!(
            plan_for_formats(&Format::csr(), &Format::dok()),
            Err(ConvertError::UnsupportedTarget(Format::dok()))
        );
    }
}
