//! Stats-driven automatic format selection.
//!
//! The paper's conversion machinery makes "which format?" a runtime decision
//! rather than a compile-time commitment; this module closes that loop with
//! a small attribute-driven selector in the spirit of Chou et al.'s format
//! abstraction: compute the tensor's structural statistics
//! ([`MatrixStats`]/[`TensorStats`]) and pick the storage format those
//! statistics pay for.
//!
//! The decision table (mirrored in `docs/ARCHITECTURE.md`):
//!
//! | order | condition (first match wins)            | format      |
//! |-------|-----------------------------------------|-------------|
//! | 2     | empty                                   | CSR         |
//! | 2     | DIA fill ≥ 25% (banded)                 | DIA         |
//! | 2     | 2×2 block fill ≥ 50%                    | BCSR2x2     |
//! | 2     | fewer nonempty columns than rows        | CSC         |
//! | 2     | otherwise                               | CSR         |
//! | 3     | min fiber overhead > 25% (no structure) | COO3        |
//! | 3     | otherwise                               | CSF@best    |
//!
//! where `CSF@best` is the mode ordering minimising the CSF tree's interior
//! fiber count ([`TensorStats::csf_fibers`]), canonical order winning ties.
//!
//! As in Chou et al.'s format abstraction, the statistics are read off the
//! coordinate arrays: COO and COO3 lend theirs, other matrix containers
//! stream into two columns, and only CSF and custom tensors use triples.

use obs::Span;
use sparse_tensor::{MatrixStats, TensorStats};

use crate::convert::{with_source, AnyTensor};
use crate::format::Format;
use crate::source::SourceMatrix;

/// All six order-3 mode orderings, canonical first (the selector's tie-break
/// order, and the sweep order the round-trip tests iterate).
pub const ORDER3_MODE_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// One structural-statistics pass over a tensor, shared between format
/// selection and the planner's attribute queries.
///
/// [`auto_select`] and [`TensorAttrs`](crate::planner::TensorAttrs) both
/// want numbers only a full walk over the coordinates can produce (the
/// decision table's statistics, the densest row's population for pricing ELL
/// targets).
/// Computing the profile once and handing it to both sides keeps that walk
/// to a single pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorProfile {
    /// Tensor order.
    pub order: usize,
    /// Number of stored nonzeros, duplicates included (the statistics
    /// behind `selected` count each coordinate once).
    pub nnz: usize,
    /// Maximum number of nonzeros in any row (order-2 inputs only; `None`
    /// when the input's order has no row notion or it cannot be read).
    pub max_nnz_per_row: Option<usize>,
    /// The storage format the decision table picks for this tensor.
    pub selected: Format,
}

impl TensorProfile {
    /// Computes the profile: one statistics pass, yielding both the
    /// auto-selected format and the attributes the planner prices with.
    pub fn compute(t: &AnyTensor) -> Self {
        let span = Span::enter("select.profile");
        // Columns of sources that do not store them (none if unreadable).
        let owned: Vec<Vec<usize>> = match t {
            AnyTensor::Coo(_) | AnyTensor::Coo3(_) => Vec::new(),
            AnyTensor::Csf(_) | AnyTensor::Custom(_) => {
                t.try_to_triples().map_or(Vec::new(), |tr| tr.columns())
            }
            m => {
                let nnz = m.nnz();
                let mut crd = vec![Vec::with_capacity(nnz), Vec::with_capacity(nnz)];
                with_source!(m, s => s.for_each(|i, j, _| {
                    crd[0].push(i);
                    crd[1].push(j);
                }));
                crd
            }
        };
        let crd: Vec<&[usize]> = match t {
            AnyTensor::Coo(m) => vec![m.row_indices(), m.col_indices()],
            AnyTensor::Coo3(c) => (0..c.order()).map(|d| c.crd(d)).collect(),
            _ => owned.iter().map(Vec::as_slice).collect(),
        };
        let shape = t.shape();
        let (selected, max_nnz_per_row) = match crd[..] {
            [row, col] => {
                let stats = MatrixStats::from_columns(shape.dim(0), shape.dim(1), row, col);
                (select_matrix(&stats), Some(stats.max_nnz_per_row))
            }
            [_, _, _] => (
                select_tensor3(&TensorStats::from_columns(&shape, &crd)),
                None,
            ),
            _ => (fallback(t.order()), None),
        };
        let nnz = crd.first().map_or(0, |c| c.len());
        span.add_items(nnz as u64);
        Self {
            order: t.order(),
            nnz,
            max_nnz_per_row,
            selected,
        }
    }
}

/// Picks a storage format for the tensor from its structural statistics; see
/// the module docs for the decision table. Always returns a format the
/// conversion stack accepts as a target for this tensor's order; inputs the
/// statistics cannot judge (unreadable custom sources, orders above 3) fall
/// back to the canonical format of their order. Callers that also feed the
/// planner should compute a [`TensorProfile`] instead and use both of its
/// halves.
pub fn auto_select(t: &AnyTensor) -> Format {
    TensorProfile::compute(t).selected
}

fn fallback(order: usize) -> Format {
    if order == 2 {
        Format::csr()
    } else {
        Format::csf()
    }
}

fn select_matrix(stats: &MatrixStats) -> Format {
    if stats.nnz == 0 {
        return Format::csr();
    }
    // Bandwidth: few nonzero diagonals that are mostly full store densely
    // per diagonal (the paper's DIA admissibility rule).
    if stats.dia_admissible() {
        return Format::dia();
    }
    // Density in blocks: nonzeros clustered into mostly-full 2x2 tiles
    // amortise the block machinery.
    let block_fill = stats.nnz as f64 / (4.0 * stats.blocks_2x2 as f64);
    if block_fill >= 0.5 {
        return Format::bcsr(2, 2);
    }
    // Fiber skew: root the compressed chain on the mode with fewer (hence
    // longer) fibers.
    if stats.nonempty_cols < stats.nonempty_rows {
        return Format::csc();
    }
    Format::csr()
}

fn select_tensor3(stats: &TensorStats) -> Format {
    if stats.nnz == 0 {
        return Format::csf();
    }
    let best = *ORDER3_MODE_ORDERS
        .iter()
        .min_by_key(|order| stats.csf_fibers(&order[..]))
        .expect("six candidate orders");
    // When even the best ordering opens a fresh innermost fiber for most
    // nonzeros, the pos arrays are pure overhead: keep plain coordinates.
    if stats.fiber_overhead(&best) > 0.25 {
        return Format::coo3();
    }
    Format::csf_ordered(&best).expect("candidate orders are permutations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::Shape;
    use sparse_tensor::SparseTriples;

    fn tensor3(coords: &[[i64; 3]]) -> AnyTensor {
        let dims = (0..3)
            .map(|d| coords.iter().map(|c| c[d] as usize + 1).max().unwrap_or(1))
            .collect();
        let mut t = SparseTriples::new(Shape::new(dims));
        for c in coords {
            t.push(c.to_vec(), 1.0).unwrap();
        }
        AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&t))
    }

    #[test]
    fn empty_matrix_defaults_to_csr() {
        let m = SparseTriples::new(Shape::matrix(4, 4));
        let src = AnyTensor::Coo(sparse_formats::CooMatrix::from_triples(&m));
        assert_eq!(auto_select(&src), Format::csr());
    }

    #[test]
    fn tridiagonal_matrix_selects_dia() {
        let mut m = SparseTriples::new(Shape::matrix(16, 16));
        for i in 0..16i64 {
            for j in [i - 1, i, i + 1] {
                if (0..16).contains(&j) {
                    m.push(vec![i, j], 1.0).unwrap();
                }
            }
        }
        let src = AnyTensor::Coo(sparse_formats::CooMatrix::from_triples(&m));
        assert_eq!(auto_select(&src), Format::dia());
    }

    #[test]
    fn scattered_dense_blocks_select_bcsr() {
        // Full 2x2 tiles at scattered block coordinates: block fill 1.0 but
        // only two sparse diagonals' worth of DIA fill.
        let mut m = SparseTriples::new(Shape::matrix(64, 64));
        for &(bi, bj) in &[(0i64, 7i64), (5, 1), (9, 30), (20, 2), (31, 31)] {
            for di in 0..2 {
                for dj in 0..2 {
                    m.push(vec![2 * bi + di, 2 * bj + dj], 1.0).unwrap();
                }
            }
        }
        let src = AnyTensor::Coo(sparse_formats::CooMatrix::from_triples(&m));
        assert_eq!(auto_select(&src), Format::bcsr(2, 2));
    }

    #[test]
    fn column_skew_selects_csc() {
        // 24 nonempty rows but only 2 nonempty columns: column-rooted fibers
        // are 12x longer.
        let mut m = SparseTriples::new(Shape::matrix(32, 32));
        for i in 0..24i64 {
            m.push(vec![i, 3 + 11 * (i % 2)], 1.0).unwrap();
        }
        let src = AnyTensor::Coo(sparse_formats::CooMatrix::from_triples(&m));
        assert_eq!(auto_select(&src), Format::csc());
    }

    #[test]
    fn long_canonical_fibers_select_stock_csf() {
        let coords: Vec<[i64; 3]> = (0..12).map(|k| [0, 0, k]).collect();
        assert_eq!(auto_select(&tensor3(&coords)), Format::csf());
    }

    #[test]
    fn mode_skew_selects_a_permuted_csf() {
        // Mode 1 is constant and mode 2 binary: rooting at mode 1 then 2
        // yields 3 interior fibers vs 20 for any canonical-rooted order.
        let mut coords = Vec::new();
        for i in 0..10i64 {
            for k in 0..2i64 {
                coords.push([i, 0, k]);
            }
        }
        let selected = auto_select(&tensor3(&coords));
        assert_eq!(selected.mode_order(), Some(vec![1, 2, 0]));
        assert_eq!(selected.name(), "CSF@1,2,0");
    }

    #[test]
    fn profile_agrees_with_auto_select_and_carries_row_stats() {
        let mut m = SparseTriples::new(Shape::matrix(8, 8));
        for j in 0..5i64 {
            m.push(vec![2, j], 1.0).unwrap();
        }
        m.push(vec![6, 1], 1.0).unwrap();
        let src = AnyTensor::Coo(sparse_formats::CooMatrix::from_triples(&m));
        let profile = TensorProfile::compute(&src);
        assert_eq!(profile.selected, auto_select(&src));
        assert_eq!(profile.order, 2);
        assert_eq!(profile.nnz, 6);
        assert_eq!(profile.max_nnz_per_row, Some(5));

        // Order-3 inputs have no row notion to report.
        let coords: Vec<[i64; 3]> = (0..12).map(|k| [0, 0, k]).collect();
        let profile3 = TensorProfile::compute(&tensor3(&coords));
        assert_eq!(profile3.selected, Format::csf());
        assert_eq!(profile3.max_nnz_per_row, None);
    }

    #[test]
    fn structureless_tensor_keeps_coordinates() {
        // A space diagonal: every ordering gives one singleton fiber per
        // nonzero.
        let coords: Vec<[i64; 3]> = (0..10).map(|i| [i, i, i]).collect();
        assert_eq!(auto_select(&tensor3(&coords)), Format::coo3());
    }
}
