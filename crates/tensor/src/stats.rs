//! Structural statistics of sparse matrices and tensors.
//!
//! These are exactly the quantities reported in Table 2 of the paper
//! (dimensions, nonzero count, number of nonzero diagonals, maximum nonzeros
//! per row), plus a few more that the workload generators, the DIA/ELL
//! admissibility checks and format selection need (bandwidth, non-empty
//! rows and columns, occupied 2×2 tiles, per-mode fiber counts).
//!
//! Every statistic is read off coordinate columns in linear passes without
//! hashing: positions are bucketed by one coordinate (a counting sort) and
//! first occurrences of another found with a stamp array. A dimension whose
//! extent exceeds 16 × nnz is first replaced by ranks among its distinct
//! values (sort + dedup), so scratch stays O(nnz + extents) and O(nnz) per
//! sparse dimension.

use std::borrow::Cow;

use crate::coord::Shape;
use crate::triples::SparseTriples;

/// Structural statistics of a sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of stored nonzeros (after duplicate summation).
    pub nnz: usize,
    /// Number of distinct diagonals (`j - i` offsets) containing a nonzero.
    pub nonzero_diagonals: usize,
    /// Maximum number of nonzeros in any row.
    pub max_nnz_per_row: usize,
    /// Lower bandwidth: `max(i - j)` over nonzeros (0 if none below diagonal).
    pub lower_bandwidth: usize,
    /// Upper bandwidth: `max(j - i)` over nonzeros (0 if none above diagonal).
    pub upper_bandwidth: usize,
    /// Number of rows holding at least one nonzero.
    pub nonempty_rows: usize,
    /// Number of columns holding at least one nonzero.
    pub nonempty_cols: usize,
    /// Number of even-aligned 2×2 tiles holding at least one nonzero.
    pub blocks_2x2: usize,
}

impl MatrixStats {
    /// Computes statistics for an order-2 [`SparseTriples`] tensor.
    ///
    /// Duplicate coordinates are counted once (the paper's matrices are
    /// duplicate-free SuiteSparse matrices).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order 2.
    pub fn compute(m: &SparseTriples) -> Self {
        assert_eq!(m.order(), 2, "MatrixStats requires an order-2 tensor");
        let crd = m.columns();
        Self::from_columns(m.shape().rows(), m.shape().cols(), &crd[0], &crd[1])
    }

    /// Computes statistics for a `rows × cols` matrix whose nonzero `p` sits
    /// at `(row[p], col[p])`, in any order, counting duplicates once. Panics
    /// if the columns differ in length or a coordinate is out of bounds.
    pub fn from_columns(rows: usize, cols: usize, row: &[usize], col: &[usize]) -> Self {
        assert_eq!(row.len(), col.len(), "one column per row coordinate");
        let c = Dense::new(col, cols);
        let (pairs, per_row) = distinct_pairs(&Dense::new(row, rows), &c);
        let half = |crd: &[usize]| -> Vec<usize> { crd.iter().map(|&x| x / 2).collect() };
        let (tile_row, tile_col) = (half(row), half(col));
        let (tiles, _) = distinct_pairs(
            &Dense::new(&tile_row, rows.div_ceil(2)),
            &Dense::new(&tile_col, cols.div_ceil(2)),
        );
        // Diagonals on or above the main one by `j - i`, below it by `i - j`,
        // so no offset needs a sign.
        let (mut upper, mut lower) = (Vec::new(), Vec::new());
        for (&i, &j) in row.iter().zip(col) {
            if j >= i {
                upper.push(j - i);
            } else {
                lower.push(i - j);
            }
        }
        MatrixStats {
            rows,
            cols,
            nnz: pairs.extent,
            nonzero_diagonals: Dense::new(&upper, cols).distinct()
                + Dense::new(&lower, rows).distinct(),
            max_nnz_per_row: per_row.iter().copied().max().unwrap_or(0),
            lower_bandwidth: lower.iter().copied().max().unwrap_or(0),
            upper_bandwidth: upper.iter().copied().max().unwrap_or(0),
            nonempty_rows: per_row.iter().filter(|&&n| n > 0).count(),
            nonempty_cols: c.distinct(),
            blocks_2x2: tiles.extent,
        }
    }

    /// Fraction of stored values that are nonzero if the matrix were stored in
    /// DIA (one dense column of length `rows` per nonzero diagonal).
    pub fn dia_fill(&self) -> f64 {
        if self.nonzero_diagonals == 0 {
            return 0.0;
        }
        self.nnz as f64 / (self.nonzero_diagonals as f64 * self.rows as f64)
    }

    /// Fraction of stored values that are nonzero if the matrix were stored in
    /// ELL (`max_nnz_per_row` slots per row).
    pub fn ell_fill(&self) -> f64 {
        if self.max_nnz_per_row == 0 {
            return 0.0;
        }
        self.nnz as f64 / (self.max_nnz_per_row as f64 * self.rows as f64)
    }

    /// The paper omits DIA/ELL results for matrices that would be stored with
    /// more than 75% explicit zeros; this reproduces that admissibility test.
    pub fn dia_admissible(&self) -> bool {
        self.dia_fill() >= 0.25
    }

    /// See [`MatrixStats::dia_admissible`]; same 25%-fill rule for ELL.
    pub fn ell_admissible(&self) -> bool {
        self.ell_fill() >= 0.25
    }
}

/// Structural statistics of an order-N tensor: the mode-level attribute
/// queries a format selector needs to pick a CSF mode ordering (fiber counts
/// along each candidate order) or to judge whether fiber compression pays
/// off at all.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorStats {
    /// Tensor order (number of dimensions).
    pub order: usize,
    /// Number of distinct nonzero coordinates.
    pub nnz: usize,
    /// Distinct coordinate values per mode (`distinct[d]` is the number of
    /// root fibers of a CSF tree with mode `d` outermost).
    pub distinct: Vec<usize>,
    /// Distinct coordinate *pairs* over modes `(d, e)`, indexed `[d][e]`
    /// (the number of depth-1 fibers of a CSF tree ordered `d` then `e`).
    /// The diagonal repeats `distinct`.
    pub pair_distinct: Vec<Vec<usize>>,
}

impl TensorStats {
    /// Computes statistics for a [`SparseTriples`] tensor of any order.
    /// Duplicate coordinates are counted once, like [`MatrixStats::compute`].
    pub fn compute(t: &SparseTriples) -> Self {
        let crd = t.columns();
        let crd: Vec<&[usize]> = crd.iter().map(Vec::as_slice).collect();
        Self::from_columns(t.shape(), &crd)
    }

    /// Computes statistics for a tensor of `shape` whose nonzero `p` has
    /// coordinate `crd[d][p]` in dimension `d`, in any order, counting
    /// duplicates once. Panics unless there is one equally long column per
    /// dimension with every coordinate in bounds.
    pub fn from_columns(shape: &Shape, crd: &[&[usize]]) -> Self {
        let (order, n) = (shape.order(), crd.first().map_or(0, |c| c.len()));
        let equal = crd.len() == order && crd.iter().all(|c| c.len() == n);
        assert!(equal, "one equally long column per dimension");
        let dims = crd.iter().zip(shape.dims());
        let dense: Vec<Dense> = dims.map(|(col, &extent)| Dense::new(col, extent)).collect();
        let distinct: Vec<usize> = dense.iter().map(Dense::distinct).collect();
        let mut pair_distinct = vec![vec![0usize; order]; order];
        for d in 0..order {
            pair_distinct[d][d] = distinct[d];
            for e in d + 1..order {
                let pairs = distinct_pairs(&dense[d], &dense[e]).0.extent;
                pair_distinct[d][e] = pairs;
                pair_distinct[e][d] = pairs;
            }
        }
        // Distinct tuples: number the distinct prefixes one mode at a time.
        let mut prefix: Option<Dense> = None;
        for next in &dense[1..] {
            prefix = Some(distinct_pairs(prefix.as_ref().unwrap_or(&dense[0]), next).0);
        }
        TensorStats {
            order,
            nnz: prefix.map_or(distinct[0], |p| p.extent),
            distinct,
            pair_distinct,
        }
    }

    /// Number of interior fibers (all tree nodes above the leaf coordinates)
    /// of a CSF tree packed along `mode_order` — the quantity a mode-order
    /// selector minimises. Supported for orders up to 3, where the singles
    /// and pairs tracked here cover every prefix.
    ///
    /// # Panics
    ///
    /// Panics if `mode_order` does not have one entry per mode or the order
    /// exceeds 3.
    pub fn csf_fibers(&self, mode_order: &[usize]) -> usize {
        assert_eq!(mode_order.len(), self.order, "one mode per dimension");
        assert!(self.order <= 3, "prefix statistics cover orders up to 3");
        match mode_order {
            [] | [_] => 0,
            [o0, _] => self.distinct[*o0],
            [o0, o1, _] => self.distinct[*o0] + self.pair_distinct[*o0][*o1],
            _ => unreachable!("order checked above"),
        }
    }

    /// Fraction of leaf coordinates that start a fresh innermost fiber when
    /// packed along `mode_order`: 1.0 means every nonzero sits in its own
    /// fiber (CSF's `pos` arrays are pure overhead), small values mean long
    /// fibers (compression pays off).
    pub fn fiber_overhead(&self, mode_order: &[usize]) -> f64 {
        if self.nnz == 0 {
            return 0.0;
        }
        match mode_order {
            [] | [_] => 0.0,
            [o0, _] => self.distinct[*o0] as f64 / self.nnz as f64,
            [o0, o1, _] => self.pair_distinct[*o0][*o1] as f64 / self.nnz as f64,
            _ => panic!("prefix statistics cover orders up to 3"),
        }
    }
}

/// A coordinate column as indices below `extent`: the column itself while
/// its extent is at most 16 × its length, else each coordinate's rank among
/// the column's distinct values.
struct Dense<'a> {
    idx: Cow<'a, [usize]>,
    extent: usize,
}

impl<'a> Dense<'a> {
    fn new(col: &'a [usize], extent: usize) -> Self {
        // A borrowed column's out-of-bounds coordinates fail the indexing
        // that consumes them.
        if extent <= col.len().saturating_mul(16) {
            let idx = Cow::Borrowed(col);
            return Dense { idx, extent };
        }
        let mut values = col.to_vec();
        values.sort_unstable();
        values.dedup();
        assert!(values.last() < Some(&extent), "coordinate out of bounds");
        let rank = |c: &usize| values.partition_point(|v| v < c);
        let (idx, extent) = (Cow::Owned(col.iter().map(rank).collect()), values.len());
        Dense { idx, extent }
    }

    /// Number of distinct indices.
    fn distinct(&self) -> usize {
        let mut seen = vec![false; self.extent];
        let first = |k: &&usize| !std::mem::replace(&mut seen[**k], true);
        self.idx.iter().filter(first).count()
    }
}

/// Numbers the distinct `(key, val)` index pairs: returns each position's
/// pair id (the extent is the number of pairs) and the pairs per key.
fn distinct_pairs(key: &Dense, val: &Dense) -> (Dense<'static>, Vec<usize>) {
    // Bucket positions by key (a counting sort); placing a position
    // advances `start[k]`, which ends at the next group's start.
    let mut start = vec![0usize; key.extent + 1];
    for &k in key.idx.iter() {
        start[k + 1] += 1;
    }
    for k in 0..key.extent {
        start[k + 1] += start[k];
    }
    let mut grouped = vec![0usize; key.idx.len()];
    for (p, &k) in key.idx.iter().enumerate() {
        grouped[start[k]] = p;
        start[k] += 1;
    }
    // Inside group `k`, `stamp[v] == k` marks a `val` seen before.
    let (mut stamp, mut id_of) = (vec![usize::MAX; val.extent], vec![0usize; val.extent]);
    let (mut ids, mut per_key) = (vec![0usize; key.idx.len()], vec![0usize; key.extent]);
    let (mut pairs, mut first) = (0, 0);
    for (k, &end) in start[..key.extent].iter().enumerate() {
        for &p in &grouped[first..end] {
            let v = val.idx[p];
            if std::mem::replace(&mut stamp[v], k) != k {
                (id_of[v], pairs, per_key[k]) = (pairs, pairs + 1, per_key[k] + 1);
            }
            ids[p] = id_of[v];
        }
        first = end;
    }
    let idx = Cow::Owned(ids);
    (Dense { idx, extent: pairs }, per_key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::figure1_matrix;

    #[test]
    fn figure1_statistics() {
        // The Figure 1 matrix: 4x6, 9 nonzeros, 5 nonzero diagonals
        // (offsets -2, 0, 1 plus the singletons at (1,3)->2 and (3,4)->1...).
        let stats = MatrixStats::compute(&figure1_matrix());
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.cols, 6);
        assert_eq!(stats.nnz, 9);
        assert_eq!(stats.max_nnz_per_row, 3);
        // Offsets present: 0-0=0, 1-0=1, 1-1=0, 2-1=1, 0-2=-2, 2-2=0, 3-1=-2, 3-3=0, 4-3=1
        assert_eq!(stats.nonzero_diagonals, 3);
        assert_eq!(stats.lower_bandwidth, 2);
        assert_eq!(stats.upper_bandwidth, 1);
    }

    #[test]
    fn fill_ratios() {
        let stats = MatrixStats::compute(&figure1_matrix());
        let dia = stats.dia_fill();
        let ell = stats.ell_fill();
        assert!((dia - 9.0 / 12.0).abs() < 1e-12);
        assert!((ell - 9.0 / 12.0).abs() < 1e-12);
        assert!(stats.dia_admissible());
        assert!(stats.ell_admissible());
    }

    #[test]
    fn empty_matrix_statistics() {
        let m = SparseTriples::new(crate::Shape::matrix(3, 3));
        let stats = MatrixStats::compute(&m);
        assert_eq!(stats.nnz, 0);
        assert_eq!(stats.nonzero_diagonals, 0);
        assert_eq!(stats.max_nnz_per_row, 0);
        assert_eq!(stats.dia_fill(), 0.0);
        assert_eq!(stats.ell_fill(), 0.0);
        assert!(!stats.dia_admissible());
        assert!(!stats.ell_admissible());
    }

    #[test]
    fn duplicates_counted_once() {
        let m = SparseTriples::from_matrix_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap();
        let stats = MatrixStats::compute(&m);
        assert_eq!(stats.nnz, 1);
        assert_eq!(stats.max_nnz_per_row, 1);
    }

    #[test]
    fn rows_columns_and_tiles_are_counted_once() {
        // (0,0), (1,1) share a tile; (2,5) and a duplicate of it; (3,4) sits
        // in the tile below-left of (2,5)'s.
        let (row, col) = ([0, 1, 2, 2, 3], [0, 1, 5, 5, 4]);
        let stats = MatrixStats::from_columns(4, 6, &row, &col);
        assert_eq!(stats.nnz, 4);
        assert_eq!(stats.nonempty_rows, 4);
        assert_eq!(stats.nonempty_cols, 4);
        assert_eq!(stats.blocks_2x2, 2);
        assert_eq!(stats.nonzero_diagonals, 3);
        assert_eq!((stats.lower_bandwidth, stats.upper_bandwidth), (0, 3));
    }

    #[test]
    fn extents_far_beyond_the_nonzeros_profile_in_nonzero_memory() {
        // A 4 x 2^40 matrix: dense scratch over the columns would need
        // terabytes, ranks need five entries.
        let wide = 1usize << 40;
        let (row, col) = ([3, 0, 3, 1, 3], [wide - 1, 7, wide - 1, wide - 2, 6]);
        let stats = MatrixStats::from_columns(4, wide, &row, &col);
        assert_eq!(stats.nnz, 4);
        assert_eq!(stats.max_nnz_per_row, 2);
        assert_eq!((stats.nonempty_rows, stats.nonempty_cols), (3, 4));
        assert_eq!(stats.blocks_2x2, 4);
        assert_eq!(stats.nonzero_diagonals, 4);
        assert_eq!(stats.upper_bandwidth, wide - 3);
        let tall = MatrixStats::from_columns(wide, 4, &col, &row);
        assert_eq!(tall.nnz, 4);
        assert_eq!(tall.max_nnz_per_row, 1);
        assert_eq!((tall.nonempty_rows, tall.nonempty_cols), (4, 3));
        assert_eq!(tall.lower_bandwidth, wide - 3);

        let shape = Shape::tensor3(wide, 2, wide);
        let t = TensorStats::from_columns(&shape, &[&col, &[0, 1, 0, 1, 1], &col]);
        assert_eq!(t.nnz, 4);
        assert_eq!(t.distinct, vec![4, 2, 4]);
        assert_eq!(t.pair_distinct[0][1], 4);
        assert_eq!(t.pair_distinct[1][2], 4);
        assert_eq!(t.pair_distinct[0][2], 4);
    }

    #[test]
    fn tensor_statistics_count_prefixes_and_duplicates_once() {
        let t = crate::example::example3_tensor();
        let stats = TensorStats::compute(&t);
        assert_eq!(stats.nnz, t.nnz());
        let mut dup = t.clone();
        dup.push(t.triples()[0].coord.clone(), 1.0).unwrap();
        assert_eq!(TensorStats::compute(&dup), stats);
        for d in 0..3 {
            for e in 0..3 {
                let mut pairs: Vec<(i64, i64)> =
                    t.iter().map(|tr| (tr.coord[d], tr.coord[e])).collect();
                pairs.sort_unstable();
                pairs.dedup();
                let expected = if d == e {
                    stats.distinct[d]
                } else {
                    pairs.len()
                };
                assert_eq!(stats.pair_distinct[d][e], expected, "modes {d},{e}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_columns_panic() {
        MatrixStats::from_columns(2, 2, &[0, 2], &[0, 0]);
    }
}
