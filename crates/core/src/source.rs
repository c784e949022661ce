//! The source-side abstraction: how the engine iterates over input tensors.
//!
//! Chou et al. (2018) describe iteration over coordinate hierarchies through
//! level functions; the engine captures the consequences of those level
//! functions that matter for conversion as a small trait: a way to visit
//! every nonzero with its canonical coordinates, the source-side half of a
//! schedule (how the source cuts into chunks that iterate independently:
//! [`SourceMatrix::chunks`] and [`SourceMatrix::for_each_in`]), plus the
//! properties the planner consults (are nonzeros grouped by row and visited
//! in row order? can per-row counts be read off the structure without
//! touching nonzeros?).

use std::borrow::Cow;
use std::ops::Range;

use sparse_formats::{
    BcsrMatrix, CooMatrix, CooTensor, CscMatrix, CsfTensor, CsrMatrix, DiaMatrix, DokMatrix,
    EllMatrix, JadMatrix, SkylineMatrix,
};
use sparse_tensor::{Shape, Value};

use crate::partition::{balanced_chunks_by_pos, even_chunks};

/// A matrix the conversion engine can read.
///
/// `for_each` visits nonzeros in the format's storage order with their
/// canonical `(row, column, value)`; the remaining methods expose the
/// structural properties and analysis fast paths the planner uses
/// (Sections 4.2 and 5.2).
pub trait SourceMatrix {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Number of stored nonzeros.
    fn nnz(&self) -> usize;

    /// Visits every nonzero in storage order.
    fn for_each<F: FnMut(usize, usize, Value)>(&self, f: F);

    /// Cuts the source into at most `parts` chunks for
    /// [`SourceMatrix::for_each_in`]: visiting the chunks in order visits
    /// every nonzero once, in storage order. What a chunk's range counts is
    /// the source's own business (nonzero positions for COO, where a row may
    /// straddle chunks; whole rows for CSR).
    ///
    /// The default is one chunk, the whole source; a source that overrides
    /// this overrides `for_each_in` with it.
    fn chunks(&self, _parts: usize) -> Vec<Range<usize>> {
        even_chunks(self.rows(), 1)
    }

    /// Visits the nonzeros of one chunk from [`SourceMatrix::chunks`] in
    /// storage order.
    fn for_each_in<F: FnMut(usize, usize, Value)>(&self, _chunk: Range<usize>, f: F) {
        self.for_each(f);
    }

    /// The nonzeros as `(row, column, value)` columns in storage order, the
    /// values only when `with_values` is set (COO and CSR lend theirs
    /// anyway), gathered through [`SourceMatrix::for_each`] by default.
    fn columns(&self, with_values: bool) -> MatrixColumns<'_> {
        let nnz = self.nnz();
        let (mut row, mut col) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let mut vals = Vec::with_capacity(if with_values { nnz } else { 0 });
        self.for_each(|i, j, v| {
            row.push(i);
            col.push(j);
            if with_values {
                vals.push(v);
            }
        });
        (row.into(), col.into(), vals.into())
    }

    /// True when nonzeros are grouped by row and rows are visited in
    /// ascending order (lets the planner use scalar counters and sequenced
    /// edge insertion).
    fn rows_in_order(&self) -> bool {
        false
    }

    /// Per-row nonzero counts. The default makes a counting pass; formats
    /// with a row `pos` array answer it by differencing (the optimised query
    /// of Section 5.2).
    fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows()];
        self.for_each(|i, _, _| counts[i] += 1);
        counts
    }

    /// Per-column nonzero counts (dual of [`SourceMatrix::row_counts`]).
    fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols()];
        self.for_each(|_, j, _| counts[j] += 1);
        counts
    }
}

/// A matrix's row, column and value columns ([`SourceMatrix::columns`]).
pub type MatrixColumns<'a> = (Cow<'a, [usize]>, Cow<'a, [usize]>, Cow<'a, [Value]>);

/// An order-`N` tensor the conversion engine can read — the rank-generic
/// counterpart of [`SourceMatrix`].
///
/// `for_each_coord` visits nonzeros in the format's storage order with their
/// full canonical coordinate tuple; `coords_in_order` reports whether that
/// order is already lexicographic (CSF walks its fiber tree in sorted order,
/// so sort-based kernels can skip their sorting pass).
pub trait SourceTensor {
    /// The tensor's canonical shape.
    fn shape(&self) -> &Shape;

    /// Number of stored nonzeros.
    fn nnz(&self) -> usize;

    /// Visits every nonzero in storage order with its coordinate tuple.
    fn for_each_coord<F: FnMut(&[i64], Value)>(&self, f: F);

    /// True when nonzeros are visited in lexicographic coordinate order.
    fn coords_in_order(&self) -> bool {
        false
    }
}

impl SourceTensor for CooTensor {
    fn shape(&self) -> &Shape {
        CooTensor::shape(self)
    }

    fn nnz(&self) -> usize {
        CooTensor::nnz(self)
    }

    fn for_each_coord<F: FnMut(&[i64], Value)>(&self, f: F) {
        self.for_each(f);
    }
}

impl SourceTensor for CsfTensor {
    fn shape(&self) -> &Shape {
        CsfTensor::shape(self)
    }

    fn nnz(&self) -> usize {
        CsfTensor::nnz(self)
    }

    fn for_each_coord<F: FnMut(&[i64], Value)>(&self, f: F) {
        self.for_each(f);
    }

    fn coords_in_order(&self) -> bool {
        // The fiber-tree walk visits coordinates lexicographically.
        true
    }
}

impl SourceMatrix for CooMatrix {
    fn rows(&self) -> usize {
        CooMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CooMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        CooMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, f: F) {
        self.for_each_in(0..CooMatrix::nnz(self), f);
    }

    /// Even ranges of nonzero positions.
    fn chunks(&self, parts: usize) -> Vec<Range<usize>> {
        even_chunks(CooMatrix::nnz(self), parts)
    }

    fn columns(&self, _: bool) -> MatrixColumns<'_> {
        let (row, col) = (self.row_indices(), self.col_indices());
        (row.into(), col.into(), self.values().into())
    }

    fn for_each_in<F: FnMut(usize, usize, Value)>(&self, chunk: Range<usize>, mut f: F) {
        let rows = &self.row_indices()[chunk.clone()];
        let cols = &self.col_indices()[chunk.clone()];
        let vals = &self.values()[chunk];
        for ((&i, &j), &v) in rows.iter().zip(cols).zip(vals) {
            f(i, j, v);
        }
    }
}

impl SourceMatrix for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, f: F) {
        self.for_each_in(0..CsrMatrix::rows(self), f);
    }

    /// Ranges of whole rows, balanced by the nonzeros they hold (read off
    /// `pos`).
    fn chunks(&self, parts: usize) -> Vec<Range<usize>> {
        balanced_chunks_by_pos(self.pos(), parts)
    }

    fn for_each_in<F: FnMut(usize, usize, Value)>(&self, chunk: Range<usize>, mut f: F) {
        let pos = self.pos();
        let crd = self.crd();
        let vals = self.values();
        for i in chunk {
            for p in pos[i]..pos[i + 1] {
                f(i, crd[p], vals[p]);
            }
        }
    }

    fn columns(&self, _: bool) -> MatrixColumns<'_> {
        let mut row = Vec::with_capacity(CsrMatrix::nnz(self));
        for (i, &end) in self.pos()[1..].iter().enumerate() {
            row.resize(end, i);
        }
        (row.into(), self.crd().into(), self.values().into())
    }

    fn rows_in_order(&self) -> bool {
        true
    }

    fn row_counts(&self) -> Vec<usize> {
        // The optimised `count(j)` query: pos[i+1] - pos[i], no nonzero pass.
        self.pos().windows(2).map(|w| w[1] - w[0]).collect()
    }

    fn col_counts(&self) -> Vec<usize> {
        // One flat pass over `crd`: the row structure does not matter.
        let mut counts = vec![0usize; CsrMatrix::cols(self)];
        for &j in self.crd() {
            counts[j] += 1;
        }
        counts
    }
}

impl SourceMatrix for CscMatrix {
    fn rows(&self) -> usize {
        CscMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CscMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        CscMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        let pos = self.pos();
        let crd = self.crd();
        let vals = self.values();
        for j in 0..CscMatrix::cols(self) {
            for p in pos[j]..pos[j + 1] {
                f(crd[p], j, vals[p]);
            }
        }
    }

    fn col_counts(&self) -> Vec<usize> {
        self.pos().windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl SourceMatrix for DiaMatrix {
    fn rows(&self) -> usize {
        DiaMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DiaMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        DiaMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        let rows = DiaMatrix::rows(self);
        let cols = DiaMatrix::cols(self) as i64;
        let vals = self.values();
        for (d, &k) in self.offsets().iter().enumerate() {
            for i in 0..rows {
                let j = i as i64 + k;
                if j < 0 || j >= cols {
                    continue;
                }
                let v = vals[d * rows + i];
                if v != 0.0 {
                    f(i, j as usize, v);
                }
            }
        }
    }
}

impl SourceMatrix for EllMatrix {
    fn rows(&self) -> usize {
        EllMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        EllMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        EllMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        let rows = EllMatrix::rows(self);
        let crd = self.crd();
        let vals = self.values();
        for k in 0..self.slices() {
            for i in 0..rows {
                let v = vals[k * rows + i];
                if v != 0.0 {
                    f(i, crd[k * rows + i], v);
                }
            }
        }
    }
}

impl SourceMatrix for BcsrMatrix {
    fn rows(&self) -> usize {
        BcsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        BcsrMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        BcsrMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        let (br, bc) = self.block_shape();
        let bsize = br * bc;
        let pos = self.pos();
        let crd = self.crd();
        let vals = self.values();
        for bi in 0..pos.len() - 1 {
            for p in pos[bi]..pos[bi + 1] {
                for li in 0..br {
                    for lj in 0..bc {
                        let v = vals[p * bsize + li * bc + lj];
                        let (i, j) = (bi * br + li, crd[p] * bc + lj);
                        if v != 0.0 && i < BcsrMatrix::rows(self) && j < BcsrMatrix::cols(self) {
                            f(i, j, v);
                        }
                    }
                }
            }
        }
    }

    fn rows_in_order(&self) -> bool {
        false
    }
}

impl SourceMatrix for SkylineMatrix {
    fn rows(&self) -> usize {
        self.dim()
    }

    fn cols(&self) -> usize {
        self.dim()
    }

    fn nnz(&self) -> usize {
        self.to_triples().nnz()
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        let pos = self.pos();
        let first = self.first();
        let vals = self.values();
        for i in 0..self.dim() {
            for (off, j) in (first[i]..=i).enumerate() {
                let v = vals[pos[i] + off];
                if v != 0.0 {
                    f(i, j, v);
                }
            }
        }
    }

    fn rows_in_order(&self) -> bool {
        true
    }
}

impl SourceMatrix for JadMatrix {
    fn rows(&self) -> usize {
        JadMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        JadMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        JadMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        for t in self.to_triples().iter() {
            f(t.coord[0] as usize, t.coord[1] as usize, t.value);
        }
    }
}

impl SourceMatrix for DokMatrix {
    fn rows(&self) -> usize {
        DokMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DokMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        DokMatrix::nnz(self)
    }

    fn for_each<F: FnMut(usize, usize, Value)>(&self, mut f: F) {
        for t in self.to_triples().iter() {
            f(t.coord[0] as usize, t.coord[1] as usize, t.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::figure1_matrix;
    use sparse_tensor::SparseTriples;

    fn collect<S: SourceMatrix>(s: &S) -> SparseTriples {
        let mut t = SparseTriples::new(sparse_tensor::Shape::matrix(s.rows(), s.cols()));
        s.for_each(|i, j, v| t.push(vec![i as i64, j as i64], v).expect("in bounds"));
        t
    }

    #[test]
    fn all_sources_iterate_the_same_nonzeros() {
        let t = figure1_matrix();
        assert!(collect(&CooMatrix::from_triples(&t)).same_values(&t));
        assert!(collect(&CsrMatrix::from_triples(&t)).same_values(&t));
        assert!(collect(&CscMatrix::from_triples(&t)).same_values(&t));
        assert!(collect(&DiaMatrix::from_triples(&t)).same_values(&t));
        assert!(collect(&EllMatrix::from_triples(&t)).same_values(&t));
        assert!(collect(&BcsrMatrix::from_triples(&t, 2, 2)).same_values(&t));
        assert!(collect(&JadMatrix::from_triples(&t)).same_values(&t));
        assert!(collect(&DokMatrix::from_triples(&t)).same_values(&t));
    }

    #[test]
    fn row_count_fast_path_matches_default() {
        let t = figure1_matrix();
        let csr = CsrMatrix::from_triples(&t);
        let coo = CooMatrix::from_triples(&t);
        assert_eq!(
            SourceMatrix::row_counts(&csr),
            SourceMatrix::row_counts(&coo)
        );
        assert_eq!(SourceMatrix::row_counts(&csr), vec![2, 2, 2, 3]);
        let csc = CscMatrix::from_triples(&t);
        assert_eq!(
            SourceMatrix::col_counts(&csc),
            SourceMatrix::col_counts(&coo)
        );
    }

    #[test]
    fn properties_reflect_storage() {
        let t = figure1_matrix();
        assert!(SourceMatrix::rows_in_order(&CsrMatrix::from_triples(&t)));
        assert!(!SourceMatrix::rows_in_order(&CooMatrix::from_triples(&t)));
        assert!(!SourceMatrix::rows_in_order(&CscMatrix::from_triples(&t)));
    }

    #[test]
    fn tensor_sources_iterate_the_same_nonzeros() {
        let t = sparse_tensor::example::example3_tensor();
        let coo = CooTensor::from_triples(&t);
        let csf = CsfTensor::from_triples(&t);
        let mut coo_seen = SparseTriples::new(t.shape().clone());
        SourceTensor::for_each_coord(&coo, |c, v| coo_seen.push(c.to_vec(), v).unwrap());
        assert_eq!(coo_seen, t, "COO preserves source order");
        let mut csf_seen = SparseTriples::new(t.shape().clone());
        SourceTensor::for_each_coord(&csf, |c, v| csf_seen.push(c.to_vec(), v).unwrap());
        assert!(csf_seen.is_sorted(), "CSF iterates in fiber-tree order");
        assert!(csf_seen.same_values(&t));
        assert!(!SourceTensor::coords_in_order(&coo));
        assert!(SourceTensor::coords_in_order(&csf));
        assert_eq!(SourceTensor::nnz(&csf), 8);
        assert_eq!(SourceTensor::shape(&coo).dims(), &[3, 4, 5]);
    }

    #[test]
    fn lent_columns_match_the_gathered_ones() {
        let t = figure1_matrix();
        let (coo, csr) = (CooMatrix::from_triples(&t), CsrMatrix::from_triples(&t));
        fn gathered<S: SourceMatrix>(s: &S) -> (Vec<usize>, Vec<usize>, Vec<Value>) {
            let mut cols = (Vec::new(), Vec::new(), Vec::new());
            s.for_each(|i, j, v| {
                cols.0.push(i);
                cols.1.push(j);
                cols.2.push(v);
            });
            cols
        }
        for (lent, want) in [
            (coo.columns(true), gathered(&coo)),
            (csr.columns(true), gathered(&csr)),
        ] {
            assert!(
                matches!(lent.1, Cow::Borrowed(_)),
                "column indices are lent"
            );
            assert_eq!(
                (&*lent.0, &*lent.1, &*lent.2),
                (&want.0[..], &want.1[..], &want.2[..])
            );
        }
        let csc = CscMatrix::from_triples(&t);
        let (row, col, vals) = csc.columns(true);
        assert_eq!((row.len(), col.len(), vals.len()), (9, 9, 9));
        // Without values the gather reads none.
        let (row, col, vals) = csc.columns(false);
        assert_eq!((row.len(), col.len(), vals.len()), (9, 9, 0));
    }

    #[test]
    fn skyline_source_iterates_lower_triangle() {
        let lower =
            SparseTriples::from_matrix_entries(3, 3, vec![(0, 0, 1.0), (2, 0, 2.0), (2, 2, 3.0)])
                .unwrap();
        let sky = SkylineMatrix::from_triples(&lower);
        assert!(collect(&sky).same_values(&lower));
        assert_eq!(SourceMatrix::nnz(&sky), 3);
    }
}
