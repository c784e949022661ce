//! The DIA (diagonal) format: nonzeros are grouped by diagonal (Figure 2c).

use sparse_tensor::{SparseTriples, TensorError, Value};

/// A sparse matrix in DIA format.
///
/// For each of the `K` stored diagonals, identified by its offset
/// `k = j - i` in the `offsets` array (the paper's `perm` array), DIA stores
/// a dense strip of `rows` values. The value of component `(i, i + offset)`
/// of diagonal `d` lives at `vals[d * rows + i]`; positions whose column
/// falls outside the matrix are padding zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<i64>,
    vals: Vec<Value>,
}

impl DiaMatrix {
    /// Creates a DIA matrix from its offsets and value strips.
    ///
    /// # Errors
    ///
    /// Returns an error if `vals.len() != offsets.len() * rows`, if any offset
    /// is outside `[-(rows-1), cols-1]`, or if offsets repeat.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        offsets: Vec<i64>,
        vals: Vec<Value>,
    ) -> Result<Self, TensorError> {
        if vals.len() != offsets.len() * rows {
            return Err(TensorError::InvalidStructure(format!(
                "DIA vals has length {}, expected {}",
                vals.len(),
                offsets.len() * rows
            )));
        }
        for (n, &k) in offsets.iter().enumerate() {
            if k < -(rows as i64 - 1) || k > cols as i64 - 1 {
                return Err(TensorError::InvalidStructure(format!(
                    "DIA offset {k} outside valid range for {rows}x{cols}"
                )));
            }
            if offsets[..n].contains(&k) {
                return Err(TensorError::InvalidStructure(format!(
                    "duplicate DIA offset {k}"
                )));
            }
        }
        Ok(DiaMatrix {
            rows,
            cols,
            offsets,
            vals,
        })
    }

    /// Builds a DIA matrix from canonical triples (reference construction:
    /// collect the set of nonzero diagonals, then scatter values).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order 2.
    pub fn from_triples(t: &SparseTriples) -> Self {
        assert_eq!(t.order(), 2, "DIA matrices are order-2 tensors");
        let rows = t.shape().rows();
        let cols = t.shape().cols();
        let mut offsets: Vec<i64> = t.iter().map(|tr| tr.coord[1] - tr.coord[0]).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let mut vals = vec![0.0; offsets.len() * rows];
        for tr in t.iter() {
            let k = tr.coord[1] - tr.coord[0];
            let d = offsets.binary_search(&k).expect("offset present");
            vals[d * rows + tr.coord[0] as usize] = tr.value;
        }
        DiaMatrix {
            rows,
            cols,
            offsets,
            vals,
        }
    }

    /// Converts back to canonical triples, skipping padding zeros.
    pub fn to_triples(&self) -> SparseTriples {
        let mut entries = Vec::new();
        for (d, &k) in self.offsets.iter().enumerate() {
            for i in 0..self.rows {
                let j = i as i64 + k;
                if j < 0 || j >= self.cols as i64 {
                    continue;
                }
                let v = self.vals[d * self.rows + i];
                if v != 0.0 {
                    entries.push((i, j as usize, v));
                }
            }
        }
        SparseTriples::from_matrix_entries(self.rows, self.cols, entries)
            .expect("computed coordinates are in bounds")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored diagonals (`K`).
    pub fn num_diagonals(&self) -> usize {
        self.offsets.len()
    }

    /// The diagonal offsets (the paper's `perm` array).
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// The value strips, one dense strip of `rows` values per diagonal.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Number of structurally nonzero entries (non-padding, nonzero values),
    /// counted in place: the strip slots of diagonal `k` whose column
    /// `i + k` lies inside the matrix are rows `max(0, -k) .. min(rows, cols - k)`.
    pub fn nnz(&self) -> usize {
        let mut count = 0;
        for (d, &k) in self.offsets.iter().enumerate() {
            let hi = (self.cols as i64 - k).clamp(0, self.rows as i64) as usize;
            let lo = ((-k).max(0) as usize).min(hi);
            let strip = &self.vals[d * self.rows..][lo..hi];
            count += strip.iter().filter(|&&v| v != 0.0).count();
        }
        count
    }

    /// The value at `(i, j)`, or zero when the diagonal is not stored.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Value {
        assert!(
            i < self.rows && j < self.cols,
            "coordinate ({i},{j}) out of bounds"
        );
        let k = j as i64 - i as i64;
        match self.offsets.iter().position(|&o| o == k) {
            Some(d) => self.vals[d * self.rows + i],
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::figure1_matrix;

    #[test]
    fn from_triples_finds_three_diagonals() {
        let dia = DiaMatrix::from_triples(&figure1_matrix());
        assert_eq!(dia.offsets(), &[-2, 0, 1]);
        assert_eq!(dia.num_diagonals(), 3);
        assert_eq!(dia.values().len(), 12);
        // Main diagonal strip: rows 0..4 hold 5, 7, 2, 9.
        assert_eq!(&dia.values()[4..8], &[5.0, 7.0, 2.0, 9.0]);
        // Offset -2 strip: only rows 2 and 3 are populated.
        assert_eq!(&dia.values()[0..4], &[0.0, 0.0, 8.0, 4.0]);
        // Offset +1 strip: rows 0, 1, 3 populated; row 2 padding.
        assert_eq!(&dia.values()[8..12], &[1.0, 3.0, 0.0, 6.0]);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let t = figure1_matrix();
        let dia = DiaMatrix::from_triples(&t);
        assert!(dia.to_triples().same_values(&t));
        assert_eq!(dia.nnz(), 9);
    }

    #[test]
    fn get_returns_zero_off_stored_diagonals() {
        let dia = DiaMatrix::from_triples(&figure1_matrix());
        assert_eq!(dia.get(0, 0), 5.0);
        assert_eq!(dia.get(3, 4), 6.0);
        assert_eq!(dia.get(0, 3), 0.0);
        assert_eq!(dia.get(2, 1), 0.0);
    }

    #[test]
    fn from_parts_validates() {
        assert!(DiaMatrix::from_parts(2, 2, vec![0], vec![1.0]).is_err());
        assert!(DiaMatrix::from_parts(2, 2, vec![5], vec![1.0, 2.0]).is_err());
        assert!(DiaMatrix::from_parts(2, 2, vec![0, 0], vec![1.0; 4]).is_err());
        let ok = DiaMatrix::from_parts(2, 2, vec![0, 1], vec![1.0, 2.0, 3.0, 0.0]).unwrap();
        assert_eq!(ok.num_diagonals(), 2);
        assert_eq!(ok.get(0, 1), 3.0);
    }

    #[test]
    fn nnz_counts_in_place_and_skips_out_of_range_strip_slots() {
        // 3x5: offsets -2 and 4 each leave two of their three strip slots
        // outside the matrix; poison those slots, which `to_triples` skips.
        let t = SparseTriples::from_matrix_entries(
            3,
            5,
            vec![
                (2, 0, 1.0),
                (0, 0, 2.0),
                (1, 1, 3.0),
                (0, 4, 4.0),
                (1, 3, 5.0),
            ],
        )
        .unwrap();
        let dia = DiaMatrix::from_triples(&t);
        assert_eq!(dia.offsets(), &[-2, 0, 2, 4]);
        let mut vals = dia.values().to_vec();
        for slot in [0, 1, 10, 11] {
            assert_eq!(vals[slot], 0.0, "slot {slot} is out-of-range padding");
            vals[slot] = 9.0;
        }
        let poisoned = DiaMatrix::from_parts(3, 5, dia.offsets().to_vec(), vals).unwrap();
        for m in [&dia, &poisoned] {
            assert_eq!(m.nnz(), 5);
            assert_eq!(m.nnz(), m.to_triples().nnz());
        }
        // Tall shape: cols - k clamps below rows, -k above zero.
        let tall = SparseTriples::from_matrix_entries(5, 2, vec![(4, 0, 1.0), (0, 1, 2.0)]);
        let tall = DiaMatrix::from_triples(&tall.unwrap());
        assert_eq!(tall.nnz(), tall.to_triples().nnz());
        assert_eq!(tall.nnz(), 2);
        // Empty and single-diagonal shapes.
        let empty =
            DiaMatrix::from_triples(&SparseTriples::from_matrix_entries(4, 4, vec![]).unwrap());
        assert_eq!((empty.num_diagonals(), empty.nnz()), (0, 0));
        let single = DiaMatrix::from_parts(3, 3, vec![1], vec![7.0, 0.0, 8.0]).unwrap();
        assert_eq!(single.nnz(), 1, "row 2 of offset +1 is column 3: padding");
        assert_eq!(single.nnz(), single.to_triples().nnz());
    }

    #[test]
    fn rectangular_offsets_can_exceed_rows() {
        let t = SparseTriples::from_matrix_entries(2, 6, vec![(0, 5, 1.0), (1, 0, 2.0)]).unwrap();
        let dia = DiaMatrix::from_triples(&t);
        assert_eq!(dia.offsets(), &[-1, 5]);
        assert!(dia.to_triples().same_values(&t));
    }
}
