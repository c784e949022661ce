//! The COO (coordinate) format: parallel row / column / value arrays
//! (Figure 2a).

use sparse_tensor::{SparseTriples, TensorError, Value};

/// A sparse matrix in COO format.
///
/// COO stores the complete coordinates of every nonzero, which makes appends
/// cheap (the format applications use to *import* data, cf. Section 1) but
/// wastes memory on redundant row coordinates. Nonzeros are not required to
/// be sorted; [`CooMatrix::is_sorted`] reports whether they are.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row: Vec<usize>,
    col: Vec<usize>,
    vals: Vec<Value>,
}

impl CooMatrix {
    /// Creates an empty COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row: Vec::new(),
            col: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates a COO matrix from parallel arrays.
    ///
    /// # Errors
    ///
    /// Returns an error if the arrays have different lengths or any
    /// coordinate is out of bounds.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row: Vec<usize>,
        col: Vec<usize>,
        vals: Vec<Value>,
    ) -> Result<Self, TensorError> {
        if row.len() != col.len() || row.len() != vals.len() {
            return Err(TensorError::InvalidStructure(format!(
                "COO arrays have mismatched lengths {}/{}/{}",
                row.len(),
                col.len(),
                vals.len()
            )));
        }
        for (&i, &j) in row.iter().zip(&col) {
            if i >= rows || j >= cols {
                return Err(TensorError::InvalidStructure(format!(
                    "COO coordinate ({i},{j}) out of bounds for {rows}x{cols}"
                )));
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            row,
            col,
            vals,
        })
    }

    /// Builds a COO matrix from canonical triples, preserving their order.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order 2.
    pub fn from_triples(t: &SparseTriples) -> Self {
        assert_eq!(t.order(), 2, "COO matrices are order-2 tensors");
        let [row, col]: [Vec<usize>; 2] = t.columns().try_into().expect("two columns");
        let vals = t.iter().map(|triple| triple.value).collect();
        let (rows, cols) = (t.shape().rows(), t.shape().cols());
        CooMatrix::from_parts(rows, cols, row, col, vals).expect("triples are in bounds")
    }

    /// Converts back to canonical triples, preserving stored order.
    pub fn to_triples(&self) -> SparseTriples {
        SparseTriples::from_matrix_entries(self.rows, self.cols, self.iter().collect::<Vec<_>>())
            .expect("stored coordinates are in bounds")
    }

    /// Appends a nonzero.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: Value) {
        assert!(
            i < self.rows && j < self.cols,
            "coordinate ({i},{j}) out of bounds"
        );
        self.row.push(i);
        self.col.push(j);
        self.vals.push(v);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row coordinate array.
    pub fn row_indices(&self) -> &[usize] {
        &self.row
    }

    /// Column coordinate array.
    pub fn col_indices(&self) -> &[usize] {
        &self.col
    }

    /// Value array.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Iterates over `(row, col, value)` in stored order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        self.row
            .iter()
            .zip(&self.col)
            .zip(&self.vals)
            .map(|((&i, &j), &v)| (i, j, v))
    }

    /// True when nonzeros are sorted lexicographically by (row, column).
    pub fn is_sorted(&self) -> bool {
        (1..self.nnz()).all(|p| (self.row[p - 1], self.col[p - 1]) <= (self.row[p], self.col[p]))
    }

    /// Sorts nonzeros lexicographically by (row, column), stably.
    pub fn sort(&mut self) {
        let mut order: Vec<usize> = (0..self.nnz()).collect();
        order.sort_by_key(|&p| (self.row[p], self.col[p]));
        self.row = order.iter().map(|&p| self.row[p]).collect();
        self.col = order.iter().map(|&p| self.col[p]).collect();
        self.vals = order.iter().map(|&p| self.vals[p]).collect();
    }

    /// Randomly permutes the stored nonzeros (used by benchmarks to model
    /// unsorted COO input, which the paper's evaluation does not assume to be
    /// sorted).
    pub fn shuffle_with(&mut self, mut next: impl FnMut(usize) -> usize) {
        // Fisher-Yates with an injected random source to avoid a `rand`
        // dependency in this crate.
        for p in (1..self.nnz()).rev() {
            let q = next(p + 1);
            debug_assert!(q <= p);
            self.row.swap(p, q);
            self.col.swap(p, q);
            self.vals.swap(p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::figure1_matrix;

    #[test]
    fn from_triples_roundtrips() {
        let t = figure1_matrix();
        let coo = CooMatrix::from_triples(&t);
        assert_eq!(coo.nnz(), 9);
        assert_eq!(coo.rows(), 4);
        assert_eq!(coo.cols(), 6);
        assert!(coo.is_sorted());
        assert!(coo.to_triples().same_values(&t));
    }

    #[test]
    fn from_parts_validates() {
        assert!(CooMatrix::from_parts(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(CooMatrix::from_parts(2, 2, vec![2], vec![0], vec![1.0]).is_err());
        let m = CooMatrix::from_parts(2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn sort_orders_rows_then_columns() {
        let mut m = CooMatrix::new(3, 3);
        m.push(2, 0, 1.0);
        m.push(0, 1, 2.0);
        m.push(0, 0, 3.0);
        assert!(!m.is_sorted());
        m.sort();
        assert!(m.is_sorted());
        assert_eq!(m.row_indices(), &[0, 0, 2]);
        assert_eq!(m.col_indices(), &[0, 1, 0]);
        assert_eq!(m.values(), &[3.0, 2.0, 1.0]);
    }

    #[test]
    fn shuffle_preserves_contents() {
        let t = figure1_matrix();
        let mut coo = CooMatrix::from_triples(&t);
        let mut state = 12345usize;
        coo.shuffle_with(|bound| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state % bound
        });
        assert!(coo.to_triples().same_values(&t));
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds_panics() {
        CooMatrix::new(2, 2).push(2, 0, 1.0);
    }
}
