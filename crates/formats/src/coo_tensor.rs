//! The rank-`N` COO format: one coordinate array per dimension plus values.
//!
//! This is the tensor generalisation of [`crate::CooMatrix`]: an order-`N`
//! tensor stored as `N` parallel coordinate arrays and a value array, in
//! arbitrary (not necessarily sorted) order. It is the import format of the
//! paper's tensor evaluation (Section 7's COO→CSF conversions) and the
//! canonical *source* the CSF kernels read.

use sparse_tensor::{Shape, SparseTriples, TensorError, Value};

/// A sparse order-`N` tensor in COO format.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    shape: Shape,
    /// One coordinate array per dimension, each `nnz` long.
    crd: Vec<Vec<usize>>,
    vals: Vec<Value>,
}

impl CooTensor {
    /// Creates an empty COO tensor with the given shape.
    pub fn new(shape: Shape) -> Self {
        let order = shape.order();
        CooTensor {
            shape,
            crd: vec![Vec::new(); order],
            vals: Vec::new(),
        }
    }

    /// Creates a COO tensor from its parallel coordinate and value arrays
    /// (`crd[d][p]` is nonzero `p`'s coordinate in dimension `d`).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of coordinate arrays does not match the
    /// shape's order, the arrays have mismatched lengths, or any coordinate
    /// is out of bounds.
    pub fn from_parts(
        shape: Shape,
        crd: Vec<Vec<usize>>,
        vals: Vec<Value>,
    ) -> Result<Self, TensorError> {
        if crd.len() != shape.order() {
            return Err(TensorError::InvalidStructure(format!(
                "COO tensor has {} coordinate arrays for an order-{} shape",
                crd.len(),
                shape.order()
            )));
        }
        for (d, dim_crd) in crd.iter().enumerate() {
            if dim_crd.len() != vals.len() {
                return Err(TensorError::InvalidStructure(format!(
                    "COO coordinate array {d} has length {}, expected {}",
                    dim_crd.len(),
                    vals.len()
                )));
            }
            if let Some(&c) = dim_crd.iter().find(|&&c| c >= shape.dim(d)) {
                return Err(TensorError::InvalidStructure(format!(
                    "COO coordinate {c} out of bounds for dimension {d} of {shape}"
                )));
            }
        }
        Ok(CooTensor { shape, crd, vals })
    }

    /// Builds a COO tensor from canonical triples, preserving their order.
    pub fn from_triples(t: &SparseTriples) -> Self {
        let vals = t.iter().map(|triple| triple.value).collect();
        let crd = t.columns();
        CooTensor::from_parts(t.shape().clone(), crd, vals).expect("triples are in bounds")
    }

    /// Converts back to canonical triples, preserving stored order.
    pub fn to_triples(&self) -> SparseTriples {
        let mut t = SparseTriples::with_capacity(self.shape.clone(), self.nnz());
        let mut coord = vec![0i64; self.order()];
        for p in 0..self.nnz() {
            for (d, c) in coord.iter_mut().enumerate() {
                *c = self.crd[d][p] as i64;
            }
            t.push(coord.clone(), self.vals[p])
                .expect("stored coordinates are in bounds");
        }
        t
    }

    /// Appends a nonzero.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate's arity or any component is out of bounds.
    pub fn push(&mut self, coord: &[usize], v: Value) {
        assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        for (d, &c) in coord.iter().enumerate() {
            assert!(
                c < self.shape.dim(d),
                "coordinate {c} out of bounds in dimension {d}"
            );
            self.crd[d].push(c);
        }
        self.vals.push(v);
    }

    /// Appends nonzeros given as one coordinate column per dimension, one
    /// bulk copy per column. Fails, changing nothing, unless every column is
    /// as long as `vals` and within its dimension's extent.
    pub fn append_columns(&mut self, crd: &[&[usize]], vals: &[Value]) -> Result<(), TensorError> {
        let dims = self.shape.dims();
        let fits =
            |(col, &n): (&&[usize], _)| col.len() == vals.len() && col.iter().all(|&c| c < n);
        if crd.len() != dims.len() || !crd.iter().zip(dims).all(fits) {
            let shape = &self.shape;
            let message = format!("columns that do not fit a COO tensor of shape {shape}");
            return Err(TensorError::InvalidStructure(message));
        }
        for (dst, col) in self.crd.iter_mut().zip(crd) {
            dst.extend_from_slice(col);
        }
        self.vals.extend_from_slice(vals);
        Ok(())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's order (number of dimensions).
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The coordinate array of dimension `d`.
    pub fn crd(&self, d: usize) -> &[usize] {
        &self.crd[d]
    }

    /// Value array.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Visits every nonzero in stored order with its full coordinate tuple.
    pub fn for_each<F: FnMut(&[i64], Value)>(&self, mut f: F) {
        let mut coord = vec![0i64; self.order()];
        for p in 0..self.nnz() {
            for (d, c) in coord.iter_mut().enumerate() {
                *c = self.crd[d][p] as i64;
            }
            f(&coord, self.vals[p]);
        }
    }

    /// True when nonzeros are sorted lexicographically by coordinate.
    pub fn is_sorted(&self) -> bool {
        (1..self.nnz()).all(|p| {
            self.crd
                .iter()
                .map(|dim| (dim[p - 1], dim[p]))
                .find(|(a, b)| a != b)
                .is_none_or(|(a, b)| a < b)
        })
    }

    /// Randomly permutes the stored nonzeros with an injected random source
    /// (Fisher–Yates; see [`crate::CooMatrix::shuffle_with`]).
    pub fn shuffle_with(&mut self, mut next: impl FnMut(usize) -> usize) {
        for p in (1..self.nnz()).rev() {
            let q = next(p + 1);
            debug_assert!(q <= p);
            for dim in &mut self.crd {
                dim.swap(p, q);
            }
            self.vals.swap(p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::example3_tensor;

    #[test]
    fn from_triples_roundtrips() {
        let t = example3_tensor();
        let coo = CooTensor::from_triples(&t);
        assert_eq!(coo.order(), 3);
        assert_eq!(coo.nnz(), 8);
        assert_eq!(coo.shape().dims(), &[3, 4, 5]);
        assert!(!coo.is_sorted());
        assert_eq!(coo.to_triples(), t);
    }

    #[test]
    fn from_parts_validates() {
        let shape = Shape::tensor3(2, 2, 2);
        assert!(CooTensor::from_parts(shape.clone(), vec![vec![0]; 2], vec![1.0]).is_err());
        assert!(CooTensor::from_parts(
            shape.clone(),
            vec![vec![0], vec![0], vec![0, 1]],
            vec![1.0]
        )
        .is_err());
        assert!(
            CooTensor::from_parts(shape.clone(), vec![vec![0], vec![2], vec![0]], vec![1.0])
                .is_err()
        );
        let t = CooTensor::from_parts(shape, vec![vec![0], vec![1], vec![1]], vec![3.0]).unwrap();
        assert_eq!(t.crd(1), &[1]);
        assert_eq!(t.values(), &[3.0]);
    }

    #[test]
    fn push_and_for_each_agree() {
        let mut t = CooTensor::new(Shape::tensor3(2, 3, 4));
        t.push(&[1, 2, 3], 5.0);
        t.push(&[0, 0, 0], 1.0);
        let mut seen = Vec::new();
        t.for_each(|c, v| seen.push((c.to_vec(), v)));
        assert_eq!(seen, vec![(vec![1i64, 2, 3], 5.0), (vec![0i64, 0, 0], 1.0)]);
    }

    #[test]
    fn column_appends_validate_then_copy() {
        let mut t = CooTensor::new(Shape::matrix(3, 4));
        t.push(&[2, 3], 1.0);
        t.append_columns(&[&[0, 1], &[3, 0]], &[2.0, 3.0]).unwrap();
        assert_eq!(t.crd(0), &[2, 0, 1]);
        assert_eq!(t.crd(1), &[3, 3, 0]);
        assert_eq!(t.values(), &[1.0, 2.0, 3.0]);
        let before = t.clone();
        assert!(t.append_columns(&[&[0]], &[1.0]).is_err());
        assert!(t.append_columns(&[&[0], &[0, 1]], &[1.0]).is_err());
        assert!(t.append_columns(&[&[0], &[4]], &[1.0]).is_err());
        assert_eq!(t, before, "a rejected append changes nothing");
    }

    #[test]
    fn shuffle_preserves_contents() {
        let t = example3_tensor();
        let mut coo = CooTensor::from_triples(&t);
        let mut state = 99usize;
        coo.shuffle_with(|bound| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state % bound
        });
        assert!(coo.to_triples().same_values(&t));
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds_panics() {
        CooTensor::new(Shape::tensor3(2, 2, 2)).push(&[0, 2, 0], 1.0);
    }

    #[test]
    fn matrices_are_order_2_coo_tensors() {
        let m = sparse_tensor::example::figure1_matrix();
        let coo = CooTensor::from_triples(&m);
        assert_eq!(coo.order(), 2);
        assert!(coo.is_sorted());
        assert!(coo.to_triples().same_values(&m));
    }
}
