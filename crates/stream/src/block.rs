//! Bounded coordinate blocks — the unit a [`crate::TensorStream`] yields.

use sparse_conv::ConvertError;
use sparse_tensor::{Shape, Value};

/// A bounded chunk of COO nonzeros: one coordinate column per dimension plus
/// values, tagged with the tensor's full rank-`N` [`Shape`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoordBlock {
    shape: Shape,
    crd: Vec<Vec<usize>>,
    vals: Vec<Value>,
}

impl CoordBlock {
    /// An empty block for tensors of the given shape.
    pub fn new(shape: Shape) -> Self {
        Self::with_capacity(shape, 0)
    }

    /// An empty block with room for `cap` nonzeros.
    pub fn with_capacity(shape: Shape, cap: usize) -> Self {
        let order = shape.order();
        CoordBlock {
            shape,
            crd: vec![Vec::with_capacity(cap); order],
            vals: Vec::with_capacity(cap),
        }
    }

    /// A block from its columns: `crd[d]` holds dimension `d`'s
    /// coordinates and `vals` the values, nonzero `p` at index `p` of each.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] when there is not one column per
    /// dimension, a column's length differs from `vals`', or a coordinate is
    /// out of bounds.
    pub fn from_columns(
        shape: Shape,
        crd: Vec<Vec<usize>>,
        vals: Vec<Value>,
    ) -> Result<Self, ConvertError> {
        let invalid = |message: String| {
            ConvertError::Structure(sparse_tensor::TensorError::InvalidStructure(message))
        };
        if crd.len() != shape.order() || crd.iter().any(|c| c.len() != vals.len()) {
            return Err(invalid(format!(
                "{} columns of lengths {:?} for an order-{} block of {} values",
                crd.len(),
                crd.iter().map(Vec::len).collect::<Vec<_>>(),
                shape.order(),
                vals.len()
            )));
        }
        for (d, column) in crd.iter().enumerate() {
            if let Some(c) = column.iter().find(|&&c| c >= shape.dim(d)) {
                return Err(invalid(format!(
                    "coordinate {c} out of bounds for dimension {d} of {shape}"
                )));
            }
        }
        Ok(CoordBlock { shape, crd, vals })
    }

    /// Appends a nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] when the coordinate's arity or a
    /// component is out of bounds.
    pub fn push(&mut self, coord: &[usize], value: Value) -> Result<(), ConvertError> {
        if coord.len() != self.order() {
            return Err(ConvertError::Structure(
                sparse_tensor::TensorError::InvalidStructure(format!(
                    "coordinate arity {} for an order-{} block",
                    coord.len(),
                    self.order()
                )),
            ));
        }
        for (d, &c) in coord.iter().enumerate() {
            if c >= self.shape.dim(d) {
                return Err(ConvertError::Structure(
                    sparse_tensor::TensorError::InvalidStructure(format!(
                        "coordinate {c} out of bounds for dimension {d} of {}",
                        self.shape
                    )),
                ));
            }
        }
        for (d, &c) in coord.iter().enumerate() {
            self.crd[d].push(c);
        }
        self.vals.push(value);
        Ok(())
    }

    /// The tensor's shape (shared by every block of one stream).
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's order.
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of nonzeros in this block.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The coordinate column of dimension `d`.
    pub fn crd(&self, d: usize) -> &[usize] {
        &self.crd[d]
    }

    /// Value column.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_and_tracks_bytes() {
        let mut b = CoordBlock::with_capacity(Shape::tensor3(2, 3, 4), 4);
        b.push(&[1, 2, 3], 5.0).unwrap();
        b.push(&[0, 0, 0], 1.0).unwrap();
        assert_eq!(b.nnz(), 2);
        assert_eq!(b.crd(1), &[2, 0]);
        assert_eq!(b.values(), &[5.0, 1.0]);
        assert!(b.push(&[0, 0], 1.0).is_err());
        assert!(b.push(&[0, 3, 0], 1.0).is_err());
        let shape = Shape::tensor3(2, 3, 4);
        let crd = vec![vec![1, 0], vec![2, 0], vec![3, 0]];
        let c = CoordBlock::from_columns(shape.clone(), crd.clone(), vec![5.0, 1.0]).unwrap();
        assert_eq!((c.crd(1), c.values()), (b.crd(1), &b.values()[..2]));
        assert!(CoordBlock::from_columns(shape.clone(), crd.clone(), vec![5.0]).is_err());
        assert!(CoordBlock::from_columns(shape.clone(), crd[..2].to_vec(), vec![]).is_err());
        let outside = vec![vec![1, 0], vec![3, 0], vec![3, 0]];
        assert!(CoordBlock::from_columns(shape, outside, vec![5.0, 1.0]).is_err());
    }
}
