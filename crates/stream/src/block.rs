//! Bounded coordinate blocks — the unit a [`crate::TensorStream`] yields.

use sparse_conv::ConvertError;
use sparse_formats::CooTensor;
use sparse_tensor::{Shape, TensorError, Value};

/// A bounded chunk of COO nonzeros: one coordinate column per dimension plus
/// values, tagged with the tensor's full rank-`N` [`Shape`] — a COO tensor
/// whose coordinates were checked on the way in.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordBlock {
    tensor: CooTensor,
}

impl CoordBlock {
    /// An empty block for tensors of the given shape.
    pub fn new(shape: Shape) -> Self {
        Self::with_capacity(shape, 0)
    }

    /// An empty block with room for `cap` nonzeros.
    pub fn with_capacity(shape: Shape, cap: usize) -> Self {
        let crd = vec![Vec::with_capacity(cap); shape.order()];
        Self::from_columns(shape, crd, Vec::with_capacity(cap)).expect("empty columns fit")
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
        let tensor = CooTensor::from_parts(shape, crd, vals)?;
        Ok(CoordBlock { tensor })
    }

    /// Appends a nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] when the coordinate's arity or a
    /// component is out of bounds.
    pub fn push(&mut self, coord: &[usize], value: Value) -> Result<(), ConvertError> {
        let dims = self.shape().dims();
        if coord.len() != dims.len() || coord.iter().zip(dims).any(|(&c, &n)| c >= n) {
            let message = format!("coordinate {coord:?} outside {}", self.shape());
            return Err(TensorError::InvalidStructure(message).into());
        }
        self.tensor.push(coord, value);
        Ok(())
    }

    /// The tensor's shape (shared by every block of one stream).
    pub fn shape(&self) -> &Shape {
        self.tensor.shape()
    }

    /// The tensor's order.
    pub fn order(&self) -> usize {
        self.tensor.order()
    }

    /// Number of nonzeros in this block.
    pub fn nnz(&self) -> usize {
        self.tensor.nnz()
    }

    /// The coordinate column of dimension `d`.
    pub fn crd(&self, d: usize) -> &[usize] {
        self.tensor.crd(d)
    }

    /// Value column.
    pub fn values(&self) -> &[Value] {
        self.tensor.values()
    }

    /// The block's nonzeros as a COO tensor, columns moved, not copied.
    pub fn into_tensor(self) -> CooTensor {
        self.tensor
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
