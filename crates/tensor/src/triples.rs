//! Order-`N` coordinate/value lists (the canonical tensor representation).

use std::collections::HashMap;

use crate::coord::{lex_cmp, Coord, Shape};
use crate::dense::DenseMatrix;
use crate::error::TensorError;
use crate::Value;

/// One stored component: a coordinate tuple and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Triple {
    /// The component's coordinates, one per tensor dimension.
    pub coord: Coord,
    /// The component's value.
    pub value: Value,
}

impl Triple {
    /// Creates a triple from a coordinate and value.
    pub fn new(coord: Coord, value: Value) -> Self {
        Triple { coord, value }
    }
}

/// An order-`N` sparse tensor stored as an unordered list of coordinates and
/// values.
///
/// `SparseTriples` is the *canonical* representation the paper's coordinate
/// remappings are defined over: every concrete format in the workspace can be
/// converted to and from it, and it is the ground-truth representation used to
/// check conversions in tests.
///
/// The list is not required to be sorted or duplicate-free; [`SparseTriples::sort`]
/// and [`SparseTriples::sum_duplicates`] establish those properties when needed.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTriples {
    shape: Shape,
    triples: Vec<Triple>,
}

impl SparseTriples {
    /// Creates an empty tensor with the given shape.
    pub fn new(shape: Shape) -> Self {
        SparseTriples {
            shape,
            triples: Vec::new(),
        }
    }

    /// Creates an empty tensor with the given shape, reserving room for `cap`
    /// nonzeros.
    pub fn with_capacity(shape: Shape, cap: usize) -> Self {
        SparseTriples {
            shape,
            triples: Vec::with_capacity(cap),
        }
    }

    /// Builds a tensor from parallel coordinate / value lists.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] or [`TensorError::OrderMismatch`]
    /// if any coordinate is invalid for `shape`.
    pub fn from_entries(
        shape: Shape,
        entries: impl IntoIterator<Item = (Coord, Value)>,
    ) -> Result<Self, TensorError> {
        let mut t = SparseTriples::new(shape);
        for (coord, value) in entries {
            t.push(coord, value)?;
        }
        Ok(t)
    }

    /// Builds a matrix from `(row, col, value)` tuples.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is out of bounds.
    pub fn from_matrix_entries(
        rows: usize,
        cols: usize,
        entries: impl IntoIterator<Item = (usize, usize, Value)>,
    ) -> Result<Self, TensorError> {
        SparseTriples::from_entries(
            Shape::matrix(rows, cols),
            entries
                .into_iter()
                .map(|(i, j, v)| (vec![i as i64, j as i64], v)),
        )
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's order (number of dimensions).
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// The number of stored components.
    pub fn nnz(&self) -> usize {
        self.triples.len()
    }

    /// Returns true when no components are stored.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Appends a component.
    ///
    /// # Errors
    ///
    /// Returns an error if `coord` does not match the shape.
    pub fn push(&mut self, coord: Coord, value: Value) -> Result<(), TensorError> {
        if coord.len() != self.shape.order() {
            return Err(TensorError::OrderMismatch {
                expected: self.shape.order(),
                found: coord.len(),
            });
        }
        if !self.shape.contains(&coord) {
            return Err(TensorError::OutOfBounds {
                coord,
                shape: self.shape.clone(),
            });
        }
        self.triples.push(Triple::new(coord, value));
        Ok(())
    }

    /// Iterates over stored components.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> + '_ {
        self.triples.iter()
    }

    /// The stored components as a slice.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The coordinates as one column per dimension, in stored order.
    pub fn columns(&self) -> Vec<Vec<usize>> {
        (0..self.order())
            .map(|d| self.triples.iter().map(|t| t.coord[d] as usize).collect())
            .collect()
    }

    /// Consumes the tensor and returns its components.
    pub fn into_triples(self) -> Vec<Triple> {
        self.triples
    }

    /// Sorts components lexicographically by coordinate (stable).
    pub fn sort(&mut self) {
        self.triples.sort_by(|a, b| lex_cmp(&a.coord, &b.coord));
    }

    /// Returns a sorted copy.
    pub fn sorted(&self) -> Self {
        let mut c = self.clone();
        c.sort();
        c
    }

    /// Returns true when components are sorted lexicographically by coordinate.
    pub fn is_sorted(&self) -> bool {
        self.triples
            .windows(2)
            .all(|w| lex_cmp(&w[0].coord, &w[1].coord) != std::cmp::Ordering::Greater)
    }

    /// Sums duplicate coordinates together, leaving a sorted, duplicate-free
    /// component list.
    pub fn sum_duplicates(&mut self) {
        self.sort();
        let mut out: Vec<Triple> = Vec::with_capacity(self.triples.len());
        for t in self.triples.drain(..) {
            match out.last_mut() {
                Some(last) if last.coord == t.coord => last.value += t.value,
                _ => out.push(t),
            }
        }
        self.triples = out;
    }

    /// Removes stored components whose value is exactly zero.
    pub fn prune_zeros(&mut self) {
        self.triples.retain(|t| t.value != 0.0);
    }

    /// Returns the value stored at `coord`, summing duplicates, or `0.0`.
    pub fn get(&self, coord: &[i64]) -> Value {
        self.triples
            .iter()
            .filter(|t| t.coord == coord)
            .map(|t| t.value)
            .sum()
    }

    /// Permutes the dimensions of every coordinate (e.g. `[1, 0]` transposes a
    /// matrix).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..order`.
    pub fn permute_dims(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.order(), "permutation order mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let shape = Shape::new(perm.iter().map(|&p| self.shape.dim(p)).collect());
        let triples = self
            .triples
            .iter()
            .map(|t| Triple::new(perm.iter().map(|&p| t.coord[p]).collect(), t.value))
            .collect();
        SparseTriples { shape, triples }
    }

    /// Converts to a dense matrix (order-2 tensors only), summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order 2.
    pub fn to_dense(&self) -> DenseMatrix {
        assert_eq!(self.order(), 2, "to_dense requires an order-2 tensor");
        let mut d = DenseMatrix::zeros(self.shape.rows(), self.shape.cols());
        for t in &self.triples {
            let (i, j) = (t.coord[0] as usize, t.coord[1] as usize);
            *d.get_mut(i, j) += t.value;
        }
        d
    }

    /// Builds a map from coordinate to accumulated value (used by tests for
    /// order-insensitive equality).
    pub fn to_map(&self) -> HashMap<Coord, Value> {
        let mut map: HashMap<Coord, Value> = HashMap::with_capacity(self.triples.len());
        for t in &self.triples {
            *map.entry(t.coord.clone()).or_insert(0.0) += t.value;
        }
        map.retain(|_, v| *v != 0.0);
        map
    }

    /// Structural + value equality that ignores component ordering and
    /// duplicate splitting.
    pub fn same_values(&self, other: &SparseTriples) -> bool {
        self.shape == other.shape && self.to_map() == other.to_map()
    }
}

impl Extend<(Coord, Value)> for SparseTriples {
    fn extend<T: IntoIterator<Item = (Coord, Value)>>(&mut self, iter: T) {
        for (coord, value) in iter {
            self.push(coord, value)
                .expect("coordinate out of bounds in Extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTriples {
        SparseTriples::from_matrix_entries(
            3,
            3,
            vec![(2, 1, 4.0), (0, 0, 1.0), (1, 2, 3.0), (0, 2, 2.0)],
        )
        .unwrap()
    }

    #[test]
    fn push_validates_bounds_and_order() {
        let mut t = SparseTriples::new(Shape::matrix(2, 2));
        assert!(t.push(vec![1, 1], 1.0).is_ok());
        assert!(matches!(
            t.push(vec![2, 0], 1.0),
            Err(TensorError::OutOfBounds { .. })
        ));
        assert!(matches!(
            t.push(vec![0], 1.0),
            Err(TensorError::OrderMismatch { .. })
        ));
    }

    #[test]
    fn sort_orders_lexicographically() {
        let mut t = sample();
        assert!(!t.is_sorted());
        t.sort();
        assert!(t.is_sorted());
        let coords: Vec<_> = t.iter().map(|t| (t.coord[0], t.coord[1])).collect();
        assert_eq!(coords, vec![(0, 0), (0, 2), (1, 2), (2, 1)]);
    }

    #[test]
    fn sum_duplicates_merges() {
        let mut t =
            SparseTriples::from_matrix_entries(2, 2, vec![(0, 1, 1.0), (0, 1, 2.5), (1, 0, 3.0)])
                .unwrap();
        t.sum_duplicates();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 1]), 3.5);
        assert_eq!(t.get(&[1, 0]), 3.0);
    }

    #[test]
    fn prune_zeros_removes_explicit_zeros() {
        let mut t =
            SparseTriples::from_matrix_entries(2, 2, vec![(0, 0, 0.0), (1, 1, 2.0)]).unwrap();
        t.prune_zeros();
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn permute_dims_transposes() {
        let t = sample();
        let tt = t.permute_dims(&[1, 0]);
        assert_eq!(tt.shape(), &Shape::matrix(3, 3));
        assert_eq!(tt.get(&[1, 2]), 4.0);
        assert_eq!(tt.get(&[2, 1]), 3.0);
    }

    #[test]
    #[should_panic]
    fn permute_dims_rejects_bad_permutation() {
        sample().permute_dims(&[0, 0]);
    }

    #[test]
    fn to_dense_matches_entries() {
        let d = sample().to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 2), 3.0);
        assert_eq!(d.get(2, 1), 4.0);
        assert_eq!(d.get(2, 2), 0.0);
    }

    #[test]
    fn same_values_is_order_insensitive() {
        let a = sample();
        let b = sample().sorted();
        assert!(a.same_values(&b));
        let mut c = sample();
        c.push(vec![0, 1], 9.0).unwrap();
        assert!(!a.same_values(&c));
    }

    #[test]
    fn same_values_merges_duplicates() {
        let a = SparseTriples::from_matrix_entries(2, 2, vec![(0, 0, 3.0)]).unwrap();
        let b = SparseTriples::from_matrix_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap();
        assert!(a.same_values(&b));
    }

    #[test]
    fn extend_appends_entries() {
        let mut t = SparseTriples::new(Shape::matrix(2, 2));
        t.extend(vec![(vec![0, 0], 1.0), (vec![1, 1], 2.0)]);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn get_sums_duplicates() {
        let t = SparseTriples::from_matrix_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 4.0)]).unwrap();
        assert_eq!(t.get(&[0, 0]), 5.0);
        assert_eq!(t.get(&[1, 1]), 0.0);
    }
}
