//! The CSF (compressed sparse fiber) format for order-`N` tensors.
//!
//! CSF generalises CSR/DCSR to arbitrary order: the tensor is a tree of
//! *fibers*, one level per dimension. Level 0 stores the distinct root
//! coordinates in `crd[0]`; every deeper level `l` stores a `pos[l-1]` array
//! mapping each fiber of level `l-1` to a segment of `crd[l]`, and the value
//! array is aligned with the innermost coordinate array. Fibers are sorted
//! lexicographically, which is what the paper's COO→CSF conversion (sort +
//! pack) establishes.
//!
//! For order 2 this is exactly DCSR (doubly compressed sparse rows); the
//! container supports any order ≥ 1.

use sparse_tensor::{Shape, SparseTriples, TensorError, Value};

/// A sparse order-`N` tensor in CSF format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    shape: Shape,
    /// Fiber coordinates per level; `crd[order - 1].len() == nnz`.
    crd: Vec<Vec<usize>>,
    /// Segment offsets per level: `pos[l]` maps entries of `crd[l]` to
    /// segments of `crd[l + 1]` (so there are `order - 1` pos arrays).
    pos: Vec<Vec<usize>>,
    vals: Vec<Value>,
}

/// Compares nonzeros `a` and `b` lexicographically across parallel
/// coordinate columns. This is *the* comparator every CSF construction path
/// (reference constructor, engine kernel, parallel runtime kernel) must
/// share: bit-identical outputs rest on all of them sorting with the same
/// tie-breaking.
pub fn lex_cmp_at<C: AsRef<[usize]>>(columns: &[C], a: usize, b: usize) -> std::cmp::Ordering {
    columns
        .iter()
        .map(|c| (c.as_ref()[a], c.as_ref()[b]))
        .find(|(x, y)| x != y)
        .map_or(std::cmp::Ordering::Equal, |(x, y)| x.cmp(&y))
}

/// Stable lexicographic sort permutation over parallel coordinate columns:
/// `perm[p]` is the index of the `p`-th nonzero in sorted order (built on
/// [`lex_cmp_at`]).
pub fn lex_sort_perm(columns: &[Vec<usize>]) -> Vec<usize> {
    let nnz = columns.first().map_or(0, Vec::len);
    let mut perm: Vec<usize> = (0..nnz).collect();
    perm.sort_by(|&a, &b| lex_cmp_at(columns, a, b));
    perm
}

/// A CSF tensor's shape, per-level `crd` and `pos` arrays, and values.
pub type CsfParts = (Shape, Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<Value>);

impl CsfTensor {
    /// Creates a CSF tensor from its level arrays.
    ///
    /// # Errors
    ///
    /// Returns an error unless the arrays form a valid fiber tree: one `crd`
    /// array per dimension, `order - 1` `pos` arrays with
    /// `pos[l].len() == crd[l].len() + 1`, monotone `pos` starting at 0 and
    /// ending at the child `crd` length, coordinates in bounds and strictly
    /// increasing within each fiber (the innermost level may repeat a
    /// coordinate, which represents duplicate components), and one value per
    /// innermost coordinate.
    pub fn from_parts(
        shape: Shape,
        crd: Vec<Vec<usize>>,
        pos: Vec<Vec<usize>>,
        vals: Vec<Value>,
    ) -> Result<Self, TensorError> {
        let order = shape.order();
        let err = |msg: String| Err(TensorError::InvalidStructure(msg));
        if crd.len() != order {
            return err(format!(
                "CSF has {} coordinate levels for an order-{order} shape",
                crd.len()
            ));
        }
        if pos.len() + 1 != order {
            return err(format!(
                "CSF has {} pos arrays, expected {}",
                pos.len(),
                order - 1
            ));
        }
        if vals.len() != crd[order - 1].len() {
            return err(format!(
                "CSF has {} values for {} innermost coordinates",
                vals.len(),
                crd[order - 1].len()
            ));
        }
        for (l, level_crd) in crd.iter().enumerate() {
            if let Some(&c) = level_crd.iter().find(|&&c| c >= shape.dim(l)) {
                return err(format!(
                    "CSF coordinate {c} out of bounds for dimension {l} of {shape}"
                ));
            }
        }
        for (l, level_pos) in pos.iter().enumerate() {
            if level_pos.len() != crd[l].len() + 1 {
                return err(format!(
                    "CSF pos[{l}] has length {}, expected {}",
                    level_pos.len(),
                    crd[l].len() + 1
                ));
            }
            if level_pos.first() != Some(&0) {
                return err(format!("CSF pos[{l}] must start at 0"));
            }
            if level_pos.windows(2).any(|w| w[0] > w[1]) {
                return err(format!("CSF pos[{l}] must be non-decreasing"));
            }
            if level_pos.last() != Some(&crd[l + 1].len()) {
                return err(format!(
                    "CSF pos[{l}] ends at {:?}, expected {}",
                    level_pos.last(),
                    crd[l + 1].len()
                ));
            }
            // Fibers of the child level must be sorted; only the innermost
            // level may contain duplicate coordinates.
            let child_unique = l + 2 < order;
            for seg in level_pos.windows(2) {
                let fiber = &crd[l + 1][seg[0]..seg[1]];
                let ordered = fiber.windows(2).all(|w| {
                    if child_unique {
                        w[0] < w[1]
                    } else {
                        w[0] <= w[1]
                    }
                });
                if !ordered {
                    return err(format!("CSF fiber {fiber:?} at level {} unsorted", l + 1));
                }
            }
        }
        // At order 1 the root level *is* the innermost level, so duplicate
        // coordinates are representable there too.
        let root_unique = order > 1;
        if crd[0].windows(2).any(|w| {
            if root_unique {
                w[0] >= w[1]
            } else {
                w[0] > w[1]
            }
        }) {
            return err("CSF root coordinates must be strictly increasing".to_string());
        }
        Ok(CsfTensor {
            shape,
            crd,
            pos,
            vals,
        })
    }

    /// Builds a CSF tensor from canonical triples by the paper's reference
    /// recipe: stable lexicographic sort, then a single packing pass.
    pub fn from_triples(t: &SparseTriples) -> Self {
        let columns = t.columns();
        let mut builder = CsfBuilder::new(t.shape().clone(), t.nnz());
        for p in lex_sort_perm(&columns) {
            builder.push(|d| columns[d][p], t.triples()[p].value);
        }
        builder.finish()
    }

    /// Converts back to canonical triples, in fiber-tree (lexicographic)
    /// order.
    pub fn to_triples(&self) -> SparseTriples {
        let mut t = SparseTriples::with_capacity(self.shape.clone(), self.nnz());
        self.for_each(|coord, v| {
            t.push(coord.to_vec(), v)
                .expect("stored coordinates are in bounds");
        });
        t
    }

    /// Visits every nonzero in fiber-tree order with its full coordinate
    /// tuple.
    pub fn for_each<F: FnMut(&[i64], Value)>(&self, mut f: F) {
        let order = self.order();
        let mut coord = vec![0i64; order];
        // Iterative walk: `seg[l]` is the current position range at level l.
        if self.vals.is_empty() {
            return;
        }
        self.walk(0, 0..self.crd[0].len(), &mut coord, &mut f);
    }

    fn walk<F: FnMut(&[i64], Value)>(
        &self,
        level: usize,
        range: std::ops::Range<usize>,
        coord: &mut [i64],
        f: &mut F,
    ) {
        for p in range {
            coord[level] = self.crd[level][p] as i64;
            if level + 1 == self.order() {
                f(coord, self.vals[p]);
            } else {
                self.walk(
                    level + 1,
                    self.pos[level][p]..self.pos[level][p + 1],
                    coord,
                    f,
                );
            }
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's order (number of dimensions).
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored components.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of fibers at `level` (distinct coordinate prefixes of length
    /// `level + 1`).
    pub fn num_fibers(&self, level: usize) -> usize {
        self.crd[level].len()
    }

    /// The coordinate array of `level`.
    pub fn crd(&self, level: usize) -> &[usize] {
        &self.crd[level]
    }

    /// The segment-offset array between `level` and `level + 1`.
    pub fn pos(&self, level: usize) -> &[usize] {
        &self.pos[level]
    }

    /// Value array (aligned with the innermost coordinate array).
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Takes the tensor apart into its shape, per-level `crd` and `pos`
    /// arrays and values (the inverse of [`CsfTensor::from_parts`]).
    pub fn into_parts(self) -> CsfParts {
        (self.shape, self.crd, self.pos, self.vals)
    }
}

/// An incremental CSF packer: append nonzeros in lexicographic (fiber-tree)
/// order, one at a time, and [`CsfBuilder::finish`] assembles the level
/// arrays. This is the packing loop of the paper's sort-then-pack recipe,
/// shared by every path that builds CSF — the engine and the parallel
/// kernel's chunks (through [`crate::radix::pack_keys`], which reads each
/// nonzero's split level off its packed key), the streaming drain of an
/// external merge sort and the wide-key comparison fallback (through
/// [`CsfBuilder::push`]) — so their outputs are bit-identical by
/// construction.
///
/// Every nonzero is one split-driven append: it leaves the previous
/// nonzero's fibers at some level `split`, and is written at that level and
/// every deeper one, each fresh fiber recording where its children start;
/// [`CsfBuilder::finish`] closes every `pos` array with its child level's
/// length.
///
/// The caller feeds coordinates in non-decreasing lexicographic order with
/// in-bounds components; duplicates of the full coordinate tuple split at
/// the innermost level, so they are stored as adjacent innermost entries.
#[derive(Debug)]
pub struct CsfBuilder {
    shape: Shape,
    crd: Vec<Vec<usize>>,
    /// The start of every open or closed fiber's children, one per `crd`
    /// entry until [`CsfBuilder::finish`] appends the end.
    pos: Vec<Vec<usize>>,
    vals: Vec<Value>,
}

impl CsfBuilder {
    /// An empty builder for tensors of the given shape, with room for `nnz`
    /// nonzeros at the innermost level.
    ///
    /// # Panics
    ///
    /// Panics on order-0 shapes (a tensor needs at least one level).
    pub fn new(shape: Shape, nnz: usize) -> Self {
        let order = shape.order();
        assert!(order >= 1, "CSF needs at least one level");
        let mut crd = vec![Vec::new(); order];
        crd[order - 1].reserve_exact(nnz);
        CsfBuilder {
            shape,
            crd,
            pos: vec![Vec::new(); order - 1],
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Appends the next nonzero in sorted order, the one whose level-`d`
    /// coordinate is `coord(d)`: it splits at the first level where it
    /// leaves the open fibers (the last coordinate of every level), and at
    /// the innermost level if it repeats the previous nonzero.
    pub fn push(&mut self, coord: impl Fn(usize) -> usize, value: Value) {
        let inner = self.crd.len() - 1;
        let split = (0..inner)
            .find(|&d| self.crd[d].last() != Some(&coord(d)))
            .unwrap_or(inner);
        self.append(split, coord, value);
    }

    /// Appends a nonzero that leaves the open fibers at level `split`: the
    /// first level where its coordinate differs from the previous
    /// nonzero's, the innermost level for a duplicate, and 0 for the first
    /// nonzero. [`CsfBuilder::push`] finds the split itself; a caller that
    /// knows it already (a packed-key loop) passes it.
    pub fn append(&mut self, split: usize, coord: impl Fn(usize) -> usize, value: Value) {
        let inner = self.crd.len() - 1;
        for d in split..inner {
            self.pos[d].push(self.crd[d + 1].len());
            self.crd[d].push(coord(d));
        }
        self.crd[inner].push(coord(inner));
        self.vals.push(value);
    }

    /// Assembles the packed tensor.
    pub fn finish(mut self) -> CsfTensor {
        for (d, pos) in self.pos.iter_mut().enumerate() {
            pos.push(self.crd[d + 1].len());
        }
        CsfTensor {
            shape: self.shape,
            crd: self.crd,
            pos: self.pos,
            vals: self.vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::{example3_tensor, figure1_matrix};

    #[test]
    fn from_triples_builds_the_expected_fiber_tree() {
        let csf = CsfTensor::from_triples(&example3_tensor());
        // Sorted entries: (0,0,0) (0,0,3) (0,2,4) (1,1,2) (2,0,1) (2,0,4)
        // (2,3,0) (2,3,3).
        assert_eq!(csf.crd(0), &[0, 1, 2]);
        assert_eq!(csf.pos(0), &[0, 2, 3, 5]);
        assert_eq!(csf.crd(1), &[0, 2, 1, 0, 3]);
        assert_eq!(csf.pos(1), &[0, 2, 3, 4, 6, 8]);
        assert_eq!(csf.crd(2), &[0, 3, 4, 2, 1, 4, 0, 3]);
        assert_eq!(csf.values(), &[1.0, 2.0, 3.0, 4.0, 6.0, 5.0, 7.0, 8.0]);
        assert_eq!(csf.nnz(), 8);
        assert_eq!(csf.num_fibers(0), 3);
        assert_eq!(csf.num_fibers(1), 5);
    }

    #[test]
    fn roundtrip_preserves_values_and_sorts() {
        let t = example3_tensor();
        let back = CsfTensor::from_triples(&t).to_triples();
        assert!(back.is_sorted());
        assert!(back.same_values(&t));
    }

    #[test]
    fn order_2_csf_is_dcsr() {
        let m = figure1_matrix();
        let csf = CsfTensor::from_triples(&m);
        assert_eq!(csf.order(), 2);
        // All four rows of the example are nonempty, so the root level holds
        // every row and pos matches the CSR pos array.
        assert_eq!(csf.crd(0), &[0, 1, 2, 3]);
        assert_eq!(csf.pos(0), &[0, 2, 4, 6, 9]);
        assert!(csf.to_triples().same_values(&m));
    }

    #[test]
    fn from_parts_validates_structure() {
        let shape = Shape::tensor3(2, 2, 2);
        let ok = CsfTensor::from_parts(
            shape.clone(),
            vec![vec![0, 1], vec![0, 1], vec![1, 0]],
            vec![vec![0, 1, 2], vec![0, 1, 2]],
            vec![1.0, 2.0],
        );
        assert!(ok.is_ok());
        // Wrong level count.
        assert!(CsfTensor::from_parts(
            shape.clone(),
            vec![vec![0], vec![0]],
            vec![vec![0, 1]],
            vec![1.0]
        )
        .is_err());
        // pos not ending at the child length.
        assert!(CsfTensor::from_parts(
            shape.clone(),
            vec![vec![0], vec![0], vec![0]],
            vec![vec![0, 2], vec![0, 1]],
            vec![1.0]
        )
        .is_err());
        // Unsorted fiber at an intermediate level.
        assert!(CsfTensor::from_parts(
            shape.clone(),
            vec![vec![0], vec![1, 0], vec![0, 1]],
            vec![vec![0, 2], vec![0, 1, 2]],
            vec![1.0, 2.0]
        )
        .is_err());
        // Duplicate root coordinate.
        assert!(CsfTensor::from_parts(
            shape,
            vec![vec![0, 0], vec![0, 1], vec![0, 1]],
            vec![vec![0, 1, 2], vec![0, 1, 2]],
            vec![1.0, 2.0]
        )
        .is_err());
    }

    #[test]
    fn duplicate_innermost_coordinates_are_representable() {
        // Two components at the same (i, j, k) stay adjacent after the sort;
        // the innermost fiber keeps both entries.
        let shape = Shape::tensor3(2, 2, 2);
        let csf = CsfTensor::from_parts(
            shape,
            vec![vec![1], vec![1], vec![0, 0]],
            vec![vec![0, 1], vec![0, 2]],
            vec![2.0, 3.0],
        )
        .unwrap();
        assert_eq!(csf.nnz(), 2);
        assert_eq!(csf.to_triples().get(&[1, 1, 0]), 5.0);
    }

    #[test]
    fn order_1_tensors_roundtrip_through_from_parts() {
        // At order 1 the root level is the innermost level, so duplicate
        // coordinates are representable; from_parts must accept what
        // the builder produces.
        let mut t = SparseTriples::new(Shape::vector(4));
        t.push(vec![2], 1.0).unwrap();
        t.push(vec![2], 2.0).unwrap();
        t.push(vec![0], 3.0).unwrap();
        let csf = CsfTensor::from_triples(&t);
        assert_eq!(csf.crd(0), &[0, 2, 2]);
        let rebuilt = CsfTensor::from_parts(
            csf.shape().clone(),
            vec![csf.crd(0).to_vec()],
            vec![],
            csf.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, csf);
        assert_eq!(rebuilt.to_triples().get(&[2]), 3.0);
        // Order > 1 keeps the strictly-increasing root requirement.
        assert!(CsfTensor::from_parts(
            Shape::matrix(3, 3),
            vec![vec![1, 1], vec![0, 1]],
            vec![vec![0, 1, 2]],
            vec![1.0, 2.0],
        )
        .is_err());
    }

    #[test]
    fn empty_tensor_packs_cleanly() {
        let t = SparseTriples::new(Shape::tensor3(3, 3, 3));
        let csf = CsfTensor::from_triples(&t);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.num_fibers(0), 0);
        assert_eq!(csf.pos(0), &[0]);
        assert!(csf.to_triples().same_values(&t));
    }

    #[test]
    fn lex_sort_perm_is_stable() {
        let columns = vec![vec![1, 0, 1, 0], vec![0, 2, 0, 2]];
        assert_eq!(lex_sort_perm(&columns), vec![1, 3, 0, 2]);
        assert!(lex_sort_perm(&[]).is_empty());
    }
}
