//! The sliced level format (Figure 7, left): ELL's outer dimension.
//!
//! A sliced level is dense over a slice count `K` that is only known after
//! analysis: `K` is one more than the largest coordinate along the remapped
//! slice dimension (which, for ELL, is the `#i` counter dimension, so `K` is
//! the maximum number of nonzeros in any row).

use crate::query::{Aggregate, AttrQuery, QueryResult};

use crate::levels::assembler::LevelAssembler;
use crate::levels::properties::{LevelKind, LevelProperties};

/// Label of the attribute query a sliced level needs: the maximum coordinate
/// of its dimension.
pub const MAX_CRD: &str = "max_crd";

/// A sliced level under assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlicedLevel {
    k: usize,
}

impl SlicedLevel {
    /// Creates a sliced level whose slice count is not yet known.
    pub fn new() -> Self {
        SlicedLevel { k: 0 }
    }

    /// The slice count `K` (valid after `init_coords`).
    pub fn slice_count(&self) -> usize {
        self.k
    }
}

impl LevelAssembler for SlicedLevel {
    fn kind(&self) -> LevelKind {
        LevelKind::Sliced
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties::dense_like()
    }

    fn required_query(&self, dims: &[String], level: usize) -> Option<AttrQuery> {
        // Figure 7: Q1 := [select [] -> max(i1) as max_crd].
        Some(AttrQuery::single(
            Vec::new(),
            Aggregate::Max(dims[level].clone()),
            MAX_CRD,
        ))
    }

    fn size(&self, parent_size: usize) -> usize {
        parent_size * self.k
    }

    fn init_coords(&mut self, _parent_size: usize, q: Option<&QueryResult>) {
        // init_coords(sz0, Q1): K = Q1[0][].max_crd + 1.
        let q = q.expect("sliced level needs its `max_crd` query");
        let max_crd = q
            .field_max(MAX_CRD)
            .expect("sliced level authored its `max_crd` query");
        self.k = match max_crd {
            Some(max_crd) => (max_crd + 1).max(0) as usize,
            None => 0,
        };
    }

    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize {
        // get_pos(p0, i1) = p0 * K + i1.
        let coord = *coords.last().expect("sliced level needs a coordinate");
        parent_pos * self.k + coord as usize
    }
}
