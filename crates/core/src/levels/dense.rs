//! The dense level format (Figure 4, left; Figure 7, middle).

use crate::query::{AttrQuery, QueryResult};

use crate::levels::assembler::LevelAssembler;
use crate::levels::properties::{LevelKind, LevelProperties};

/// A dense level: all `extent` coordinates of the dimension are implicitly
/// encoded, so no coordinate data is stored and positions are computed as
/// `parent_pos * extent + coordinate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLevel {
    extent: usize,
    /// Smallest coordinate value (normally 0; remapped dense dimensions keep
    /// the default).
    lower: i64,
}

impl DenseLevel {
    /// Creates a dense level over coordinates `[0, extent)`.
    pub fn new(extent: usize) -> Self {
        DenseLevel { extent, lower: 0 }
    }

    /// Creates a dense level over coordinates `[lower, lower + extent)`.
    pub fn with_lower_bound(extent: usize, lower: i64) -> Self {
        DenseLevel { extent, lower }
    }

    /// The dimension extent `N`.
    pub fn extent(&self) -> usize {
        self.extent
    }
}

impl LevelAssembler for DenseLevel {
    fn kind(&self) -> LevelKind {
        LevelKind::Dense
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties::dense_like()
    }

    fn required_query(&self, _dims: &[String], _level: usize) -> Option<AttrQuery> {
        None
    }

    fn size(&self, parent_size: usize) -> usize {
        parent_size * self.extent
    }

    fn init_coords(&mut self, _parent_size: usize, _q: Option<&QueryResult>) {}

    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize {
        let coord = *coords.last().expect("dense level needs a coordinate");
        debug_assert!(coord >= self.lower && coord < self.lower + self.extent as i64);
        parent_pos * self.extent + (coord - self.lower) as usize
    }
}
