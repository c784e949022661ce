//! The singleton level format (Figure 7, right).
//!
//! A singleton level stores exactly one coordinate per parent position — the
//! column dimension of COO and ELL. Its position function simply forwards the
//! parent's position.

use crate::query::{AttrQuery, QueryResult};

use crate::levels::assembler::{LevelAssembler, PositionKind};
use crate::levels::properties::{LevelKind, LevelProperties};

/// A singleton level under assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SingletonLevel {
    crd: Vec<i64>,
}

impl SingletonLevel {
    /// Creates an empty singleton level.
    pub fn new() -> Self {
        SingletonLevel::default()
    }

    /// The assembled coordinate array.
    pub fn crd(&self) -> &[i64] {
        &self.crd
    }

    /// Consumes the level, returning its coordinate array.
    pub fn into_crd(self) -> Vec<i64> {
        self.crd
    }
}

impl LevelAssembler for SingletonLevel {
    fn kind(&self) -> LevelKind {
        LevelKind::Singleton
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties {
            full: false,
            ordered: false,
            unique: false,
            stores_explicit_zeros: false,
            position_iterable_in_order: true,
        }
    }

    fn required_query(&self, _dims: &[String], _level: usize) -> Option<AttrQuery> {
        None
    }

    fn position_kind(&self) -> PositionKind {
        PositionKind::Yield
    }

    fn size(&self, parent_size: usize) -> usize {
        parent_size
    }

    fn init_coords(&mut self, parent_size: usize, _q: Option<&QueryResult>) {
        // init_coords in Figure 7: crd = calloc(sz, int).
        self.crd = vec![0; parent_size];
    }

    fn position(&mut self, parent_pos: usize, _coords: &[i64]) -> usize {
        // get_pos(p2, ..., i3) = p2.
        parent_pos
    }

    fn insert_coord(&mut self, _parent_pos: usize, pos: usize, coords: &[i64]) {
        // A hashed ancestor interns its positions on demand, so the parent
        // size seen by `init_coords` can undercount; grow to match (the
        // driver grows its value array the same way).
        if pos >= self.crd.len() {
            self.crd.resize(pos + 1, 0);
        }
        self.crd[pos] = *coords.last().expect("singleton level needs a coordinate");
    }
}
