//! A hashed level format: coordinates stored in a hash map (DOK-style
//! targets).
//!
//! The paper's level-format zoo does not include a hashed level, but the
//! abstraction accommodates one naturally: it needs no attribute query (the
//! map grows dynamically) and implements `get_pos` by interning coordinates.
//! It is included as an extensibility demonstration and is exercised by the
//! custom-format example.

use std::collections::HashMap;

use crate::query::{AttrQuery, QueryResult};

use crate::levels::assembler::LevelAssembler;
use crate::levels::properties::{LevelKind, LevelProperties};

/// A hashed level under assembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HashedLevel {
    positions: HashMap<(usize, i64), usize>,
    coords: Vec<(usize, i64)>,
}

impl HashedLevel {
    /// Creates an empty hashed level.
    pub fn new() -> Self {
        HashedLevel::default()
    }

    /// The interned `(parent position, coordinate)` pairs in insertion order.
    pub fn coords(&self) -> &[(usize, i64)] {
        &self.coords
    }
}

impl LevelAssembler for HashedLevel {
    fn kind(&self) -> LevelKind {
        LevelKind::Hashed
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties {
            full: false,
            ordered: false,
            unique: true,
            stores_explicit_zeros: false,
            position_iterable_in_order: false,
        }
    }

    fn required_query(&self, _dims: &[String], _level: usize) -> Option<AttrQuery> {
        None
    }

    fn size(&self, _parent_size: usize) -> usize {
        self.coords.len()
    }

    fn init_coords(&mut self, _parent_size: usize, _q: Option<&QueryResult>) {
        self.positions.clear();
        self.coords.clear();
    }

    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize {
        let coord = *coords.last().expect("hashed level needs a coordinate");
        let next = self.coords.len();
        let entry = self.positions.entry((parent_pos, coord)).or_insert(next);
        if *entry == next {
            self.coords.push((parent_pos, coord));
        }
        *entry
    }
}
