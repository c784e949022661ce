//! The banded level format (Figure 11, bottom): the skyline format's column
//! dimension.
//!
//! A banded level stores, for every parent (row), the dense run of
//! coordinates from the row's smallest stored coordinate (`w`, obtained from
//! a `min` query) up to the diagonal. Edge insertion sizes each row's run as
//! `max(i - w + 1, 0)`; positions inside a run are computed arithmetically.

use crate::query::{Aggregate, AttrQuery, QueryResult};

use crate::levels::assembler::{EdgeInsertion, LevelAssembler};
use crate::levels::properties::{LevelKind, LevelProperties};

/// Label of the attribute query a banded level needs: the smallest stored
/// coordinate per parent.
pub const W: &str = "w";

/// A banded (skyline) level under assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BandedLevel {
    pos: Vec<usize>,
    first: Vec<usize>,
}

impl BandedLevel {
    /// Creates an empty banded level.
    pub fn new() -> Self {
        BandedLevel::default()
    }

    /// The assembled run offsets (one entry per parent, plus one).
    pub fn pos(&self) -> &[usize] {
        &self.pos
    }

    /// The first stored coordinate of every parent's run.
    pub fn first(&self) -> &[usize] {
        &self.first
    }

    /// Consumes the level, returning `(pos, first)`.
    pub fn into_arrays(self) -> (Vec<usize>, Vec<usize>) {
        (self.pos, self.first)
    }
}

impl LevelAssembler for BandedLevel {
    fn kind(&self) -> LevelKind {
        LevelKind::Banded
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties {
            full: false,
            ordered: true,
            unique: true,
            stores_explicit_zeros: true,
            position_iterable_in_order: true,
        }
    }

    fn required_query(&self, dims: &[String], level: usize) -> Option<AttrQuery> {
        // Figure 11: Qk := [select [i1, ..., ik-1] -> min(ik) as w].
        Some(AttrQuery::single(
            dims[..level].to_vec(),
            Aggregate::Min(dims[level].clone()),
            W,
        ))
    }

    fn edge_insertion(&self) -> EdgeInsertion {
        EdgeInsertion::SequencedOrUnsequenced
    }

    fn size(&self, parent_size: usize) -> usize {
        self.pos.get(parent_size).copied().unwrap_or(0)
    }

    fn init_edges(&mut self, parent_size: usize, _sequenced: bool, _q: Option<&QueryResult>) {
        self.pos = vec![0; parent_size + 1];
        self.first = vec![0; parent_size];
    }

    fn insert_edges(
        &mut self,
        parent_pos: usize,
        parent_coords: &[i64],
        sequenced: bool,
        q: Option<&QueryResult>,
    ) {
        let q = q.expect("banded level edge insertion needs its `w` query");
        let row = *parent_coords
            .last()
            .expect("banded level needs the parent coordinate");
        let w = q
            .get(parent_coords, W)
            .expect("banded level authored its `w` query");
        // Rows with no stored nonzeros keep an empty run at the diagonal.
        let (first, run) = if w == crate::query::eval::MIN_EMPTY || w > row {
            (row.max(0) as usize, 0usize)
        } else {
            (w.max(0) as usize, (row - w + 1).max(0) as usize)
        };
        self.first[parent_pos] = first;
        if sequenced {
            self.pos[parent_pos + 1] = self.pos[parent_pos] + run;
        } else {
            self.pos[parent_pos + 1] = run;
        }
    }

    fn finalize_edges(&mut self, parent_size: usize, sequenced: bool) {
        if !sequenced {
            for p in 0..parent_size {
                self.pos[p + 1] += self.pos[p];
            }
        }
    }

    fn init_coords(&mut self, _parent_size: usize, _q: Option<&QueryResult>) {}

    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize {
        // get_pos(pk-1, ..., ik) = pos[pk-1 + 1] + ik - ik-1 - 1
        //                        = pos[pk-1] + (ik - w)   for in-band entries.
        let n = coords.len();
        let row = coords[n - 2];
        let col = coords[n - 1];
        (self.pos[parent_pos + 1] as i64 + col - row - 1) as usize
    }
}
