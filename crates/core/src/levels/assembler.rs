//! The assembly abstract interface (Section 6.1).

use crate::query::{AttrQuery, QueryResult};

use crate::levels::properties::{LevelKind, LevelProperties};

/// Which edge-insertion variants a level format supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeInsertion {
    /// The level needs no edge-insertion phase (dense, sliced, squeezed,
    /// singleton levels).
    None,
    /// The level supports both sequenced and unsequenced edge insertion
    /// (compressed and banded levels); the planner picks sequenced when the
    /// parent level can be iterated in order.
    SequencedOrUnsequenced,
}

/// Whether a level's position function guarantees distinct positions for
/// duplicate coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionKind {
    /// `get_pos`: nonzeros with the same coordinates map to the same
    /// position (dense, sliced, squeezed, banded, hashed levels).
    Get,
    /// `yield_pos`: every insertion gets a fresh position, so duplicates can
    /// be stored (compressed and singleton levels).
    Yield,
}

/// The assembly abstract interface every level format implements
/// (Section 6.1, Figures 7 and 11).
///
/// A conversion drives an assembler in two phases, exactly as in Figure 12:
///
/// 1. **Edge insertion** (optional): `init_edges`, then `insert_edges` once
///    per parent position, then `finalize_edges`.
/// 2. **Coordinate insertion**: `init_coords` and `init_pos`, then for every
///    (remapped) nonzero `position` followed by `insert_coord`, and finally
///    `finalize_pos`.
///
/// Coordinates are passed as the prefix of the nonzero's remapped coordinates
/// ending at this level, i.e. `coords[coords.len() - 1]` is this level's
/// coordinate and `coords[coords.len() - 2]` is the parent's.
pub trait LevelAssembler {
    /// The level format's kind.
    fn kind(&self) -> LevelKind;

    /// The level format's static properties.
    fn properties(&self) -> LevelProperties;

    /// The attribute query this level needs precomputed, if any, expressed
    /// over the remapped dimension names (`dims[level]` is this level's
    /// dimension).
    fn required_query(&self, dims: &[String], level: usize) -> Option<AttrQuery>;

    /// Which edge-insertion variants the level supports.
    fn edge_insertion(&self) -> EdgeInsertion {
        EdgeInsertion::None
    }

    /// Whether positions of duplicate coordinates coincide.
    fn position_kind(&self) -> PositionKind {
        PositionKind::Get
    }

    /// `get_size`: the size of this level given the size of its parent level.
    fn size(&self, parent_size: usize) -> usize;

    /// `seq_init_edges` / `unseq_init_edges`.
    fn init_edges(&mut self, _parent_size: usize, _sequenced: bool, _q: Option<&QueryResult>) {}

    /// `seq_insert_edges` / `unseq_insert_edges` for one parent position.
    /// `parent_coords` identifies the parent subtensor (remapped coordinates
    /// of the enclosing levels).
    fn insert_edges(
        &mut self,
        _parent_pos: usize,
        _parent_coords: &[i64],
        _sequenced: bool,
        _q: Option<&QueryResult>,
    ) {
    }

    /// `unseq_finalize_edges` (a no-op after sequenced insertion).
    fn finalize_edges(&mut self, _parent_size: usize, _sequenced: bool) {}

    /// `init_coords`.
    fn init_coords(&mut self, parent_size: usize, q: Option<&QueryResult>);

    /// `init_get_pos` / `init_yield_pos`.
    fn init_pos(&mut self, _parent_size: usize) {}

    /// `get_pos` / `yield_pos`: the position at which to store the nonzero
    /// whose remapped coordinate prefix is `coords`, under parent position
    /// `parent_pos`.
    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize;

    /// `insert_coord`: store the coordinate at the given position.
    fn insert_coord(&mut self, _parent_pos: usize, _pos: usize, _coords: &[i64]) {}

    /// `finalize_get_pos` / `finalize_yield_pos`.
    fn finalize_pos(&mut self, _parent_size: usize) {}
}
