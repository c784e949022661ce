//! The compressed level format (Figure 11, middle).
//!
//! Compressed levels store a `pos` array mapping each parent position to a
//! segment of the `crd` array. They are used for the column dimension of CSR
//! and CSC, the row dimension of COO, and the block dimension of BCSR.

use crate::query::{Aggregate, AttrQuery, QueryResult};

use crate::levels::assembler::{EdgeInsertion, LevelAssembler, PositionKind};
use crate::levels::properties::{LevelKind, LevelProperties};

/// Label of the attribute query a compressed level needs: the number of
/// children (stored coordinates) per parent subtensor.
pub const NIR: &str = "nir";

/// A compressed level under assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedLevel {
    pos: Vec<usize>,
    crd: Vec<i64>,
    /// True when duplicate child coordinates are not stored (CSR's column
    /// level); false for COO's row level, which stores one entry per nonzero.
    unique: bool,
    /// True when edges were inserted unsequenced and `pos` still holds
    /// per-parent counts that need a prefix sum.
    needs_prefix_sum: bool,
}

impl Default for CompressedLevel {
    fn default() -> Self {
        CompressedLevel::new()
    }
}

impl CompressedLevel {
    /// Creates an empty compressed level that stores each child coordinate
    /// once.
    pub fn new() -> Self {
        CompressedLevel {
            pos: Vec::new(),
            crd: Vec::new(),
            unique: true,
            needs_prefix_sum: false,
        }
    }

    /// Creates an empty compressed level that stores duplicates (one entry
    /// per nonzero below it), as COO's row dimension does.
    pub fn non_unique() -> Self {
        CompressedLevel {
            unique: false,
            ..CompressedLevel::new()
        }
    }

    /// The assembled `pos` array (valid after `finalize_pos`).
    pub fn pos(&self) -> &[usize] {
        &self.pos
    }

    /// The assembled `crd` array.
    pub fn crd(&self) -> &[i64] {
        &self.crd
    }

    /// Consumes the level, returning `(pos, crd)`.
    pub fn into_arrays(self) -> (Vec<usize>, Vec<i64>) {
        (self.pos, self.crd)
    }
}

impl LevelAssembler for CompressedLevel {
    fn kind(&self) -> LevelKind {
        if self.unique {
            LevelKind::Compressed
        } else {
            LevelKind::CompressedNonUnique
        }
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties {
            unique: self.unique,
            ..LevelProperties::compressed_like()
        }
    }

    fn required_query(&self, dims: &[String], level: usize) -> Option<AttrQuery> {
        // A unique compressed level allocates one slot per distinct child
        // (Figure 11: count(ik)); a non-unique one allocates one slot per
        // nonzero below it (count over all remaining dimensions).
        let counted = if self.unique {
            vec![dims[level].clone()]
        } else {
            dims[level..].to_vec()
        };
        Some(AttrQuery::single(
            dims[..level].to_vec(),
            Aggregate::Count(counted),
            NIR,
        ))
    }

    fn edge_insertion(&self) -> EdgeInsertion {
        EdgeInsertion::SequencedOrUnsequenced
    }

    fn position_kind(&self) -> PositionKind {
        PositionKind::Yield
    }

    fn size(&self, parent_size: usize) -> usize {
        self.pos.get(parent_size).copied().unwrap_or(0)
    }

    fn init_edges(&mut self, parent_size: usize, sequenced: bool, _q: Option<&QueryResult>) {
        self.pos = vec![0; parent_size + 1];
        self.needs_prefix_sum = !sequenced;
    }

    fn insert_edges(
        &mut self,
        parent_pos: usize,
        parent_coords: &[i64],
        sequenced: bool,
        q: Option<&QueryResult>,
    ) {
        let q = q.expect("compressed level edge insertion needs its `nir` query");
        let children = q
            .get(parent_coords, NIR)
            .expect("compressed level authored its `nir` query")
            .max(0) as usize;
        if sequenced {
            // seq_insert_edges: pos[p+1] = pos[p] + nir.
            self.pos[parent_pos + 1] = self.pos[parent_pos] + children;
        } else {
            // unseq_insert_edges: record the count; finalize performs the
            // prefix sum.
            self.pos[parent_pos + 1] = children;
        }
    }

    fn finalize_edges(&mut self, parent_size: usize, sequenced: bool) {
        if !sequenced {
            for p in 0..parent_size {
                self.pos[p + 1] += self.pos[p];
            }
            self.needs_prefix_sum = false;
        }
    }

    fn init_coords(&mut self, parent_size: usize, _q: Option<&QueryResult>) {
        let total = self.pos.get(parent_size).copied().unwrap_or(0);
        self.crd = vec![0; total];
    }

    fn position(&mut self, parent_pos: usize, _coords: &[i64]) -> usize {
        // yield_pos: pos[p] is used as a write cursor and bumped; finalize
        // shifts the array back (Figure 11, middle).
        let p = self.pos[parent_pos];
        self.pos[parent_pos] += 1;
        p
    }

    fn insert_coord(&mut self, _parent_pos: usize, pos: usize, coords: &[i64]) {
        self.crd[pos] = *coords.last().expect("compressed level needs a coordinate");
    }

    fn finalize_pos(&mut self, parent_size: usize) {
        // finalize_yield_pos: shift pos back down by one parent (Figure 11
        // middle / lines 22-25 of Figure 6c).
        for i in 0..parent_size {
            self.pos[parent_size - i] = self.pos[parent_size - i - 1];
        }
        self.pos[0] = 0;
    }
}
