//! The squeezed level format (Figure 11, top): DIA's offset dimension.
//!
//! A squeezed level stores the *set* of coordinate values that contain
//! nonzeros (the nonzero diagonals) in a `perm` array, and builds a reverse
//! map `rperm` so that positions can be computed by random access during
//! assembly. Its required query is the `id()` bit set over its dimension.

use crate::query::{Aggregate, AttrQuery, QueryResult};

use crate::levels::assembler::LevelAssembler;
use crate::levels::properties::{LevelKind, LevelProperties};

/// Label of the attribute query a squeezed level needs: whether each
/// coordinate value of its dimension contains any nonzero.
pub const NZ: &str = "nz";

/// A squeezed level under assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SqueezedLevel {
    /// Lower bound of the dimension's coordinate range (`Mk` in Figure 11).
    lower: i64,
    /// Upper bound (exclusive; `Nk` in Figure 11).
    upper: i64,
    perm: Vec<i64>,
    rperm: Vec<usize>,
}

impl SqueezedLevel {
    /// Creates a squeezed level over coordinates `[lower, upper)`.
    pub fn new(lower: i64, upper: i64) -> Self {
        SqueezedLevel {
            lower,
            upper,
            perm: Vec::new(),
            rperm: Vec::new(),
        }
    }

    /// The stored coordinate values (DIA's `perm` array of diagonal offsets),
    /// valid after `init_coords`.
    pub fn perm(&self) -> &[i64] {
        &self.perm
    }

    /// Number of stored coordinate values (`K`).
    pub fn count(&self) -> usize {
        self.perm.len()
    }

    /// Consumes the level, returning its `perm` array.
    pub fn into_perm(self) -> Vec<i64> {
        self.perm
    }
}

impl LevelAssembler for SqueezedLevel {
    fn kind(&self) -> LevelKind {
        LevelKind::Squeezed
    }

    fn properties(&self) -> LevelProperties {
        LevelProperties {
            full: false,
            ordered: true,
            unique: true,
            stores_explicit_zeros: false,
            position_iterable_in_order: true,
        }
    }

    fn required_query(&self, dims: &[String], level: usize) -> Option<AttrQuery> {
        // Figure 11: Qk := [select [ik] -> id() as nz].
        Some(AttrQuery::single(
            vec![dims[level].clone()],
            Aggregate::Id,
            NZ,
        ))
    }

    fn size(&self, parent_size: usize) -> usize {
        parent_size * self.perm.len()
    }

    fn init_coords(&mut self, _parent_size: usize, q: Option<&QueryResult>) {
        // init_coords: scan the nz bit set and collect present coordinates.
        let q = q.expect("squeezed level needs its `nz` query");
        self.perm.clear();
        for c in self.lower..self.upper {
            let nz = q
                .get(&[c], NZ)
                .expect("squeezed level authored its `nz` query");
            if nz != 0 {
                self.perm.push(c);
            }
        }
    }

    fn init_pos(&mut self, _parent_size: usize) {
        // init_get_pos: build the reverse permutation.
        self.rperm = vec![usize::MAX; (self.upper - self.lower).max(0) as usize];
        for (n, &c) in self.perm.iter().enumerate() {
            self.rperm[(c - self.lower) as usize] = n;
        }
    }

    fn position(&mut self, parent_pos: usize, coords: &[i64]) -> usize {
        // get_pos(pk-1, ..., ik) = pk-1 * K + rperm[ik - Mk].
        let coord = *coords.last().expect("squeezed level needs a coordinate");
        let slot = self.rperm[(coord - self.lower) as usize];
        debug_assert_ne!(
            slot,
            usize::MAX,
            "coordinate {coord} was not marked nonzero"
        );
        parent_pos * self.perm.len() + slot
    }

    fn finalize_pos(&mut self, _parent_size: usize) {
        // finalize_get_pos: free(rperm).
        self.rperm = Vec::new();
    }
}
