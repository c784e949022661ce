//! Level kinds and the properties the code generator reasons about.

use std::fmt;

/// The level formats implemented in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelKind {
    /// Implicitly encodes every coordinate in `[0, extent)` (CSR's row level).
    Dense,
    /// `pos`/`crd` arrays grouping children under each parent, one entry per
    /// distinct child coordinate (CSR's column level, BCSR's block level).
    Compressed,
    /// A compressed level that stores duplicate coordinates — one entry per
    /// nonzero below it rather than per distinct child (COO's row level).
    CompressedNonUnique,
    /// One coordinate per parent position (COO's column level, ELL's column
    /// level).
    Singleton,
    /// A dense level whose extent `K` is only known after analysis (ELL's
    /// slice level).
    Sliced,
    /// A compressed set of coordinate values stored in a `perm` array with a
    /// reverse map for random access (DIA's offset level).
    Squeezed,
    /// A dense run from the first stored coordinate to the diagonal (the
    /// skyline format's column level).
    Banded,
    /// A hash table from coordinates to positions (DOK-style targets;
    /// extension beyond the paper's examples).
    Hashed,
}

impl fmt::Display for LevelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LevelKind::Dense => "dense",
            LevelKind::Compressed => "compressed",
            LevelKind::CompressedNonUnique => "compressed-nonunique",
            LevelKind::Singleton => "singleton",
            LevelKind::Sliced => "sliced",
            LevelKind::Squeezed => "squeezed",
            LevelKind::Banded => "banded",
            LevelKind::Hashed => "hashed",
        };
        f.write_str(name)
    }
}

/// Error returned when a level name does not parse as a [`LevelKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelKindError(pub String);

impl fmt::Display for ParseLevelKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown level kind `{}` (expected dense, compressed, \
             compressed-nonunique, singleton, sliced, squeezed, banded, or \
             hashed)",
            self.0
        )
    }
}

impl std::error::Error for ParseLevelKindError {}

impl std::str::FromStr for LevelKind {
    type Err = ParseLevelKindError;

    /// Parses the names the `Display` impl emits (case-insensitive), so every
    /// kind round-trips through its `Display` form. Used by the format
    /// registry's spec-string notation (`dense,compressed,...`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Ok(LevelKind::Dense),
            "compressed" => Ok(LevelKind::Compressed),
            "compressed-nonunique" | "compressed_nonunique" => Ok(LevelKind::CompressedNonUnique),
            "singleton" => Ok(LevelKind::Singleton),
            "sliced" => Ok(LevelKind::Sliced),
            "squeezed" => Ok(LevelKind::Squeezed),
            "banded" => Ok(LevelKind::Banded),
            "hashed" => Ok(LevelKind::Hashed),
            _ => Err(ParseLevelKindError(s.to_string())),
        }
    }
}

/// Properties of a level format, following Chou et al. (2018) plus the
/// explicit-zeros property this paper adds for the `simplify-width-count`
/// transformation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelProperties {
    /// Every coordinate in the dimension is represented (dense-like levels).
    pub full: bool,
    /// Coordinates appear in ascending order within each parent.
    pub ordered: bool,
    /// No coordinate appears more than once within each parent.
    pub unique: bool,
    /// Stored positions may include padding / explicit zeros (true for dense,
    /// sliced, squeezed, and banded levels, which is why `count` queries over
    /// them cannot use width shortcuts).
    pub stores_explicit_zeros: bool,
    /// Positions within the level can be visited in order by a simple loop
    /// over the parent (enables sequenced edge insertion).
    pub position_iterable_in_order: bool,
}

impl LevelProperties {
    /// Properties of a dense-like level (full, ordered, unique, padded).
    pub fn dense_like() -> Self {
        LevelProperties {
            full: true,
            ordered: true,
            unique: true,
            stores_explicit_zeros: true,
            position_iterable_in_order: true,
        }
    }

    /// Properties of a compressed level built by this module's assemblers
    /// (grouped, not necessarily ordered within a parent).
    pub fn compressed_like() -> Self {
        LevelProperties {
            full: false,
            ordered: false,
            unique: true,
            stores_explicit_zeros: false,
            position_iterable_in_order: true,
        }
    }
}
