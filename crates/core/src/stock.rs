//! The stock-format table: every built-in format, declared once.
//!
//! [`STOCK`] holds one [`StockFormat`] row per built-in format — the name it
//! displays and registers under, the further spellings it parses from, its
//! specification (coordinate remapping, remapped dimension names and one
//! level kind per dimension; BCSR's is parametric in its block shape) and its
//! [`FormatFacts`]. Everything that needs to know the stock set reads this
//! table: `Display`/`FromStr` for [`Format`], the `Format::csr()`-style
//! constructors, the registry's eager registration, and
//! [`kernel_table::facts`](crate::kernel_table::facts).
//!
//! Adding a stock format is one row here plus one
//! [`AnyTensor`](crate::AnyTensor) variant for its container (and whatever
//! [`KERNELS`](crate::kernel_table::KERNELS) rows convert into it).

use std::mem::discriminant;

use coord_remap::{stock as remap, Remapping};
use level_formats::LevelKind;

use crate::format::Format;
use crate::kernel_table::{FormatFacts, Padding, Sensitivity, StreamKey};
use crate::spec::FormatSpec;

/// Tags a stock format inside the crate: what the
/// [kernel table](crate::kernel_table)'s patterns match on and what an
/// [`AnyTensor`](crate::AnyTensor) container maps to its [`STOCK`] row with.
/// The public name of a format is its [`Format`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FormatId {
    Coo,
    Csr,
    Csc,
    Dia,
    Ell,
    Bcsr {
        block_rows: usize,
        block_cols: usize,
    },
    Skyline,
    Jad,
    Dok,
    Coo3,
    Csf,
}

/// One stock format.
#[derive(Debug)]
pub struct StockFormat {
    /// The display and registry name. BCSR's is the prefix its block shape
    /// follows (`BCSR2x3`): the shape is part of the name, and so of the
    /// fingerprint — BCSR2x2 and BCSR4x4 are different formats.
    pub name: &'static str,
    /// Further spellings [`FromStr`](std::str::FromStr) accepts. Parsing is
    /// case-insensitive throughout.
    pub aliases: &'static [&'static str],
    /// What the planner, the service and the streaming path know about the
    /// format.
    pub facts: FormatFacts,
    /// The tag; a parametric row carries its sample block shape.
    pub(crate) tag: FormatId,
    /// The coordinate remapping, given the block shape (which every row but
    /// BCSR ignores). `None` for DOK, which has no coordinate hierarchy and is
    /// a conversion source only.
    remapping: Option<fn(usize, usize) -> Remapping>,
    /// Names of the remapped dimensions, outer to inner.
    dims: &'static [&'static str],
    /// The level kind storing each remapped dimension.
    levels: &'static [LevelKind],
}

const fn row(
    name: &'static str,
    aliases: &'static [&'static str],
    tag: FormatId,
    remapping: Option<fn(usize, usize) -> Remapping>,
    dims: &'static [&'static str],
    levels: &'static [LevelKind],
    facts: FormatFacts,
) -> StockFormat {
    StockFormat {
        name,
        aliases,
        facts,
        tag,
        remapping,
        dims,
        levels,
    }
}

const fn facts(
    assembly_weight: f64,
    unsorted_feed_penalty: f64,
    sensitivity: Sensitivity,
    way_point: Option<Sensitivity>,
    padding: Padding,
    rows_in_order: bool,
    stream_key: Option<StreamKey>,
) -> FormatFacts {
    FormatFacts {
        assembly_weight,
        unsorted_feed_penalty,
        sensitivity,
        way_point,
        padding,
        rows_in_order,
        stream_key,
    }
}

use FormatId::{Bcsr, Coo, Coo3, Csc, Csf, Csr, Dia, Dok, Ell, Jad, Skyline};
use LevelKind::{Banded, Compressed, CompressedNonUnique, Dense, Singleton, Sliced, Squeezed};
use Padding::{Structural, ToLongestRow};
use Sensitivity::{ColumnOrder, Full, Insensitive, RowOrder};

const NO: Padding = Padding::None;

/// The table. Each row reads: name, aliases, tag; remapping, dimension names,
/// level kinds; then the facts — assembly weight, unsorted-feed penalty,
/// sensitivity, way-point, padding, rows in order, stream key.
#[rustfmt::skip]
pub static STOCK: [StockFormat; 11] = [
    row("COO", &[], Coo,
        Some(|_, _| remap::row_major_matrix()), &["i", "j"], &[CompressedNonUnique, Singleton],
        facts(1.0, 1.0, Full, Some(Full), NO, false, None)),
    row("CSR", &[], Csr,
        Some(|_, _| remap::row_major_matrix()), &["i", "j"], &[Dense, Compressed],
        facts(1.2, 1.0, RowOrder, Some(RowOrder), NO, true, Some(StreamKey::Rows))),
    row("CSC", &[], Csc,
        Some(|_, _| remap::column_major_matrix()), &["j", "i"], &[Dense, Compressed],
        facts(1.4, 1.0, ColumnOrder, None, NO, false, None)),
    row("DIA", &[], Dia,
        Some(|_, _| remap::dia()), &["k", "i", "j"], &[Squeezed, Dense, Singleton],
        facts(6.0, 1.0, Insensitive, None, Structural, false, None)),
    row("ELL", &[], Ell,
        Some(|_, _| remap::ell()), &["k", "i", "j"], &[Sliced, Dense, Singleton],
        facts(1.5, 1.0, RowOrder, None, ToLongestRow, false, None)),
    row("BCSR", &[], Bcsr { block_rows: 2, block_cols: 2 },
        Some(remap::bcsr_with_blocks), &["bi", "bj", "li", "lj"], &[Dense, Compressed, Dense, Dense],
        facts(6.0, 1.8, Insensitive, None, Structural, false, None)),
    row("SKY", &["SKYLINE"], Skyline,
        Some(|_, _| remap::row_major_matrix()), &["i", "j"], &[Dense, Banded],
        facts(4.0, 1.0, Insensitive, None, Structural, true, None)),
    row("JAD", &[], Jad,
        Some(|_, _| remap::jad()), &["k", "i", "j"], &[Sliced, Compressed, Singleton],
        facts(2.5, 1.0, RowOrder, None, NO, false, None)),
    row("DOK", &[], Dok,
        None, &[], &[],
        facts(f64::INFINITY, 1.0, Full, None, NO, false, None)),
    row("COO3", &[], Coo3,
        Some(|_, _| Remapping::identity(3)), &["i", "j", "k"], &[CompressedNonUnique, Singleton, Singleton],
        facts(1.0, 1.0, Full, Some(Full), NO, false, None)),
    row("CSF", &[], Csf,
        Some(|_, _| Remapping::identity(3)), &["i", "j", "k"], &[Compressed, Compressed, Compressed],
        facts(2.5, 1.0, Insensitive, Some(Insensitive), NO, true, Some(StreamKey::Modes))),
];

impl StockFormat {
    /// The row's format handle (a parametric row's at its sample block
    /// shape, BCSR2x2).
    pub fn format(&self) -> Format {
        Format::stock(self.tag)
    }
}

impl FormatId {
    /// Position of the tag's row in [`STOCK`].
    pub(crate) fn row_index(self) -> usize {
        STOCK
            .iter()
            .position(|row| discriminant(&row.tag) == discriminant(&self))
            .expect("every tag has a stock row")
    }

    /// The tag's row.
    pub(crate) fn row(self) -> &'static StockFormat {
        &STOCK[self.row_index()]
    }

    /// The block shape of a parametric tag.
    pub(crate) fn block_shape(self) -> Option<(usize, usize)> {
        match self {
            Bcsr {
                block_rows,
                block_cols,
            } => Some((block_rows, block_cols)),
            _ => None,
        }
    }

    /// The display and registry name.
    pub(crate) fn name(self) -> String {
        let name = self.row().name;
        match self.block_shape() {
            Some((block_rows, block_cols)) => format!("{name}{block_rows}x{block_cols}"),
            None => name.to_string(),
        }
    }

    /// The specification; `None` for a source-only row (DOK).
    pub(crate) fn spec(self) -> Option<FormatSpec> {
        let row = self.row();
        let (block_rows, block_cols) = self.block_shape().unwrap_or_default();
        Some(FormatSpec::new(
            &self.name(),
            (row.remapping?)(block_rows, block_cols),
            row.dims.to_vec(),
            row.levels.to_vec(),
        ))
    }
}

/// Resolves a stock name or alias (case-insensitive; `BCSR<rows>x<cols>` with
/// a nonzero block shape) to its tag.
pub(crate) fn parse(s: &str) -> Option<FormatId> {
    let upper = s.trim().to_ascii_uppercase();
    STOCK.iter().find_map(|row| match row.tag {
        Bcsr { .. } => {
            let (rows, cols) = upper.strip_prefix(row.name)?.split_once('X')?;
            let (block_rows, block_cols) = (rows.parse().ok()?, cols.parse().ok()?);
            (block_rows > 0 && block_cols > 0).then_some(Bcsr {
                block_rows,
                block_cols,
            })
        }
        tag => (upper == row.name || row.aliases.contains(&upper.as_str())).then_some(tag),
    })
}
