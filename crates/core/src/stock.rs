//! The stock-format table: every built-in format, declared once.
//!
//! [`STOCK`] holds one [`StockFormat`] row per built-in format — the name it
//! displays and registers under, the further spellings it parses from, its
//! specification (coordinate remapping in Section 4 notation, remapped
//! dimension names and one level kind per dimension; BCSR's remapping is
//! parametric in its block shape) and its [`FormatFacts`]. Everything that
//! needs to know the stock set reads this table: `Display`/`FromStr` for
//! [`Format`], the `Format::csr()`-style constructors, the registry's eager
//! registration, and [`kernel_table::facts`](crate::kernel_table::facts).
//!
//! Adding a stock format is one row here plus one
//! [`AnyTensor`](crate::AnyTensor) variant for its container (and whatever
//! [`KERNELS`](crate::kernel_table::KERNELS) rows convert into it).

use std::mem::discriminant;

use crate::format::Format;
use crate::kernel_table::{FormatFacts, Padding, Sensitivity, StreamKey};
use crate::levels::LevelKind;
use crate::remap::{parse_remapping, Remapping};
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
    /// The coordinate remapping. `None` for DOK, which has no coordinate
    /// hierarchy and is a conversion source only.
    remapping: Option<StockRemapping>,
    /// Names of the remapped dimensions, outer to inner.
    dims: &'static [&'static str],
    /// The level kind storing each remapped dimension.
    levels: &'static [LevelKind],
}

/// How a row writes its coordinate remapping.
#[derive(Debug, Clone, Copy)]
enum StockRemapping {
    /// Section 4 notation, parsed once, when the registry builds the row's
    /// preset.
    Text(&'static str),
    /// The parametric row's [`Remapping::blocked`] over its block shape, so
    /// a new shape parses nothing.
    Blocked,
}

const fn row(
    name: &'static str,
    aliases: &'static [&'static str],
    tag: FormatId,
    remapping: Option<StockRemapping>,
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
use StockRemapping::{Blocked, Text};

const NO: Padding = Padding::None;

/// The table. Each row reads: name, aliases, tag; remapping, dimension names,
/// level kinds; then the facts — assembly weight, unsorted-feed penalty,
/// sensitivity, way-point, padding, rows in order, stream key.
#[rustfmt::skip]
pub static STOCK: [StockFormat; 11] = [
    row("COO", &[], Coo,
        Some(Text("(i,j) -> (i,j)")), &["i", "j"], &[CompressedNonUnique, Singleton],
        facts(1.0, 1.0, Full, Some(Full), NO, false, None)),
    row("CSR", &[], Csr,
        Some(Text("(i,j) -> (i,j)")), &["i", "j"], &[Dense, Compressed],
        facts(1.2, 1.0, RowOrder, Some(RowOrder), NO, true, Some(StreamKey::Rows))),
    row("CSC", &[], Csc,
        Some(Text("(i,j) -> (j,i)")), &["j", "i"], &[Dense, Compressed],
        facts(1.4, 1.0, ColumnOrder, None, NO, false, None)),
    row("DIA", &[], Dia,
        Some(Text("(i,j) -> (j-i,i,j)")), &["k", "i", "j"], &[Squeezed, Dense, Singleton],
        facts(6.0, 1.0, Insensitive, None, Structural, false, None)),
    row("ELL", &[], Ell,
        Some(Text("(i,j) -> (k=#i in k,i,j)")), &["k", "i", "j"], &[Sliced, Dense, Singleton],
        facts(1.5, 1.0, RowOrder, None, ToLongestRow, false, None)),
    row("BCSR", &[], Bcsr { block_rows: 2, block_cols: 2 },
        Some(Blocked), &["bi", "bj", "li", "lj"], &[Dense, Compressed, Dense, Dense],
        facts(6.0, 1.8, Insensitive, None, Structural, false, None)),
    row("SKY", &["SKYLINE"], Skyline,
        Some(Text("(i,j) -> (i,j)")), &["i", "j"], &[Dense, Banded],
        facts(4.0, 1.0, Insensitive, None, Structural, true, None)),
    row("JAD", &[], Jad,
        Some(Text("(i,j) -> (#i,i,j)")), &["k", "i", "j"], &[Sliced, Compressed, Singleton],
        facts(2.5, 1.0, RowOrder, None, NO, false, None)),
    row("DOK", &[], Dok,
        None, &[], &[],
        facts(f64::INFINITY, 1.0, Full, None, NO, false, None)),
    row("COO3", &[], Coo3,
        Some(Text("(i,j,k) -> (i,j,k)")), &["i", "j", "k"], &[CompressedNonUnique, Singleton, Singleton],
        facts(1.0, 1.0, Full, Some(Full), NO, false, None)),
    row("CSF", &[], Csf,
        Some(Text("(i,j,k) -> (i,j,k)")), &["i", "j", "k"], &[Compressed, Compressed, Compressed],
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

    /// The specification; `None` for a source-only row (DOK). A text row
    /// parses here, which the registry does once, for the row's preset.
    pub(crate) fn spec(self) -> Option<FormatSpec> {
        let row = self.row();
        let remapping = match row.remapping? {
            Text(text) => parse_remapping(text).expect("stock remapping parses"),
            Blocked => {
                let (block_rows, block_cols) = self.block_shape().expect("a blocked row's tag");
                Remapping::blocked(block_rows, block_cols)
            }
        };
        Some(FormatSpec::new(
            &self.name(),
            remapping,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remap::EvalContext;

    /// The remapping of a stock preset.
    fn remapping(format: Format) -> Remapping {
        format.spec().expect("a stock spec").remapping.clone()
    }

    /// Section 4 text interleaving the low `bits` bits of `a` and `b`
    /// (Morton / Z-order), least significant bit first.
    fn morton_text(a: &str, b: &str, bits: u32) -> String {
        (0..bits)
            .flat_map(|bit| {
                [(a, 2 * bit), (b, 2 * bit + 1)]
                    .map(|(var, out)| format!("((({var}>>{bit})&1)<<{out})"))
            })
            .collect::<Vec<_>>()
            .join("|")
    }

    #[test]
    fn mode_permutation_permutes_coordinates() {
        assert!(Remapping::mode_permutation(&[0, 1, 2]).is_identity());
        let remap = Remapping::mode_permutation(&[2, 0, 1]);
        assert_eq!(remap.to_string(), "(i,j,k) -> (k,i,j)");
        let mut ctx = EvalContext::new(&remap);
        assert_eq!(ctx.apply(&[5, 7, 9]).unwrap(), vec![9, 5, 7]);
        // Pure permutations are invertible.
        let inv = remap.inverter().expect("permutation inverts");
        assert_eq!(inv.apply(&[9, 5, 7]), vec![5, 7, 9]);
    }

    #[test]
    #[should_panic]
    fn non_permutation_mode_order_panics() {
        Remapping::mode_permutation(&[0, 0, 1]);
    }

    #[test]
    fn stock_remappings_have_expected_shape() {
        for format in [Format::coo(), Format::csr(), Format::skyline()] {
            assert_eq!(remapping(format), Remapping::identity(2));
        }
        for format in [Format::coo3(), Format::csf()] {
            assert_eq!(remapping(format), Remapping::identity(3));
        }
        assert_eq!(remapping(Format::csc()).dest_order(), 2);
        assert_eq!(remapping(Format::dia()).dest_order(), 3);
        assert_eq!(remapping(Format::ell()).dest_order(), 3);
        assert!(remapping(Format::ell()).has_counter());
        assert!(remapping(Format::jad()).has_counter());
        let symbolic = parse_remapping("(i,j) -> (i/M,j/N,i,j)").unwrap();
        assert_eq!(symbolic.params(), vec!["M".to_string(), "N".to_string()]);
        assert_eq!(remapping(Format::bcsr(2, 3)), Remapping::blocked(2, 3));
        assert_eq!(Remapping::blocked(2, 3).dest_order(), 4);
        assert!(Format::dok().spec().is_none());
    }

    #[test]
    fn bcsr_with_blocks_maps_into_tiles() {
        let remap = Remapping::blocked(2, 3);
        assert_eq!(remap.to_string(), "(i,j) -> (i/2,j/3,i%2,j%3)");
        let mut ctx = EvalContext::new(&remap);
        assert_eq!(ctx.apply(&[5, 7]).unwrap(), vec![2, 2, 1, 1]);
        assert_eq!(ctx.apply(&[0, 0]).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn morton_interleave_matches_reference() {
        fn reference_morton(x: u64, y: u64, bits: u32) -> u64 {
            let mut out = 0u64;
            for b in 0..bits {
                out |= ((x >> b) & 1) << (2 * b);
                out |= ((y >> b) & 1) << (2 * b + 1);
            }
            out
        }
        let text = format!("(i,j) -> ({},i)", morton_text("i", "j", 4));
        let remap = parse_remapping(&text).unwrap();
        let mut ctx = EvalContext::new(&remap);
        for i in 0..16i64 {
            for j in 0..16i64 {
                let got = ctx.apply(&[i, j]).unwrap()[0];
                assert_eq!(
                    got as u64,
                    reference_morton(i as u64, j as u64, 4),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn hicoo_orders_blocks_before_locals() {
        // HiCOO over 2x2 tiles (Section 4.1): tiles in Morton order of their
        // block coordinates, nonzeros in Morton order of their local ones.
        let text = format!(
            "(i,j) -> (r=i/2 in s=j/2 in {},i/2,j/2,u=i%2 in v=j%2 in {},i,j)",
            morton_text("r", "s", 2),
            morton_text("u", "v", 2)
        );
        let remap = parse_remapping(&text).unwrap();
        assert_eq!(remap.dest_order(), 6);
        let mut ctx = EvalContext::new(&remap);
        // (3, 2) lies in block (1, 1) with local coordinates (1, 0).
        let c = ctx.apply(&[3, 2]).unwrap();
        assert_eq!(c[1], 1);
        assert_eq!(c[2], 1);
        assert_eq!(c[4], 3);
        assert_eq!(c[5], 2);
        // Block Morton code of (1,1) is 3; local Morton code of (1,0) is 1.
        assert_eq!(c[0], 3);
        assert_eq!(c[3], 1);
    }

    #[test]
    #[should_panic]
    fn zero_block_size_panics() {
        Remapping::blocked(0, 2);
    }
}
