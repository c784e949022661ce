//! Packed-key LSD radix sorting for coordinate tuples.
//!
//! The paper's sort-then-pack conversions order their nonzeros by a stable
//! lexicographic comparison of parallel coordinate columns
//! ([`crate::csf::lex_cmp_at`]) and then append each one at the first level
//! where it leaves the previous nonzero's fibers. Both halves run on one
//! machine word per nonzero here:
//!
//! * **Key packing** ([`KeyLayout`]) — level `d` occupies a bit field wide
//!   enough for the *actual* maximum coordinate (not the shape's extent),
//!   with the outermost level in the highest bits. Because every field is
//!   wide enough for its values, integer comparison of the packed keys
//!   equals lexicographic comparison of the tuples. An all-zero level packs
//!   to no bits at all.
//! * **Width check** — keys up to 64 bits take the `u64` path, up to 128
//!   bits the `u128` path; callers route wider tuples (only reachable at
//!   order ≥ 3 with near-`usize::MAX` coordinates) to a comparison sort.
//! * **LSD passes** ([`sort_pairs`]) — 8-bit digits, with all per-pass
//!   histograms gathered in one read over the keys and passes whose
//!   histogram is a single bucket skipped entirely (common: high digits of
//!   small tensors). `(key, payload)` pairs ping-pong between the input and
//!   one scratch buffer of its length, so each pass is two sequential sweeps
//!   with no per-element indirection, and the sorted pairs end in the input
//!   (the scratch can be freed before the pack). The payload is whatever
//!   must travel with the key — the value's bits for COO→CSF and for the
//!   streaming sorter's records, which then need no permutation at all —
//!   and the sort may start above bit 0, leaving low bits that only travel
//!   (the streaming CSR sort keys on the row field above the column's).
//! * **Pack from keys** ([`pack_keys`]) — the coordinates come back out of a
//!   sorted key by shift and mask, and the level a nonzero opens new fibers
//!   at (its *split*) is the one owning the highest set bit of `prev ^ key`
//!   (a per-bit table), or the innermost level when `key == prev` (a
//!   duplicate).
//!
//! Every pass of an LSD radix sort is stable, so the resulting order is
//! *identical* to the stable comparison sort's whatever the payload — the
//! property that keeps the engine, the parallel kernels, and the streaming
//! pre-sort bit-for-bit interchangeable (enforced by
//! `tests/radix_equivalence.rs` and `tests/stream_equivalence.rs`).

use crate::csf::{CsfBuilder, CsfTensor};
use sparse_tensor::Shape;

const DIGIT_BITS: u32 = 8;
const BUCKETS: usize = 1 << DIGIT_BITS;

mod sealed {
    pub trait Sealed {}
}

/// A word type coordinate tuples pack into: `u64` or `u128`, chosen by
/// [`KeyLayout::bits`]. Sealed.
pub trait PackedKey: sealed::Sealed + Copy + Default + Ord + Send + Sync {
    /// `self` with `v` OR'd in at bit `shift`.
    fn with_field(self, v: usize, shift: u32) -> Self;
    /// The field at bit `shift` under `mask`.
    fn field(self, shift: u32, mask: usize) -> usize;
    /// The bits from `lo` up, shifted down (zero when `lo` is the width).
    fn high(self, lo: u32) -> Self;
    /// The `DIGIT_BITS`-wide digit starting at bit `shift`.
    fn digit(self, shift: u32) -> usize;
    /// The index of the highest bit where `self` and `other` differ (they
    /// must differ).
    fn top_diff_bit(self, other: Self) -> u32;
    /// Writes the little-endian encoding into the front of `out`.
    fn write_le(self, out: &mut [u8]);
    /// Reads the little-endian encoding from the front of `bytes`.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! packed_key {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl PackedKey for $t {
            #[inline]
            fn with_field(self, v: usize, shift: u32) -> Self {
                self | (v as $t) << shift
            }
            #[inline]
            fn field(self, shift: u32, mask: usize) -> usize {
                (self >> shift) as usize & mask
            }
            #[inline]
            fn high(self, lo: u32) -> Self {
                self.checked_shr(lo).unwrap_or(0)
            }
            #[inline]
            fn digit(self, shift: u32) -> usize {
                (self >> shift) as usize & (BUCKETS - 1)
            }
            #[inline]
            fn top_diff_bit(self, other: Self) -> u32 {
                <$t>::BITS - 1 - (self ^ other).leading_zeros()
            }
            fn write_le(self, out: &mut [u8]) {
                out[..<$t>::BITS as usize / 8].copy_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes[..<$t>::BITS as usize / 8].try_into().expect("a whole word"))
            }
        }
    )*};
}
packed_key!(u64, u128);

/// Where each level's coordinate sits in a packed key, computed from the
/// per-level coordinate maxima.
#[derive(Debug, Clone)]
pub struct KeyLayout {
    /// `(shift, mask)` per level; an all-zero level is `(0, 0)`.
    fields: Vec<(u32, usize)>,
    /// The level owning each key bit, lowest bit first (the split table).
    owner: Vec<usize>,
}

impl KeyLayout {
    /// The layout for tuples whose level `d` never exceeds `maxima[d]`.
    pub fn new(maxima: &[usize]) -> Self {
        let mut fields = vec![(0, 0); maxima.len()];
        let mut owner = Vec::new();
        // Innermost level in the lowest bits.
        for (d, &max) in maxima.iter().enumerate().rev() {
            let width = usize::BITS - max.leading_zeros();
            if width > 0 {
                fields[d] = (owner.len() as u32, usize::MAX >> (usize::BITS - width));
            }
            owner.resize(owner.len() + width as usize, d);
        }
        KeyLayout { fields, owner }
    }

    /// Total key width in bits: ≤ 64 packs into `u64`, ≤ 128 into `u128`.
    pub fn bits(&self) -> u32 {
        self.owner.len() as u32
    }

    /// Packs the tuple whose level-`d` coordinate is `coord(d)`.
    pub fn key<K: PackedKey>(&self, coord: impl Fn(usize) -> usize) -> K {
        let mut key = K::default();
        for (d, &(shift, _)) in self.fields.iter().enumerate() {
            key = key.with_field(coord(d), shift);
        }
        key
    }

    /// The level-`level` coordinate of `key`.
    pub fn coord<K: PackedKey>(&self, key: K, level: usize) -> usize {
        let (shift, mask) = self.fields[level];
        key.field(shift, mask)
    }

    /// The first level where `key` differs from `prev`; the innermost one
    /// when they are equal.
    pub fn split<K: PackedKey>(&self, prev: K, key: K) -> usize {
        if prev == key {
            self.fields.len() - 1
        } else {
            self.owner[prev.top_diff_bit(key) as usize]
        }
    }
}

/// Stable LSD radix sort of `(key, payload)` pairs by key bits
/// `lo..bits`, in place: the passes over those digits ping-pong with
/// `scratch` (same length as `pairs`), and an odd number of them copies
/// back once. Pairs whose keys agree from bit `lo` up keep their input
/// order.
///
/// # Panics
///
/// Panics if `scratch` and `pairs` differ in length.
pub fn sort_pairs<K: PackedKey, P: Copy>(
    pairs: &mut [(K, P)],
    scratch: &mut [(K, P)],
    lo: u32,
    bits: u32,
) {
    let n = pairs.len();
    assert_eq!(scratch.len(), n, "one scratch slot per pair");
    let shifts: Vec<u32> = (lo..bits).step_by(DIGIT_BITS as usize).collect();
    // All histograms in one sweep: one read pass instead of one per digit.
    let mut hists = vec![[0usize; BUCKETS]; shifts.len()];
    for &(key, _) in pairs.iter() {
        for (&shift, hist) in shifts.iter().zip(&mut hists) {
            hist[key.digit(shift)] += 1;
        }
    }
    let (mut src, mut dst) = (&mut *pairs, &mut *scratch);
    let mut swapped = false;
    for (&shift, hist) in shifts.iter().zip(&hists) {
        // A pass whose keys share one digit value would be the identity
        // permutation; skip the two sweeps.
        if hist.contains(&n) {
            continue;
        }
        let mut cursors = [0usize; BUCKETS];
        let mut running = 0usize;
        for (cursor, &count) in cursors.iter_mut().zip(hist.iter()) {
            *cursor = running;
            running += count;
        }
        for &pair in src.iter() {
            let digit = pair.0.digit(shift);
            dst[cursors[digit]] = pair;
            cursors[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        swapped = !swapped;
    }
    if swapped {
        pairs.copy_from_slice(scratch);
    }
}

/// Packs key-sorted `(key, value bits)` pairs into a CSF tensor of `shape`:
/// each coordinate is read out of its key, and each nonzero's split level
/// off the previous key (see the module docs).
pub fn pack_keys<K: PackedKey>(shape: Shape, layout: &KeyLayout, sorted: &[(K, u64)]) -> CsfTensor {
    let mut builder = CsfBuilder::new(shape, sorted.len());
    let mut prev = None;
    for &(key, bits) in sorted {
        let split = prev.map_or(0, |prev| layout.split(prev, key));
        builder.append(split, |d| layout.coord(key, d), f64::from_bits(bits));
        prev = Some(key);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csf::{lex_cmp_at, lex_sort_perm};

    /// Sorts `span` (indices into `columns`) through `(key, index)` pairs
    /// under the layout of its maxima when the key fits 128 bits, and
    /// returns the key width.
    fn sort_span(columns: &[Vec<usize>], span: &mut [usize]) -> u32 {
        fn by_key<K: PackedKey>(columns: &[Vec<usize>], layout: &KeyLayout, span: &mut [usize]) {
            let mut pairs: Vec<(K, usize)> = span
                .iter()
                .map(|&p| (layout.key(|d| columns[d][p]), p))
                .collect();
            let mut scratch = vec![(K::default(), 0); pairs.len()];
            sort_pairs(&mut pairs, &mut scratch, 0, layout.bits());
            for (dst, &(_, p)) in span.iter_mut().zip(&pairs) {
                *dst = p;
            }
        }
        let maxima: Vec<usize> = columns
            .iter()
            .map(|c| span.iter().map(|&p| c[p]).max().unwrap_or(0))
            .collect();
        let layout = KeyLayout::new(&maxima);
        match layout.bits() {
            0..=64 => by_key::<u64>(columns, &layout, span),
            65..=128 => by_key::<u128>(columns, &layout, span),
            _ => {}
        }
        layout.bits()
    }

    fn sort_perm(columns: &[Vec<usize>]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..columns.first().map_or(0, Vec::len)).collect();
        sort_span(columns, &mut perm);
        perm
    }

    fn reference(columns: &[Vec<usize>], span: &[usize]) -> Vec<usize> {
        let mut sorted = span.to_vec();
        sorted.sort_by(|&a, &b| lex_cmp_at(columns, a, b));
        sorted
    }

    fn pseudo_columns(dims: &[usize], n: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        dims.iter()
            .map(|&d| (0..n).map(|_| next() % d).collect())
            .collect()
    }

    #[test]
    fn radix_matches_the_comparison_sort() {
        let columns = pseudo_columns(&[7, 5, 11], 200, 0x5eed);
        let expected = reference(&columns, &(0..200).collect::<Vec<_>>());
        let mut span: Vec<usize> = (0..200).collect();
        assert!(sort_span(&columns, &mut span) <= 64);
        assert_eq!(span, expected);
    }

    #[test]
    fn sort_pairs_carries_any_payload_stably() {
        // Same keys, two payloads: the order is the key order, ties in input
        // order, whatever travels with the key.
        let keys = [3u64, 1, 3, 0, 1];
        let mut by_index: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        let mut scratch = vec![(0, 0); keys.len()];
        sort_pairs(&mut by_index, &mut scratch, 0, 2);
        assert_eq!(
            by_index.iter().map(|p| p.1).collect::<Vec<_>>(),
            [3, 1, 4, 0, 2]
        );
        let mut by_bits: Vec<(u128, u64)> = keys.iter().map(|&k| (k as u128, k * 10)).collect();
        let mut scratch = vec![(0, 0); keys.len()];
        sort_pairs(&mut by_bits, &mut scratch, 0, 2);
        assert_eq!(
            by_bits.iter().map(|p| p.1).collect::<Vec<_>>(),
            [0, 10, 10, 30, 30]
        );
    }

    #[test]
    fn sort_pairs_from_a_low_bit_keeps_the_bits_below_in_input_order() {
        // Key bits 4.. are the sort key; bits 0..4 travel in input order,
        // even across a digit boundary (bits 4..12).
        let keys = [0x1f5u64, 0x013, 0x1f2, 0x019, 0x004];
        let mut pairs: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        let mut scratch = vec![(0, 0); keys.len()];
        sort_pairs(&mut pairs, &mut scratch, 4, 12);
        let sorted: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(sorted, [0x004, 0x013, 0x019, 0x1f5, 0x1f2]);
        // A start at the key's width is no pass at all.
        sort_pairs(&mut pairs, &mut scratch, 64, 64);
        assert_eq!(pairs.iter().map(|p| p.0).collect::<Vec<_>>(), sorted);
        assert_eq!(u64::MAX.high(64), 0);
    }

    #[test]
    fn keys_split_at_the_highest_differing_level() {
        // Widths 3, 4 and 0 (an all-zero level): level 0 in bits 4..7,
        // level 1 in bits 0..4, level 2 nowhere.
        let layout = KeyLayout::new(&[5, 9, 0]);
        assert_eq!(layout.bits(), 7);
        let key = |c: [usize; 3]| layout.key::<u64>(|d| c[d]);
        let a = key([5, 3, 0]);
        assert_eq!(a, 5 << 4 | 3);
        assert_eq!(
            (0..3).map(|d| layout.coord(a, d)).collect::<Vec<_>>(),
            [5, 3, 0]
        );
        assert_eq!(layout.split(a, key([5, 9, 0])), 1);
        assert_eq!(layout.split(a, key([6, 0, 0])), 0);
        assert_eq!(
            layout.split(a, a),
            2,
            "a duplicate appends the innermost level"
        );
    }

    #[test]
    fn keys_round_trip_their_little_endian_encoding() {
        let mut buf = [0u8; 16];
        let k = 0x0123_4567_89ab_cdefu64;
        k.write_le(&mut buf);
        assert_eq!(buf[..8], k.to_le_bytes());
        assert_eq!(u64::read_le(&buf), k);
        let w = u128::MAX - 5;
        w.write_le(&mut buf);
        assert_eq!(u128::read_le(&buf), w);
    }

    #[test]
    fn radix_is_stable_on_duplicate_tuples() {
        // Duplicate (1, 0) tuples must keep index order; matches
        // lex_sort_perm's documented stability test.
        let columns = vec![vec![1, 0, 1, 0], vec![0, 2, 0, 2]];
        assert_eq!(sort_perm(&columns), vec![1, 3, 0, 2]);
        assert_eq!(sort_perm(&columns), lex_sort_perm(&columns));
    }

    #[test]
    fn sorts_arbitrary_sub_spans() {
        let columns = pseudo_columns(&[4, 9], 64, 0xabc);
        let mut span: Vec<usize> = vec![3, 60, 1, 17, 17, 5, 40];
        let expected = reference(&columns, &span);
        assert!(sort_span(&columns, &mut span) <= 64);
        assert_eq!(span, expected);
    }

    #[test]
    fn wide_keys_take_the_u128_path_and_wider_fall_back() {
        // Three 33-bit fields: 99 bits, u128 path.
        let big = 1usize << 32;
        let columns = vec![
            vec![big, 3, big, 0],
            vec![1, big, 0, big],
            vec![big, big, 2, 1],
        ];
        let mut span: Vec<usize> = vec![0, 1, 2, 3];
        let expected = reference(&columns, &span);
        assert_eq!(sort_span(&columns, &mut span), 99);
        assert_eq!(span, expected);

        // Three 63-bit fields: 189 bits, past both words — callers take a
        // comparison sort.
        let huge = 1usize << 62;
        let columns = vec![
            vec![huge, 3, huge, 0],
            vec![1, huge, 0, huge],
            vec![huge, huge, 2, 1],
        ];
        let mut span: Vec<usize> = vec![0, 1, 2, 3];
        assert_eq!(sort_span(&columns, &mut span), 189);
    }

    #[test]
    fn exact_64_bit_keys_stay_on_the_u64_path() {
        // 32 + 32 bits exactly: still u64.
        let v = (1usize << 31) + 5;
        let columns = vec![vec![v, 0, v - 1], vec![0, v, v]];
        let mut span: Vec<usize> = vec![0, 1, 2];
        assert_eq!(sort_span(&columns, &mut span), 64);
        assert_eq!(span, reference(&columns, &span.clone()));
        // One more bit tips it over to u128.
        let columns = vec![vec![v, 0, v - 1], vec![0, 2 * v, v]];
        let mut span: Vec<usize> = vec![0, 1, 2];
        assert_eq!(sort_span(&columns, &mut span), 65);
        assert_eq!(span, reference(&columns, &span.clone()));
    }

    #[test]
    fn constant_and_empty_columns_are_handled() {
        // A constant column contributes no bits; an all-zero tensor sorts to
        // the identity (stability).
        let columns = vec![vec![0; 5], vec![0; 5]];
        let mut span: Vec<usize> = (0..5).collect();
        assert_eq!(sort_span(&columns, &mut span), 0);
        assert_eq!(span, vec![0, 1, 2, 3, 4]);
        assert!(sort_perm(&[]).is_empty());
        let mut empty: Vec<usize> = Vec::new();
        sort_span(&columns, &mut empty);
        assert!(empty.is_empty());
        let mut one = vec![3];
        sort_span(&columns, &mut one);
        assert_eq!(one, [3]);
    }

    #[test]
    fn huge_extents_sort_like_the_comparison_sort() {
        let columns = vec![vec![usize::MAX, 0, 7]];
        let mut span: Vec<usize> = vec![0, 1, 2];
        assert_eq!(sort_span(&columns, &mut span), 64);
        assert_eq!(span, vec![1, 2, 0]);
    }

    #[test]
    fn sort_perm_matches_lex_sort_perm_on_random_columns() {
        for seed in [1u64, 42, 0xdead] {
            let columns = pseudo_columns(&[3, 1, 300, 17], 257, seed);
            assert_eq!(sort_perm(&columns), lex_sort_perm(&columns), "seed {seed}");
        }
    }
}
