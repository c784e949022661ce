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
//! * **Width check + fallback** — keys up to 64 bits take the `u64` path,
//!   up to 128 bits the `u128` path; wider tuples (only reachable at order
//!   ≥ 3 with near-`usize::MAX` coordinates) fall back to the stable
//!   comparison sort, so every input remains sortable.
//! * **LSD passes** ([`sort_pairs`]) — 8-bit digits, with all per-pass
//!   histograms gathered in one read over the keys and passes whose
//!   histogram is a single bucket skipped entirely (common: high digits of
//!   small tensors). `(key, payload)` pairs ping-pong between the input and
//!   one scratch buffer of its length, so each pass is two sequential sweeps
//!   with no per-element indirection, and the sorted pairs end in the input
//!   (the scratch can be freed before the pack). The payload is whatever
//!   must travel with the key: the nonzero's index for [`sort_index_span`]
//!   (the streaming sorter's presort), the value's bits for COO→CSF, which
//!   then needs no permutation at all.
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
//! `tests/radix_equivalence.rs`).

use crate::csf::{lex_cmp_at, CsfBuilder, CsfTensor};
use sparse_tensor::Shape;

/// Which code path a sort took — the width-check outcome the fallback tests
/// assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortPath {
    /// Keys packed into `u64` words.
    Radix64,
    /// Keys packed into `u128` words.
    Radix128,
    /// Stable comparison sort (trivial spans, or the wide-key fallback).
    Comparison,
}

const DIGIT_BITS: u32 = 8;
const BUCKETS: usize = 1 << DIGIT_BITS;

mod sealed {
    pub trait Sealed {}
}

/// A word type coordinate tuples pack into: `u64` or `u128`, chosen by
/// [`KeyLayout::bits`]. Sealed.
pub trait PackedKey: sealed::Sealed + Copy + Default + Eq + Send + Sync {
    /// `self` with `v` OR'd in at bit `shift`.
    fn with_field(self, v: usize, shift: u32) -> Self;
    /// The field at bit `shift` under `mask`.
    fn field(self, shift: u32, mask: usize) -> usize;
    /// The `DIGIT_BITS`-wide digit of LSD pass `pass`.
    fn digit(self, pass: u32) -> usize;
    /// The index of the highest bit where `self` and `other` differ (they
    /// must differ).
    fn top_diff_bit(self, other: Self) -> u32;
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
            fn digit(self, pass: u32) -> usize {
                (self >> (pass * DIGIT_BITS)) as usize & (BUCKETS - 1)
            }
            #[inline]
            fn top_diff_bit(self, other: Self) -> u32 {
                <$t>::BITS - 1 - (self ^ other).leading_zeros()
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
    fn coord<K: PackedKey>(&self, key: K, level: usize) -> usize {
        let (shift, mask) = self.fields[level];
        key.field(shift, mask)
    }

    /// The first level where `key` differs from `prev`; the innermost one
    /// when they are equal.
    fn split<K: PackedKey>(&self, prev: K, key: K) -> usize {
        if prev == key {
            self.fields.len() - 1
        } else {
            self.owner[prev.top_diff_bit(key) as usize]
        }
    }
}

/// Stable LSD radix sort of `(key, payload)` pairs by key, in place:
/// the passes over the digits of a `bits`-wide key ping-pong with
/// `scratch` (same length as `pairs`), and an odd number of them copies
/// back once.
///
/// # Panics
///
/// Panics if `scratch` and `pairs` differ in length.
pub fn sort_pairs<K: PackedKey, P: Copy>(pairs: &mut [(K, P)], scratch: &mut [(K, P)], bits: u32) {
    let n = pairs.len();
    assert_eq!(scratch.len(), n, "one scratch slot per pair");
    // All histograms in one sweep: one read pass instead of one per digit.
    let mut hists = vec![[0usize; BUCKETS]; bits.div_ceil(DIGIT_BITS) as usize];
    for &(key, _) in pairs.iter() {
        for (pass, hist) in hists.iter_mut().enumerate() {
            hist[key.digit(pass as u32)] += 1;
        }
    }
    let (mut src, mut dst) = (&mut *pairs, &mut *scratch);
    let mut swapped = false;
    for (pass, hist) in hists.iter().enumerate() {
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
            let digit = pair.0.digit(pass as u32);
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

/// Sorts `span` through `(key, index)` pairs under `layout`.
fn radix_sort_span<K: PackedKey, C: AsRef<[usize]>>(
    columns: &[C],
    layout: &KeyLayout,
    span: &mut [usize],
) {
    let mut pairs: Vec<(K, usize)> = span
        .iter()
        .map(|&p| (layout.key(|d| columns[d].as_ref()[p]), p))
        .collect();
    let mut scratch = vec![(K::default(), 0); pairs.len()];
    sort_pairs(&mut pairs, &mut scratch, layout.bits());
    for (dst, &(_, p)) in span.iter_mut().zip(&pairs) {
        *dst = p;
    }
}

/// Stably sorts `span` — indices into the parallel coordinate `columns` —
/// into lexicographic tuple order, returning the path taken. The result is
/// the permutation of the stable comparison sort on [`lex_cmp_at`].
pub fn sort_index_span<C: AsRef<[usize]>>(columns: &[C], span: &mut [usize]) -> SortPath {
    if span.len() < 2 {
        return SortPath::Comparison;
    }
    let maxima: Vec<usize> = columns
        .iter()
        .map(|c| span.iter().map(|&p| c.as_ref()[p]).max().unwrap_or(0))
        .collect();
    let layout = KeyLayout::new(&maxima);
    if layout.bits() <= u64::BITS {
        radix_sort_span::<u64, C>(columns, &layout, span);
        SortPath::Radix64
    } else if layout.bits() <= u128::BITS {
        radix_sort_span::<u128, C>(columns, &layout, span);
        SortPath::Radix128
    } else {
        span.sort_by(|&a, &b| lex_cmp_at(columns, a, b));
        SortPath::Comparison
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csf::lex_sort_perm;

    fn sort_perm(columns: &[Vec<usize>]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..columns.first().map_or(0, Vec::len)).collect();
        sort_index_span(columns, &mut perm);
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
        assert_eq!(sort_index_span(&columns, &mut span), SortPath::Radix64);
        assert_eq!(span, expected);
    }

    #[test]
    fn sort_pairs_carries_any_payload_stably() {
        // Same keys, two payloads: the order is the key order, ties in input
        // order, whatever travels with the key.
        let keys = [3u64, 1, 3, 0, 1];
        let mut by_index: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        let mut scratch = vec![(0, 0); keys.len()];
        sort_pairs(&mut by_index, &mut scratch, 2);
        assert_eq!(
            by_index.iter().map(|p| p.1).collect::<Vec<_>>(),
            [3, 1, 4, 0, 2]
        );
        let mut by_bits: Vec<(u128, u64)> = keys.iter().map(|&k| (k as u128, k * 10)).collect();
        let mut scratch = vec![(0, 0); keys.len()];
        sort_pairs(&mut by_bits, &mut scratch, 2);
        assert_eq!(
            by_bits.iter().map(|p| p.1).collect::<Vec<_>>(),
            [0, 10, 10, 30, 30]
        );
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
        let path = sort_index_span(&columns, &mut span);
        assert_eq!(path, SortPath::Radix64);
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
        assert_eq!(sort_index_span(&columns, &mut span), SortPath::Radix128);
        assert_eq!(span, expected);

        // Three 63-bit fields: 189 bits, comparison fallback.
        let huge = 1usize << 62;
        let columns = vec![
            vec![huge, 3, huge, 0],
            vec![1, huge, 0, huge],
            vec![huge, huge, 2, 1],
        ];
        let mut span: Vec<usize> = vec![0, 1, 2, 3];
        let expected = reference(&columns, &span);
        assert_eq!(sort_index_span(&columns, &mut span), SortPath::Comparison);
        assert_eq!(span, expected);
    }

    #[test]
    fn exact_64_bit_keys_stay_on_the_u64_path() {
        // 32 + 32 bits exactly: still u64.
        let v = (1usize << 31) + 5;
        let columns = vec![vec![v, 0, v - 1], vec![0, v, v]];
        let mut span: Vec<usize> = vec![0, 1, 2];
        assert_eq!(sort_index_span(&columns, &mut span), SortPath::Radix64);
        assert_eq!(span, reference(&columns, &span.clone()));
        // One more bit tips it over to u128.
        let columns = vec![vec![v, 0, v - 1], vec![0, 2 * v, v]];
        let mut span: Vec<usize> = vec![0, 1, 2];
        assert_eq!(sort_index_span(&columns, &mut span), SortPath::Radix128);
        assert_eq!(span, reference(&columns, &span.clone()));
    }

    #[test]
    fn constant_and_empty_columns_are_handled() {
        // A constant column contributes no bits; an all-zero tensor sorts to
        // the identity (stability).
        let columns = vec![vec![0; 5], vec![0; 5]];
        let mut span: Vec<usize> = (0..5).collect();
        sort_index_span(&columns, &mut span);
        assert_eq!(span, vec![0, 1, 2, 3, 4]);
        assert!(sort_perm(&[]).is_empty());
        let mut empty: Vec<usize> = Vec::new();
        assert_eq!(
            sort_index_span(&columns, &mut empty),
            SortPath::Comparison,
            "trivial spans skip the machinery"
        );
    }

    #[test]
    fn huge_extents_sort_like_the_comparison_sort() {
        let columns = vec![vec![usize::MAX, 0, 7]];
        let mut span: Vec<usize> = vec![0, 1, 2];
        assert_eq!(sort_index_span(&columns, &mut span), SortPath::Radix64);
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
