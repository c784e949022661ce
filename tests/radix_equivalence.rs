//! Radix-path equivalence suite.
//!
//! The packed-key LSD radix sort and the blocked transpose are pure
//! performance rewrites: every path must be *bit-identical* to the stable
//! comparison-sort baseline. Three layers pin that down:
//!
//! * raw sorts — [`radix::sort_pairs`] carrying each nonzero's index,
//!   against the comparison [`lex_sort_perm`], over random columns whose
//!   per-dimension bit widths sweep across the u64 / u128 boundaries (wider
//!   keys are the callers' comparison fallback; the streamed path's is in
//!   `tests/stream_equivalence.rs`),
//! * COO→CSF from packed keys — the engine and the parallel kernel (keys
//!   sorted with the value bits as payload, fibers split off `prev ^ key`)
//!   against the reference constructor [`CsfTensor::from_triples`] (stable
//!   comparison sort + [`CsfBuilder::push`](taco_conversion_repro::formats::CsfBuilder)),
//!   compared bit for bit: key widths 63 / 64 / 65 / 128 / 129, all-zero
//!   modes and duplicate coordinates, 0 and 1 nonzeros, orders 1–4, the
//!   values −0.0, 0.0 and NaN with payload bits, and all six order-3 mode
//!   orders at 1 / 2 / 3 / 4 threads,
//! * CSR→CSC — the transpose's blocked write-combining scatter (what a
//!   large chunk of a wide CSR source takes) against its direct scatter, at
//!   one chunk and at many, on an input large and wide enough to cross the
//!   blocking cutoffs.

use proptest::prelude::*;

use taco_conversion_repro::conv::engine;
use taco_conversion_repro::conv::kernels;
use taco_conversion_repro::conv::select::ORDER3_MODE_ORDERS;
use taco_conversion_repro::formats::csf::lex_sort_perm;
use taco_conversion_repro::formats::radix::{self, KeyLayout, PackedKey};
use taco_conversion_repro::formats::{CooTensor, CsfTensor, CsrMatrix};
use taco_conversion_repro::tensor::{Shape, SparseTriples};

/// Random coordinate columns with per-dimension bit widths drawn so the
/// packed key's total width sweeps the interesting regions: comfortably
/// inside u64, straddling 64, inside u128, and past 128.
fn arb_columns() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (1usize..5, 1usize..50, 0usize..200).prop_flat_map(|(dims, bits, n)| {
        proptest::collection::vec(
            proptest::collection::vec(0usize..(1usize << bits), n..n + 1),
            dims..dims + 1,
        )
    })
}

/// The permutation [`radix::sort_pairs`] gives every nonzero, carrying its
/// index, on the word its key fits; `None` past 128 bits.
fn radix_perm(columns: &[Vec<usize>]) -> Option<Vec<usize>> {
    fn by_key<K: PackedKey>(columns: &[Vec<usize>], layout: &KeyLayout) -> Vec<usize> {
        let n = columns.first().map_or(0, Vec::len);
        let mut pairs: Vec<(K, usize)> =
            (0..n).map(|p| (layout.key(|d| columns[d][p]), p)).collect();
        let mut scratch = vec![(K::default(), 0); n];
        radix::sort_pairs(&mut pairs, &mut scratch, 0, layout.bits());
        pairs.into_iter().map(|(_, p)| p).collect()
    }
    let maxima: Vec<usize> = columns
        .iter()
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect();
    let layout = KeyLayout::new(&maxima);
    match layout.bits() {
        0..=64 => Some(by_key::<u64>(columns, &layout)),
        65..=128 => Some(by_key::<u128>(columns, &layout)),
        _ => None,
    }
}

proptest! {
    /// The radix permutation equals the stable comparison permutation for
    /// any key width a word holds.
    #[test]
    fn radix_perm_matches_comparison_perm(columns in arb_columns()) {
        if let Some(perm) = radix_perm(&columns) {
            prop_assert_eq!(perm, lex_sort_perm(&columns));
        }
    }
}

/// Pinned width boundaries: 63 and exactly 64 bits pack into u64, 65 and
/// 128 into u128 — all agreeing with the baseline, on 300, one and no
/// nonzeros — and 129 fits no word.
#[test]
fn width_boundaries_agree_with_the_comparison_sort() {
    let mut state = 0xdeadbeefcafef00du64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    };
    // Widths are realised by planting one maximal value per column so the
    // layout sees the full width.
    let cases: [&[u32]; 5] = [
        &[32, 31],     // 63 bits
        &[32, 32],     // exactly 64
        &[33, 32],     // 65
        &[64, 64],     // exactly 128
        &[43, 43, 43], // 129: no word holds it
    ];
    for widths in cases {
        let n = 300;
        let columns: Vec<Vec<usize>> = widths
            .iter()
            .map(|&w| {
                let max = usize::MAX >> (usize::BITS - w);
                let mut col: Vec<usize> = (0..n).map(|_| next(max)).collect();
                col[n / 2] = max; // pin the width the layout derives
                col
            })
            .collect();
        let total: u32 = widths.iter().sum();
        let maxima: Vec<usize> = columns.iter().map(|c| c[n / 2]).collect();
        assert_eq!(KeyLayout::new(&maxima).bits(), total, "widths {widths:?}");
        if total > 128 {
            assert_eq!(radix_perm(&columns), None, "widths {widths:?}");
            continue;
        }
        assert_eq!(
            radix_perm(&columns),
            Some(lex_sort_perm(&columns)),
            "widths {widths:?}"
        );
        for len in [0, 1] {
            let short: Vec<Vec<usize>> =
                columns.iter().map(|c| c[n / 2..][..len].to_vec()).collect();
            assert_eq!(
                radix_perm(&short),
                Some((0..len).collect()),
                "{len} of {widths:?}"
            );
        }
    }
}

/// Small random order-3 tensors plus a shuffle seed, so COO3 inputs arrive
/// in arbitrary storage order.
fn arb_tensor3() -> impl Strategy<Value = (SparseTriples, u64)> {
    (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(d0, d1, d2)| {
        let max_nnz = (d0 * d1 * d2).min(64);
        (
            proptest::collection::vec(((0..d0), (0..d1), (0..d2), -100i32..100), 0..max_nnz),
            1u64..u64::MAX,
        )
            .prop_map(move |(entries, seed)| {
                let mut t = SparseTriples::new(Shape::tensor3(d0, d1, d2));
                for (i, j, k, v) in entries {
                    let coord = vec![i as i64, j as i64, k as i64];
                    if v != 0 && t.get(&coord) == 0.0 {
                        t.push(coord, v as f64).expect("in bounds");
                    }
                }
                (t, seed)
            })
    })
}

fn shuffled_coo3(t: &SparseTriples, seed: u64) -> CooTensor {
    let mut coo = CooTensor::from_triples(t);
    let mut state = seed;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    coo
}

/// A CSF tensor's level arrays and value *bits*: `CsfTensor`'s `==`
/// compares values as floats, so it can neither tell −0.0 from 0.0 nor
/// match a NaN.
fn bits(csf: &CsfTensor) -> (Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<u64>) {
    let order = csf.order();
    (
        (0..order).map(|l| csf.crd(l).to_vec()).collect(),
        (0..order - 1).map(|l| csf.pos(l).to_vec()).collect(),
        csf.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// The reference CSF of `coo` along `mode_order`: its triples in storage
/// order, modes permuted, through [`CsfTensor::from_triples`].
fn reference_csf(coo: &CooTensor, mode_order: &[usize]) -> CsfTensor {
    CsfTensor::from_triples(&coo.to_triples().permute_dims(mode_order))
}

/// The mode orders swept at `order`: all six at order 3, the identity and
/// its reverse elsewhere.
fn mode_orders(order: usize) -> Vec<Vec<usize>> {
    if order == 3 {
        return ORDER3_MODE_ORDERS.iter().map(|o| o.to_vec()).collect();
    }
    let identity: Vec<usize> = (0..order).collect();
    let reversed: Vec<usize> = identity.iter().rev().copied().collect();
    vec![identity, reversed]
}

/// The engine and the kernel at 1 / 2 / 3 / 4 threads along every swept
/// mode order, each bit for bit against the reference.
fn assert_keyed_paths_match(coo: &CooTensor) -> Result<(), String> {
    for order in mode_orders(coo.order()) {
        let want = bits(&reference_csf(coo, &order));
        let engine = engine::to_csf_ordered(coo, &order);
        if bits(&engine) != want {
            return Err(format!("engine along {order:?}"));
        }
        for threads in 1..=4 {
            let got = kernels::coo_to_csf_ordered(coo, &order, threads).expect("no worker panics");
            if bits(&got) != want {
                return Err(format!("kernel along {order:?} at {threads} threads"));
            }
        }
    }
    Ok(())
}

/// Values the pack must carry bit for bit: signed zeros, NaNs with payload
/// bits (quiet and signalling, both signs), and ordinary numbers.
const SPECIAL_VALUES: [u64; 6] = [
    0x0000_0000_0000_0000, // 0.0
    0x8000_0000_0000_0000, // -0.0
    0x7ff8_0000_dead_beef, // quiet NaN, payload
    0xfff0_0000_0000_0001, // negative signalling NaN
    0x3ff8_0000_0000_0000, // 1.5
    0xc000_0000_0000_0000, // -2.0
];

/// A COO tensor with per-mode coordinate widths `widths` (0 = an all-zero
/// mode), `nnz` nonzeros drawn from a pool of `distinct` coordinate tuples
/// (so small pools repeat full coordinates), each mode's maximum planted so
/// the key layout sees the full width, and values cycling through
/// [`SPECIAL_VALUES`].
fn keyed_coo(widths: &[u32], nnz: usize, distinct: usize, seed: u64) -> CooTensor {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let max = |w: u32| {
        if w == 0 {
            0
        } else {
            usize::MAX >> (usize::BITS - w)
        }
    };
    let pool: Vec<Vec<usize>> = (0..distinct.max(1))
        .map(|t| {
            widths
                .iter()
                .map(|&w| {
                    if t == 0 {
                        max(w)
                    } else {
                        next() as usize & max(w)
                    }
                })
                .collect()
        })
        .collect();
    let shape = Shape::new(widths.iter().map(|&w| max(w) + 1).collect());
    let mut coo = CooTensor::new(shape);
    for p in 0..nnz {
        let tuple = &pool[next() as usize % pool.len()];
        coo.push(
            tuple,
            f64::from_bits(SPECIAL_VALUES[p % SPECIAL_VALUES.len()]),
        );
    }
    coo
}

/// The pinned key widths of the packed-key paths: 63 and 64 bits pack into
/// `u64`, 65 and 128 into `u128`, 129 falls back to the comparison sort;
/// every path matches the reference bit for bit.
#[test]
fn csf_key_width_boundaries_match_the_reference() {
    let cases: [&[u32]; 5] = [
        &[21, 21, 21], // 63
        &[22, 21, 21], // 64
        &[22, 22, 21], // 65
        &[43, 43, 42], // 128
        &[43, 43, 43], // 129
    ];
    for (n, widths) in cases.into_iter().enumerate() {
        let coo = keyed_coo(widths, 300, 120, 0x9e37_79b9 + n as u64);
        let maxima: Vec<usize> = (0..3).map(|d| *coo.crd(d).iter().max().unwrap()).collect();
        let total: u32 = widths.iter().sum();
        assert_eq!(KeyLayout::new(&maxima).bits(), total, "widths {widths:?}");
        assert_keyed_paths_match(&coo).unwrap_or_else(|e| panic!("{total} bits: {e}"));
    }
}

/// Random orders 1–4 with all-zero modes, repeated coordinates, 0 and 1
/// nonzeros, and signed-zero / NaN values.
fn arb_keyed_coo() -> impl Strategy<Value = CooTensor> {
    (
        1usize..5,
        0usize..4,
        0usize..120,
        1usize..60,
        1u64..u64::MAX,
    )
        .prop_flat_map(|(order, zero_modes, nnz, distinct, seed)| {
            proptest::collection::vec(0u32..5, order..order + 1).prop_map(move |mut widths| {
                // The first `zero_modes` modes (capped) are all-zero.
                for w in widths.iter_mut().take(zero_modes.min(order - 1)) {
                    *w = 0;
                }
                keyed_coo(&widths, nnz, distinct, seed)
            })
        })
}

proptest! {
    /// Every keyed path against the reference constructor, bit for bit.
    #[test]
    fn keyed_csf_matches_the_reference_bit_for_bit(coo in arb_keyed_coo()) {
        prop_assert_eq!(assert_keyed_paths_match(&coo), Ok(()));
    }
}

/// Zero and one nonzero at every order: nothing to sort, one fiber chain.
#[test]
fn empty_and_single_nonzero_tensors_match_the_reference() {
    for order in 1..=4 {
        let widths = vec![3; order];
        for nnz in [0, 1] {
            let coo = keyed_coo(&widths, nnz, 1, 7);
            assert_eq!(
                assert_keyed_paths_match(&coo),
                Ok(()),
                "order {order}, nnz {nnz}"
            );
        }
    }
}

proptest! {
    // Each case runs 6 orders x 4 thread counts plus the engine = 30
    // conversions, so take a quarter of the configured case count (the
    // `PROPTEST_CASES` boost still scales it).
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases / 4))]

    /// All six CSF mode orderings of shuffled order-3 tensors, 1 / 2 / 3 / 4
    /// threads: bit-identical to the reference and the sequential engine.
    #[test]
    fn csf_kernels_are_thread_invariant((t, seed) in arb_tensor3()) {
        let coo = shuffled_coo3(&t, seed);
        prop_assert_eq!(assert_keyed_paths_match(&coo), Ok(()));
        // The canonical kernel too (it shares the radix span sorts).
        let reference = engine::to_csf(&coo);
        for threads in [1, 2, 4] {
            let got = kernels::coo_to_csf(&coo, threads).expect("no worker panics");
            prop_assert_eq!(&got, &reference);
        }
    }
}

/// Both scatter strategies of the one transpose routine — the direct one and
/// the blocked write-combining one a large chunk of a wide CSR source takes —
/// are bit-identical, at one chunk and at many, on an input wide and dense
/// enough to cross the tile cutoffs (cols > 4096; ≥ 2^15 nonzeros per chunk
/// at one and two chunks, fewer from three up).
/// A COO source is never known to transpose, so it always scatters directly
/// and, replaying the CSR's order, is the reference.
#[test]
fn blocked_transpose_paths_match_the_naive_transpose() {
    let rows = 256;
    let cols = 3 * 4096 + 17;
    let mut pos = vec![0usize];
    let mut crd = Vec::new();
    let mut vals = Vec::new();
    for i in 0..rows {
        let mut row: Vec<usize> = (0..300).map(|k| (i * 31 + k * 97 + k * k) % cols).collect();
        row.sort_unstable();
        row.dedup();
        for (n, &j) in row.iter().enumerate() {
            crd.push(j);
            vals.push((i * 7 + n) as f64 * 0.25 - 3.0);
        }
        pos.push(crd.len());
    }
    let csr = CsrMatrix::from_parts(rows, cols, pos, crd, vals).expect("valid CSR");
    assert!(
        csr.nnz() >= 1 << 16,
        "input must cross the blocking cutoffs"
    );
    let direct = engine::to_csc(&engine::to_coo(&csr), 1).expect("one chunk runs inline");
    for threads in [1, 2, 3, 4, 9] {
        let blocked = engine::to_csc(&csr, threads).expect("no worker panics");
        assert_eq!(blocked.pos(), direct.pos(), "{threads} threads");
        assert_eq!(blocked.crd(), direct.crd(), "{threads} threads");
        assert_eq!(blocked.values(), direct.values(), "{threads} threads");
    }
}
