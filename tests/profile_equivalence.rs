//! Equivalence sweep of the hash-free, triple-free statistics behind
//! `auto_select` against the `HashSet` implementation they replaced, kept
//! below as the reference.
//!
//! Random COO and COO3 inputs carry duplicates, arrive shuffled, and include
//! 0 nnz, 1×N / N×1 shapes and extents far beyond the nonzero count. The
//! column statistics, the `SparseTriples` adapters and `TensorProfile` must
//! all equal the reference. Every stock container of the same matrix or
//! tensor must profile exactly like its COO.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taco_conversion_repro::conv::select::ORDER3_MODE_ORDERS;
use taco_conversion_repro::conv::{convert, AnyTensor, Format, TensorProfile};
use taco_conversion_repro::formats::{CooMatrix, CooTensor, DokMatrix};
use taco_conversion_repro::tensor::{MatrixStats, Shape, SparseTriples, TensorStats};

/// The statistics and selection as computed before: every count a
/// `HashSet` over `SparseTriples` coordinates.
mod reference {
    use super::*;

    /// The seven Table 2 fields plus the three sets `select_matrix` built.
    pub fn matrix_stats(m: &SparseTriples) -> MatrixStats {
        let rows = m.shape().rows();
        let cols = m.shape().cols();
        let mut coords: HashSet<(i64, i64)> = HashSet::with_capacity(m.nnz());
        for t in m.iter() {
            coords.insert((t.coord[0], t.coord[1]));
        }
        let nnz = coords.len();
        let mut diagonals: HashSet<i64> = HashSet::new();
        // A map rather than a row-length vector, so 2^40-row inputs fit.
        let mut per_row: HashMap<i64, usize> = HashMap::new();
        let mut lower = 0i64;
        let mut upper = 0i64;
        for &(i, j) in &coords {
            diagonals.insert(j - i);
            *per_row.entry(i).or_default() += 1;
            lower = lower.max(i - j);
            upper = upper.max(j - i);
        }
        let blocks: HashSet<(i64, i64)> = coords.iter().map(|&(i, j)| (i / 2, j / 2)).collect();
        MatrixStats {
            rows,
            cols,
            nnz,
            nonzero_diagonals: diagonals.len(),
            max_nnz_per_row: per_row.values().copied().max().unwrap_or(0),
            lower_bandwidth: lower as usize,
            upper_bandwidth: upper as usize,
            nonempty_rows: coords.iter().map(|&(i, _)| i).collect::<HashSet<_>>().len(),
            nonempty_cols: coords.iter().map(|&(_, j)| j).collect::<HashSet<_>>().len(),
            blocks_2x2: blocks.len(),
        }
    }

    pub fn tensor_stats(t: &SparseTriples) -> TensorStats {
        let order = t.order();
        let mut coords: HashSet<&[i64]> = HashSet::with_capacity(t.nnz());
        for triple in t.iter() {
            coords.insert(&triple.coord[..]);
        }
        let mut distinct = vec![0usize; order];
        let mut pair_distinct = vec![vec![0usize; order]; order];
        let mut singles: HashSet<i64> = HashSet::new();
        let mut pairs: HashSet<(i64, i64)> = HashSet::new();
        for d in 0..order {
            singles.clear();
            for c in &coords {
                singles.insert(c[d]);
            }
            distinct[d] = singles.len();
            for e in 0..order {
                if e == d {
                    pair_distinct[d][d] = distinct[d];
                    continue;
                }
                pairs.clear();
                for c in &coords {
                    pairs.insert((c[d], c[e]));
                }
                pair_distinct[d][e] = pairs.len();
            }
        }
        TensorStats {
            order,
            nnz: coords.len(),
            distinct,
            pair_distinct,
        }
    }

    fn select_matrix(m: &SparseTriples, stats: &MatrixStats) -> Format {
        if stats.nnz == 0 {
            return Format::csr();
        }
        if stats.dia_admissible() {
            return Format::dia();
        }
        let mut coords: HashSet<(i64, i64)> = HashSet::with_capacity(m.nnz());
        let mut blocks: HashSet<(i64, i64)> = HashSet::new();
        for tr in m.iter() {
            coords.insert((tr.coord[0], tr.coord[1]));
            blocks.insert((tr.coord[0] / 2, tr.coord[1] / 2));
        }
        let block_fill = coords.len() as f64 / (4.0 * blocks.len() as f64);
        if block_fill >= 0.5 {
            return Format::bcsr(2, 2);
        }
        let nonempty_rows = coords.iter().map(|&(i, _)| i).collect::<HashSet<_>>().len();
        let nonempty_cols = coords.iter().map(|&(_, j)| j).collect::<HashSet<_>>().len();
        if nonempty_cols < nonempty_rows {
            return Format::csc();
        }
        Format::csr()
    }

    fn select_tensor3(t: &SparseTriples) -> Format {
        let stats = tensor_stats(t);
        if stats.nnz == 0 {
            return Format::csf();
        }
        let best = *ORDER3_MODE_ORDERS
            .iter()
            .min_by_key(|order| stats.csf_fibers(&order[..]))
            .expect("six candidate orders");
        if stats.fiber_overhead(&best) > 0.25 {
            return Format::coo3();
        }
        Format::csf_ordered(&best).expect("candidate orders are permutations")
    }

    fn fallback(order: usize) -> Format {
        if order == 2 {
            Format::csr()
        } else {
            Format::csf()
        }
    }

    /// `TensorProfile::compute` through `try_to_triples`.
    pub fn profile(t: &AnyTensor) -> TensorProfile {
        let triples = t.try_to_triples().expect("stock tensors read back");
        let (selected, max_nnz_per_row) = match triples.order() {
            2 => {
                let stats = matrix_stats(&triples);
                (select_matrix(&triples, &stats), Some(stats.max_nnz_per_row))
            }
            3 => (select_tensor3(&triples), None),
            _ => (fallback(triples.order()), None),
        };
        TensorProfile {
            order: triples.order(),
            nnz: triples.nnz(),
            max_nnz_per_row,
            selected,
        }
    }
}

/// An extent: 1, small, or far beyond any nonzero count.
fn extent(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..8) {
        0 => 1,
        1 => 1 << 40,
        2 => rng.gen_range(1000..5000),
        _ => rng.gen_range(1..40),
    }
}

/// Random coordinates over `dims`: uniform, clustered into 2-wide tiles or
/// along a few diagonals, with duplicates, in shuffled order.
fn coords(rng: &mut StdRng, dims: &[usize], max_nnz: usize) -> Vec<Vec<usize>> {
    let nnz = if rng.gen_range(0..10) == 0 {
        0
    } else {
        rng.gen_range(1..max_nnz)
    };
    let style = rng.gen_range(0..3);
    let mut out: Vec<Vec<usize>> = Vec::with_capacity(nnz);
    while out.len() < nnz {
        if !out.is_empty() && rng.gen_range(0..8) == 0 {
            let dup = out[rng.gen_range(0..out.len())].clone();
            out.push(dup);
            continue;
        }
        let first = rng.gen_range(0..dims[0]);
        let coord: Vec<usize> = dims
            .iter()
            .enumerate()
            .map(|(d, &n)| match (style, d) {
                (_, 0) => first,
                (1, _) => ((first & !1) + rng.gen_range(0..2)).min(n - 1),
                (2, _) => (first + rng.gen_range(0..3)).min(n - 1),
                _ => rng.gen_range(0..n),
            })
            .collect();
        out.push(coord);
    }
    for p in (1..out.len()).rev() {
        out.swap(p, rng.gen_range(0..p + 1));
    }
    out
}

fn triples(dims: &[usize], coords: &[Vec<usize>]) -> SparseTriples {
    let mut t = SparseTriples::new(Shape::new(dims.to_vec()));
    for (k, c) in coords.iter().enumerate() {
        t.push(c.iter().map(|&x| x as i64).collect(), 1.0 + k as f64)
            .unwrap();
    }
    t
}

fn dedup(coords: &mut Vec<Vec<usize>>) {
    let mut seen = HashSet::new();
    coords.retain(|c| seen.insert(c.clone()));
}

proptest! {
    #[test]
    fn matrix_statistics_match_the_hash_set_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [extent(&mut rng), extent(&mut rng)];
        let t = triples(&dims, &coords(&mut rng, &dims, 300));
        let crd = t.columns();
        let stats = MatrixStats::from_columns(dims[0], dims[1], &crd[0], &crd[1]);
        prop_assert_eq!(&stats, &reference::matrix_stats(&t), "{:?}", dims);
        prop_assert_eq!(&MatrixStats::compute(&t), &stats);
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        prop_assert_eq!(TensorProfile::compute(&coo), reference::profile(&coo));
    }

    #[test]
    fn tensor_statistics_match_the_hash_set_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let order = [3, 3, 3, 1, 2, 4][rng.gen_range(0..6)];
        let dims: Vec<usize> = (0..order).map(|_| extent(&mut rng)).collect();
        let t = triples(&dims, &coords(&mut rng, &dims, 300));
        let crd = t.columns();
        let crd: Vec<&[usize]> = crd.iter().map(Vec::as_slice).collect();
        let stats = TensorStats::from_columns(t.shape(), &crd);
        prop_assert_eq!(&stats, &reference::tensor_stats(&t), "{:?}", dims);
        prop_assert_eq!(&TensorStats::compute(&t), &stats);
        let coo3 = AnyTensor::Coo3(CooTensor::from_triples(&t));
        prop_assert_eq!(TensorProfile::compute(&coo3), reference::profile(&coo3));
    }

    #[test]
    fn every_stock_container_profiles_like_its_coo(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Matrices: duplicate-free, every value nonzero, so every container
        // holds exactly the COO's entries.
        let square = rng.gen_range(0..3) == 0;
        let rows = rng.gen_range(1..24);
        let dims = [rows, if square { rows } else { rng.gen_range(1..24) }];
        let mut crd = coords(&mut rng, &dims, 120);
        dedup(&mut crd);
        let lower = square && rng.gen_range(0..2) == 0;
        if lower {
            crd.retain(|c| c[1] <= c[0]);
        }
        let t = triples(&dims, &crd);
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        let expected = TensorProfile::compute(&coo);
        prop_assert_eq!(&expected, &reference::profile(&coo));
        let mut targets = vec![
            Format::csr(),
            Format::csc(),
            Format::dia(),
            Format::ell(),
            Format::bcsr(2, 2),
            Format::bcsr(4, 4),
            Format::jad(),
            Format::csf(),
        ];
        if lower {
            targets.push(Format::skyline());
        }
        let mut containers: Vec<AnyTensor> = targets
            .iter()
            .map(|f| convert(&coo, f).unwrap())
            .collect();
        containers.push(AnyTensor::Dok(DokMatrix::from_triples(&t)));
        for c in &containers {
            prop_assert_eq!(&TensorProfile::compute(c), &expected, "{}", c.format());
        }

        // Order-3 tensors: CSF in every mode order profiles like COO3.
        let dims3: Vec<usize> = (0..3).map(|_| rng.gen_range(1..12)).collect();
        let mut crd3 = coords(&mut rng, &dims3, 120);
        dedup(&mut crd3);
        let coo3 = AnyTensor::Coo3(CooTensor::from_triples(&triples(&dims3, &crd3)));
        let expected3 = TensorProfile::compute(&coo3);
        prop_assert_eq!(&expected3, &reference::profile(&coo3));
        for order in &ORDER3_MODE_ORDERS {
            let csf = convert(&coo3, Format::csf_ordered(order).unwrap()).unwrap();
            prop_assert_eq!(&TensorProfile::compute(&csf), &expected3, "{:?}", order);
        }
    }
}
