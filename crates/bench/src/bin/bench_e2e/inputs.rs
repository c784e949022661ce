//! Seeded inputs and the independent oracle.
//!
//! Inputs come from `conv_workloads::generators` and a harness-side shuffle,
//! both functions of `--seed` alone. The oracle never calls conversion code:
//! an output is right when its triples, sorted, equal the generator's, and an
//! SpMV result is right when it matches a plain loop over those triples.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use conv_workloads::generators::{banded, blocked, irregular, tensor3_uniform};
use sparse_conv::AnyTensor;
use sparse_formats::{CooMatrix, CooTensor};
use sparse_tensor::SparseTriples;

/// SplitMix64: the harness's own generator for the COO shuffle, so the
/// benchmark needs no `rand` dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The sub-seed of the `k`-th input of a run.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// A banded matrix with seven full diagonals and about `nnz` nonzeros.
pub fn gen_banded(nnz: usize, seed: u64) -> SparseTriples {
    let n = (nnz / 7).max(16);
    banded(n, n, &[0, 1, -1, 2, -2, 4, -4], seed).expect("banded parameters are valid")
}

/// A matrix of dense 4×4 tiles, up to four per block row, with exactly `nnz`
/// nonzeros (`nnz` a multiple of 16 keeps every tile whole).
pub fn gen_blocked(nnz: usize, seed: u64) -> SparseTriples {
    // 64 nonzeros per block row when no two tiles collide; the generator
    // skips collisions, so start with 25 % slack and widen until it fits.
    let mut block_rows = nnz.div_ceil(64) * 5 / 4 + 8;
    loop {
        let n = 4 * block_rows;
        let t = blocked(n, n, 4, 4, nnz, seed).expect("blocked parameters are valid");
        if t.nnz() == nnz {
            return t;
        }
        block_rows = block_rows * 5 / 4;
    }
}

/// An irregular, circuit-like matrix: skewed row lengths (about seven per
/// row, one row of 64), uniform columns, exactly `nnz` nonzeros.
pub fn gen_irregular(nnz: usize, seed: u64) -> SparseTriples {
    let n = (nnz / 7).max(64);
    irregular(n, n, nnz, 64, seed).expect("irregular parameters are valid")
}

/// A uniform order-3 tensor of side `dim` with exactly `nnz` components.
pub fn gen_tensor3(dim: usize, nnz: usize, seed: u64) -> SparseTriples {
    tensor3_uniform([dim; 3], nnz, seed).expect("tensor parameters are valid")
}

/// The triples as a COO matrix in shuffled (import) order.
pub fn shuffled_coo(t: &SparseTriples, seed: u64) -> CooMatrix {
    let mut coo = CooMatrix::from_triples(t);
    let mut rng = Rng::new(seed);
    coo.shuffle_with(|bound| rng.below(bound));
    coo
}

/// The triples as an order-3 COO tensor in shuffled order.
pub fn shuffled_coo3(t: &SparseTriples, seed: u64) -> CooTensor {
    let mut coo = CooTensor::from_triples(t);
    let mut rng = Rng::new(seed);
    coo.shuffle_with(|bound| rng.below(bound));
    coo
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over a tensor's stored coordinates and value bits, in stored
/// order: equal for equal inputs, different for a different seed.
pub fn checksum(t: &AnyTensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    match t {
        AnyTensor::Coo(m) => {
            for (i, j, v) in m.iter() {
                fnv(&mut h, i as u64);
                fnv(&mut h, j as u64);
                fnv(&mut h, v.to_bits());
            }
        }
        AnyTensor::Coo3(c) => {
            for p in 0..c.nnz() {
                for d in 0..c.order() {
                    fnv(&mut h, c.crd(d)[p] as u64);
                }
                fnv(&mut h, c.values()[p].to_bits());
            }
        }
        other => panic!("inputs are stored as COO, not {}", other.format()),
    }
    h
}

/// The dense vector every SpMV multiplies by.
pub fn spmv_x(cols: usize) -> Vec<f64> {
    (0..cols).map(|j| 1.0 + (j % 10) as f64 / 10.0).collect()
}

/// `y = A x` by a plain loop over the generator's triples.
pub fn spmv_reference(t: &SparseTriples, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; t.shape().rows()];
    for tr in t.iter() {
        y[tr.coord[0] as usize] += tr.value * x[tr.coord[1] as usize];
    }
    y
}

fn close_scalar(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Element-wise agreement to a relative 1e-9 (formats accumulate in
/// different orders).
pub fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close_scalar(*x, *y))
}

/// Nonzero count for the every-pass check. The containers count DIA's by
/// materialising triples; scanning the stored values gives the same number
/// here because the generators never emit a zero.
pub fn stored_nonzeros(t: &AnyTensor) -> usize {
    match t {
        AnyTensor::Dia(m) => m.values().iter().filter(|v| **v != 0.0).count(),
        other => other.nnz(),
    }
}

/// One nonzero in the oracle's canonical form: coordinates (padded with
/// zeros up to order 3) and the value's bits.
type Canon = ([i64; 3], u64);

fn canonical(t: &SparseTriples) -> Vec<Canon> {
    let mut out: Vec<Canon> = t
        .iter()
        .map(|tr| {
            let mut coord = [0i64; 3];
            coord[..tr.coord.len()].copy_from_slice(&tr.coord);
            (coord, tr.value.to_bits())
        })
        .collect();
    out.sort_unstable();
    out
}

/// What the oracle knows about one generated input.
pub struct Expected {
    /// The generator's triples in canonical order: the reference every
    /// output is compared with.
    canon: Vec<Canon>,
    pub order: usize,
    pub nnz: usize,
    /// Reference SpMV result and its sum (order-2 inputs only).
    y: Vec<f64>,
    y_sum: f64,
}

impl Expected {
    pub fn new(t: &SparseTriples) -> Self {
        assert!(t.order() <= 3, "the oracle covers orders up to 3");
        let y = if t.order() == 2 {
            spmv_reference(t, &spmv_x(t.shape().cols()))
        } else {
            Vec::new()
        };
        Expected {
            canon: canonical(t),
            order: t.order(),
            nnz: t.nnz(),
            y_sum: y.iter().sum(),
            y,
        }
    }

    /// Every-pass check: the output stores the right number of nonzeros.
    pub fn nnz_matches(&self, out: &AnyTensor) -> bool {
        stored_nonzeros(out) == self.nnz
    }

    /// First-pass check: the output's triples are the generator's.
    pub fn same_tensor(&self, out: &AnyTensor) -> bool {
        out.try_to_triples()
            .is_ok_and(|t| t.order() == self.order && canonical(&t) == self.canon)
    }

    /// `full`: the first-pass check; otherwise the every-pass one.
    pub fn tensor_ok(&self, out: &AnyTensor, full: bool) -> bool {
        if full {
            self.same_tensor(out)
        } else {
            self.nnz_matches(out)
        }
    }

    /// SpMV check: the checksum every pass, every element on the first.
    pub fn y_ok(&self, y: &[f64], full: bool) -> bool {
        close_scalar(y.iter().sum(), self.y_sum) && (!full || close(y, &self.y))
    }
}

/// A directory of the run's own for input files and spill runs, removed when
/// dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory under `base`, unique to this process and call.
    pub fn new_in(base: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = base.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_hit_their_targets_and_follow_the_seed() {
        assert_eq!(gen_blocked(1600, 3).nnz(), 1600);
        assert_eq!(gen_irregular(2000, 3).nnz(), 2000);
        assert_eq!(gen_tensor3(16, 500, 3).nnz(), 500);
        let a = AnyTensor::Coo(shuffled_coo(&gen_irregular(2000, 3), 9));
        let b = AnyTensor::Coo(shuffled_coo(&gen_irregular(2000, 3), 9));
        let c = AnyTensor::Coo(shuffled_coo(&gen_irregular(2000, 4), 9));
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
    }

    #[test]
    fn oracle_accepts_the_input_and_rejects_a_changed_one() {
        let t = gen_banded(700, 1);
        let expected = Expected::new(&t);
        let coo = shuffled_coo(&t, 5);
        assert!(expected.tensor_ok(&AnyTensor::Coo(coo.clone()), true));
        let y = sparse_formats::spmv::spmv_coo(&coo, &spmv_x(coo.cols()));
        assert!(expected.y_ok(&y, true));

        let mut wrong = CooMatrix::new(coo.rows(), coo.cols());
        for (n, (i, j, v)) in coo.iter().enumerate() {
            wrong.push(i, j, if n == 17 { v + 1.0 } else { v });
        }
        assert!(expected.nnz_matches(&AnyTensor::Coo(wrong.clone())));
        assert!(!expected.tensor_ok(&AnyTensor::Coo(wrong.clone()), true));
        let y = sparse_formats::spmv::spmv_coo(&wrong, &spmv_x(coo.cols()));
        assert!(!expected.y_ok(&y, false));
    }
}
