//! Block and fibre equivalence sweep.
//!
//! BCSR and order-2 CSF from a matrix assemble from one counting order (two
//! stable counting passes, `engine::to_bcsr` and `engine::matrix_to_csf`).
//! This suite holds both to the routines they replaced, kept here as
//! references, bit for bit:
//!
//! * BCSR — each block row's block columns gathered, sorted and
//!   deduplicated, and each value placed by binary search (the last of a
//!   duplicate wins), at block shapes 1×1, 2×3, 4×4 and 3×5 over extents
//!   they do not divide;
//! * DCSR and `CSF@1,0` — a stable lexicographic sort of the permuted
//!   coordinates (`lex_sort_perm`) packed by `CsfBuilder`.
//!
//! Sources are COO (arbitrary storage order, duplicates kept), and the CSR,
//! CSC and DIA the engine builds from it, wherever their extents allow. A
//! CSR also runs `kernels::csr_to_bcsr` (the `csr-bcsr` row's routine at
//! more than one thread) at 1, 2, 3, 4 and 9 threads against the same
//! reference. Shapes sweep empty rows and columns, 0 nonzeros, 1×N, N×1,
//! and extents of 2^40 and more, far past 16 × nnz (so the passes rank
//! their keys). Values include −0.0 and a NaN with payload bits, compared
//! as bits. `PROPTEST_CASES` boosts the sweep.

use proptest::prelude::*;

use taco_conversion_repro::conv::{engine, kernels, SourceMatrix};
use taco_conversion_repro::formats::csf::lex_sort_perm;
use taco_conversion_repro::formats::{BcsrMatrix, CooMatrix, CsfBuilder, CsfTensor, CsrMatrix};
use taco_conversion_repro::tensor::Shape;

const THREADS: [usize; 5] = [1, 2, 3, 4, 9];
const BLOCKS: [(usize, usize); 4] = [(1, 1), (2, 3), (4, 4), (3, 5)];
const HUGE: usize = 1 << 40;
const VALUES: [f64; 8] = [1.0, -2.5, 0.0, -0.0, 3.0, -7.0, 0.5, 0.0];

fn nan() -> f64 {
    f64::from_bits(0x7ff8_0000_0000_0123)
}

/// A COO matrix in arbitrary storage order. `kind` picks the shape: small,
/// 1×N, N×1, 2^40 columns or 2^40 rows. Trailing entries repeat earlier
/// coordinates with other values.
fn arb_coo() -> impl Strategy<Value = CooMatrix> {
    (
        0usize..5,
        (1usize..24, 1usize..24),
        proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0usize..9), 0..60),
        proptest::collection::vec((0usize..60, 0usize..9), 0..8),
    )
        .prop_map(|(kind, (r, c), entries, repeats)| {
            let (rows, cols) = match kind {
                0 => (r, c),
                1 => (1, 3 * c),
                2 => (3 * r, 1),
                3 => (r, HUGE + c),
                _ => (HUGE + r, c),
            };
            let value = |v: usize| VALUES.get(v).copied().unwrap_or_else(nan);
            let mut coo = CooMatrix::new(rows, cols);
            for &(i, j, v) in &entries {
                coo.push(i as usize % rows, j as usize % cols, value(v));
            }
            for &(p, v) in repeats.iter().filter(|&&(p, _)| p < entries.len()) {
                let (i, j, _) = entries[p];
                coo.push(i as usize % rows, j as usize % cols, value(v));
            }
            coo
        })
}

/// BCSR as the engine assembled it before the counting order.
fn reference_bcsr<S: SourceMatrix>(
    src: &S,
    br: usize,
    bc: usize,
) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    let mut blocks = vec![Vec::new(); src.rows().div_ceil(br)];
    src.for_each(|i, j, _| blocks[i / br].push(j / bc));
    for set in &mut blocks {
        set.sort_unstable();
        set.dedup();
    }
    let mut pos = vec![0];
    for set in &blocks {
        pos.push(pos.last().unwrap() + set.len());
    }
    let mut vals = vec![0.0; pos.last().unwrap() * br * bc];
    src.for_each(|i, j, v| {
        let (bi, bj) = (i / br, j / bc);
        let block = pos[bi] + blocks[bi].binary_search(&bj).expect("block registered");
        vals[block * br * bc + (i % br) * bc + j % bc] = v;
    });
    (
        pos,
        blocks.concat(),
        vals.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Order-2 CSF along `order` by the sort-then-pack recipe.
fn reference_csf<S: SourceMatrix>(src: &S, order: [usize; 2]) -> CsfTensor {
    let (mut columns, mut vals) = (vec![Vec::new(), Vec::new()], Vec::new());
    src.for_each(|i, j, v| {
        let coord = [i, j];
        columns[0].push(coord[order[0]]);
        columns[1].push(coord[order[1]]);
        vals.push(v);
    });
    let dims = [src.rows(), src.cols()];
    let shape = Shape::matrix(dims[order[0]], dims[order[1]]);
    let mut builder = CsfBuilder::new(shape, vals.len());
    for p in lex_sort_perm(&columns) {
        builder.push(|d| columns[d][p], vals[p]);
    }
    builder.finish()
}

type CsfBits = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<u64>, Vec<usize>);

fn csf_bits(csf: &CsfTensor) -> CsfBits {
    let bits = csf.values().iter().map(|v| v.to_bits()).collect();
    let dims = csf.shape().dims().to_vec();
    (
        csf.crd(0).to_vec(),
        csf.pos(0).to_vec(),
        csf.crd(1).to_vec(),
        bits,
        dims,
    )
}

fn bcsr_bits(bcsr: &BcsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    let bits = bcsr.values().iter().map(|v| v.to_bits()).collect();
    (bcsr.pos().to_vec(), bcsr.crd().to_vec(), bits)
}

/// Every routine of the counting order on `src` against its reference (and,
/// given `csr`, the CSR kernel at every thread count); BCSR only where its
/// block-row `pos` fits.
fn check<S: SourceMatrix>(src: &S, bcsr: bool, csr: Option<&CsrMatrix>) {
    for order in [[0, 1], [1, 0]] {
        let want = csf_bits(&reference_csf(src, order));
        let got = engine::matrix_to_csf(src, &order).expect("valid CSF");
        prop_assert_eq!(&csf_bits(&got), &want, "CSF{:?}", order);
    }
    for (br, bc) in BLOCKS.into_iter().filter(|_| bcsr) {
        let want = reference_bcsr(src, br, bc);
        let got = engine::to_bcsr(src, br, bc).expect("within the padding limit");
        prop_assert_eq!(&bcsr_bits(&got), &want, "BCSR{}x{}", br, bc);
        for threads in THREADS.into_iter().filter(|_| csr.is_some()) {
            let got = kernels::csr_to_bcsr(csr.unwrap(), br, bc, threads).expect("no panics");
            prop_assert_eq!(
                &bcsr_bits(&got),
                &want,
                "kernel BCSR{}x{} at {}",
                br,
                bc,
                threads
            );
        }
    }
}

proptest! {
    #[test]
    fn blocks_and_fibres_match_the_sorting_references(coo in arb_coo()) {
        let (small_rows, small_cols) = (coo.rows() < HUGE, coo.cols() < HUGE);
        check(&coo, small_rows, None);
        if small_rows {
            let csr = engine::to_csr(&coo, 1).expect("no worker panics");
            check(&csr, true, Some(&csr));
        }
        if small_cols {
            check(&engine::to_csc(&coo, 1).expect("no worker panics"), small_rows, None);
        }
        if small_rows && small_cols {
            check(&engine::to_dia(&coo).expect("small DIA"), true, None);
        }
    }
}
