//! The two routines written against the schedule's primitives directly.
//!
//! Every other chunked routine is one engine function run over a schedule —
//! the source's chunks, through [`two_phase`] (see
//! [`partition`](crate::partition) and [`engine`]). Two conversions do not
//! fit a generic source's per-nonzero iteration, so they are written here,
//! once each, on the same primitives — at one thread, one chunk of every
//! step, inline on the calling thread:
//!
//! * **COO→CSF** ([`coo_to_csf_ordered`]) — every nonzero becomes one
//!   packed `(key, value bits)` pair, built as the columns are read in
//!   order (the gather at one chunk; the shared histogram → merge → scatter
//!   step's bucket-by-root scatter at several). The work is then
//!   re-partitioned by *root fibers* and each span is radix-sorted in place
//!   and packed straight from its keys on its own ([`fork_join`]), which no
//!   per-nonzero assembly expresses.
//! * **CSR→BCSR at several threads** ([`csr_to_bcsr`]) — a CSR hands each
//!   block row over as slices, so block discovery sorts one reused scratch
//!   buffer per block row. The `csr-bcsr` row runs it at `threads > 1`: on a
//!   512 k-nonzero blocked CSR the counting order of [`engine::to_bcsr`]
//!   (every BCSR at one thread) measured 1.5–1.7× its one-thread time.
//!
//! Because per-chunk cursors and spans encode exactly the positions one
//! sequential pass would use and every sort is stable, the outputs are
//! **bit-identical** at any thread count, and to the engine routines on the
//! same input — the property `tests/kernel_table.rs` enforces for every row
//! of the [kernel table](crate::kernel_table).

use obs::Span;
use sparse_formats::csf::lex_cmp_at;
use sparse_formats::radix::{self, KeyLayout, PackedKey};
use sparse_formats::{BcsrMatrix, CooTensor, CsfBuilder, CsfTensor, CsrMatrix};
use sparse_tensor::{Shape, Value};

use crate::engine;
use crate::error::ConvertError;
use crate::partition::{
    balanced_chunks_by_pos, even_chunks, fork_join, merge_histograms_tree, split_spans, two_phase,
    zeroed, SharedSlice,
};

/// COO→CSF, partitioned by *root fibers* (distinct outer coordinates): the
/// paper's sort-then-pack conversion staged over chunks. This is
/// [`coo_to_csf_ordered`] at the identity mode order; bit-identical to
/// [`engine::to_csf`] at any thread count.
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked.
pub fn coo_to_csf(coo: &CooTensor, threads: usize) -> Result<CsfTensor, ConvertError> {
    let identity: Vec<usize> = (0..coo.order()).collect();
    coo_to_csf_ordered(coo, &identity, threads)
}

/// COO→CSF along an arbitrary mode order (storage level `d` holds canonical
/// mode `mode_order[d]`), partitioned by the *storage* root:
///
/// 1. *layout* — the per-level maxima fix the packed key ([`KeyLayout`]):
///    `u64` up to 64 bits, `u128` up to 128, a stable comparison sort past
///    that,
/// 2. *keys* — one `(key, value bits)` pair per nonzero, in source order at
///    one chunk; at several, a stable bucket scatter by root (canonical mode
///    `mode_order[0]`) off merged per-chunk root histograms,
/// 3. *root-fiber-partitioned sort + pack* — the roots are carved into
///    nnz-balanced chunks; every chunk's contiguous span of pairs is
///    radix-sorted in place and packed from its keys into its own fibers;
///    the per-chunk CSF arrays concatenate exactly because chunk boundaries
///    coincide with root-fiber boundaries.
///
/// A stable bucket sort by the storage root followed by a stable sort of
/// each bucket span is the same order as one global stable lexicographic
/// sort of the permuted tuples, so the output is **bit-identical** at any
/// thread count (and [`engine::to_csf_ordered`] runs this at one chunk).
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked.
///
/// # Panics
///
/// Panics if `mode_order` is not a permutation of `0..coo.order()`.
pub fn coo_to_csf_ordered(
    coo: &CooTensor,
    mode_order: &[usize],
    threads: usize,
) -> Result<CsfTensor, ConvertError> {
    let (nnz, order) = (coo.nnz(), coo.order());
    engine::assert_mode_order(mode_order, order);
    let columns: Vec<&[usize]> = mode_order.iter().map(|&m| coo.crd(m)).collect();
    let maxima: Vec<usize> = {
        let span = Span::enter("kernel.layout");
        span.add_items(nnz as u64);
        let max = |c: &&[usize]| c.iter().copied().max().unwrap_or(0);
        columns.iter().map(max).collect()
    };
    let layout = KeyLayout::new(&maxima);
    let shape = Shape::new(mode_order.iter().map(|&m| coo.shape().dim(m)).collect());
    if layout.bits() > u128::BITS {
        // Keys no word holds: a stable comparison sort.
        let mut perm: Vec<usize> = (0..nnz).collect();
        perm.sort_by(|&a, &b| lex_cmp_at(&columns, a, b));
        let mut builder = CsfBuilder::new(shape, nnz);
        perm.into_iter()
            .for_each(|p| builder.push(|d| columns[d][p], coo.values()[p]));
        return Ok(builder.finish());
    }
    // Root histograms wider than the tensor has nonzeros would cost more
    // than the sort they split, and one mode has no level below the root.
    let (roots, single) = (maxima[0] + 1, maxima[0] >= nnz || order < 2);
    let threads = if single { 1 } else { threads.max(1) };
    if layout.bits() <= u64::BITS {
        sort_pack_chunks::<u64>(coo, shape, &columns, &layout, roots, threads)
    } else {
        sort_pack_chunks::<u128>(coo, shape, &columns, &layout, roots, threads)
    }
}

/// Steps 2 and 3 of [`coo_to_csf_ordered`] over `K`-wide keys whose root
/// coordinates lie in `0..roots`, and the stitch.
fn sort_pack_chunks<K: PackedKey>(
    coo: &CooTensor,
    packed_shape: Shape,
    columns: &[&[usize]],
    layout: &KeyLayout,
    roots: usize,
    threads: usize,
) -> Result<CsfTensor, ConvertError> {
    let (nnz, order) = (coo.nnz(), coo.order());
    let vals = coo.values();
    let pair = |p: usize| (layout.key::<K>(|d| columns[d][p]), vals[p].to_bits());

    // The pairs being sorted, cut into one span per chunk. One chunk needs
    // no partition: its span is every nonzero in source order, and the
    // stable sort orders by the root too. Several first bucket the pairs by
    // root and then own whole root fibers, nnz-balanced off the merged root
    // `pos` array.
    let mut pairs: Vec<(K, u64)>;
    let span_lens: Vec<usize> = if threads == 1 {
        let span = Span::enter("kernel.gather");
        span.add_items(nnz as u64);
        pairs = (0..nnz).map(pair).collect();
        vec![nnz]
    } else {
        pairs = vec![(K::default(), 0); nnz];
        let root_pos = bucket_by_root(columns[0], roots, threads, &mut pairs, pair)?;
        balanced_chunks_by_pos(&root_pos, threads)
            .iter()
            .map(|roots| root_pos[roots.end] - root_pos[roots.start])
            .collect()
    };
    let spans = split_spans(&mut pairs, span_lens);

    // The span is already grouped by ascending root with source order
    // inside each root, so its stable sort completes the global stable
    // lexicographic order.
    let mut partials: Vec<CsfTensor> = fork_join(
        "kernel.sort_pack",
        "chunk_sort_pack",
        spans,
        |pairs, worker| {
            let n = pairs.len() as u64;
            worker.add_items(n);
            {
                // The in-place sort's scratch is freed before the pack.
                let sort = Span::enter("kernel.radix_sort");
                sort.add_items(n);
                let mut scratch = vec![(K::default(), 0); pairs.len()];
                radix::sort_pairs(pairs, &mut scratch, 0, layout.bits());
            }
            let pack = Span::enter("kernel.pack");
            pack.add_items(n);
            radix::pack_keys(packed_shape.clone(), layout, pairs)
        },
    )?;
    if partials.len() == 1 {
        // One chunk packed the whole tensor: nothing to stitch.
        return Ok(partials.remove(0));
    }
    // The partials hold everything now: free the pairs before the stitch
    // allocates the output.
    drop(pairs);

    // Stitch: chunk boundaries are root-fiber boundaries, so the per-chunk
    // level arrays concatenate with offset fix-ups on the pos arrays.
    let stitch = Span::enter("kernel.stitch");
    stitch.add_items(partials.len() as u64);
    let mut crd: Vec<Vec<usize>> = vec![Vec::new(); order];
    let mut pos: Vec<Vec<usize>> = vec![vec![0usize]; order - 1];
    let mut stitched: Vec<Value> = Vec::with_capacity(nnz);
    for part in &partials {
        for (l, level_crd) in crd.iter_mut().enumerate() {
            level_crd.extend_from_slice(part.crd(l));
        }
        for (l, level_pos) in pos.iter_mut().enumerate() {
            let offset = *level_pos.last().expect("pos arrays start with 0");
            level_pos.extend(part.pos(l)[1..].iter().map(|&p| p + offset));
        }
        stitched.extend_from_slice(part.values());
    }
    drop(stitch);
    Ok(CsfTensor::from_parts(packed_shape, crd, pos, stitched)
        .expect("assembled CSF structure is valid"))
}

/// CSR→BCSR over chunks of whole *block rows* (so a block never straddles
/// chunks), balanced by the nonzeros they hold: per-chunk block discovery,
/// sequenced edge insertion over block rows, per-chunk scatter into the dense
/// blocks. Bit-identical to [`engine::to_bcsr`] at any thread count.
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked,
/// and [`ConvertError::PaddingLimit`] as [`engine::to_bcsr`] does.
///
/// # Panics
///
/// Panics if a block dimension is zero (same contract as the engine).
pub fn csr_to_bcsr(
    csr: &CsrMatrix,
    block_rows: usize,
    block_cols: usize,
    threads: usize,
) -> Result<BcsrMatrix, ConvertError> {
    assert!(
        block_rows > 0 && block_cols > 0,
        "block sizes must be positive"
    );
    let rows = csr.rows();
    let (src_pos, src_crd, src_vals) = (csr.pos(), csr.crd(), csr.values());
    let brows = rows.div_ceil(block_rows);
    let bsize = block_rows * block_cols;
    let rows_of = |bi: usize| bi * block_rows..((bi + 1) * block_rows).min(rows);

    // Chunks of block rows, balanced by their nonzero count, read off src_pos.
    let block_row_pos: Vec<usize> = (0..=brows)
        .map(|bi| src_pos[(bi * block_rows).min(rows)])
        .collect();
    let chunks = &balanced_chunks_by_pos(&block_row_pos, threads.max(1));

    // The values are sized by the merge and written by the assembly, each
    // chunk through its own span of them.
    let mut vals: Vec<Value> = Vec::new();
    let vals_out = &mut vals;
    let (sets, pos) = two_phase(
        chunks,
        "chunk_blocks",
        // Analysis: the sorted, deduplicated block-column set of every owned
        // block row (select [bi] -> count(bj), plus the coordinates
        // themselves), through one scratch buffer; the kept copies are
        // exact-sized.
        |chunk, span| {
            span.add_items(chunk.len() as u64);
            let mut scratch: Vec<usize> = Vec::new();
            let sets = chunk.map(|bi| {
                let block_row = rows_of(bi);
                let cols = &src_crd[src_pos[block_row.start]..src_pos[block_row.end]];
                scratch.clear();
                scratch.extend(cols.iter().map(|&j| j / block_cols));
                scratch.sort_unstable();
                scratch.dedup();
                scratch.clone()
            });
            sets.collect::<Vec<_>>()
        },
        // Merge: sequenced edge insertion over block rows (cheap, on the
        // calling thread) sizes the output; a chunk's block rows own one
        // contiguous span of it, so the value spans split off in order.
        move |found: Vec<Vec<Vec<usize>>>| {
            let sets: Vec<Vec<usize>> = found.into_iter().flatten().collect();
            let mut pos = vec![0usize; brows + 1];
            for bi in 0..brows {
                pos[bi + 1] = pos[bi] + sets[bi].len();
            }
            *vals_out =
                vec![0.0; engine::padded_slots(pos[brows], bsize, csr.nnz(), rows + csr.cols())?];
            let blocks = chunks.iter().map(|c| (pos[c.end] - pos[c.start]) * bsize);
            let spans = split_spans(vals_out, blocks);
            Ok(((sets, pos), spans))
        },
        // Assembly: scatter the chunk's nonzeros into its dense blocks.
        |(sets, pos), chunk, vals: &mut [Value], span| {
            span.add_items(chunk.len() as u64);
            span.add_bytes(std::mem::size_of_val(vals) as u64);
            let first = pos[chunk.start];
            for bi in chunk {
                for i in rows_of(bi) {
                    for p in src_pos[i]..src_pos[i + 1] {
                        let j = src_crd[p];
                        let block = pos[bi] - first
                            + sets[bi]
                                .binary_search(&(j / block_cols))
                                .expect("block registered in analysis");
                        vals[block * bsize + (i % block_rows) * block_cols + (j % block_cols)] =
                            src_vals[p];
                    }
                }
            }
        },
    )?;
    let crd = sets.concat();
    Ok(
        BcsrMatrix::from_parts(rows, csr.cols(), block_rows, block_cols, pos, crd, vals)
            .expect("assembled BCSR structure is valid"),
    )
}

/// Stable bucket sort of the nonzeros by storage root, as the histogram
/// instance of the shared skeleton over even nonzero chunks: count roots,
/// merge into the root `pos` array (returned) and per-chunk cursors, and
/// scatter `item(p)` for every nonzero `p` into its slot of `out`.
fn bucket_by_root<T: Send>(
    root_crd: &[usize],
    roots: usize,
    threads: usize,
    out: &mut [T],
    item: impl Fn(usize) -> T + Sync,
) -> Result<Vec<usize>, ConvertError> {
    let chunks = even_chunks(out.len(), threads);
    let out = SharedSlice::new(out);
    two_phase(
        &chunks,
        "chunk_histogram",
        |chunk, span| {
            span.add_items(chunk.len() as u64);
            let mut hist = vec![0usize; roots];
            for &root in &root_crd[chunk] {
                hist[root] += 1;
            }
            hist
        },
        |hists| merge_histograms_tree(hists, zeroed(roots + 1)?),
        |_, chunk, mut cursor: Vec<usize>, span| {
            span.add_items(chunk.len() as u64);
            for p in chunk {
                let dst = cursor[root_crd[p]];
                cursor[root_crd[p]] += 1;
                // SAFETY: cursor ranges partition the output.
                unsafe { out.write(dst, item(p)) };
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::{example3_tensor, figure1_matrix};

    fn shuffled_example3(seed: usize) -> CooTensor {
        let mut coo = CooTensor::from_triples(&example3_tensor());
        let mut state = seed;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
        coo
    }

    #[test]
    fn parallel_coo_to_csf_is_bit_identical() {
        let coo = shuffled_example3(3);
        let reference = engine::to_csf(&coo);
        for threads in [1, 2, 3, 4, 9] {
            assert_eq!(
                coo_to_csf(&coo, threads).unwrap(),
                reference,
                "{threads} threads"
            );
        }
        assert!(reference.to_triples().same_values(&example3_tensor()));
    }

    #[test]
    fn parallel_ordered_csf_kernel_is_bit_identical() {
        let coo = shuffled_example3(17);
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let reference = engine::to_csf_ordered(&coo, &order);
            for threads in [1, 2, 3, 4, 9] {
                assert_eq!(
                    coo_to_csf_ordered(&coo, &order, threads).unwrap(),
                    reference,
                    "{order:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_csr_to_bcsr_is_bit_identical() {
        let csr = CsrMatrix::from_triples(&figure1_matrix());
        for (br, bc) in [(2, 2), (2, 3), (3, 1)] {
            let reference = engine::to_bcsr(&csr, br, bc).unwrap();
            for threads in [1, 2, 4, 9] {
                assert_eq!(
                    csr_to_bcsr(&csr, br, bc, threads).unwrap(),
                    reference,
                    "{br}x{bc} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_csf_kernel_handles_order_2_tensors() {
        let coo = CooTensor::from_triples(&figure1_matrix());
        let reference = engine::to_csf(&coo);
        for threads in [1, 2, 4] {
            assert_eq!(coo_to_csf(&coo, threads).unwrap(), reference);
        }
    }

    #[test]
    fn empty_matrices_take_the_sequential_path() {
        // No nonzeros, nothing to partition: matrix- and tensor-shaped inputs
        // alike come back from the engine's sequential routine.
        let matrix = CooTensor::new(Shape::matrix(3, 5));
        assert_eq!(coo_to_csf(&matrix, 4).unwrap(), engine::to_csf(&matrix));
        let tensor = CooTensor::new(Shape::tensor3(3, 3, 3));
        assert_eq!(coo_to_csf(&tensor, 4).unwrap().nnz(), 0);
        // CSR→BCSR has no such exit: its chunks are simply empty.
        let csr = CsrMatrix::from_triples(&sparse_tensor::SparseTriples::new(Shape::matrix(3, 5)));
        assert_eq!(csr_to_bcsr(&csr, 2, 2, 4).unwrap().num_blocks(), 0);
    }
}
