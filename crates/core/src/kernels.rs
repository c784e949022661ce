//! The two routines written against the schedule's primitives directly.
//!
//! Every other chunked routine is one engine function run over a schedule —
//! the source's chunks, through [`two_phase`] (see
//! [`partition`](crate::partition) and [`engine`]). Two conversions do not
//! fit a generic source's per-nonzero iteration, so they are written here,
//! once each, on the same primitives — at one thread, one chunk of every
//! step, inline on the calling thread:
//!
//! * **COO→CSF** ([`coo_to_csf_ordered`]) — after the shared histogram →
//!   merge → scatter step buckets the nonzeros by root, the work is
//!   re-partitioned by *root fibers* and each span is radix-sorted and
//!   packed on its own ([`fork_join`]), which no per-nonzero assembly
//!   expresses.
//! * **CSR→BCSR** ([`csr_to_bcsr`]) — a CSR source hands each block row's
//!   column indices over as slices, so block discovery sorts one reused
//!   scratch buffer per block row. Written over `SourceMatrix::for_each_in`
//!   instead (one generic `engine::to_bcsr` taking threads) it measured
//!   1.4–1.5× slower at two chunks, on `convert_large`
//!   `service.convert_s.coo_bcsr4x4` too, so it stays the CSR-specialised
//!   instance of [`two_phase`].
//!
//! Because per-chunk cursors and spans encode exactly the positions one
//! sequential pass would use and every sort is stable, the outputs are
//! **bit-identical** at any thread count, and to the engine routines on the
//! same input — the property `tests/kernel_table.rs` enforces for every row
//! of the [kernel table](crate::kernel_table).

use obs::Span;
use sparse_formats::csf::pack_sorted;
use sparse_formats::radix::{self, SortStrategy};
use sparse_formats::{BcsrMatrix, CooTensor, CsfTensor, CsrMatrix};
use sparse_tensor::{Shape, Value};

use crate::engine;
use crate::error::ConvertError;
use crate::partition::{
    balanced_chunks_by_pos, even_chunks, fork_join, merge_histograms_tree, split_spans, two_phase,
    SharedSlice,
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
/// 1. *analysis* — per-chunk histograms over the root coordinate (canonical
///    mode `mode_order[0]`),
/// 2. *merge + scatter* — a stable bucket sort that groups nonzeros by root
///    while preserving source order inside each root (the cursors encode
///    exactly the sequential positions),
/// 3. *root-fiber-partitioned sort + pack* — the roots are carved into
///    nnz-balanced chunks; every chunk's contiguous span is stably sorted by
///    the full *permuted* coordinate tuple and packed into its own fibers;
///    the per-chunk CSF arrays concatenate exactly because chunk boundaries
///    coincide with root-fiber boundaries.
///
/// A stable bucket sort by the storage root followed by a stable sort of
/// each bucket span is the same permutation as one global stable
/// lexicographic sort of the permuted tuples, so the output is
/// **bit-identical** to [`engine::to_csf_ordered`] at any thread count. The
/// span sorts go through the packed-key LSD radix kernel
/// ([`radix::sort_index_span`]).
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
    coo_to_csf_ordered_with(coo, mode_order, threads, SortStrategy::Radix)
}

/// [`coo_to_csf_ordered`] with the span-sort strategy pinned, so strategy
/// ablations compare sort algorithms over identical plumbing. All strategies
/// are stable, so the output is the same for every choice; only the sort
/// phase timing differs (the `sort_strategies` bench group measures exactly
/// this).
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked.
///
/// # Panics
///
/// Panics if `mode_order` is not a permutation of `0..coo.order()`.
pub fn coo_to_csf_ordered_with(
    coo: &CooTensor,
    mode_order: &[usize],
    threads: usize,
    strategy: SortStrategy,
) -> Result<CsfTensor, ConvertError> {
    let nnz = coo.nnz();
    let order = coo.order();
    if nnz == 0 || order < 2 {
        // Nothing to partition by: no nonzeros, or no level below the root.
        return Ok(engine::to_csf_ordered(coo, mode_order));
    }
    engine::assert_mode_order(mode_order, order);
    let threads = threads.max(1);
    // Storage dimension d holds canonical mode mode_order[d]; the root
    // partitioner keys on the storage-outermost mode.
    let packed_shape = Shape::new(mode_order.iter().map(|&m| coo.shape().dim(m)).collect());
    let roots = packed_shape.dim(0);
    let root_crd = coo.crd(mode_order[0]);

    // The permutation being sorted, cut into one span per chunk. One chunk
    // needs no partition: its span is every nonzero, and the stable span
    // sort orders by the root too. Several first bucket the nonzeros by root
    // and then own whole root fibers, nnz-balanced off the merged root `pos`
    // array.
    let mut perm: Vec<usize> = (0..nnz).collect();
    let span_lens: Vec<usize> = if threads == 1 {
        vec![nnz]
    } else {
        let root_pos = bucket_by_root(root_crd, roots, threads, &mut perm)?;
        balanced_chunks_by_pos(&root_pos, threads)
            .iter()
            .map(|roots| root_pos[roots.end] - root_pos[roots.start])
            .collect()
    };
    let spans = split_spans(&mut perm, span_lens);

    // Sort each span stably by the *permuted* coordinate tuple, then pack it
    // into partial CSF arrays. The span is already grouped by ascending root
    // with source order inside each root, so the stable span sort completes
    // the global stable lexicographic order.
    let columns: Vec<&[usize]> = mode_order.iter().map(|&m| coo.crd(m)).collect();
    let vals = coo.values();
    let mut partials: Vec<CsfTensor> = fork_join(
        "kernel.sort_pack",
        "chunk_sort_pack",
        spans,
        |span, worker| {
            worker.add_items(span.len() as u64);
            {
                let sort = Span::enter("kernel.radix_sort");
                sort.add_items(span.len() as u64);
                radix::sort_index_span_with(&columns, span, strategy);
            }
            pack_sorted(
                packed_shape.clone(),
                |d, p| columns[d][span[p]],
                |p| vals[span[p]],
                span.len(),
            )
        },
    )?;
    if partials.len() == 1 {
        // One chunk packed the whole tensor: nothing to stitch.
        return Ok(partials.remove(0));
    }

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
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked.
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
            *vals_out = vec![0.0; pos[brows] * bsize];
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

/// Stable bucket sort of the nonzero positions by storage root, as the
/// histogram instance of the shared skeleton over even nonzero chunks: count
/// roots, merge into the root `pos` array (returned) and per-chunk cursors,
/// scatter the source permutation into `perm`.
fn bucket_by_root(
    root_crd: &[usize],
    roots: usize,
    threads: usize,
    perm: &mut [usize],
) -> Result<Vec<usize>, ConvertError> {
    let chunks = even_chunks(perm.len(), threads);
    let perm_out = SharedSlice::new(perm);
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
        |hists| merge_histograms_tree(hists, roots),
        |_, chunk, mut cursor: Vec<usize>, span| {
            span.add_items(chunk.len() as u64);
            for p in chunk {
                let dst = cursor[root_crd[p]];
                cursor[root_crd[p]] += 1;
                // SAFETY: cursor ranges partition the output.
                unsafe { perm_out.write(dst, p) };
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
    fn strategy_pinned_csf_kernels_match_the_default() {
        let coo = shuffled_example3(11);
        let strategies = [
            SortStrategy::Radix,
            SortStrategy::Comparison,
            SortStrategy::Counting,
        ];
        for order in [[0, 1, 2], [2, 0, 1]] {
            let reference = engine::to_csf_ordered(&coo, &order);
            for strategy in strategies {
                for threads in [1, 2, 4] {
                    assert_eq!(
                        coo_to_csf_ordered_with(&coo, &order, threads, strategy).unwrap(),
                        reference,
                        "{order:?} with {strategy:?} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_csr_to_bcsr_is_bit_identical() {
        let csr = CsrMatrix::from_triples(&figure1_matrix());
        for (br, bc) in [(2, 2), (2, 3), (3, 1)] {
            let reference = engine::to_bcsr(&csr, br, bc);
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
