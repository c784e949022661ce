//! Row-range–partitioned parallel conversion kernels.
//!
//! Each kernel is the parallel counterpart of one hot-path routine in
//! [`engine`], restructured around the observation that both the
//! analysis and the assembly phase of a conversion decompose over contiguous
//! ranges of the outer storage level (Chou et al. 2018's coordinate
//! hierarchies make this safe to state generically: a parent's children
//! never straddle a range boundary):
//!
//! 1. *partitioned analysis* — every worker computes the attribute-query
//!    histogram for its range only,
//! 2. *prefix-sum merge* — the per-range histograms are merged into the
//!    global `pos` array **and** into per-range scatter cursors (a worker's
//!    cursor for parent `i` starts after all of `i`'s entries owned by
//!    earlier ranges),
//! 3. *partitioned assembly* — every worker scatters its range through its
//!    own cursors.
//!
//! Because the per-range cursors encode exactly the positions the sequential
//! kernel would have used, the output is **bit-identical** to the sequential
//! engine for any thread count — the property `tests/kernel_table.rs`
//! enforces for every row of the [kernel table](crate::kernel_table). At
//! `threads <= 1` every kernel *is* the sequential engine routine.
//!
//! Workers are plain `std::thread::scope` threads; no work stealing, no
//! channels. The scatter phase writes disjoint index sets of the shared
//! output buffers through the private `SharedSlice` wrapper.

use std::marker::PhantomData;
use std::ops::Range;

use obs::Span;
use sparse_formats::csf::pack_sorted;
use sparse_formats::radix::{self, SortStrategy};
use sparse_formats::{BcsrMatrix, CooMatrix, CooTensor, CscMatrix, CsfTensor, CsrMatrix};
use sparse_tensor::{Shape, Value};

use crate::engine::{self, TRANSPOSE_TILE};
use crate::partition::{balanced_chunks_by_pos, even_chunks, merge_histograms_tree};

/// Per-chunk nonzero count below which the direct scatter beats the blocked
/// one (the bucket pass has to pay for itself).
const CHUNK_TILE_MIN_NNZ: usize = 1 << 14;

/// A shared mutable slice for scatter phases whose write-index sets are
/// disjoint across workers.
///
/// Rust cannot prove disjointness of histogram-derived scatter indices, so
/// the kernels assert it by construction: every output position is derived
/// from a prefix sum over per-worker counts, which partitions the index
/// space. This wrapper only exposes raw writes; reads happen after the scope
/// joins.
struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: workers only write, through `write`, at indices the caller
// guarantees are distinct across threads; the borrow checker serialises all
// reads after the scope ends.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    fn new(data: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Writes `value` at `idx`.
    ///
    /// # Safety
    ///
    /// `idx` must be in bounds and no other thread may read or write it for
    /// the lifetime of the enclosing thread scope.
    unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx) = value;
    }
}

/// The analysis and merge phases every histogram-scatter kernel shares: one
/// worker per chunk counts the parent coordinates `keys(chunk)` yields into a
/// `parents`-long histogram (`select [i] -> count(j)`), and the per-chunk
/// histograms merge into the global `pos` array plus one scatter-cursor
/// array per chunk.
fn histogram_cursors<'a>(
    chunks: &[Range<usize>],
    parents: usize,
    threads: usize,
    keys: impl Fn(&Range<usize>) -> &'a [usize] + Sync,
) -> (Vec<usize>, Vec<Vec<usize>>) {
    let analysis = Span::enter("kernel.analysis");
    let parent = analysis.handle();
    let keys = &keys;
    let hists: Vec<Vec<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|r| {
                s.spawn(move || {
                    let span = Span::enter_under("chunk_histogram", parent);
                    let chunk_keys = keys(r);
                    span.add_items(chunk_keys.len() as u64);
                    let mut hist = vec![0usize; parents];
                    for &i in chunk_keys {
                        hist[i] += 1;
                    }
                    hist
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("histogram worker panicked"))
            .collect()
    });
    drop(analysis);
    let _merge = Span::enter("kernel.merge");
    merge_histograms_tree(&hists, parents, threads)
}

/// Parallel COO→CSR: per-chunk row histograms, prefix-sum merge, partitioned
/// scatter. Bit-identical to [`engine::to_csr`] on the same input.
pub fn coo_to_csr(coo: &CooMatrix, threads: usize) -> CsrMatrix {
    let rows = coo.rows();
    let nnz = coo.nnz();
    if threads <= 1 || nnz == 0 {
        return engine::to_csr(coo);
    }
    let row_idx = coo.row_indices();
    let col_idx = coo.col_indices();
    let values = coo.values();
    let chunks = even_chunks(nnz, threads);
    let (pos, cursors) = histogram_cursors(&chunks, rows, threads, |r| &row_idx[r.clone()]);

    // Assembly: each worker scatters its chunk through its own cursors; the
    // cursor construction partitions the output index space.
    let scatter = Span::enter("kernel.scatter");
    scatter.add_items(nnz as u64);
    scatter.add_bytes((nnz * (size_of::<usize>() + size_of::<Value>())) as u64);
    let parent = scatter.handle();
    let mut crd = vec![0usize; nnz];
    let mut vals = vec![0.0 as Value; nnz];
    {
        let crd_out = SharedSlice::new(&mut crd);
        let vals_out = SharedSlice::new(&mut vals);
        std::thread::scope(|s| {
            for (r, mut cursor) in chunks.iter().cloned().zip(cursors) {
                let crd_out = &crd_out;
                let vals_out = &vals_out;
                s.spawn(move || {
                    let span = Span::enter_under("chunk_scatter", parent);
                    span.add_items(r.len() as u64);
                    for p in r {
                        let i = row_idx[p];
                        let dst = cursor[i];
                        cursor[i] += 1;
                        // SAFETY: `dst` comes from this chunk's cursor range,
                        // disjoint from every other chunk's by construction.
                        unsafe {
                            crd_out.write(dst, col_idx[p]);
                            vals_out.write(dst, values[p]);
                        }
                    }
                });
            }
        });
    }
    drop(scatter);
    CsrMatrix::from_parts(rows, coo.cols(), pos, crd, vals)
        .expect("assembled CSR structure is valid")
}

/// Parallel CSR→CSC transpose: chunks of whole rows (nnz-balanced via the
/// source `pos` array), per-chunk column histograms, prefix-sum merge,
/// partitioned scatter. Wide chunks scatter through the engine's blocked
/// write-combining form (`engine::blocked_transpose_scatter`), which
/// consumes each column's cursor in exactly the order the direct loop would
/// — so the kernel stays bit-identical to [`engine::to_csc`].
pub fn csr_to_csc(csr: &CsrMatrix, threads: usize) -> CscMatrix {
    let cols = csr.cols();
    let nnz = csr.nnz();
    if threads <= 1 || nnz == 0 {
        return engine::csr_to_csc_blocked(csr);
    }
    let src_pos = csr.pos();
    let src_crd = csr.crd();
    let src_vals = csr.values();
    let chunks = balanced_chunks_by_pos(src_pos, threads);
    let (pos, cursors) = histogram_cursors(&chunks, cols, threads, |r| {
        &src_crd[src_pos[r.start]..src_pos[r.end]]
    });

    let scatter = Span::enter("kernel.scatter");
    scatter.add_items(nnz as u64);
    scatter.add_bytes((nnz * (size_of::<usize>() + size_of::<Value>())) as u64);
    let parent = scatter.handle();
    let mut crd = vec![0usize; nnz];
    let mut vals = vec![0.0 as Value; nnz];
    {
        let crd_out = SharedSlice::new(&mut crd);
        let vals_out = SharedSlice::new(&mut vals);
        std::thread::scope(|s| {
            for (r, mut cursor) in chunks.iter().cloned().zip(cursors) {
                let crd_out = &crd_out;
                let vals_out = &vals_out;
                s.spawn(move || {
                    let span = Span::enter_under("chunk_scatter", parent);
                    let chunk_crd = &src_crd[src_pos[r.start]..src_pos[r.end]];
                    span.add_items(chunk_crd.len() as u64);
                    // SAFETY (both arms): cursor ranges partition the output.
                    let write = |dst, i, v| unsafe {
                        crd_out.write(dst, i);
                        vals_out.write(dst, v);
                    };
                    if cols > TRANSPOSE_TILE && chunk_crd.len() >= CHUNK_TILE_MIN_NNZ {
                        let tiles = cols.div_ceil(TRANSPOSE_TILE);
                        let mut tile_pos = vec![0usize; tiles + 1];
                        for &j in chunk_crd {
                            tile_pos[j / TRANSPOSE_TILE + 1] += 1;
                        }
                        for t in 0..tiles {
                            tile_pos[t + 1] += tile_pos[t];
                        }
                        engine::blocked_transpose_scatter(csr, r, &tile_pos, &mut cursor, write);
                    } else {
                        for i in r {
                            for p in src_pos[i]..src_pos[i + 1] {
                                let j = src_crd[p];
                                let dst = cursor[j];
                                cursor[j] += 1;
                                write(dst, i, src_vals[p]);
                            }
                        }
                    }
                });
            }
        });
    }
    drop(scatter);
    CscMatrix::from_parts(csr.rows(), cols, pos, crd, vals)
        .expect("assembled CSC structure is valid")
}

/// Parallel CSR→BCSR: chunks of whole *block rows* (so a block never
/// straddles workers), per-chunk block discovery, prefix-sum merge,
/// partitioned scatter into the dense blocks. Bit-identical to
/// [`engine::to_bcsr`].
///
/// # Panics
///
/// Panics if a block dimension is zero (same contract as the engine).
pub fn csr_to_bcsr(
    csr: &CsrMatrix,
    block_rows: usize,
    block_cols: usize,
    threads: usize,
) -> BcsrMatrix {
    assert!(
        block_rows > 0 && block_cols > 0,
        "block sizes must be positive"
    );
    let rows = csr.rows();
    let nnz = csr.nnz();
    if threads <= 1 || nnz == 0 {
        return engine::to_bcsr(csr, block_rows, block_cols);
    }
    let src_pos = csr.pos();
    let src_crd = csr.crd();
    let src_vals = csr.values();
    let brows = rows.div_ceil(block_rows);

    // Balance chunks of block rows by their nonzero count, read off src_pos.
    let block_row_pos: Vec<usize> = (0..=brows)
        .map(|bi| src_pos[(bi * block_rows).min(rows)])
        .collect();
    let chunks = balanced_chunks_by_pos(&block_row_pos, threads);

    // Analysis: the sorted, deduplicated block-column set of every owned
    // block row (select [bi] -> count(bj), plus the coordinates themselves).
    let analysis = Span::enter("kernel.analysis");
    let parent = analysis.handle();
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); brows];
    {
        let blocks_out = SharedSlice::new(&mut blocks);
        std::thread::scope(|s| {
            for r in &chunks {
                let r = r.clone();
                let blocks_out = &blocks_out;
                s.spawn(move || {
                    let span = Span::enter_under("chunk_blocks", parent);
                    span.add_items(r.len() as u64);
                    // One scratch buffer per worker, reused across its block
                    // rows; the result clones are exact-sized.
                    let mut set: Vec<usize> = Vec::new();
                    for bi in r {
                        set.clear();
                        let row_lo = bi * block_rows;
                        let row_hi = (row_lo + block_rows).min(rows);
                        for &j in &src_crd[src_pos[row_lo]..src_pos[row_hi]] {
                            set.push(j / block_cols);
                        }
                        set.sort_unstable();
                        set.dedup();
                        // SAFETY: block row `bi` belongs to exactly one chunk.
                        unsafe { blocks_out.write(bi, set.clone()) };
                    }
                });
            }
        });
    }

    drop(analysis);
    // Sequenced edge insertion over block rows (cheap, sequential).
    let merge = Span::enter("kernel.merge");
    let mut pos = vec![0usize; brows + 1];
    for bi in 0..brows {
        pos[bi + 1] = pos[bi] + blocks[bi].len();
    }
    drop(merge);
    let nblocks = pos[brows];
    let bsize = block_rows * block_cols;

    // Assembly: a chunk's block rows own the contiguous output span
    // [pos[r.start], pos[r.end]); scatter blocks and values in parallel.
    let scatter = Span::enter("kernel.scatter");
    scatter.add_items(nnz as u64);
    scatter.add_bytes((nblocks * (size_of::<usize>() + bsize * size_of::<Value>())) as u64);
    let parent = scatter.handle();
    let mut crd = vec![0usize; nblocks];
    let mut vals = vec![0.0 as Value; nblocks * bsize];
    {
        let crd_out = SharedSlice::new(&mut crd);
        let vals_out = SharedSlice::new(&mut vals);
        let blocks = &blocks;
        std::thread::scope(|s| {
            for r in &chunks {
                let r = r.clone();
                let crd_out = &crd_out;
                let vals_out = &vals_out;
                let pos = &pos;
                s.spawn(move || {
                    let span = Span::enter_under("chunk_scatter", parent);
                    span.add_items(r.len() as u64);
                    for bi in r {
                        let base = pos[bi];
                        for (n, &bj) in blocks[bi].iter().enumerate() {
                            // SAFETY: output spans are disjoint per block row.
                            unsafe { crd_out.write(base + n, bj) };
                        }
                        let row_lo = bi * block_rows;
                        let row_hi = (row_lo + block_rows).min(rows);
                        for i in row_lo..row_hi {
                            for p in src_pos[i]..src_pos[i + 1] {
                                let j = src_crd[p];
                                let bj = j / block_cols;
                                let b = base
                                    + blocks[bi]
                                        .binary_search(&bj)
                                        .expect("block registered in analysis");
                                let dst =
                                    b * bsize + (i % block_rows) * block_cols + (j % block_cols);
                                // SAFETY: dst lies in this block row's span.
                                unsafe { vals_out.write(dst, src_vals[p]) };
                            }
                        }
                    }
                });
            }
        });
    }
    drop(scatter);
    BcsrMatrix::from_parts(rows, csr.cols(), block_rows, block_cols, pos, crd, vals)
        .expect("assembled BCSR structure is valid")
}

/// Parallel COO→CSF, partitioned by *root fibers* (distinct outer
/// coordinates): the tensor counterpart of [`coo_to_csr`], and the paper's
/// sort-then-pack conversion restaged for threads. This is
/// [`coo_to_csf_ordered`] at the identity mode order; bit-identical to
/// [`engine::to_csf`] at any thread count.
pub fn coo_to_csf(coo: &CooTensor, threads: usize) -> CsfTensor {
    let identity: Vec<usize> = (0..coo.order()).collect();
    coo_to_csf_ordered(coo, &identity, threads)
}

/// Parallel COO→CSF along an arbitrary mode order (storage level `d` holds
/// canonical mode `mode_order[d]`), partitioned by the *storage* root:
///
/// 1. *partitioned analysis* — per-chunk histograms over the root
///    coordinate (canonical mode `mode_order[0]`),
/// 2. *prefix-sum merge + partitioned scatter* — a stable bucket sort that
///    groups nonzeros by root while preserving source order inside each
///    root (the cursors encode exactly the sequential positions),
/// 3. *root-fiber-partitioned sort + pack* — the roots are carved into
///    nnz-balanced chunks; every worker stably sorts its contiguous span by
///    the full *permuted* coordinate tuple and packs its own fibers; the
///    per-chunk CSF arrays concatenate exactly because chunk boundaries
///    coincide with root-fiber boundaries.
///
/// A stable bucket sort by the storage root followed by a stable sort of
/// each bucket span is the same permutation as one global stable
/// lexicographic sort of the permuted tuples, so the output is
/// **bit-identical** to [`engine::to_csf_ordered`] at any thread count —
/// which is what runs at `threads <= 1`. The span sorts go through the
/// packed-key LSD radix kernel ([`radix::sort_index_span`]).
///
/// # Panics
///
/// Panics if `mode_order` is not a permutation of `0..coo.order()`.
pub fn coo_to_csf_ordered(coo: &CooTensor, mode_order: &[usize], threads: usize) -> CsfTensor {
    if threads <= 1 {
        return engine::to_csf_ordered(coo, mode_order);
    }
    coo_to_csf_ordered_with(coo, mode_order, threads, SortStrategy::Radix)
}

/// The partitioned body of [`coo_to_csf_ordered`] with the span-sort
/// strategy pinned, run at *every* thread count (one chunk at
/// `threads <= 1`) so strategy ablations compare sort algorithms over
/// identical plumbing. All strategies are stable, so the output is the same
/// for every choice; only the sort phase timing differs (the
/// `sort_strategies` bench group measures exactly this).
///
/// # Panics
///
/// Panics if `mode_order` is not a permutation of `0..coo.order()`.
pub fn coo_to_csf_ordered_with(
    coo: &CooTensor,
    mode_order: &[usize],
    threads: usize,
    strategy: SortStrategy,
) -> CsfTensor {
    let nnz = coo.nnz();
    let order = coo.order();
    if nnz == 0 || order < 2 {
        return engine::to_csf_ordered(coo, mode_order);
    }
    engine::assert_mode_order(mode_order, order);
    let threads = threads.max(1);
    // Storage dimension d holds canonical mode mode_order[d]; the root
    // partitioner keys on the storage-outermost mode.
    let packed_shape = Shape::new(mode_order.iter().map(|&m| coo.shape().dim(m)).collect());
    let roots = packed_shape.dim(0);
    let root_crd = coo.crd(mode_order[0]);

    // Analysis + merge: per-chunk root histograms over even nonzero chunks.
    let chunks = even_chunks(nnz, threads);
    let (root_pos, cursors) = histogram_cursors(&chunks, roots, threads, |r| &root_crd[r.clone()]);

    // Stable bucket sort by storage root: scatter the source permutation.
    let bucket = Span::enter("kernel.bucket_scatter");
    bucket.add_items(nnz as u64);
    let parent = bucket.handle();
    let mut perm = vec![0usize; nnz];
    {
        let perm_out = SharedSlice::new(&mut perm);
        std::thread::scope(|s| {
            for (r, mut cursor) in chunks.iter().cloned().zip(cursors) {
                let perm_out = &perm_out;
                s.spawn(move || {
                    let span = Span::enter_under("chunk_scatter", parent);
                    span.add_items(r.len() as u64);
                    for p in r {
                        let dst = cursor[root_crd[p]];
                        cursor[root_crd[p]] += 1;
                        // SAFETY: cursor ranges partition the output.
                        unsafe { perm_out.write(dst, p) };
                    }
                });
            }
        });
    }
    drop(bucket);

    // Root-fiber chunks, nnz-balanced off the merged root pos array; each
    // chunk owns the contiguous permutation span of whole root fibers.
    let root_chunks = balanced_chunks_by_pos(&root_pos, threads);
    let mut spans: Vec<&mut [usize]> = Vec::with_capacity(root_chunks.len());
    {
        let mut rest: &mut [usize] = &mut perm;
        let mut consumed = 0usize;
        for rc in &root_chunks {
            let hi = root_pos[rc.end];
            let (span, tail) = rest.split_at_mut(hi - consumed);
            spans.push(span);
            rest = tail;
            consumed = hi;
        }
    }

    // Sort each span stably by the *permuted* coordinate tuple, then pack it
    // into partial CSF arrays. The span is already grouped by ascending root
    // with source order inside each root, so the stable span sort completes
    // the global stable lexicographic order.
    let columns: Vec<&[usize]> = mode_order.iter().map(|&m| coo.crd(m)).collect();
    let sort_pack = Span::enter("kernel.sort_pack");
    sort_pack.add_items(nnz as u64);
    let parent = sort_pack.handle();
    let partials: Vec<CsfTensor> = std::thread::scope(|s| {
        let handles: Vec<_> = spans
            .into_iter()
            .map(|span| {
                let columns = &columns;
                let vals = coo.values();
                let packed_shape = packed_shape.clone();
                s.spawn(move || {
                    let worker = Span::enter_under("chunk_sort_pack", parent);
                    worker.add_items(span.len() as u64);
                    {
                        let sort = Span::enter("kernel.radix_sort");
                        sort.add_items(span.len() as u64);
                        radix::sort_index_span_with(columns, span, strategy);
                    }
                    pack_sorted(
                        packed_shape,
                        |d, p| columns[d][span[p]],
                        |p| vals[span[p]],
                        span.len(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sort-pack worker panicked"))
            .collect()
    });
    drop(sort_pack);

    // Stitch: chunk boundaries are root-fiber boundaries, so the per-chunk
    // level arrays concatenate with offset fix-ups on the pos arrays.
    let stitch = Span::enter("kernel.stitch");
    stitch.add_items(partials.len() as u64);
    let mut crd: Vec<Vec<usize>> = vec![Vec::new(); order];
    let mut pos: Vec<Vec<usize>> = vec![vec![0usize]; order - 1];
    let mut vals: Vec<Value> = Vec::with_capacity(nnz);
    for part in &partials {
        for (l, level_crd) in crd.iter_mut().enumerate() {
            level_crd.extend_from_slice(part.crd(l));
        }
        for (l, level_pos) in pos.iter_mut().enumerate() {
            let offset = *level_pos.last().expect("pos arrays start with 0");
            level_pos.extend(part.pos(l)[1..].iter().map(|&p| p + offset));
        }
        vals.extend_from_slice(part.values());
    }
    drop(stitch);
    CsfTensor::from_parts(packed_shape, crd, pos, vals).expect("assembled CSF structure is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::example::figure1_matrix;

    fn shuffled_coo() -> CooMatrix {
        let mut coo = CooMatrix::from_triples(&figure1_matrix());
        let mut state = 7usize;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
        coo
    }

    #[test]
    fn parallel_coo_to_csr_is_bit_identical() {
        let coo = shuffled_coo();
        let reference = engine::to_csr(&coo);
        for threads in [1, 2, 3, 4, 9] {
            let parallel = coo_to_csr(&coo, threads);
            assert_eq!(parallel.pos(), reference.pos(), "{threads} threads");
            assert_eq!(parallel.crd(), reference.crd(), "{threads} threads");
            assert_eq!(parallel.values(), reference.values(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_csr_to_csc_is_bit_identical() {
        let csr = CsrMatrix::from_triples(&figure1_matrix());
        let reference = engine::to_csc(&csr);
        for threads in [1, 2, 4, 16] {
            let parallel = csr_to_csc(&csr, threads);
            assert_eq!(parallel.pos(), reference.pos());
            assert_eq!(parallel.crd(), reference.crd());
            assert_eq!(parallel.values(), reference.values());
        }
    }

    #[test]
    fn parallel_csr_to_bcsr_is_bit_identical() {
        let csr = CsrMatrix::from_triples(&figure1_matrix());
        for (br, bc) in [(2, 2), (2, 3), (3, 1)] {
            let reference = engine::to_bcsr(&csr, br, bc);
            for threads in [1, 2, 4] {
                let parallel = csr_to_bcsr(&csr, br, bc, threads);
                assert_eq!(parallel.pos(), reference.pos(), "{br}x{bc}/{threads}");
                assert_eq!(parallel.crd(), reference.crd(), "{br}x{bc}/{threads}");
                assert_eq!(parallel.values(), reference.values(), "{br}x{bc}/{threads}");
            }
        }
    }

    #[test]
    fn parallel_coo_to_csf_is_bit_identical() {
        let t = sparse_tensor::example::example3_tensor();
        let mut coo = CooTensor::from_triples(&t);
        let mut state = 3usize;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
        let reference = engine::to_csf(&coo);
        for threads in [1, 2, 3, 4, 9] {
            assert_eq!(coo_to_csf(&coo, threads), reference, "{threads} threads");
        }
        assert!(reference.to_triples().same_values(&t));
    }

    #[test]
    fn parallel_ordered_csf_kernel_is_bit_identical() {
        let t = sparse_tensor::example::example3_tensor();
        let mut coo = CooTensor::from_triples(&t);
        let mut state = 17usize;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
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
                    coo_to_csf_ordered(&coo, &order, threads),
                    reference,
                    "{order:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn strategy_pinned_csf_kernels_match_the_default() {
        let t = sparse_tensor::example::example3_tensor();
        let mut coo = CooTensor::from_triples(&t);
        let mut state = 11usize;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
        let strategies = [
            SortStrategy::Radix,
            SortStrategy::Comparison,
            SortStrategy::Counting,
        ];
        let reference = engine::to_csf(&coo);
        for strategy in strategies {
            for threads in [1, 2, 4] {
                assert_eq!(
                    coo_to_csf_ordered_with(&coo, &[0, 1, 2], threads, strategy),
                    reference,
                    "{strategy:?} at {threads} threads"
                );
            }
        }
        let order = [2, 0, 1];
        let reference = engine::to_csf_ordered(&coo, &order);
        for strategy in strategies {
            for threads in [1, 4] {
                assert_eq!(
                    coo_to_csf_ordered_with(&coo, &order, threads, strategy),
                    reference,
                    "{strategy:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_csf_kernel_handles_order_2_tensors() {
        let coo = CooTensor::from_triples(&figure1_matrix());
        let reference = engine::to_csf(&coo);
        for threads in [2, 4] {
            assert_eq!(coo_to_csf(&coo, threads), reference);
        }
    }

    #[test]
    fn empty_matrices_take_the_sequential_path() {
        let coo = CooMatrix::new(3, 5);
        assert_eq!(coo_to_csr(&coo, 4).nnz(), 0);
        let csr = engine::to_csr(&coo);
        assert_eq!(csr_to_csc(&csr, 4).nnz(), 0);
        assert_eq!(csr_to_bcsr(&csr, 2, 2, 4).num_blocks(), 0);
        let empty = CooTensor::new(sparse_tensor::Shape::tensor3(3, 3, 3));
        assert_eq!(coo_to_csf(&empty, 4).nnz(), 0);
    }
}
