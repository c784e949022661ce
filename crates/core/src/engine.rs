//! Monomorphised conversion kernels — the runtime analogue of the code the
//! paper's generator emits (Figure 6).
//!
//! Every kernel is generic over [`SourceMatrix`], so each (source, target)
//! pair instantiates a specialised routine at compile time, just as taco
//! specialises its generated C to the source format's level functions. The
//! kernels follow the three-phase decomposition of Section 3:
//!
//! 1. *coordinate remapping* is fused into the passes (e.g. `k = j - i` for
//!    DIA, the `#i` counter for ELL),
//! 2. *analysis* computes the target's attribute queries, using structural
//!    fast paths when the source provides them (`row_counts` on CSR reads the
//!    `pos` array), and
//! 3. *assembly* sizes the output in one shot from the query results and
//!    scatters nonzeros directly into place — never through a CSR temporary.
//!
//! There is one routine per target, and parallelism is a schedule on it, not
//! a second routine: [`to_csr`] and [`to_csc`] (one body, `to_compressed`)
//! take a thread count, ask the source for that many chunks
//! ([`SourceMatrix::chunks`]) and run analysis → merge → assembly over them
//! through [`two_phase`]. One chunk is the sequential routine, on the calling
//! thread; `T` chunks produce the same bytes. The kernel table passes the
//! service's thread count on the rows flagged `parallel` and 1 elsewhere.

use std::borrow::Cow;
use std::ops::Range;

use obs::Span;
use sparse_formats::{
    BcsrMatrix, CooMatrix, CooTensor, CscMatrix, CsfBuilder, CsfTensor, CsrMatrix, DiaMatrix,
    EllMatrix, JadMatrix, SkylineMatrix,
};
use sparse_tensor::stats::Dense;
use sparse_tensor::Value;

use crate::error::ConvertError;
use crate::partition::{merge_histograms_tree, two_phase, zeroed, SharedSlice};
use crate::source::{SourceMatrix, SourceTensor};
use crate::tunables::{PADDED_EXPANSION_MAX, TILE_SCATTER_MIN_NNZ, TRANSPOSE_TILE};

/// Converts any source to COO, preserving the source's iteration order.
pub fn to_coo<S: SourceMatrix>(src: &S) -> CooMatrix {
    let mut row = Vec::with_capacity(src.nnz());
    let mut col = Vec::with_capacity(src.nnz());
    let mut vals = Vec::with_capacity(src.nnz());
    src.for_each(|i, j, v| {
        row.push(i);
        col.push(j);
        vals.push(v);
    });
    CooMatrix::from_parts(src.rows(), src.cols(), row, col, vals)
        .expect("source coordinates are in bounds")
}

/// Converts any source to CSR (generalises Figure 6c) on up to `threads`
/// chunks of the source: a row-count analysis (answered from the source
/// structure when possible), edge insertion building `pos`, and a
/// coordinate-insertion pass scattering `crd` / `vals`. The output is
/// bit-identical at every thread count.
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked.
pub fn to_csr<S: SourceMatrix + Sync>(src: &S, threads: usize) -> Result<CsrMatrix, ConvertError> {
    let (pos, crd, vals) = to_compressed(
        src,
        src.rows(),
        S::row_counts,
        |i, j| (i, j),
        false,
        threads,
    )?;
    Ok(
        CsrMatrix::from_parts(src.rows(), src.cols(), pos, crd, vals)
            .expect("assembled CSR structure is valid"),
    )
}

/// Converts any source to CSC: [`to_csr`] with the roles of the two
/// coordinates swapped. A source that iterates row by row (CSR) is certain
/// to scatter across columns, so its large, wide chunks take the blocked
/// scatter.
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a worker thread panicked.
pub fn to_csc<S: SourceMatrix + Sync>(src: &S, threads: usize) -> Result<CscMatrix, ConvertError> {
    let transposes = src.rows_in_order();
    let (pos, crd, vals) = to_compressed(
        src,
        src.cols(),
        S::col_counts,
        |i, j| (j, i),
        transposes,
        threads,
    )?;
    Ok(
        CscMatrix::from_parts(src.rows(), src.cols(), pos, crd, vals)
            .expect("assembled CSC structure is valid"),
    )
}

/// The `pos`, `crd` and `vals` arrays of a compressed level under its parents.
type Compressed = (Vec<usize>, Vec<usize>, Vec<Value>);

/// The one routine behind [`to_csr`] and [`to_csc`]: assembles a dense
/// level of `parents` over a compressed level, where `key` splits a
/// nonzero's `(row, column)` into `(parent, child)`. It is the histogram
/// instance of [`two_phase`] over the source's own chunks:
///
/// 1. *analysis* — `select [parent] -> count(child)` per chunk. One chunk is
///    the whole source, so the source answers (`counts`: `pos` differencing
///    where the structure has it, Section 5.2); several count their own
///    nonzeros.
/// 2. *merge* — unsequenced edge insertion: the prefix sum of the summed
///    histograms is `pos`, and each chunk's cursors start after the entries
///    of the chunks before it — the positions one sequential pass would use.
/// 3. *assembly* — every chunk scatters its nonzeros through its cursors
///    (`yield_pos` + `insert_coord`, lines 12-25 of Figure 6c).
///
/// `transposes` says the source iterates grouped by the *child* coordinate,
/// i.e. every chunk scatters across the whole parent range. Such a chunk
/// takes the blocked write-combining scatter when the parent level is wider
/// than one tile and the chunk is large enough to pay for the bucketing pass;
/// any other source may already arrive in parent order, where the direct
/// scatter writes sequentially. Both strategies consume each parent's cursor
/// in source order, so the choice never shows in the output.
fn to_compressed<S: SourceMatrix + Sync>(
    src: &S,
    parents: usize,
    counts: impl Fn(&S) -> Vec<usize> + Sync,
    key: impl Fn(usize, usize) -> (usize, usize) + Sync,
    transposes: bool,
    threads: usize,
) -> Result<Compressed, ConvertError> {
    let nnz = src.nnz();
    // Sized first: an extent no allocation holds fails before any count.
    let pos = zeroed(parents + 1)?;
    let chunks = src.chunks(threads.max(1));
    let whole = chunks.len() == 1;
    let mut crd = vec![0usize; nnz];
    let mut vals = vec![0.0 as Value; nnz];
    let pos = {
        let crd_out = SharedSlice::new(&mut crd);
        let vals_out = SharedSlice::new(&mut vals);
        // Analysis: the chunk's histogram, and its sums over scatter tiles
        // (what the blocked strategy buckets by; their total is the chunk's
        // nonzero count).
        let analyse = |chunk: Range<usize>, span: &Span| {
            let hist = if whole {
                counts(src)
            } else {
                let mut hist = zeroed(parents)?;
                src.for_each_in(chunk, |i, j, _| hist[key(i, j).0] += 1);
                hist
            };
            let tiles: Vec<usize> = hist
                .chunks(TRANSPOSE_TILE)
                .map(|tile| tile.iter().sum())
                .collect();
            span.add_items(tiles.iter().sum::<usize>() as u64);
            Ok::<_, ConvertError>((hist, tiles))
        };
        let merge = |found: Vec<_>| {
            let (hists, tiles): (Vec<_>, Vec<_>) = found.into_iter().collect::<Result<_, _>>()?;
            let (pos, cursors) = merge_histograms_tree(hists, pos)?;
            Ok((pos, cursors.into_iter().zip(tiles).collect()))
        };
        let assemble = |_: &Vec<usize>,
                        chunk: Range<usize>,
                        (mut cursor, tiles): (Vec<usize>, Vec<usize>),
                        span: &Span| {
            let entries: usize = tiles.iter().sum();
            span.add_items(entries as u64);
            span.add_bytes((entries * (size_of::<usize>() + size_of::<Value>())) as u64);
            // SAFETY (both strategies): `dst` comes from this chunk's cursor
            // range, disjoint from every other chunk's by construction.
            let write = |dst, child, v| unsafe {
                crd_out.write(dst, child);
                vals_out.write(dst, v);
            };
            if transposes && tiles.len() > 1 && entries >= TILE_SCATTER_MIN_NNZ {
                blocked_scatter(src, chunk, &key, &tiles, &mut cursor, write);
            } else {
                src.for_each_in(chunk, |i, j, v| {
                    let (parent, child) = key(i, j);
                    let dst = cursor[parent];
                    cursor[parent] += 1;
                    write(dst, child, v);
                });
            }
        };
        two_phase(&chunks, "chunk_histogram", analyse, merge, assemble)?
    };
    Ok((pos, crd, vals))
}

/// The blocked write-combining scatter of one chunk. The direct scatter
/// sends every nonzero straight through a `parents`-wide cursor array, so
/// for levels wider than the cache each write lands on a cold line. This one
/// adds a cheap bucketing pass: the chunk's nonzeros are appended, in source
/// order, into per-tile buffers (`tiles`: the chunk's nonzero count per
/// `TRANSPOSE_TILE` parents, from its histogram), then drained tile by
/// tile through `cursor`, so the cursor window and the output region of one
/// tile both stay cache-resident. Both passes are stable and a parent never
/// straddles tiles, so each parent's cursor advances in exactly the order
/// the direct scatter would advance it.
fn blocked_scatter<S: SourceMatrix>(
    src: &S,
    chunk: Range<usize>,
    key: impl Fn(usize, usize) -> (usize, usize),
    tiles: &[usize],
    cursor: &mut [usize],
    mut write: impl FnMut(usize, usize, Value),
) {
    let mut entries = 0usize;
    let mut tile_cursor = Vec::with_capacity(tiles.len());
    for count in tiles {
        tile_cursor.push(entries);
        entries += count;
    }
    let mut bparent = vec![0usize; entries];
    let mut bchild = vec![0usize; entries];
    let mut bval = vec![0.0 as Value; entries];
    src.for_each_in(chunk, |i, j, v| {
        let (parent, child) = key(i, j);
        let slot = &mut tile_cursor[parent / TRANSPOSE_TILE];
        bparent[*slot] = parent;
        bchild[*slot] = child;
        bval[*slot] = v;
        *slot += 1;
    });
    for b in 0..entries {
        let parent = bparent[b];
        let dst = cursor[parent];
        cursor[parent] += 1;
        write(dst, bchild[b], bval[b]);
    }
}

/// Converts any tensor source to rank-`N` COO, preserving the source's
/// iteration order (the tensor counterpart of [`to_coo`]).
pub fn tensor_to_coo<S: SourceTensor>(src: &S) -> CooTensor {
    let shape = src.shape().clone();
    let order = shape.order();
    let mut crd: Vec<Vec<usize>> = vec![Vec::with_capacity(src.nnz()); order];
    let mut vals: Vec<Value> = Vec::with_capacity(src.nnz());
    src.for_each_coord(|coord, v| {
        for (d, &c) in coord.iter().enumerate() {
            crd[d].push(c as usize);
        }
        vals.push(v);
    });
    CooTensor::from_parts(shape, crd, vals).expect("source coordinates are in bounds")
}

/// Converts any tensor source to CSF by the paper's sort-then-pack recipe:
/// a stable lexicographic sort of the coordinates (the packed-key radix
/// sort; skipped when the source already iterates in order, e.g. CSF
/// itself) followed by a single packing pass that opens a fresh fiber at
/// the first level whose coordinate changes. Works at any order — order-2
/// sources yield DCSR. This is [`to_csf_ordered`] at the identity mode
/// order.
pub fn to_csf<S: SourceTensor>(src: &S) -> CsfTensor {
    let identity: Vec<usize> = (0..src.shape().order()).collect();
    to_csf_ordered(src, &identity)
}

/// Panics unless `mode_order` is a permutation of `0..order`.
pub(crate) fn assert_mode_order(mode_order: &[usize], order: usize) {
    assert_eq!(mode_order.len(), order, "one mode per dimension");
    assert!(
        crate::remap::is_permutation(mode_order),
        "mode order {mode_order:?} is not a permutation of 0..{order}"
    );
}

/// Converts any tensor source to CSF along a *mode order*: storage level `d`
/// of the fiber tree holds canonical mode `mode_order[d]`, so `&[2, 0, 1]`
/// packs an `(i,j,k)` tensor with mode `k` outermost. A source in order at
/// the identity packs as it iterates, any other runs the COO→CSF kernel at
/// one chunk ([`kernels`](crate::kernels)): the stable sort of the permuted
/// columns, which the dynamic driver performs on remapped coordinates too.
///
/// # Panics
///
/// Panics if `mode_order` is not a permutation of `0..src.shape().order()`.
pub fn to_csf_ordered<S: SourceTensor>(src: &S, mode_order: &[usize]) -> CsfTensor {
    assert_mode_order(mode_order, src.shape().order());
    if src.coords_in_order() && mode_order.iter().enumerate().all(|(d, &m)| d == m) {
        let mut builder = CsfBuilder::new(src.shape().clone(), src.nnz());
        src.for_each_coord(|coord, v| builder.push(|d| coord[d] as usize, v));
        return builder.finish();
    }
    let coo = tensor_to_coo(src);
    crate::kernels::coo_to_csf_ordered(&coo, mode_order, 1).expect("one chunk runs inline")
}

/// The `slots × width` slots of a padded output (DIA diagonals × rows, say)
/// for an input of `nnz` nonzeros whose extents sum to `dims`, or
/// [`ConvertError::PaddingLimit`] past [`PADDED_EXPANSION_MAX`] slots per
/// unit of `nnz + dims` (or past `usize::MAX`).
pub(crate) fn padded_slots(
    slots: usize,
    width: usize,
    nnz: usize,
    dims: usize,
) -> Result<usize, ConvertError> {
    let limit = PADDED_EXPANSION_MAX.saturating_mul(nnz.saturating_add(dims));
    match slots.checked_mul(width) {
        Some(slots) if slots <= limit => Ok(slots),
        slots => Err(ConvertError::PaddingLimit { slots, limit }),
    }
}

/// Converts any source to DIA (generalises Figure 6a to any source and to
/// rectangular matrices). The remapping `k = j - i` is fused into both the
/// analysis pass (building the nonzero-diagonal bit set) and the assembly
/// pass, so no remapped coordinates are materialised and no CSR temporary is
/// needed.
///
/// # Errors
///
/// Returns [`ConvertError::PaddingLimit`] past the padded-slot limit, and
/// [`ConvertError::Structure`] if the assembled arrays fail DIA validation
/// (continuing the library-wide panics-to-errors sweep; the engine's own
/// assembly never produces such arrays).
pub fn to_dia<S: SourceMatrix>(src: &S) -> Result<DiaMatrix, ConvertError> {
    let rows = src.rows();
    let cols = src.cols();
    let shift = rows as i64 - 1;
    // A 0×0 matrix has no diagonals (and `rows + cols - 1` would underflow).
    let ndiag_max = (rows + cols).saturating_sub(1);

    // Analysis: select [k] -> id() as nz over the remapped tensor.
    let mut nz = vec![false; ndiag_max];
    src.for_each(|i, j, _| {
        nz[(j as i64 - i as i64 + shift) as usize] = true;
    });
    // init_coords of the squeezed level: collect the offsets (perm)...
    let mut offsets = Vec::new();
    for (d, &present) in nz.iter().enumerate() {
        if present {
            offsets.push(d as i64 - shift);
        }
    }
    // ...and init_get_pos: the reverse permutation for random access.
    let k = offsets.len();
    let len = padded_slots(k, rows, src.nnz(), rows + cols)?;
    let mut rperm = vec![usize::MAX; ndiag_max];
    for (n, &off) in offsets.iter().enumerate() {
        rperm[(off + shift) as usize] = n;
    }
    // Assembly: single fused pass (calloc'd output).
    let mut vals = vec![0.0; len];
    src.for_each(|i, j, v| {
        let d = rperm[(j as i64 - i as i64 + shift) as usize];
        vals[d * rows + i] = v;
    });
    Ok(DiaMatrix::from_parts(rows, cols, offsets, vals)?)
}

/// Converts any source to ELL (generalises Figure 6b). The `#i` counter of
/// the ELL remapping is realised as a scalar when the source iterates rows in
/// order and as a counter array otherwise (Section 4.2).
///
/// # Errors
///
/// Returns [`ConvertError::PaddingLimit`] past the padded-slot limit.
pub fn to_ell<S: SourceMatrix>(src: &S) -> Result<EllMatrix, ConvertError> {
    let rows = src.rows();
    // Analysis: select [] -> max(k) as max_crd, computed through the
    // counter-to-histogram rewrite: a row histogram followed by a max. For
    // sources with a row pos array, row_counts avoids touching nonzeros.
    let counts = src.row_counts();
    let k = counts.iter().copied().max().unwrap_or(0);
    let len = padded_slots(k, rows, src.nnz(), rows + src.cols())?;
    let mut crd = vec![0usize; len];
    let mut vals = vec![0.0; len];
    if src.rows_in_order() {
        // Scalar counter, reset at each new row (Figure 6b lines 8-17).
        let mut current_row = usize::MAX;
        let mut count = 0usize;
        src.for_each(|i, j, v| {
            if i != current_row {
                current_row = i;
                count = 0;
            }
            let p = count * rows + i;
            count += 1;
            crd[p] = j;
            vals[p] = v;
        });
    } else {
        // Counter array indexed by row.
        let mut counter = vec![0usize; rows];
        src.for_each(|i, j, v| {
            let c = counter[i];
            counter[i] += 1;
            let p = c * rows + i;
            crd[p] = j;
            vals[p] = v;
        });
    }
    Ok(EllMatrix::from_parts(rows, src.cols(), k, crd, vals)?)
}

/// Converts any source to BCSR with the given block shape. The remapping
/// `(i,j) -> (i/M, j/N, i%M, j%N)` is fused into the `counting_order` by
/// block row and block column, whose entries are the blocks
/// (`select [bi] -> count(bj)`), each value landing at
/// `block × M·N + (i%M)·N + j%N`.
///
/// # Errors
///
/// Returns [`ConvertError::Allocation`] when the block rows' `pos` cannot
/// be allocated, [`ConvertError::PaddingLimit`] past the padded-slot limit.
///
/// # Panics
///
/// Panics if a block dimension is zero.
pub fn to_bcsr<S: SourceMatrix>(
    src: &S,
    block_rows: usize,
    block_cols: usize,
) -> Result<BcsrMatrix, ConvertError> {
    assert!(
        block_rows > 0 && block_cols > 0,
        "block sizes must be positive"
    );
    let (rows, cols) = (src.rows(), src.cols());
    let columns = src.columns(true);
    let (row, col, vals): (&[usize], &[usize], &[Value]) = (&columns.0, &columns.1, &columns.2);
    let (bi, bj) = (divided(row, block_rows), divided(col, block_cols));
    // Block rows are not ranked: their `pos` is the output's.
    let outer = Dense {
        idx: Cow::Borrowed(&bi),
        extent: rows.div_ceil(block_rows),
    };
    let inner = Dense::new(&bj, cols.div_ceil(block_cols));
    let entry = |p: usize| {
        let offset = (row[p] - bi[p] * block_rows) * block_cols + col[p] - bj[p] * block_cols;
        (bj[p], offset, vals[p])
    };
    let block = Some(block_rows * block_cols);
    let (pos, crd, values) = counting_order(&outer, &inner, block, rows + cols, entry)?;
    Ok(BcsrMatrix::from_parts(
        rows, cols, block_rows, block_cols, pos, crd, values,
    )?)
}

/// `keys` divided by `d`, in a (vectorised) shift loop of its own when `d`
/// is a power of two: a division per key costs more than the pass it feeds.
fn divided(keys: &[usize], d: usize) -> Vec<usize> {
    if d.is_power_of_two() {
        let shift = d.trailing_zeros();
        return keys.iter().map(|&k| k >> shift).collect();
    }
    keys.iter().map(|&k| k / d).collect()
}

/// Converts any matrix source to order-2 CSF along a mode order (`[0, 1]`
/// is DCSR). The `counting_order` by outer then inner mode is the stable
/// lexicographic order [`to_csf_ordered`] sorts into: its entries are the
/// inner level and the values, the outer keys' non-empty counts the outer
/// level.
///
/// # Errors
///
/// Returns [`ConvertError::Structure`] if CSF validation fails (it does not).
///
/// # Panics
///
/// Panics if `mode_order` is not a permutation of `0..2`.
pub fn matrix_to_csf<S: SourceMatrix>(
    src: &S,
    mode_order: &[usize],
) -> Result<CsfTensor, ConvertError> {
    assert_mode_order(mode_order, 2);
    let columns = src.columns(true);
    let modes = [(&*columns.0, src.rows()), (&*columns.1, src.cols())];
    let [(outer_crd, outer_dim), (inner_crd, inner_dim)] = [0, 1].map(|d| modes[mode_order[d]]);
    let outer = Dense::new(outer_crd, outer_dim);
    let inner = Dense::new(inner_crd, inner_dim);
    let entry = |p: usize| (inner_crd[p], 0, columns.2[p]);
    let (counts, inner_level, values) = counting_order(&outer, &inner, None, 0, entry)?;
    // The outer key each (possibly ranked) outer index stands for.
    let mut outer_key = vec![0; outer.extent];
    for (&k, &key) in outer.idx.iter().zip(outer_crd) {
        outer_key[k] = key;
    }
    let (mut outer_level, mut pos) = (vec![], vec![0]);
    for (k, group) in counts.windows(2).enumerate().filter(|(_, g)| g[1] > g[0]) {
        outer_level.push(outer_key[k]);
        pos.push(group[1]);
    }
    let shape = sparse_tensor::Shape::matrix(outer_dim, inner_dim);
    let levels = vec![outer_level, inner_level];
    Ok(CsfTensor::from_parts(shape, levels, vec![pos], values)?)
}

/// The one ordering behind BCSR and order-2 CSF from a matrix: two stable
/// counting passes over [`Dense`] key indices. `engine.by_inner` orders each
/// nonzero's `entry(p)` (inner key, slot offset, value) by inner key;
/// `engine.by_outer` counts per outer index the entries they open (each
/// nonzero, or with `block` slots the first of each (outer, inner) pair) and
/// lays them out in the stable `(outer, inner)` order a comparison sort
/// gives. `dims` bounds the padding ([`padded_slots`]).
fn counting_order(
    outer: &Dense,
    inner: &Dense,
    block: Option<usize>,
    dims: usize,
    entry: impl Fn(usize) -> (usize, usize, Value),
) -> Result<Compressed, ConvertError> {
    let (outer_idx, inner_idx): (&[usize], &[usize]) = (&outer.idx, &inner.idx);
    let (nnz, extent) = (outer_idx.len(), outer.extent);
    let by_inner = Span::enter("engine.by_inner");
    by_inner.add_items(nnz as u64);
    let mut cursor = zeroed(inner.extent + 1)?;
    inner_idx.iter().for_each(|&c| cursor[c + 1] += 1);
    (1..=inner.extent).for_each(|c| cursor[c] += cursor[c - 1]);
    // One record per nonzero: outer index, inner key, offset, value.
    let mut staged = vec![(0, 0, 0, 0.0); nnz];
    for (p, &c) in inner_idx.iter().enumerate() {
        let (key, offset, v) = entry(p);
        staged[cursor[c]] = (outer_idx[p], key, offset, v);
        cursor[c] += 1;
    }
    drop(by_inner);
    let by_outer = Span::enter("engine.by_outer");
    by_outer.add_items(nnz as u64);
    // A nonzero opens an entry unless its outer key's open block has the
    // same inner key (`last` remembers it).
    let (width, merges) = (block.unwrap_or(1), block.is_some());
    let opens = |last: &mut [usize], k: usize, key: usize| {
        !merges || std::mem::replace(&mut last[k], key) != key
    };
    let mut pos = zeroed(extent + 1)?;
    let mut last = vec![usize::MAX; if merges { extent } else { 0 }];
    for &(k, key, ..) in &staged {
        pos[k + 1] += usize::from(opens(&mut last, k, key));
    }
    (1..=extent).for_each(|k| pos[k] += pos[k - 1]);
    let mut cursor = pos.clone();
    let mut crd = vec![0usize; pos[extent]];
    let mut values = vec![0.0; padded_slots(pos[extent], width, nnz, dims)?];
    last.fill(usize::MAX);
    for &(k, key, offset, v) in &staged {
        if opens(&mut last, k, key) {
            crd[cursor[k]] = key;
            cursor[k] += 1;
        }
        values[(cursor[k] - 1) * width + offset] = v;
    }
    Ok((pos, crd, values))
}

/// Converts any (square) source's lower triangle to the skyline format.
///
/// # Errors
///
/// Returns [`ConvertError::Unsupported`] for non-square inputs.
pub fn to_skyline<S: SourceMatrix>(src: &S) -> Result<SkylineMatrix, ConvertError> {
    let n = src.rows();
    if n != src.cols() {
        return Err(ConvertError::Unsupported(format!(
            "skyline targets require a square matrix, got {}x{}",
            src.rows(),
            src.cols()
        )));
    }
    // Analysis: select [i] -> min(j) as w over the lower triangle.
    let mut first: Vec<usize> = (0..n).collect();
    src.for_each(|i, j, _| {
        if j <= i {
            first[i] = first[i].min(j);
        }
    });
    // Sequenced edge insertion over the banded level.
    let mut pos = vec![0usize; n + 1];
    for i in 0..n {
        pos[i + 1] = pos[i] + (i - first[i] + 1);
    }
    // Assembly: positions are computed arithmetically inside each row's run.
    let mut vals = vec![0.0; pos[n]];
    src.for_each(|i, j, v| {
        if j <= i {
            vals[pos[i] + (j - first[i])] = v;
        }
    });
    Ok(SkylineMatrix::from_parts(n, pos, first, vals)
        .expect("assembled skyline structure is valid"))
}

/// Converts any source to JAD (jagged diagonal storage). Shares the `#i`
/// counter remapping with ELL but additionally permutes rows by decreasing
/// nonzero count.
pub fn to_jad<S: SourceMatrix>(src: &S) -> JadMatrix {
    let rows = src.rows();
    // Analysis: row histogram, then the permutation by decreasing count.
    let counts = src.row_counts();
    let mut perm: Vec<usize> = (0..rows).collect();
    perm.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    let mut prank = vec![0usize; rows];
    for (r, &i) in perm.iter().enumerate() {
        prank[i] = r;
    }
    let max_len = counts.iter().copied().max().unwrap_or(0);
    // Edge insertion: jagged-diagonal lengths are the histogram of counts.
    let mut jd_pos = vec![0usize; max_len + 1];
    for k in 0..max_len {
        let len_k = counts.iter().filter(|&&c| c > k).count();
        jd_pos[k + 1] = jd_pos[k] + len_k;
    }
    // Assembly with a per-row counter array.
    let nnz = src.nnz();
    let mut crd = vec![0usize; nnz];
    let mut vals = vec![0.0; nnz];
    let mut counter = vec![0usize; rows];
    src.for_each(|i, j, v| {
        let k = counter[i];
        counter[i] += 1;
        let p = jd_pos[k] + prank[i];
        crd[p] = j;
        vals[p] = v;
    });
    JadMatrix::from_parts(rows, src.cols(), perm, jd_pos, crd, vals)
        .expect("assembled JAD structure is valid")
}

/// The value-preservation check used throughout the engine tests: SpMV with a
/// deterministic vector before and after conversion.
pub fn spmv_fingerprint<S: SourceMatrix>(src: &S) -> Vec<Value> {
    let x: Vec<Value> = (0..src.cols()).map(|j| 1.0 + (j % 7) as Value).collect();
    let mut y = vec![0.0; src.rows()];
    src.for_each(|i, j, v| y[i] += v * x[j]);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::DokMatrix;
    use sparse_tensor::example::figure1_matrix;
    use sparse_tensor::SparseTriples;

    fn example() -> SparseTriples {
        figure1_matrix()
    }

    #[test]
    fn csr_from_every_source_matches_reference() {
        let t = example();
        let reference = CsrMatrix::from_triples(&t);
        assert_eq!(
            to_csr(&CooMatrix::from_triples(&t), 1).unwrap().pos(),
            reference.pos()
        );
        assert_eq!(
            to_csr(&CooMatrix::from_triples(&t), 1).unwrap().crd(),
            reference.crd()
        );
        assert!(to_csr(&CscMatrix::from_triples(&t), 1)
            .unwrap()
            .to_triples()
            .same_values(&t));
        assert!(to_csr(&DiaMatrix::from_triples(&t), 1)
            .unwrap()
            .to_triples()
            .same_values(&t));
        assert!(to_csr(&EllMatrix::from_triples(&t), 1)
            .unwrap()
            .to_triples()
            .same_values(&t));
    }

    #[test]
    fn dia_from_every_source_matches_reference() {
        let t = example();
        let reference = DiaMatrix::from_triples(&t);
        for dia in [
            to_dia(&CooMatrix::from_triples(&t)).unwrap(),
            to_dia(&CsrMatrix::from_triples(&t)).unwrap(),
            to_dia(&CscMatrix::from_triples(&t)).unwrap(),
        ] {
            assert_eq!(dia.offsets(), reference.offsets());
            assert_eq!(dia.values(), reference.values());
        }
    }

    #[test]
    fn ell_from_every_source_preserves_values() {
        let t = example();
        let reference = EllMatrix::from_triples(&t);
        let from_csr = to_ell(&CsrMatrix::from_triples(&t)).unwrap();
        assert_eq!(from_csr.slices(), reference.slices());
        assert_eq!(from_csr.crd(), reference.crd());
        assert_eq!(from_csr.values(), reference.values());
        // CSC and COO sources reorder entries within a row but preserve the
        // matrix.
        assert!(to_ell(&CscMatrix::from_triples(&t))
            .unwrap()
            .to_triples()
            .same_values(&t));
        assert!(to_ell(&CooMatrix::from_triples(&t))
            .unwrap()
            .to_triples()
            .same_values(&t));
    }

    #[test]
    fn csc_and_coo_targets_preserve_values() {
        let t = example();
        assert!(to_csc(&CsrMatrix::from_triples(&t), 1)
            .unwrap()
            .to_triples()
            .same_values(&t));
        assert!(to_csc(&CooMatrix::from_triples(&t), 1)
            .unwrap()
            .to_triples()
            .same_values(&t));
        assert!(to_coo(&CsrMatrix::from_triples(&t))
            .to_triples()
            .same_values(&t));
        assert!(DokMatrix::from_triples(&t).to_triples().same_values(&t));
    }

    #[test]
    fn bcsr_jad_and_skyline_targets() {
        let t = example();
        let bcsr = to_bcsr(&CsrMatrix::from_triples(&t), 2, 3).unwrap();
        assert!(bcsr.to_triples().same_values(&t));
        let jad = to_jad(&CsrMatrix::from_triples(&t));
        assert!(jad.to_triples().same_values(&t));
        assert_eq!(jad.perm(), JadMatrix::from_triples(&t).perm());

        // Skyline needs a square matrix.
        assert!(to_skyline(&CsrMatrix::from_triples(&t)).is_err());
        let square = SparseTriples::from_matrix_entries(
            3,
            3,
            vec![(0, 0, 1.0), (1, 0, 2.0), (2, 2, 3.0), (0, 2, 9.0)],
        )
        .unwrap();
        let sky = to_skyline(&CsrMatrix::from_triples(&square)).unwrap();
        let lower =
            SparseTriples::from_matrix_entries(3, 3, vec![(0, 0, 1.0), (1, 0, 2.0), (2, 2, 3.0)])
                .unwrap();
        assert!(sky.to_triples().same_values(&lower));
    }

    #[test]
    fn unsorted_coo_sources_are_handled() {
        let t = example();
        let mut coo = CooMatrix::from_triples(&t);
        let mut state = 5usize;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
        assert!(to_csr(&coo, 1).unwrap().to_triples().same_values(&t));
        assert!(to_dia(&coo).unwrap().to_triples().same_values(&t));
        assert!(to_ell(&coo).unwrap().to_triples().same_values(&t));
        assert!(to_csc(&coo, 1).unwrap().to_triples().same_values(&t));
    }

    #[test]
    fn blocked_transpose_is_bit_identical_to_the_naive_scatter() {
        // Several column tiles wide. A COO source is never known to
        // transpose, so it always takes the direct scatter and, replaying
        // the CSR's order, is the reference. At the threshold one chunk
        // takes the blocked scatter and two take the direct one; at three
        // times the threshold all of 1, 2 and 3 chunks are blocked.
        let rows = 64;
        let cols = 3 * TRANSPOSE_TILE + 17;
        for nnz in [TILE_SCATTER_MIN_NNZ, 3 * TILE_SCATTER_MIN_NNZ] {
            let mut entries = Vec::new();
            let mut state = 0x1234_5678_9abc_def0u64;
            for i in 0..rows {
                for _ in 0..(nnz / rows + 2) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let j = (state as usize) % cols;
                    entries.push((i, j, (i + j) as f64));
                }
            }
            let t = SparseTriples::from_matrix_entries(rows, cols, entries).unwrap();
            let csr = CsrMatrix::from_triples(&t);
            assert!(csr.nnz() >= nnz, "input crosses the cutoff");
            let direct = to_csc(&to_coo(&csr), 1).unwrap();
            for threads in [1, 2, 3] {
                assert_eq!(to_csc(&csr, threads).unwrap(), direct, "{threads} chunks");
            }
        }
    }

    #[test]
    fn chunked_routines_are_bit_identical_at_every_thread_count() {
        // More threads than rows, and than nonzeros per row.
        let t = example();
        let mut coo = CooMatrix::from_triples(&t);
        let mut state = 7usize;
        coo.shuffle_with(|bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        });
        let csr = CsrMatrix::from_triples(&t);
        for threads in [2, 3, 4, 9, 16] {
            assert_eq!(
                to_csr(&coo, threads).unwrap(),
                to_csr(&coo, 1).unwrap(),
                "COO->CSR at {threads} threads"
            );
            assert_eq!(
                to_csc(&csr, threads).unwrap(),
                to_csc(&csr, 1).unwrap(),
                "CSR->CSC at {threads} threads"
            );
        }
        // The one-chunk output is the reference constructor's.
        assert_eq!(to_csc(&csr, 1).unwrap(), CscMatrix::from_triples(&t));
    }

    #[test]
    fn spmv_fingerprint_is_preserved_by_conversion() {
        let t = example();
        let csr = CsrMatrix::from_triples(&t);
        let expected = spmv_fingerprint(&csr);
        assert_eq!(spmv_fingerprint(&to_dia(&csr).unwrap()), expected);
        assert_eq!(spmv_fingerprint(&to_ell(&csr).unwrap()), expected);
        assert_eq!(spmv_fingerprint(&to_csc(&csr, 1).unwrap()), expected);
        assert_eq!(spmv_fingerprint(&to_bcsr(&csr, 2, 2).unwrap()), expected);
        assert_eq!(spmv_fingerprint(&to_jad(&csr)), expected);
    }

    #[test]
    fn csf_from_coo3_matches_the_reference_constructor() {
        let t = sparse_tensor::example::example3_tensor();
        let coo = CooTensor::from_triples(&t);
        let csf = to_csf(&coo);
        assert_eq!(csf, CsfTensor::from_triples(&t));
        assert!(csf.to_triples().same_values(&t));
        // CSF sources skip the sort and pack straight through.
        assert_eq!(to_csf(&csf), csf);
        // COO targets preserve the fiber-tree order of a CSF source.
        let back = tensor_to_coo(&csf);
        assert!(back.is_sorted());
        assert!(back.to_triples().same_values(&t));
        // COO→COO preserves source order.
        assert_eq!(tensor_to_coo(&coo), coo);
    }

    #[test]
    fn csf_from_order2_source_is_dcsr() {
        let t = example();
        let csr = CsrMatrix::from_triples(&t);
        let csf = matrix_to_csf(&csr, &[0, 1]).unwrap();
        assert_eq!(csf.order(), 2);
        assert_eq!(csf, CsfTensor::from_triples(&t));
        assert!(csf.to_triples().same_values(&t));
        // Columns outermost, from any source: the rank-N routine's tree.
        let by_column = to_csf_ordered(&CooTensor::from_triples(&t), &[1, 0]);
        assert_eq!(
            matrix_to_csf(&CscMatrix::from_triples(&t), &[1, 0]).unwrap(),
            by_column
        );
        assert_eq!(matrix_to_csf(&csr, &[1, 0]).unwrap(), by_column);
    }

    #[test]
    fn extents_no_allocation_holds_are_typed_errors() {
        // 2^60 rows (or columns) cannot be counted into: `pos` alone would
        // need 2^63 bytes, so the reservation fails whatever the machine.
        let huge = 1usize << 60;
        let tall =
            CooMatrix::from_parts(huge, 4, vec![3, huge - 1], vec![1, 2], vec![1.0, 2.0]).unwrap();
        let wide =
            CooMatrix::from_parts(4, huge, vec![1, 2], vec![3, huge - 1], vec![1.0, 2.0]).unwrap();
        let refused =
            |err: ConvertError| assert!(matches!(err, ConvertError::Allocation { .. }), "{err}");
        refused(to_csr(&tall, 1).unwrap_err());
        refused(to_csr(&tall, 2).unwrap_err());
        refused(to_bcsr(&tall, 4, 4).unwrap_err());
        refused(to_csc(&wide, 1).unwrap_err());
        assert!(to_csc(&wide, 2)
            .unwrap_err()
            .to_string()
            .contains("1152921504606846977 entries"));
        // Compressed outer levels hold only what is there, so DCSR and the
        // column-major fiber tree convert the same inputs.
        let dcsr = matrix_to_csf(&tall, &[0, 1]).unwrap();
        assert_eq!(
            (dcsr.crd(0), dcsr.pos(0), dcsr.crd(1)),
            (&[3, huge - 1][..], &[0, 1, 2][..], &[1, 2][..])
        );
        let by_column = matrix_to_csf(&tall, &[1, 0]).unwrap();
        assert_eq!(
            (by_column.crd(0), by_column.crd(1)),
            (&[1, 2][..], &[3, huge - 1][..])
        );
        assert_eq!(by_column.values(), &[1.0, 2.0]);
        let wide_dcsr = matrix_to_csf(&wide, &[0, 1]).unwrap();
        assert_eq!(
            (wide_dcsr.crd(0), wide_dcsr.crd(1)),
            (&[1, 2][..], &[3, huge - 1][..])
        );
        let wide_by_column = matrix_to_csf(&wide, &[1, 0]).unwrap();
        assert_eq!(
            (wide_by_column.crd(0), wide_by_column.crd(1)),
            (&[3, huge - 1][..], &[1, 2][..])
        );
        // Block columns past 16 × nnz are ranked, not allocated.
        let side = 1usize << 40;
        let wide = CooMatrix::from_parts(
            4,
            side,
            vec![3, 0, 1],
            vec![side - 1, 5, 6],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let bcsr = to_bcsr(&wide, 4, 4).unwrap();
        assert_eq!(
            (bcsr.pos(), bcsr.crd()),
            (&[0, 2][..], &[1, side / 4 - 1][..])
        );
        let mut values = vec![0.0; 32];
        (values[1], values[6], values[31]) = (2.0, 3.0, 1.0);
        assert_eq!(bcsr.values(), &values[..]);
    }

    #[test]
    fn empty_matrices_convert_cleanly() {
        let t = SparseTriples::new(sparse_tensor::Shape::matrix(5, 4));
        let coo = CooMatrix::from_triples(&t);
        assert_eq!(to_csr(&coo, 1).unwrap().nnz(), 0);
        assert_eq!(to_dia(&coo).unwrap().num_diagonals(), 0);
        assert_eq!(to_ell(&coo).unwrap().slices(), 0);
        assert_eq!(to_jad(&coo).num_jagged_diagonals(), 0);
        assert_eq!(to_bcsr(&coo, 2, 2).unwrap().num_blocks(), 0);
        assert_eq!(matrix_to_csf(&coo, &[0, 1]).unwrap().nnz(), 0);
    }

    #[test]
    fn padded_outputs_past_the_limit_are_typed_errors() {
        // 44 000 nonzeros down column 0 of a 2^20-row matrix lie on as many
        // diagonals, and the same count along row 0 is one row that long:
        // DIA and ELL would each ask for 44 000 × 2^20 slots, 369 GB of
        // values, where the input admits 1024 × (nnz + rows + cols).
        let (rows, k) = (1usize << 20, 44_000);
        let slots = Some(k * rows);
        assert!(k * rows * 8 > 369_000_000_000);
        let mut column = CooMatrix::new(rows, 1);
        (0..k).for_each(|i| column.push(i, 0, 1.0));
        let limit = PADDED_EXPANSION_MAX * (k + rows + 1);
        assert_eq!(
            to_dia(&column).unwrap_err(),
            ConvertError::PaddingLimit { slots, limit }
        );
        let mut row = CooMatrix::new(rows, k);
        (0..k).for_each(|j| row.push(0, j, 1.0));
        let limit = PADDED_EXPANSION_MAX * (k + rows + k);
        let err = to_ell(&row).unwrap_err();
        assert_eq!(err, ConvertError::PaddingLimit { slots, limit });
        assert!(err.to_string().contains("46137344000 slots"), "{err}");
        // Two nonzeros in two 2^16 × 2^16 blocks: 2^33 slots, through the
        // engine and the parallel CSR kernel alike.
        let side = 1usize << 16;
        let mut blocks = CooMatrix::new(2 * side, 2 * side);
        blocks.push(0, 0, 1.0);
        blocks.push(side, side, 2.0);
        let limit = PADDED_EXPANSION_MAX * (2 + 4 * side);
        let expected = ConvertError::PaddingLimit {
            slots: Some(2 * side * side),
            limit,
        };
        assert_eq!(to_bcsr(&blocks, side, side).unwrap_err(), expected);
        let csr = to_csr(&blocks, 1).unwrap();
        let parallel = crate::kernels::csr_to_bcsr(&csr, side, side, 2);
        assert_eq!(parallel.unwrap_err(), expected);
        // A product past usize::MAX is refused without a slot count.
        assert_eq!(
            padded_slots(usize::MAX, 2, 1, 1),
            Err(ConvertError::PaddingLimit {
                slots: None,
                limit: PADDED_EXPANSION_MAX * 2
            })
        );
    }
}
