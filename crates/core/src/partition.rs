//! The schedule of a conversion: how the chunks of a source run, and the
//! routine shape they run in.
//!
//! Every routine in this crate has the paper's one shape (§3, Figure 6):
//! *analysis* answers the target's attribute queries, a *merge* turns the
//! answers into `pos`, *assembly* scatters. With unsequenced edge insertion
//! (count, prefix-sum, fill) that shape splits over any partition of the
//! source, so parallelism is not a second routine but a choice of chunks.
//! [`two_phase`] is the shape, written once; with [`merge_histograms_tree`]
//! as its merge it is the common instance (per-chunk histograms → `pos` →
//! per-chunk scatter cursors). [`fork_join`] is the one place a chunked
//! phase meets threads.
//!
//! The chunks come from the source
//! ([`SourceMatrix::chunks`](crate::source::SourceMatrix::chunks)), cut by
//! [`even_chunks`] (a raw index space in equal pieces) or
//! [`balanced_chunks_by_pos`] (a compressed level's parents, so every piece
//! owns about the same number of *children* — what balances skewed inputs).
//! Either cut is safe because a parent's children never straddle a range of
//! parents (Chou et al. 2018's coordinate hierarchies).

use std::marker::PhantomData;
use std::ops::Range;

use obs::Span;

use crate::error::ConvertError;
use crate::tunables::TREE_MERGE_MIN_WORK;

/// A shared mutable slice for scatter phases whose write-index sets are
/// disjoint across workers.
///
/// Rust cannot prove disjointness of histogram-derived scatter indices, so
/// the kernels assert it by construction: every output position is derived
/// from a prefix sum over per-worker counts, which partitions the index
/// space. This wrapper only exposes raw writes; reads happen after the scope
/// joins.
pub(crate) struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: workers only write, through `write`, at indices the caller
// guarantees are distinct across threads; the borrow checker serialises all
// reads after the scope ends.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    pub(crate) fn new(data: &'a mut [T]) -> Self {
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
    pub(crate) unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx) = value;
    }
}

/// The threads this machine can run at once (`available_parallelism`,
/// falling back to one when it cannot be determined): the width of a
/// machine-sized worker pool and of a loader's parse.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work(item, span)` once per item and returns the results in item
/// order — the only function of the conversion stack that starts
/// threads for a fan-out.
///
/// The call is one `phase` span with one `worker` span per item under it, so
/// a trace has the same tree at one item and at many. A single item runs
/// inline on the calling thread (no spawn; a panic there unwinds the caller
/// like any sequential code). Several run on one scoped worker each; all are
/// joined, and if any panicked the other results are dropped and the caller
/// gets an error instead of unwinding.
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] naming `phase` when a worker
/// thread panicked.
pub fn fork_join<I, T, F>(
    phase: &'static str,
    worker: &'static str,
    items: Vec<I>,
    work: F,
) -> Result<Vec<T>, ConvertError>
where
    I: Send,
    T: Send,
    F: Fn(I, &Span) -> T + Sync,
{
    let phase_span = Span::enter(phase);
    let parent = phase_span.handle();
    let run = |item: I| {
        let span = Span::enter_under(worker, parent);
        work(item, &span)
    };
    if items.len() <= 1 {
        return Ok(items.into_iter().map(run).collect());
    }
    let run = &run;
    let joined: Vec<std::thread::Result<T>> = std::thread::scope(|s| {
        let workers: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || run(item)))
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    joined
        .into_iter()
        .map(|result| result.map_err(|_| ConvertError::WorkerPanicked { phase }))
        .collect()
}

/// The paper's routine shape over a partition of the source: every chunk is
/// analysed (`kernel.analysis`, one `analysis_worker` span per chunk), the
/// answers merge on the calling thread into the shared result plus one state
/// per chunk (`kernel.merge`), and every chunk assembles from both
/// (`kernel.scatter`, one `chunk_scatter` span per chunk). Returns the merged
/// result. One chunk runs all three steps on the calling thread, so a
/// routine written against this function is its own sequential version.
///
/// # Errors
///
/// Returns what `merge` returns, and [`ConvertError::WorkerPanicked`] when a
/// worker of either fan-out panicked.
pub fn two_phase<A, M, S>(
    chunks: &[Range<usize>],
    analysis_worker: &'static str,
    analyse: impl Fn(Range<usize>, &Span) -> A + Sync,
    merge: impl FnOnce(Vec<A>) -> Result<(M, Vec<S>), ConvertError>,
    assemble: impl Fn(&M, Range<usize>, S, &Span) + Sync,
) -> Result<M, ConvertError>
where
    A: Send,
    M: Sync,
    S: Send,
{
    let answers = fork_join("kernel.analysis", analysis_worker, chunks.to_vec(), analyse)?;
    let (merged, states) = {
        let _span = Span::enter("kernel.merge");
        merge(answers)?
    };
    assert_eq!(states.len(), chunks.len(), "one assembly state per chunk");
    let tasks = chunks.iter().cloned().zip(states).collect();
    fork_join(
        "kernel.scatter",
        "chunk_scatter",
        tasks,
        |(chunk, state), span| assemble(&merged, chunk, state, span),
    )?;
    Ok(merged)
}

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges of nearly
/// equal length (the first `n % parts` ranges are one element longer).
/// Returns an empty vector when `n == 0`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn even_chunks(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "at least one chunk");
    let parts = parts.min(n);
    let mut out = Vec::with_capacity(parts);
    if n == 0 {
        return out;
    }
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    for c in 0..parts {
        let len = base + usize::from(c < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `buf`, front to back, into consecutive spans of the given lengths:
/// how a chunked routine hands each chunk the part of an output it owns.
pub(crate) fn split_spans<T>(
    mut buf: &mut [T],
    lens: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let spans = lens.into_iter().map(|len| {
        let (span, rest) = std::mem::take(&mut buf).split_at_mut(len);
        buf = rest;
        span
    });
    spans.collect()
}

/// `len` zeroed counters (sized by a level's extent), or
/// [`ConvertError::Allocation`] if they cannot be had.
pub(crate) fn zeroed(len: usize) -> Result<Vec<usize>, ConvertError> {
    let mut counters = Vec::new();
    let refused = |_| ConvertError::Allocation { len };
    counters.try_reserve_exact(len).map_err(refused)?;
    counters.resize(len, 0);
    Ok(counters)
}

/// Merges per-chunk histograms over the outer level into the global
/// prefix-sum `pos` array, and turns every histogram, in place, into its
/// chunk's scatter cursors: chunk `c`'s cursor for parent `i` starts after
/// all of `i`'s entries owned by chunks before `c`, which is exactly the
/// position a sequential pass would have used — the property that makes a
/// chunked histogram-scatter routine bit-identical at every chunk count. One
/// histogram becomes a copy of `pos`, which is the sequential routine's
/// analysis.
///
/// `pos` holds `parents + 1` zeros, `parents` being the extent of the outer
/// level; every histogram must have that length.
pub fn merge_histograms(hists: &mut [Vec<usize>], pos: &mut [usize]) {
    let parents = pos.len() - 1;
    for i in 0..parents {
        let mut running = pos[i];
        for hist in hists.iter_mut() {
            let count = hist[i];
            hist[i] = running;
            running += count;
        }
        pos[i + 1] = running;
    }
}

/// Shared cursor columns for the parallel cursor construction: workers write
/// disjoint *parent* ranges of every chunk's cursor array.
struct SharedCursorColumns(Vec<*mut usize>);

// SAFETY: each worker writes only parent indices inside its own disjoint
// range (from `even_chunks` over the parents); reads happen after the scope
// joins.
unsafe impl Sync for SharedCursorColumns {}

/// [`merge_histograms`] as the `merge` step of [`two_phase`]: consumes the
/// histograms, fills `pos` (`parents + 1` zeros) and returns it plus each
/// chunk's scatter cursors. When the work covers the thread spawns
/// (`TREE_MERGE_MIN_WORK`) the reduction itself is chunked: per-chunk totals
/// are combined by a pairwise *tree* reduction (log-depth instead of one
/// serial sweep per chunk) and the cursors are filled over disjoint parent
/// ranges, one worker per histogram.
///
/// Bit-identical to [`merge_histograms`]: integer addition is associative,
/// so the tree-reduced totals, the prefix-summed `pos`, and the cursors all
/// come out exactly equal to the serial merge's (pinned by unit test).
///
/// # Errors
///
/// Returns [`ConvertError::WorkerPanicked`] when a merge worker panicked,
/// [`ConvertError::Allocation`] when cursor arrays cannot be allocated.
pub fn merge_histograms_tree(
    mut hists: Vec<Vec<usize>>,
    mut pos: Vec<usize>,
) -> Result<(Vec<usize>, Vec<Vec<usize>>), ConvertError> {
    let parents = pos.len() - 1;
    if hists.len() < 2 || hists.len().saturating_mul(parents) < TREE_MERGE_MIN_WORK {
        merge_histograms(&mut hists, &mut pos);
        return Ok((pos, hists));
    }
    tree_merge(&hists, pos)
}

fn tree_merge(
    hists: &[Vec<usize>],
    mut pos: Vec<usize>,
) -> Result<(Vec<usize>, Vec<Vec<usize>>), ConvertError> {
    let parents = pos.len() - 1;
    // Phase 1: pairwise tree reduction to the global totals. Every level
    // halves the histogram count; pairs reduce concurrently.
    let reduce_level = |level: &[Vec<usize>]| {
        let pairs = level.chunks(2).collect();
        fork_join("merge.reduce", "pair_reduce", pairs, |pair, _| match pair {
            [only] => only.clone(),
            [a, b] => a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
            _ => unreachable!("chunks(2) yields one- or two-element slices"),
        })
    };
    let mut level: Vec<Vec<usize>> = reduce_level(hists)?;
    while level.len() > 1 {
        level = reduce_level(&level)?;
    }
    let totals = level.pop().expect("reduction leaves one histogram");
    for i in 0..parents {
        pos[i + 1] = pos[i] + totals[i];
    }
    // Phase 2: cursors, over disjoint parent ranges. Worker `w` owns a range
    // of parents and fills that range of *every* chunk's cursor array — the
    // same running sums the serial merge computes, restarted from `pos` at
    // each parent.
    let mut cursors: Vec<Vec<usize>> = (0..hists.len())
        .map(|_| zeroed(parents))
        .collect::<Result<_, _>>()?;
    let columns = SharedCursorColumns(cursors.iter_mut().map(|c| c.as_mut_ptr()).collect());
    let columns = &columns;
    let ranges = even_chunks(parents, hists.len());
    fork_join("merge.cursors", "parent_range", ranges, |r, _| {
        for i in r {
            let mut running = pos[i];
            for (c, hist) in hists.iter().enumerate() {
                // SAFETY: parent `i` lies in this worker's disjoint
                // range; each (chunk, parent) cell is written once.
                unsafe { *columns.0[c].add(i) = running };
                running += hist[i];
            }
        }
    })?;
    Ok((pos, cursors))
}

/// Splits the parents of a compressed level (`pos.len() - 1` of them) into at
/// most `parts` contiguous ranges holding roughly `pos[last] / parts`
/// children each. Every parent lands in exactly one range; empty trailing
/// ranges are dropped.
///
/// # Panics
///
/// Panics if `parts == 0` or `pos` is empty (a `pos` array always has at
/// least the leading 0).
pub fn balanced_chunks_by_pos(pos: &[usize], parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "at least one chunk");
    assert!(!pos.is_empty(), "pos arrays start with 0");
    let parents = pos.len() - 1;
    let total = pos[parents];
    if parents == 0 {
        return Vec::new();
    }
    if total == 0 {
        return even_chunks(parents, parts);
    }
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for c in 0..parts {
        if start == parents {
            break;
        }
        // The last chunk takes everything left; earlier chunks cut at the
        // parent boundary whose cumulative child count is *nearest* the next
        // target. (Always rounding down — the old `binary_search` behaviour —
        // starves early chunks whenever a heavy parent straddles the target,
        // and is not even deterministic when empty parents duplicate `pos`
        // values; `partition_point` plus a two-candidate comparison is both.)
        let mut end = if c + 1 == parts {
            parents
        } else {
            let target = (total * (c + 1)) / parts;
            let hi = pos.partition_point(|&x| x < target);
            if hi == 0 || pos[hi] - target <= target - pos[hi - 1] {
                hi
            } else {
                hi - 1
            }
        };
        end = end.clamp(start + 1, parents);
        out.push(start..end);
        start = end;
    }
    if start < parents {
        // Rounding left parents unassigned: give them to the last chunk.
        let last = out.pop().unwrap_or(start..start);
        out.push(last.start..parents);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(chunks: &[Range<usize>], n: usize) {
        let mut next = 0;
        for r in chunks {
            assert_eq!(r.start, next, "contiguous");
            assert!(r.end > r.start, "non-empty");
            next = r.end;
        }
        assert_eq!(next, n, "covers 0..{n}");
    }

    #[test]
    fn even_chunks_cover_the_space() {
        covers(&even_chunks(10, 3), 10);
        covers(&even_chunks(3, 8), 3);
        covers(&even_chunks(1, 1), 1);
        assert!(even_chunks(0, 4).is_empty());
        assert_eq!(even_chunks(10, 3), vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn fork_join_returns_results_in_item_order() {
        let squares = fork_join("test.phase", "test.worker", vec![3usize, 1, 2], |n, _| {
            n * n
        });
        assert_eq!(squares, Ok(vec![9, 1, 4]));
        let none: Result<Vec<usize>, _> =
            fork_join("test.phase", "test.worker", Vec::<usize>::new(), |n, _| n);
        assert_eq!(none, Ok(Vec::new()));
    }

    #[test]
    fn a_panicking_worker_becomes_a_typed_error() {
        // Chunk 1 of 3 panics: the call returns an error naming the phase,
        // the other chunks' results are dropped with it, and this thread
        // does not unwind (the assertions below run).
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let result = fork_join("test.phase", "test.worker", vec![0usize, 1, 2], |n, _| {
            if n == 1 {
                panic!("worker {n} dies (expected by this test)");
            }
            finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            n
        });
        assert_eq!(
            result,
            Err(ConvertError::WorkerPanicked {
                phase: "test.phase"
            })
        );
        // Every worker was joined before the error came back.
        assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn balanced_chunks_follow_the_child_distribution() {
        // One heavy parent followed by light ones.
        let pos = [0usize, 90, 92, 94, 96, 98, 100];
        let chunks = balanced_chunks_by_pos(&pos, 2);
        covers(&chunks, 6);
        // The heavy parent sits alone; the rest go to the second chunk.
        assert_eq!(chunks[0], 0..1);

        let uniform = [0usize, 10, 20, 30, 40];
        let chunks = balanced_chunks_by_pos(&uniform, 2);
        covers(&chunks, 4);
        assert_eq!(chunks, vec![0..2, 2..4]);
    }

    #[test]
    fn balanced_chunks_round_to_the_nearest_boundary() {
        // Parents with 6, 6, 1, 7 children: the halfway target (10) is
        // nearer the 12-boundary than the 6-boundary, so the first chunk
        // takes two parents (12 vs 8) instead of rounding down to one
        // (6 vs 14).
        let pos = [0usize, 6, 12, 13, 20];
        assert_eq!(balanced_chunks_by_pos(&pos, 2), vec![0..2, 2..4]);
        // Duplicate pos values (empty parents) stay deterministic and cover
        // the space.
        let pos = [0usize, 0, 0, 5, 5, 5, 10];
        let chunks = balanced_chunks_by_pos(&pos, 3);
        covers(&chunks, 6);
        assert_eq!(chunks, vec![0..3, 3..5, 5..6]);
    }

    #[test]
    fn merged_cursors_encode_sequential_positions() {
        // Two chunks over three parents: chunk 0 saw [2, 0, 1], chunk 1 saw
        // [1, 2, 0]; the merged pos is the total histogram's prefix sum and
        // chunk 1's cursors start where chunk 0's entries end.
        let merged = |hists: &mut [Vec<usize>]| {
            let mut pos = vec![0; 4];
            merge_histograms(hists, &mut pos);
            pos
        };
        let mut hists = vec![vec![2, 0, 1], vec![1, 2, 0]];
        assert_eq!(merged(&mut hists), vec![0, 3, 5, 6]);
        assert_eq!(hists, vec![vec![0, 3, 5], vec![2, 3, 6]]);
        // One histogram: pos and a copy of it. None: an all-zero pos.
        let mut one = vec![vec![2, 0, 1]];
        assert_eq!(merged(&mut one), vec![0, 2, 2, 3]);
        assert_eq!(one, vec![vec![0, 2, 2]]);
        assert_eq!(merged(&mut []), vec![0; 4]);
    }

    #[test]
    fn tree_merge_matches_the_serial_merge() {
        // Deterministic pseudo-random histograms big enough to clear the
        // tree cutoff (chunks x 8192 parents >= TREE_MERGE_MIN_WORK from four
        // chunks up), over even and odd chunk counts.
        let parents = 8192;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 7) as usize
        };
        for chunks in [1, 2, 3, 4, 5, 8] {
            let hists: Vec<Vec<usize>> = (0..chunks)
                .map(|_| (0..parents).map(|_| next()).collect())
                .collect();
            let mut cursors = hists.clone();
            let mut pos = vec![0; parents + 1];
            merge_histograms(&mut cursors, &mut pos);
            let serial = (pos, cursors);
            let zeros = || vec![0; parents + 1];
            assert_eq!(tree_merge(&hists, zeros()).unwrap(), serial);
            assert_eq!(merge_histograms_tree(hists, zeros()).unwrap(), serial);
        }
    }

    #[test]
    fn balanced_chunks_handle_degenerate_inputs() {
        assert!(balanced_chunks_by_pos(&[0], 4).is_empty());
        covers(&balanced_chunks_by_pos(&[0, 0, 0, 0], 2), 3);
        covers(&balanced_chunks_by_pos(&[0, 5], 4), 1);
        // More parts than parents.
        covers(&balanced_chunks_by_pos(&[0, 1, 2], 8), 2);
    }
}
