//! Outer-range partitioning for the parallel kernels.
//!
//! The coordinate-hierarchy abstraction (Chou et al. 2018) stores a tensor
//! level by level, so any contiguous range of outer-level positions (rows,
//! tensor root coordinates, block rows, or raw nonzero indices) can be
//! analysed and assembled independently of every other range. The helpers
//! here carve the outer dimension into such ranges, shared by the matrix
//! kernels (rows) and the tensor kernels (root fibers): [`even_chunks`]
//! splits a raw index space into equally sized pieces, and
//! [`balanced_chunks_by_pos`] splits a
//! compressed level's parents so every piece owns roughly the same number
//! of *children* (nonzeros), which is what actually balances work for
//! skewed inputs. [`merge_histograms`] is the prefix-sum merge every
//! histogram-scatter kernel uses to turn per-chunk counts into a global
//! `pos` array plus per-chunk scatter cursors.

use std::ops::Range;

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

/// Merges per-chunk histograms over the outer level into the global
/// prefix-sum `pos` array plus one scatter-cursor array per chunk: chunk
/// `c`'s cursor for parent `i` starts after all of `i`'s entries owned by
/// chunks before `c`, which is exactly the position a sequential pass would
/// have used — the property that makes histogram-scatter kernels
/// bit-identical to their sequential counterparts.
///
/// `parents` is the extent of the outer level; every histogram must have
/// that length.
pub fn merge_histograms(hists: &[Vec<usize>], parents: usize) -> (Vec<usize>, Vec<Vec<usize>>) {
    let mut pos = vec![0usize; parents + 1];
    for i in 0..parents {
        let total: usize = hists.iter().map(|h| h[i]).sum();
        pos[i + 1] = pos[i] + total;
    }
    let mut cursors = Vec::with_capacity(hists.len());
    let mut running: Vec<usize> = pos[..parents].to_vec();
    for hist in hists {
        cursors.push(running.clone());
        for i in 0..parents {
            running[i] += hist[i];
        }
    }
    (pos, cursors)
}

/// Chunk-count × parent-count product below which the serial
/// [`merge_histograms`] wins: thread spawns cost more than the additions
/// they parallelise.
const TREE_MERGE_MIN_WORK: usize = 1 << 15;

/// Shared cursor columns for the parallel cursor construction: workers write
/// disjoint *parent* ranges of every chunk's cursor array.
struct SharedCursorColumns(Vec<*mut usize>);

// SAFETY: each worker writes only parent indices inside its own disjoint
// range (from `even_chunks` over the parents); reads happen after the scope
// joins.
unsafe impl Sync for SharedCursorColumns {}

/// [`merge_histograms`] with the reduction parallelised: per-chunk totals
/// are combined by a pairwise *tree* reduction (log-depth instead of one
/// serial sweep per chunk) and the scatter cursors are filled in parallel
/// over disjoint parent ranges. Falls back to the serial merge when the
/// work would not cover the thread spawns.
///
/// Bit-identical to [`merge_histograms`]: integer addition is associative,
/// so the tree-reduced totals, the prefix-summed `pos`, and the cursors all
/// come out exactly equal to the serial merge's (the runtime's kernel tests
/// rely on it).
pub fn merge_histograms_tree(
    hists: &[Vec<usize>],
    parents: usize,
    threads: usize,
) -> (Vec<usize>, Vec<Vec<usize>>) {
    if threads <= 1 || hists.len() < 2 || hists.len().saturating_mul(parents) < TREE_MERGE_MIN_WORK
    {
        return merge_histograms(hists, parents);
    }
    // Phase 1: pairwise tree reduction to the global totals. Every level
    // halves the histogram count; pairs reduce concurrently.
    let reduce_level = |level: &[Vec<usize>]| -> Vec<Vec<usize>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = level
                .chunks(2)
                .map(|pair| {
                    s.spawn(move || match pair {
                        [only] => only.clone(),
                        [a, b] => a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
                        _ => unreachable!("chunks(2) yields one- or two-element slices"),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    let mut level = reduce_level(hists);
    while level.len() > 1 {
        level = reduce_level(&level);
    }
    let totals = level.pop().expect("reduction leaves one histogram");
    let mut pos = vec![0usize; parents + 1];
    for i in 0..parents {
        pos[i + 1] = pos[i] + totals[i];
    }
    // Phase 2: cursors, parallel over disjoint parent ranges. Worker `w`
    // owns a range of parents and fills that range of *every* chunk's
    // cursor array — the same running sums the serial merge computes,
    // restarted from `pos` at each parent.
    let mut cursors: Vec<Vec<usize>> = (0..hists.len()).map(|_| vec![0usize; parents]).collect();
    let columns = SharedCursorColumns(cursors.iter_mut().map(|c| c.as_mut_ptr()).collect());
    let ranges = even_chunks(parents, threads);
    std::thread::scope(|s| {
        for r in ranges {
            let columns = &columns;
            let pos = &pos;
            s.spawn(move || {
                for i in r {
                    let mut running = pos[i];
                    for (c, hist) in hists.iter().enumerate() {
                        // SAFETY: parent `i` lies in this worker's disjoint
                        // range; each (chunk, parent) cell is written once.
                        unsafe { *columns.0[c].add(i) = running };
                        running += hist[i];
                    }
                }
            });
        }
    });
    (pos, cursors)
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
        let hists = vec![vec![2, 0, 1], vec![1, 2, 0]];
        let (pos, cursors) = merge_histograms(&hists, 3);
        assert_eq!(pos, vec![0, 3, 5, 6]);
        assert_eq!(cursors[0], vec![0, 3, 5]);
        assert_eq!(cursors[1], vec![2, 3, 6]);
    }

    #[test]
    fn tree_merge_matches_the_serial_merge() {
        // Deterministic pseudo-random histograms big enough to clear the
        // tree cutoff (5 chunks x 8192 parents > TREE_MERGE_MIN_WORK).
        let parents = 8192;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 7) as usize
        };
        let hists: Vec<Vec<usize>> = (0..5)
            .map(|_| (0..parents).map(|_| next()).collect())
            .collect();
        let serial = merge_histograms(&hists, parents);
        for threads in [2, 3, 4] {
            assert_eq!(merge_histograms_tree(&hists, parents, threads), serial);
        }
        // Below the cutoff (and at one thread) it degrades to the serial
        // merge outright.
        let small = vec![vec![2, 0, 1], vec![1, 2, 0]];
        assert_eq!(
            merge_histograms_tree(&small, 3, 4),
            merge_histograms(&small, 3)
        );
        assert_eq!(
            merge_histograms_tree(&hists, parents, 1),
            merge_histograms(&hists, parents)
        );
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
