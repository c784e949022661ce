//! The external merge sort over sorted runs of packed records.
//!
//! Every nonzero travels as one record, `(key word, value bits)`, packed by
//! [`RecordLayout`] into a `u64` or `u128` word fixed once per sorter.
//! [`ExternalSorter`] accepts pre-sorted [`MemRun`]s (usually built from
//! [`CoordBlock`]s, possibly in parallel by the caller) and buffers them until
//! the [`MemoryBudget`]'s threshold fills; the buffer is then k-way-merged
//! into a single [`SpilledRun`] on disk.
//! [`ExternalSorter::drain`] merges all runs — purely in memory when nothing
//! spilled (the fast case), otherwise across the spill files with small,
//! budget-capped read buffers — and emits records in globally sorted order.
//!
//! **Stability.** Records compare on their key prefix `key >> tail`: the
//! sort-key dimensions, lexicographically. Equal prefixes must come out in
//! arrival order to match the in-memory engine's stable sorts. Three facts
//! guarantee it: every run is stably radix-sorted on the prefix bits, runs
//! enter the buffer in arrival order and each spill drains the *whole*
//! buffer (so spill files are totally ordered by arrival too), and every
//! merge breaks prefix ties by run index.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::mem::size_of;
use std::path::PathBuf;

use obs::Span;
use sparse_conv::ConvertError;
use sparse_formats::radix::{self, KeyLayout, PackedKey};
use sparse_tensor::Shape;

use crate::block::CoordBlock;
use crate::budget::{MemTracker, MemoryBudget};
use crate::run::{RunWriter, SpilledRun};
use crate::stats::StreamStats;

/// Tuning knobs of an [`ExternalSorter`].
#[derive(Debug, Clone, Default)]
pub struct SorterConfig {
    /// Working-set budget; the sort buffer spills at
    /// [`MemoryBudget::buffer_threshold`].
    pub budget: MemoryBudget,
    /// Directory for spill runs (the system temp directory when `None`).
    pub spill_dir: Option<PathBuf>,
}

/// Key-word width of a record for tensors of `shape`: the bits of every
/// dimension's largest coordinate, summed. Up to 64 bits a sorter runs on
/// `u64` words, up to 128 on `u128`.
pub fn record_bits(shape: &Shape) -> u32 {
    let bits = |d| usize::BITS - shape.dim(d).saturating_sub(1).leading_zeros();
    (0..shape.order()).map(bits).sum()
}

/// Where a nonzero's coordinates sit in its record's key word: the sort-key
/// dimensions in key order in the high bits, then the other dimensions
/// ascending in the low `tail` bits, each as wide as its extent needs.
#[derive(Debug, Clone)]
pub struct RecordLayout {
    keys: KeyLayout,
    /// The dimension each level of `keys` holds.
    dims: Vec<usize>,
    tail: u32,
}

impl RecordLayout {
    /// The layout of records for `shape` sorted by `key`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when `key` is empty, repeats
    /// a dimension, or names one beyond the shape's order.
    pub fn new(shape: &Shape, key: &[usize]) -> Result<Self, ConvertError> {
        let order = shape.order();
        let mut seen = vec![false; order];
        let is_set = key
            .iter()
            .all(|&d| d < order && !std::mem::replace(&mut seen[d], true));
        if key.is_empty() || !is_set {
            return Err(ConvertError::UnsupportedSpec {
                reason: format!(
                    "streaming sort key {key:?} is not a nonempty set of dimensions < {order}"
                ),
            });
        }
        let dims: Vec<usize> = key
            .iter()
            .copied()
            .chain((0..order).filter(|&d| !seen[d]))
            .collect();
        let maxima: Vec<usize> = dims
            .iter()
            .map(|&d| shape.dim(d).saturating_sub(1))
            .collect();
        Ok(RecordLayout {
            keys: KeyLayout::new(&maxima),
            tail: KeyLayout::new(&maxima[key.len()..]).bits(),
            dims,
        })
    }

    /// The key word's layout: level `l` holds the `l`-th sort-key dimension,
    /// then the other dimensions ascending.
    pub fn keys(&self) -> &KeyLayout {
        &self.keys
    }
}

/// One stably sorted run of records held in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRun<K> {
    records: Vec<(K, u64)>,
}

impl<K: PackedKey> MemRun<K> {
    /// Builds a run from a block: one record per nonzero under `layout`,
    /// stably sorted by the key prefix with [`radix::sort_pairs`] unless one
    /// linear scan finds them in order already.
    pub fn from_block(block: &CoordBlock, layout: &RecordLayout) -> MemRun<K> {
        let values = block.values();
        let mut records: Vec<(K, u64)> = (0..block.nnz())
            .map(|p| {
                (
                    layout.keys.key(|l| block.crd(layout.dims[l])[p]),
                    values[p].to_bits(),
                )
            })
            .collect();
        let tail = layout.tail;
        if !records
            .windows(2)
            .all(|w| w[0].0.high(tail) <= w[1].0.high(tail))
        {
            let mut scratch = vec![(K::default(), 0); records.len()];
            radix::sort_pairs(&mut records, &mut scratch, tail, layout.keys.bits());
        }
        MemRun { records }
    }

    /// Tracked bytes this run occupies: its records.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.records.as_slice())
    }
}

/// K-way-merges sorted runs, emitting their records in key-prefix order,
/// ties to the earlier run; returns the count. Heap entries are `(prefix,
/// run index, record)`: the index is unique, so records are never compared.
fn merge<K, R, F>(mut runs: Vec<R>, tail: u32, emit: &mut F) -> Result<u64, ConvertError>
where
    K: PackedKey,
    R: Iterator<Item = Result<(K, u64), ConvertError>>,
    F: FnMut(K, u64) -> Result<(), ConvertError>,
{
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter_mut().enumerate() {
        if let Some(record) = run.next().transpose()? {
            heap.push(Reverse((record.0.high(tail), i, record)));
        }
    }
    let mut merged = 0;
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((_, i, (key, bits))) = *top;
        emit(key, bits)?;
        merged += 1;
        match runs[i].next().transpose()? {
            Some(record) => *top = Reverse((record.0.high(tail), i, record)),
            None => drop(PeekMut::pop(top)),
        }
    }
    Ok(merged)
}

/// The external merge sort: buffers sorted runs of `K`-word records under a
/// memory budget, spills to disk when the buffer fills, and drains
/// everything back in globally sorted order.
#[derive(Debug)]
pub struct ExternalSorter<K: PackedKey> {
    layout: RecordLayout,
    cfg: SorterConfig,
    tracker: MemTracker,
    buffer: Vec<MemRun<K>>,
    buffered_bytes: usize,
    spills: Vec<SpilledRun<K>>,
    stats: StreamStats,
}

impl<K: PackedKey> ExternalSorter<K> {
    /// A sorter for tensors of `shape`, ordering entries by the `key`
    /// dimensions (compared lexicographically, arrival order breaking ties).
    /// `[0]` reproduces the engine's stable row sort for CSR; the full mode
    /// order reproduces its stable lexicographic sort for CSF.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when `key` is empty, repeats
    /// a dimension, or names one beyond the shape's order, or when the
    /// shape's [`record_bits`] exceed `K`'s width.
    pub fn new(
        shape: Shape,
        key: Vec<usize>,
        cfg: SorterConfig,
        tracker: MemTracker,
    ) -> Result<Self, ConvertError> {
        let layout = RecordLayout::new(&shape, &key)?;
        let (bits, word) = (layout.keys.bits(), 8 * size_of::<K>() as u32);
        if bits > word {
            return Err(ConvertError::UnsupportedSpec {
                reason: format!("{bits}-bit records of {shape} overflow {word}-bit key words"),
            });
        }
        Ok(ExternalSorter {
            layout,
            cfg,
            tracker,
            buffer: Vec::new(),
            buffered_bytes: 0,
            spills: Vec::new(),
            stats: StreamStats::default(),
        })
    }

    /// Where each dimension sits in a record's key word.
    pub fn layout(&self) -> &RecordLayout {
        &self.layout
    }

    /// The shared working-set gauge.
    pub fn tracker(&self) -> &MemTracker {
        &self.tracker
    }

    /// Statistics so far (final numbers come from [`ExternalSorter::drain`]).
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Buffers one pre-sorted run, spilling the buffer first when adding it
    /// would cross the budget threshold. The caller has added the run's
    /// [`MemRun::bytes`] to the tracker (it reserved them before the run
    /// existed); the sorter releases them when the run spills or drains.
    pub fn push_run(&mut self, run: MemRun<K>) -> Result<(), ConvertError> {
        self.stats.blocks += 1;
        self.stats.entries += run.records.len() as u64;
        if run.records.is_empty() {
            return Ok(());
        }
        let bytes = run.bytes();
        if self.buffered_bytes > 0
            && self.buffered_bytes + bytes > self.cfg.budget.buffer_threshold()
        {
            self.spill()?;
        }
        self.buffered_bytes += bytes;
        self.buffer.push(run);
        Ok(())
    }

    /// The buffered runs, each read from its start.
    fn buffered(&self) -> Vec<impl Iterator<Item = Result<(K, u64), ConvertError>> + '_> {
        self.buffer
            .iter()
            .map(|r| r.records.iter().map(|&r| Ok(r)))
            .collect()
    }

    /// Merges the buffered runs into one spill run on disk and empties the
    /// buffer.
    fn spill(&mut self) -> Result<(), ConvertError> {
        let span = Span::enter("stream.spill_write");
        span.add_items(self.buffer.iter().map(|r| r.records.len() as u64).sum());
        let mut writer = RunWriter::create(self.cfg.spill_dir.as_deref())?;
        merge(self.buffered(), self.layout.tail, &mut |key, bits| {
            writer.push(key, bits)
        })?;
        // The records are in the writer: the buffer is released before the
        // run is flushed and synced.
        self.tracker.sub(self.buffered_bytes);
        self.buffered_bytes = 0;
        self.buffer.clear();
        let run = writer.finish()?;
        span.add_bytes(run.bytes());
        self.stats.spilled_runs += 1;
        self.stats.spilled_bytes += run.bytes();
        self.spills.push(run);
        Ok(())
    }

    /// Emits every buffered and spilled record in globally sorted order and
    /// returns the final statistics. When nothing spilled, the merge runs
    /// purely over the in-memory buffer (the fast case); otherwise the
    /// remaining buffer is spilled too and the merge streams across the run
    /// files through budget-capped read buffers.
    pub fn drain<F>(mut self, mut emit: F) -> Result<StreamStats, ConvertError>
    where
        F: FnMut(K, u64) -> Result<(), ConvertError>,
    {
        let tail = self.layout.tail;
        if self.spills.is_empty() {
            self.stats.in_memory = true;
            let span = Span::enter("stream.merge_mem");
            span.add_items(self.buffer.iter().map(|r| r.records.len() as u64).sum());
            merge(self.buffered(), tail, &mut emit)?;
            drop(span);
            self.tracker.sub(self.buffered_bytes);
            self.buffered_bytes = 0;
            self.buffer.clear();
        } else {
            if self.buffered_bytes > 0 {
                self.spill()?;
            }
            let k = self.spills.len();
            let read_buf = self.cfg.budget.merge_read_buffer(k);
            self.tracker.add(k * read_buf);
            let span = Span::enter("stream.merge_spills");
            let cursors = self.spills.iter().map(|run| run.open(read_buf));
            let result = cursors
                .collect::<Result<Vec<_>, _>>()
                .and_then(|cursors| merge(cursors, tail, &mut emit));
            self.stats.merged_entries = *result.as_ref().unwrap_or(&0);
            span.add_items(self.stats.merged_entries);
            span.add_bytes(self.stats.spilled_bytes);
            drop(span);
            self.tracker.sub(k * read_buf);
            result?;
        }
        self.stats.peak_tracked_bytes = self.tracker.peak();
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_tensor::Value;

    fn block_of(shape: &Shape, entries: &[(&[usize], Value)]) -> CoordBlock {
        let mut b = CoordBlock::with_capacity(shape.clone(), entries.len());
        for (c, v) in entries {
            b.push(c, *v).unwrap();
        }
        b
    }

    /// A record's coordinates in dimension order, and its value.
    fn decode(layout: &RecordLayout, key: u64, bits: u64) -> (Vec<usize>, Value) {
        let mut coord = vec![0; layout.dims.len()];
        for (l, &d) in layout.dims.iter().enumerate() {
            coord[d] = layout.keys().coord(key, l);
        }
        (coord, Value::from_bits(bits))
    }

    /// Pre-sorts a block, tracks the run and buffers it.
    fn push(sorter: &mut ExternalSorter<u64>, block: &CoordBlock) {
        let run = MemRun::from_block(block, sorter.layout());
        sorter.tracker().add(run.bytes());
        sorter.push_run(run).unwrap();
    }

    fn collect(sorter: ExternalSorter<u64>) -> (Vec<(Vec<usize>, Value)>, StreamStats) {
        let layout = sorter.layout().clone();
        let mut out = Vec::new();
        let stats = sorter
            .drain(|key, bits| {
                out.push(decode(&layout, key, bits));
                Ok(())
            })
            .unwrap();
        (out, stats)
    }

    #[test]
    fn in_memory_merge_is_a_stable_key_sort() {
        let shape = Shape::matrix(4, 4);
        let mut s = ExternalSorter::<u64>::new(
            shape.clone(),
            vec![0],
            SorterConfig::default(),
            MemTracker::new(),
        )
        .unwrap();
        // Two blocks; key is the row only, so same-row entries must keep
        // arrival order across blocks.
        push(
            &mut s,
            &block_of(&shape, &[(&[2, 9 % 4], 1.0), (&[0, 3], 2.0)]),
        );
        push(&mut s, &block_of(&shape, &[(&[0, 1], 3.0), (&[2, 0], 4.0)]));
        let (out, stats) = collect(s);
        assert_eq!(
            out,
            vec![
                (vec![0, 3], 2.0),
                (vec![0, 1], 3.0),
                (vec![2, 1], 1.0),
                (vec![2, 0], 4.0),
            ]
        );
        assert!(stats.in_memory);
        assert_eq!(stats.spilled_runs, 0);
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.blocks, 2);
    }

    #[test]
    fn tiny_budgets_spill_and_still_sort_stably() {
        let shape = Shape::matrix(8, 8);
        let dir = std::env::temp_dir();
        let mut s = ExternalSorter::<u64>::new(
            shape.clone(),
            vec![0, 1],
            SorterConfig {
                budget: MemoryBudget::bytes(96),
                spill_dir: Some(dir),
            },
            MemTracker::new(),
        )
        .unwrap();
        // 96-byte budget -> 72-byte threshold -> with 16-byte records every
        // third two-entry block overflows, forcing several spills.
        let mut expected = Vec::new();
        for round in 0..6usize {
            let i = (7 - round) % 8;
            let b = block_of(
                &shape,
                &[
                    (&[i, 0][..], round as f64),
                    (&[i, 0][..], 10.0 + round as f64),
                ],
            );
            expected.push((vec![i, 0], round as f64));
            expected.push((vec![i, 0], 10.0 + round as f64));
            push(&mut s, &b);
        }
        expected.sort_by_key(|(c, _)| c.clone());
        let (out, stats) = collect(s);
        // Duplicate keys keep arrival order (values increase within a key
        // because rounds with the same row pushed in ascending value order).
        assert_eq!(out, expected);
        assert!(!stats.in_memory);
        assert!(stats.spilled_runs > 0, "budget forced spills");
        assert_eq!(stats.merged_entries, 12);
        assert!(stats.spilled_bytes > 0);
        assert!(stats.peak_tracked_bytes > 0);
    }

    #[test]
    fn presorted_blocks_skip_the_sort_and_match() {
        let shape = Shape::tensor3(3, 3, 3);
        let sorted = block_of(
            &shape,
            &[
                (&[0, 1, 2][..], 1.0),
                (&[1, 0, 0][..], 2.0),
                (&[1, 2, 0][..], 3.0),
            ],
        );
        let layout = RecordLayout::new(&shape, &[0, 1, 2]).unwrap();
        let run_fast = MemRun::<u64>::from_block(&sorted, &layout);
        // In row order, but not in key order.
        let unsorted = block_of(
            &shape,
            &[
                (&[0, 1, 2][..], 1.0),
                (&[1, 2, 0][..], 3.0),
                (&[1, 0, 0][..], 2.0),
            ],
        );
        let run_slow = MemRun::from_block(&unsorted, &layout);
        assert_eq!(run_fast, run_slow);
        let (key, bits) = run_fast.records[1];
        assert_eq!(decode(&layout, key, bits).0, [1, 0, 0]);
        assert_eq!(Value::from_bits(run_fast.records[2].1), 3.0);
        assert_eq!(run_fast.bytes(), 3 * 16);
    }

    #[test]
    fn bad_keys_are_rejected() {
        let shape = Shape::matrix(2, 2);
        let t = MemTracker::new();
        for key in [vec![], vec![2], vec![0, 0]] {
            assert!(matches!(
                ExternalSorter::<u64>::new(shape.clone(), key, SorterConfig::default(), t.clone()),
                Err(ConvertError::UnsupportedSpec { .. })
            ));
        }
    }

    #[test]
    fn records_pack_the_key_high_and_the_rest_in_the_tail() {
        // Rows 0..5 (3 bits) over columns 0..300 (9 bits): the row sits
        // above a 9-bit tail.
        let shape = Shape::matrix(5, 300);
        assert_eq!(record_bits(&shape), 12);
        let layout = RecordLayout::new(&shape, &[0]).unwrap();
        assert_eq!((&layout.dims[..], layout.tail), (&[0, 1][..], 9));
        let block = block_of(&shape, &[(&[4, 299], 1.0), (&[1, 7], 2.0), (&[4, 0], 3.0)]);
        let run = MemRun::<u64>::from_block(&block, &layout);
        let keys: Vec<u64> = run.records.iter().map(|r| r.0).collect();
        assert_eq!(keys, [1 << 9 | 7, 4 << 9 | 299, 4 << 9], "stable by row");
        // Order 3 over 2^43-wide modes is 129 bits: too wide for u128.
        let wide = Shape::tensor3(1 << 43, 1 << 43, 1 << 43);
        assert_eq!(record_bits(&wide), 129);
        let err = ExternalSorter::<u128>::new(
            wide,
            vec![0, 1, 2],
            SorterConfig::default(),
            MemTracker::new(),
        );
        assert!(matches!(err, Err(ConvertError::UnsupportedSpec { .. })));
    }

    #[test]
    fn tracker_returns_to_zero_after_drain() {
        let shape = Shape::matrix(4, 4);
        let tracker = MemTracker::new();
        let mut s = ExternalSorter::<u64>::new(
            shape.clone(),
            vec![0, 1],
            SorterConfig {
                budget: MemoryBudget::bytes(128),
                spill_dir: None,
            },
            tracker.clone(),
        )
        .unwrap();
        for i in 0..4 {
            push(&mut s, &block_of(&shape, &[(&[i, i][..], i as f64); 3]));
        }
        let (_, stats) = collect(s);
        assert_eq!(tracker.current(), 0, "all tracked memory released");
        assert_eq!(tracker.peak(), stats.peak_tracked_bytes);
    }
}
