//! Memory budget and working-set tracking for streaming conversions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A configurable cap on the streaming *working set*: sort buffers, parse
/// jobs in flight through the pipeline, and merge read buffers. The final packed
/// output is **not** counted — a conversion's result is as large as its input
/// no matter how it is computed; the budget bounds everything the streaming
/// pipeline allocates *on top of* the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Budget in bytes.
    pub bytes: usize,
}

impl MemoryBudget {
    /// A budget of `bytes` bytes (clamped to at least one spill entry).
    pub fn bytes(bytes: usize) -> Self {
        MemoryBudget {
            bytes: bytes.max(64),
        }
    }

    /// A budget of `kib` kibibytes.
    pub fn kib(kib: usize) -> Self {
        Self::bytes(kib * 1024)
    }

    /// A budget of `mib` mebibytes.
    pub fn mib(mib: usize) -> Self {
        Self::bytes(mib * 1024 * 1024)
    }

    /// The sort-buffer fill threshold: buffered runs spill to disk once they
    /// exceed this. Kept at 3/4 of the budget so the remaining quarter covers
    /// parse jobs in flight and merge buffers without busting the cap.
    pub fn buffer_threshold(&self) -> usize {
        (self.bytes / 4) * 3
    }

    /// Per-run read-buffer size when k runs are merged: an equal share of a
    /// quarter of the budget, clamped to `[64 B, 64 KiB]`.
    pub fn merge_read_buffer(&self, runs: usize) -> usize {
        (self.bytes / 4 / runs.max(1)).clamp(64, 64 * 1024)
    }
}

impl Default for MemoryBudget {
    /// 256 MiB — conservative for production hosts, far above test inputs.
    fn default() -> Self {
        MemoryBudget::mib(256)
    }
}

#[derive(Debug, Default)]
struct TrackerInner {
    current: AtomicUsize,
    peak: AtomicUsize,
}

/// A shared gauge of the streaming pipeline's tracked allocation. The
/// producer adds a parse job's reservation when it admits the job; the
/// consumer and the sorter subtract as the memory is released. The high-water mark is what
/// acceptance checks compare against the [`MemoryBudget`].
#[derive(Debug, Clone, Default)]
pub struct MemTracker(Arc<TrackerInner>);

impl MemTracker {
    /// A fresh tracker at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `bytes` of tracked allocation.
    pub fn add(&self, bytes: usize) {
        let now = self.0.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Releases `bytes` of tracked allocation.
    pub fn sub(&self, bytes: usize) {
        self.0.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Currently tracked bytes.
    pub fn current(&self) -> usize {
        self.0.current.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked bytes.
    pub fn peak(&self) -> usize {
        self.0.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_records_the_high_water_mark() {
        let t = MemTracker::new();
        t.add(100);
        t.add(50);
        t.sub(120);
        t.add(10);
        assert_eq!(t.current(), 40);
        assert_eq!(t.peak(), 150);
        let clone = t.clone();
        clone.add(1);
        assert_eq!(t.current(), 41, "clones share the gauge");
    }

    #[test]
    fn budget_derives_thresholds() {
        let b = MemoryBudget::kib(64);
        assert_eq!(b.bytes, 65536);
        assert_eq!(b.buffer_threshold(), 49152);
        assert_eq!(b.merge_read_buffer(4), 4096);
        assert_eq!(b.merge_read_buffer(0), 16384);
        // Tiny budgets clamp the read buffer to at least one entry's worth.
        assert_eq!(MemoryBudget::bytes(100).merge_read_buffer(100), 64);
        assert!(MemoryBudget::bytes(0).bytes >= 64);
        assert_eq!(MemoryBudget::default().bytes, 256 * 1024 * 1024);
    }
}
