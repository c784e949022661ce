//! Counters describing one streaming conversion.

/// What one streamed conversion did: how much data flowed, how often the
/// external sort spilled, and the working-set high-water mark. Surfaced by
/// the runtime service next to its plan-cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Runs (parse jobs or blocks) consumed from the source stream.
    pub blocks: u64,
    /// Nonzeros consumed from the source stream.
    pub entries: u64,
    /// Sorted runs spilled to disk (0 when the input fit the budget).
    pub spilled_runs: u64,
    /// Bytes written to spill files.
    pub spilled_bytes: u64,
    /// Entries re-read from disk during the final k-way merge.
    pub merged_entries: u64,
    /// High-water mark of the tracked streaming working set (sort buffers,
    /// parse jobs in flight, merge read buffers) in bytes.
    pub peak_tracked_bytes: usize,
    /// True when the whole input fit the memory budget and the conversion
    /// never touched disk — the in-memory fast case.
    pub in_memory: bool,
}
