//! Out-of-core streaming conversion primitives.
//!
//! Every conversion path in the core crates materializes the whole tensor in
//! memory. This crate removes that cap by restating the paper's sort-then-pack
//! decomposition (Chou et al., PLDI 2020) over *chunks*:
//!
//! * [`TensorStream`] / [`TensorSink`] — a pull-based source (and push-based
//!   sink) of [`CoordBlock`]s: bounded coordinate blocks carrying a rank-`N`
//!   [`Shape`](sparse_tensor::Shape);
//! * [`ExternalSorter`] — an external merge sort over sorted runs: blocks are
//!   pre-sorted (in parallel, by the caller) and buffered as in-memory runs
//!   of packed `(key word, value bits)` records until a configurable
//!   [`MemoryBudget`] fills, at which point the buffer is k-way-merged into
//!   one spill run on disk; [`ExternalSorter::drain`]
//!   k-way-merges every run back in sorted order, feeding the same packing
//!   loops (`CsfBuilder`, CSR assembly) the in-memory engine uses — so the
//!   streamed output is **byte-identical** to the in-memory conversion;
//! * [`MemTracker`] / [`StreamStats`] — honest accounting of the streaming
//!   working set (sort buffers, parse jobs in flight, merge read buffers) and of
//!   spill traffic, surfaced by the runtime service next to its plan-cache
//!   statistics.
//!
//! Why byte-identical: the sort key is a list of coordinate dimensions
//! (`[row]` for CSR, the full mode order for CSF) packed into the high bits
//! of each record's key word, every run is *stably* sorted on those bits,
//! runs are created in arrival order, and merges break key ties by run
//! index — together that reproduces exactly the stable sort the in-memory
//! engine performs, including the arrival order of duplicate keys.

#![warn(missing_docs)]

pub mod block;
pub mod budget;
pub mod run;
pub mod sorter;
pub mod source;
pub mod stats;

pub use block::CoordBlock;
pub use budget::{MemTracker, MemoryBudget};
pub use sorter::{ExternalSorter, SorterConfig};
pub use source::{CooBlockStream, CooSink, ParseJob, TensorSink, TensorStream};
pub use stats::StreamStats;

/// Bytes one parsed nonzero of a [`CoordBlock`] occupies: `order`
/// coordinates plus the value, all 8 bytes wide. Sort buffers and spill runs
/// hold packed records instead ([`sorter::MemRun::bytes`],
/// [`run::record_bytes`]).
pub fn entry_bytes(order: usize) -> usize {
    (order + 1) * 8
}
