//! The measured thresholds of the conversion kernels, in one place.
//!
//! Each constant names the `bench_e2e` row that set it; changing one is a
//! measured change against that row (see `BENCHMARK.json`). They are plain
//! constants on purpose: no caller or workload needs two values of any of
//! them.

/// Tile width, in parents (columns of a CSC target), of the blocked
/// write-combining scatter: the per-tile cursor window plus the output
/// region it scatters into stay cache-resident (a 4096-parent tile is
/// 32 KiB of cursors). Set on `convert_large` `service.convert_s.csr_csc`.
pub const TRANSPOSE_TILE: usize = 1 << 12;

/// Nonzeros a chunk must hold before the blocked scatter's extra bucketing
/// pass pays for itself; below it the direct scatter's working set is
/// already cache-resident. One value at one chunk and at many (the
/// sequential routine used 2^15, the per-chunk one 2^14): between the two a
/// CSR→CSC chunk scatters 1.2–2.4× faster directly (30k nonzeros at one
/// chunk 0.28 ms vs 0.68 ms, 24k per chunk at two 1.02 ms vs 1.21 ms), so the
/// larger survives. `convert_large` `service.convert_s.csr_csc` (256k per
/// chunk) sits on the blocked side, `convert_small` (2k-nonzero requests) on
/// the direct side.
pub const TILE_SCATTER_MIN_NNZ: usize = 1 << 15;

/// Chunk-count × parent-count product below which the serial histogram
/// merge wins: thread spawns cost more than the additions they parallelise.
/// Set on `convert_large` `service.convert_s.coo_csr`.
pub const TREE_MERGE_MIN_WORK: usize = 1 << 15;

/// Default of `ServiceConfig::parallel_nnz_threshold`: stored nonzeros below
/// which a request runs at one chunk, because thread startup costs more than
/// the partition saves. Set on `convert_small` `service.request_us.p50` (its
/// 2k-nonzero requests stay inline) against `convert_large`
/// `service.parallel_share`.
pub const PARALLEL_NNZ_THRESHOLD: usize = 1 << 14;

/// Bytes of `.mtx`/`.tns` text a loader's parse chunk holds at least: a
/// window of `b` bytes is parsed as `clamp(b / PARSE_CHUNK_BYTES, 1,
/// partition::machine_threads())` newline-aligned chunks, and a window is
/// read `machine_threads()` chunks at a time. Set on `file_first_use`'s
/// `io.mtx_load_s.*` (1.8 MB files, one 64k-entry block, parsed on every
/// thread) against `stream_spill`'s 2^10-entry blocks (about 28 KB, one
/// chunk, because a thread start costs more than the parse it would split).
pub const PARSE_CHUNK_BYTES: usize = 1 << 18;

/// Padded output slots (DIA or ELL values, BCSR blocks, a builder spec's
/// full levels) a conversion may allocate per unit of its input's nonzeros
/// plus extents, so a matrix whose extents sum to at most 1024 always fits.
/// Set to admit `convert_large`'s padded rows (`engine.convert_s.coo_dia`,
/// `service.convert_s.csr_ell`, `engine.convert_s.coo_bcsr4x4`) and refuse
/// the 1 M-nonzero irregular DIA that asked for 369 GB.
pub const PADDED_EXPANSION_MAX: usize = 1 << 10;
