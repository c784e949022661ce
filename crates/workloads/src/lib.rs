//! Synthetic matrix workloads reproducing the structural statistics of the
//! paper's evaluation matrices (Table 2).
//!
//! The paper evaluates on 21 SuiteSparse matrices. Those files are not
//! available in this environment, so this crate synthesises one matrix per
//! Table 2 row with matching dimensions, nonzero count, nonzero-diagonal
//! count, and maximum row length — the statistics that govern conversion
//! cost (see DESIGN.md, "Substitutions"). Matrices can be generated at a
//! reduced `scale` so the full benchmark suite runs in minutes rather than
//! hours; scaling divides the dimensions and nonzero count while preserving
//! the matrix *class* (banded, multi-diagonal, blocked, irregular).
//!
//! The crate also synthesises order-3 tensors ([`tensor3_uniform`],
//! [`tensor3_fibered`]) standing in for the third-order inputs of the
//! paper's tensor-conversion evaluation (COO→CSF); `bench_e2e`'s
//! `convert_large` workload measures them.
//!
//! For real-dataset-shaped inputs, [`io`] streams Matrix Market `.mtx`
//! matrices ([`MtxStream`]) and FROSTT `.tns` tensors ([`TnsStream`]) from
//! disk block by block as `conv-stream` [`TensorStream`](conv_stream::TensorStream)s
//! — they never slurp the file, so arbitrarily large datasets feed the
//! out-of-core conversion path — and writes both formats back out
//! ([`write_mtx`], [`write_tns`]).

pub mod generators;
pub mod io;
pub mod suite;

pub use generators::{
    banded, blocked, irregular, tensor3_fibered, tensor3_uniform, GeneratorError,
};
pub use io::{tns_dims, write_mtx, write_tns, MtxStream, TnsStream};
pub use suite::{table2, MatrixClass, MatrixSpec};
