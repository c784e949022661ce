//! Concrete sparse matrix formats, reference conversions, library-style
//! baselines, and SpMV kernels.
//!
//! This crate provides the data structures that conversions read and write:
//!
//! * [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`], [`DiaMatrix`], [`EllMatrix`]
//!   — the formats evaluated in Section 7 of the paper,
//! * [`BcsrMatrix`], [`SkylineMatrix`], [`DokMatrix`], [`JadMatrix`] — further
//!   formats discussed in Sections 2, 4 and 6,
//! * [`CooTensor`], [`CsfTensor`] — rank-`N` tensor containers (Section 7's
//!   third-order COO→CSF conversions; CSF of order 2 is DCSR),
//! * hand-written *reference* conversions to and from canonical
//!   [`sparse_tensor::SparseTriples`] (ground truth for tests),
//! * [`baselines`] — Rust ports of the SPARSKIT and Intel MKL conversion
//!   algorithms and of the "taco without extensions" sort-based conversion,
//!   which the generated routines are benchmarked against, and
//! * [`spmv`] — per-format SpMV kernels (the motivating workload of Section 1).
//!
//! All containers validate their structural invariants and convert losslessly
//! to and from `SparseTriples` (modulo explicit zeros for padded formats such
//! as DIA and ELL).

#![warn(missing_docs)]

pub mod baselines;
pub mod bcsr;
pub mod coo;
pub mod coo_tensor;
pub mod csc;
pub mod csf;
pub mod csr;
pub mod dia;
pub mod dok;
pub mod ell;
pub mod jad;
pub mod radix;
pub mod skyline;
pub mod spmv;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use coo_tensor::CooTensor;
pub use csc::CscMatrix;
pub use csf::{CsfBuilder, CsfTensor};
pub use csr::CsrMatrix;
pub use dia::DiaMatrix;
pub use dok::DokMatrix;
pub use ell::EllMatrix;
pub use jad::JadMatrix;
pub use skyline::SkylineMatrix;

pub use sparse_tensor::{SparseTriples, TensorError, Value};
