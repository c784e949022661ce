//! Umbrella crate for the PLDI 2020 sparse tensor format conversion reproduction.
//!
//! Re-exports the public API of all workspace crates so examples and integration
//! tests can use a single dependency.
pub use conv_runtime as runtime;
pub use conv_stream as stream;
pub use conv_workloads as workloads;
pub use obs;
pub use sparse_conv as conv;
pub use sparse_conv::{ir, levels, planner, query, remap};
pub use sparse_formats as formats;
pub use sparse_tensor as tensor;
