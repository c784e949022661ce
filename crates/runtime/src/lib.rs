//! A concurrent conversion *service* on top of `sparse-conv`.
//!
//! The paper's performance argument rests on amortising specialisation: the
//! generator emits one routine per format pair, and every subsequent
//! conversion reuses it. `conv-runtime` brings the same economics to this
//! reproduction at execution time:
//!
//! * [`cache::PlanCache`] memoises [`ConversionPlan`](sparse_conv::ConversionPlan)s
//!   per pair of [`Format`](sparse_conv::Format) handles (i.e. per pair of
//!   spec fingerprints) so planning happens once per pair, not once per
//!   call — for registry (user-defined) formats exactly like the stock
//!   presets;
//! * [`service::ConversionService`] is the batch front end: it routes each
//!   request over `sparse_conv::planner`'s format graph (direct, via-COO,
//!   or a cost-model-chosen multi-hop chain such as shuffled
//!   `COO → CSR → BCSR`, with measured hop durations calibrating the edge
//!   costs online), runs every hop through
//!   [`sparse_conv::kernel_table`] — on the partitioned parallel kernels
//!   of `sparse_conv::kernels` when the row is flagged `parallel` and the
//!   input is large enough, sequentially otherwise, **bit-identical**
//!   either way — and schedules independent conversions across a
//!   [`pool::WorkerPool`];
//! * [`streaming`] is the out-of-core path:
//!   [`ConversionService::convert_stream`](service::ConversionService::convert_stream)
//!   parses and pre-sorts `conv-stream` parse jobs on long-lived workers
//!   into an external merge sort, so a tensor larger than memory converts to
//!   CSR/CSF under a fixed [`MemoryBudget`](conv_stream::MemoryBudget),
//!   byte-identical to the in-memory engine.
//!
//! # Quickstart
//!
//! ```
//! use conv_runtime::{ConversionService, ServiceConfig};
//! use sparse_conv::{AnyTensor, Format};
//! use sparse_formats::CooMatrix;
//! use sparse_tensor::example::figure1_matrix;
//!
//! let service = ConversionService::new(ServiceConfig::with_threads(4));
//! let coo = AnyTensor::Coo(CooMatrix::from_triples(&figure1_matrix()));
//!
//! // Single conversions reuse cached plans...
//! let csr = service.convert(&coo, Format::csr())?;
//! assert_eq!(csr.format(), Format::csr());
//!
//! // ...and batches spread independent jobs across the worker pool.
//! let jobs = vec![(coo.clone(), Format::csc()), (csr, Format::ell())];
//! let results = service.convert_batch(&jobs);
//! assert!(results.iter().all(|r| r.is_ok()));
//!
//! // After the warm-up above, re-converting the same pair plans nothing.
//! let before = service.stats().plan_misses;
//! service.convert(&coo, Format::csr())?;
//! assert_eq!(service.stats().plan_misses, before);
//! # Ok::<(), sparse_conv::ConvertError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod pool;
pub mod service;
pub mod streaming;

pub use cache::{PlanCache, PlanKey};
pub use pool::WorkerPool;
pub use service::{ConversionService, Route, RoutingPolicy, ServiceConfig, ServiceStats};
pub use streaming::{StreamConversion, StreamOptions};
