//! The conversion service: cached planning, routed execution, batching.
//!
//! [`ConversionService`] is the front door of the runtime. Every conversion
//! goes through three stages:
//!
//! 1. **plan** — the [`PlanCache`] returns the pair's [`ConversionPlan`](sparse_conv::ConversionPlan),
//!    building it at most once per `(source, target, spec fingerprint)`;
//! 2. **route** — the planner's [`FormatGraph`] plans a shortest path
//!    over the format graph: directly, *via COO* (profitable when a padded
//!    source such as DIA or ELL would be re-scanned by a multi-pass plan),
//!    or along a longer cost-model-chosen chain such as shuffled
//!    `COO → CSR → BCSR`, where the row-major intermediate feeds BCSR's
//!    block analysis cheaper than the direct kernel. Every multi-node route
//!    runs hop by hop through the same loop, and measured hop durations
//!    flow back into the graph's edge costs (online calibration);
//! 3. **execute** — each hop dispatches through
//!    [`sparse_conv::kernel_table`]: rows flagged `parallel` (COO→CSR,
//!    CSR→CSC, CSR→BCSR, COO3→CSF and `CSF@perm`) get the service's thread
//!    count when the input is large enough to pay for thread startup, and
//!    run their one routine over that many chunks; everything else runs at
//!    one chunk. The output is bit-identical either way.
//!
//! [`ConversionService::convert_batch`] schedules many independent
//! conversions across a [`WorkerPool`]; batched jobs execute sequentially
//! inside each worker (the batch itself is the parallel axis), so a batch
//! never oversubscribes the machine.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use conv_stream::sorter::record_bits;
use conv_stream::{StreamStats, TensorStream};
use obs::{Collector, ConversionReport, Span, SpanRecord};
use sparse_conv::convert::AnyTensor;
use sparse_conv::kernel_table::{self, Padding};
use sparse_conv::planner::{FormatGraph, PlannerConfig, TensorAttrs};
use sparse_conv::tunables::PARALLEL_NNZ_THRESHOLD;
use sparse_conv::{ConvertError, Format};

use crate::cache::PlanCache;
use crate::pool::WorkerPool;
use crate::streaming::{self, StreamConversion, StreamOptions};

/// Tuning knobs of a [`ConversionService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads for parallel kernels and batch scheduling.
    pub threads: usize,
    /// Minimum number of stored nonzeros before a conversion is worth
    /// running on the parallel kernels (small inputs lose to thread
    /// startup).
    pub parallel_nnz_threshold: usize,
    /// How conversions are routed (see [`RoutingPolicy`]).
    pub routing: RoutingPolicy,
    /// Whether measured hop durations refine the planner's edge costs
    /// (bounded, thread-safe EWMA). Disable for reproducible routing in
    /// benchmarks.
    pub online_calibration: bool,
}

impl ServiceConfig {
    /// A config using `threads` workers and the default parallelism
    /// threshold.
    pub fn with_threads(threads: usize) -> Self {
        ServiceConfig {
            threads: threads.max(1),
            ..ServiceConfig::default()
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: WorkerPool::machine_sized().threads(),
            parallel_nnz_threshold: PARALLEL_NNZ_THRESHOLD,
            routing: RoutingPolicy::CostModel,
            online_calibration: true,
        }
    }
}

/// Which router decides how a conversion request executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Plan the cheapest admissible route over the format graph
    /// (`sparse_conv::planner`): direct, via COO, or a longer multi-hop chain.
    #[default]
    CostModel,
    /// Always convert directly (ablation baseline).
    Direct,
    /// Force the cheapest *multi-hop* route whenever one is admissible;
    /// direct only when no chain exists (ablation).
    MultiHop,
}

/// How the service decided to execute a conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Run the (source → target) routine directly.
    Direct,
    /// Convert to COO first, then (COO → target): cheaper when the source
    /// stores many padding zeros that a multi-pass plan would re-scan. The
    /// label of a planned `[padded source, COO, target]` path.
    ViaCoo,
    /// Convert along the full format path (source first, target last,
    /// `len() >= 3`), chosen by the planner's cost model.
    MultiHop(Vec<Format>),
}

/// Monotonic counters describing what a service has executed.
#[derive(Debug, Default)]
struct ServiceCounters {
    conversions: AtomicU64,
    parallel_kernels: AtomicU64,
    sequential: AtomicU64,
    via_coo: AtomicU64,
    multi_hop: AtomicU64,
    batch_jobs: AtomicU64,
    streams: AtomicU64,
    stream_spilled_runs: AtomicU64,
    stream_spilled_bytes: AtomicU64,
    stream_peak_bytes: AtomicUsize,
    materialized: AtomicU64,
    worker_panics: AtomicU64,
}

impl ServiceCounters {
    fn reset(&self) {
        self.conversions.store(0, Ordering::Relaxed);
        self.parallel_kernels.store(0, Ordering::Relaxed);
        self.sequential.store(0, Ordering::Relaxed);
        self.via_coo.store(0, Ordering::Relaxed);
        self.multi_hop.store(0, Ordering::Relaxed);
        self.batch_jobs.store(0, Ordering::Relaxed);
        self.streams.store(0, Ordering::Relaxed);
        self.stream_spilled_runs.store(0, Ordering::Relaxed);
        self.stream_spilled_bytes.store(0, Ordering::Relaxed);
        self.stream_peak_bytes.store(0, Ordering::Relaxed);
        self.worker_panics.store(0, Ordering::Relaxed);
        self.materialized.store(0, Ordering::Relaxed);
    }
}

/// Per-call execution facts captured while a conversion runs, for its
/// [`ConversionReport`] (the aggregate [`ServiceCounters`] can't attribute
/// them to one call under concurrency).
#[derive(Default)]
struct ExecTrace {
    route: &'static str,
    plan_cache_hit: bool,
    parallel_kernel: bool,
    /// Format path the conversion followed (empty for plain direct routes,
    /// filled in for via-COO and multi-hop).
    path: Vec<Format>,
}

impl ExecTrace {
    /// The report of one trace's `records`: its phase tree, plus the
    /// identification and routing facts this call captured. Names are
    /// rendered here, for the caller who asked for a report, and nowhere
    /// else.
    fn report(&self, records: &[SpanRecord], source: String, target: &Format) -> ConversionReport {
        let target = target.to_string();
        let path = if self.path.is_empty() {
            vec![source.clone(), target.clone()]
        } else {
            self.path.iter().map(Format::to_string).collect()
        };
        ConversionReport {
            source,
            target,
            route: self.route.to_string(),
            path,
            plan_cache_hit: self.plan_cache_hit,
            parallel_kernel: self.parallel_kernel,
            ..ConversionReport::from_trace(records)
        }
    }
}

/// A point-in-time copy of a service's counters (plus its plan-cache
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Conversions requested (batch jobs included).
    pub conversions: u64,
    /// Conversions executed on a parallel kernel.
    pub parallel_kernels: u64,
    /// Conversions executed on the sequential engine.
    pub sequential: u64,
    /// Conversions routed through an intermediate COO.
    pub via_coo: u64,
    /// Conversions executed along a planner-chosen multi-hop chain.
    pub multi_hop: u64,
    /// Jobs submitted through [`ConversionService::convert_batch`].
    pub batch_jobs: u64,
    /// Streaming conversions requested through
    /// [`ConversionService::convert_stream`].
    pub streams: u64,
    /// Sorted runs the streaming conversions spilled to disk.
    pub stream_spilled_runs: u64,
    /// Bytes the streaming conversions wrote to spill files.
    pub stream_spilled_bytes: u64,
    /// High-water mark (bytes) of any streaming conversion's tracked
    /// working set.
    pub stream_peak_bytes: usize,
    /// Streaming requests that had no streamed packer for their target and
    /// fell back to materialising the input in memory.
    pub materialized: u64,
    /// Requests (a conversion, a batch job or a stream) that returned
    /// [`ConvertError::WorkerPanicked`].
    pub worker_panics: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (plans built).
    pub plan_misses: u64,
    /// Distinct plans currently cached.
    pub cached_plans: usize,
}

/// A concurrent conversion service over the `sparse_conv` engine.
#[derive(Debug)]
pub struct ConversionService {
    config: ServiceConfig,
    pool: WorkerPool,
    cache: PlanCache,
    graph: FormatGraph,
    counters: ServiceCounters,
}

impl Default for ConversionService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl ConversionService {
    /// A service with the given configuration and an empty plan cache.
    pub fn new(config: ServiceConfig) -> Self {
        ConversionService {
            config,
            pool: WorkerPool::new(config.threads),
            cache: PlanCache::new(),
            graph: FormatGraph::new(),
            counters: ServiceCounters::default(),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The plan cache (for inspection and warm-up).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The route planner's format graph: plan a route by hand or inspect
    /// the online calibration state.
    pub fn format_graph(&self) -> &FormatGraph {
        &self.graph
    }

    /// Builds (and caches) the plans for every pair in `pairs`, so a later
    /// traffic burst pays no planning cost. Pairs are anything resolving to
    /// [`Format`] handles — stock identifiers or registry (custom) formats.
    ///
    /// # Errors
    ///
    /// Returns the first planning error (e.g. a DOK target).
    pub fn warm_up<F>(&self, pairs: &[(F, F)]) -> Result<(), ConvertError>
    where
        F: Clone + Into<Format>,
    {
        for (source, target) in pairs {
            self.cache.plan(source.clone(), target.clone())?;
        }
        Ok(())
    }

    /// Converts one tensor, with cached planning, cost-model routing, and
    /// parallel kernels for the hot pairs. The target is anything resolving
    /// to a [`Format`] — registry (custom) formats get plan caching and
    /// routing exactly like the stock presets.
    ///
    /// # Errors
    ///
    /// Returns an error when the target cannot represent the input or has no
    /// coordinate-hierarchy specification (DOK). No report is built: a
    /// caller who wants one asks [`ConversionService::convert_traced`].
    pub fn convert<F: Into<Format>>(
        &self,
        src: &AnyTensor,
        target: F,
    ) -> Result<AnyTensor, ConvertError> {
        self.count_panic(self.convert_untraced(src, &target.into(), true))
    }

    /// Like [`ConversionService::convert`], additionally returning the
    /// [`ConversionReport`] for this call: the route taken, whether the plan
    /// came from the cache, the threads used, and the per-phase span
    /// breakdown recorded while the conversion ran.
    ///
    /// With the `conv-obs` feature disabled the report still carries the
    /// route/cache/thread fields (they are plain data captured inline), but
    /// its phase tree and durations are empty — no timing is collected.
    ///
    /// # Errors
    ///
    /// Exactly as [`ConversionService::convert`].
    pub fn convert_traced<F: Into<Format>>(
        &self,
        src: &AnyTensor,
        target: F,
    ) -> Result<(AnyTensor, ConversionReport), ConvertError> {
        let target = target.into();
        let root = Span::enter_traced("convert");
        let trace_id = root.handle().trace_id();
        let mut info = ExecTrace::default();
        let result = self.convert_inner(src, &target, true, &mut info);
        drop(root);
        // Take the trace even on error so failed conversions don't leave
        // records behind in the collector.
        let records = Collector::global().take_trace(trace_id);
        let tensor = self.count_panic(result)?;
        let report = ConversionReport {
            threads: if info.parallel_kernel {
                self.config.threads
            } else {
                1
            },
            in_memory: true,
            ..info.report(&records, src.format().to_string(), &target)
        };
        Ok((tensor, report))
    }

    /// The route [`ConversionService::convert`] would take for this source
    /// instance and target (exposed for inspection and tests).
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn route_for<F: Into<Format>>(
        &self,
        src: &AnyTensor,
        target: F,
    ) -> Result<Route, ConvertError> {
        let target = target.into();
        self.cache.plan(src.format(), &target)?;
        Ok(self.decide_route(src, &target, self.parallel_worthwhile(src.nnz(), true)))
    }

    /// Converts a batch of independent jobs across the worker pool,
    /// returning one result per job in submission order. Planning is shared
    /// through the cache; each job executes sequentially inside its worker
    /// (the batch is the parallel axis). A job that panics reports
    /// [`ConvertError::WorkerPanicked`]; the other jobs, and the service,
    /// carry on.
    pub fn convert_batch<F>(&self, jobs: &[(AnyTensor, F)]) -> Vec<Result<AnyTensor, ConvertError>>
    where
        F: Clone + Into<Format> + Sync,
    {
        self.counters
            .batch_jobs
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        // Warm the cache up front so workers race on conversions, not plans.
        for (src, target) in jobs {
            let _ = self.cache.plan(src.format(), target.clone());
        }
        let results = self.pool.run(jobs.len(), |i| {
            let (src, target) = &jobs[i];
            self.convert_untraced(src, &target.clone().into(), false)
        });
        // A job whose worker died reports that; the rest report themselves.
        results
            .into_iter()
            .map(|job| self.count_panic(job.and_then(|r| r)))
            .collect()
    }

    /// Counts a request that returned [`ConvertError::WorkerPanicked`] in
    /// [`ServiceStats::worker_panics`]; called once per request, where it
    /// returns to the caller.
    fn count_panic<T>(&self, result: Result<T, ConvertError>) -> Result<T, ConvertError> {
        if matches!(result, Err(ConvertError::WorkerPanicked { .. })) {
            self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Converts a [`TensorStream`] without ever materialising the input,
    /// bounded by the working-set budget in `opts`. The stream's parse jobs
    /// ([`TensorStream::next_job`]) are admitted against the budget, parsed
    /// and pre-sorted in parallel on `threads` workers that live for the
    /// whole conversion, buffered in file order by an external merge sort
    /// that spills sorted runs to disk when the budget fills, and
    /// k-way-merged straight into the target's packing loop. Inputs that fit
    /// the budget never touch disk (the in-memory fast case,
    /// `stats.in_memory`).
    ///
    /// CSR (order-2), CSF, and mode-ordered `CSF@...` registry targets are
    /// streamed end to end and produce output **byte-identical** to
    /// [`ConversionService::convert`] on the materialised input. Any other
    /// target falls back to materialising the stream into COO and converting
    /// in memory (counted in [`ServiceStats::materialized`]).
    ///
    /// # Errors
    ///
    /// Propagates source I/O and parse errors, spill-file I/O errors, and
    /// conversion errors from the fallback path.
    pub fn convert_stream<S, F>(
        &self,
        mut stream: S,
        target: F,
        opts: &StreamOptions,
    ) -> Result<StreamConversion, ConvertError>
    where
        S: TensorStream + Send,
        F: Into<Format>,
    {
        let target = target.into();
        self.counters.streams.fetch_add(1, Ordering::Relaxed);
        let root = Span::enter_traced("convert_stream");
        let trace_id = root.handle().trace_id();
        // The streamed path never enters the in-memory router.
        let mut info = ExecTrace {
            route: "stream",
            ..ExecTrace::default()
        };
        let result = self.count_panic(self.stream_exec(&mut stream, &target, opts, &mut info));
        drop(root);
        let records = Collector::global().take_trace(trace_id);
        let (tensor, stats) = result?;
        let report = ConversionReport {
            threads: self.config.threads,
            streamed: true,
            in_memory: stats.in_memory,
            spilled_runs: stats.spilled_runs,
            spilled_bytes: stats.spilled_bytes,
            ..info.report(&records, "stream".to_string(), &target)
        };
        Ok(StreamConversion {
            tensor,
            stats,
            report,
        })
    }

    /// The body of [`ConversionService::convert_stream`], running inside the
    /// caller's traced root span.
    fn stream_exec<S: TensorStream + Send>(
        &self,
        stream: &mut S,
        target: &Format,
        opts: &StreamOptions,
        info: &mut ExecTrace,
    ) -> Result<(AnyTensor, StreamStats), ConvertError> {
        let shape = stream.shape().clone();
        let Some(plan) = streaming::classify(target, &shape) else {
            self.counters.materialized.fetch_add(1, Ordering::Relaxed);
            let mut stats = StreamStats {
                in_memory: true,
                ..StreamStats::default()
            };
            let src = streaming::materialize(stream, &mut stats)?;
            // `convert_inner` counts the conversion and applies
            // routing/kernels; its spans nest under this stream's trace.
            let tensor = self.convert_inner(&src, target, true, info)?;
            return Ok((tensor, stats));
        };
        self.counters.conversions.fetch_add(1, Ordering::Relaxed);
        // One key word per conversion: the narrowest the records fit.
        let pump = if record_bits(&shape) <= u64::BITS {
            streaming::pump::<u64, S>
        } else {
            streaming::pump::<u128, S>
        };
        let (tensor, stats) = pump(plan, stream, target, opts, self.config.threads)?;
        self.counters
            .stream_spilled_runs
            .fetch_add(stats.spilled_runs, Ordering::Relaxed);
        self.counters
            .stream_spilled_bytes
            .fetch_add(stats.spilled_bytes, Ordering::Relaxed);
        self.counters
            .stream_peak_bytes
            .fetch_max(stats.peak_tracked_bytes, Ordering::Relaxed);
        Ok((tensor, stats))
    }

    /// A snapshot of the service's execution and plan-cache statistics.
    ///
    /// # Snapshot coherence
    ///
    /// Each counter is read individually with `Ordering::Relaxed`; the
    /// snapshot is **not** an atomic cut across all of them. While other
    /// threads are converting, derived sums may be momentarily inconsistent
    /// (e.g. `parallel_kernels + sequential` can briefly trail `conversions`
    /// because a conversion is counted before its execution path is). Every
    /// individual counter is still exact — no increment is ever lost — and a
    /// snapshot taken while the service is quiescent is fully consistent.
    /// For before/after deltas in benchmarks, quiesce the service (or use
    /// [`ConversionService::reset_stats`]) instead of differencing live
    /// snapshots.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            conversions: self.counters.conversions.load(Ordering::Relaxed),
            parallel_kernels: self.counters.parallel_kernels.load(Ordering::Relaxed),
            sequential: self.counters.sequential.load(Ordering::Relaxed),
            via_coo: self.counters.via_coo.load(Ordering::Relaxed),
            multi_hop: self.counters.multi_hop.load(Ordering::Relaxed),
            batch_jobs: self.counters.batch_jobs.load(Ordering::Relaxed),
            streams: self.counters.streams.load(Ordering::Relaxed),
            stream_spilled_runs: self.counters.stream_spilled_runs.load(Ordering::Relaxed),
            stream_spilled_bytes: self.counters.stream_spilled_bytes.load(Ordering::Relaxed),
            stream_peak_bytes: self.counters.stream_peak_bytes.load(Ordering::Relaxed),
            materialized: self.counters.materialized.load(Ordering::Relaxed),
            worker_panics: self.counters.worker_panics.load(Ordering::Relaxed),
            plan_hits: self.cache.hits(),
            plan_misses: self.cache.misses(),
            cached_plans: self.cache.len(),
        }
    }

    /// Zeroes every service counter and the plan cache's hit/miss counters
    /// (cached plans are preserved) — for isolating a benchmark's measured
    /// phase from its warm-up, where warm-up conversions would otherwise
    /// pollute the deltas.
    pub fn reset_stats(&self) {
        self.counters.reset();
        self.cache.reset_counters();
    }

    /// Runs one conversion under a plain span: it nests in a caller's
    /// trace when there is one, and builds no report.
    fn convert_untraced(
        &self,
        src: &AnyTensor,
        target: &Format,
        allow_parallel: bool,
    ) -> Result<AnyTensor, ConvertError> {
        let _root = Span::enter("convert");
        self.convert_inner(src, target, allow_parallel, &mut ExecTrace::default())
    }

    fn convert_inner(
        &self,
        src: &AnyTensor,
        target: &Format,
        allow_parallel: bool,
        info: &mut ExecTrace,
    ) -> Result<AnyTensor, ConvertError> {
        let span = Span::enter("service.plan");
        // Surfaces planning errors (e.g. a DOK target) before routing.
        let (_plan, cache_hit) = self.cache.plan_entry(src.format(), target)?;
        drop(span);
        info.plan_cache_hit = cache_hit;
        self.counters.conversions.fetch_add(1, Ordering::Relaxed);
        // Decided once per request: every hop of a route holds the same
        // nonzeros, and the planner must price what will actually run.
        let parallel = self.parallel_worthwhile(src.nnz(), allow_parallel);
        let span = Span::enter("service.route");
        let route = self.decide_route(src, target, parallel);
        drop(span);
        let path = match route {
            Route::Direct => {
                info.route = "direct";
                return self.execute(src, target, parallel, info);
            }
            Route::ViaCoo => {
                info.route = "via-coo";
                self.counters.via_coo.fetch_add(1, Ordering::Relaxed);
                vec![src.format(), Format::coo(), target.clone()]
            }
            Route::MultiHop(path) => {
                info.route = "multi-hop";
                self.counters.multi_hop.fetch_add(1, Ordering::Relaxed);
                path
            }
        };
        let mut current = self.run_hop(src, &path[1], parallel, info)?;
        for hop_target in &path[2..] {
            current = self.run_hop(&current, hop_target, parallel, info)?;
        }
        info.path = path;
        Ok(current)
    }

    /// One hop of a multi-node route: a timed execution span and (when
    /// enabled) an online-calibration observation for the hop's edge. Hops
    /// take no plan-cache entry: the planner only proposes edges it could
    /// plan, and `convert_with` resolves the hop's routine itself.
    fn run_hop(
        &self,
        hop_src: &AnyTensor,
        hop_target: &Format,
        parallel: bool,
        info: &mut ExecTrace,
    ) -> Result<AnyTensor, ConvertError> {
        let span = Span::enter("service.hop");
        span.add_items(hop_src.nnz() as u64);
        let started = Instant::now();
        let out = self.execute(hop_src, hop_target, parallel, info)?;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        drop(span);
        if self.config.online_calibration {
            let attrs = TensorAttrs::from_matrix(hop_src);
            let cfg = PlannerConfig {
                parallel,
                exclude_direct: false,
            };
            self.graph.observe(
                &hop_src.format(),
                hop_target,
                attrs.stored_entries,
                attrs.rows_in_order,
                &attrs,
                &cfg,
                elapsed_ns,
            );
        }
        Ok(out)
    }

    /// Routes a request according to the configured [`RoutingPolicy`];
    /// `parallel` says whether its hops will run on the pool.
    fn decide_route(&self, src: &AnyTensor, target: &Format, parallel: bool) -> Route {
        let exclude_direct = match self.config.routing {
            RoutingPolicy::Direct => return Route::Direct,
            RoutingPolicy::CostModel => false,
            RoutingPolicy::MultiHop => true,
        };
        let attrs = TensorAttrs::from_matrix(src);
        let cfg = PlannerConfig {
            parallel,
            exclude_direct,
        };
        let source = src.format();
        match self.graph.plan_route(&source, target, &attrs, &cfg) {
            // The plan-cache lookup ahead of routing has already surfaced
            // any planning error; a pair the graph cannot price converts
            // directly.
            None => Route::Direct,
            Some(route) if route.is_direct() => Route::Direct,
            // A padded source hopping once through COO is the classic
            // via-COO shortcut; keep reporting it as such.
            Some(route)
                if route.path.len() == 3
                    && route.path[1] == Format::coo()
                    && kernel_table::facts(&source).padding != Padding::None =>
            {
                Route::ViaCoo
            }
            Some(route) => Route::MultiHop(route.path),
        }
    }

    fn parallel_worthwhile(&self, nnz: usize, allow_parallel: bool) -> bool {
        allow_parallel && self.config.threads > 1 && nnz >= self.config.parallel_nnz_threshold
    }

    /// Runs one conversion through the kernel table, on the pool when
    /// `parallel` and the row that serves the pair is partitioned.
    fn execute(
        &self,
        src: &AnyTensor,
        target: &Format,
        parallel: bool,
        info: &mut ExecTrace,
    ) -> Result<AnyTensor, ConvertError> {
        let span = Span::enter("service.execute");
        span.add_items(src.nnz() as u64);
        let threads = if parallel { self.config.threads } else { 1 };
        let result = sparse_conv::convert_with(src, target, threads);
        if parallel && matches!(&result, Ok((_, row)) if row.parallel) {
            info.parallel_kernel = true;
            self.counters
                .parallel_kernels
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.sequential.fetch_add(1, Ordering::Relaxed);
        }
        result.map(|(tensor, _)| tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_conv::stock::STOCK;
    use sparse_formats::{CooMatrix, CsrMatrix, DiaMatrix};
    use sparse_tensor::example::figure1_matrix;
    use sparse_tensor::SparseTriples;

    fn service(threads: usize) -> ConversionService {
        ConversionService::new(ServiceConfig {
            threads,
            parallel_nnz_threshold: 0,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn service_output_matches_the_sequential_engine() {
        let t = figure1_matrix();
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        let svc = service(4);
        for target in [
            Format::csr(),
            Format::csc(),
            Format::dia(),
            Format::ell(),
            Format::jad(),
        ] {
            let got = svc.convert(&coo, &target).unwrap();
            let want = sparse_conv::convert(&coo, &target).unwrap();
            assert_eq!(got, want, "{target}");
        }
        let stats = svc.stats();
        assert_eq!(stats.conversions, 5);
        assert!(stats.parallel_kernels >= 1, "COO→CSR ran parallel");
    }

    #[test]
    fn planning_happens_once_per_pair() {
        let t = figure1_matrix();
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        let svc = service(2);
        for _ in 0..5 {
            svc.convert(&coo, Format::csr()).unwrap();
        }
        let stats = svc.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 4);
        assert_eq!(stats.cached_plans, 1);
    }

    #[test]
    fn batch_results_keep_submission_order_and_surface_errors() {
        let t = figure1_matrix();
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        let csr = AnyTensor::Csr(CsrMatrix::from_triples(&t));
        let jobs = vec![
            (coo.clone(), Format::csr()),
            (csr.clone(), Format::csc()),
            (coo.clone(), Format::skyline()), // rectangular: must fail
            (csr.clone(), Format::dok()),     // unsupported target
            (coo.clone(), Format::ell()),
        ];
        let svc = service(3);
        let results = svc.convert_batch(&jobs);
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].as_ref().unwrap().format(), Format::csr());
        assert_eq!(results[1].as_ref().unwrap().format(), Format::csc());
        assert!(matches!(results[2], Err(ConvertError::Unsupported(_))));
        assert_eq!(
            results[3],
            Err(ConvertError::UnsupportedTarget(Format::dok()))
        );
        assert_eq!(results[4].as_ref().unwrap().format(), Format::ell());
        assert_eq!(svc.stats().batch_jobs, 5);
    }

    #[test]
    fn padded_multi_pass_sources_route_via_coo() {
        // A 64x64 matrix with a dense main diagonal plus a scatter of first-row
        // entries, one per extra diagonal: DIA stores 32*64 padded entries for
        // 95 nonzeros, and DIA→ELL is a two-pass plan, so scanning the padding
        // twice costs far more than materialising COO once.
        let mut entries: Vec<(usize, usize, f64)> = (0..64).map(|i| (i, i, 1.0)).collect();
        entries.extend((1..32).map(|j| (0usize, j, 2.0)));
        let t = SparseTriples::from_matrix_entries(64, 64, entries).unwrap();
        let dia = AnyTensor::Dia(DiaMatrix::from_triples(&t));
        let svc = service(1);
        assert_eq!(svc.route_for(&dia, Format::ell()).unwrap(), Route::ViaCoo);
        // COO targets and unpadded sources stay direct.
        assert_eq!(svc.route_for(&dia, Format::coo()).unwrap(), Route::Direct);
        let csr = AnyTensor::Csr(CsrMatrix::from_triples(&t));
        assert_eq!(svc.route_for(&csr, Format::ell()).unwrap(), Route::Direct);
        // The routed conversion still produces the engine's exact output.
        let got = svc.convert(&dia, Format::ell()).unwrap();
        let want = sparse_conv::convert(&dia, Format::ell()).unwrap();
        assert_eq!(got, want);
        assert_eq!(svc.stats().via_coo, 1);
    }

    #[test]
    fn batch_jobs_are_priced_like_single_thread_requests() {
        // Batch jobs execute sequentially inside their worker, so a wide
        // service must route them exactly like a one-thread service would —
        // without the parallel credit an interactive request earns.
        let (wide, narrow) = (service(4), service(1));
        let nnz = 50_000;
        let config = |parallel| PlannerConfig {
            parallel,
            exclude_direct: false,
        };
        let batch = config(wide.parallel_worthwhile(nnz, false));
        let single = config(narrow.parallel_worthwhile(nnz, true));
        let interactive = config(wide.parallel_worthwhile(nnz, true));
        let attrs = TensorAttrs {
            order: 2,
            nnz,
            stored_entries: nnz,
            rows: 1000,
            cols: 1000,
            rows_in_order: false,
            max_nnz_per_row: None,
        };
        let mut credited = 0;
        let stock: Vec<Format> = STOCK.iter().map(|row| row.format()).collect();
        for source in &stock {
            for target in &stock {
                let price = |svc: &ConversionService, cfg: &PlannerConfig| {
                    svc.format_graph()
                        .edge_units(source, target, nnz, false, &attrs, cfg)
                };
                assert_eq!(price(&wide, &batch), price(&narrow, &single));
                credited += usize::from(price(&wide, &interactive) < price(&wide, &batch));
            }
        }
        assert!(credited > 0, "interactive requests do earn the credit");
    }

    #[test]
    fn tensor_conversions_run_on_the_parallel_kernel() {
        let t = sparse_tensor::example::example3_tensor();
        let coo3 = AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&t));
        let svc = service(4);
        let got = svc.convert(&coo3, Format::csf()).unwrap();
        let want = sparse_conv::convert(&coo3, Format::csf()).unwrap();
        assert_eq!(got, want);
        assert_eq!(svc.stats().parallel_kernels, 1);
        // CSF → COO3 goes through the sequential engine.
        let back = svc.convert(&got, Format::coo3()).unwrap();
        assert!(back.to_triples().same_values(&t));
        assert_eq!(svc.stats().sequential, 1);
        // Rank mismatches surface as errors, not panics.
        assert!(svc.convert(&coo3, Format::csr()).is_err());
    }

    #[test]
    fn mode_ordered_targets_run_on_the_parallel_kernel() {
        let t = sparse_tensor::example::example3_tensor();
        let coo3 = AnyTensor::Coo3(sparse_formats::CooTensor::from_triples(&t));
        let svc = service(4);
        for order in sparse_conv::select::ORDER3_MODE_ORDERS {
            let target: Format = sparse_conv::mode::csf_ordered_name(&order).parse().unwrap();
            let got = svc.convert(&coo3, target.clone()).unwrap();
            let want = sparse_conv::convert(&coo3, &target).unwrap();
            assert_eq!(got, want, "CSF@{order:?}");
        }
        // Five permuted targets hit the kernel; the canonical order resolves
        // to the stock CSF handle and hits the stock kernel.
        assert_eq!(svc.stats().parallel_kernels, 6);
    }

    #[test]
    fn warm_up_builds_every_plan_in_advance() {
        let svc = service(2);
        svc.warm_up(&[
            (Format::coo(), Format::csr()),
            (Format::csr(), Format::csc()),
        ])
        .unwrap();
        assert_eq!(svc.stats().cached_plans, 2);
        assert!(svc.warm_up(&[(Format::csr(), Format::dok())]).is_err());
    }

    #[test]
    fn small_inputs_do_not_spawn_threads() {
        let t = figure1_matrix();
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        let svc = ConversionService::new(ServiceConfig {
            threads: 4,
            parallel_nnz_threshold: 1_000_000,
            ..ServiceConfig::default()
        });
        svc.convert(&coo, Format::csr()).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.parallel_kernels, 0);
        assert_eq!(stats.sequential, 1);
    }
}
