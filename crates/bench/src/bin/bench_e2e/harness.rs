//! The measuring loop shared by the five workloads: set-up, warm-up, timed
//! passes, the traced passes and their extras, and the metric tables.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use sparse_conv::ConvertError;

use crate::host;
use crate::stats::{geomean, median, percentile, ratio};
use crate::trace::{layer_times_per_pass, Layer, Span, Tracer};
use crate::workloads;

/// Service pool width: `min(nproc, 4)`.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// How often a run repeats its phases.
struct Repeats {
    /// Set-ups; `setup_s` is their median.
    setups: usize,
    /// Untimed passes before measuring; the first runs the full oracle.
    warmups: usize,
    /// Timed passes made even when `--seconds` is already spent.
    min_passes: usize,
}

const REPEATS: Repeats = Repeats {
    setups: 5,
    warmups: 3,
    min_passes: 5,
};
/// The self-tests' repeats: enough to reach every code path once.
const SMOKE_REPEATS: Repeats = Repeats {
    setups: 1,
    warmups: 1,
    min_passes: 2,
};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only; 0 for per-layer ones, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

/// The end-to-end metrics, reported by every workload from the untraced run.
/// `BENCHMARK.json` lists the same names, units, directions and bounds (a
/// self-test keeps the two in step).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("pass_s.p50", "s", false, 0.25),
    e2e("pass_s.p75", "s", false, 0.25),
    e2e("mnnz_per_s", "Mnnz/s", true, 0.25),
    e2e("case_geomean_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.2),
];

/// The per-layer metrics, reported by every workload from the traced run; a
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [MetricDef; 110] = [
    // harness
    lower("trace.overhead_share", "ratio"),
    lower("trace.layer_sum_over_pass", "ratio"),
    lower("trace.spans", "count"),
    lower("trace.pass_s.p50", "s"),
    // self time of each layer as a share of the traced pass
    lower("share.harness", "ratio"),
    lower("share.workloads.io", "ratio"),
    lower("share.core.select", "ratio"),
    lower("share.planner", "ratio"),
    lower("share.runtime.service", "ratio"),
    lower("share.runtime.streaming", "ratio"),
    lower("share.core.generic", "ratio"),
    lower("share.core.codegen_ir", "ratio"),
    lower("share.core.engine", "ratio"),
    lower("share.formats.spmv", "ratio"),
    // workloads.io
    lower("io.mtx_load_s.banded", "s"),
    lower("io.mtx_load_s.blocked", "s"),
    lower("io.mtx_load_s.irregular", "s"),
    higher("io.mtx_mb_per_s", "MB/s"),
    lower("io.tns_dims_s", "s"),
    lower("io.tns_load_s", "s"),
    higher("io.tns_mb_per_s", "MB/s"),
    lower("io.bytes_read", "bytes"),
    // core.select
    lower("select.profile_s.banded", "s"),
    lower("select.profile_s.blocked", "s"),
    lower("select.profile_s.irregular", "s"),
    lower("select.profile_s.tensor", "s"),
    higher("select.profile_mnnz_per_s", "Mnnz/s"),
    // runtime.cache
    lower("cache.plan_miss_us", "us"),
    lower("cache.plan_hit_ns", "ns"),
    higher("cache.hit_ratio", "ratio"),
    // planner, through ConversionService::route_for
    lower("planner.route_cold_us", "us"),
    lower("planner.route_warm_us", "us"),
    lower("planner.multi_hop_share", "ratio"),
    // runtime.service
    lower("service.convert_s.coo_csr", "s"),
    lower("service.convert_s.csr_csc", "s"),
    lower("service.convert_s.coo_jad", "s"),
    lower("service.convert_s.coo_dia", "s"),
    lower("service.convert_s.csr_ell", "s"),
    lower("service.convert_s.coo_bcsr4x4", "s"),
    lower("service.convert_s.coo3_csf", "s"),
    lower("service.convert_s.coo3_csf201", "s"),
    lower("service.request_us.p50", "us"),
    lower("service.request_us.p99", "us"),
    lower("service.dispatch_overhead_us", "us"),
    higher("service.parallel_share", "ratio"),
    // runtime.pool
    higher("pool.batch_speedup", "ratio"),
    // runtime.kernels
    higher("kernels.speedup_vs_engine.coo_csr", "ratio"),
    higher("kernels.speedup_vs_engine.csr_csc", "ratio"),
    higher("kernels.speedup_vs_engine.coo_bcsr4x4", "ratio"),
    higher("kernels.speedup_vs_engine.coo3_csf", "ratio"),
    // core.engine
    lower("engine.convert_s.coo_csr", "s"),
    lower("engine.convert_s.csr_csc", "s"),
    lower("engine.convert_s.coo_jad", "s"),
    lower("engine.convert_s.coo_dia", "s"),
    lower("engine.convert_s.csr_ell", "s"),
    lower("engine.convert_s.coo_bcsr4x4", "s"),
    lower("engine.convert_s.coo3_csf", "s"),
    lower("engine.convert_s.coo3_csf201", "s"),
    higher("engine.mnnz_per_s", "Mnnz/s"),
    // formats.baselines: the paper's yardstick
    lower("baselines.best_hand_s.coo_csr", "s"),
    lower("baselines.best_hand_s.coo_dia", "s"),
    lower("baselines.best_hand_s.csr_csc", "s"),
    lower("baselines.best_hand_s.csr_dia", "s"),
    lower("baselines.best_hand_s.csr_ell", "s"),
    lower("baselines.best_hand_s.csc_dia", "s"),
    lower("baselines.best_hand_s.csc_ell", "s"),
    lower("ratio.gen_over_hand.coo_csr", "ratio"),
    lower("ratio.gen_over_hand.coo_dia", "ratio"),
    lower("ratio.gen_over_hand.csr_csc", "ratio"),
    lower("ratio.gen_over_hand.csr_dia", "ratio"),
    lower("ratio.gen_over_hand.csr_ell", "ratio"),
    lower("ratio.gen_over_hand.csc_dia", "ratio"),
    lower("ratio.gen_over_hand.csc_ell", "ratio"),
    lower("ratio.gen_over_sparskit.geomean", "ratio"),
    lower("ratio.gen_over_mkl.geomean", "ratio"),
    lower("ratio.gen_over_taco_noext.coo_csr", "ratio"),
    lower("gen_over_hand.geomean", "ratio"),
    // core.generic
    lower("generic.convert_s.mycsr", "s"),
    lower("generic.convert_s.dcsr", "s"),
    lower("generic.convert_s.mycsc", "s"),
    lower("generic.convert_s.mybcsr", "s"),
    lower("generic.over_engine.mycsr", "ratio"),
    lower("generic.over_engine.dcsr", "ratio"),
    lower("generic.over_engine.mycsc", "ratio"),
    lower("generic.over_engine.mybcsr", "ratio"),
    // core.codegen + ir.simplify + ir.interp, one number from outside
    lower("interp.exec_s.coo_csr", "s"),
    lower("interp.exec_s.csr_csc", "s"),
    lower("interp.exec_s.coo_dia", "s"),
    lower("interp.exec_s.coo3_csf", "s"),
    lower("interp.over_engine.coo_csr", "ratio"),
    lower("interp.over_engine.csr_csc", "ratio"),
    lower("interp.over_engine.coo_dia", "ratio"),
    lower("interp.over_engine.coo3_csf", "ratio"),
    lower("custom_over_stock.geomean", "ratio"),
    // runtime.streaming + stream.sorter
    lower("stream.convert_s.mtx_spill", "s"),
    lower("stream.convert_s.tns_spill", "s"),
    lower("stream.convert_s.mtx_ample", "s"),
    lower("stream.blocks", "count"),
    lower("stream.spilled_runs", "count"),
    lower("stream.spilled_bytes", "bytes"),
    lower("stream.peak_tracked_over_budget", "ratio"),
    lower("stream.over_in_memory", "ratio"),
    // formats.spmv
    lower("spmv.iter_s.banded", "s"),
    lower("spmv.iter_s.blocked", "s"),
    lower("spmv.iter_s.irregular", "s"),
    higher("spmv.speedup_vs_coo.banded", "ratio"),
    higher("spmv.speedup_vs_coo.blocked", "ratio"),
    higher("spmv.speedup_vs_coo.irregular", "ratio"),
    // obs: read from the program's own report, not from spans
    higher("obs.report_coverage", "ratio"),
    lower("obs.report_total_over_wall", "ratio"),
];

/// Metric values by name. Setting a name the tables do not list is a bug in
/// the benchmark, so it panics.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"));
        self.values.insert(def.name, value);
    }

    /// `prefix.suffix`, for the per-case families.
    pub fn set_for(&mut self, prefix: &str, suffix: &str, value: f64) {
        self.set(&format!("{prefix}.{suffix}"), value);
    }

    /// Every metric of the table, in table order; unmeasured ones read 0.
    pub fn all(&self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .map(|d| (d, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Durations of the traced spans, in seconds, by (name, case).
pub struct SpanTable(BTreeMap<(&'static str, &'static str), Vec<f64>>);

impl SpanTable {
    pub fn new(spans: &[Span]) -> Self {
        let mut table: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for s in spans {
            table.entry((s.name, s.case)).or_default().push(s.seconds());
        }
        SpanTable(table)
    }

    pub fn samples<'a>(&'a self, name: &'a str, case: &'a str) -> &'a [f64] {
        self.0.get(&(name, case)).map_or(&[], Vec::as_slice)
    }

    /// Median duration of the spans called `name` in `case`; 0 when none.
    pub fn median(&self, name: &str, case: &str) -> f64 {
        median(self.samples(name, case))
    }
}

/// One pass over a workload's cases: what the workload's `pass` and `extras`
/// write into.
pub struct Pass<'a> {
    pub t: &'a mut Tracer,
    /// Run the full oracle (first warm-up pass) instead of the cheap checks.
    pub full: bool,
    case_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl<'a> Pass<'a> {
    fn new(t: &'a mut Tracer, full: bool, cases: usize) -> Self {
        Pass {
            t,
            full,
            case_s: vec![0.0; cases],
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs case `idx`: `body` makes the calls into the library between one
    /// `Instant` pair; `verify` judges the output after the clock stopped.
    /// An `Err` or a rejected output counts as a failed call.
    pub fn case<O>(
        &mut self,
        idx: usize,
        label: &'static str,
        body: impl FnOnce(&mut Tracer) -> Result<O, ConvertError>,
        verify: impl FnOnce(&O, bool) -> Verdict,
    ) {
        let open = self.t.enter(Layer::Harness, "case", label);
        let start = Instant::now();
        let out = body(self.t);
        self.case_s[idx] = start.elapsed().as_secs_f64();
        self.t.exit(open, 0);
        let verdict = match &out {
            Ok(o) => verify(o, self.full),
            Err(e) => {
                eprintln!("bench_e2e: case {label} returned an error: {e}");
                Verdict::from(false)
            }
        };
        self.count(label, verdict);
    }

    /// Counts attempted calls and the ones that failed verification.
    pub fn count(&mut self, what: &str, verdict: Verdict) {
        if verdict.failed > 0 && self.failed == 0 {
            eprintln!("bench_e2e: {what} failed verification");
        }
        self.attempted += verdict.attempted;
        self.failed += verdict.failed;
    }

    /// Counts one attempted call and whether it passed verification.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.count(what, Verdict::from(ok));
    }
}

/// How many calls a case (or an extra) attempted and how many of them
/// returned `Err` or an output the oracle rejects.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl From<bool> for Verdict {
    fn from(ok: bool) -> Self {
        Verdict {
            attempted: 1,
            failed: !ok as u64,
        }
    }
}

/// What a workload offers the measuring loop.
pub trait Workload {
    /// Case labels, in pass order.
    fn cases(&self) -> &'static [&'static str];
    /// Nonzeros one pass delivers to its caller.
    fn nnz_per_pass(&self) -> u64;
    /// Checksums of the generated inputs (a function of the seed alone).
    fn input_checksums(&self) -> Vec<u64>;
    /// The routes the service reports for the workload's requests.
    fn routes(&self) -> Vec<String>;
    /// Runs every case once.
    fn pass(&mut self, p: &mut Pass);
    /// The extra direct calls some layer metrics need; runs after a traced
    /// pass has closed, so it never counts toward `pass_s`.
    fn extras(&mut self, p: &mut Pass);
    /// Derives the workload's per-layer metrics from the traced spans.
    fn layer_metrics(&self, spans: &SpanTable, m: &mut Metrics);
}

pub struct RunConfig<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the run may write under (inputs, spill runs, trace file).
    pub dir: &'a Path,
    /// Test-only sizes instead of the benchmark's fixed ones.
    pub smoke: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub input_checksums: Vec<u64>,
    pub routes: Vec<String>,
    pub spans: Vec<Span>,
    /// False when `/proc/self/clear_refs` refused the reset and
    /// `peak_rss_mib` covers the whole process, set-up included.
    pub rss_reset: bool,
}

/// The share of the traced pass each layer's self time takes, by layer, as
/// medians over the traced passes.
fn layer_shares(spans: &[Span], m: &mut Metrics) {
    let passes = layer_times_per_pass(spans);
    let share = |layer: Layer| -> f64 {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|(pass_s, layers)| ratio(layers[layer as usize], *pass_s))
            .collect();
        median(&per_pass)
    };
    for layer in Layer::ALL {
        let name = format!("share.{}", layer.as_str());
        // Cache and baseline calls only happen in the extras.
        if PER_LAYER.iter().any(|d| d.name == name) {
            m.set(&name, share(layer));
        }
    }
    let library: Vec<f64> = passes
        .iter()
        .map(|(pass_s, layers)| {
            ratio(
                layers.iter().sum::<f64>() - layers[Layer::Harness as usize],
                *pass_s,
            )
        })
        .collect();
    m.set("trace.layer_sum_over_pass", median(&library));
}

/// Runs one workload for `cfg.seconds` and returns its metrics.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let threads = pool_threads();
    let repeats = if cfg.smoke { SMOKE_REPEATS } else { REPEATS };
    let mut setup_s = Vec::with_capacity(repeats.setups);
    let mut workload = None;
    for _ in 0..repeats.setups {
        // Drop the previous set-up first so its files and memory are gone.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::build(
            cfg.workload,
            cfg.seed,
            threads,
            cfg.dir,
            cfg.smoke,
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("a run sets up at least once");
    let rss_reset = host::reset_peak_rss();

    let cases = workload.cases();
    let mut tracer = Tracer::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut one_pass = |workload: &mut Box<dyn Workload>,
                        tracer: &mut Tracer,
                        full: bool,
                        extras: bool|
     -> (f64, Vec<f64>) {
        let mut p = Pass::new(tracer, full, cases.len());
        let root = p.t.enter(Layer::Harness, "pass", "");
        let start = Instant::now();
        workload.pass(&mut p);
        let pass_s = start.elapsed().as_secs_f64();
        p.t.exit(root, 0);
        if extras {
            workload.extras(&mut p);
        }
        attempted += p.attempted;
        failed += p.failed;
        (pass_s, p.case_s)
    };

    for n in 0..repeats.warmups {
        // The first pass runs the full oracle, over the extras' outputs too.
        one_pass(&mut workload, &mut tracer, n == 0, n == 0 && cfg.trace);
    }

    // A traced run follows every untraced pass with a traced one, so both
    // medians see the same drift and their difference is the tracing overhead.
    let mut pass_s: Vec<f64> = Vec::new();
    let mut traced_pass_s: Vec<f64> = Vec::new();
    let mut case_s: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let started = Instant::now();
    let mut n = 0u32;
    while pass_s.len() < repeats.min_passes || started.elapsed().as_secs_f64() < cfg.seconds {
        if cfg.trace && n > 0 {
            // The extras leave caches and the allocator in another state than
            // a pass does; one discarded pass puts both measured passes
            // behind a pass again.
            one_pass(&mut workload, &mut tracer, false, false);
        }
        let (s, per_case) = one_pass(&mut workload, &mut tracer, false, false);
        pass_s.push(s);
        for (samples, s) in case_s.iter_mut().zip(per_case) {
            samples.push(s);
        }
        if cfg.trace {
            tracer.set(true, n);
            let (s, _) = one_pass(&mut workload, &mut tracer, false, true);
            traced_pass_s.push(s);
            tracer.set(false, n);
        }
        n += 1;
    }

    let metrics = if cfg.trace {
        let mut m = Metrics::new(&PER_LAYER);
        let spans = tracer.spans();
        let untraced = median(&pass_s);
        m.set(
            "trace.overhead_share",
            ratio(median(&traced_pass_s) - untraced, untraced),
        );
        m.set("trace.spans", spans.len() as f64);
        m.set("trace.pass_s.p50", median(&traced_pass_s));
        layer_shares(spans, &mut m);
        workload.layer_metrics(&SpanTable::new(spans), &mut m);
        m.all()
    } else {
        let mut m = Metrics::new(&END_TO_END);
        let p50 = median(&pass_s);
        m.set("setup_s", median(&setup_s));
        m.set("pass_s.p50", p50);
        m.set("pass_s.p75", percentile(&pass_s, 0.75));
        m.set(
            "mnnz_per_s",
            ratio(workload.nnz_per_pass() as f64 / 1e6, p50),
        );
        let case_medians: Vec<f64> = case_s.iter().map(|s| median(s)).collect();
        m.set("case_geomean_s", geomean(&case_medians));
        m.set("peak_rss_mib", host::peak_rss_mib());
        m.all()
    };

    Ok(RunResult {
        attempted,
        failed,
        passes: pass_s.len() + traced_pass_s.len(),
        metrics,
        input_checksums: workload.input_checksums(),
        routes: workload.routes(),
        spans: tracer.into_spans(),
        rss_reset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::WORKLOADS;

    fn smoke(workload: &str, seed: u64, trace: bool) -> RunResult {
        run(&RunConfig {
            workload,
            seed,
            seconds: 0.0,
            trace,
            dir: &std::env::temp_dir(),
            smoke: true,
        })
        .expect("the smoke run sets up")
    }

    #[test]
    fn every_workload_verifies_and_emits_each_metric_once() {
        for (workload, _) in WORKLOADS {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                for seed in [1, 2] {
                    let r = smoke(workload, seed, trace);
                    assert!(r.attempted > 0, "{workload}");
                    assert_eq!(r.failed, 0, "{workload} seed {seed} trace {trace}");
                    let emitted: Vec<&str> = r.metrics.iter().map(|(d, _)| d.name).collect();
                    let listed: Vec<&str> = table.iter().map(|d| d.name).collect();
                    assert_eq!(emitted, listed, "{workload}");
                    if !trace {
                        // End-to-end metrics are never zero.
                        for (def, value) in &r.metrics {
                            assert!(*value > 0.0, "{workload}: {} is {value}", def.name);
                        }
                    } else {
                        assert!(!r.spans.is_empty(), "{workload}");
                    }
                }
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_plain() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for (n, name) in names.iter().enumerate() {
            assert!(!names[..n].contains(name), "{name} is listed twice");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
        }
    }

    #[test]
    fn the_seed_fixes_inputs_routes_and_spills() {
        for (workload, _) in WORKLOADS {
            let a = smoke(workload, 7, false);
            let b = smoke(workload, 7, false);
            let c = smoke(workload, 8, false);
            assert_eq!(a.input_checksums, b.input_checksums, "{workload}");
            // `routes` carries `stream.spilled_runs` on the streamed workload.
            assert_eq!(a.routes, b.routes, "{workload}");
            assert_ne!(a.input_checksums, c.input_checksums, "{workload}");
            assert_eq!(c.failed, 0, "{workload}");
        }
    }

    /// `BENCHMARK.json` is the contract later changes are held to; the tables
    /// above are what the binary prints. They must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (item, def) in listed.iter().zip(table) {
                assert_eq!(text(item, "name"), def.name);
                assert_eq!(text(item, "unit"), def.unit, "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text(item, "better"), better, "{}", def.name);
                if key == "end_to_end" {
                    let bound = item.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                }
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(item, "name"), name);
            assert_eq!(text(item, "why"), why);
            assert!(why.len() <= 200, "{name}");
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
