//! `convert_small`: many distinct 2k-nnz requests cycling five targets, first
//! one at a time through `service.convert`, then as one `convert_batch`.
//! Per-request cost — plan-cache hit, `route_for`, dispatch, report assembly,
//! pool hand-off — is a visible share of each request, and every input fits
//! in L2.

use conv_runtime::{ConversionService, PlanCache, Route};
use sparse_conv::{AnyTensor, ConvertError, Format};

use super::{hit_ratio, multi_hop_share, parallel_share, parse_format, route_names, service};
use crate::harness::{Metrics, Pass, SpanTable, Verdict, Workload};
use crate::inputs::{checksum, gen_irregular, shuffled_coo, sub_seed, Expected};
use crate::stats::{median, percentile, ratio};
use crate::trace::Layer;

struct Sizes {
    /// Distinct matrices; one request each per case and pass.
    matrices: usize,
    /// Nonzeros per matrix (`gen_irregular` makes it `nnz / 7` square).
    nnz: usize,
}

const FULL: Sizes = Sizes {
    matrices: 512,
    nnz: 2_000,
};
const SMOKE: Sizes = Sizes {
    matrices: 10,
    nnz: 140,
};

const CASES: [&str; 2] = ["loop", "batch"];
/// The targets the requests cycle through; the last is a builder format, so a
/// fifth of the requests run on the generic driver.
const TARGETS: [&str; 5] = [
    "CSR",
    "CSC",
    "BCSR4x4",
    "JAD",
    "DCSR:(i,j)->(i,j):i,j:compressed,compressed",
];
/// Warm lookups timed under one span (a single one is shorter than the two
/// clock reads around it).
const WARM_CALLS: u64 = 256;

pub struct ConvertSmall {
    threads: usize,
    service: ConversionService,
    /// One request per matrix: the source and the target it asks for.
    jobs: Vec<(AnyTensor, Format)>,
    expected: Vec<Expected>,
    targets: Vec<Format>,
    routes: Vec<Route>,
}

pub fn build(seed: u64, threads: usize, smoke: bool) -> Result<Box<dyn Workload>, ConvertError> {
    let sizes = if smoke { SMOKE } else { FULL };
    let targets = TARGETS
        .iter()
        .map(|t| parse_format(t))
        .collect::<Result<Vec<Format>, _>>()?;
    let service = service(threads);
    let mut jobs = Vec::with_capacity(sizes.matrices);
    let mut expected = Vec::with_capacity(sizes.matrices);
    let mut routes = Vec::with_capacity(sizes.matrices);
    for k in 0..sizes.matrices {
        let s = sub_seed(seed, k as u64);
        let triples = gen_irregular(sizes.nnz, s);
        let src = AnyTensor::Coo(shuffled_coo(&triples, s));
        let target = targets[k % targets.len()].clone();
        routes.push(service.route_for(&src, &target)?);
        expected.push(Expected::new(&triples));
        jobs.push((src, target));
    }
    Ok(Box::new(ConvertSmall {
        threads,
        service,
        jobs,
        expected,
        targets,
        routes,
    }))
}

/// The layer a request's time belongs to: the generic driver for a builder
/// format, the service (and the kernels under it) for a stock one.
fn layer_of(target: &Format) -> Layer {
    if target.id().is_some() {
        Layer::Service
    } else {
        Layer::Generic
    }
}

impl Workload for ConvertSmall {
    fn cases(&self) -> &'static [&'static str] {
        &CASES
    }

    fn nnz_per_pass(&self) -> u64 {
        CASES.len() as u64 * self.expected.iter().map(|e| e.nnz as u64).sum::<u64>()
    }

    fn input_checksums(&self) -> Vec<u64> {
        self.jobs.iter().map(|(src, _)| checksum(src)).collect()
    }

    fn routes(&self) -> Vec<String> {
        // One per target is enough to read; every request's route counts in
        // `planner.multi_hop_share`.
        route_names(&self.routes[..self.targets.len().min(self.routes.len())])
    }

    fn pass(&mut self, p: &mut Pass) {
        let requests = self.jobs.len() as u64;
        // One at a time. The outputs are judged as they arrive: keeping a
        // pass's worth of them would cost more memory than the inputs.
        let full = p.full;
        p.case(
            0,
            CASES[0],
            |t| {
                let mut failed = 0u64;
                for ((src, target), expected) in self.jobs.iter().zip(&self.expected) {
                    let out = t.call(layer_of(target), "service.request", CASES[0], 1, || {
                        self.service.convert(src, target)
                    });
                    failed += !out.is_ok_and(|o| expected.tensor_ok(&o, full)) as u64;
                }
                Ok(failed)
            },
            |failed, _| Verdict {
                attempted: requests,
                failed: *failed,
            },
        );
        // The same jobs as one batch across the pool.
        p.case(
            1,
            CASES[1],
            |t| {
                Ok(t.call(
                    Layer::Service,
                    "service.convert_batch",
                    CASES[1],
                    requests,
                    || self.service.convert_batch(&self.jobs),
                ))
            },
            |outs, full| Verdict {
                attempted: requests,
                failed: outs
                    .iter()
                    .zip(&self.expected)
                    .filter(|(out, expected)| {
                        !out.as_ref().is_ok_and(|o| expected.tensor_ok(o, full))
                    })
                    .count() as u64,
            },
        );
    }

    fn extras(&mut self, p: &mut Pass) {
        let (src, _) = &self.jobs[0];
        // PlanCache::plan, cold then warm, on a cache of its own.
        let cache = PlanCache::new();
        for target in &self.targets {
            let planned = p.t.call(Layer::Cache, "cache.plan_miss", "", 1, || {
                cache.plan(src.format(), target)
            });
            p.check("PlanCache::plan", planned.is_ok());
        }
        let target = &self.targets[0];
        let planned =
            p.t.call(Layer::Cache, "cache.plan_hit", "", WARM_CALLS, || {
                (0..WARM_CALLS).all(|_| cache.plan(src.format(), target).is_ok())
            });
        p.check("PlanCache::plan", planned);

        // route_for on a fresh service: the first call per target plans, the
        // rest find the plan cached.
        let fresh = service(self.threads);
        for target in &self.targets {
            let route = p.t.call(Layer::Planner, "planner.route_cold", "", 1, || {
                fresh.route_for(src, target)
            });
            p.check("route_for", route.is_ok());
        }
        let routed =
            p.t.call(Layer::Planner, "planner.route_warm", "", WARM_CALLS, || {
                (0..WARM_CALLS).all(|_| fresh.route_for(src, target).is_ok())
            });
        p.check("route_for", routed);

        // Dispatch overhead: every request through a one-thread service, then
        // straight through the engine's entry point.
        let single = service(1);
        type Convert<'a> = &'a dyn Fn(&AnyTensor, &Format) -> Result<AnyTensor, ConvertError>;
        let paths: [(Layer, &'static str, Convert); 2] = [
            (Layer::Service, "service.convert_t1_all", &|src, target| {
                single.convert(src, target)
            }),
            (Layer::Engine, "engine.convert_all", &|src, target| {
                sparse_conv::convert(src, target)
            }),
        ];
        let requests = self.jobs.len() as u64;
        for (layer, name, convert) in paths {
            let mut failed = 0u64;
            let open = p.t.enter(layer, name, "");
            for ((src, target), expected) in self.jobs.iter().zip(&self.expected) {
                let out = convert(src, target);
                failed += !out.is_ok_and(|o| expected.tensor_ok(&o, p.full)) as u64;
            }
            p.t.exit(open, requests);
            p.count(
                name,
                Verdict {
                    attempted: requests,
                    failed,
                },
            );
        }
    }

    fn layer_metrics(&self, spans: &SpanTable, m: &mut Metrics) {
        let requests = self.jobs.len() as f64;
        let request_us: Vec<f64> = spans
            .samples("service.request", CASES[0])
            .iter()
            .map(|s| s * 1e6)
            .collect();
        m.set("service.request_us.p50", median(&request_us));
        m.set("service.request_us.p99", percentile(&request_us, 0.99));
        let per_request = |name: &str| -> f64 { spans.median(name, "") / requests * 1e6 };
        m.set(
            "service.dispatch_overhead_us",
            per_request("service.convert_t1_all") - per_request("engine.convert_all"),
        );
        m.set(
            "pool.batch_speedup",
            ratio(
                spans.median("case", CASES[0]),
                spans.median("case", CASES[1]),
            ),
        );
        m.set(
            "cache.plan_miss_us",
            spans.median("cache.plan_miss", "") * 1e6,
        );
        m.set(
            "cache.plan_hit_ns",
            spans.median("cache.plan_hit", "") / WARM_CALLS as f64 * 1e9,
        );
        m.set(
            "planner.route_cold_us",
            spans.median("planner.route_cold", "") * 1e6,
        );
        m.set(
            "planner.route_warm_us",
            spans.median("planner.route_warm", "") / WARM_CALLS as f64 * 1e6,
        );
        m.set("planner.multi_hop_share", multi_hop_share(&self.routes));
        let stats = [self.service.stats()];
        m.set("cache.hit_ratio", hit_ratio(&stats));
        m.set("service.parallel_share", parallel_share(&stats));
    }
}
