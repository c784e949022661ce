//! Integration tests for the `conv-runtime` conversion service, driving it
//! with the Table 2 synthetic workloads: batched conversions agree with the
//! sequential engine at every pool width, planning is amortised across a
//! batch, and routing never changes results.

use taco_conversion_repro::conv::{convert, AnyTensor, Format};
use taco_conversion_repro::formats::{CooMatrix, CsrMatrix};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig};
use taco_conversion_repro::workloads::table2;

fn workload_inputs() -> Vec<AnyTensor> {
    table2()
        .iter()
        .filter(|s| ["jnlbrng1", "cant", "scircuit"].contains(&s.name))
        .flat_map(|s| {
            let t = s.generate(0.01);
            [
                AnyTensor::Coo(CooMatrix::from_triples(&t)),
                AnyTensor::Csr(CsrMatrix::from_triples(&t)),
            ]
        })
        .collect()
}

#[test]
fn batched_service_conversions_match_the_sequential_engine() {
    let sources = workload_inputs();
    let targets = [
        Format::coo(),
        Format::csr(),
        Format::csc(),
        Format::ell(),
        Format::jad(),
        Format::bcsr(4, 4),
    ];
    let jobs: Vec<(AnyTensor, Format)> = sources
        .iter()
        .flat_map(|s| targets.iter().map(move |t| (s.clone(), t.clone())))
        .collect();

    let expected: Vec<AnyTensor> = jobs
        .iter()
        .map(|(src, target)| convert(src, target).expect("sequential conversion"))
        .collect();

    for threads in [1, 4] {
        let service = ConversionService::new(ServiceConfig {
            threads,
            parallel_nnz_threshold: 0,
            ..ServiceConfig::default()
        });
        let results = service.convert_batch(&jobs);
        assert_eq!(results.len(), expected.len());
        for ((job, result), want) in jobs.iter().zip(&results).zip(&expected) {
            let got = result.as_ref().expect("service conversion");
            assert_eq!(
                got,
                want,
                "{} -> {} differs at {} threads",
                job.0.format(),
                job.1,
                threads
            );
        }
        let stats = service.stats();
        assert_eq!(stats.batch_jobs, jobs.len() as u64);
        // 2 source formats x 6 targets = 12 distinct pairs; everything else
        // must come from the cache.
        assert_eq!(stats.plan_misses, 12, "planning is amortised");
        assert!(stats.plan_hits >= (jobs.len() as u64) - 12);
    }
}

#[test]
fn single_conversions_amortise_planning_across_calls() {
    let service = ConversionService::new(ServiceConfig::with_threads(2));
    let sources = workload_inputs();
    for src in &sources {
        service.convert(src, Format::csc()).expect("conversion");
    }
    let stats = service.stats();
    // Two distinct source formats -> two plans, regardless of matrix count.
    assert_eq!(stats.plan_misses, 2);
    assert_eq!(stats.conversions, sources.len() as u64);
}

#[test]
fn multi_hop_requests_cache_one_plan_and_hit_it_on_repeat() {
    use taco_conversion_repro::conv::Format;
    use taco_conversion_repro::workloads::generators::irregular;

    // `irregular` emits row-major triples; destroy the order so the planner
    // prefers COO -> CSR -> BCSR4x4 over the direct block analysis.
    let triples = irregular(256, 256, 12_000, 96, 7).expect("irregular parameters are valid");
    let mut coo = CooMatrix::from_triples(&triples);
    let mut state = 0x9e3779b97f4a7c15u64;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    let src = AnyTensor::Coo(coo);
    let target = Format::bcsr(4, 4);

    let service = ConversionService::new(ServiceConfig::with_threads(1));
    let (first, report) = service.convert_traced(&src, &target).expect("conversion");
    assert_eq!(report.route, "multi-hop");
    assert_eq!(report.path, ["COO", "CSR", "BCSR4x4"]);
    assert!(!report.plan_cache_hit);
    // Only the request's own pair is planned; the hops take no cache entry.
    let stats = service.stats();
    assert_eq!(
        (stats.cached_plans, stats.plan_misses, stats.plan_hits),
        (1, 1, 0)
    );

    let (second, report) = service.convert_traced(&src, &target).expect("conversion");
    assert!(report.plan_cache_hit);
    assert_eq!(service.stats().cached_plans, 1);
    assert_eq!(first, second);
    assert_eq!(first, convert(&src, &target).expect("direct conversion"));
}

#[test]
fn service_rejects_dok_targets_like_the_engine() {
    let service = ConversionService::default();
    let src = workload_inputs().remove(0);
    assert!(service.convert(&src, Format::dok()).is_err());
    assert!(convert(&src, Format::dok()).is_err());
}

#[test]
fn custom_formats_get_plan_caching_and_round_trip_through_the_service() {
    use taco_conversion_repro::conv::prelude::{Format, LevelKind};

    // A user-defined format never named in any enum: doubly compressed rows.
    let dcsr = Format::builder("SERVICE-TEST-DCSR")
        .remap_str("(i,j) -> (i,j)")
        .unwrap()
        .dims(["i", "j"])
        .levels([LevelKind::Compressed, LevelKind::Compressed])
        .build()
        .unwrap();

    let service = ConversionService::new(ServiceConfig::with_threads(2));
    let sources = workload_inputs();
    let coo = &sources[0];
    let reference = coo.to_triples();

    // Custom format as *target*: second convert call for the same pair is a
    // plan-cache hit (plans key on the spec fingerprint).
    let packed = service.convert(coo, &dcsr).expect("stock -> custom");
    let stats = service.stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 0);
    let packed_again = service.convert(coo, &dcsr).expect("stock -> custom again");
    let stats = service.stats();
    assert_eq!(
        stats.plan_misses, 1,
        "second custom conversion replans nothing"
    );
    assert_eq!(stats.plan_hits, 1);
    assert_eq!(packed, packed_again);
    assert_eq!(packed.format(), dcsr);

    // Custom format as *source*: the service converts back out, and the
    // round-trip preserves the matrix.
    let back = service
        .convert(&packed, Format::csr())
        .expect("custom -> stock");
    assert!(back.to_triples().same_values(&reference));
    let stats = service.stats();
    assert_eq!(stats.plan_misses, 2, "custom-source pair planned once");

    // Batches mix stock and custom targets through the same generic API.
    let jobs: Vec<_> = sources.iter().map(|s| (s.clone(), dcsr.clone())).collect();
    let results = service.convert_batch(&jobs);
    for (job, result) in jobs.iter().zip(&results) {
        let got = result.as_ref().expect("batched custom conversion");
        assert!(got.to_triples().same_values(&job.0.to_triples()));
    }
    // Warm-up accepts handles too.
    service
        .warm_up(&[(Format::coo(), dcsr.clone()), (dcsr.clone(), Format::csr())])
        .expect("warm-up with custom handles");
}
