//! Planned-route equivalence: every route the planner can pick — direct,
//! via-COO, or a multi-hop chain, from stock and custom sources alike — must
//! produce output bit-identical to the sequential direct conversion, at
//! every thread count. On top of the random sweep, the interesting route
//! shapes are pinned deterministically (1-, 2-, and 3-hop paths, the
//! custom → stock → stock chain, the no-path fallback), and the calibration
//! loop is checked for monotonicity: an edge that keeps measuring slow keeps
//! getting more expensive.

use proptest::prelude::*;

use taco_conversion_repro::conv::convert::{convert, AnyTensor};
use taco_conversion_repro::conv::prelude::LevelKind;
use taco_conversion_repro::conv::Format;
use taco_conversion_repro::formats::CooMatrix;
use taco_conversion_repro::planner::{PlannerConfig, TensorAttrs};
use taco_conversion_repro::remap::Remapping;
use taco_conversion_repro::runtime::{ConversionService, Route, RoutingPolicy, ServiceConfig};
use taco_conversion_repro::tensor::{Shape, SparseTriples};
use taco_conversion_repro::workloads::generators::{banded, irregular};

/// The thread counts every equivalence assertion sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

fn service(threads: usize, routing: RoutingPolicy) -> ConversionService {
    ConversionService::new(ServiceConfig {
        threads,
        parallel_nnz_threshold: 0,
        routing,
        ..ServiceConfig::default()
    })
}

/// Converts through a service under the given policy and requires the result
/// to be bit-identical to the sequential direct engine.
fn assert_route_equivalent(src: &AnyTensor, target: &Format) {
    let expected = convert(src, target).expect("direct conversion");
    for threads in THREADS {
        for routing in [
            RoutingPolicy::CostModel,
            RoutingPolicy::MultiHop,
            RoutingPolicy::Direct,
        ] {
            let got = service(threads, routing)
                .convert(src, target.clone())
                .expect("routed conversion");
            assert_eq!(
                got,
                expected,
                "{} -> {target} differs under {routing:?} at {threads} thread(s)",
                src.format()
            );
        }
    }
}

/// A registered custom format (compressed/compressed, identity remap) used
/// as a chain *source*.
fn custom_dcsr(name: &str) -> Format {
    Format::builder(name)
        .remapping(Remapping::mode_permutation(&[0, 1]))
        .dims(["i", "j"])
        .levels([LevelKind::Compressed, LevelKind::Compressed])
        .build()
        .expect("compressed/compressed spec is valid")
}

/// A large-ish shuffled irregular matrix: the instance class whose
/// COO → BCSR conversions the cost model routes through CSR. The generator
/// emits row-major triples, so the entry order is broken deterministically
/// before packing.
fn shuffled_irregular() -> AnyTensor {
    let triples = irregular(256, 256, 12_000, 96, 7).expect("irregular parameters are valid");
    let mut entries: Vec<(Vec<i64>, f64)> = triples
        .iter()
        .map(|tr| (tr.coord.to_vec(), tr.value))
        .collect();
    let n = entries.len();
    for i in 0..n {
        let j = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(1) >> 16) as usize % n;
        entries.swap(i, j);
    }
    let mut shuffled = SparseTriples::new(triples.shape().clone());
    for (coord, value) in entries {
        shuffled.push(coord, value).unwrap();
    }
    AnyTensor::Coo(CooMatrix::from_triples(&shuffled))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random matrices (random shape, population, and entry order) times
    /// the full stock target set: whatever the planner decides per pair and
    /// thread count must match the direct engine byte for byte.
    #[test]
    fn planned_routes_match_direct_results(
        (rows, cols, density, shuffle_seed, target_ix) in
            (4usize..40, 4usize..40, 1usize..8, 0u64..4, 0usize..6)
    ) {
        let targets = ["CSR", "CSC", "ELL", "DIA", "JAD", "BCSR4x4"];
        let target: Format = targets[target_ix].parse().expect("stock target parses");
        let nnz = (rows * cols * density / 16).max(1);
        let mut t = SparseTriples::new(Shape::matrix(rows, cols));
        // Deterministic scatter, then optionally break row order with a
        // multiplicative shuffle of the insertion sequence.
        let mut coords: Vec<(i64, i64)> = (0..nnz)
            .map(|k| {
                let h = (k as u64).wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
                ((h % rows as u64) as i64, ((h >> 32) % cols as u64) as i64)
            })
            .collect();
        coords.sort_unstable();
        coords.dedup();
        if shuffle_seed > 0 {
            let n = coords.len();
            for i in 0..n {
                let j = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(shuffle_seed) as usize) % n;
                coords.swap(i, j);
            }
        }
        for (k, &(i, j)) in coords.iter().enumerate() {
            t.push(vec![i, j], 1.0 + k as f64).unwrap();
        }
        let src = AnyTensor::Coo(CooMatrix::from_triples(&t));
        assert_route_equivalent(&src, &target);
    }
}

/// 1-hop: an already row-ordered COO stays on the direct edge, and the
/// result matches.
#[test]
fn ordered_sources_take_the_direct_route() {
    let triples = banded(64, 64, &[-1, 0, 1], 3).expect("banded parameters are valid");
    let src = AnyTensor::Coo(CooMatrix::from_triples(&triples));
    let svc = service(1, RoutingPolicy::CostModel);
    let route = svc.route_for(&src, Format::csr()).expect("plans");
    assert_eq!(route, Route::Direct);
    assert_route_equivalent(&src, &Format::csr());
}

/// 2-hop: the shuffled irregular COO → BCSR pair is the cost model's
/// flagship chain (COO → CSR → BCSR), and the chained bytes match direct.
#[test]
fn shuffled_coo_to_bcsr_chains_through_csr_and_matches() {
    let src = shuffled_irregular();
    let target: Format = "BCSR4x4".parse().expect("stock target parses");
    let svc = service(1, RoutingPolicy::CostModel);
    let route = svc.route_for(&src, target.clone()).expect("plans");
    match route {
        Route::MultiHop(path) => {
            let names: Vec<String> = path.iter().map(|f| f.to_string()).collect();
            assert_eq!(names, ["COO", "CSR", "BCSR4x4"]);
        }
        other => panic!("expected a multi-hop route, got {other:?}"),
    }
    assert_route_equivalent(&src, &target);
}

/// 3-hop: a padded DIA source heading to a block target composes
/// DIA → COO → CSR → BCSR, and the bytes still match.
#[test]
fn padded_sources_compose_three_hops_and_match() {
    let triples = irregular(160, 160, 4_000, 60, 11).expect("irregular parameters are valid");
    let coo = AnyTensor::Coo(CooMatrix::from_triples(&triples));
    let dia = convert(&coo, Format::dia()).expect("DIA stores any matrix");
    let target: Format = "BCSR4x4".parse().expect("stock target parses");
    let svc = service(1, RoutingPolicy::CostModel);
    if let Route::MultiHop(path) = svc.route_for(&dia, target.clone()).expect("plans") {
        let names: Vec<String> = path.iter().map(|f| f.to_string()).collect();
        assert_eq!(names, ["DIA", "COO", "CSR", "BCSR4x4"]);
    } else {
        panic!("expected a multi-hop route for the padded source");
    }
    assert_route_equivalent(&dia, &target);
}

/// Custom → stock → stock: a registry-format source forced onto the format
/// graph chains through a stock intermediate and matches the direct result.
#[test]
fn custom_sources_chain_through_stock_intermediates() {
    let format = custom_dcsr("RTEQ-DCSR");
    let src = convert(&shuffled_irregular(), &format).expect("custom packs");
    let target = Format::csc();
    let svc = service(1, RoutingPolicy::MultiHop);
    if let Route::MultiHop(path) = svc.route_for(&src, target.clone()).expect("plans") {
        assert_eq!(path.len(), 3, "custom -> stock -> stock, got {path:?}");
        assert_eq!(path[0], format);
        assert!(path[1].spec().is_none() || path[1].id().is_some());
        assert_eq!(path[2], target);
    } else {
        panic!("forced multi-hop should produce a chain for a custom source");
    }
    assert_route_equivalent(&src, &target);
}

/// No-path fallback: when the forced-hop planner finds no admissible chain
/// (the order-2 intermediate pool is exactly {COO, CSR}, and both ends of
/// CSR → COO sit in it), the service degrades to the direct edge instead of
/// failing. The fully-unplannable case (planner returns no route at all,
/// e.g. a DOK target) is covered by the planner's own unit tests, and
/// surfaces as the plan cache's error before routing starts.
#[test]
fn no_path_falls_back_to_the_direct_route() {
    let triples = banded(32, 32, &[0, 2], 5).expect("banded parameters are valid");
    let coo = AnyTensor::Coo(CooMatrix::from_triples(&triples));
    let csr = convert(&coo, Format::csr()).expect("CSR stores any matrix");
    let svc = service(1, RoutingPolicy::MultiHop);
    let route = svc.route_for(&csr, Format::coo()).expect("plans");
    assert_eq!(route, Route::Direct);
    assert_route_equivalent(&csr, &Format::coo());
}

/// Calibration monotonicity: with a steady reference edge, an edge that
/// keeps measuring slower than predicted gets a monotonically non-decreasing
/// multiplier (until the safety clamp).
#[test]
fn repeated_slow_observations_monotonically_raise_an_edge() {
    let svc = service(1, RoutingPolicy::CostModel);
    let graph = svc.format_graph();
    let attrs = TensorAttrs {
        order: 2,
        nnz: 10_000,
        stored_entries: 10_000,
        rows: 256,
        cols: 256,
        rows_in_order: false,
        max_nnz_per_row: None,
    };
    let cfg = PlannerConfig::default();
    let (coo, csr, csc) = (Format::coo(), Format::csr(), Format::csc());
    let nominal = graph
        .edge_units(&coo, &csr, attrs.stored_entries, false, &attrs, &cfg)
        .expect("stock edge exists") as u64;
    // Reference edge observed at roughly its predicted speed.
    for _ in 0..8 {
        graph.observe(
            &coo,
            &csc,
            attrs.stored_entries,
            false,
            &attrs,
            &cfg,
            2 * nominal,
        );
    }
    let mut last = graph.cost_model().multiplier(&coo, &csr);
    let mut slow_ns = 4 * nominal;
    for _ in 0..12 {
        graph.observe(
            &coo,
            &csr,
            attrs.stored_entries,
            false,
            &attrs,
            &cfg,
            slow_ns,
        );
        let now = graph.cost_model().multiplier(&coo, &csr);
        assert!(
            now + 1e-9 >= last,
            "multiplier regressed: {now} after {last}"
        );
        last = now;
        slow_ns = slow_ns.saturating_mul(2);
    }
    assert!(last > 1.0, "a consistently slow edge must end up penalised");
}
