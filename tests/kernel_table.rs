//! The kernel table answers to one test that *iterates* it, so a new row
//! cannot forget to enrol:
//!
//! (a) every row's routine is byte-identical at 1/2/4 threads and its output
//!     reads back to the source's triples;
//! (b) every consumer agrees with the table's flags — the service reports a
//!     parallel kernel exactly for rows flagged `parallel`, `convert_stream`
//!     materialises exactly the targets without a streamed sort key, and the
//!     planner grants its parallel credit to exactly the flagged rows.
//!
//! Inputs are derived from the rows' own patterns: each pattern expands to
//! sample sources/targets, and a sample counts for a row only when
//! [`kernel_table::lookup`] actually resolves it to that row (a general row
//! is shadowed by the specialised rows above it). Every row must be hit.

use proptest::prelude::*;

use taco_conversion_repro::conv::convert::{convert, convert_with, AnyTensor, FormatId};
use taco_conversion_repro::conv::kernel_table::{self, KernelRow, Pattern, KERNELS, STOCK_IDS};
use taco_conversion_repro::conv::prelude::LevelKind;
use taco_conversion_repro::conv::Format;
use taco_conversion_repro::formats::DokMatrix;
use taco_conversion_repro::planner::{static_edge_units, PlannerConfig, TensorAttrs};
use taco_conversion_repro::remap::stock::mode_permutation;
use taco_conversion_repro::runtime::{
    ConversionService, RoutingPolicy, ServiceConfig, StreamOptions,
};
use taco_conversion_repro::stream::CooBlockStream;
use taco_conversion_repro::tensor::{Shape, SparseTriples};

/// Duplicate-free triples in a scrambled insertion order. Order-2 inputs are
/// square and lower-triangular so that every matrix target — skyline
/// included — stores all of them.
fn triples(order: usize, seed: u64) -> SparseTriples {
    let n = 12 + (seed % 5) as usize;
    let shape = if order == 2 {
        Shape::matrix(n, n)
    } else {
        Shape::tensor3(n, 7, 5)
    };
    let mut coords: Vec<Vec<i64>> = (0..6 * n as u64)
        .map(|k| {
            let h = (k + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ seed)
                .rotate_left(23);
            let i = (h % n as u64) as i64;
            if order == 2 {
                vec![i, ((h >> 20) % (i as u64 + 1)) as i64]
            } else {
                vec![i, ((h >> 20) % 7) as i64, ((h >> 40) % 5) as i64]
            }
        })
        .collect();
    coords.sort_unstable();
    coords.dedup();
    let len = coords.len();
    for k in 0..len {
        coords.swap(k, (k * 7919 + seed as usize) % len);
    }
    let mut t = SparseTriples::new(shape);
    for (k, coord) in coords.into_iter().enumerate() {
        t.push(coord, 1.0 + k as f64).unwrap();
    }
    t
}

/// A dense-rooted custom format over the identity remapping: a registry
/// target that is *not* mode-ordered CSF, so it assembles on the generic
/// driver.
fn custom_format(order: usize) -> Format {
    let mut levels = vec![LevelKind::Compressed; order];
    levels[0] = LevelKind::Dense;
    Format::builder(&format!("KT-custom{order}"))
        .remapping(mode_permutation(&(0..order).collect::<Vec<_>>()))
        .dims(["i", "j", "k"][..order].iter().copied())
        .levels(levels)
        .build()
        .expect("sample registry spec is valid")
}

fn stock_source(id: FormatId, seed: u64) -> AnyTensor {
    let t = triples(id.order(), seed);
    match id {
        FormatId::Dok => AnyTensor::Dok(DokMatrix::from_triples(&t)),
        id => AnyTensor::from_triples(&t, id).expect("stock containers hold the sample"),
    }
}

/// Sample sources a pattern covers.
fn sources(pattern: Pattern, seed: u64) -> Vec<AnyTensor> {
    let stock = |keep: &dyn Fn(FormatId) -> bool| -> Vec<AnyTensor> {
        STOCK_IDS
            .into_iter()
            .filter(|id| keep(*id))
            .map(|id| stock_source(id, seed))
            .collect()
    };
    // The DCSR an order-2 matrix packs into: a rank-N container at order 2.
    let dcsr = convert(&stock_source(FormatId::Coo, seed), Format::csf()).unwrap();
    let custom =
        |id: FormatId| convert(&stock_source(id, seed), custom_format(id.order())).unwrap();
    match pattern {
        Pattern::Is(id) => vec![stock_source(id, seed)],
        Pattern::Bcsr => stock(&|id| matches!(id, FormatId::Bcsr { .. })),
        Pattern::Matrix => stock(&|id| id.order() == 2),
        Pattern::Tensor => [stock(&|id| id.order() == 3), vec![dcsr]].concat(),
        Pattern::Registry => vec![custom(FormatId::Coo), custom(FormatId::Coo3)],
        Pattern::Any => [stock(&|_| true), vec![dcsr, custom(FormatId::Coo)]].concat(),
        Pattern::OrderedCsf => unreachable!("a target-only pattern"),
    }
}

/// Sample targets a pattern covers, for a source of the given order.
fn targets(pattern: Pattern, order: usize) -> Vec<Format> {
    let reversed: Vec<usize> = (0..order).rev().collect();
    match pattern {
        Pattern::Is(id) => vec![Format::stock(id)],
        Pattern::Bcsr => vec![Format::bcsr(2, 2), Format::bcsr(3, 2)],
        Pattern::Matrix => vec![Format::csr(), Format::ell(), Format::bcsr(2, 3)],
        Pattern::Tensor => vec![Format::coo3(), Format::csf()],
        Pattern::OrderedCsf => vec![Format::csf_ordered(&reversed).unwrap()],
        Pattern::Registry => vec![custom_format(order)],
        Pattern::Any if order == 2 => vec![Format::csc(), custom_format(2)],
        Pattern::Any => vec![Format::csf(), custom_format(order)],
    }
}

/// Every (source, target) sample that the table resolves to `row`.
fn samples(row: &'static KernelRow, seed: u64) -> Vec<(AnyTensor, Format)> {
    let mut out = Vec::new();
    for src in sources(row.source, seed) {
        for target in targets(row.target, src.order()) {
            if kernel_table::lookup(&src, &target).is_some_and(|hit| std::ptr::eq(hit, row)) {
                out.push((src.clone(), target));
            }
        }
    }
    out
}

fn service(routing: RoutingPolicy) -> ConversionService {
    ConversionService::new(ServiceConfig {
        threads: 4,
        parallel_nnz_threshold: 0,
        routing,
        online_calibration: false,
    })
}

proptest! {
    // 8 cases by default; CI's PROPTEST_CASES=1024 sweep runs 32.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases / 32))]

    /// (a) Every row, at every thread count, produces the same bytes, and
    /// they read back to the source's nonzeros.
    #[test]
    fn every_row_is_thread_invariant_and_round_trips(seed in 0u64..1 << 32) {
        for row in KERNELS {
            let mut converted = 0;
            for (src, target) in samples(row, seed) {
                // Shape constraints (COO3 needs order 3, matrix targets
                // order 2) surface as errors from the routine itself.
                let Ok(reference) = (row.run)(&src, &target, 1) else { continue };
                converted += 1;
                prop_assert_eq!(reference.format(), target.clone(), "row {}", row.name);
                prop_assert!(
                    reference.to_triples().same_values(&src.to_triples()),
                    "row {}: {} -> {target} lost values", row.name, src.format()
                );
                for threads in [2, 4] {
                    let (got, ran) = convert_with(&src, &target, threads).unwrap();
                    prop_assert!(std::ptr::eq(ran, row), "dispatch ran {}", ran.name);
                    prop_assert_eq!(&got, &reference, "row {} at {threads} threads", row.name);
                }
            }
            prop_assert!(converted > 0, "no sample exercises row {}", row.name);
        }
    }
}

/// (b) The service and the planner read the `parallel` flag off the row.
#[test]
fn consumers_agree_with_the_parallel_flag() {
    let svc = service(RoutingPolicy::Direct);
    let config = |parallel| PlannerConfig {
        parallel,
        exclude_direct: false,
    };
    for row in KERNELS {
        for (src, target) in samples(row, 1) {
            let Ok((_, report)) = svc.convert_traced(&src, target.clone()) else {
                continue;
            };
            assert_eq!(
                report.parallel_kernel,
                row.parallel,
                "service on row {}: {} -> {target}",
                row.name,
                src.format()
            );
            // The planner prices format pairs, i.e. sources at their
            // format's own order (an order-2 tensor container is not one).
            if src.order() != src.format().order() {
                continue;
            }
            let attrs = TensorAttrs::from_matrix(&src);
            let units = |parallel| {
                let (from, cfg) = (src.format(), config(parallel));
                static_edge_units(&from, &target, 1, attrs.nnz, true, &attrs, &cfg)
            };
            assert_eq!(
                units(true) < units(false),
                row.parallel,
                "planner credit on row {}: {} -> {target}",
                row.name,
                src.format()
            );
        }
    }
}

/// (b) `convert_stream` materialises exactly the targets whose facts row has
/// no streamed sort key.
#[test]
fn streams_materialise_exactly_the_targets_without_a_sort_key() {
    for order in [2, 3] {
        let t = triples(order, 3);
        let reversed: Vec<usize> = (0..order).rev().collect();
        let mut candidates: Vec<Format> = STOCK_IDS.map(Format::stock).to_vec();
        candidates.push(Format::csf_ordered(&reversed).unwrap());
        candidates.push(custom_format(order));
        let mut streamed = 0;
        for target in candidates {
            let svc = service(RoutingPolicy::CostModel);
            let stream = CooBlockStream::from_triples(&t, 16);
            let Ok(conv) = svc.convert_stream(stream, target.clone(), &StreamOptions::default())
            else {
                // DOK targets and rank mismatches; nothing was converted.
                continue;
            };
            assert!(conv.tensor.to_triples().same_values(&t), "{target}");
            let keyed = kernel_table::facts(&target).stream_key.is_some();
            assert_eq!(svc.stats().materialized, u64::from(!keyed), "{target}");
            streamed += usize::from(keyed);
        }
        assert!(streamed >= 2, "order {order}: CSF and CSF@perm stream");
    }
}
