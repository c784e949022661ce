//! The kernel table and the stock-format table each answer to one test that
//! *iterates* them, so a new row cannot forget to enrol:
//!
//! (a) every kernel row's routine is byte-identical at every thread count
//!     (1/2/4; 1/2/3/4/9 and a set of degenerate inputs for the rows that
//!     run over chunks) and its output reads back to the source's triples;
//! (b) every consumer agrees with the table's flags — the service reports a
//!     parallel kernel exactly for rows flagged `parallel`, `convert_stream`
//!     materialises exactly the targets without a streamed sort key, and the
//!     planner grants its parallel credit to exactly the flagged rows;
//! (c) every stock row's name, aliases, spec, facts, container and pinned
//!     fingerprint agree with the `Format` handle everything else names it by.
//!
//! Kernel inputs are derived from the stock table: a container of every
//! stock format (plus the order-2 CSF and custom tensors) against every
//! stock, blocked, mode-ordered and custom target, each pair counted for the
//! row [`kernel_table::lookup`] resolves it to (a general row is shadowed by
//! the specialised rows above it). Every row must be hit.

use proptest::prelude::*;

use taco_conversion_repro::conv::convert::{convert, convert_with, AnyTensor};
use taco_conversion_repro::conv::kernel_table::{self, KernelRow, KERNELS};
use taco_conversion_repro::conv::prelude::LevelKind;
use taco_conversion_repro::conv::stock::STOCK;
use taco_conversion_repro::conv::tunables::{TILE_SCATTER_MIN_NNZ, TRANSPOSE_TILE};
use taco_conversion_repro::conv::{Format, FormatRegistry};
use taco_conversion_repro::formats::DokMatrix;
use taco_conversion_repro::planner::{static_edge_units, PlannerConfig, TensorAttrs};
use taco_conversion_repro::remap::Remapping;
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
        .remapping(Remapping::mode_permutation(&(0..order).collect::<Vec<_>>()))
        .dims(["i", "j", "k"][..order].iter().copied())
        .levels(levels)
        .build()
        .expect("sample registry spec is valid")
}

/// A container of a stock format. DOK, a conversion source only, is built
/// directly.
fn stock_source(format: &Format, seed: u64) -> AnyTensor {
    let t = triples(format.order(), seed);
    match format.spec() {
        None => AnyTensor::Dok(DokMatrix::from_triples(&t)),
        Some(_) => AnyTensor::from_triples(&t, format).expect("stock containers hold the sample"),
    }
}

/// Sample targets for a source of the given order: every stock format, a
/// second block shape, a mode-ordered CSF and a generic-driver format.
fn targets(order: usize) -> Vec<Format> {
    let reversed: Vec<usize> = (0..order).rev().collect();
    let mut targets: Vec<Format> = STOCK.iter().map(|row| row.format()).collect();
    targets.push(Format::bcsr(3, 2));
    targets.push(Format::csf_ordered(&reversed).unwrap());
    targets.push(custom_format(order));
    targets
}

/// Every sample (source, target) pair, with the row the table resolves it
/// to. Sources: a container of every stock format, the DCSR an order-2
/// matrix packs into (a rank-N container at order 2), and a custom tensor of
/// either order.
fn samples(seed: u64) -> Vec<(AnyTensor, Format, &'static KernelRow)> {
    let mut sources: Vec<AnyTensor> = STOCK
        .iter()
        .map(|row| stock_source(&row.format(), seed))
        .collect();
    sources.push(convert(&stock_source(&Format::coo(), seed), Format::csf()).unwrap());
    for coordinates in [Format::coo(), Format::coo3()] {
        let custom = custom_format(coordinates.order());
        sources.push(convert(&stock_source(&coordinates, seed), custom).unwrap());
    }
    let mut out = Vec::new();
    for src in &sources {
        for target in targets(src.order()) {
            if let Some(row) = kernel_table::lookup(src, &target) {
                out.push((src.clone(), target, row));
            }
        }
    }
    out
}

/// The samples the table resolves to `row`.
fn samples_of<'a>(
    samples: &'a [(AnyTensor, Format, &'static KernelRow)],
    row: &'static KernelRow,
) -> impl Iterator<Item = (&'a AnyTensor, &'a Format)> {
    let hits = samples
        .iter()
        .filter(move |(_, _, hit)| std::ptr::eq(*hit, row));
    hits.map(|(src, target, _)| (src, target))
}

/// Inputs at the edges of a schedule, for the rows that run over chunks:
/// nothing to cut, nothing to balance, fewer nonzeros than threads, and —
/// for matrices — sources several scatter tiles wide whose nonzero counts
/// sit just below, just above and at three times the blocked-scatter
/// threshold, so both assembly strategies run at one chunk and at many.
fn degenerate_triples(order: usize) -> Vec<SparseTriples> {
    let shape = |rows: usize, cols: usize| {
        if order == 2 {
            Shape::matrix(rows, cols)
        } else {
            Shape::tensor3(rows, cols, 3)
        }
    };
    let coord = |i: usize, j: usize| {
        let mut c = vec![i as i64, j as i64];
        c.resize(order, (i + j) as i64 % 3);
        c
    };
    let mut out = Vec::new();
    let mut filled = |rows: usize, cols: usize, entries: &[(usize, usize)]| {
        let mut t = SparseTriples::new(shape(rows, cols));
        for (k, &(i, j)) in entries.iter().enumerate() {
            t.push(coord(i, j), 1.0 + k as f64).unwrap();
        }
        out.push(t);
    };
    // Empty.
    filled(5, 4, &[]);
    // One row.
    filled(1, 9, &[(0, 7), (0, 2), (0, 5)]);
    // Every nonzero in one row: all but one balanced chunk is empty.
    filled(6, 8, &[(4, 3), (4, 0), (4, 7), (4, 1), (4, 6)]);
    // Fewer nonzeros than threads.
    filled(7, 7, &[(6, 1), (2, 5)]);
    if order == 2 {
        let rows = 64;
        let cols = 4 * TRANSPOSE_TILE;
        for nnz in [
            TILE_SCATTER_MIN_NNZ - rows,
            TILE_SCATTER_MIN_NNZ + rows,
            3 * TILE_SCATTER_MIN_NNZ + rows,
        ] {
            let per_row = nnz / rows;
            let stride = cols / per_row;
            let entries: Vec<(usize, usize)> = (0..rows)
                .flat_map(|i| (0..per_row).map(move |k| (i, (k * stride + i * 7) % cols)))
                .collect();
            filled(rows, cols, &entries);
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

/// Thread counts a row is compared at against its one-thread output: rows
/// that run over chunks also get an odd count and one past any chunk count
/// the samples can fill.
fn thread_counts(row: &KernelRow) -> &'static [usize] {
    if row.parallel {
        &[2, 3, 4, 9]
    } else {
        &[2, 4]
    }
}

/// Runs `row` on every input it accepts: the one-thread output has the
/// target's format and reads back to the source's nonzeros, and every other
/// thread count dispatches to the same row and produces the same bytes.
/// Returns how many inputs the row converted.
fn check_row(row: &'static KernelRow, inputs: &[(AnyTensor, Format)]) -> usize {
    let mut converted = 0;
    for (src, target) in inputs {
        // Shape constraints (COO3 needs order 3, matrix targets order 2)
        // surface as errors from the routine itself.
        let Ok(reference) = (row.run)(src, target, 1) else {
            continue;
        };
        converted += 1;
        assert_eq!(reference.format(), target.clone(), "row {}", row.name);
        assert!(
            reference.to_triples().same_values(&src.to_triples()),
            "row {}: {} -> {target} lost values",
            row.name,
            src.format()
        );
        for &threads in thread_counts(row) {
            let (got, ran) = convert_with(src, target, threads).unwrap();
            assert!(std::ptr::eq(ran, row), "dispatch ran {}", ran.name);
            assert_eq!(got, reference, "row {} at {threads} threads", row.name);
        }
    }
    converted
}

proptest! {
    // 8 cases by default; CI's PROPTEST_CASES=1024 sweep runs 32.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases / 32))]

    /// (a) Every row, at every thread count, produces the same bytes, and
    /// they read back to the source's nonzeros.
    #[test]
    fn every_row_is_thread_invariant_and_round_trips(seed in 0u64..1 << 32) {
        let samples = samples(seed);
        for row in KERNELS {
            let inputs: Vec<(AnyTensor, Format)> = samples_of(&samples, row)
                .map(|(src, target)| (src.clone(), target.clone()))
                .collect();
            let converted = check_row(row, &inputs);
            prop_assert!(converted > 0, "no sample exercises row {}", row.name);
        }
    }
}

/// (a), at the edges of a schedule: every row that runs over chunks, on the
/// degenerate inputs, against each target the samples give it.
#[test]
fn chunked_rows_are_thread_invariant_on_degenerate_inputs() {
    let samples = samples(1);
    for row in KERNELS.iter().filter(|row| row.parallel) {
        // A row that runs over chunks serves one source format.
        let (source, _) = samples_of(&samples, row).next().expect("row has samples");
        let source = source.format();
        let mut targets: Vec<Format> = Vec::new();
        for (_, target) in samples_of(&samples, row) {
            if !targets.contains(target) {
                targets.push(target.clone());
            }
        }
        let mut inputs = Vec::new();
        for t in degenerate_triples(source.order()) {
            let src = AnyTensor::from_triples(&t, &source).unwrap();
            inputs.extend(targets.iter().map(|target| (src.clone(), target.clone())));
        }
        let converted = check_row(row, &inputs);
        assert_eq!(converted, inputs.len(), "row {} refused an input", row.name);
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
    let samples = samples(1);
    for row in KERNELS {
        for (src, target) in samples_of(&samples, row) {
            let Ok((_, report)) = svc.convert_traced(src, target) else {
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
            let attrs = TensorAttrs::from_matrix(src);
            let units = |parallel| {
                let (from, cfg) = (src.format(), config(parallel));
                static_edge_units(&from, target, 1, attrs.nnz, true, &attrs, &cfg)
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
        let mut streamed = 0;
        for target in targets(order) {
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

/// Fingerprints (spec fingerprints; DOK's source-only registry identity) as
/// they were before the stock table existed, when ten separate lists spelled
/// the stock set out. `PlanCache` keys and registry names rest on them.
const PINNED_FINGERPRINTS: [(&str, u64); 13] = [
    ("COO", 0x07a6e2b45934f603),
    ("CSR", 0x6b2f471592a1793b),
    ("CSC", 0x9e6f2a42514f1f12),
    ("DIA", 0x3156ce94eccbdef2),
    ("ELL", 0x7ad93ace46d94995),
    ("BCSR2x2", 0xd7c3c7d0ca42dbcb),
    ("SKY", 0xb54de3f8b9c641dd),
    ("JAD", 0x6ada24dda274d42b),
    ("DOK", 0x573d6791fc1511be),
    ("COO3", 0x8b43f6ecca8313ce),
    ("CSF", 0xdad4048323b83b97),
    // Further shapes of the parametric row.
    ("BCSR2x3", 0x1358cf9ab957f3b2),
    ("BCSR4x4", 0xb50bc7b3f015b60b),
];

/// (c) Every stock row agrees with the handle that names it.
#[test]
fn stock_rows_agree_with_their_format_handles() {
    for row in &STOCK {
        let format = row.format();
        let name = format.to_string();
        assert!(name.starts_with(row.name), "{name}");
        assert!(std::ptr::eq(format.id().expect("a stock preset"), row));
        // The name and every alias parse to the handle, in any case, and the
        // handle displays the name; the registry files it under that name.
        for spelling in [name.as_str()].iter().chain(row.aliases) {
            for spelling in [spelling.to_uppercase(), spelling.to_lowercase()] {
                let parsed: Format = spelling.parse().expect("a stock spelling");
                assert!(parsed.same_entry(&format), "{spelling}");
                assert_eq!(parsed.to_string(), name);
            }
        }
        let registered = FormatRegistry::global()
            .get(&name)
            .expect("registered eagerly");
        assert!(registered.same_entry(&format), "{name}");
        // The facts consumers read are the row's; where a spec exists, the
        // facts agree with what the spec itself says about iteration order.
        assert_eq!(kernel_table::facts(&format), row.facts, "{name}");
        match format.spec() {
            Some(spec) => {
                spec.validate().expect("stock specs assemble");
                assert_eq!(spec.name, name);
                assert_eq!(spec.fingerprint(), format.fingerprint(), "{name}");
                let in_order = row.facts.rows_in_order;
                assert_eq!(spec.iterates_rows_in_order(), in_order, "{name}");
                assert_eq!(spec.counts_from_structure(), in_order, "{name}");
            }
            None => assert!(
                row.facts.assembly_weight.is_infinite(),
                "{name}: never a target"
            ),
        }
        // A container of the format names the same handle.
        let container = stock_source(&format, 1);
        assert!(container.format().same_entry(&format), "{name}");
        assert!(
            PINNED_FINGERPRINTS
                .iter()
                .any(|(pinned, _)| *pinned == name),
            "{name} has no pinned fingerprint"
        );
    }
    for (name, fingerprint) in PINNED_FINGERPRINTS {
        let format: Format = name.parse().expect("a stock name");
        assert_eq!(format.to_string(), name);
        assert_eq!(format.fingerprint(), fingerprint, "{name} moved");
    }
    let (blocked, skyline) = (Format::bcsr(2, 3), Format::skyline());
    assert!("bcsr2X3".parse::<Format>().unwrap().same_entry(&blocked));
    assert!("Skyline".parse::<Format>().unwrap().same_entry(&skyline));
    for bad in ["BCSRxx2", "BCSR0x2", "BCSR2", "HICOO", ""] {
        let err = bad.parse::<Format>().expect_err(bad);
        assert!(err.to_string().contains(bad), "{err}");
    }
}
