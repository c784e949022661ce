//! Adversarial spec/tensor fuzz sweep.
//!
//! Random builder specs — permutation remappings crossed with every level
//! kind — must either be rejected by `FormatSpec::validate` with the typed
//! `ConvertError::UnsupportedSpec` (never a panic) or assemble and read back
//! every surviving nonzero. On top of the sweep, the mode-ordered CSF path
//! is pinned down exactly: all six order-3 mode orderings produce
//! bit-identical output across the engine, the generic (spec-driven)
//! driver, and the generated-code interpreter, and round-trip back to the
//! canonical triple set at every runtime thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use taco_conversion_repro::conv::convert::{convert, AnyTensor};
use taco_conversion_repro::conv::generic::convert_with_spec;
use taco_conversion_repro::conv::prelude::LevelKind;
use taco_conversion_repro::conv::select::ORDER3_MODE_ORDERS;
use taco_conversion_repro::conv::{codegen, mode, ConvertError, Format, FormatSpec};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::remap::Remapping;
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig};
use taco_conversion_repro::tensor::{Shape, SparseTriples};
use taco_conversion_repro::workloads::generators::{banded, tensor3_fibered, tensor3_uniform};

/// Every level kind the builder accepts, indexable by the fuzz strategies.
const KINDS: [LevelKind; 8] = [
    LevelKind::Dense,
    LevelKind::Compressed,
    LevelKind::CompressedNonUnique,
    LevelKind::Singleton,
    LevelKind::Sliced,
    LevelKind::Squeezed,
    LevelKind::Banded,
    LevelKind::Hashed,
];

const ORDER2_MODE_ORDERS: [[usize; 2]; 2] = [[0, 1], [1, 0]];

static FUZZ_NAME: AtomicUsize = AtomicUsize::new(0);

/// Builds a format from a permutation mode order and a level composition,
/// then checks the fuzz contract: rejection is the typed spec error, and
/// acceptance means the tensor converts and reads back every nonzero that
/// survives the composition's banded (skyline-profile) filtering.
fn check_fuzz_case(t: &SparseTriples, order: &[usize], kinds: &[LevelKind]) {
    let names = ["i", "j", "k"];
    let name = format!("FUZZ-{}", FUZZ_NAME.fetch_add(1, Ordering::Relaxed));
    let built = Format::builder(&name)
        .remapping(Remapping::mode_permutation(order))
        .dims(order.iter().map(|&m| names[m]))
        .levels(kinds.iter().copied())
        .build();
    let format = match built {
        Ok(format) => format,
        Err(err) => {
            assert!(
                matches!(err, ConvertError::UnsupportedSpec { .. }),
                "builder rejection must be the typed spec error, got: {err}"
            );
            return;
        }
    };
    let src = if t.order() == 2 {
        AnyTensor::Coo(CooMatrix::from_triples(t))
    } else {
        AnyTensor::Coo3(CooTensor::from_triples(t))
    };
    let packed = match convert(&src, &format) {
        Ok(packed) => packed,
        Err(err) => panic!("spec {kinds:?} @ {order:?} validated but failed to convert: {err}"),
    };
    // Banded levels store the skyline profile: a nonzero survives only when
    // its banded storage coordinate does not exceed the parent dimension's.
    let mut expected = SparseTriples::new(t.shape().clone());
    for tr in t.iter() {
        let kept = kinds.iter().enumerate().all(|(k, kind)| {
            !matches!(kind, LevelKind::Banded) || tr.coord[order[k]] <= tr.coord[order[k - 1]]
        });
        if kept {
            expected
                .push(tr.coord.clone(), tr.value)
                .expect("in bounds");
        }
    }
    assert_eq!(
        packed.nnz(),
        expected.nnz(),
        "spec {kinds:?} @ {order:?} lost or invented nonzeros"
    );
    assert!(
        packed.to_triples().same_values(&expected),
        "spec {kinds:?} @ {order:?} read back the wrong values"
    );
}

fn arb_matrix() -> impl Strategy<Value = SparseTriples> {
    (1usize..12, 1usize..12).prop_flat_map(|(rows, cols)| {
        let max_nnz = (rows * cols).min(48);
        proptest::collection::vec(((0..rows), (0..cols), -100i32..100), 0..max_nnz).prop_map(
            move |entries| {
                let mut t = SparseTriples::new(Shape::matrix(rows, cols));
                for (i, j, v) in entries {
                    if v != 0 && t.get(&[i as i64, j as i64]) == 0.0 {
                        t.push(vec![i as i64, j as i64], v as f64)
                            .expect("in bounds");
                    }
                }
                t
            },
        )
    })
}

/// Small random order-3 tensors (duplicate-free) plus a shuffle seed, so
/// COO3 inputs arrive in arbitrary storage order.
fn arb_tensor3() -> impl Strategy<Value = (SparseTriples, u64)> {
    (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(d0, d1, d2)| {
        let max_nnz = (d0 * d1 * d2).min(64);
        (
            proptest::collection::vec(((0..d0), (0..d1), (0..d2), -100i32..100), 0..max_nnz),
            1u64..u64::MAX,
        )
            .prop_map(move |(entries, seed)| {
                let mut t = SparseTriples::new(Shape::tensor3(d0, d1, d2));
                for (i, j, k, v) in entries {
                    let coord = vec![i as i64, j as i64, k as i64];
                    if v != 0 && t.get(&coord) == 0.0 {
                        t.push(coord, v as f64).expect("in bounds");
                    }
                }
                (t, seed)
            })
    })
}

fn shuffled_coo3(t: &SparseTriples, seed: u64) -> CooTensor {
    let mut coo = CooTensor::from_triples(t);
    let mut state = seed;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    coo
}

/// The explicit (non-collapsing) spec of a mode-ordered CSF, so the three
/// execution paths can be compared even for the canonical order (which
/// `Format::csf_ordered` folds into the stock CSF handle).
fn ordered_csf_spec(order: &[usize; 3]) -> FormatSpec {
    let names = ["i", "j", "k"];
    FormatSpec::new(
        &mode::csf_ordered_name(order),
        Remapping::mode_permutation(order),
        order.iter().map(|&m| names[m]).collect(),
        vec![LevelKind::Compressed; 3],
    )
}

fn services() -> &'static [(usize, ConversionService)] {
    static SERVICES: OnceLock<Vec<(usize, ConversionService)>> = OnceLock::new();
    SERVICES.get_or_init(|| {
        [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                (
                    threads,
                    ConversionService::new(ServiceConfig {
                        threads,
                        parallel_nnz_threshold: 0,
                        ..ServiceConfig::default()
                    }),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random rank-2 specs: every (permutation, level-composition) pair is
    /// either rejected with the typed spec error or assembles and reads
    /// back correctly. Nothing panics.
    #[test]
    fn random_rank2_specs_are_rejected_or_assemble(
        (t, pi, ki) in (
            arb_matrix(),
            0usize..ORDER2_MODE_ORDERS.len(),
            proptest::collection::vec(0usize..KINDS.len(), 2..3),
        )
    ) {
        let kinds: Vec<LevelKind> = ki.iter().map(|&x| KINDS[x]).collect();
        check_fuzz_case(&t, &ORDER2_MODE_ORDERS[pi], &kinds);
    }

    /// Random rank-3 specs, same contract as the rank-2 sweep.
    #[test]
    fn random_rank3_specs_are_rejected_or_assemble(
        (case, pi, ki) in (
            arb_tensor3(),
            0usize..ORDER3_MODE_ORDERS.len(),
            proptest::collection::vec(0usize..KINDS.len(), 3..4),
        )
    ) {
        let kinds: Vec<LevelKind> = ki.iter().map(|&x| KINDS[x]).collect();
        check_fuzz_case(&case.0, &ORDER3_MODE_ORDERS[pi], &kinds);
    }

    /// All six order-3 CSF mode orderings produce bit-identical assembled
    /// tensors on the engine fast path (`convert`), the generic spec-driven
    /// driver, and the generated counting-sort routine.
    #[test]
    fn mode_ordered_csf_paths_are_bit_identical((t, seed) in arb_tensor3()) {
        let coo3 = AnyTensor::Coo3(shuffled_coo3(&t, seed));
        for order in ORDER3_MODE_ORDERS {
            let spec = ordered_csf_spec(&order);
            let format = Format::from_spec(spec.clone()).expect("ordered CSF spec validates");
            let via_engine = convert(&coo3, &format).expect("engine path");
            let via_generic = convert_with_spec(&coo3, &spec).expect("generic path");
            let via_codegen = codegen::execute_format(&coo3, &format).expect("codegen path");
            match (&via_engine, &via_codegen) {
                (AnyTensor::Custom(a), AnyTensor::Custom(b)) => {
                    prop_assert_eq!(&**a, &via_generic, "engine != generic for CSF@{:?}", order);
                    prop_assert_eq!(&**b, &via_generic, "codegen != generic for CSF@{:?}", order);
                }
                other => prop_assert!(false, "expected custom tensors, got {:?}", other),
            }
        }
    }

    /// Every mode ordering round-trips COO3 -> CSF@order -> COO3 to the
    /// identical canonical triple set, and the packed tensor is
    /// bit-identical at 1, 2, and 4 runtime threads.
    #[test]
    fn mode_orders_roundtrip_at_every_thread_count((t, seed) in arb_tensor3()) {
        let coo3 = AnyTensor::Coo3(shuffled_coo3(&t, seed));
        for order in ORDER3_MODE_ORDERS {
            let format = Format::csf_ordered(&order).expect("permutation");
            let mut packed_by_threads = Vec::new();
            for (threads, svc) in services() {
                let packed = svc.convert(&coo3, format.clone()).expect("pack");
                let back = svc.convert(&packed, Format::coo3()).expect("unpack");
                let triples = back.to_triples();
                prop_assert!(
                    triples.same_values(&t),
                    "CSF@{:?} at {} threads lost values", order, threads
                );
                prop_assert_eq!(
                    triples.sorted(), t.sorted(),
                    "CSF@{:?} at {} threads changed the canonical triple set", order, threads
                );
                packed_by_threads.push(packed);
            }
            prop_assert!(
                packed_by_threads.windows(2).all(|w| w[0] == w[1]),
                "CSF@{:?} is not bit-identical across thread counts", order
            );
        }
    }
}

/// The builder rejects malformed shapes (missing remapping, count
/// mismatches) with the typed spec error, not a panic.
#[test]
fn malformed_builder_shapes_are_typed_errors() {
    let no_remap = Format::builder("FUZZ-NO-REMAP")
        .dims(["i", "j"])
        .levels([LevelKind::Dense, LevelKind::Compressed])
        .build();
    assert!(matches!(
        no_remap,
        Err(ConvertError::UnsupportedSpec { .. })
    ));
    let short_dims = Format::builder("FUZZ-SHORT-DIMS")
        .remapping(Remapping::mode_permutation(&[0, 1]))
        .dims(["i"])
        .levels([LevelKind::Dense, LevelKind::Compressed])
        .build();
    assert!(matches!(
        short_dims,
        Err(ConvertError::UnsupportedSpec { .. })
    ));
    let short_levels = Format::builder("FUZZ-SHORT-LEVELS")
        .remapping(Remapping::mode_permutation(&[0, 1, 2]))
        .dims(["i", "j", "k"])
        .levels([LevelKind::Dense, LevelKind::Compressed])
        .build();
    assert!(matches!(
        short_levels,
        Err(ConvertError::UnsupportedSpec { .. })
    ));
}

/// Hashed levels compose in rank-3 builder specs: an all-hashed,
/// mode-reversed format assembles and reads back every nonzero.
#[test]
fn hashed_levels_compose_in_rank3_specs() {
    let t = taco_conversion_repro::tensor::example::example3_tensor();
    let format = Format::builder("FUZZ-HASH3")
        .remapping(Remapping::mode_permutation(&[2, 1, 0]))
        .dims(["k", "j", "i"])
        .levels([LevelKind::Hashed, LevelKind::Hashed, LevelKind::Hashed])
        .build()
        .expect("hashed chains validate");
    let src = AnyTensor::Coo3(CooTensor::from_triples(&t));
    let packed = convert(&src, &format).expect("COO3 -> hashed");
    assert_eq!(packed.nnz(), t.nnz());
    assert!(packed.to_triples().same_values(&t));
}

/// Banded levels compose in rank-3 builder specs: a CSF-like fiber tree
/// with a banded innermost level stores the skyline profile of each fiber
/// (coordinates above the parent dimension's are dropped, exactly like the
/// stock skyline kernel's lower triangle).
#[test]
fn banded_levels_compose_in_rank3_specs() {
    let mut t = SparseTriples::new(Shape::tensor3(4, 4, 4));
    // In-profile entries (k <= j) plus two above-profile entries.
    for coord in [[0, 2, 0], [0, 2, 2], [1, 3, 1], [2, 1, 1], [3, 0, 0]] {
        t.push(coord.to_vec(), 1.0).expect("in bounds");
    }
    t.push(vec![0, 1, 3], 9.0).expect("in bounds"); // k > j: dropped
    t.push(vec![2, 0, 2], 9.0).expect("in bounds"); // k > j: dropped
    let format = Format::builder("FUZZ-BAND3")
        .remapping(Remapping::mode_permutation(&[0, 1, 2]))
        .dims(["i", "j", "k"])
        .levels([
            LevelKind::Compressed,
            LevelKind::Compressed,
            LevelKind::Banded,
        ])
        .build()
        .expect("banded under a compressed chain validates");
    let src = AnyTensor::Coo3(CooTensor::from_triples(&t));
    let packed = convert(&src, &format).expect("COO3 -> banded fiber tree");
    assert_eq!(packed.nnz(), 5, "above-profile entries are dropped");
    let mut expected = SparseTriples::new(Shape::tensor3(4, 4, 4));
    for tr in t.iter().filter(|tr| tr.coord[2] <= tr.coord[1]) {
        expected
            .push(tr.coord.clone(), tr.value)
            .expect("in bounds");
    }
    assert!(packed.to_triples().same_values(&expected));
}

/// `Display`/`FromStr` round-trip for mode-ordered format names: each of
/// the six orderings parses back to an equal handle, the canonical name
/// collapses to the stock CSF, and malformed orderings are parse errors.
#[test]
fn mode_ordered_names_roundtrip_through_parse() {
    for order in ORDER3_MODE_ORDERS {
        let format = Format::csf_ordered(&order).expect("permutation");
        let reparsed: Format = format.to_string().parse().expect("display name parses");
        assert_eq!(reparsed, format, "Display/FromStr round-trip for {order:?}");
        let by_name: Format = mode::csf_ordered_name(&order).parse().expect("name parses");
        assert_eq!(by_name, format, "spelled-out name parses for {order:?}");
        assert_eq!(by_name.mode_order(), Some(order.to_vec()));
    }
    // The canonical ordering is the stock format under both spellings.
    assert_eq!("CSF@0,1,2".parse::<Format>().unwrap(), Format::csf());
    assert_eq!("CSF@0,1,2".parse::<Format>().unwrap().name(), "CSF");
    // Parsing is case-insensitive like the stock format names.
    assert_eq!(
        "csf@2,1,0".parse::<Format>().unwrap(),
        Format::csf_ordered(&[2, 1, 0]).unwrap()
    );
    for bad in ["CSF@0,0,1", "CSF@1,2,3", "CSF@", "CSF@a,b,c", "CSF@0,1,2,2"] {
        assert!(bad.parse::<Format>().is_err(), "{bad} must not parse");
    }
}

/// `auto_select` reads the stats of each workload class and picks a
/// different format for each: structureless uniform tensors keep plain
/// coordinates, fibered tensors take the CSF tree, banded matrices take
/// DIA.
#[test]
fn auto_select_distinguishes_workload_classes() {
    let uniform = tensor3_uniform([30, 30, 30], 1000, 7).expect("uniform generator");
    let fibered = tensor3_fibered([16, 32, 64], 4, 8, 7).expect("fibered generator");
    let band = banded(64, 64, &[0, 1, -1], 5).expect("banded generator");
    let u = taco_conversion_repro::conv::auto_select(&AnyTensor::Coo3(CooTensor::from_triples(
        &uniform,
    )));
    let f = taco_conversion_repro::conv::auto_select(&AnyTensor::Coo3(CooTensor::from_triples(
        &fibered,
    )));
    let b =
        taco_conversion_repro::conv::auto_select(&AnyTensor::Coo(CooMatrix::from_triples(&band)));
    assert_eq!(u, Format::coo3(), "uniform scatter keeps coordinates");
    assert_eq!(f, Format::csf(), "fiber structure pays for the CSF tree");
    assert_eq!(b, Format::dia(), "banded structure pays for DIA");
    assert!(u != f && f != b && u != b, "three classes, three formats");
}
