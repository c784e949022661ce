//! Workspace-level property tests for the rank-3 conversion stack: COO3→CSF
//! round-trips preserve the tensor, and the three execution paths (engine,
//! generic spec-driven, generated code through the interpreter) agree bit
//! for bit — the tensor mirror of `tests/roundtrip.rs`.

use proptest::prelude::*;

use taco_conversion_repro::conv::codegen;
use taco_conversion_repro::conv::convert::{convert, convert_with, AnyTensor};
use taco_conversion_repro::conv::engine;
use taco_conversion_repro::conv::generic::{convert_with_spec, LevelOutput};
use taco_conversion_repro::conv::prelude::{Format, LevelKind};
use taco_conversion_repro::formats::{CooTensor, CsfTensor};
use taco_conversion_repro::tensor::{Shape, SparseTriples};

/// Strategy generating small random order-3 tensors (duplicate-free) plus a
/// shuffle seed, so COO3 inputs arrive in arbitrary storage order.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// COO3 → CSF → COO3 preserves the tensor and emits sorted triples (the
    /// pack walks the fiber tree lexicographically).
    #[test]
    fn coo3_csf_roundtrip_preserves_sorted_triples((t, seed) in arb_tensor3()) {
        let coo3 = AnyTensor::Coo3(shuffled_coo3(&t, seed));
        let csf = convert(&coo3, Format::csf()).expect("COO3 -> CSF");
        prop_assert_eq!(csf.format(), Format::csf());
        prop_assert!(csf.to_triples().same_values(&t), "CSF lost values");
        let back = convert(&csf, Format::coo3()).expect("CSF -> COO3");
        let triples = back.to_triples();
        prop_assert!(triples.is_sorted(), "CSF emits fiber-tree order");
        prop_assert!(triples.same_values(&t), "round-trip lost values");
        prop_assert_eq!(triples, t.sorted(), "round-trip equals the sorted input");
    }

    /// The CSF container's reference constructor, the engine routine, and the
    /// root-partitioned kernel at three chunks all build the same fiber tree.
    #[test]
    fn csf_constructions_agree((t, seed) in arb_tensor3()) {
        let coo = shuffled_coo3(&t, seed);
        let reference = CsfTensor::from_triples(&coo.to_triples());
        prop_assert_eq!(&engine::to_csf(&coo), &reference);
        let (chunked, _) = convert_with(&AnyTensor::Coo3(coo), Format::csf(), 3).expect("COO3 -> CSF");
        prop_assert_eq!(&chunked, &AnyTensor::Csf(reference));
    }

    /// The generic (spec-driven) path assembles exactly the engine's CSF
    /// arrays: same crd per level, same pos arrays, same values.
    #[test]
    fn generic_csf_agrees_with_engine((t, seed) in arb_tensor3()) {
        let coo = shuffled_coo3(&t, seed);
        let reference = engine::to_csf(&coo);
        let csf = Format::csf();
        let spec = csf.spec().expect("stock CSF spec");
        let custom = convert_with_spec(&AnyTensor::Coo3(coo), spec).expect("generic CSF");
        let expected = [
            (reference.crd(0).to_vec(), vec![0, reference.num_fibers(0)]),
            (reference.crd(1).to_vec(), reference.pos(0).to_vec()),
            (reference.crd(2).to_vec(), reference.pos(1).to_vec()),
        ];
        for (level, (crd_ref, pos_ref)) in expected.into_iter().enumerate() {
            match &custom.levels[level] {
                LevelOutput::Compressed { pos, crd } => {
                    let crd_usize: Vec<usize> = crd.iter().map(|&c| c as usize).collect();
                    prop_assert_eq!(crd_usize, crd_ref, "crd at level {}", level);
                    prop_assert_eq!(pos, &pos_ref, "pos at level {}", level);
                }
                other => prop_assert!(false, "unexpected level output {:?}", other),
            }
        }
        prop_assert_eq!(&custom.vals, reference.values());
    }

    /// A builder-made order-3 format (mode-reversed CSF, named in no enum)
    /// is a valid conversion source and target: COO3 → custom → CSF
    /// round-trips, and the read-back recovers the canonical coordinates
    /// through the inverted remapping.
    #[test]
    fn custom_order3_format_roundtrips((t, seed) in arb_tensor3()) {
        let reversed = Format::builder("TENSOR-RT-KJI")
            .remap_str("(i,j,k) -> (k,j,i)").expect("remapping parses")
            .dims(["k", "j", "i"])
            .levels([
                LevelKind::Compressed,
                LevelKind::Compressed,
                LevelKind::Compressed,
            ])
            .build()
            .expect("mode-reversed CSF validates");
        let coo3 = AnyTensor::Coo3(shuffled_coo3(&t, seed));
        let packed = convert(&coo3, &reversed).expect("COO3 -> custom");
        prop_assert_eq!(packed.format(), reversed);
        prop_assert_eq!(packed.order(), 3);
        prop_assert!(packed.to_triples().same_values(&t), "custom pack lost values");
        let csf = convert(&packed, Format::csf()).expect("custom -> CSF");
        prop_assert_eq!(
            &csf,
            &convert(&coo3, Format::csf()).expect("direct COO3 -> CSF"),
            "custom round-trip must rebuild the exact fiber tree"
        );
    }

    /// The generated COO3→CSF routine (three counting sorts + pack executed
    /// by the IR interpreter) matches the engine bit for bit, as does the
    /// generated CSF→COO3 unpacking loop.
    #[test]
    fn generated_tensor_code_agrees_with_engine((t, seed) in arb_tensor3()) {
        let coo3 = AnyTensor::Coo3(shuffled_coo3(&t, seed));
        let generated = codegen::execute_format(&coo3, &Format::csf()).expect("generated COO3 -> CSF");
        let engine_result = convert(&coo3, Format::csf()).expect("engine COO3 -> CSF");
        prop_assert_eq!(&generated, &engine_result);
        let unpacked = codegen::execute_format(&generated, &Format::coo3()).expect("generated CSF -> COO3");
        prop_assert_eq!(&unpacked, &convert(&engine_result, Format::coo3()).expect("engine"));
    }
}
