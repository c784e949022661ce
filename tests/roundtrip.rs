//! Workspace-level integration tests: conversions between every pair of
//! supported formats preserve the matrix, on both hand-picked and randomly
//! generated inputs (property-based).

use proptest::prelude::*;

use taco_conversion_repro::conv::convert::{convert, AnyTensor};
use taco_conversion_repro::conv::engine;
use taco_conversion_repro::conv::prelude::{Format, LevelKind};
use taco_conversion_repro::formats::{baselines, CooMatrix, CsrMatrix, DokMatrix};
use taco_conversion_repro::tensor::{MatrixStats, SparseTriples};

fn all_targets() -> Vec<Format> {
    vec![
        Format::coo(),
        Format::csr(),
        Format::csc(),
        Format::dia(),
        Format::ell(),
        Format::bcsr(2, 3),
        Format::jad(),
    ]
}

/// Every matrix in every target format, plus DOK (a source-only format built
/// through its reference constructor; `convert` rejects it as a target).
fn all_sources(t: &SparseTriples) -> Vec<AnyTensor> {
    let coo = AnyTensor::Coo(CooMatrix::from_triples(t));
    let mut sources: Vec<AnyTensor> = all_targets()
        .into_iter()
        .map(|f| convert(&coo, f).expect("source conversion"))
        .collect();
    sources.push(AnyTensor::Dok(DokMatrix::from_triples(t)));
    sources
}

/// Strategy generating small random sparse matrices (as coordinate/value
/// lists with possibly duplicated coordinates removed).
fn arb_matrix() -> impl Strategy<Value = SparseTriples> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let max_nnz = (rows * cols).min(64);
        proptest::collection::vec(((0..rows), (0..cols), -100i32..100), 0..max_nnz).prop_map(
            move |entries| {
                let mut t =
                    SparseTriples::new(taco_conversion_repro::tensor::Shape::matrix(rows, cols));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Converting through any pair of formats preserves the matrix values.
    #[test]
    fn conversion_preserves_values(t in arb_matrix()) {
        for src in all_sources(&t) {
            prop_assert!(src.to_triples().same_values(&t), "building {} lost values", src.format());
            for dst_format in all_targets() {
                let dst = convert(&src, &dst_format).expect("target conversion");
                prop_assert!(
                    dst.to_triples().same_values(&t),
                    "{} -> {} lost values",
                    src.format(),
                    dst_format
                );
            }
            prop_assert!(convert(&src, Format::dok()).is_err(), "DOK target must be rejected");
        }
    }

    /// The generated conversions agree with the library baselines.
    #[test]
    fn generated_routines_agree_with_baselines(t in arb_matrix()) {
        let coo = CooMatrix::from_triples(&t);
        let csr = CsrMatrix::from_triples(&t);

        let ours = engine::to_csr(&coo, 1).unwrap();
        let skit = baselines::sparskit::coo_to_csr(&coo);
        prop_assert_eq!(ours.pos(), skit.pos());
        prop_assert!(ours.to_triples().same_values(&skit.to_triples()));
        let noext = baselines::taco_noext::coo_to_csr(&coo);
        prop_assert!(noext.to_triples().same_values(&t));

        let ours = engine::to_dia(&csr).expect("DIA conversion");
        let skit = baselines::sparskit::csr_to_dia(&csr);
        prop_assert_eq!(ours.offsets(), skit.offsets());
        prop_assert_eq!(ours.values(), skit.values());

        let ours = engine::to_ell(&csr).expect("ELL conversion");
        let skit = baselines::sparskit::csr_to_ell(&csr);
        prop_assert_eq!(ours.slices(), skit.slices());
        prop_assert_eq!(ours.values(), skit.values());

        let ours = engine::to_csc(&csr, 1).unwrap();
        let mkl = baselines::mkl::csr_to_csc(&csr);
        prop_assert!(ours.to_triples().same_values(&mkl.to_triples()));
    }

    /// SpMV gives identical results before and after conversion (the
    /// end-to-end property applications actually rely on).
    #[test]
    fn spmv_is_preserved_by_conversion(t in arb_matrix()) {
        let reference = engine::spmv_fingerprint(&CooMatrix::from_triples(&t));
        for converted in all_sources(&t) {
            let format = converted.format();
            let fingerprint = match &converted {
                AnyTensor::Coo(m) => engine::spmv_fingerprint(m),
                AnyTensor::Csr(m) => engine::spmv_fingerprint(m),
                AnyTensor::Csc(m) => engine::spmv_fingerprint(m),
                AnyTensor::Dia(m) => engine::spmv_fingerprint(m),
                AnyTensor::Ell(m) => engine::spmv_fingerprint(m),
                AnyTensor::Bcsr(m) => engine::spmv_fingerprint(m),
                AnyTensor::Skyline(m) => engine::spmv_fingerprint(m),
                AnyTensor::Jad(m) => engine::spmv_fingerprint(m),
                AnyTensor::Dok(m) => engine::spmv_fingerprint(m),
                AnyTensor::Coo3(_) | AnyTensor::Csf(_) | AnyTensor::Custom(_) => {
                    unreachable!("all_sources builds order-2 stock containers only")
                }
            };
            for (a, b) in reference.iter().zip(&fingerprint) {
                prop_assert!((a - b).abs() < 1e-9, "{}: {} vs {}", format, a, b);
            }
        }
    }

    /// Spec identity: two independently built specs with equal fingerprints
    /// are the *same* `Format` in the registry — the same handle, the same
    /// entry — regardless of which block shape parametrises them.
    #[test]
    fn equal_fingerprints_are_the_same_registry_format((br, bc) in (1usize..6, 1usize..6)) {
        let build = || {
            Format::builder(&format!("BCSR{br}x{bc}"))
                .remapping(taco_conversion_repro::remap::Remapping::blocked(br, bc))
                .dims(["bi", "bj", "li", "lj"])
                .levels([
                    LevelKind::Dense,
                    LevelKind::Compressed,
                    LevelKind::Dense,
                    LevelKind::Dense,
                ])
                .build()
                .expect("the stock BCSR composition validates")
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(&a, &b);
        prop_assert!(a.same_entry(&b), "interning deduplicates equal specs");
        // The rebuilt spec *is* the stock preset: same fingerprint, so the
        // registry resolves it to the BCSR entry with its stock identity.
        let stock = Format::bcsr(br, bc);
        prop_assert_eq!(&a, &stock);
        prop_assert!(a.same_entry(&stock));
        prop_assert_eq!(a.id().map(|row| row.name), Some("BCSR"));
    }

    /// Custom-format round-trip: stock → custom → stock preserves the
    /// triples, for a DCSR-like builder format that exists in no enum.
    #[test]
    fn stock_to_custom_to_stock_preserves_triples(t in arb_matrix()) {
        let dcsr = Format::builder("ROUNDTRIP-DCSR")
            .remap_str("(i,j) -> (i,j)").expect("remapping parses")
            .dims(["i", "j"])
            .levels([LevelKind::Compressed, LevelKind::Compressed])
            .build()
            .expect("DCSR composition validates");
        for src in all_sources(&t) {
            let packed = convert(&src, &dcsr).expect("stock -> custom");
            prop_assert_eq!(packed.format(), dcsr.clone());
            prop_assert_eq!(packed.nnz(), t.nnz());
            prop_assert!(
                packed.to_triples().same_values(&t),
                "{} -> custom lost values",
                src.format()
            );
            let back = convert(&packed, Format::csr()).expect("custom -> stock");
            prop_assert!(back.to_triples().same_values(&t), "round-trip lost values");
            // Bit-identical to converting the lex-sorted input directly (the
            // custom read-back walks its compressed levels in sorted order).
            let sorted = AnyTensor::Coo(CooMatrix::from_triples(&t.sorted()));
            let direct = convert(&sorted, Format::csr()).expect("direct conversion");
            prop_assert_eq!(back, direct);
        }
        // Custom -> custom round-trips too (through the read-back lowering).
        let blocked = Format::builder("ROUNDTRIP-BLOCKHASH")
            .remap_str("(i,j) -> (i/2,j/2,i%2,j%2)").expect("remapping parses")
            .dims(["bi", "bj", "li", "lj"])
            .levels([
                LevelKind::Dense,
                LevelKind::Hashed,
                LevelKind::Dense,
                LevelKind::Dense,
            ])
            .build()
            .expect("blocked composition validates");
        let packed = convert(&AnyTensor::Coo(CooMatrix::from_triples(&t)), &dcsr)
            .expect("stock -> custom");
        let reblocked = convert(&packed, &blocked).expect("custom -> custom");
        prop_assert!(reblocked.to_triples().same_values(&t));
    }

    /// Matrix statistics (Table 2 columns) are invariant under conversion.
    #[test]
    fn statistics_are_invariant_under_conversion(t in arb_matrix()) {
        let reference = MatrixStats::compute(&t);
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&t));
        for format in [Format::csr(), Format::dia(), Format::ell(), Format::jad()] {
            let converted = convert(&coo, format).expect("conversion");
            let stats = MatrixStats::compute(&converted.to_triples());
            prop_assert_eq!(stats.nnz, reference.nnz);
            prop_assert_eq!(stats.nonzero_diagonals, reference.nonzero_diagonals);
            prop_assert_eq!(stats.max_nnz_per_row, reference.max_nnz_per_row);
        }
    }
}
