//! End-to-end tests over the Table 2 stand-in matrices: every cell of the
//! Table 3 reproduction computes the same result regardless of which
//! implementation produces it, and the specification languages round-trip.
use taco_conversion_repro::conv::stock::STOCK;
use taco_conversion_repro::query::parse_query;
use taco_conversion_repro::remap::{parse_remapping, EvalContext};
use taco_conversion_repro::tensor::MatrixStats;
use taco_conversion_repro::workloads::{table2, MatrixClass};

use conv_bench::{BenchInputs, Conversion, Impl};

#[test]
fn table3_cells_agree_across_implementations_on_real_workloads() {
    for spec in table2()
        .into_iter()
        .filter(|s| s.class == MatrixClass::Banded)
        .take(3)
    {
        let inputs = BenchInputs::build(&spec, 0.01);
        for conversion in Conversion::all() {
            if !conversion.reported_for(&inputs.spec) {
                continue;
            }
            let mut outputs = Vec::new();
            for implementation in [Impl::Generated, Impl::Sparskit, Impl::Mkl, Impl::TacoNoExt] {
                if implementation.supports(conversion) {
                    outputs.push(conv_bench::run_conversion(
                        &inputs,
                        conversion,
                        implementation,
                    ));
                }
            }
            assert!(
                outputs.windows(2).all(|w| w[0] == w[1]),
                "{}: implementations disagree on {}: {outputs:?}",
                spec.name,
                conversion.label()
            );
        }
    }
}

#[test]
fn synthetic_suite_matches_paper_statistics_for_banded_matrices() {
    for spec in table2()
        .into_iter()
        .filter(|s| s.class == MatrixClass::Banded)
    {
        let m = spec.generate(0.01);
        let stats = MatrixStats::compute(&m);
        assert_eq!(
            stats.nonzero_diagonals,
            spec.nonzero_diagonals.min(spec.max_nnz_per_row),
            "{}: diagonal count mismatch",
            spec.name
        );
        assert!(
            stats.max_nnz_per_row <= spec.max_nnz_per_row + 2,
            "{}",
            spec.name
        );
    }
}

#[test]
fn specification_languages_cover_all_stock_formats() {
    for id in STOCK.iter().map(|row| row.format()) {
        // DOK is a conversion source only: it has nothing to specify.
        let Some(spec) = id.spec() else { continue };
        // Remapping text round-trips through the parser.
        let reparsed = parse_remapping(&spec.remapping.to_string()).expect("remapping parses");
        assert_eq!(reparsed, spec.remapping, "{id}");
        // Required queries are valid query-language programs.
        for query in spec.required_queries() {
            let reparsed = parse_query(&query.to_string()).expect("query parses");
            assert_eq!(reparsed, query, "{id}");
        }
    }
}

#[test]
fn dia_remapping_matches_measured_diagonal_statistics() {
    // The remapped first coordinate of each nonzero is its diagonal offset;
    // the number of distinct offsets equals MatrixStats::nonzero_diagonals.
    let spec = table2()
        .into_iter()
        .find(|s| s.name == "denormal")
        .expect("in suite");
    let m = spec.generate(0.01);
    let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
    let mut ctx = EvalContext::new(&remap);
    let remapped = ctx.apply_all(&m).unwrap();
    let mut offsets: Vec<i64> = remapped.triples.iter().map(|(c, _)| c[0]).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), MatrixStats::compute(&m).nonzero_diagonals);
}
