//! Integration tests for the compiler path: generated IR routines executed
//! through the interpreter must agree with the monomorphised engine and with
//! the library baselines on realistic (Table 2 stand-in) matrices.

use taco_conversion_repro::conv::codegen;
use taco_conversion_repro::conv::convert::plan_for;
use taco_conversion_repro::conv::convert::{convert, AnyTensor, FormatId};
use taco_conversion_repro::conv::plan::CounterStrategy;
use taco_conversion_repro::formats::{CooMatrix, CscMatrix, CsrMatrix};
use taco_conversion_repro::workloads::table2;

fn small_suite() -> Vec<(String, sparse_tensor::SparseTriples)> {
    // One matrix per generator class, at a very small scale so the IR
    // interpreter stays fast.
    ["jnlbrng1", "cant", "scircuit"]
        .iter()
        .map(|name| {
            let spec = table2()
                .into_iter()
                .find(|s| &s.name == name)
                .expect("known matrix");
            (name.to_string(), spec.generate(0.003))
        })
        .collect()
}

#[test]
fn generated_ir_agrees_with_engine_on_workload_matrices() {
    for (name, triples) in small_suite() {
        let sources = [
            AnyTensor::Coo(CooMatrix::from_triples(&triples)),
            AnyTensor::Csr(CsrMatrix::from_triples(&triples)),
            AnyTensor::Csc(CscMatrix::from_triples(&triples)),
        ];
        for src in &sources {
            for (s, t) in codegen::supported_pairs() {
                if s != src.format() {
                    continue;
                }
                let generated = codegen::execute(src, t).expect("generated code runs");
                let engine = convert(src, t).expect("engine conversion");
                assert_eq!(generated, engine, "{name}: {s} -> {t} disagrees");
            }
        }
    }
}

#[test]
fn listings_exist_for_all_supported_pairs() {
    for (s, t) in codegen::supported_pairs() {
        let listing = codegen::listing(s, t).expect("listing");
        assert!(listing.contains("void convert_"), "{s} -> {t}");
        // Every routine ends by storing values into the output.
        assert!(listing.contains("B_vals"), "{s} -> {t}:\n{listing}");
    }
}

#[test]
fn plans_match_the_papers_code_generation_decisions() {
    let triples = table2()[1].generate(0.003);
    let coo = AnyTensor::Coo(CooMatrix::from_triples(&triples));
    let csr = AnyTensor::Csr(CsrMatrix::from_triples(&triples));

    // CSR -> ELL uses the scalar-counter optimisation; COO -> ELL cannot.
    assert_eq!(
        plan_for(&csr, FormatId::Ell).unwrap().counters,
        CounterStrategy::Scalar
    );
    assert_eq!(
        plan_for(&coo, FormatId::Ell).unwrap().counters,
        CounterStrategy::Array
    );
    // DIA and ELL targets assemble in a single pass (no edge insertion); CSR
    // targets need the two-phase pos/crd construction.
    assert!(plan_for(&coo, FormatId::Dia).unwrap().single_pass_assembly);
    assert!(!plan_for(&coo, FormatId::Csr).unwrap().single_pass_assembly);
    // The generated listing for a CSR source must not materialise a CSR
    // temporary for DIA targets (the paper's key advantage over libraries).
    let listing = codegen::listing(FormatId::Coo, FormatId::Dia).unwrap();
    assert!(!listing.contains("temp"), "{listing}");
}
