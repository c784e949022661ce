//! Integration tests for the compiler path: generated IR routines executed
//! through the interpreter must agree with the monomorphised engine and with
//! the library baselines on realistic (Table 2 stand-in) matrices, and bit for
//! bit with the engine on random inputs.

use proptest::prelude::*;

use taco_conversion_repro::conv::codegen;
use taco_conversion_repro::conv::convert::plan_for;
use taco_conversion_repro::conv::plan::CounterStrategy;
use taco_conversion_repro::conv::prelude::LevelKind;
use taco_conversion_repro::conv::select::ORDER3_MODE_ORDERS;
use taco_conversion_repro::conv::{convert, AnyTensor, ConvertError, Format};
use taco_conversion_repro::formats::{CooMatrix, CscMatrix, CsrMatrix};
use taco_conversion_repro::remap::{BinOp, DstIndex, IndexExpr, Remapping};
use taco_conversion_repro::tensor::example::example3_tensor;
use taco_conversion_repro::tensor::{Shape, SparseTriples};
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
                let generated = codegen::execute_format(src, &t).expect("generated code runs");
                let engine = convert(src, &t).expect("engine conversion");
                assert_eq!(generated, engine, "{name}: {s} -> {t} disagrees");
            }
        }
    }
}

#[test]
fn listings_exist_for_all_supported_pairs() {
    for (s, t) in codegen::supported_pairs() {
        let listing = codegen::listing(&s, &t).expect("listing");
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
        plan_for(&csr, Format::ell()).unwrap().counters,
        CounterStrategy::Scalar
    );
    assert_eq!(
        plan_for(&coo, Format::ell()).unwrap().counters,
        CounterStrategy::Array
    );
    // DIA and ELL targets assemble in a single pass (no edge insertion); CSR
    // targets need the two-phase pos/crd construction.
    assert!(plan_for(&coo, Format::dia()).unwrap().single_pass_assembly);
    assert!(!plan_for(&coo, Format::csr()).unwrap().single_pass_assembly);
    // The generated listing for a CSR source must not materialise a CSR
    // temporary for DIA targets (the paper's key advantage over libraries).
    let listing = codegen::listing(&Format::coo(), &Format::dia()).unwrap();
    assert!(!listing.contains("temp"), "{listing}");
}

/// FNV-1a over a listing's bytes.
fn fnv1a(text: &str) -> u64 {
    let eat = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    text.bytes().fold(0xcbf29ce484222325, eat)
}

/// The listing of every pair the generator covered when it was keyed on the
/// closed format enum — the 14 stock pairs, in `supported_pairs` order, then
/// COO3 into the six `CSF@perm` orders — as a hash of the bytes it printed
/// then. Keying it on `Format` specifications must not change what is
/// generated. (`CSF@0,1,2` is the stock CSF handle, so its routine carries
/// the stock name; the enum-keyed generator printed the same body as
/// `convert_coo3_to_csf_012` when asked for that order by number.) The three
/// `*->DIA` hashes were re-pinned once since, when the diagonal count became
/// `max(N + M - 1, 0)` so a 0x0 matrix allocates nothing.
const PINNED_LISTINGS: [(&str, &str, u64); 20] = [
    ("COO", "CSR", 0x35888fdc372fbac4),
    ("COO", "CSC", 0xaf421b3f739310b8),
    ("COO", "DIA", 0x3420c8ac7d010730),
    ("COO", "ELL", 0xf5f02ac42541f5e4),
    ("CSR", "COO", 0x54173c3162a16f0f),
    ("CSR", "CSC", 0xbfd510e8a7de4dd9),
    ("CSR", "DIA", 0x843f6bb04665b403),
    ("CSR", "ELL", 0xa142521f0054451e),
    ("CSC", "COO", 0x91d10e8d40bfd7d3),
    ("CSC", "CSR", 0x4946c4c14bbf009c),
    ("CSC", "DIA", 0x3010096dd3e1d274),
    ("CSC", "ELL", 0x559a6940a88602e4),
    ("COO3", "CSF", 0x2f43ae72dcbb3299),
    ("CSF", "COO3", 0x20938eab0d106cad),
    ("COO3", "CSF@0,1,2", 0x2f43ae72dcbb3299),
    ("COO3", "CSF@0,2,1", 0x26f188e9af55b589),
    ("COO3", "CSF@1,0,2", 0x2fb60a1b109293cd),
    ("COO3", "CSF@1,2,0", 0x71d80da078a17a81),
    ("COO3", "CSF@2,0,1", 0xa072b8e0f23fb7b9),
    ("COO3", "CSF@2,1,0", 0x74ade7aa7d2de325),
];

#[test]
fn listings_and_outputs_are_unchanged_by_the_rekey_on_format() {
    let stock: Vec<(String, String)> = codegen::supported_pairs()
        .iter()
        .map(|(s, t)| (s.to_string(), t.to_string()))
        .collect();
    let pinned = PINNED_LISTINGS.map(|(s, t, _)| (s.to_string(), t.to_string()));
    assert_eq!(stock, pinned[..14], "the stock pairs, in order");

    let matrix = table2()[1].generate(0.003);
    let tensor = example3_tensor();
    for (source, target, hash) in PINNED_LISTINGS {
        let (source, target): (Format, Format) = (source.parse().unwrap(), target.parse().unwrap());
        let listing = codegen::listing(&source, &target).expect("listing");
        assert_eq!(fnv1a(&listing), hash, "{source} -> {target}:\n{listing}");
        let triples = if source.order() == 2 {
            &matrix
        } else {
            &tensor
        };
        let src = AnyTensor::from_triples(triples, &source).expect("source container");
        let generated = codegen::execute_format(&src, &target).expect("generated code runs");
        let engine = convert(&src, &target).expect("engine conversion");
        assert_eq!(generated, engine, "{source} -> {target} disagrees");
    }
}

/// A DIA-shaped builder format whose leading remapped coordinate is `lead`.
fn diagonal_like(name: &str, lead: IndexExpr) -> Format {
    let kept = |v: &str| DstIndex::simple(IndexExpr::var(v));
    let remapping = Remapping::new(
        vec!["i".to_string(), "j".to_string()],
        vec![DstIndex::simple(lead), kept("i"), kept("j")],
    );
    Format::builder(name)
        .remapping(remapping)
        .dims(["k", "i", "j"])
        .levels([LevelKind::Squeezed, LevelKind::Dense, LevelKind::Singleton])
        .build()
        .expect("the composition validates")
}

#[test]
fn unbound_remapping_variables_and_counters_are_errors_not_panics() {
    // `z - i` names a variable the source does not bind.
    let offset = IndexExpr::binary(BinOp::Sub, IndexExpr::var("z"), IndexExpr::var("i"));
    let unbound = diagonal_like("GEN-TEST-UNBOUND", offset);
    // `#i` is a counter where the diagonal assembly lowers a coordinate
    // expression.
    let counter = diagonal_like("GEN-TEST-COUNTER", IndexExpr::Counter(vec!["i".into()]));
    let src = AnyTensor::Coo(CooMatrix::from_triples(&table2()[1].generate(0.003)));
    for (target, what) in [(unbound, "`z`"), (counter, "#i")] {
        for result in [
            codegen::listing(&Format::coo(), &target).map(drop),
            codegen::execute_format(&src, &target).map(drop),
        ] {
            let Err(ConvertError::UnsupportedSpec { reason }) = result else {
                panic!("{target}: {result:?}");
            };
            assert!(reason.contains(what), "{reason}");
        }
    }
}

#[test]
fn builder_formats_generate_by_shape_but_only_stock_containers_unpack() {
    // A CSR-shaped builder format: the generator reads its level chain and
    // emits the CSR routine under the format's own name...
    let my_csr: Format = "GEN-TEST-MYCSR:(r,c)->(r,c):r,c:dense,compressed"
        .parse()
        .unwrap();
    let listing = codegen::listing(&Format::coo(), &my_csr).unwrap();
    assert!(
        listing.contains("void convert_coo_to_gen_test_mycsr("),
        "{listing}"
    );
    let stock = codegen::listing(&Format::coo(), &Format::csr()).unwrap();
    assert_eq!(
        listing.split_once('(').unwrap().1,
        stock.split_once('(').unwrap().1
    );
    // ...and it is a source like CSR...
    assert!(codegen::listing(&my_csr, &Format::ell())
        .unwrap()
        .contains("int c = 0;"));
    // ...but there is no container of that format to unpack the output
    // into: the dynamic driver assembles such targets.
    let src = AnyTensor::Coo(CooMatrix::from_triples(&table2()[1].generate(0.003)));
    assert!(matches!(
        codegen::execute_format(&src, &my_csr),
        Err(ConvertError::Unsupported(_))
    ));
}

/// A matrix with no rows or no columns converts to an empty DIA, through the
/// engine and through generated code alike (the generated routine clamps its
/// `N + M - 1` diagonal count at zero).
#[test]
fn empty_extents_convert_to_an_empty_dia() {
    for (rows, cols) in [(0, 0), (0, 5), (5, 0)] {
        let empty = SparseTriples::new(Shape::matrix(rows, cols));
        let coo = AnyTensor::Coo(CooMatrix::from_triples(&empty));
        let engine = convert(&coo, Format::dia()).expect("the engine converts");
        let AnyTensor::Dia(dia) = &engine else {
            panic!("{rows}x{cols}: {engine:?}");
        };
        assert!(dia.offsets().is_empty() && dia.values().is_empty());
        let generated = codegen::execute_format(&coo, &Format::dia());
        assert_eq!(
            generated.expect("generated code runs"),
            engine,
            "{rows}x{cols}"
        );
    }
}

/// Nonzero values from `entries`, first occurrence of a coordinate kept.
fn triples(shape: Shape, entries: impl IntoIterator<Item = (Vec<i64>, i32)>) -> SparseTriples {
    let mut t = SparseTriples::new(shape);
    for (coord, v) in entries {
        if v != 0 && t.get(&coord) == 0.0 {
            t.push(coord, f64::from(v)).expect("in bounds");
        }
    }
    t
}

/// A xorshift stream for shuffling entry order.
fn shuffler(mut state: u64) -> impl FnMut(usize) -> usize {
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    }
}

/// Random matrices, 1xN, Nx1, small square-ish and short-and-wide (nnz well
/// above the row count), from empty up to fully dense, plus a shuffle seed.
fn arb_matrix() -> impl Strategy<Value = (SparseTriples, u64)> {
    (0usize..4, 1usize..40, 1usize..40).prop_flat_map(|(kind, a, b)| {
        let (rows, cols) = [(1, a), (a, 1), (a % 12 + 1, b % 12 + 1), (a % 3 + 1, b)][kind];
        let entry = (0..rows, 0..cols, -100i32..100);
        let entries = proptest::collection::vec(entry, 0..(rows * cols).min(160) + 1);
        (entries, 1u64..u64::MAX).prop_map(move |(entries, seed)| {
            let entries = entries
                .into_iter()
                .map(|(i, j, v)| (vec![i as i64, j as i64], v));
            (triples(Shape::matrix(rows, cols), entries), seed)
        })
    })
}

/// Random order-3 tensors, thin in one or two modes at times, plus a shuffle
/// seed.
fn arb_tensor3() -> impl Strategy<Value = (SparseTriples, u64)> {
    (1usize..8, 1usize..8, 1usize..16).prop_flat_map(|(d0, d1, d2)| {
        let entry = (0..d0, 0..d1, 0..d2, -100i32..100);
        let entries = proptest::collection::vec(entry, 0..(d0 * d1 * d2).min(96) + 1);
        (entries, 1u64..u64::MAX).prop_map(move |(entries, seed)| {
            let coords = entries.into_iter();
            let entries = coords.map(|(i, j, k, v)| (vec![i as i64, j as i64, k as i64], v));
            (triples(Shape::tensor3(d0, d1, d2), entries), seed)
        })
    })
}

/// Every generated routine from `t`'s order (COO sources in shuffled entry
/// order) against the engine on the same source, bit for bit.
fn check_generated_against_engine(t: &SparseTriples, seed: u64) {
    let mut targets: Vec<(Format, Format)> = codegen::supported_pairs();
    if t.order() == 3 {
        let ordered = ORDER3_MODE_ORDERS
            .iter()
            .map(|order| Format::csf_ordered(order).unwrap());
        targets.extend(ordered.map(|target| (Format::coo3(), target)));
    }
    for (source, target) in targets.iter().filter(|(s, _)| s.order() == t.order()) {
        let src = match AnyTensor::from_triples(t, source).expect("source container") {
            AnyTensor::Coo(mut coo) => {
                coo.shuffle_with(shuffler(seed));
                AnyTensor::Coo(coo)
            }
            AnyTensor::Coo3(mut coo) => {
                coo.shuffle_with(shuffler(seed));
                AnyTensor::Coo3(coo)
            }
            other => other,
        };
        let generated = codegen::execute_format(&src, target).expect("generated code runs");
        let engine = convert(&src, target).expect("engine conversion");
        assert_eq!(generated, engine, "{source} -> {target}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Every stock matrix pair the generator covers, on random shapes and
    /// entry orders.
    #[test]
    fn generated_matrix_routines_match_the_engine((t, seed) in arb_matrix()) {
        check_generated_against_engine(&t, seed);
    }

    /// Every order-3 pair, COO3 into all six `CSF@perm` orders included.
    #[test]
    fn generated_tensor_routines_match_the_engine((t, seed) in arb_tensor3()) {
        check_generated_against_engine(&t, seed);
    }
}
