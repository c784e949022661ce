//! Defining a *custom* format from scratch — the extensibility story of
//! Section 3: a user supplies only (1) a coordinate remapping and (2) the
//! level format of each remapped dimension, and the system derives the
//! attribute queries and assembles conversions without any per-pair code.
//!
//! With the spec-first API the custom format is a first-class [`Format`]:
//! built once with `Format::builder()`, it converts in **both** directions
//! through the same `convert` entry point as the stock presets, parses back
//! from its registered name, and gets plan caching in the conversion
//! service.
//!
//! Run with `cargo run --example custom_format`.

use taco_conversion_repro::conv::prelude::*;
use taco_conversion_repro::formats::CooMatrix;
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig};
use taco_conversion_repro::tensor::example::figure1_matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let triples = figure1_matrix();
    let coo = AnyTensor::Coo(CooMatrix::from_triples(&triples));

    // A DCSR-like format (doubly compressed sparse rows): both dimensions
    // compressed, so empty rows cost nothing. It is NOT in the stock set —
    // it exists only as this specification.
    let dcsr = Format::builder("DCSR")
        .remap_str("(i,j) -> (i,j)")?
        .dims(["i", "j"])
        .levels([LevelKind::Compressed, LevelKind::Compressed])
        .build()?;
    println!(
        "registered custom format `{dcsr}` (fingerprint {:016x})",
        dcsr.fingerprint()
    );
    let spec = dcsr.spec().expect("builder formats carry their spec");
    println!(
        "  derived attribute queries: {:?}",
        spec.required_queries()
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
    );

    // Convert the Figure 1 matrix INTO the custom format...
    let packed = convert(&coo, &dcsr)?;
    println!("\nFigure 1 matrix packed into {}:", packed.format());
    if let AnyTensor::Custom(t) = &packed {
        for (k, level) in t.levels.iter().enumerate() {
            println!("  level {k}: {level:?}");
        }
        println!("  vals: {:?}", t.vals);
    }

    // ...and back OUT: a builder format is a valid conversion *source*.
    let back = convert(&packed, Format::csr())?;
    assert!(back.to_triples().same_values(&triples));
    println!(
        "\nround-trip through CSR preserves all {} nonzeros",
        back.nnz()
    );

    // The registered name parses back to the same format, so CLI tools
    // (`convprof`) can select it like any stock name.
    let reparsed: Format = "DCSR".parse()?;
    assert_eq!(reparsed, dcsr);

    // The conversion service caches plans for custom formats exactly like
    // stock ones: the second conversion is a plan hit.
    let service = ConversionService::new(ServiceConfig::with_threads(2));
    service.convert(&coo, &dcsr)?;
    service.convert(&coo, &dcsr)?;
    let stats = service.stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 1);
    println!(
        "service: {} conversions, {} plan miss, {} plan hit (plans are cached per spec fingerprint)",
        stats.conversions, stats.plan_misses, stats.plan_hits
    );

    // A second custom format, from the same machinery: a banded profile
    // format (dense rows, banded columns) defined via a spec string — the
    // form the bench binaries accept on the command line.
    let banded: Format = "BANDED:(i,j)->(i,j):i,j:dense,banded".parse()?;
    let lower = taco_conversion_repro::tensor::SparseTriples::from_matrix_entries(
        4,
        4,
        vec![
            (0, 0, 1.0),
            (1, 1, 2.0),
            (2, 0, 3.0),
            (2, 2, 4.0),
            (3, 2, 5.0),
            (3, 3, 6.0),
        ],
    )?;
    let src = AnyTensor::Coo(CooMatrix::from_triples(&lower));
    let profile = convert(&src, &banded)?;
    println!("\nlower-triangular matrix in custom `{banded}`:");
    if let AnyTensor::Custom(t) = &profile {
        for (k, level) in t.levels.iter().enumerate() {
            println!("  level {k}: {level:?}");
        }
    }
    let back = convert(&profile, Format::coo())?;
    assert!(back.to_triples().same_values(&lower));
    println!(
        "round-trip through COO preserves all {} nonzeros",
        back.nnz()
    );
    Ok(())
}
