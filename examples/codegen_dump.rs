//! Prints generated conversion routines as C-like listings: with no
//! arguments, the three pairs shown in Figure 6 of the paper (plus COO->ELL,
//! which exercises counter arrays); with `SOURCE TARGET` format strings
//! (stock names, `CSF@2,0,1`, registered names or `NAME:REMAP:DIMS:LEVELS`
//! spec strings), that one pair.
//!
//! Run with `cargo run --example codegen_dump [-- SOURCE TARGET]`, e.g.
//! `cargo run --example codegen_dump -- COO3 CSF@2,0,1`.

use taco_conversion_repro::conv::{codegen, Format};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pairs = match args.as_slice() {
        [] => vec![
            (Format::csr(), Format::dia(), "Figure 6a"),
            (Format::csr(), Format::ell(), "Figure 6b"),
            (Format::coo(), Format::csr(), "Figure 6c"),
            (Format::coo(), Format::ell(), "counter-array variant"),
        ],
        [source, target] => vec![(source.parse()?, target.parse()?, "requested")],
        _ => return Err("usage: codegen_dump [SOURCE TARGET]".into()),
    };
    for (source, target, note) in pairs {
        println!("// ===== {source} -> {target} ({note}) =====");
        println!("{}", codegen::listing(&source, &target)?);
    }
    Ok(())
}
