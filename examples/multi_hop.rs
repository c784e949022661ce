//! Multi-hop routing: the conversion service planning a chain over the
//! format graph instead of running the pairwise kernel directly.
//!
//! A shuffled COO matrix heading for a blocked format is the planner's
//! flagship case: BCSR's block analysis is much cheaper when fed row-major
//! input, so the cost model routes `COO → CSR → BCSR4x4` — two cheap hops —
//! below the one expensive direct kernel. The example prints the path the
//! static cost model plans and cross-checks the chained result against the
//! direct engine.
//!
//! Run with `cargo run --release --example multi_hop`.

use taco_conversion_repro::conv::convert::{convert, AnyTensor};
use taco_conversion_repro::conv::{Format, TensorProfile};
use taco_conversion_repro::formats::CooMatrix;
use taco_conversion_repro::planner::{PlannerConfig, TensorAttrs};
use taco_conversion_repro::runtime::{ConversionService, Route, ServiceConfig};
use taco_conversion_repro::tensor::SparseTriples;
use taco_conversion_repro::workloads::generators::irregular;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An irregular (circuit-like) matrix with its entry order destroyed —
    // the load order a parallel reader or a hash-partitioned pipeline
    // produces.
    let triples = irregular(512, 512, 40_000, 128, 42)?;
    let mut entries: Vec<(Vec<i64>, f64)> = triples
        .iter()
        .map(|tr| (tr.coord.to_vec(), tr.value))
        .collect();
    let n = entries.len();
    for i in 0..n {
        let j = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(1) >> 16) as usize % n;
        entries.swap(i, j);
    }
    let mut shuffled = SparseTriples::new(triples.shape().clone());
    for (coord, value) in entries {
        shuffled.push(coord, value)?;
    }
    let src = AnyTensor::Coo(CooMatrix::from_triples(&shuffled));
    let target: Format = "BCSR4x4".parse()?;

    let service = ConversionService::new(ServiceConfig::with_threads(2));

    // One stats pass serves both the format selector and the planner.
    let profile = TensorProfile::compute(&src);
    println!(
        "auto_select would store this matrix as {}; densest row holds {} nonzeros",
        profile.selected,
        profile.max_nnz_per_row.unwrap_or(0)
    );
    let attrs = TensorAttrs::from_matrix(&src).with_profile(&profile);
    // 40k nonzeros on a two-thread service engage the parallel kernels.
    let cfg = PlannerConfig {
        parallel: true,
        ..PlannerConfig::default()
    };
    if let Some(plan) = service
        .format_graph()
        .plan_route(&src.format(), &target, &attrs, &cfg)
    {
        println!(
            "planned route: {} ({:.0} cost units)",
            plan.names().join(" -> "),
            plan.cost_units
        );
    }

    // The service takes the same route on its own.
    match service.route_for(&src, target.clone())? {
        Route::MultiHop(path) => {
            let names: Vec<String> = path.iter().map(|f| f.to_string()).collect();
            println!("service routes multi-hop: {}", names.join(" -> "));
        }
        other => println!("service routes {other:?}"),
    }

    let (chained, report) = service.convert_traced(&src, target.clone())?;
    println!(
        "converted {} -> {} over route `{}` (path {}), {} nonzeros",
        report.source,
        report.target,
        report.route,
        report.path.join(" -> "),
        chained.nnz()
    );

    // The chain is a pure optimisation: bytes identical to the direct
    // engine.
    let direct = convert(&src, &target)?;
    assert_eq!(chained, direct, "multi-hop output must match direct");
    println!("multi-hop result is bit-identical to the direct conversion");

    let stats = service.stats();
    println!(
        "service stats: {} conversions, {} multi-hop, {} via-COO",
        stats.conversions, stats.multi_hop, stats.via_coo
    );
    Ok(())
}
