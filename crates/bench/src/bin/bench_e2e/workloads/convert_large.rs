//! `convert_large`: the paper's own measurement. A warm service at `T`
//! threads converts large in-memory sources; the extras of the traced run
//! time the sequential engine on the same pairs and the seven Table 3
//! conversions against the SPARSKIT-, MKL- and taco-style baseline ports.

use std::time::Instant;

use conv_runtime::{ConversionService, Route};
use sparse_conv::{AnyTensor, ConvertError, Format};
use sparse_formats::baselines::{mkl, sparskit, taco_noext};
use sparse_formats::{CooMatrix, CscMatrix, CsrMatrix};
use sparse_tensor::MatrixStats;

use super::{hit_ratio, multi_hop_share, parallel_share, parse_format, route_names, service};
use crate::harness::{Metrics, Pass, SpanTable, Workload};
use crate::inputs::{
    checksum, gen_banded, gen_blocked, gen_irregular, gen_tensor3, shuffled_coo, shuffled_coo3,
    sub_seed, Expected,
};
use crate::stats::{geomean, ratio};
use crate::trace::Layer;

struct Sizes {
    /// Nonzeros of every source.
    nnz: usize,
    tensor_dim: usize,
}

const FULL: Sizes = Sizes {
    nnz: 512_000,
    tensor_dim: 192,
};
const SMOKE: Sizes = Sizes {
    nnz: 640,
    tensor_dim: 12,
};

/// Case labels: source and target of the conversion.
const CASES: [&str; 8] = [
    "coo_csr",
    "csr_csc",
    "coo_jad",
    "coo_dia",
    "csr_ell",
    "coo_bcsr4x4",
    "coo3_csf",
    "coo3_csf201",
];
/// The four cases whose pair has a parallel kernel.
const KERNEL_CASES: [&str; 4] = ["coo_csr", "csr_csc", "coo_bcsr4x4", "coo3_csf"];

/// The inputs, by index into `ConvertLarge::inputs`.
const IRREGULAR: usize = 0;
const BANDED: usize = 1;
const BLOCKED: usize = 2;
const TENSOR: usize = 3;

/// One generated input with the sources pre-built from it.
struct Input {
    expected: Expected,
    /// Shuffled COO (or COO3), as imported data would be.
    coo: AnyTensor,
    /// CSR and CSC built by the reference constructors (matrices only).
    csr: Option<AnyTensor>,
    csc: Option<AnyTensor>,
}

/// One conversion: which source of which input goes to which target. The
/// pass's cases and the Table 3 conversions are both lists of these.
struct Pair {
    label: &'static str,
    input: usize,
    source: Source,
    target: Format,
}

#[derive(Clone, Copy)]
enum Source {
    Coo,
    Csr,
    Csc,
}

impl Input {
    fn source(&self, which: Source) -> &AnyTensor {
        let built = match which {
            Source::Coo => Some(&self.coo),
            Source::Csr => self.csr.as_ref(),
            Source::Csc => self.csc.as_ref(),
        };
        built.expect("set-up builds every source a case names")
    }
}

/// The pass's cases, in the order of `CASES`.
const PASS: [(&str, usize, Source, &str); 8] = [
    ("coo_csr", IRREGULAR, Source::Coo, "CSR"),
    ("csr_csc", IRREGULAR, Source::Csr, "CSC"),
    ("coo_jad", IRREGULAR, Source::Coo, "JAD"),
    ("coo_dia", BANDED, Source::Coo, "DIA"),
    ("csr_ell", BANDED, Source::Csr, "ELL"),
    ("coo_bcsr4x4", BLOCKED, Source::Coo, "BCSR4x4"),
    ("coo3_csf", TENSOR, Source::Coo, "CSF"),
    ("coo3_csf201", TENSOR, Source::Coo, "CSF@2,0,1"),
];
/// The seven conversions of the paper's Table 3.
const TABLE3: [(&str, usize, Source, &str); 7] = [
    ("coo_csr", IRREGULAR, Source::Coo, "CSR"),
    ("coo_dia", BANDED, Source::Coo, "DIA"),
    ("csr_csc", IRREGULAR, Source::Csr, "CSC"),
    ("csr_dia", BANDED, Source::Csr, "DIA"),
    ("csr_ell", BANDED, Source::Csr, "ELL"),
    ("csc_dia", BANDED, Source::Csc, "DIA"),
    ("csc_ell", BANDED, Source::Csc, "ELL"),
];
/// The baseline libraries and the span name of each one's calls.
const BASELINES: [(&str, &str); 3] = [
    ("sparskit", "baselines.sparskit"),
    ("mkl", "baselines.mkl"),
    ("taco_noext", "baselines.taco_noext"),
];

fn pairs(plan: &[(&'static str, usize, Source, &str)]) -> Result<Vec<Pair>, ConvertError> {
    plan.iter()
        .map(|&(label, input, source, target)| {
            Ok(Pair {
                label,
                input,
                source,
                target: parse_format(target)?,
            })
        })
        .collect()
}

pub struct ConvertLarge {
    service: ConversionService,
    inputs: Vec<Input>,
    cases: Vec<Pair>,
    /// The route the service reports for each case.
    routes: Vec<Route>,
    table3: Vec<Pair>,
    /// `(coverage, total over wall)` of the last `convert_traced` report.
    obs: Option<(f64, f64)>,
}

pub fn build(seed: u64, threads: usize, smoke: bool) -> Result<Box<dyn Workload>, ConvertError> {
    let sizes = if smoke { SMOKE } else { FULL };
    let mut inputs = Vec::with_capacity(4);
    for k in 0..4 {
        let s = sub_seed(seed, k as u64);
        let triples = match k {
            IRREGULAR => gen_irregular(sizes.nnz, s),
            BANDED => gen_banded(sizes.nnz, s),
            BLOCKED => gen_blocked(sizes.nnz, s),
            _ => gen_tensor3(sizes.tensor_dim, sizes.nnz, s),
        };
        let matrix = triples.order() == 2;
        if k == BANDED {
            // An inadmissible DIA/ELL request can exhaust memory inside the
            // library (see the README); never make one.
            let stats = MatrixStats::compute(&triples);
            if !stats.dia_admissible() || !stats.ell_admissible() {
                return Err(ConvertError::Unsupported(
                    "the banded input is not DIA/ELL admissible".to_string(),
                ));
            }
        }
        inputs.push(Input {
            expected: Expected::new(&triples),
            coo: if matrix {
                AnyTensor::Coo(shuffled_coo(&triples, s))
            } else {
                AnyTensor::Coo3(shuffled_coo3(&triples, s))
            },
            csr: matrix.then(|| AnyTensor::Csr(CsrMatrix::from_triples(&triples))),
            csc: (k == BANDED).then(|| AnyTensor::Csc(CscMatrix::from_triples(&triples))),
        });
    }
    let service = service(threads);
    let cases = pairs(&PASS)?;
    let routes = cases
        .iter()
        .map(|c| service.route_for(inputs[c.input].source(c.source), &c.target))
        .collect::<Result<Vec<Route>, _>>()?;
    Ok(Box::new(ConvertLarge {
        service,
        inputs,
        cases,
        routes,
        table3: pairs(&TABLE3)?,
        obs: None,
    }))
}

fn as_coo(t: &AnyTensor) -> &CooMatrix {
    match t {
        AnyTensor::Coo(m) => m,
        _ => panic!("set-up stores a COO matrix here"),
    }
}

fn as_csr(t: &AnyTensor) -> &CsrMatrix {
    match t {
        AnyTensor::Csr(m) => m,
        _ => panic!("set-up stores a CSR matrix here"),
    }
}

fn as_csc(t: &AnyTensor) -> &CscMatrix {
    match t {
        AnyTensor::Csc(m) => m,
        _ => panic!("set-up stores a CSC matrix here"),
    }
}

/// Whether `library` has a routine for the `conv` conversion (the set Table 3
/// compares: SPARSKIT everywhere, MKL without the ELL targets, taco without
/// extensions only on COO→CSR).
fn ported(library: &str, conv: &str) -> bool {
    match library {
        "sparskit" => true,
        "mkl" => !conv.ends_with("_ell"),
        _ => conv == "coo_csr",
    }
}

/// Runs the `library` port of the `conv` conversion.
fn baseline(library: &str, conv: &str, src: &AnyTensor) -> AnyTensor {
    match (library, conv) {
        ("sparskit", "coo_csr") => AnyTensor::Csr(sparskit::coo_to_csr(as_coo(src))),
        ("sparskit", "coo_dia") => AnyTensor::Dia(sparskit::coo_to_dia(as_coo(src))),
        ("sparskit", "csr_csc") => AnyTensor::Csc(sparskit::csr_to_csc(as_csr(src))),
        ("sparskit", "csr_dia") => AnyTensor::Dia(sparskit::csr_to_dia(as_csr(src))),
        ("sparskit", "csr_ell") => AnyTensor::Ell(sparskit::csr_to_ell(as_csr(src))),
        ("sparskit", "csc_dia") => AnyTensor::Dia(sparskit::csc_to_dia(as_csc(src))),
        ("sparskit", "csc_ell") => AnyTensor::Ell(sparskit::csc_to_ell(as_csc(src))),
        ("mkl", "coo_csr") => AnyTensor::Csr(mkl::coo_to_csr(as_coo(src))),
        ("mkl", "coo_dia") => AnyTensor::Dia(mkl::coo_to_dia(as_coo(src))),
        ("mkl", "csr_csc") => AnyTensor::Csc(mkl::csr_to_csc(as_csr(src))),
        ("mkl", "csr_dia") => AnyTensor::Dia(mkl::csr_to_dia(as_csr(src))),
        ("mkl", "csc_dia") => AnyTensor::Dia(mkl::csc_to_dia(as_csc(src))),
        ("taco_noext", "coo_csr") => AnyTensor::Csr(taco_noext::coo_to_csr(as_coo(src))),
        _ => panic!("{library} has no {conv} routine; `ported` says which exist"),
    }
}

impl Workload for ConvertLarge {
    fn cases(&self) -> &'static [&'static str] {
        &CASES
    }

    fn nnz_per_pass(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| self.inputs[c.input].expected.nnz as u64)
            .sum()
    }

    fn input_checksums(&self) -> Vec<u64> {
        self.inputs.iter().map(|i| checksum(&i.coo)).collect()
    }

    fn routes(&self) -> Vec<String> {
        route_names(&self.routes)
    }

    fn pass(&mut self, p: &mut Pass) {
        for (idx, case) in self.cases.iter().enumerate() {
            let label = case.label;
            let input = &self.inputs[case.input];
            let src = input.source(case.source);
            p.case(
                idx,
                label,
                |t| {
                    t.call(
                        Layer::Service,
                        "service.convert",
                        label,
                        src.nnz() as u64,
                        || self.service.convert(src, &case.target),
                    )
                },
                |out, full| input.expected.tensor_ok(out, full).into(),
            );
        }
    }

    fn extras(&mut self, p: &mut Pass) {
        // The sequential engine on the pairs the pass ran through the service.
        for case in &self.cases {
            let label = case.label;
            let input = &self.inputs[case.input];
            let src = input.source(case.source);
            let out = p.t.call(
                Layer::Engine,
                "engine.convert",
                label,
                src.nnz() as u64,
                || sparse_conv::convert(src, &case.target),
            );
            p.check(
                "engine output",
                out.is_ok_and(|o| input.expected.tensor_ok(&o, p.full)),
            );
        }
        // Table 3: generated (the engine) against each baseline port.
        for conv in &self.table3 {
            let input = &self.inputs[conv.input];
            let src = input.source(conv.source);
            let nnz = src.nnz() as u64;
            let out =
                p.t.call(Layer::Engine, "table3.generated", conv.label, nnz, || {
                    sparse_conv::convert(src, &conv.target)
                });
            p.check(
                "generated output",
                out.is_ok_and(|o| input.expected.tensor_ok(&o, p.full)),
            );
            for (library, span) in BASELINES {
                if !ported(library, conv.label) {
                    continue;
                }
                let out = p.t.call(Layer::Baselines, span, conv.label, nnz, || {
                    baseline(library, conv.label, src)
                });
                p.check("baseline output", input.expected.tensor_ok(&out, p.full));
            }
        }
        // The program's own account of one conversion, against the wall clock.
        let case = &self.cases[0];
        let src = self.inputs[case.input].source(case.source);
        let start = Instant::now();
        let traced = self.service.convert_traced(src, &case.target);
        let wall_ns = start.elapsed().as_nanos() as f64;
        match traced {
            Ok((_, report)) => {
                let phases: u64 = report.phases.iter().map(|ph| ph.duration_ns).sum();
                self.obs = Some((
                    ratio(phases as f64, report.total_ns as f64),
                    ratio(report.total_ns as f64, wall_ns),
                ));
                p.check("convert_traced", true);
            }
            Err(_) => p.check("convert_traced", false),
        }
    }

    fn layer_metrics(&self, spans: &SpanTable, m: &mut Metrics) {
        let mut engine_s = 0.0;
        for label in CASES {
            let service = spans.median("service.convert", label);
            let engine = spans.median("engine.convert", label);
            m.set_for("service.convert_s", label, service);
            m.set_for("engine.convert_s", label, engine);
            engine_s += engine;
            if KERNEL_CASES.contains(&label) {
                m.set_for("kernels.speedup_vs_engine", label, ratio(engine, service));
            }
        }
        m.set(
            "engine.mnnz_per_s",
            ratio(self.nnz_per_pass() as f64 / 1e6, engine_s),
        );

        let mut over_hand = Vec::new();
        let mut over_library = [Vec::new(), Vec::new(), Vec::new()];
        for conv in &self.table3 {
            let generated = spans.median("table3.generated", conv.label);
            let mut best = 0.0;
            for (n, (library, span)) in BASELINES.iter().enumerate() {
                if !ported(library, conv.label) {
                    continue;
                }
                let hand = spans.median(span, conv.label);
                over_library[n].push(ratio(generated, hand));
                if best == 0.0 || hand < best {
                    best = hand;
                }
            }
            m.set_for("baselines.best_hand_s", conv.label, best);
            m.set_for("ratio.gen_over_hand", conv.label, ratio(generated, best));
            over_hand.push(ratio(generated, best));
        }
        m.set("gen_over_hand.geomean", geomean(&over_hand));
        m.set("ratio.gen_over_sparskit.geomean", geomean(&over_library[0]));
        m.set("ratio.gen_over_mkl.geomean", geomean(&over_library[1]));
        m.set(
            "ratio.gen_over_taco_noext.coo_csr",
            over_library[2].first().copied().unwrap_or(0.0),
        );

        m.set("planner.multi_hop_share", multi_hop_share(&self.routes));
        let stats = [self.service.stats()];
        m.set("cache.hit_ratio", hit_ratio(&stats));
        m.set("service.parallel_share", parallel_share(&stats));
        if let Some((coverage, total_over_wall)) = self.obs {
            m.set("obs.report_coverage", coverage);
            m.set("obs.report_total_over_wall", total_over_wall);
        }
    }
}
