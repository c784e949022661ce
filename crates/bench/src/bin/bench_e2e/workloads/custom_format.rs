//! `custom_format`: the paper is about *generated* routines and user-defined
//! formats. Four builder specs run on the generic driver through
//! `service.convert`, four stock pairs run as generated code through
//! `codegen::execute_format` (codegen → simplify → interpreter), and each
//! case also runs `sparse_conv::convert` on the stock-equivalent pair, which
//! is the denominator of `custom_over_stock.geomean`.

use conv_runtime::{ConversionService, Route};
use sparse_conv::{codegen, AnyTensor, ConvertError, Format};
use sparse_formats::CsrMatrix;

use super::{hit_ratio, multi_hop_share, parse_format, route_names, service};
use crate::harness::{Metrics, Pass, SpanTable, Workload};
use crate::inputs::{
    checksum, gen_banded, gen_blocked, gen_irregular, gen_tensor3, shuffled_coo, shuffled_coo3,
    sub_seed, Expected,
};
use crate::stats::{geomean, ratio};
use crate::trace::Layer;

struct Sizes {
    nnz: usize,
    tensor_dim: usize,
}

const FULL: Sizes = Sizes {
    nnz: 16_000,
    tensor_dim: 64,
};
const SMOKE: Sizes = Sizes {
    nnz: 160,
    tensor_dim: 8,
};

const CASES: [&str; 8] = [
    "mycsr", "dcsr", "mycsc", "mybcsr", "coo_csr", "csr_csc", "coo_dia", "coo3_csf",
];

/// How a case reaches its target.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// A builder spec: the generic driver, through `service.convert`.
    Generic,
    /// A stock pair as generated code, through `codegen::execute_format`.
    Generated,
}

/// One case of the plan: how it runs, on which input and source, to which
/// target, and the stock target its time is compared with.
struct Plan {
    path: Path,
    input: usize,
    from_csr: bool,
    target: &'static str,
    stock: &'static str,
}

const fn generic(input: usize, target: &'static str, stock: &'static str) -> Plan {
    Plan {
        path: Path::Generic,
        input,
        from_csr: false,
        target,
        stock,
    }
}

const fn generated(input: usize, from_csr: bool, target: &'static str) -> Plan {
    Plan {
        path: Path::Generated,
        input,
        from_csr,
        target,
        stock: target,
    }
}

/// The cases, in the order of `CASES`.
const PLAN: [Plan; 8] = [
    generic(IRREGULAR, "MYCSR:(i,j)->(i,j):i,j:dense,compressed", "CSR"),
    generic(
        IRREGULAR,
        "DCSR:(i,j)->(i,j):i,j:compressed,compressed",
        "CSR",
    ),
    generic(IRREGULAR, "MYCSC:(i,j)->(j,i):j,i:dense,compressed", "CSC"),
    generic(
        BLOCKED,
        "MYBCSR:(i,j)->(i/4,j/4,i%4,j%4):bi,bj,ii,jj:dense,compressed,dense,dense",
        "BCSR4x4",
    ),
    generated(IRREGULAR, false, "CSR"),
    generated(IRREGULAR, true, "CSC"),
    generated(BANDED, false, "DIA"),
    generated(TENSOR, false, "CSF"),
];

const IRREGULAR: usize = 0;
const BANDED: usize = 1;
const BLOCKED: usize = 2;
const TENSOR: usize = 3;

struct Input {
    expected: Expected,
    coo: AnyTensor,
    csr: Option<AnyTensor>,
}

struct Case {
    path: Path,
    input: usize,
    from_csr: bool,
    target: Format,
    stock: Format,
}

pub struct CustomFormat {
    service: ConversionService,
    inputs: Vec<Input>,
    cases: Vec<Case>,
    routes: Vec<Route>,
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
        inputs.push(Input {
            expected: Expected::new(&triples),
            coo: if triples.order() == 2 {
                AnyTensor::Coo(shuffled_coo(&triples, s))
            } else {
                AnyTensor::Coo3(shuffled_coo3(&triples, s))
            },
            csr: (k == IRREGULAR).then(|| AnyTensor::Csr(CsrMatrix::from_triples(&triples))),
        });
    }
    let service = service(threads);
    let mut cases = Vec::with_capacity(PLAN.len());
    let mut routes = Vec::new();
    for plan in PLAN {
        let case = Case {
            path: plan.path,
            input: plan.input,
            from_csr: plan.from_csr,
            target: parse_format(plan.target)?,
            stock: parse_format(plan.stock)?,
        };
        if case.path == Path::Generic {
            routes.push(service.route_for(source(&inputs, &case), &case.target)?);
        }
        cases.push(case);
    }
    Ok(Box::new(CustomFormat {
        service,
        inputs,
        cases,
        routes,
    }))
}

fn source<'a>(inputs: &'a [Input], case: &Case) -> &'a AnyTensor {
    let input = &inputs[case.input];
    match (&input.csr, case.from_csr) {
        (Some(csr), true) => csr,
        _ => &input.coo,
    }
}

impl Workload for CustomFormat {
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
        for (idx, (label, case)) in CASES.iter().zip(&self.cases).enumerate() {
            let expected = &self.inputs[case.input].expected;
            let src = source(&self.inputs, case);
            let nnz = src.nnz() as u64;
            p.case(
                idx,
                label,
                |t| {
                    let custom = match case.path {
                        Path::Generic => {
                            t.call(Layer::Generic, "generic.convert", label, nnz, || {
                                self.service.convert(src, &case.target)
                            })?
                        }
                        Path::Generated => {
                            t.call(Layer::CodegenIr, "interp.exec", label, nnz, || {
                                codegen::execute_format(src, &case.target)
                            })?
                        }
                    };
                    let stock = t.call(Layer::Engine, "engine.convert", label, nnz, || {
                        sparse_conv::convert(src, &case.stock)
                    })?;
                    Ok((custom, stock))
                },
                |(custom, stock), full| {
                    (expected.tensor_ok(custom, full) && expected.tensor_ok(stock, full)).into()
                },
            );
        }
    }

    fn extras(&mut self, _p: &mut Pass) {}

    fn layer_metrics(&self, spans: &SpanTable, m: &mut Metrics) {
        let mut over_stock = Vec::with_capacity(CASES.len());
        for (label, case) in CASES.iter().zip(&self.cases) {
            let engine = spans.median("engine.convert", label);
            let (time, over_engine, span) = match case.path {
                Path::Generic => (
                    "generic.convert_s",
                    "generic.over_engine",
                    "generic.convert",
                ),
                Path::Generated => ("interp.exec_s", "interp.over_engine", "interp.exec"),
            };
            let custom = spans.median(span, label);
            m.set_for(time, label, custom);
            m.set_for(over_engine, label, ratio(custom, engine));
            over_stock.push(ratio(custom, engine));
        }
        m.set("custom_over_stock.geomean", geomean(&over_stock));
        m.set("planner.multi_hop_share", multi_hop_share(&self.routes));
        m.set("cache.hit_ratio", hit_ratio(&[self.service.stats()]));
    }
}
