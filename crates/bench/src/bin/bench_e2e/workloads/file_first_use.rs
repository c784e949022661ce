//! `file_first_use`: bytes of `.mtx`/`.tns` on disk → parse → profile → route
//! → convert to the auto-selected format → ten SpMV, on a fresh service every
//! time. The quantity the ROADMAP's north star names.

use std::path::{Path, PathBuf};

use conv_runtime::{ConversionService, Route, ServiceStats};
use conv_workloads::io::{tns_dims, write_mtx, write_tns, TnsStream, DEFAULT_BLOCK_NNZ};
use sparse_conv::{AnyTensor, ConvertError, TensorProfile};

use super::{
    drain, hit_ratio, io_error, load_mtx, multi_hop_share, parallel_share, route_names, service,
    spmv_any,
};
use crate::harness::{Metrics, Pass, SpanTable, Workload};
use crate::inputs::{
    checksum, gen_banded, gen_blocked, gen_irregular, gen_tensor3, shuffled_coo, shuffled_coo3,
    spmv_x, sub_seed, Expected, Scratch,
};
use crate::stats::ratio;
use crate::trace::{Layer, Tracer};

struct Sizes {
    /// Nonzeros of each of the three matrices and of the tensor.
    nnz: usize,
    tensor_dim: usize,
}

const FULL: Sizes = Sizes {
    nnz: 64_000,
    tensor_dim: 64,
};
const SMOKE: Sizes = Sizes {
    nnz: 640,
    tensor_dim: 12,
};

const CASES: [&str; 4] = ["banded", "blocked", "irregular", "tensor"];
const SPMV_ITERS: u64 = 10;

struct FileCase {
    path: PathBuf,
    bytes: u64,
    expected: Expected,
    /// The file's content as set-up wrote it, for the COO SpMV yardstick.
    source: AnyTensor,
    x: Vec<f64>,
}

/// What one run of a case leaves for verification and the count metrics.
struct FirstUse {
    out: AnyTensor,
    y: Option<Vec<f64>>,
    route: Route,
    stats: ServiceStats,
}

pub struct FileFirstUse {
    _scratch: Scratch,
    threads: usize,
    cases: Vec<FileCase>,
    last: Vec<Option<(Route, ServiceStats)>>,
}

pub fn build(
    seed: u64,
    threads: usize,
    dir: &Path,
    smoke: bool,
) -> Result<Box<dyn Workload>, ConvertError> {
    let sizes = if smoke { SMOKE } else { FULL };
    let scratch = Scratch::new_in(dir).map_err(io_error)?;
    let mut cases = Vec::with_capacity(CASES.len());
    for (k, label) in CASES.iter().enumerate() {
        let s = sub_seed(seed, k as u64);
        let triples = match *label {
            "banded" => gen_banded(sizes.nnz, s),
            "blocked" => gen_blocked(sizes.nnz, s),
            "irregular" => gen_irregular(sizes.nnz, s),
            _ => gen_tensor3(sizes.tensor_dim, sizes.nnz, s),
        };
        let (path, source) = if triples.order() == 2 {
            let path = scratch.path().join(format!("{label}.mtx"));
            let coo = shuffled_coo(&triples, s);
            write_mtx(&path, &coo)?;
            (path, AnyTensor::Coo(coo))
        } else {
            let path = scratch.path().join(format!("{label}.tns"));
            let coo = shuffled_coo3(&triples, s);
            write_tns(&path, &coo)?;
            (path, AnyTensor::Coo3(coo))
        };
        cases.push(FileCase {
            bytes: std::fs::metadata(&path).map_err(io_error)?.len(),
            path,
            expected: Expected::new(&triples),
            x: spmv_x(source.cols()),
            source,
        });
    }
    Ok(Box::new(FileFirstUse {
        _scratch: scratch,
        threads,
        last: vec![None; cases.len()],
        cases,
    }))
}

fn first_use(
    t: &mut Tracer,
    label: &'static str,
    case: &FileCase,
    threads: usize,
) -> Result<FirstUse, ConvertError> {
    let service: ConversionService = service(threads);
    let coo = if case.expected.order == 2 {
        t.call(Layer::Io, "io.mtx_load", label, case.bytes, || {
            load_mtx(&case.path)
        })?
    } else {
        let (shape, _) = t.call(Layer::Io, "io.tns_dims", label, case.bytes, || {
            tns_dims(&case.path)
        })?;
        t.call(Layer::Io, "io.tns_load", label, case.bytes, || {
            drain(TnsStream::open(&case.path, shape, DEFAULT_BLOCK_NNZ)?).map(AnyTensor::Coo3)
        })?
    };
    let nnz = coo.nnz() as u64;
    let profile = t.call(Layer::Select, "select.profile", label, nnz, || {
        TensorProfile::compute(&coo)
    });
    let route = t.call(Layer::Planner, "planner.route_for", label, 1, || {
        service.route_for(&coo, &profile.selected)
    })?;
    let out = t.call(Layer::Service, "service.convert", label, nnz, || {
        service.convert(&coo, &profile.selected)
    })?;
    let y = if out.order() == 2 {
        t.call(Layer::Spmv, "spmv.iter10", label, SPMV_ITERS, || {
            let mut y = None;
            for _ in 0..SPMV_ITERS {
                y = spmv_any(&out, &case.x);
            }
            y
        })
    } else {
        None
    };
    Ok(FirstUse {
        out,
        y,
        route,
        stats: service.stats(),
    })
}

impl Workload for FileFirstUse {
    fn cases(&self) -> &'static [&'static str] {
        &CASES
    }

    fn nnz_per_pass(&self) -> u64 {
        self.cases.iter().map(|c| c.expected.nnz as u64).sum()
    }

    fn input_checksums(&self) -> Vec<u64> {
        self.cases.iter().map(|c| checksum(&c.source)).collect()
    }

    fn routes(&self) -> Vec<String> {
        let routes: Vec<Route> = self.last.iter().flatten().map(|l| l.0.clone()).collect();
        route_names(&routes)
    }

    fn pass(&mut self, p: &mut Pass) {
        for (idx, label) in CASES.iter().enumerate() {
            let case = &self.cases[idx];
            let last = &mut self.last[idx];
            p.case(
                idx,
                label,
                |t| first_use(t, label, case, self.threads),
                |run, full| {
                    *last = Some((run.route.clone(), run.stats));
                    let matrix = case.expected.order == 2;
                    let y_ok = match &run.y {
                        Some(y) => case.expected.y_ok(y, full),
                        None => !matrix,
                    };
                    (case.expected.tensor_ok(&run.out, full) && y_ok).into()
                },
            );
        }
    }

    fn extras(&mut self, p: &mut Pass) {
        // The yardstick for `spmv.speedup_vs_coo`: the same ten products on
        // the COO matrix as loaded.
        for (label, case) in CASES.iter().zip(&self.cases) {
            if case.source.order() != 2 {
                continue;
            }
            let y =
                p.t.call(Layer::Spmv, "spmv.coo_iter10", label, SPMV_ITERS, || {
                    let mut y = None;
                    for _ in 0..SPMV_ITERS {
                        y = spmv_any(&case.source, &case.x);
                    }
                    y
                });
            p.check(
                "COO SpMV",
                y.is_some_and(|y| case.expected.y_ok(&y, p.full)),
            );
        }
    }

    fn layer_metrics(&self, spans: &SpanTable, m: &mut Metrics) {
        let mut mtx_bytes = 0.0;
        let mut mtx_s = 0.0;
        let mut nnz = 0.0;
        let mut profile_s = 0.0;
        let mut bytes_read = 0u64;
        for (label, case) in CASES.iter().zip(&self.cases) {
            let profile = spans.median("select.profile", label);
            m.set_for("select.profile_s", label, profile);
            profile_s += profile;
            nnz += case.expected.nnz as f64;
            if case.source.order() == 2 {
                let load = spans.median("io.mtx_load", label);
                m.set_for("io.mtx_load_s", label, load);
                mtx_bytes += case.bytes as f64;
                mtx_s += load;
                bytes_read += case.bytes;
                let iter = spans.median("spmv.iter10", label) / SPMV_ITERS as f64;
                let coo_iter = spans.median("spmv.coo_iter10", label) / SPMV_ITERS as f64;
                m.set_for("spmv.iter_s", label, iter);
                m.set_for("spmv.speedup_vs_coo", label, ratio(coo_iter, iter));
            } else {
                let load = spans.median("io.tns_load", label);
                m.set("io.tns_dims_s", spans.median("io.tns_dims", label));
                m.set("io.tns_load_s", load);
                m.set("io.tns_mb_per_s", ratio(case.bytes as f64 / 1e6, load));
                // One scan for the dimensions, one for the entries.
                bytes_read += 2 * case.bytes;
            }
        }
        m.set("io.mtx_mb_per_s", ratio(mtx_bytes / 1e6, mtx_s));
        m.set("io.bytes_read", bytes_read as f64);
        m.set("select.profile_mnnz_per_s", ratio(nnz / 1e6, profile_s));
        // Every service here is fresh, so every `route_for` plans cold.
        let route_s: Vec<f64> = CASES
            .iter()
            .map(|label| spans.median("planner.route_for", label))
            .collect();
        m.set(
            "planner.route_cold_us",
            crate::stats::median(&route_s) * 1e6,
        );
        let (routes, stats): (Vec<Route>, Vec<ServiceStats>) =
            self.last.iter().flatten().cloned().unzip();
        m.set("planner.multi_hop_share", multi_hop_share(&routes));
        m.set("cache.hit_ratio", hit_ratio(&stats));
        m.set("service.parallel_share", parallel_share(&stats));
    }
}
