//! `stream_spill`: `convert_stream` straight from files under a budget of one
//! eighth of the input's sort working set, so the external sort must spill;
//! plus the `.mtx` case again under an ample budget (the in-memory fast path).
//! The only workload where memory is the point.

use std::path::{Path, PathBuf};

use conv_runtime::{ConversionService, StreamConversion, StreamOptions};
use conv_stream::{MemoryBudget, StreamStats};
use conv_workloads::io::{tns_dims, write_mtx, write_tns, MtxStream, TnsStream};
use sparse_conv::{AnyTensor, ConvertError, Format};

use super::{io_error, load_mtx, parse_format, service};
use crate::harness::{Metrics, Pass, SpanTable, Workload};
use crate::inputs::{
    checksum, gen_irregular, gen_tensor3, shuffled_coo, shuffled_coo3, sub_seed, Expected, Scratch,
};
use crate::stats::ratio;
use crate::trace::{Layer, Tracer};

struct Sizes {
    nnz: usize,
    tensor_dim: usize,
    /// Entries per streamed block: small next to the budget, because blocks
    /// in flight count against it.
    block_nnz: usize,
}

const FULL: Sizes = Sizes {
    nnz: 96_000,
    tensor_dim: 96,
    block_nnz: 1 << 10,
};
const SMOKE: Sizes = Sizes {
    nnz: 1_200,
    tensor_dim: 12,
    block_nnz: 1 << 4,
};

const CASES: [&str; 3] = ["mtx_spill", "tns_spill", "mtx_ample"];

struct Input {
    path: PathBuf,
    bytes: u64,
    expected: Expected,
    source: AnyTensor,
    target: Format,
    /// What `service.convert` makes of the same input in memory; a streamed
    /// output must equal it.
    in_memory: AnyTensor,
}

struct Case {
    input: usize,
    opts: StreamOptions,
}

pub struct StreamSpill {
    _scratch: Scratch,
    service: ConversionService,
    block_nnz: usize,
    inputs: Vec<Input>,
    cases: Vec<Case>,
    last: Vec<Option<StreamStats>>,
}

pub fn build(
    seed: u64,
    threads: usize,
    dir: &Path,
    smoke: bool,
) -> Result<Box<dyn Workload>, ConvertError> {
    let sizes = if smoke { SMOKE } else { FULL };
    let scratch = Scratch::new_in(dir).map_err(io_error)?;
    let service = service(threads);
    let mut inputs = Vec::with_capacity(2);
    for (k, target) in ["CSR", "CSF"].into_iter().enumerate() {
        let s = sub_seed(seed, k as u64);
        let (triples, path, source) = if k == 0 {
            let triples = gen_irregular(sizes.nnz, s);
            let coo = shuffled_coo(&triples, s);
            let path = scratch.path().join("irregular.mtx");
            write_mtx(&path, &coo)?;
            (triples, path, AnyTensor::Coo(coo))
        } else {
            let triples = gen_tensor3(sizes.tensor_dim, sizes.nnz, s);
            let coo = shuffled_coo3(&triples, s);
            let path = scratch.path().join("uniform.tns");
            write_tns(&path, &coo)?;
            (triples, path, AnyTensor::Coo3(coo))
        };
        let target = parse_format(target)?;
        inputs.push(Input {
            bytes: std::fs::metadata(&path).map_err(io_error)?.len(),
            path,
            expected: Expected::new(&triples),
            in_memory: service.convert(&source, &target)?,
            source,
            target,
        });
    }
    // A streamed entry holds `order` coordinates and a value, eight bytes each.
    let working_set = |input: &Input| (input.expected.order + 1) * 8 * input.expected.nnz;
    let opts = |budget: usize| StreamOptions {
        budget: MemoryBudget::bytes(budget),
        channel_blocks: 0,
        spill_dir: Some(scratch.path().to_path_buf()),
    };
    let cases = vec![
        Case {
            input: 0,
            opts: opts(working_set(&inputs[0]) / 8),
        },
        Case {
            input: 1,
            opts: opts(working_set(&inputs[1]) / 8),
        },
        Case {
            input: 0,
            opts: opts(working_set(&inputs[0]) * 4),
        },
    ];
    Ok(Box::new(StreamSpill {
        _scratch: scratch,
        service,
        block_nnz: sizes.block_nnz,
        last: vec![None; cases.len()],
        inputs,
        cases,
    }))
}

impl StreamSpill {
    fn stream(
        &self,
        t: &mut Tracer,
        label: &'static str,
        case: &Case,
    ) -> Result<StreamConversion, ConvertError> {
        let input = &self.inputs[case.input];
        let nnz = input.expected.nnz as u64;
        if input.expected.order == 2 {
            t.call(Layer::Streaming, "stream.convert", label, nnz, || {
                let stream = MtxStream::open(&input.path, self.block_nnz)?;
                self.service
                    .convert_stream(stream, &input.target, &case.opts)
            })
        } else {
            // FROSTT files carry no dimensions: one scan finds them.
            let (shape, _) = t.call(Layer::Io, "io.tns_dims", label, input.bytes, || {
                tns_dims(&input.path)
            })?;
            t.call(Layer::Streaming, "stream.convert", label, nnz, || {
                let stream = TnsStream::open(&input.path, shape, self.block_nnz)?;
                self.service
                    .convert_stream(stream, &input.target, &case.opts)
            })
        }
    }
}

impl Workload for StreamSpill {
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
        self.inputs.iter().map(|i| checksum(&i.source)).collect()
    }

    fn routes(&self) -> Vec<String> {
        // Streamed conversions never enter the in-memory router; what they
        // did instead is in the spill counters.
        self.last
            .iter()
            .flatten()
            .map(|s| format!("stream({} spilled runs)", s.spilled_runs))
            .collect()
    }

    fn pass(&mut self, p: &mut Pass) {
        for (idx, label) in CASES.iter().enumerate() {
            let mut stats = None;
            let case = &self.cases[idx];
            let input = &self.inputs[case.input];
            p.case(
                idx,
                label,
                |t| self.stream(t, label, case),
                |conv, full| {
                    stats = Some(conv.stats);
                    // Tight budgets must spill; the ample one must not.
                    let spilled = conv.stats.spilled_runs > 0;
                    let path_ok = spilled != (*label == "mtx_ample");
                    let tensor_ok = input.expected.tensor_ok(&conv.tensor, full)
                        && (!full || conv.tensor == input.in_memory);
                    (path_ok && tensor_ok).into()
                },
            );
            self.last[idx] = stats;
        }
    }

    fn extras(&mut self, p: &mut Pass) {
        // The yardstick for `stream.over_in_memory`: load the `.mtx` whole,
        // then convert it in memory.
        let input = &self.inputs[0];
        let out = p.t.call(
            Layer::Service,
            "inmem.load_convert",
            "",
            input.bytes,
            || {
                let coo = load_mtx(&input.path)?;
                self.service.convert(&coo, &input.target)
            },
        );
        p.check(
            "load-then-convert",
            out.is_ok_and(|o| input.expected.tensor_ok(&o, p.full)),
        );
    }

    fn layer_metrics(&self, spans: &SpanTable, m: &mut Metrics) {
        for label in CASES {
            m.set_for(
                "stream.convert_s",
                label,
                spans.median("stream.convert", label),
            );
        }
        m.set("io.tns_dims_s", spans.median("io.tns_dims", CASES[1]));
        let stats: Vec<StreamStats> = self.last.iter().flatten().copied().collect();
        m.set(
            "stream.blocks",
            stats.iter().map(|s| s.blocks).sum::<u64>() as f64,
        );
        m.set(
            "stream.spilled_runs",
            stats.iter().map(|s| s.spilled_runs).sum::<u64>() as f64,
        );
        m.set(
            "stream.spilled_bytes",
            stats.iter().map(|s| s.spilled_bytes).sum::<u64>() as f64,
        );
        let over_budget = self
            .last
            .iter()
            .zip(&self.cases)
            .filter_map(|(s, c)| Some((s.as_ref()?, c)))
            .filter(|(s, _)| !s.in_memory)
            .map(|(s, c)| ratio(s.peak_tracked_bytes as f64, c.opts.budget.bytes as f64))
            .fold(0.0, f64::max);
        m.set("stream.peak_tracked_over_budget", over_budget);
        m.set(
            "stream.over_in_memory",
            ratio(
                spans.median("stream.convert", CASES[0]),
                spans.median("inmem.load_convert", ""),
            ),
        );
    }
}
