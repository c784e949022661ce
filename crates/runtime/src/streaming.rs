//! The streaming side of the service: pipeline plumbing and streamed packers.
//!
//! [`ConversionService::convert_stream`](crate::ConversionService::convert_stream)
//! orchestrates three pieces that live here:
//!
//! * [`classify`](self) — reads the target's streamed sort key off
//!   [`sparse_conv::kernel_table`] (CSR, CSF, and mode-ordered `CSF@...`
//!   registry formats have one) and falls back to materialising the input
//!   for targets without and for records wider than 128 bits;
//! * [`pump`](self) — the producer/consumer pipeline on `u64` or `u128`
//!   records ([`record_bits`]), then the packer: a producer thread pulls
//!   [`CoordBlock`]s from the source and sends them through a *bounded*
//!   channel (the bound is the backpressure: a slow sorter stalls the
//!   producer instead of letting blocks pile up), while the consumer groups
//!   blocks and pre-sorts each group in parallel on the service's
//!   [`WorkerPool`] before feeding the [`ExternalSorter`];
//! * the `assemble_*` packers — they drain the sorter's records straight
//!   into the packing loops the in-memory engine uses (the CSR
//!   count/prefix/fill, `CsfBuilder::append` at the `prev ^ key` split),
//!   which is what makes streamed output byte-identical.

use std::path::PathBuf;
use std::sync::mpsc;

use conv_stream::sorter::{record_bits, MemRun};
use conv_stream::{
    CooSink, CoordBlock, ExternalSorter, MemTracker, MemoryBudget, SorterConfig, StreamStats,
    TensorSink, TensorStream,
};
use obs::Span;
use sparse_conv::convert::AnyTensor;
use sparse_conv::kernel_table::{self, StreamKey};
use sparse_conv::{ConvertError, Format};
use sparse_formats::radix::PackedKey;
use sparse_formats::{CooMatrix, CsfBuilder, CsfTensor, CsrMatrix};
use sparse_tensor::{Shape, Value};

use crate::pool::WorkerPool;

/// Tuning knobs of a streaming conversion.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Working-set budget for the external sort (sort buffers, in-flight
    /// blocks, merge read buffers). Inputs that fit stay entirely in memory.
    pub budget: MemoryBudget,
    /// Capacity of the bounded block channel between the producer and the
    /// sorter — the backpressure depth. `0` means "one block per worker".
    pub channel_blocks: usize,
    /// Directory for spill runs (the system temp directory when `None`).
    pub spill_dir: Option<PathBuf>,
}

impl StreamOptions {
    /// Options converting under `budget` with default pipeline depth.
    pub fn with_budget(budget: MemoryBudget) -> Self {
        StreamOptions {
            budget,
            ..StreamOptions::default()
        }
    }
}

/// A streamed conversion's result: the packed tensor plus the streaming
/// statistics (spill counts, working-set high-water mark).
#[derive(Debug)]
pub struct StreamConversion {
    /// The conversion result, byte-identical to the in-memory path.
    pub tensor: AnyTensor,
    /// What the pipeline did to produce it.
    pub stats: StreamStats,
}

/// How a target is packed from a sorted stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StreamTarget {
    /// Streamed CSR: sort by row, count/prefix/fill.
    Csr,
    /// Streamed CSF along this mode order (the identity for stock CSF;
    /// registry `CSF@...` targets wrap the result into a
    /// [`CustomTensor`](sparse_conv::generic::CustomTensor)).
    Csf(Vec<usize>),
}

/// Classifies a target for a stream of `shape` from its [`StreamKey`]
/// fact; `None` means no streamed packer, or records wider than 128 bits
/// (materialise, then convert in memory).
pub(crate) fn classify(target: &Format, shape: &Shape) -> Option<StreamTarget> {
    if record_bits(shape) > u128::BITS {
        return None;
    }
    let order = shape.order();
    match kernel_table::facts(target).stream_key? {
        StreamKey::Rows => (order == 2).then_some(StreamTarget::Csr),
        StreamKey::Modes => {
            // Stock CSF packs along the identity order at any rank; a
            // registry `CSF@perm` fixes both the order and the rank.
            let mode_order = match target.id() {
                Some(_) => (0..order).collect(),
                None => target
                    .mode_order()
                    .expect("a modes key implies a mode order"),
            };
            (mode_order.len() == order).then_some(StreamTarget::Csf(mode_order))
        }
    }
}

impl StreamTarget {
    /// The dimensions the external sort keys on.
    pub(crate) fn sort_key(&self) -> Vec<usize> {
        match self {
            StreamTarget::Csr => vec![0],
            StreamTarget::Csf(mode_order) => mode_order.clone(),
        }
    }

    /// Drains the sorter into the target's container.
    fn assemble<K: PackedKey>(
        self,
        shape: &Shape,
        target: &Format,
        sorter: ExternalSorter<K>,
    ) -> Result<(AnyTensor, StreamStats), ConvertError> {
        match self {
            StreamTarget::Csr => {
                let (csr, stats) = assemble_csr(shape, sorter)?;
                Ok((AnyTensor::Csr(csr), stats))
            }
            StreamTarget::Csf(mode_order) => {
                let (csf, stats) = assemble_csf(shape, &mode_order, sorter)?;
                if target.id().is_some() {
                    return Ok((AnyTensor::Csf(csf), stats));
                }
                let spec = target.spec().expect("registry formats carry a spec");
                let wrapped = sparse_conv::mode::custom_from_csf(spec, &mode_order, &csf)?;
                Ok((AnyTensor::Custom(Box::new(wrapped)), stats))
            }
        }
    }
}

/// Sorts the stream through an [`ExternalSorter`] on `K`-word records (the
/// caller picks the narrowest word [`record_bits`] fits) and packs the
/// target from them. The pipeline: a producer thread feeds blocks into a
/// bounded channel; the calling thread drains it in groups of up to
/// `threads` blocks, pre-sorts each group on the pool, and pushes the runs
/// into the sorter in arrival order (which later merges use to break ties).
/// The producer is a pipeline stage, not a fan-out, so it is the one thread
/// the runtime starts outside `sparse_conv::partition::fork_join`.
pub(crate) fn pump<K: PackedKey, S: TensorStream + Send>(
    plan: StreamTarget,
    stream: &mut S,
    target: &Format,
    opts: &StreamOptions,
    pool: &WorkerPool,
    threads: usize,
) -> Result<(AnyTensor, StreamStats), ConvertError> {
    let shape = stream.shape().clone();
    let cfg = SorterConfig {
        budget: opts.budget,
        spill_dir: opts.spill_dir.clone(),
    };
    let mut sorter = ExternalSorter::new(shape.clone(), plan.sort_key(), cfg, MemTracker::new())?;
    let tracker = sorter.tracker().clone();
    let layout = sorter.layout().clone();
    let group_size = threads.max(1);
    let depth = match opts.channel_blocks {
        0 => group_size,
        depth => depth,
    };
    // One span for the whole pipeline; the consumer loop below runs on this
    // thread, so the per-group pre-sort spans nest under it.
    let pump_span = Span::enter("stream.pump");
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel::<CoordBlock>(depth);
        let sorter = &mut sorter;
        let producer_tracker = tracker.clone();
        let producer = s.spawn(move || -> Result<(), ConvertError> {
            while let Some(block) = stream.next_block()? {
                producer_tracker.add(block.approx_bytes());
                if tx.send(block).is_err() {
                    // The consumer hung up after an error; it reports it.
                    return Ok(());
                }
            }
            Ok(())
        });
        let consumed = (move || -> Result<(), ConvertError> {
            // `rx` is moved in, so an early error return drops it and
            // unblocks the producer.
            loop {
                let mut group: Vec<CoordBlock> = match rx.recv() {
                    Ok(b) => vec![b],
                    Err(_) => return Ok(()),
                };
                while group.len() < group_size {
                    match rx.try_recv() {
                        Ok(b) => group.push(b),
                        Err(_) => break,
                    }
                }
                let presort = Span::enter("stream.presort");
                presort.add_items(group.iter().map(|b| b.nnz() as u64).sum());
                let runs: Vec<MemRun<K>> = pool
                    .run(group.len(), |i| MemRun::from_block(&group[i], &layout))
                    .into_iter()
                    .collect::<Result<_, _>>()?;
                drop(presort);
                for (block, run) in group.iter().zip(runs) {
                    tracker.sub(block.approx_bytes());
                    sorter.push_run(run)?;
                }
            }
        })();
        // A panicking source drops `tx` as it unwinds, which ends the
        // consumer loop above; the panic itself becomes the error.
        producer.join().map_err(|_| ConvertError::WorkerPanicked {
            phase: "stream.producer",
        })??;
        consumed
    })?;
    drop(pump_span);
    plan.assemble(&shape, target, sorter)
}

/// Drains the sorter into a CSR matrix: rows arrive in nondecreasing order
/// (and within a row in arrival order, because the sort key is the row
/// alone, above the column's tail bits), so one counting pass plus a prefix
/// sum reproduces `engine::to_csr`'s output exactly.
fn assemble_csr<K: PackedKey>(
    shape: &Shape,
    sorter: ExternalSorter<K>,
) -> Result<(CsrMatrix, StreamStats), ConvertError> {
    let (rows, cols) = (shape.dim(0), shape.dim(1));
    let entries = sorter.stats().entries as usize;
    let span = Span::enter("stream.assemble");
    span.add_items(entries as u64);
    // Key [0] puts the row at level 0 and the column at level 1.
    let layout = sorter.layout().keys().clone();
    let mut counts = vec![0usize; rows];
    let mut crd = Vec::with_capacity(entries);
    let mut vals = Vec::with_capacity(entries);
    let stats = sorter.drain(|key, bits| {
        counts[layout.coord(key, 0)] += 1;
        crd.push(layout.coord(key, 1));
        vals.push(Value::from_bits(bits));
        Ok(())
    })?;
    let mut pos = vec![0usize; rows + 1];
    for i in 0..rows {
        pos[i + 1] = pos[i] + counts[i];
    }
    let csr = CsrMatrix::from_parts(rows, cols, pos, crd, vals)
        .expect("assembled CSR structure is valid");
    Ok((csr, stats))
}

/// Drains the sorter into CSF along `mode_order` (storage level `d` holds
/// canonical mode `mode_order[d]`). The sorter's key is `mode_order` itself,
/// so the key word's levels are the CSF levels (no tail), records arrive
/// exactly as the engine's stable lexicographic sort of the permuted tuples
/// would emit them, and each one appends at the split `prev ^ key` names.
fn assemble_csf<K: PackedKey>(
    shape: &Shape,
    mode_order: &[usize],
    sorter: ExternalSorter<K>,
) -> Result<(CsfTensor, StreamStats), ConvertError> {
    let span = Span::enter("stream.assemble");
    span.add_items(sorter.stats().entries);
    let packed = Shape::new(mode_order.iter().map(|&m| shape.dim(m)).collect());
    let layout = sorter.layout().keys().clone();
    let mut builder = CsfBuilder::new(packed, sorter.stats().entries as usize);
    let mut prev = None;
    let stats = sorter.drain(|key, bits| {
        let split = prev.map_or(0, |prev| layout.split(prev, key));
        builder.append(split, |d| layout.coord(key, d), Value::from_bits(bits));
        prev = Some(key);
        Ok(())
    })?;
    Ok((builder.finish(), stats))
}

/// Consumes the whole stream into an in-memory COO source (the fallback for
/// targets without a streamed packer), counting blocks and entries.
pub(crate) fn materialize<S: TensorStream>(
    stream: &mut S,
    stats: &mut StreamStats,
) -> Result<AnyTensor, ConvertError> {
    let span = Span::enter("stream.materialize");
    let mut sink = CooSink::new(stream.shape().clone());
    while let Some(block) = stream.next_block()? {
        stats.blocks += 1;
        stats.entries += block.nnz() as u64;
        sink.push_block(block)?;
    }
    span.add_items(stats.entries);
    let tensor = sink.into_tensor();
    Ok(if tensor.order() == 2 {
        let mut m = CooMatrix::new(tensor.shape().dim(0), tensor.shape().dim(1));
        for p in 0..tensor.nnz() {
            m.push(tensor.crd(0)[p], tensor.crd(1)[p], tensor.values()[p]);
        }
        AnyTensor::Coo(m)
    } else {
        AnyTensor::Coo3(tensor)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_streamed_targets() {
        let cube = Shape::tensor3(4, 4, 4);
        assert_eq!(
            classify(&Format::csr(), &Shape::matrix(4, 4)),
            Some(StreamTarget::Csr)
        );
        // CSR needs an order-2 stream; an order-3 stream materialises.
        assert_eq!(classify(&Format::csr(), &cube), None);
        assert_eq!(
            classify(&Format::csf(), &cube),
            Some(StreamTarget::Csf(vec![0, 1, 2]))
        );
        let permuted: Format = "CSF@2,0,1".parse().unwrap();
        assert_eq!(
            classify(&permuted, &cube),
            Some(StreamTarget::Csf(vec![2, 0, 1]))
        );
        assert_eq!(classify(&permuted, &Shape::matrix(4, 4)), None);
        assert_eq!(classify(&Format::ell(), &Shape::matrix(4, 4)), None);
        // 129-bit records fit no key word; 128-bit ones take u128.
        let wide = |d0| Shape::tensor3(d0, 1 << 43, 1 << 43);
        assert_eq!(classify(&Format::csf(), &wide(1 << 43)), None);
        assert!(classify(&Format::csf(), &wide(1 << 42)).is_some());
    }
}
