//! The streaming side of the service: pipeline plumbing and streamed packers.
//!
//! [`ConversionService::convert_stream`](crate::ConversionService::convert_stream)
//! orchestrates three pieces that live here:
//!
//! * [`classify`](self) — reads the target's streamed sort key off
//!   [`sparse_conv::kernel_table`] (CSR, CSF, and mode-ordered `CSF@...`
//!   registry formats have one) and falls back to materialising the input
//!   for targets without and for records wider than 128 bits;
//! * [`pump`](self) — the pipeline on `u64` or `u128` records
//!   ([`record_bits`]): the producer thread cuts [`ParseJob`]s from the
//!   source ([`TensorStream::next_job`]) and queues each once the memory
//!   budget admits it; `T` workers, started once for the whole conversion
//!   by one [`WorkerPool::run`], each parse a job and pre-sort it into a
//!   run; and the consumer, a stage of the same run, pushes the runs into
//!   the [`ExternalSorter`] in file order and releases their reservations;
//! * the `assemble_*` packers — they drain the sorter's records straight
//!   into the packing loops the in-memory engine uses (the CSR
//!   count/prefix/fill, `CsfBuilder::append` at the `prev ^ key` split),
//!   which is what makes streamed output byte-identical.

use std::collections::BTreeMap;
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use conv_stream::sorter::{record_bits, MemRun, RecordLayout};
use conv_stream::{
    entry_bytes, CooSink, ExternalSorter, MemTracker, MemoryBudget, ParseJob, SorterConfig,
    StreamStats, TensorSink, TensorStream,
};
use obs::{ConversionReport, Span, SpanHandle};
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
    /// Working-set budget for the external sort (sort buffers, parse jobs in
    /// flight, merge read buffers). Inputs that fit stay entirely in memory.
    pub budget: MemoryBudget,
    /// Depth of the job queue between the producer and the parse workers:
    /// admitted jobs no worker has taken yet. `0` means one per worker.
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

/// A streamed conversion's result: the packed tensor, the streaming
/// statistics (spill counts, working-set high-water mark) and the
/// conversion's report.
#[derive(Debug)]
pub struct StreamConversion {
    /// The conversion result, byte-identical to the in-memory path.
    pub tensor: AnyTensor,
    /// What the pipeline did to produce it.
    pub stats: StreamStats,
    /// Where the time went: the streamed phase tree, the spill counts and
    /// the route (`"stream"`, or the in-memory route of a materialised
    /// fallback).
    pub report: ConversionReport,
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
                let wrapped = sparse_conv::mode::custom_from_csf(spec, &mode_order, csf)?;
                Ok((AnyTensor::Custom(Box::new(wrapped)), stats))
            }
        }
    }
}

/// Sorts the stream through an [`ExternalSorter`] on `K`-word records (the
/// caller picks the narrowest word [`record_bits`] fits) and packs the
/// target from them. Three stages run at once: the producer thread cuts
/// jobs from the stream and queues each once the budget admits it; `threads`
/// workers parse and pre-sort jobs into runs; and the consumer pushes the
/// runs into the sorter in job order (which later merges use to break ties)
/// and releases their reservations. The workers and the consumer are one
/// [`WorkerPool::run`] for the whole conversion; the producer is a pipeline
/// stage, not a fan-out, so it is the one thread the runtime starts outside
/// `sparse_conv::partition::fork_join`.
pub(crate) fn pump<K: PackedKey, S: TensorStream + Send>(
    plan: StreamTarget,
    stream: &mut S,
    target: &Format,
    opts: &StreamOptions,
    threads: usize,
) -> Result<(AnyTensor, StreamStats), ConvertError> {
    let shape = stream.shape().clone();
    let cfg = SorterConfig {
        budget: opts.budget,
        spill_dir: opts.spill_dir.clone(),
    };
    let mut sorter =
        ExternalSorter::<K>::new(shape.clone(), plan.sort_key(), cfg, MemTracker::new())?;
    let layout = sorter.layout().clone();
    let threads = threads.max(1);
    let depth = match opts.channel_blocks {
        0 => threads,
        depth => depth,
    };
    let sizing = JobSizing::new::<K>(shape.order(), opts.budget, threads);
    let gate = Gate {
        state: Mutex::default(),
        changed: Condvar::new(),
        budget: opts.budget.bytes,
        tracker: sorter.tracker().clone(),
    };
    let pump_span = Span::enter("stream.pump");
    let pump = pump_span.handle();
    std::thread::scope(|s| {
        let (jobs_tx, jobs) = mpsc::sync_channel(depth);
        let (runs, runs_rx) = mpsc::channel();
        let (gate, sizing, to_consumer) = (&gate, &sizing, runs.clone());
        let producer = s.spawn(move || produce(stream, sizing, gate, jobs_tx, &to_consumer, pump));
        // The consumer's state, behind a lock only the consumer takes; it
        // drops the receiver when it returns, so the workers stop.
        let (jobs, consumer) = (Mutex::new(jobs), Mutex::new((&mut sorter, Some(runs_rx))));
        let stages = WorkerPool::new(threads + 1).run(threads + 1, |stage| match stage {
            0 => {
                let mut consumer = consumer.lock().unwrap_or_else(PoisonError::into_inner);
                let (sorter, runs) = &mut *consumer;
                consume(sorter, runs.take().expect("one consumer"), gate)
            }
            _ => {
                work(&jobs, &runs, &layout);
                Ok(())
            }
        });
        // Unblocks a producer still sending into, or waiting on jobs in, the
        // queue.
        drop(jobs);
        let produced = producer.join();
        // The consumer's error, first, is the first in file order.
        stages.into_iter().try_for_each(|stage| stage?)?;
        produced.map_err(|_| ConvertError::WorkerPanicked {
            phase: "stream.producer",
        })
    })?;
    drop(pump_span);
    plan.assemble(&shape, target, sorter)
}

/// A job's sequence number, then its run and reservation, `None` after the
/// last job, or the error that ends the stream there.
type Done<K> = (u64, Result<Option<(MemRun<K>, usize)>, ConvertError>);

/// How large the pump cuts jobs and what it reserves for each.
struct JobSizing {
    /// Entries a job asks for: its share of the budget's headroom.
    entries: usize,
    /// Bytes of one entry's parsed columns, and of one sort record.
    column: usize,
    record: usize,
}

impl JobSizing {
    /// Sizes jobs so `threads + 2` of them (one per worker, one queued, one
    /// being cut) fit the headroom the sort buffer leaves in `budget`.
    fn new<K: PackedKey>(order: usize, budget: MemoryBudget, threads: usize) -> Self {
        let (column, record) = (entry_bytes(order), size_of::<(K, u64)>());
        let headroom = budget.bytes - budget.buffer_threshold();
        JobSizing {
            entries: headroom / ((threads + 2) * (column + 2 * record)),
            column,
            record,
        }
    }

    /// The most a job holds at one time: its text and parsed columns, or its
    /// columns, records and radix scratch.
    fn reservation(&self, job: &ParseJob) -> usize {
        let n = job.entries;
        (job.text_bytes + n * self.column).max(n * (self.column + 2 * self.record))
    }
}

/// The admission gate between the producer and the consumer: jobs in flight
/// (admitted, their runs not yet pushed) and whether the consumer stopped.
struct Gate {
    state: Mutex<(usize, bool)>,
    changed: Condvar,
    budget: usize,
    tracker: MemTracker,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserves `bytes` for a job: at once when no job is in flight or the
    /// tracked working set plus `bytes` stays under the budget, otherwise
    /// after waiting (`stream.budget_wait`) for the consumer to release
    /// enough. Returns `false` when the consumer has stopped.
    fn admit(&self, bytes: usize, pump: SpanHandle) -> bool {
        let blocked = |&(in_flight, stopped): &(usize, bool)| {
            !stopped && in_flight > 0 && self.tracker.current() + bytes >= self.budget
        };
        let mut state = self.lock();
        if blocked(&state) {
            let _wait = Span::enter_under("stream.budget_wait", pump);
            // A spill releases the sort buffer before it syncs its file,
            // without a notification: the tracker is read again every
            // `POLL`, so jobs parse while the sync runs.
            const POLL: Duration = Duration::from_micros(100);
            while blocked(&state) {
                let waited = self.changed.wait_timeout(state, POLL);
                state = waited.unwrap_or_else(PoisonError::into_inner).0;
            }
        }
        if state.1 {
            return false;
        }
        self.tracker.add(bytes);
        state.0 += 1;
        true
    }

    /// Hands a job's run to the sorter and releases the rest of its
    /// reservation; the sorter takes over the run's bytes, so the tracker
    /// never counts the run twice nor drops it, and a spill the push
    /// triggers runs without the lock.
    fn push<K: PackedKey>(
        &self,
        sorter: &mut ExternalSorter<K>,
        run: MemRun<K>,
        reserved: usize,
    ) -> Result<(), ConvertError> {
        self.tracker.sub(reserved - run.bytes());
        self.changed.notify_one();
        let pushed = sorter.push_run(run);
        self.lock().0 -= 1;
        self.changed.notify_one();
        pushed
    }

    /// Tells the producer the consumer has stopped.
    fn stop(&self) {
        self.lock().1 = true;
        self.changed.notify_one();
    }
}

/// The producer: cuts jobs from `stream` in file order, admits each against
/// the budget and queues it. After the last job it sends the end of the
/// stream to the consumer, or the error that ended it; it stops early when
/// the consumer or the workers have.
fn produce<K: PackedKey, S: TensorStream>(
    stream: &mut S,
    sizing: &JobSizing,
    gate: &Gate,
    jobs: SyncSender<(u64, ParseJob, usize)>,
    runs: &Sender<Done<K>>,
    pump: SpanHandle,
) {
    let mut current = Unwinding {
        seq: 0,
        runs,
        phase: "stream.producer",
    };
    loop {
        let job = match stream.next_job(sizing.entries) {
            Ok(Some(job)) => job,
            end => {
                let _ = runs.send((current.seq, end.map(|_| None)));
                return;
            }
        };
        let bytes = sizing.reservation(&job);
        if !gate.admit(bytes, pump) || jobs.send((current.seq, job, bytes)).is_err() {
            return;
        }
        current.seq += 1;
    }
}

/// A parse worker: takes jobs off the queue until it closes, parses and
/// pre-sorts each, and hands the run to the consumer under the job's
/// sequence number. It stops early when the consumer has.
fn work<K: PackedKey>(
    jobs: &Mutex<Receiver<(u64, ParseJob, usize)>>,
    runs: &Sender<Done<K>>,
    layout: &RecordLayout,
) {
    loop {
        let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok((seq, job, reserved)) = next else {
            return;
        };
        let _current = Unwinding {
            seq,
            runs,
            phase: "stream.worker",
        };
        let run = job.run().map(|block| {
            let presort = Span::enter("stream.presort");
            presort.add_items(block.nnz() as u64);
            Some((MemRun::from_block(&block, layout), reserved))
        });
        if runs.send((seq, run)).is_err() {
            return;
        }
    }
}

/// The consumer: pushes runs into the sorter in sequence order until the
/// end of the stream, or returns the first error in that order. Returning,
/// or unwinding, stops the producer.
fn consume<K: PackedKey>(
    sorter: &mut ExternalSorter<K>,
    runs: Receiver<Done<K>>,
    gate: &Gate,
) -> Result<(), ConvertError> {
    let _stop = Stop(gate);
    let (mut finished, mut next) = (BTreeMap::new(), 0);
    loop {
        let (seq, run) = runs.recv().expect("the pump holds a sender");
        finished.insert(seq, run);
        while let Some(run) = finished.remove(&next) {
            let Some((run, reserved)) = run? else {
                return Ok(());
            };
            gate.push(sorter, run, reserved)?;
            next += 1;
        }
    }
}

/// Stops the producer when the consumer returns or unwinds.
struct Stop<'a>(&'a Gate);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Reports the job a stage holds (a worker's job, or the producer's next) as
/// [`ConvertError::WorkerPanicked`] if the stage unwinds, so the consumer,
/// waiting for that job, stops.
struct Unwinding<'a, K> {
    seq: u64,
    runs: &'a Sender<Done<K>>,
    phase: &'static str,
}

impl<K> Drop for Unwinding<'_, K> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let phase = self.phase;
            let _ = self
                .runs
                .send((self.seq, Err(ConvertError::WorkerPanicked { phase })));
        }
    }
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
