//! Stream sources and sinks: where coordinate blocks come from and go.
//!
//! A [`TensorStream`] yields [`CoordBlock`]s one at a time, so a conversion
//! never needs the whole input resident; loaders (file readers, in-memory
//! adapters) implement the producing side and sinks the consuming side.

use sparse_conv::ConvertError;
use sparse_formats::{CooMatrix, CooTensor};
use sparse_tensor::{Shape, SparseTriples, TensorError};

use crate::block::CoordBlock;

/// A pull-based source of coordinate blocks. Every block carries the same
/// rank-`N` [`Shape`]; blocks arrive in a stable source order (ties in later
/// sorts are broken by this arrival order).
pub trait TensorStream {
    /// The shape of the tensor being streamed.
    fn shape(&self) -> &Shape;

    /// The next block, or `None` when the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates I/O or parse failures from the underlying source.
    fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError>;

    /// Total nonzeros if the source knows it up front (file loaders usually
    /// do, from the header).
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// The next unit of parse work, or `None` when the stream is exhausted:
    /// a [`ParseJob`] that yields the next entries in source order when run.
    /// Jobs are sequenced: the caller may run them on other threads (they are
    /// `Send`) and in any order, but must take their blocks in the order the
    /// jobs were handed out, and stop at the first error in that order. A job
    /// may cover more than one block, about `entries` entries when the stream
    /// can cut that finely, never less than a block. A stream is drained by
    /// this method or by [`TensorStream::next_block`], not both.
    ///
    /// The default hands out each [`TensorStream::next_block`] as an
    /// already-parsed job.
    ///
    /// # Errors
    ///
    /// Propagates I/O or parse failures from the underlying source.
    fn next_job(&mut self, entries: usize) -> Result<Option<ParseJob>, ConvertError> {
        let _ = entries;
        Ok(self.next_block()?.map(ParseJob::ready))
    }
}

/// A `Send` unit of parse work cut from a [`TensorStream`]: raw input plus
/// the parser that turns it into a [`CoordBlock`], stating up front what it
/// can hold, so a pipeline can charge it to a memory budget.
pub struct ParseJob {
    /// The most entries the job's block can hold.
    pub entries: usize,
    /// Bytes of raw input the job holds until it runs.
    pub text_bytes: usize,
    parse: Box<dyn FnOnce() -> Result<CoordBlock, ConvertError> + Send>,
}

impl ParseJob {
    /// A job holding `text_bytes` bytes of raw input that `parse` turns into
    /// at most `entries` entries.
    pub fn new(
        entries: usize,
        text_bytes: usize,
        parse: impl FnOnce() -> Result<CoordBlock, ConvertError> + Send + 'static,
    ) -> Self {
        let parse = Box::new(parse);
        ParseJob {
            entries,
            text_bytes,
            parse,
        }
    }

    /// A job whose block is already parsed.
    pub fn ready(block: CoordBlock) -> Self {
        Self::new(block.nnz(), 0, move || Ok(block))
    }

    /// Parses the job's input into its block.
    ///
    /// # Errors
    ///
    /// The parse failures of the underlying source, at their file lines.
    pub fn run(self) -> Result<CoordBlock, ConvertError> {
        (self.parse)()
    }
}

/// A push-based consumer of coordinate blocks.
pub trait TensorSink {
    /// The shape this sink accepts.
    fn shape(&self) -> &Shape;

    /// Consumes one block.
    ///
    /// # Errors
    ///
    /// Propagates validation or I/O failures from the underlying consumer.
    fn push_block(&mut self, block: CoordBlock) -> Result<(), ConvertError>;
}

/// A sink that accumulates every block into an in-memory [`CooTensor`] in
/// arrival order — the materialising endpoint (and the fallback the runtime
/// uses for targets without a streaming kernel).
#[derive(Debug, Clone)]
pub struct CooSink {
    tensor: CooTensor,
}

impl CooSink {
    /// An empty sink for tensors of `shape`.
    pub fn new(shape: Shape) -> Self {
        CooSink {
            tensor: CooTensor::new(shape),
        }
    }

    /// The accumulated tensor.
    pub fn into_tensor(self) -> CooTensor {
        self.tensor
    }
}

impl TensorSink for CooSink {
    fn shape(&self) -> &Shape {
        self.tensor.shape()
    }

    /// Adopts the first block's columns and appends later ones in bulk; a
    /// block of another shape is a [`ConvertError::Structure`] error.
    fn push_block(&mut self, block: CoordBlock) -> Result<(), ConvertError> {
        let (shape, expected) = (block.shape(), self.tensor.shape());
        if shape != expected {
            let message = format!("a block of shape {shape} for a sink of shape {expected}");
            return Err(TensorError::InvalidStructure(message).into());
        }
        if self.tensor.nnz() == 0 {
            self.tensor = block.into_tensor();
            return Ok(());
        }
        let crd: Vec<&[usize]> = (0..block.order()).map(|d| block.crd(d)).collect();
        Ok(self.tensor.append_columns(&crd, block.values())?)
    }
}

/// Streams an in-memory COO tensor as fixed-size blocks — the adapter that
/// lets resident data flow through the same pipeline as file loaders (and the
/// workhorse of the equivalence tests, which sweep its block size).
#[derive(Debug, Clone)]
pub struct CooBlockStream {
    tensor: CooTensor,
    block_nnz: usize,
    pos: usize,
}

impl CooBlockStream {
    /// Streams `tensor` in blocks of at most `block_nnz` nonzeros (at least
    /// one), preserving stored order.
    pub fn new(tensor: CooTensor, block_nnz: usize) -> Self {
        CooBlockStream {
            tensor,
            block_nnz: block_nnz.max(1),
            pos: 0,
        }
    }

    /// Streams a COO matrix (an order-2 tensor) in blocks.
    pub fn from_matrix(m: &CooMatrix, block_nnz: usize) -> Self {
        let shape = Shape::matrix(m.rows(), m.cols());
        let tensor = CooTensor::from_parts(
            shape,
            vec![m.row_indices().to_vec(), m.col_indices().to_vec()],
            m.values().to_vec(),
        )
        .expect("a valid CooMatrix is a valid order-2 CooTensor");
        Self::new(tensor, block_nnz)
    }

    /// Streams canonical triples in blocks, preserving their order.
    pub fn from_triples(t: &SparseTriples, block_nnz: usize) -> Self {
        Self::new(CooTensor::from_triples(t), block_nnz)
    }
}

impl TensorStream for CooBlockStream {
    fn shape(&self) -> &Shape {
        self.tensor.shape()
    }

    fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
        if self.pos >= self.tensor.nnz() {
            return Ok(None);
        }
        let end = (self.pos + self.block_nnz).min(self.tensor.nnz());
        let mut block = CoordBlock::with_capacity(self.tensor.shape().clone(), end - self.pos);
        let mut coord = vec![0usize; self.tensor.order()];
        for p in self.pos..end {
            for (d, c) in coord.iter_mut().enumerate() {
                *c = self.tensor.crd(d)[p];
            }
            block.push(&coord, self.tensor.values()[p])?;
        }
        self.pos = end;
        Ok(Some(block))
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.tensor.nnz() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor {
        let mut t = CooTensor::new(Shape::tensor3(3, 3, 3));
        for p in 0..7usize {
            t.push(&[p % 3, (p * 2) % 3, p % 2], p as f64);
        }
        t
    }

    #[test]
    fn blocks_partition_the_tensor_in_order() {
        let t = sample();
        for block_nnz in [1, 3, 100] {
            let mut stream = CooBlockStream::new(t.clone(), block_nnz);
            assert_eq!(stream.size_hint(), Some(7));
            let mut sink = CooSink::new(stream.shape().clone());
            let mut blocks = 0usize;
            while let Some(b) = stream.next_block().unwrap() {
                assert!(b.nnz() <= block_nnz);
                blocks += 1;
                sink.push_block(b).unwrap();
            }
            assert_eq!(blocks, 7usize.div_ceil(block_nnz));
            assert_eq!(sink.into_tensor(), t, "round-trip preserves order");
        }
    }

    #[test]
    fn the_sink_adopts_its_first_block_and_appends_the_rest() {
        let t = sample();
        let block = |range: std::ops::Range<usize>| {
            let crd = (0..3).map(|d| t.crd(d)[range.clone()].to_vec()).collect();
            CoordBlock::from_columns(t.shape().clone(), crd, t.values()[range].to_vec()).unwrap()
        };
        // One block: its columns become the tensor's, allocation and all.
        let mut sink = CooSink::new(t.shape().clone());
        let whole = block(0..7);
        let first = whole.crd(0).as_ptr();
        sink.push_block(whole).unwrap();
        let one = sink.into_tensor();
        assert_eq!((one.crd(0).as_ptr(), &one), (first, &t));
        // Many blocks, an empty one first: adopted, then appended in order.
        let mut sink = CooSink::new(t.shape().clone());
        for range in [0..0, 0..2, 2..3, 3..7] {
            sink.push_block(block(range)).unwrap();
        }
        assert_eq!(sink.into_tensor(), t);
        // A block of another shape is refused, empty sink or not.
        let mut sink = CooSink::new(Shape::tensor3(3, 3, 4));
        assert!(sink.push_block(block(0..2)).is_err());
        assert_eq!(sink.into_tensor().nnz(), 0);
    }

    #[test]
    fn default_jobs_are_the_blocks_already_parsed() {
        let t = sample();
        let (mut blocks, mut jobs) = (CooBlockStream::new(t.clone(), 3), CooBlockStream::new(t, 3));
        while let Some(job) = jobs.next_job(100).unwrap() {
            let block = blocks
                .next_block()
                .unwrap()
                .expect("as many blocks as jobs");
            assert_eq!((job.entries, job.text_bytes), (block.nnz(), 0));
            assert_eq!(job.run().unwrap(), block);
        }
        assert_eq!(blocks.next_block().unwrap(), None);
    }

    #[test]
    fn a_block_of_another_shape_is_a_typed_error() {
        let mut sink = CooSink::new(Shape::matrix(4, 4));
        let mut block = CoordBlock::new(Shape::matrix(4, 5));
        block.push(&[0, 4], 1.0).unwrap();
        assert!(matches!(
            sink.push_block(block),
            Err(ConvertError::Structure(_))
        ));
        assert!(matches!(
            sink.push_block(CoordBlock::new(Shape::tensor3(4, 4, 1))),
            Err(ConvertError::Structure(_))
        ));
        assert_eq!(sink.into_tensor().nnz(), 0);
    }

    #[test]
    fn matrix_and_triples_adapters_agree() {
        let mut m = CooMatrix::new(4, 5);
        m.push(3, 1, 1.0);
        m.push(0, 2, 2.0);
        let mut from_matrix = CooBlockStream::from_matrix(&m, 10);
        let mut from_triples = CooBlockStream::from_triples(&m.to_triples(), 10);
        assert_eq!(from_matrix.shape().dims(), &[4, 5]);
        assert_eq!(
            from_matrix.next_block().unwrap(),
            from_triples.next_block().unwrap()
        );
        assert!(from_matrix.next_block().unwrap().is_none());
    }
}
