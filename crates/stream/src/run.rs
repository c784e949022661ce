//! Spill runs: sorted runs of records written to (and re-read from) disk by
//! the external merge sort.
//!
//! The on-disk encoding is deliberately trivial: a `u64` entry count, then
//! one record per entry, written and read with one call each — the key word
//! (8 or 16 bytes) and the value's IEEE-754 bits, all little-endian. Values
//! round-trip through [`f64::to_bits`], so spilling never perturbs them — a
//! prerequisite for the byte-identical guarantee. [`SpilledRun::open`]
//! rejects a run whose header or length differs from what was written.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sparse_conv::ConvertError;
use sparse_formats::radix::PackedKey;

/// Process-wide counter making spill-file names unique.
static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Bytes one record of `K`-word keys occupies in a spill run.
pub fn record_bytes<K: PackedKey>() -> usize {
    size_of::<K>() + 8
}

/// A sorted run spilled to disk. The file is deleted when the run is dropped.
#[derive(Debug)]
pub struct SpilledRun<K> {
    path: PathBuf,
    entries: u64,
    bytes: u64,
    key: PhantomData<K>,
}

impl<K: PackedKey> SpilledRun<K> {
    /// Bytes this run occupies on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Opens the run for sequential re-reading with a read buffer of
    /// `read_buf` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Io`] when the file cannot be read, or when
    /// its header or length differs from the run that was written.
    pub fn open(&self, read_buf: usize) -> Result<RunCursor<K>, ConvertError> {
        let file = File::open(&self.path)?;
        let len = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(read_buf.max(64), file);
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        let entries = u64::from_le_bytes(header);
        if entries != self.entries || len != self.bytes {
            return Err(ConvertError::Io(format!(
                "spill run {} is damaged: {entries} entries in {len} bytes, \
                 written as {} entries in {} bytes",
                self.path.display(),
                self.entries,
                self.bytes
            )));
        }
        Ok(RunCursor {
            reader,
            remaining: entries,
            key: PhantomData,
        })
    }
}

impl<K> Drop for SpilledRun<K> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes one sorted run to disk; [`RunWriter::finish`] seals it into a
/// [`SpilledRun`].
#[derive(Debug)]
pub struct RunWriter<K> {
    path: PathBuf,
    writer: BufWriter<File>,
    entries: u64,
    key: PhantomData<K>,
}

impl<K: PackedKey> RunWriter<K> {
    /// Creates a run file in `dir` (the system temp directory when `None`).
    pub fn create(dir: Option<&std::path::Path>) -> Result<Self, ConvertError> {
        let dir = dir.map_or_else(std::env::temp_dir, |d| d.to_path_buf());
        let path = dir.join(format!(
            "conv-stream-{}-{}.run",
            std::process::id(),
            RUN_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::create(&path)?;
        let mut writer = BufWriter::with_capacity(8 * 1024, file);
        // Header placeholder; rewritten by `finish`.
        writer.write_all(&0u64.to_le_bytes())?;
        Ok(RunWriter {
            path,
            writer,
            entries: 0,
            key: PhantomData,
        })
    }

    /// Appends one record (records must already be in run order).
    pub fn push(&mut self, key: K, bits: u64) -> Result<(), ConvertError> {
        let mut record = [0u8; 24]; // the widest record: a u128 key and the value
        key.write_le(&mut record);
        record[size_of::<K>()..size_of::<K>() + 8].copy_from_slice(&bits.to_le_bytes());
        self.writer.write_all(&record[..record_bytes::<K>()])?;
        self.entries += 1;
        Ok(())
    }

    /// Flushes, rewrites the entry-count header, and seals the run.
    pub fn finish(self) -> Result<SpilledRun<K>, ConvertError> {
        let RunWriter {
            path,
            writer,
            entries,
            key,
        } = self;
        let mut file = writer
            .into_inner()
            .map_err(|e| ConvertError::Io(e.to_string()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&entries.to_le_bytes())?;
        file.sync_data().ok();
        Ok(SpilledRun {
            path,
            entries,
            bytes: 8 + entries * record_bytes::<K>() as u64,
            key,
        })
    }
}

/// Sequential reader over a [`SpilledRun`].
#[derive(Debug)]
pub struct RunCursor<K> {
    reader: BufReader<File>,
    remaining: u64,
    key: PhantomData<K>,
}

impl<K: PackedKey> Iterator for RunCursor<K> {
    type Item = Result<(K, u64), ConvertError>;

    /// The next record; `None` at the end of the run.
    fn next(&mut self) -> Option<Self::Item> {
        self.remaining = self.remaining.checked_sub(1)?;
        let mut record = [0u8; 24]; // the widest record, as in `RunWriter::push`
        let record = &mut record[..record_bytes::<K>()];
        if let Err(e) = self.reader.read_exact(record) {
            return Some(Err(e.into()));
        }
        let bits = u64::from_le_bytes(record[size_of::<K>()..].try_into().expect("8 value bytes"));
        Some(Ok((K::read_le(record), bits)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_roundtrip_and_clean_up() {
        let mut w = RunWriter::<u128>::create(None).unwrap();
        w.push(1 << 100 | 2, 1.5f64.to_bits()).unwrap();
        w.push(4 << 64 | 6, (-2.25f64).to_bits()).unwrap();
        let run = w.finish().unwrap();
        assert_eq!(run.entries, 2);
        assert_eq!(run.bytes(), 8 + 2 * 24);
        let path = run.path.clone();
        assert!(path.exists());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), run.bytes());
        let mut c = run.open(128).unwrap();
        assert_eq!(
            c.next().transpose().unwrap(),
            Some((1 << 100 | 2, 1.5f64.to_bits()))
        );
        assert_eq!(
            c.next().transpose().unwrap(),
            Some((4 << 64 | 6, (-2.25f64).to_bits()))
        );
        assert_eq!(c.next().transpose().unwrap(), None);
        drop(c);
        drop(run);
        assert!(!path.exists(), "dropping a run removes its file");
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        let tricky = [0.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, f64::INFINITY];
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = RunWriter::<u64>::create(None).unwrap();
        for (i, &v) in tricky.iter().chain([&nan]).enumerate() {
            w.push(i as u64, v.to_bits()).unwrap();
        }
        let run = w.finish().unwrap();
        assert_eq!(run.bytes(), 8 + 6 * 16);
        let mut c = run.open(64).unwrap();
        for (i, &v) in tricky.iter().chain([&nan]).enumerate() {
            assert_eq!(c.next().transpose().unwrap(), Some((i as u64, v.to_bits())));
        }
    }

    fn three_entry_run() -> SpilledRun<u64> {
        let mut w = RunWriter::<u64>::create(None).unwrap();
        for k in 0..3u64 {
            w.push(k, k).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn a_truncated_run_is_an_io_error() {
        let run = three_entry_run();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&run.path)
            .unwrap();
        file.set_len(run.bytes() - 16).unwrap();
        assert!(matches!(run.open(64), Err(ConvertError::Io(_))));
    }

    #[test]
    fn a_rewritten_header_is_an_io_error() {
        let run = three_entry_run();
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&run.path)
            .unwrap();
        file.write_all(&2u64.to_le_bytes()).unwrap();
        drop(file);
        assert_eq!(std::fs::metadata(&run.path).unwrap().len(), run.bytes());
        assert!(matches!(run.open(64), Err(ConvertError::Io(_))));
    }
}
