//! Streaming loaders for the real-dataset file formats of the paper's
//! evaluation: Matrix Market (`.mtx`, SuiteSparse) and FROSTT (`.tns`).
//!
//! Both loaders implement [`TensorStream`]: they read a window of lines at a
//! time and yield bounded [`CoordBlock`]s, so a file larger than memory can
//! flow straight into `ConversionService::convert_stream` without ever being
//! resident. Failures surface as the typed [`ConvertError::Io`] and
//! [`ConvertError::Parse`] variants, the latter carrying the 1-based line
//! number.
//!
//! Parsing works on bytes in place. Raw reads fill one reused window, cut
//! after its last whole line (or the last line a block needs), and the
//! window is parsed as newline-aligned chunks on `partition::fork_join`, one
//! per [`PARSE_CHUNK_BYTES`] up to the machine's threads, appended in file
//! order. Fields are byte ranges, coordinates go through an overflow-checked
//! scan with `usize::from_str`'s grammar, values through `f64::from_str`. A
//! non-ASCII line must be UTF-8 and splits on Unicode whitespace, so files
//! read, and fail (first error in file order), as `str` line parsing would.
//!
//! [`TensorStream::next_job`] hands out the same text unparsed: a job owns
//! its raw lines (whole lines, however many bytes) and parses them with the
//! per-line parser blocks use, on whatever thread runs it. `.mtx` jobs stop
//! at the declared entry count's line; the rest is read as blocks once the
//! jobs have reported their data lines, so the count is checked as a block
//! read checks it.
//!
//! The writers ([`write_mtx`], [`write_tns`]) exist so tests and examples can
//! round-trip files without external data.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use conv_stream::{CoordBlock, ParseJob, TensorStream};
use obs::Span;
use sparse_conv::partition::{fork_join, machine_threads};
use sparse_conv::tunables::PARSE_CHUNK_BYTES;
use sparse_conv::ConvertError;
use sparse_formats::{CooMatrix, CooTensor};
use sparse_tensor::Shape;

/// Default nonzeros per block for the file loaders.
pub const DEFAULT_BLOCK_NNZ: usize = 1 << 16;

fn parse_err(line: u64, message: impl Into<String>) -> ConvertError {
    ConvertError::Parse {
        line,
        message: message.into(),
    }
}

/// Whitespace as `char::is_whitespace` sees it in the ASCII range (unlike
/// `u8::is_ascii_whitespace`, that includes vertical tab).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r')
}

/// Splits the line that starts `text` into fields (byte ranges of it);
/// returns the line's length, newline included, and whether every field
/// byte is ASCII.
fn split_fields(text: &[u8], fields: &mut Vec<Range<usize>>) -> (usize, bool) {
    fields.clear();
    let (mut high, mut i) = (0u8, 0);
    loop {
        while i < text.len() && text[i] != b'\n' && is_space(text[i]) {
            i += 1;
        }
        if i == text.len() || text[i] == b'\n' {
            return ((i + 1).min(text.len()), high < 0x80);
        }
        let start = i;
        while i < text.len() && !is_space(text[i]) {
            high |= text[i];
            i += 1;
        }
        fields.push(start..i);
    }
}

/// Counts `\n` bytes, 255 at a time into a byte-wide counter (so the
/// compare-and-add vectorises).
fn newlines(text: &[u8]) -> usize {
    let count = |run: &[u8]| run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    text.chunks(255).map(|run| usize::from(count(run))).sum()
}

/// A data line (neither blank nor a comment), split into fields.
struct Line<'a> {
    text: &'a [u8],
    fields: &'a [Range<usize>],
    /// 1-based, counted from the start of the parsed chunk.
    number: u64,
}

impl<'a> Line<'a> {
    /// Splits the line that starts `text`, line `number`; returns its
    /// length and `None` for a blank or `comment` line. A line with
    /// non-ASCII bytes must be UTF-8, and is split on Unicode whitespace.
    fn split(
        text: &'a [u8],
        number: u64,
        comment: u8,
        fields: &'a mut Vec<Range<usize>>,
    ) -> Result<(usize, Option<Self>), ConvertError> {
        let (len, ascii) = split_fields(text, fields);
        let text = &text[..len];
        if !ascii {
            let utf8 = std::str::from_utf8(text).map_err(|e| ConvertError::Io(e.to_string()))?;
            let origin = utf8.as_ptr() as usize;
            fields.clear();
            fields.extend(utf8.split_whitespace().map(|field| {
                let start = field.as_ptr() as usize - origin;
                start..start + field.len()
            }));
        }
        let data = fields.first().is_some_and(|f| text[f.start] != comment);
        let line = data.then_some(Line {
            text,
            fields,
            number,
        });
        Ok((len, line))
    }

    fn field(&self, k: usize) -> &[u8] {
        &self.text[self.fields[k].clone()]
    }

    /// A parse error at this line.
    fn err(&self, message: impl Into<String>) -> ConvertError {
        parse_err(self.number, message)
    }

    /// A parse error naming what this line lacks, and the line.
    fn malformed(&self, needs: impl std::fmt::Display) -> ConvertError {
        let text = String::from_utf8_lossy(self.text);
        self.err(format!("{needs}, got {}", text.trim()))
    }

    /// A parse error quoting field `k`.
    fn bad_field(&self, what: &str, k: usize) -> ConvertError {
        let field = String::from_utf8_lossy(self.field(k));
        self.err(format!("{what} {field:?}"))
    }

    /// Parses field `k` as a coordinate.
    fn coord(&self, k: usize) -> Result<usize, ConvertError> {
        let c = parse_u64(self.field(k)).and_then(|c| usize::try_from(c).ok());
        c.ok_or_else(|| self.bad_field("expected a coordinate, got", k))
    }

    /// Parses field `k` as a 1-based coordinate of dimension `d`, 0-based.
    fn coord_1based(&self, k: usize, dim: usize, d: usize) -> Result<usize, ConvertError> {
        match self.coord(k)? {
            c if c == 0 || c > dim => Err(self.err(format!(
                "coordinate {c} out of bounds 1..={dim} in dimension {d}"
            ))),
            c => Ok(c - 1),
        }
    }

    fn value(&self, k: usize) -> Result<f64, ConvertError> {
        let bad = |_| self.bad_field("expected a value, got", k);
        std::str::from_utf8(self.field(k))
            .unwrap_or_default()
            .parse()
            .map_err(bad)
    }
}

/// `u64::from_str` on bytes: an optional `+`, then at least one decimal
/// digit, overflow rejected.
fn parse_u64(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    let digit = |b: u8| Some(b.wrapping_sub(b'0')).filter(|&d| d <= 9);
    let init = (!digits.is_empty()).then_some(0u64)?;
    digits.iter().try_fold(init, |n, &b| {
        n.checked_mul(10)?.checked_add(u64::from(digit(b)?))
    })
}

/// Reads whole lines from a `BufRead` into one reused window and parses
/// them in chunks.
#[derive(Debug)]
struct Scanner<R> {
    reader: R,
    /// Bytes `start..end` are read and not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    /// A read that failed after whole lines were held: returned once those
    /// are handed out, so errors keep file order.
    failed: Option<std::io::Error>,
    /// Lines handed out so far.
    line: u64,
    /// The leading comment byte (`%` for Matrix Market, `#` for FROSTT).
    comment: u8,
    /// Most chunks a window is parsed as, and fewest bytes per chunk.
    threads: usize,
    floor: usize,
}

impl<R: BufRead> Scanner<R> {
    /// Reads `reader`, whose first line is line `line + 1`.
    fn new(reader: R, line: u64, comment: u8) -> Self {
        Scanner {
            reader,
            buf: Vec::new(),
            start: 0,
            end: 0,
            eof: false,
            failed: None,
            line,
            comment,
            threads: machine_threads(),
            floor: PARSE_CHUNK_BYTES,
        }
    }

    /// Hands out the next whole lines, at most `need` of them and about
    /// `target` bytes (more when one line is longer), and the number of the
    /// line before them; empty at end of file, and the file's last line may
    /// lack its newline.
    fn window(&mut self, need: usize, target: usize) -> Result<(Range<usize>, u64), ConvertError> {
        let (mut scanned, mut lines) = (self.start, 0);
        let cut = loop {
            // Count newlines a stripe at a time, then find the `need`th.
            while lines < need && scanned < self.end {
                let stripe = &self.buf[scanned..self.end.min(scanned + 256)];
                let count = newlines(stripe);
                if lines + count < need {
                    (lines, scanned) = (lines + count, scanned + stripe.len());
                    continue;
                }
                let k = (0..stripe.len())
                    .filter(|&k| stripe[k] == b'\n')
                    .nth(need - lines - 1);
                (lines, scanned) = (need, scanned + k.expect("the stripe has that newline") + 1);
            }
            if lines == need {
                break scanned;
            }
            // Or the last newline at least `target` bytes in.
            let from = self.start.saturating_add(target - 1).min(self.end);
            let last = self.buf[from..self.end].iter().rposition(|&b| b == b'\n');
            if let Some(p) = last {
                break from + p + 1;
            }
            if self.eof {
                lines += usize::from(scanned > self.start && self.buf[scanned - 1] != b'\n');
                break self.end;
            }
            if self.end == self.buf.len() {
                let held = self.end - self.start;
                self.buf.copy_within(self.start..self.end, 0);
                (scanned, self.end, self.start) = (scanned - self.start, held, 0);
                if held == self.buf.len() {
                    // Double, up to room for the window and a line crossing
                    // its end; past that, as far as a longer line needs.
                    let room = target.saturating_add(1 << 16);
                    let room = if held < room { room } else { 2 * held };
                    self.buf.resize((2 * held).clamp(1 << 16, room), 0);
                }
            }
            if let Some(e) = self.failed.take() {
                return Err(e.into());
            }
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(k) => self.end += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if lines > 0 => {
                    self.failed = Some(e);
                    let last = self.buf[self.start..self.end]
                        .iter()
                        .rposition(|&b| b == b'\n');
                    break self.start + last.map_or(0, |p| p + 1);
                }
                Err(e) => return Err(e.into()),
            }
        };
        let (window, first) = (self.start..cut, self.line);
        (self.line, self.start) = (first + lines as u64, cut);
        Ok((window, first))
    }

    /// Reads to the next data line, one line at a time, and returns `f` of
    /// it; `None` at end of file.
    fn next_data<T>(
        &mut self,
        f: impl FnOnce(&Line) -> Result<T, ConvertError>,
    ) -> Result<Option<T>, ConvertError> {
        let mut fields = Vec::new();
        loop {
            let (window, first) = self.window(1, self.threads * PARSE_CHUNK_BYTES)?;
            if window.is_empty() {
                return Ok(None);
            }
            let text = &self.buf[window];
            if let (_, Some(line)) = Line::split(text, first + 1, self.comment, &mut fields)? {
                return f(&line).map(Some);
            }
        }
    }

    /// Parses data lines until `need` are read or the file ends. Each window
    /// is cut into `clamp(bytes / floor, 1, threads)` newline-aligned
    /// chunks, parsed on [`fork_join`] (`io.parse`, an `io.parse_chunk` span
    /// per chunk counting its entries): `init` makes a chunk's accumulator
    /// from its text, `entry` parses a data line into it and returns the
    /// entries it added, and `fold` takes the accumulators in file order.
    /// Returns the data lines read, or the first error in file order.
    fn read<T: Send>(
        &mut self,
        need: usize,
        init: impl Fn(&[u8]) -> T + Sync,
        entry: impl Fn(&Line, &mut T) -> Result<usize, ConvertError> + Sync,
        mut fold: impl FnMut(T),
    ) -> Result<usize, ConvertError> {
        let mut got = 0;
        while got < need {
            let target = self.threads * PARSE_CHUNK_BYTES;
            let (window, mut first) = self.window(need - got, target)?;
            let text = &self.buf[window];
            if text.is_empty() {
                break;
            }
            let n = (text.len() / self.floor).clamp(1, self.threads);
            let (mut chunks, mut start) = (Vec::with_capacity(n), 0);
            for k in 1..=n {
                let from = (text.len() * k / n).max(start);
                let newline = text[from..].iter().position(|&b| b == b'\n');
                let cut = newline
                    .filter(|_| k < n)
                    .map_or(text.len(), |p| from + p + 1);
                chunks.extend((cut > start).then(|| &text[start..cut]));
                start = cut;
            }
            let comment = self.comment;
            let parsed = fork_join("io.parse", "io.parse_chunk", chunks, |chunk, span| {
                let mut acc = init(chunk);
                let (lines, data, items) = parse_lines(chunk, comment, &mut acc, &entry)?;
                span.add_items(items as u64);
                Ok((acc, lines, data))
            })?;
            for chunk in parsed {
                let (acc, lines, data) = chunk.map_err(|e| rebase(e, first))?;
                (first, got) = (first + lines, got + data);
                fold(acc);
            }
        }
        Ok(got)
    }

    /// Hands out the next `need` whole lines (fewer at end of file) as owned
    /// text, however many bytes they take, with the number of the line
    /// before them and their count.
    fn take(&mut self, need: usize) -> Result<(Vec<u8>, u64, usize), ConvertError> {
        let (window, first) = self.window(need, usize::MAX)?;
        Ok((
            self.buf[window].to_vec(),
            first,
            (self.line - first) as usize,
        ))
    }
}

/// Parses the lines of `chunk` in order, each data line through `entry`
/// into `acc`. Returns the lines, the data lines and the entries `entry`
/// added, or the first error with its line counted from the chunk's start.
fn parse_lines<T>(
    chunk: &[u8],
    comment: u8,
    acc: &mut T,
    entry: &impl Fn(&Line, &mut T) -> Result<usize, ConvertError>,
) -> Result<(u64, usize, usize), ConvertError> {
    let mut fields = Vec::new();
    let (mut rest, mut lines, mut data, mut items) = (chunk, 0, 0, 0);
    while !rest.is_empty() {
        lines += 1;
        let (len, line) = Line::split(rest, lines, comment, &mut fields)?;
        if let Some(line) = line {
            (items, data) = (items + entry(&line, acc)?, data + 1);
        }
        rest = &rest[len..];
    }
    Ok((lines, data, items))
}

/// A parse error at a line counted from text whose first line is `first + 1`,
/// renumbered from the file's start.
fn rebase(e: ConvertError, first: u64) -> ConvertError {
    match e {
        ConvertError::Parse { line, message } => parse_err(first + line, message),
        e => e,
    }
}

/// How one format's data lines become entries: the line parser both drivers
/// share, a block's chunked [`Scanner::read`] and a [`ParseJob`].
trait Entries: Send + Sync + 'static {
    /// Entries one line adds at most.
    fn per_line(&self) -> usize {
        1
    }

    /// Parses a data line into `cols`; returns the entries it added.
    fn entry(&self, line: &Line, cols: &mut Columns) -> Result<usize, ConvertError>;
}

/// A `.mtx` entry line: `i j v` (`i j` for pattern matrices), 1-based, and
/// its mirror for an off-diagonal entry of a symmetric matrix.
#[derive(Debug, Clone, Copy)]
struct MtxEntries {
    dims: [usize; 2],
    pattern: bool,
    symmetric: bool,
}

impl Entries for MtxEntries {
    fn per_line(&self) -> usize {
        1 + usize::from(self.symmetric)
    }

    fn entry(&self, line: &Line, cols: &mut Columns) -> Result<usize, ConvertError> {
        let expected = if self.pattern { 2 } else { 3 };
        if line.fields.len() != expected {
            return Err(line.malformed(format!("entry needs {expected} fields")));
        }
        let i = line.coord_1based(0, self.dims[0], 0)?;
        let j = line.coord_1based(1, self.dims[1], 1)?;
        let v = if self.pattern { 1.0 } else { line.value(2)? };
        let mirror = self.symmetric && i != j;
        for (i, j) in std::iter::once((i, j)).chain(mirror.then_some((j, i))) {
            cols.crd[0].push(i);
            cols.crd[1].push(j);
            cols.vals.push(v);
        }
        Ok(1 + usize::from(mirror))
    }
}

/// A `.tns` entry line: `N` 1-based coordinates and a value.
#[derive(Debug, Clone)]
struct TnsEntries {
    dims: Vec<usize>,
}

impl Entries for TnsEntries {
    fn entry(&self, line: &Line, cols: &mut Columns) -> Result<usize, ConvertError> {
        let order = self.dims.len();
        if line.fields.len() != order + 1 {
            let needs = format!("entry needs {order} coordinates and a value");
            return Err(line.malformed(needs));
        }
        for (d, column) in cols.crd.iter_mut().enumerate() {
            column.push(line.coord_1based(d, self.dims[d], d)?);
        }
        cols.vals.push(line.value(order)?);
        Ok(1)
    }
}

/// A job over `lines` whole lines of `text`, whose first is line `first + 1`:
/// parses them all with `parser` into one block of `shape` (an
/// `io.parse_job` span) and reports its data lines to `report`, if any.
fn parse_job<P: Entries>(
    parser: P,
    shape: Shape,
    comment: u8,
    (text, first, lines): (Vec<u8>, u64, usize),
    report: Option<Report>,
) -> ParseJob {
    let entries = lines * parser.per_line();
    ParseJob::new(entries, text.len(), move || {
        let span = Span::enter("io.parse_job");
        let mut cols = Columns::with_capacity(shape.order(), entries);
        let entry = |line: &Line, cols: &mut Columns| parser.entry(line, cols);
        let parsed = parse_lines(&text, comment, &mut cols, &entry);
        let (_, data, items) = parsed.map_err(|e| rebase(e, first))?;
        if let Some(mut report) = report {
            report.1 = Some(data as u64);
        }
        span.add_items(items as u64);
        Ok(cols.into_block(shape))
    })
}

/// The data lines a stream's parse jobs read: jobs reported, their data
/// lines, and whether one failed, panicked or was dropped unrun.
#[derive(Debug, Default)]
struct Tally(Mutex<(u64, u64, bool)>, Condvar);

impl Tally {
    /// Waits for `jobs` reports and returns their data lines, or an error
    /// when a job failed (its own error comes first in file order).
    fn wait(&self, jobs: u64) -> Result<u64, ConvertError> {
        let state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let state = self.1.wait_while(state, |s| s.0 < jobs);
        match *state.unwrap_or_else(PoisonError::into_inner) {
            (_, data, false) => Ok(data),
            _ => Err(ConvertError::Io("an earlier parse job failed".into())),
        }
    }
}

/// A job's report to its [`Tally`], sent when dropped: its data lines, or
/// `None` for a job that failed, panicked or never ran.
#[derive(Debug)]
struct Report(Arc<Tally>, Option<u64>);

impl Drop for Report {
    fn drop(&mut self) {
        let mut state = self.0 .0.lock().unwrap_or_else(PoisonError::into_inner);
        state.0 += 1;
        match self.1 {
            Some(data) => state.1 += data,
            None => state.2 = true,
        }
        self.0 .1.notify_all();
    }
}

/// A block's coordinate and value columns.
struct Columns {
    crd: Vec<Vec<usize>>,
    vals: Vec<f64>,
}

impl Columns {
    fn with_capacity(order: usize, cap: usize) -> Self {
        let (crd, vals) = (
            vec![Vec::with_capacity(cap); order],
            Vec::with_capacity(cap),
        );
        Columns { crd, vals }
    }

    /// Appends `other`'s entries. Full columns grow to four times the
    /// entries so far but never past `max`, so room follows the lines
    /// actually read, and a block of a few windows moves its first entries
    /// once.
    fn append(&mut self, other: Columns, max: usize) {
        if self.vals.is_empty() {
            *self = other;
            return;
        }
        let len = self.vals.len() + other.vals.len();
        let full = len > self.vals.capacity();
        let room = if full {
            len.saturating_mul(4).min(max)
        } else {
            len
        }
        .max(len)
            - self.vals.len();
        for (column, more) in self.crd.iter_mut().zip(other.crd) {
            column.reserve_exact(room);
            column.extend_from_slice(&more);
        }
        self.vals.reserve_exact(room);
        self.vals.extend_from_slice(&other.vals);
    }

    fn into_block(self, shape: Shape) -> CoordBlock {
        CoordBlock::from_columns(shape, self.crd, self.vals)
            .expect("coordinates were bounds-checked")
    }
}

/// A streaming Matrix Market (`coordinate`) loader.
///
/// Supports `real`, `integer`, and `pattern` fields (pattern entries get
/// value 1.0) and the `general` / `symmetric` symmetries; a symmetric
/// off-diagonal entry yields its mirror in the same block. Entries keep file
/// order, which downstream sorts treat as the arrival order. Only comments
/// and blank lines may follow the last declared entry.
#[derive(Debug)]
pub struct MtxStream<R: BufRead> {
    scanner: Scanner<R>,
    shape: Shape,
    block_nnz: usize,
    parser: MtxEntries,
    /// Entry *lines* still to read (symmetric mirrors not counted).
    remaining: u64,
    declared: u64,
    /// Lines parse jobs may still cut, `None` before the first job: jobs stop
    /// `remaining` lines after the first one starts, so no job can hold a
    /// line past the declared entries, and blocks read the rest.
    job_lines: Option<u64>,
    /// The jobs' reports and how many jobs were cut, until the blocks take
    /// over.
    jobs: Option<(Arc<Tally>, u64)>,
}

impl MtxStream<BufReader<File>> {
    /// Opens an `.mtx` file, reading blocks of at most `block_nnz` entry
    /// lines.
    ///
    /// # Errors
    ///
    /// [`ConvertError::Io`] on open/read failure, [`ConvertError::Parse`] on
    /// a malformed banner or size line.
    pub fn open(path: impl AsRef<Path>, block_nnz: usize) -> Result<Self, ConvertError> {
        Self::from_reader(BufReader::new(File::open(path)?), block_nnz)
    }
}

impl<R: BufRead> MtxStream<R> {
    /// Wraps an already-open reader positioned at the `%%MatrixMarket`
    /// banner.
    ///
    /// # Errors
    ///
    /// [`ConvertError::Parse`] when the banner or size line is malformed,
    /// the file is not a coordinate matrix, or a symmetric matrix is not
    /// square.
    pub fn from_reader(mut reader: R, block_nnz: usize) -> Result<Self, ConvertError> {
        let mut buf = String::new();
        if reader.read_line(&mut buf)? == 0 {
            return Err(parse_err(1, "empty file, expected a %%MatrixMarket banner"));
        }
        let banner: Vec<String> = buf.split_whitespace().map(str::to_lowercase).collect();
        let bad = |message: String| Err(parse_err(1, message));
        if banner.len() < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
            return bad(format!("not a Matrix Market banner: {}", buf.trim()));
        }
        if banner[2] != "coordinate" {
            let message = "only coordinate matrices are supported, got";
            return bad(format!("{message} {:?}", banner[2]));
        }
        let pattern = match banner[3].as_str() {
            "real" | "integer" => false,
            "pattern" => true,
            other => return bad(format!("unsupported field type {other:?}")),
        };
        let symmetric = match banner[4].as_str() {
            "general" => false,
            "symmetric" => true,
            other => return bad(format!("unsupported symmetry {other:?}")),
        };
        let mut scanner = Scanner::new(reader, 1, b'%');
        let size = scanner.next_data(|line| {
            if line.fields.len() != 3 {
                return Err(line.malformed("size line needs `rows cols nnz`"));
            }
            let mut dims = [0u64; 3];
            for (k, dim) in dims.iter_mut().enumerate() {
                *dim =
                    parse_u64(line.field(k)).ok_or_else(|| line.bad_field("bad size entry", k))?;
            }
            let [rows, cols, _] = dims;
            if symmetric && rows != cols {
                let message = format!("a symmetric matrix must be square, got {rows}x{cols}");
                return Err(line.err(message));
            }
            Ok(dims)
        })?;
        let Some([rows, cols, declared]) = size else {
            return Err(parse_err(scanner.line, "missing size line"));
        };
        let dims = [rows as usize, cols as usize];
        Ok(MtxStream {
            scanner,
            shape: Shape::matrix(dims[0], dims[1]),
            block_nnz: block_nnz.max(1),
            parser: MtxEntries {
                dims,
                pattern,
                symmetric,
            },
            remaining: declared,
            declared,
            job_lines: None,
            jobs: None,
        })
    }

    /// Whether the file declared itself symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.parser.symmetric
    }

    /// Entry lines the header declared.
    pub fn declared_entries(&self) -> u64 {
        self.declared
    }
}

impl<R: BufRead> TensorStream for MtxStream<R> {
    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
        if self.remaining == 0 {
            let declared = self.declared;
            let more =
                |line: &Line| Err(line.err(format!("more than {declared} declared entries")));
            return self.scanner.next_data(more);
        }
        let span = Span::enter("io.parse_block");
        let want = (self.block_nnz as u64).min(self.remaining) as usize;
        // A symmetric entry line can add its mirror.
        let (parser, per_line) = (self.parser, self.parser.per_line());
        let mut block = Columns::with_capacity(2, 0);
        let init = |chunk: &[u8]| Columns::with_capacity(2, (newlines(chunk) + 1) * per_line);
        let entry = |line: &Line, cols: &mut Columns| parser.entry(line, cols);
        let max = want.saturating_mul(per_line);
        let got = self
            .scanner
            .read(want, init, entry, |cols| block.append(cols, max))?;
        self.remaining -= got as u64;
        if got < want {
            let message = format!("file ended with {} declared entries unread", self.remaining);
            return Err(parse_err(self.scanner.line, message));
        }
        span.add_items(block.vals.len() as u64);
        Ok(Some(block.into_block(self.shape.clone())))
    }

    fn size_hint(&self) -> Option<u64> {
        // Entry lines; symmetric files expand off-diagonal lines to two
        // nonzeros, which a header cannot predict.
        Some(self.declared)
    }

    /// Cuts jobs of `max(block_nnz, entries / mirrors)` lines while they
    /// cannot reach past the declared entries; then waits for the jobs'
    /// data-line counts and reads the rest as blocks, which check the count
    /// ("more than N declared entries", "file ended with N declared entries
    /// unread") at the line a block read would.
    fn next_job(&mut self, entries: usize) -> Result<Option<ParseJob>, ConvertError> {
        let lines = self.job_lines.get_or_insert(self.remaining);
        if *lines > 0 {
            let want = (entries / self.parser.per_line()).max(self.block_nnz);
            let cut = self.scanner.take(want.min(*lines as usize))?;
            if cut.2 > 0 {
                *lines -= cut.2 as u64;
                let (tally, jobs) = self.jobs.get_or_insert_with(Default::default);
                *jobs += 1;
                let report = Report(tally.clone(), None);
                let comment = self.scanner.comment;
                let job = parse_job(self.parser, self.shape.clone(), comment, cut, Some(report));
                return Ok(Some(job));
            }
            *lines = 0;
        }
        if let Some((tally, jobs)) = self.jobs.take() {
            self.remaining -= tally.wait(jobs)?;
        }
        Ok(self.next_block()?.map(ParseJob::ready))
    }
}

/// A streaming FROSTT (`.tns`) loader: whitespace-separated lines of `N`
/// 1-based coordinates followed by a value, `#` comments allowed. FROSTT
/// files do not carry dimensions, so the shape is supplied (see
/// [`tns_dims`] for a one-pass scan that discovers it).
#[derive(Debug)]
pub struct TnsStream<R: BufRead> {
    scanner: Scanner<R>,
    shape: Shape,
    parser: TnsEntries,
    block_nnz: usize,
    done: bool,
}

impl TnsStream<BufReader<File>> {
    /// Opens a `.tns` file with a known shape, reading blocks of at most
    /// `block_nnz` entries.
    ///
    /// # Errors
    ///
    /// [`ConvertError::Io`] on open failure.
    pub fn open(
        path: impl AsRef<Path>,
        shape: Shape,
        block_nnz: usize,
    ) -> Result<Self, ConvertError> {
        Ok(Self::from_reader(
            BufReader::new(File::open(path)?),
            shape,
            block_nnz,
        ))
    }
}

impl<R: BufRead> TnsStream<R> {
    /// Wraps an already-open reader.
    pub fn from_reader(reader: R, shape: Shape, block_nnz: usize) -> Self {
        TnsStream {
            scanner: Scanner::new(reader, 0, b'#'),
            parser: TnsEntries {
                dims: shape.dims().to_vec(),
            },
            shape,
            block_nnz: block_nnz.max(1),
            done: false,
        }
    }
}

impl<R: BufRead> TensorStream for TnsStream<R> {
    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
        if self.done {
            return Ok(None);
        }
        let span = Span::enter("io.parse_block");
        let (parser, order, block_nnz) = (&self.parser, self.shape.order(), self.block_nnz);
        let mut block = Columns::with_capacity(order, 0);
        let init = |chunk: &[u8]| Columns::with_capacity(order, newlines(chunk) + 1);
        let entry = |line: &Line, cols: &mut Columns| parser.entry(line, cols);
        let got = self
            .scanner
            .read(block_nnz, init, entry, |cols| block.append(cols, block_nnz))?;
        self.done = got < block_nnz;
        span.add_items(block.vals.len() as u64);
        Ok((!block.vals.is_empty()).then(|| block.into_block(self.shape.clone())))
    }

    /// Cuts jobs of `max(block_nnz, entries)` lines until the file ends.
    fn next_job(&mut self, entries: usize) -> Result<Option<ParseJob>, ConvertError> {
        if self.done {
            return Ok(None);
        }
        let cut = self.scanner.take(entries.max(self.block_nnz))?;
        self.done = cut.2 == 0;
        let (parser, shape) = (self.parser.clone(), self.shape.clone());
        let comment = self.scanner.comment;
        Ok((!self.done).then(|| parse_job(parser, shape, comment, cut, None)))
    }
}

/// Scans a `.tns` file once and returns the tensor's shape (the
/// per-dimension coordinate maxima) and nonzero count. The order is taken
/// from the first entry line; the rest is parsed in chunks like a
/// [`TnsStream`] block.
///
/// # Errors
///
/// [`ConvertError::Io`] on open/read failure, [`ConvertError::Parse`] on a
/// malformed line or an empty file.
pub fn tns_dims(path: impl AsRef<Path>) -> Result<(Shape, u64), ConvertError> {
    scan_dims(Scanner::new(BufReader::new(File::open(path)?), 0, b'#'))
}

fn scan_dims<R: BufRead>(mut scanner: Scanner<R>) -> Result<(Shape, u64), ConvertError> {
    let span = Span::enter("io.tns_dims");
    // The maxima so far; their count is the order.
    let entry = |line: &Line, max: &mut Vec<usize>| {
        if line.fields.len() != max.len() + 1 {
            let order = max.len();
            return Err(line.malformed(format!("entry needs {order} coordinates and a value")));
        }
        for (d, max) in max.iter_mut().enumerate() {
            match line.coord(d)? {
                0 => return Err(line.err("FROSTT coordinates are 1-based")),
                c => *max = (*max).max(c),
            }
        }
        line.value(max.len()).map(|_| 1)
    };
    let first = scanner.next_data(|line| {
        if line.fields.len() < 2 {
            return Err(line.err("an entry needs at least one coordinate and a value"));
        }
        let mut dims = vec![0; line.fields.len() - 1];
        entry(line, &mut dims).map(|_| dims)
    })?;
    let Some(mut dims) = first else {
        return Err(parse_err(scanner.line, "no entries in .tns file"));
    };
    let order = dims.len();
    let fold = |max: Vec<usize>| dims.iter_mut().zip(max).for_each(|(d, m)| *d = (*d).max(m));
    let nnz = 1 + scanner.read(usize::MAX, |_| vec![0; order], entry, fold)? as u64;
    span.add_items(nnz);
    Ok((Shape::new(dims), nnz))
}

/// Writes a COO matrix as a `general real` coordinate Matrix Market file.
///
/// # Errors
///
/// [`ConvertError::Io`] on any write failure.
pub fn write_mtx(path: impl AsRef<Path>, m: &CooMatrix) -> Result<(), ConvertError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (i, j, v) in m.iter() {
        writeln!(w, "{} {} {}", i + 1, j + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a COO tensor as a FROSTT `.tns` file (1-based coordinates).
///
/// # Errors
///
/// [`ConvertError::Io`] on any write failure.
pub fn write_tns(path: impl AsRef<Path>, t: &CooTensor) -> Result<(), ConvertError> {
    let mut w = BufWriter::new(File::create(path)?);
    for p in 0..t.nnz() {
        for d in 0..t.order() {
            write!(w, "{} ", t.crd(d)[p] + 1)?;
        }
        writeln!(w, "{}", t.values()[p])?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::{Cursor, Read};

    fn drain<S: TensorStream>(s: &mut S) -> Vec<(Vec<usize>, f64)> {
        let mut out = Vec::new();
        while let Some(b) = s.next_block().unwrap() {
            for p in 0..b.nnz() {
                let coord: Vec<usize> = (0..b.order()).map(|d| b.crd(d)[p]).collect();
                out.push((coord, b.values()[p]));
            }
        }
        out
    }

    #[test]
    fn mtx_general_real_streams_in_file_order() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 4 3\n\
                    1 1 2.5\n\
                    3 4 -1\n\
                    2 2 7\n";
        let mut s = MtxStream::from_reader(Cursor::new(text), 2).unwrap();
        assert_eq!(s.shape().dims(), &[3, 4]);
        assert_eq!(s.size_hint(), Some(3));
        assert!(!s.is_symmetric());
        assert_eq!(
            drain(&mut s),
            vec![(vec![0, 0], 2.5), (vec![2, 3], -1.0), (vec![1, 1], 7.0),]
        );
    }

    #[test]
    fn mtx_symmetric_pattern_mirrors_off_diagonals() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let mut s = MtxStream::from_reader(Cursor::new(text), 64).unwrap();
        assert!(s.is_symmetric());
        assert_eq!(
            drain(&mut s),
            vec![(vec![1, 0], 1.0), (vec![0, 1], 1.0), (vec![2, 2], 1.0),]
        );
    }

    #[test]
    fn mtx_errors_carry_line_numbers() {
        let truncated = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let mut s = MtxStream::from_reader(Cursor::new(truncated), 8).unwrap();
        assert!(matches!(
            s.next_block(),
            Err(ConvertError::Parse { line: 3, .. })
        ));
        let bad_coord = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let mut s = MtxStream::from_reader(Cursor::new(bad_coord), 8).unwrap();
        assert!(matches!(
            s.next_block(),
            Err(ConvertError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            MtxStream::from_reader(Cursor::new("%%MatrixMarket matrix array real general\n"), 8),
            Err(ConvertError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn a_non_square_symmetric_matrix_is_rejected_at_the_size_line() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n% c\n3 4 1\n1 4 1.0\n";
        let err = MtxStream::from_reader(Cursor::new(text), 8).unwrap_err();
        assert_eq!(
            err,
            ConvertError::Parse {
                line: 3,
                message: "a symmetric matrix must be square, got 3x4".into()
            }
        );
    }

    #[test]
    fn entries_beyond_the_declared_count_are_an_error() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n\n% c\n2 2 5.0\n";
        for block_nnz in [1, 8] {
            let mut s = MtxStream::from_reader(Cursor::new(text), block_nnz).unwrap();
            assert_eq!(s.next_block().unwrap().unwrap().nnz(), 1);
            assert_eq!(
                s.next_block(),
                Err(ConvertError::Parse {
                    line: 6,
                    message: "more than 1 declared entries".into()
                })
            );
        }
        // Trailing comments and blank lines, with or without a final
        // newline, are fine.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n\n% end";
        let mut s = MtxStream::from_reader(Cursor::new(text), 8).unwrap();
        assert_eq!(drain(&mut s), vec![(vec![0, 0], 1.0)]);
        assert_eq!(s.next_block(), Ok(None));
    }

    #[test]
    fn fields_follow_str_whitespace_and_number_rules() {
        // Vertical tab and form feed separate fields; `+` signs, CRLF and a
        // missing final newline are accepted; non-ASCII whitespace splits
        // like `str::split_whitespace`.
        let text = "%%MatrixMarket matrix coordinate real general\r\n\
                    \x0b+3\t4 2\r\n 3\x0c+4 -0.0  \r\n1\u{3000}1 1e3";
        let mut s = MtxStream::from_reader(Cursor::new(text), 8).unwrap();
        let got = drain(&mut s);
        assert_eq!(got, vec![(vec![2, 3], 0.0), (vec![0, 0], 1000.0)]);
        assert!(got[0].1.is_sign_negative());
        for (entry, line) in [("18446744073709551617 1 1.0", 3), ("1 1 1.0.0", 3)] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n");
            let mut s = MtxStream::from_reader(Cursor::new(text), 8).unwrap();
            assert!(
                matches!(s.next_block(), Err(ConvertError::Parse { line: l, .. }) if l == line)
            );
        }
        // Invalid UTF-8 is an I/O error, as a `String` reader reports it.
        let mut bytes = b"%%MatrixMarket matrix coordinate real general\n1 1 1\n% ".to_vec();
        bytes.extend([0xff, b'\n', b'1', b' ', b'1', b' ', b'1', b'\n']);
        let mut s = MtxStream::from_reader(Cursor::new(bytes), 8).unwrap();
        assert!(matches!(s.next_block(), Err(ConvertError::Io(_))));
    }

    #[test]
    fn lines_longer_than_the_reader_buffer_are_read_whole() {
        let comment = "%".repeat(3 << 16);
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n{comment}\n2 2 2\n1 1 {}\n{comment}\n2 2 3\n",
            "0".repeat(1 << 17)
        );
        let mut s = MtxStream::from_reader(Cursor::new(text), 1).unwrap();
        assert_eq!(drain(&mut s), vec![(vec![0, 0], 0.0), (vec![1, 1], 3.0)]);
    }

    #[test]
    fn tns_streams_with_comments_and_reports_dims() {
        let dir = std::env::temp_dir().join(format!("io-tns-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        std::fs::write(&path, "# frostt-style\n1 2 3 1.5\n2 1 1 -2\n2 2 4 0.5\n").unwrap();
        let (shape, nnz) = tns_dims(&path).unwrap();
        assert_eq!(shape.dims(), &[2, 2, 4]);
        assert_eq!(nnz, 3);
        let mut s = TnsStream::open(&path, shape, 2).unwrap();
        assert_eq!(
            drain(&mut s),
            vec![
                (vec![0, 1, 2], 1.5),
                (vec![1, 0, 0], -2.0),
                (vec![1, 1, 3], 0.5),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writers_round_trip_through_the_loaders() {
        let dir = std::env::temp_dir().join(format!("io-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let mut m = CooMatrix::new(5, 4);
        m.push(4, 3, 0.125);
        m.push(0, 0, -3.0);
        write_mtx(&mtx, &m).unwrap();
        let mut s = MtxStream::open(&mtx, 1).unwrap();
        assert_eq!(drain(&mut s), vec![(vec![4, 3], 0.125), (vec![0, 0], -3.0)]);

        let tns = dir.join("t.tns");
        let mut t = CooTensor::new(Shape::tensor3(2, 3, 4));
        t.push(&[1, 2, 3], 9.0);
        t.push(&[0, 0, 0], 0.25);
        write_tns(&tns, &t).unwrap();
        let (shape, nnz) = tns_dims(&tns).unwrap();
        assert_eq!(nnz, 2);
        assert_eq!(shape.dims(), &[2, 3, 4]);
        let mut s = TnsStream::open(&tns, shape, 10).unwrap();
        assert_eq!(
            drain(&mut s),
            vec![(vec![1, 2, 3], 9.0), (vec![0, 0, 0], 0.25)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_declared_count_or_block_size_reserves_nothing_unread() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 1000000000000000\n1 1 1.0\n";
        let mut s = MtxStream::from_reader(Cursor::new(text), usize::MAX).unwrap();
        assert_eq!(
            s.next_block(),
            Err(ConvertError::Parse {
                line: 3,
                message: "file ended with 999999999999999 declared entries unread".into()
            })
        );
        let shape = Shape::tensor3(2, 2, 2);
        let mut s = TnsStream::from_reader(Cursor::new("1 1 1 1.0\n"), shape, usize::MAX);
        assert_eq!(s.next_block().unwrap().unwrap().nnz(), 1);
        assert_eq!(s.next_block(), Ok(None));
    }

    /// Hands out at most `.1` bytes per read.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let k = buf.len().min(self.1).min(self.0.len());
            buf[..k].copy_from_slice(&self.0[..k]);
            self.0 = &self.0[k..];
            Ok(k)
        }
    }

    fn reader(text: &[u8], step: usize) -> BufReader<Trickle<'_>> {
        BufReader::with_capacity(16, Trickle(text, step))
    }

    /// Hands out its bytes, then fails every read.
    struct Failing<'a>(&'a [u8]);

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match std::mem::take(&mut self.0) {
                [] => Err(std::io::Error::other("device gone")),
                bytes => (&*bytes).read(buf),
            }
        }
    }

    #[test]
    fn a_failed_read_comes_after_the_lines_read_before_it() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1\n2 2 2\n1 2";
        let mut s = MtxStream::from_reader(BufReader::new(Failing(text.as_bytes())), 1).unwrap();
        let (read, err) = blocks(&mut s);
        assert_eq!(read.len(), 2);
        assert!(matches!(err, Some(ConvertError::Io(m)) if m.contains("device gone")));
        let text = "1 1 1\n1 x 2\n2 2 2\n";
        let s = &mut TnsStream::from_reader(
            BufReader::new(Failing(text.as_bytes())),
            Shape::matrix(2, 2),
            8,
        );
        let message = "expected a coordinate, got \"x\"".into();
        assert_eq!(
            blocks(s),
            (vec![], Some(ConvertError::Parse { line: 2, message }))
        );
    }

    /// Pins a scanner's parse to `n` chunks: the floor drops to one byte, so
    /// any window of at least `n` bytes splits `n` ways.
    fn chunked<R>(scanner: &mut Scanner<R>, n: usize) {
        (scanner.threads, scanner.floor) = (n, 1);
    }

    /// Every block as columns and value bits, then the error that ended the
    /// stream, if one did.
    type Blocks = (Vec<(Vec<Vec<usize>>, Vec<u64>)>, Option<ConvertError>);

    fn blocks(s: &mut impl TensorStream) -> Blocks {
        let mut out = Vec::new();
        loop {
            match s.next_block() {
                Ok(Some(b)) => out.push((
                    (0..b.order()).map(|d| b.crd(d).to_vec()).collect(),
                    b.values().iter().map(|v| v.to_bits()).collect(),
                )),
                Ok(None) => return (out, None),
                Err(e) => return (out, Some(e)),
            }
        }
    }

    fn mtx_at(
        text: &[u8],
        block_nnz: usize,
        n: usize,
        step: usize,
    ) -> Result<Blocks, ConvertError> {
        let mut s = MtxStream::from_reader(reader(text, step), block_nnz)?;
        chunked(&mut s.scanner, n);
        Ok(blocks(&mut s))
    }

    fn tns_at(text: &[u8], shape: &Shape, block_nnz: usize, n: usize, step: usize) -> Blocks {
        let mut s = TnsStream::from_reader(reader(text, step), shape.clone(), block_nnz);
        chunked(&mut s.scanner, n);
        blocks(&mut s)
    }

    fn dims_at(text: &[u8], n: usize, step: usize) -> Result<(Shape, u64), ConvertError> {
        let mut scanner = Scanner::new(reader(text, step), 0, b'#');
        chunked(&mut scanner, n);
        scan_dims(scanner)
    }

    /// A read's entries, concatenated, or its error.
    type Entries = Result<(Vec<Vec<usize>>, Vec<u64>), ConvertError>;

    fn entries((blocks, err): Blocks) -> Entries {
        if let Some(err) = err {
            return Err(err);
        }
        let mut out = (Vec::new(), Vec::new());
        for (crd, vals) in blocks.into_iter().filter(|b| !b.1.is_empty()) {
            out.0.resize(crd.len(), Vec::new());
            out.0
                .iter_mut()
                .zip(crd)
                .for_each(|(c, more)| c.extend(more));
            out.1.extend(vals);
        }
        Ok(out)
    }

    /// Reads a stream through jobs of `cut` lines (its block size), running
    /// each as it is cut.
    fn jobs(s: &mut impl TensorStream) -> Entries {
        let mut out = Vec::new();
        loop {
            match s
                .next_job(0)
                .and_then(|job| job.map(ParseJob::run).transpose())
            {
                Ok(Some(b)) => out.push((
                    (0..b.order()).map(|d| b.crd(d).to_vec()).collect(),
                    b.values().iter().map(|v| v.to_bits()).collect(),
                )),
                Ok(None) => return entries((out, None)),
                Err(e) => return entries((out, Some(e))),
            }
        }
    }

    /// Asserts that `text` reads the same, blocks and errors, at 1, 2, 3, 4
    /// and 9 chunks, as `.mtx` and as `.tns` of `order`, and the same
    /// entries and errors through jobs of 1, 7 and more lines than it has;
    /// returns the one-chunk `.tns` read.
    fn same_at_every_chunk_count(text: &[u8], order: usize, block_nnz: usize) -> Blocks {
        let shape = Shape::new(vec![4; order]);
        let one = |step| {
            let mtx = mtx_at(text, block_nnz, 1, step);
            (
                mtx,
                tns_at(text, &shape, block_nnz, 1, step),
                dims_at(text, 1, step),
            )
        };
        let want = one(usize::MAX);
        for cut in [1, 7, 1 << 20] {
            for step in [usize::MAX, 7] {
                let mtx = MtxStream::from_reader(reader(text, step), cut);
                let got = mtx.map(|mut s| jobs(&mut s));
                let mtx_want = want.0.clone().map(entries);
                assert_eq!(got, mtx_want, "mtx jobs of {cut}, step {step}");
                let mut tns = TnsStream::from_reader(reader(text, step), shape.clone(), cut);
                let tns_want = entries(want.1.clone());
                assert_eq!(jobs(&mut tns), tns_want, "tns jobs of {cut}, step {step}");
            }
        }
        for n in [2, 3, 4, 9] {
            for step in [usize::MAX, 7] {
                let got = (
                    mtx_at(text, block_nnz, n, step),
                    tns_at(text, &shape, block_nnz, n, step),
                    dims_at(text, n, step),
                );
                assert_eq!(
                    got,
                    want,
                    "n = {n}, step {step}: {}",
                    String::from_utf8_lossy(text)
                );
            }
        }
        want.1
    }

    /// Dirty `.mtx` text (order 2), or `.tns` text of `order`: comments,
    /// blank lines, CRLF, odd whitespace and, now and then, a bad field,
    /// count or byte.
    fn dirty(rng: &mut StdRng, order: Option<usize>) -> Vec<u8> {
        let pick = |rng: &mut StdRng, options: &[&str]| {
            options[rng.gen_range(0..options.len())].to_string()
        };
        let bad = rng.gen_range(0..4) == 0;
        let mut out = Vec::new();
        let entries = rng.gen_range(0..160);
        let comment = if order.is_some() { "#" } else { "%" };
        if order.is_none() {
            let field = pick(rng, &["real", "integer", "pattern"]);
            let symmetry = pick(rng, &["general", "symmetric"]);
            let declared = entries + usize::from(bad && rng.gen_range(0..2) == 0);
            let text =
                format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n4 4 {declared}\n");
            out.extend_from_slice(text.as_bytes());
        }
        let fields = order.map_or(
            if out.windows(7).any(|w| w == b"pattern") {
                2
            } else {
                3
            },
            |o| o + 1,
        );
        for _ in 0..entries {
            while rng.gen_range(0..5) == 0 {
                let filler = pick(
                    rng,
                    &["", "  ", "\r", "\t\x0b", "% note", "# note", "%\u{3000}é"],
                );
                out.extend_from_slice(filler.as_bytes());
                if bad && rng.gen_range(0..40) == 0 {
                    out.extend_from_slice(format!("{comment} \u{ff}").as_bytes());
                    out.push(0xff);
                }
                out.extend_from_slice(pick(rng, &["\n", "\r\n"]).as_bytes());
            }
            let mut line = Vec::new();
            for k in 0..fields {
                line.push(if k + 1 < fields || order.is_none() && fields == 2 {
                    rng.gen_range(1..5).to_string()
                } else {
                    pick(rng, &["1.5", "-0.0", "2e-3", "nan", "-inf", "7"])
                });
            }
            if bad && rng.gen_range(0..30) == 0 {
                let k = rng.gen_range(0..line.len());
                line[k] = pick(rng, &["0", "5", "x", "1.0.0", "+", "18446744073709551616"]);
            }
            if bad && rng.gen_range(0..60) == 0 {
                line.pop();
            }
            let sep = pick(rng, &[" ", "\t", " \x0c ", "\u{a0}"]);
            out.extend_from_slice(line.join(&sep).as_bytes());
            out.extend_from_slice(pick(rng, &["\n", "\r\n", " \n"]).as_bytes());
        }
        if rng.gen_range(0..3) == 0 {
            while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                out.pop();
            }
        }
        out
    }

    proptest! {
        #[test]
        fn chunk_counts_read_dirty_files_as_one_chunk_does(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let block_nnz = [1, 3, 40, DEFAULT_BLOCK_NNZ][rng.gen_range(0..4)];
            let mtx = dirty(&mut rng, None);
            same_at_every_chunk_count(&mtx, 2, block_nnz);
            let order = rng.gen_range(1..4);
            let tns = dirty(&mut rng, Some(order));
            same_at_every_chunk_count(&tns, order, block_nnz);
        }
    }

    /// `entries` `.tns` lines of order 2, `i i 1.5` for `i` cycling 1..=4,
    /// each ended by `eol`.
    fn tns_lines(entries: usize, eol: &str) -> String {
        (0..entries)
            .map(|p| format!("{0} {0} 1.5{eol}", p % 4 + 1))
            .collect()
    }

    #[test]
    fn cuts_fall_after_a_carriage_return_or_inside_comment_runs() {
        // Pad until half the text ends right after a `\r`: the two-chunk cut
        // is the `\n` that follows it.
        let text = (0..40)
            .map(|pad| format!("#{}\r\n{}", "x".repeat(pad), tns_lines(30, "\r\n")))
            .find(|t| t.as_bytes()[t.len() / 2 - 1] == b'\r')
            .expect("some padding puts a \\r at the middle");
        let read = same_at_every_chunk_count(text.as_bytes(), 2, DEFAULT_BLOCK_NNZ);
        assert_eq!(read.0[0].1.len(), 30);
        // A run of comments and blank lines across every cut, then an error
        // whose line number counts the whole run.
        let run = "# c\n\n   \r\n".repeat(40);
        let text = format!("{}{run}{}1 9 1.0\n", tns_lines(5, "\n"), tns_lines(5, "\n"));
        let read = same_at_every_chunk_count(text.as_bytes(), 2, DEFAULT_BLOCK_NNZ);
        let message = "coordinate 9 out of bounds 1..=4 in dimension 1".into();
        assert_eq!(read.1, Some(ConvertError::Parse { line: 131, message }));
    }

    #[test]
    fn the_first_error_in_file_order_wins_at_its_line() {
        // An error in the last of four chunks, rebased to its file line.
        let text = format!("{}1 1\n", tns_lines(39, "\n"));
        let read = same_at_every_chunk_count(text.as_bytes(), 2, DEFAULT_BLOCK_NNZ);
        let message = "entry needs 2 coordinates and a value, got 1 1".into();
        assert_eq!(read.1, Some(ConvertError::Parse { line: 40, message }));
        // Invalid UTF-8 in the second chunk is an I/O error, unless the first
        // chunk already failed.
        let mut text = tns_lines(10, "\n").into_bytes();
        text.extend_from_slice(b"# \xff\n");
        text.extend_from_slice(tns_lines(10, "\n").as_bytes());
        let read = same_at_every_chunk_count(&text, 2, DEFAULT_BLOCK_NNZ);
        assert!(matches!(read.1, Some(ConvertError::Io(_))));
        text.splice(0..0, b"0 1 1.0\n".iter().copied());
        let read = same_at_every_chunk_count(&text, 2, DEFAULT_BLOCK_NNZ);
        let message = "coordinate 0 out of bounds 1..=4 in dimension 0".into();
        assert_eq!(read.1, Some(ConvertError::Parse { line: 1, message }));
    }

    #[test]
    fn mtx_blocks_mirror_and_check_their_count_at_any_chunk_count() {
        let entries: String = (0..24)
            .map(|p| format!("{} {} {p}\n", p % 4 + 1, p / 3 % 4 + 1))
            .collect();
        let symmetric =
            format!("%%MatrixMarket matrix coordinate real symmetric\n4 4 24\n{entries}");
        let off_diagonal = (0..24).filter(|p| p % 4 != p / 3 % 4).count();
        for block_nnz in [5, DEFAULT_BLOCK_NNZ] {
            let (read, err) = mtx_at(symmetric.as_bytes(), block_nnz, 4, usize::MAX).unwrap();
            assert_eq!(err, None);
            let nnz: usize = read.iter().map(|(_, vals)| vals.len()).sum();
            assert_eq!(nnz, 24 + off_diagonal);
            same_at_every_chunk_count(symmetric.as_bytes(), 2, block_nnz);
        }
        // More entries than declared, found past comments in the window
        // that ends the file.
        let general = format!(
            "%%MatrixMarket matrix coordinate real general\n4 4 24\n{entries}% c\n\n1 1 1\n% d\n"
        );
        let (read, err) = mtx_at(general.as_bytes(), DEFAULT_BLOCK_NNZ, 3, usize::MAX).unwrap();
        assert_eq!(read.len(), 1);
        let message = "more than 24 declared entries".into();
        assert_eq!(err, Some(ConvertError::Parse { line: 29, message }));
        same_at_every_chunk_count(general.as_bytes(), 2, 7);
        // Fewer entries than declared, with and without a final newline.
        for tail in ["", "\n", "\n% end"] {
            let early = format!(
                "%%MatrixMarket matrix coordinate real general\n4 4 30\n{}{tail}",
                entries.trim_end()
            );
            let (read, err) = mtx_at(early.as_bytes(), DEFAULT_BLOCK_NNZ, 4, usize::MAX).unwrap();
            assert!(read.is_empty());
            let line = 26 + u64::from(tail.len() > 1);
            let message = "file ended with 6 declared entries unread".into();
            assert_eq!(err, Some(ConvertError::Parse { line, message }));
            same_at_every_chunk_count(early.as_bytes(), 2, 10);
        }
    }

    #[test]
    fn a_line_longer_than_the_window_is_read_whole_at_any_chunk_count() {
        let long = "0".repeat(2 * PARSE_CHUNK_BYTES + 3);
        let text = format!("1 1 1.0\n# {long}\n2 2 {long}\n3 3 2.5");
        for n in [1, 2] {
            let (read, err) = tns_at(
                text.as_bytes(),
                &Shape::matrix(4, 4),
                DEFAULT_BLOCK_NNZ,
                n,
                usize::MAX,
            );
            assert_eq!(err, None);
            assert_eq!(read[0].0, vec![vec![0, 1, 2], vec![0, 1, 2]]);
            assert_eq!(read[0].1, [1f64.to_bits(), 0, 2.5f64.to_bits()]);
        }
    }

    #[test]
    fn a_file_of_many_windows_reads_as_one_line_blocks_do() {
        let dir = std::env::temp_dir().join(format!("io-windows-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = CooMatrix::new(5000, 7000);
        while std::fs::metadata(&path).map_or(0, |f| f.len() as usize) < 4 * PARSE_CHUNK_BYTES {
            for _ in 0..10_000 {
                m.push(rng.gen_range(0..5000), rng.gen_range(0..7000), rng.gen());
            }
            write_mtx(&path, &m).unwrap();
        }
        let flat = |block_nnz| {
            let (read, err) = blocks(&mut MtxStream::open(&path, block_nnz).unwrap());
            assert_eq!(err, None);
            let mut out: (Vec<Vec<usize>>, Vec<u64>) = (vec![Vec::new(); 2], Vec::new());
            for (crd, vals) in read {
                out.0[0].extend(&crd[0]);
                out.0[1].extend(&crd[1]);
                out.1.extend(vals);
            }
            out
        };
        let whole = flat(DEFAULT_BLOCK_NNZ);
        assert_eq!(whole.1.len(), m.nnz());
        assert_eq!(whole, flat(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
