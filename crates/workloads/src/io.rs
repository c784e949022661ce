//! Streaming loaders for the real-dataset file formats of the paper's
//! evaluation: Matrix Market (`.mtx`, SuiteSparse) and FROSTT (`.tns`).
//!
//! Both loaders implement [`TensorStream`]: they read line by line and yield
//! bounded [`CoordBlock`]s, so a file larger than memory can flow straight
//! into `ConversionService::convert_stream` without ever being resident.
//! Failures surface as the typed [`ConvertError::Io`] and
//! [`ConvertError::Parse`] variants, the latter carrying the 1-based line
//! number.
//!
//! Parsing works on bytes with no per-line allocation: `read_until` into one
//! reused buffer, fields as byte ranges, coordinates through an
//! overflow-checked scan with `usize::from_str`'s grammar, values through
//! `f64::from_str`. A non-ASCII line must be UTF-8 and splits on Unicode
//! whitespace, so files read, and fail, as `str` line parsing would.
//!
//! The writers ([`write_mtx`], [`write_tns`]) exist so tests and examples can
//! round-trip files without external data.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use conv_stream::{CoordBlock, TensorStream};
use obs::Span;
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

/// Splits `line` into fields (byte ranges of it); returns whether every
/// field byte is ASCII.
fn split_fields(line: &[u8], fields: &mut Vec<Range<usize>>) -> bool {
    fields.clear();
    let (mut high, mut i) = (0u8, 0);
    loop {
        while i < line.len() && is_space(line[i]) {
            i += 1;
        }
        if i == line.len() {
            return high < 0x80;
        }
        let start = i;
        while i < line.len() && !is_space(line[i]) {
            high |= line[i];
            i += 1;
        }
        fields.push(start..i);
    }
}

/// A line reader that skips comments and blank lines and splits the rest
/// into fields, reusing one byte buffer and one field vector throughout.
#[derive(Debug)]
struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    fields: Vec<Range<usize>>,
    /// 1-based number of the line in `buf`.
    number: u64,
    /// The leading comment byte (`%` for Matrix Market, `#` for FROSTT).
    comment: u8,
}

impl<R: BufRead> Lines<R> {
    /// Reads `reader`, whose first line is line `number + 1`.
    fn new(reader: R, number: u64, comment: u8) -> Self {
        let (buf, fields) = (Vec::new(), Vec::new());
        Lines {
            reader,
            buf,
            fields,
            number,
            comment,
        }
    }

    /// Reads the next non-comment, non-blank line; `false` at end of file.
    /// A line with non-ASCII bytes must be UTF-8, and is split on Unicode
    /// whitespace.
    fn next_data(&mut self) -> Result<bool, ConvertError> {
        loop {
            self.buf.clear();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(false);
            }
            self.number += 1;
            if !split_fields(&self.buf, &mut self.fields) {
                let text =
                    std::str::from_utf8(&self.buf).map_err(|e| ConvertError::Io(e.to_string()))?;
                let origin = text.as_ptr() as usize;
                self.fields.clear();
                self.fields.extend(text.split_whitespace().map(|field| {
                    let start = field.as_ptr() as usize - origin;
                    start..start + field.len()
                }));
            }
            if let Some(first) = self.fields.first() {
                if self.buf[first.start] != self.comment {
                    return Ok(true);
                }
            }
        }
    }

    fn field(&self, k: usize) -> &[u8] {
        &self.buf[self.fields[k].clone()]
    }

    /// A parse error at the current line.
    fn err(&self, message: impl Into<String>) -> ConvertError {
        parse_err(self.number, message)
    }

    /// A parse error naming what the current line lacks, and the line.
    fn malformed(&self, needs: impl std::fmt::Display) -> ConvertError {
        let text = String::from_utf8_lossy(&self.buf);
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

/// A streaming Matrix Market (`coordinate`) loader.
///
/// Supports `real`, `integer`, and `pattern` fields (pattern entries get
/// value 1.0) and the `general` / `symmetric` symmetries; a symmetric
/// off-diagonal entry yields its mirror in the same block. Entries keep file
/// order, which downstream sorts treat as the arrival order. Only comments
/// and blank lines may follow the last declared entry.
#[derive(Debug)]
pub struct MtxStream<R: BufRead> {
    lines: Lines<R>,
    shape: Shape,
    block_nnz: usize,
    symmetric: bool,
    pattern: bool,
    /// Entry *lines* still to read (symmetric mirrors not counted).
    remaining: u64,
    declared: u64,
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
        if banner.len() < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
            return Err(parse_err(
                1,
                format!("not a Matrix Market banner: {}", buf.trim()),
            ));
        }
        if banner[2] != "coordinate" {
            return Err(parse_err(
                1,
                format!(
                    "only coordinate matrices are supported, got {:?}",
                    banner[2]
                ),
            ));
        }
        let pattern = match banner[3].as_str() {
            "real" | "integer" => false,
            "pattern" => true,
            other => return Err(parse_err(1, format!("unsupported field type {other:?}"))),
        };
        let symmetric = match banner[4].as_str() {
            "general" => false,
            "symmetric" => true,
            other => return Err(parse_err(1, format!("unsupported symmetry {other:?}"))),
        };
        let mut lines = Lines::new(reader, 1, b'%');
        if !lines.next_data()? {
            return Err(lines.err("missing size line"));
        }
        if lines.fields.len() != 3 {
            return Err(lines.malformed("size line needs `rows cols nnz`"));
        }
        let mut dims = [0u64; 3];
        for (k, dim) in dims.iter_mut().enumerate() {
            *dim = parse_u64(lines.field(k)).ok_or_else(|| lines.bad_field("bad size entry", k))?;
        }
        let [rows, cols, declared] = dims;
        if symmetric && rows != cols {
            let message = format!("a symmetric matrix must be square, got {rows}x{cols}");
            return Err(lines.err(message));
        }
        Ok(MtxStream {
            lines,
            shape: Shape::matrix(rows as usize, cols as usize),
            block_nnz: block_nnz.max(1),
            symmetric,
            pattern,
            remaining: declared,
            declared,
        })
    }

    /// Whether the file declared itself symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
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
        let lines = &mut self.lines;
        if self.remaining == 0 {
            if lines.next_data()? {
                return Err(lines.err(format!("more than {} declared entries", self.declared)));
            }
            return Ok(None);
        }
        let span = Span::enter("io.parse_block");
        let want = (self.block_nnz as u64).min(self.remaining) as usize;
        // A symmetric block can hold up to twice the entry lines.
        let cap = if self.symmetric { want * 2 } else { want };
        let mut block = CoordBlock::with_capacity(self.shape.clone(), cap);
        let expected = if self.pattern { 2 } else { 3 };
        for _ in 0..want {
            if !lines.next_data()? {
                let unread = self.remaining;
                return Err(lines.err(format!("file ended with {unread} declared entries unread")));
            }
            if lines.fields.len() != expected {
                return Err(lines.malformed(format!("entry needs {expected} fields")));
            }
            let i = lines.coord_1based(0, self.shape.dim(0), 0)?;
            let j = lines.coord_1based(1, self.shape.dim(1), 1)?;
            let v = if self.pattern { 1.0 } else { lines.value(2)? };
            block
                .push(&[i, j], v)
                .expect("coordinates were bounds-checked");
            if self.symmetric && i != j {
                block
                    .push(&[j, i], v)
                    .expect("a symmetric matrix is square");
            }
            self.remaining -= 1;
        }
        span.add_items(block.nnz() as u64);
        Ok(Some(block))
    }

    fn size_hint(&self) -> Option<u64> {
        // Entry lines; symmetric files expand off-diagonal lines to two
        // nonzeros, which a header cannot predict.
        Some(self.declared)
    }
}

/// A streaming FROSTT (`.tns`) loader: whitespace-separated lines of `N`
/// 1-based coordinates followed by a value, `#` comments allowed. FROSTT
/// files do not carry dimensions, so the shape is supplied (see
/// [`tns_dims`] for a one-pass scan that discovers it).
#[derive(Debug)]
pub struct TnsStream<R: BufRead> {
    lines: Lines<R>,
    shape: Shape,
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
            lines: Lines::new(reader, 0, b'#'),
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
        let order = self.shape.order();
        let lines = &mut self.lines;
        let mut block = CoordBlock::with_capacity(self.shape.clone(), self.block_nnz);
        let mut coord = vec![0usize; order];
        while block.nnz() < self.block_nnz {
            if !lines.next_data()? {
                self.done = true;
                break;
            }
            if lines.fields.len() != order + 1 {
                return Err(lines.malformed(format!("entry needs {order} coordinates and a value")));
            }
            for (d, c) in coord.iter_mut().enumerate() {
                *c = lines.coord_1based(d, self.shape.dim(d), d)?;
            }
            let v = lines.value(order)?;
            block
                .push(&coord, v)
                .expect("coordinates were bounds-checked");
        }
        span.add_items(block.nnz() as u64);
        Ok((block.nnz() > 0).then_some(block))
    }
}

/// Scans a `.tns` file once, line by line, and returns the tensor's shape
/// (the per-dimension coordinate maxima) and nonzero count. The order is
/// taken from the first entry line.
///
/// # Errors
///
/// [`ConvertError::Io`] on open/read failure, [`ConvertError::Parse`] on a
/// malformed line or an empty file.
pub fn tns_dims(path: impl AsRef<Path>) -> Result<(Shape, u64), ConvertError> {
    let span = Span::enter("io.tns_dims");
    let mut lines = Lines::new(BufReader::new(File::open(path)?), 0, b'#');
    let mut dims: Vec<usize> = Vec::new();
    let mut nnz = 0u64;
    while lines.next_data()? {
        let fields = lines.fields.len();
        if dims.is_empty() {
            if fields < 2 {
                return Err(lines.err("an entry needs at least one coordinate and a value"));
            }
            dims = vec![0; fields - 1];
        }
        if fields != dims.len() + 1 {
            let order = dims.len();
            return Err(lines.malformed(format!("entry needs {order} coordinates and a value")));
        }
        for (d, max) in dims.iter_mut().enumerate() {
            match lines.coord(d)? {
                0 => return Err(lines.err("FROSTT coordinates are 1-based")),
                c => *max = (*max).max(c),
            }
        }
        lines.value(dims.len())?;
        nnz += 1;
    }
    if dims.is_empty() {
        return Err(lines.err("no entries in .tns file"));
    }
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
    use std::io::Cursor;

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
}
