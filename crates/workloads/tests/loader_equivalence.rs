//! Equivalence sweep of the byte-level `.mtx` / `.tns` loaders against the
//! `str` line parser they replaced, kept below as the reference.
//!
//! Random files mix CRLF, tabs and the other ASCII whitespace, leading and
//! trailing blanks, comments and blank lines between entries, a missing
//! final newline, `+`-signed, zero-padded and overflowing coordinates,
//! exponents, `nan` / `inf` / `-0.0`, non-ASCII whitespace, invalid UTF-8,
//! overlong lines and malformed fields, read through readers that hand out
//! a few bytes at a time. Every block must match the reference bit for bit,
//! and every error must be the same error (variant, line and message).
//! Files never hold entries beyond their declared count: the reference
//! drops those silently, the loader rejects them (pinned in its unit tests).

use std::io::{self, BufReader, Cursor, Read};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use conv_stream::{CoordBlock, TensorStream};
use conv_workloads::io::{tns_dims, MtxStream, TnsStream};
use sparse_conv::ConvertError;
use sparse_tensor::Shape;

/// The `String`-per-line loaders as they were before the byte-level
/// rewrite.
mod reference {
    use std::fs::File;
    use std::io::{BufRead, BufReader};
    use std::path::Path;

    use conv_stream::{CoordBlock, TensorStream};
    use sparse_conv::ConvertError;
    use sparse_tensor::Shape;

    fn parse_err(line: u64, message: impl Into<String>) -> ConvertError {
        ConvertError::Parse {
            line,
            message: message.into(),
        }
    }

    fn next_data_line<R: BufRead>(
        reader: &mut R,
        buf: &mut String,
        line: &mut u64,
        comment: char,
    ) -> Result<bool, ConvertError> {
        loop {
            buf.clear();
            if reader.read_line(buf)? == 0 {
                return Ok(false);
            }
            *line += 1;
            let trimmed = buf.trim();
            if !trimmed.is_empty() && !trimmed.starts_with(comment) {
                return Ok(true);
            }
        }
    }

    fn parse_coord_1based(
        tok: &str,
        dim: usize,
        d: usize,
        line: u64,
    ) -> Result<usize, ConvertError> {
        let c: usize = tok
            .parse()
            .map_err(|_| parse_err(line, format!("expected a coordinate, got {tok:?}")))?;
        if c == 0 || c > dim {
            return Err(parse_err(
                line,
                format!("coordinate {c} out of bounds 1..={dim} in dimension {d}"),
            ));
        }
        Ok(c - 1)
    }

    fn parse_value(tok: &str, line: u64) -> Result<f64, ConvertError> {
        tok.parse()
            .map_err(|_| parse_err(line, format!("expected a value, got {tok:?}")))
    }

    pub struct MtxStream<R: BufRead> {
        reader: R,
        pub shape: Shape,
        block_nnz: usize,
        pub symmetric: bool,
        pattern: bool,
        remaining: u64,
        pub declared: u64,
        line: u64,
        buf: String,
    }

    impl<R: BufRead> MtxStream<R> {
        pub fn from_reader(mut reader: R, block_nnz: usize) -> Result<Self, ConvertError> {
            let mut line = 0u64;
            let mut buf = String::new();
            if reader.read_line(&mut buf)? == 0 {
                return Err(parse_err(1, "empty file, expected a %%MatrixMarket banner"));
            }
            line += 1;
            let banner: Vec<String> = buf.split_whitespace().map(str::to_lowercase).collect();
            if banner.len() < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
                return Err(parse_err(
                    line,
                    format!("not a Matrix Market banner: {}", buf.trim()),
                ));
            }
            if banner[2] != "coordinate" {
                return Err(parse_err(
                    line,
                    format!(
                        "only coordinate matrices are supported, got {:?}",
                        banner[2]
                    ),
                ));
            }
            let pattern = match banner[3].as_str() {
                "real" | "integer" => false,
                "pattern" => true,
                other => return Err(parse_err(line, format!("unsupported field type {other:?}"))),
            };
            let symmetric = match banner[4].as_str() {
                "general" => false,
                "symmetric" => true,
                other => return Err(parse_err(line, format!("unsupported symmetry {other:?}"))),
            };
            if !next_data_line(&mut reader, &mut buf, &mut line, '%')? {
                return Err(parse_err(line, "missing size line"));
            }
            let toks: Vec<&str> = buf.split_whitespace().collect();
            if toks.len() != 3 {
                return Err(parse_err(
                    line,
                    format!("size line needs `rows cols nnz`, got {}", buf.trim()),
                ));
            }
            let dims: Vec<u64> = toks
                .iter()
                .map(|t| {
                    t.parse::<u64>()
                        .map_err(|_| parse_err(line, format!("bad size entry {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            Ok(MtxStream {
                reader,
                shape: Shape::matrix(dims[0] as usize, dims[1] as usize),
                block_nnz: block_nnz.max(1),
                symmetric,
                pattern,
                remaining: dims[2],
                declared: dims[2],
                line,
                buf,
            })
        }
    }

    impl<R: BufRead> TensorStream for MtxStream<R> {
        fn shape(&self) -> &Shape {
            &self.shape
        }

        fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
            if self.remaining == 0 {
                return Ok(None);
            }
            let want = (self.block_nnz as u64).min(self.remaining) as usize;
            let cap = if self.symmetric { want * 2 } else { want };
            let mut block = CoordBlock::with_capacity(self.shape.clone(), cap);
            for _ in 0..want {
                if !next_data_line(&mut self.reader, &mut self.buf, &mut self.line, '%')? {
                    return Err(parse_err(
                        self.line,
                        format!("file ended with {} declared entries unread", self.remaining),
                    ));
                }
                let toks: Vec<&str> = self.buf.split_whitespace().collect();
                let expected = if self.pattern { 2 } else { 3 };
                if toks.len() != expected {
                    return Err(parse_err(
                        self.line,
                        format!("entry needs {expected} fields, got {}", self.buf.trim()),
                    ));
                }
                let i = parse_coord_1based(toks[0], self.shape.dim(0), 0, self.line)?;
                let j = parse_coord_1based(toks[1], self.shape.dim(1), 1, self.line)?;
                let v = if self.pattern {
                    1.0
                } else {
                    parse_value(toks[2], self.line)?
                };
                block
                    .push(&[i, j], v)
                    .expect("coordinates were bounds-checked");
                if self.symmetric && i != j {
                    block
                        .push(&[j, i], v)
                        .expect("mirrored coordinates are in bounds");
                }
                self.remaining -= 1;
            }
            Ok(Some(block))
        }
    }

    pub struct TnsStream<R: BufRead> {
        reader: R,
        shape: Shape,
        block_nnz: usize,
        line: u64,
        buf: String,
        done: bool,
    }

    impl<R: BufRead> TnsStream<R> {
        pub fn from_reader(reader: R, shape: Shape, block_nnz: usize) -> Self {
            TnsStream {
                reader,
                shape,
                block_nnz: block_nnz.max(1),
                line: 0,
                buf: String::new(),
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
            let order = self.shape.order();
            let mut block = CoordBlock::with_capacity(self.shape.clone(), self.block_nnz);
            let mut coord = vec![0usize; order];
            while block.nnz() < self.block_nnz {
                if !next_data_line(&mut self.reader, &mut self.buf, &mut self.line, '#')? {
                    self.done = true;
                    break;
                }
                let toks: Vec<&str> = self.buf.split_whitespace().collect();
                if toks.len() != order + 1 {
                    return Err(parse_err(
                        self.line,
                        format!(
                            "entry needs {} coordinates and a value, got {}",
                            order,
                            self.buf.trim()
                        ),
                    ));
                }
                for d in 0..order {
                    coord[d] = parse_coord_1based(toks[d], self.shape.dim(d), d, self.line)?;
                }
                let v = parse_value(toks[order], self.line)?;
                block
                    .push(&coord, v)
                    .expect("coordinates were bounds-checked");
            }
            if block.nnz() == 0 {
                Ok(None)
            } else {
                Ok(Some(block))
            }
        }
    }

    pub fn tns_dims(path: impl AsRef<Path>) -> Result<(Shape, u64), ConvertError> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut line = 0u64;
        let mut buf = String::new();
        let mut dims: Vec<usize> = Vec::new();
        let mut nnz = 0u64;
        while next_data_line(&mut reader, &mut buf, &mut line, '#')? {
            let toks: Vec<&str> = buf.split_whitespace().collect();
            if dims.is_empty() {
                if toks.len() < 2 {
                    return Err(parse_err(
                        line,
                        "an entry needs at least one coordinate and a value",
                    ));
                }
                dims = vec![0; toks.len() - 1];
            }
            if toks.len() != dims.len() + 1 {
                return Err(parse_err(
                    line,
                    format!(
                        "entry needs {} coordinates and a value, got {}",
                        dims.len(),
                        buf.trim()
                    ),
                ));
            }
            for (d, tok) in toks[..dims.len()].iter().enumerate() {
                let c: usize = tok
                    .parse()
                    .map_err(|_| parse_err(line, format!("expected a coordinate, got {tok:?}")))?;
                if c == 0 {
                    return Err(parse_err(line, "FROSTT coordinates are 1-based"));
                }
                dims[d] = dims[d].max(c);
            }
            parse_value(toks[dims.len()], line)?;
            nnz += 1;
        }
        if dims.is_empty() {
            return Err(parse_err(line, "no entries in .tns file"));
        }
        Ok((Shape::new(dims), nnz))
    }
}

/// A reader that hands out at most `step` bytes per call, so lines straddle
/// every possible read boundary.
struct Trickle {
    inner: Cursor<Vec<u8>>,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.step);
        self.inner.read(&mut buf[..n])
    }
}

/// The bytes behind a buffered reader: whole, or a few at a time behind a
/// small buffer.
fn reader(bytes: &[u8], rng: &mut StdRng) -> BufReader<Trickle> {
    let step = if rng.gen_range(0..2) == 0 {
        usize::MAX
    } else {
        rng.gen_range(1..9)
    };
    BufReader::with_capacity(
        rng.gen_range(1..32),
        Trickle {
            inner: Cursor::new(bytes.to_vec()),
            step,
        },
    )
}

/// Every block as columns and value bits (`-0.0` and NaN payloads compare
/// exactly), up to the first error.
type Drained = Result<Vec<(Vec<Vec<usize>>, Vec<u64>)>, ConvertError>;

fn drain(stream: &mut impl TensorStream) -> Drained {
    let mut out = Vec::new();
    while let Some(block) = stream.next_block()? {
        out.push(columns(&block));
    }
    Ok(out)
}

/// Every entry in file order, as coordinates and value bits, up to the first
/// error.
type Entries = Result<(Vec<Vec<usize>>, Vec<u64>), ConvertError>;

/// The drained blocks' entries, concatenated (a job's block may be empty).
fn flat(blocks: &Drained) -> Entries {
    let mut out = (Vec::new(), Vec::new());
    for (crd, vals) in blocks.clone()?.into_iter().filter(|b| !b.1.is_empty()) {
        out.0.resize(crd.len(), Vec::new());
        for (column, more) in out.0.iter_mut().zip(crd) {
            column.extend(more);
        }
        out.1.extend(vals);
    }
    Ok(out)
}

/// Drains a stream through its parse jobs, running each in order as it is
/// cut, and concatenates their entries.
fn drain_jobs(stream: &mut impl TensorStream) -> Entries {
    let mut blocks = Vec::new();
    while let Some(job) = stream.next_job(0)? {
        blocks.push(columns(&job.run()?));
    }
    flat(&Ok(blocks))
}

/// The job cuts every job-path read sweeps: one line, a prime stride, and
/// the whole file (the stream's block size sets the cut).
const CUTS: [usize; 3] = [1, 7, 1 << 20];

/// A result with I/O errors reduced to their variant: invalid UTF-8 is
/// `ConvertError::Io` on both sides, rendered differently.
fn same<T: Clone>(result: &Result<T, ConvertError>) -> Result<T, ConvertError> {
    match result {
        Err(ConvertError::Io(_)) => Err(ConvertError::Io(String::new())),
        other => other.clone(),
    }
}

fn columns(block: &CoordBlock) -> (Vec<Vec<usize>>, Vec<u64>) {
    let crd = (0..block.order()).map(|d| block.crd(d).to_vec()).collect();
    (crd, block.values().iter().map(|v| v.to_bits()).collect())
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// Generates file text. `dirty` is the percentage of fields that are
/// malformed or otherwise unusual; `unicode` lets non-ASCII whitespace,
/// text and invalid UTF-8 in.
struct Gen {
    rng: StdRng,
    dirty: usize,
    unicode: bool,
    /// Whether `.mtx` files may hold entries beyond their declared count.
    excess: bool,
}

impl Gen {
    fn roll(&mut self, percent: usize) -> bool {
        self.rng.gen_range(0..100) < percent
    }

    fn sep(&mut self) -> String {
        if self.unicode && self.roll(5) {
            return pick(&mut self.rng, &["\u{3000}", "\u{a0}", " \u{2003} "]).into();
        }
        pick(
            &mut self.rng,
            &[" ", " ", " ", "  ", "\t", " \t ", "\x0b", "\x0c"],
        )
        .into()
    }

    fn eol(&mut self) -> &'static str {
        pick(&mut self.rng, &["\n", "\n", "\r\n", " \n", "\t\r\n"])
    }

    /// Comments and blank lines, possibly none.
    fn filler(&mut self, out: &mut Vec<u8>, comment: char) {
        while self.roll(25) {
            let line = match self.rng.gen_range(0..6) {
                0 => String::new(),
                1 => pick(&mut self.rng, &["   ", "\t", "\r", "\x0b"]).into(),
                2 if self.unicode => format!("{comment} café\u{3000}{comment}"),
                3 if self.unicode && self.roll(20) => {
                    out.extend_from_slice(format!("{comment} ").as_bytes());
                    out.push(0xff);
                    String::new()
                }
                4 if self.roll(2) => format!("{comment}{}", "x".repeat(66_000)),
                _ => format!("{}{comment} note {}", self.sep(), self.rng.gen_range(0..99)),
            };
            out.extend_from_slice(line.as_bytes());
            let eol = self.eol();
            out.extend_from_slice(eol.as_bytes());
        }
    }

    fn coord(&mut self, dim: usize) -> String {
        let good = self.rng.gen_range(1..dim + 1);
        if !self.roll(self.dirty) {
            return match self.rng.gen_range(0..8) {
                0 => format!("+{good}"),
                1 => format!("00{good}"),
                _ => good.to_string(),
            };
        }
        match self.rng.gen_range(0..12) {
            0 => "0".into(),
            1 => (dim + 1).to_string(),
            2 => "18446744073709551616".into(),
            3 => "18446744073709551615".into(),
            4 if self.unicode => "\u{663}".into(),
            _ => pick(
                &mut self.rng,
                &[
                    "-1", "+", "1.0", "x", "0x1", "++1", "+-1", "1_0", "-0", "1e2",
                ],
            )
            .into(),
        }
    }

    fn value(&mut self) -> String {
        if !self.roll(self.dirty) {
            let x: f64 = self.rng.gen();
            let scale = [1.0, -1.0, 1e-300, 3e300, 1e6][self.rng.gen_range(0..5)];
            return match self.rng.gen_range(0..4) {
                0 => format!("{}", x * scale),
                1 => format!("{:e}", x * scale),
                2 => format!("{}", self.rng.gen_range(0..1000) as i64 - 500),
                _ => pick(
                    &mut self.rng,
                    &["-0.0", "0", "+2.5", ".5", "5.", "1E-7", "2.5e+300", "1e400"],
                )
                .into(),
            };
        }
        pick(
            &mut self.rng,
            &[
                "nan",
                "NaN",
                "inf",
                "-inf",
                "+infinity",
                "Infinity",
                "-nan",
                "0x10",
                "1.2.3",
                "abc",
                "--1",
                "1e",
                "e5",
                "1,5",
                "١",
            ],
        )
        .into()
    }

    /// One entry line from `fields`, occasionally with a field dropped or
    /// added.
    fn entry(&mut self, out: &mut Vec<u8>, mut fields: Vec<String>) {
        if self.roll(self.dirty / 2) {
            if self.roll(50) {
                fields.pop();
            } else {
                fields.push("7".into());
            }
        }
        let mut line = if self.roll(20) {
            self.sep()
        } else {
            String::new()
        };
        for (k, f) in fields.iter().enumerate() {
            if k > 0 {
                line += &self.sep();
            }
            line += f;
        }
        if self.roll(10) {
            line += &self.sep();
        }
        out.extend_from_slice(line.as_bytes());
        let eol = self.eol();
        out.extend_from_slice(eol.as_bytes());
    }

    fn mtx(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        let rows = self.rng.gen_range(1..7);
        let cols = if self.roll(50) {
            rows
        } else {
            self.rng.gen_range(1..7)
        };
        let field = pick(&mut self.rng, &["real", "integer", "pattern"]);
        let symmetry = if rows == cols && self.roll(40) {
            "symmetric"
        } else {
            "general"
        };
        let mut banner = format!("%%MatrixMarket matrix coordinate {field} {symmetry}");
        if self.roll(30) {
            banner = banner.to_uppercase();
        }
        if self.roll(self.dirty / 3) {
            banner = pick(
                &mut self.rng,
                &[
                    "%%MatrixMarket matrix array real general",
                    "%%MatrixMarket matrix coordinate complex general",
                    "%%MatrixMarket matrix coordinate real hermitian",
                    "%%MatrixMarket matrix coordinate real",
                    "%MatrixMarket matrix coordinate real general",
                ],
            )
            .into();
        }
        out.extend_from_slice(banner.as_bytes());
        out.extend_from_slice(self.eol().as_bytes());
        self.filler(&mut out, '%');
        let entries = self.rng.gen_range(0..12);
        let declared = if self.roll(self.dirty) {
            entries + self.rng.gen_range(1..3)
        } else if self.excess && entries > 0 && self.roll(50) {
            entries - self.rng.gen_range(1..entries + 1)
        } else {
            entries
        };
        let mut size = vec![rows.to_string(), cols.to_string(), declared.to_string()];
        if self.roll(10) {
            size[0] = format!("+{rows}");
        }
        if self.roll(self.dirty / 2) {
            size[self.rng.gen_range(0..3)] = pick(&mut self.rng, &["x", "-1", "2.0"]).into();
        }
        self.entry(&mut out, size);
        let pattern = field == "pattern";
        for _ in 0..entries {
            self.filler(&mut out, '%');
            let mut fields = vec![self.coord(rows), self.coord(cols)];
            if !pattern {
                fields.push(self.value());
            }
            self.entry(&mut out, fields);
        }
        // Only comments and blank lines after the last entry, and no bytes
        // the reference would never read that could fail validation.
        let unicode = std::mem::replace(&mut self.unicode, false);
        self.filler(&mut out, '%');
        self.unicode = unicode;
        if self.roll(30) {
            while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                out.pop();
            }
        }
        out
    }

    fn tns(&mut self, order: usize, dims: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..self.rng.gen_range(0..14) {
            self.filler(&mut out, '#');
            let mut fields: Vec<String> = (0..order).map(|d| self.coord(dims[d])).collect();
            fields.push(self.value());
            self.entry(&mut out, fields);
        }
        self.filler(&mut out, '#');
        if self.roll(30) {
            while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                out.pop();
            }
        }
        out
    }
}

fn generator(seed: u64) -> Gen {
    let mut rng = StdRng::seed_from_u64(seed);
    let dirty = [0, 0, 2, 5, 15][rng.gen_range(0..5)];
    let unicode = rng.gen_range(0..4) == 0;
    Gen {
        rng,
        dirty,
        unicode,
        excess: false,
    }
}

proptest! {
    #[test]
    fn mtx_matches_the_str_parser(seed in 0u64..u64::MAX) {
        let mut g = generator(seed);
        let bytes = g.mtx();
        let block_nnz = g.rng.gen_range(1..6);
        let old = reference::MtxStream::from_reader(reader(&bytes, &mut g.rng), block_nnz);
        let new = MtxStream::from_reader(reader(&bytes, &mut g.rng), block_nnz);
        let text = String::from_utf8_lossy(&bytes);
        match (old, new) {
            (Ok(mut old), Ok(mut new)) => {
                prop_assert_eq!(&old.shape, new.shape(), "{}", text);
                prop_assert_eq!(old.symmetric, new.is_symmetric());
                prop_assert_eq!(old.declared, new.declared_entries());
                let want = drain(&mut old);
                prop_assert_eq!(same(&want), same(&drain(&mut new)), "{}", text);
                for cut in CUTS {
                    let mut jobs = MtxStream::from_reader(reader(&bytes, &mut g.rng), cut).unwrap();
                    prop_assert_eq!(same(&flat(&want)), same(&drain_jobs(&mut jobs)), "cut {}: {}", cut, text);
                }
            }
            (old, new) => {
                prop_assert_eq!(same(&old.map(|_| ())), same(&new.map(|_| ())), "{}", text)
            }
        }
    }

    #[test]
    fn tns_matches_the_str_parser(seed in 0u64..u64::MAX) {
        let mut g = generator(seed);
        let order = g.rng.gen_range(1..5);
        let dims: Vec<usize> = (0..order).map(|_| g.rng.gen_range(1..6)).collect();
        let bytes = g.tns(order, &dims);
        let dir = std::env::temp_dir().join(format!("loader-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{seed}.tns"));
        std::fs::write(&path, &bytes).unwrap();
        let old_dims = reference::tns_dims(&path);
        let new_dims = tns_dims(&path);
        std::fs::remove_file(&path).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(same(&old_dims), same(&new_dims), "{}", text);
        // Stream with the discovered shape, or with the generator's extents
        // (which the dirty coordinates overstep).
        let shape = match old_dims {
            Ok((shape, _)) if g.rng.gen_range(0..2) == 0 => shape,
            _ => Shape::new(dims),
        };
        let block_nnz = g.rng.gen_range(1..6);
        let mut old = reference::TnsStream::from_reader(reader(&bytes, &mut g.rng), shape.clone(), block_nnz);
        let mut new = TnsStream::from_reader(reader(&bytes, &mut g.rng), shape.clone(), block_nnz);
        let want = drain(&mut old);
        prop_assert_eq!(same(&want), same(&drain(&mut new)), "{}", text);
        for cut in CUTS {
            let mut jobs = TnsStream::from_reader(reader(&bytes, &mut g.rng), shape.clone(), cut);
            prop_assert_eq!(same(&flat(&want)), same(&drain_jobs(&mut jobs)), "cut {}: {}", cut, text);
        }
    }

    /// The job path checks the declared count as blocks do, on files that
    /// also hold entries beyond it: the same entries, then the same "more
    /// than N declared entries" or "file ended with N declared entries
    /// unread" error at the same line.
    #[test]
    fn mtx_jobs_check_the_declared_count_as_blocks_do(seed in 0u64..u64::MAX) {
        let mut g = generator(seed);
        g.excess = true;
        let bytes = g.mtx();
        let block_nnz = g.rng.gen_range(1..6);
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(mut blocks) = MtxStream::from_reader(reader(&bytes, &mut g.rng), block_nnz) {
            let want = flat(&drain(&mut blocks));
            for cut in CUTS {
                let mut jobs = MtxStream::from_reader(reader(&bytes, &mut g.rng), cut).unwrap();
                prop_assert_eq!(same(&want), same(&drain_jobs(&mut jobs)), "cut {}: {}", cut, text);
            }
        }
    }
}
