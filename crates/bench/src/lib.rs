//! Shared harness code for the Table 2 / Table 3 reproduction binaries and
//! the criterion benchmarks.

use std::time::{Duration, Instant};

use conv_runtime::RoutingPolicy;
use conv_workloads::{table2, MatrixSpec};
use sparse_conv::convert::FormatId;
use sparse_conv::engine;
use sparse_conv::Format;
use sparse_formats::baselines::{mkl, sparskit, taco_noext};
use sparse_formats::{CooMatrix, CscMatrix, CsrMatrix};
use sparse_tensor::SparseTriples;

/// The input instances a conversion benchmark needs: the same matrix held in
/// COO (unsorted, as imported data would be), CSR, and CSC.
pub struct BenchInputs {
    /// The Table 2 row the matrix was synthesised from.
    pub spec: MatrixSpec,
    /// Unsorted COO input.
    pub coo: CooMatrix,
    /// CSR input.
    pub csr: CsrMatrix,
    /// CSC input.
    pub csc: CscMatrix,
}

impl BenchInputs {
    /// Synthesises the inputs for one Table 2 row at the given scale.
    pub fn build(spec: &MatrixSpec, scale: f64) -> Self {
        let triples = spec.generate(scale);
        BenchInputs::from_triples(spec.clone(), &triples)
    }

    /// Builds the inputs from an explicit canonical matrix.
    pub fn from_triples(spec: MatrixSpec, triples: &SparseTriples) -> Self {
        let mut coo = CooMatrix::from_triples(triples);
        // The paper does not assume sorted COO inputs; shuffle deterministically.
        let mut state = 0x9e3779b97f4a7c15u64;
        coo.shuffle_with(|bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as usize) % bound
        });
        let csr = CsrMatrix::from_triples(triples);
        let csc = CscMatrix::from_triples(triples);
        BenchInputs {
            spec,
            coo,
            csr,
            csc,
        }
    }
}

/// The seven conversions of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conversion {
    /// COO to CSR.
    CooCsr,
    /// COO to DIA.
    CooDia,
    /// CSR to CSC.
    CsrCsc,
    /// CSR to DIA.
    CsrDia,
    /// CSR to ELL.
    CsrEll,
    /// CSC to DIA.
    CscDia,
    /// CSC to ELL.
    CscEll,
}

impl Conversion {
    /// All seven conversions, in Table 3 column order.
    pub fn all() -> [Conversion; 7] {
        [
            Conversion::CooCsr,
            Conversion::CooDia,
            Conversion::CsrCsc,
            Conversion::CsrDia,
            Conversion::CsrEll,
            Conversion::CscDia,
            Conversion::CscEll,
        ]
    }

    /// The (source, target) format pair this conversion stands for.
    pub fn formats(self) -> (FormatId, FormatId) {
        match self {
            Conversion::CooCsr => (FormatId::Coo, FormatId::Csr),
            Conversion::CooDia => (FormatId::Coo, FormatId::Dia),
            Conversion::CsrCsc => (FormatId::Csr, FormatId::Csc),
            Conversion::CsrDia => (FormatId::Csr, FormatId::Dia),
            Conversion::CsrEll => (FormatId::Csr, FormatId::Ell),
            Conversion::CscDia => (FormatId::Csc, FormatId::Dia),
            Conversion::CscEll => (FormatId::Csc, FormatId::Ell),
        }
    }

    /// The Table 3 column label.
    pub fn label(self) -> &'static str {
        match self {
            Conversion::CooCsr => "coo_csr",
            Conversion::CooDia => "coo_dia",
            Conversion::CsrCsc => "csr_csc",
            Conversion::CsrDia => "csr_dia",
            Conversion::CsrEll => "csr_ell",
            Conversion::CscDia => "csc_dia",
            Conversion::CscEll => "csc_ell",
        }
    }

    /// Whether the paper reports this conversion for the given matrix (DIA /
    /// ELL admissibility and the symmetric-matrix rule for CSR→CSC).
    pub fn reported_for(self, spec: &MatrixSpec) -> bool {
        match self {
            Conversion::CooCsr => true,
            Conversion::CooDia | Conversion::CsrDia | Conversion::CscDia => spec.dia_admissible(),
            Conversion::CsrEll | Conversion::CscEll => spec.ell_admissible(),
            Conversion::CsrCsc => spec.non_symmetric,
        }
    }
}

/// The implementations compared in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// Conversion routines generated by this reproduction (the engine path).
    Generated,
    /// The SPARSKIT-style baseline port.
    Sparskit,
    /// The MKL-style baseline port.
    Mkl,
    /// taco without the paper's extensions (sort-based COO→CSR only).
    TacoNoExt,
}

impl Impl {
    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Impl::Generated => "taco w/ ext.",
            Impl::Sparskit => "skit",
            Impl::Mkl => "mkl",
            Impl::TacoNoExt => "taco w/o ext.",
        }
    }

    /// Whether the implementation provides the conversion at all (matching
    /// the populated columns of Table 3).
    pub fn supports(self, conversion: Conversion) -> bool {
        match self {
            Impl::Generated | Impl::Sparskit => true,
            Impl::Mkl => !matches!(conversion, Conversion::CsrEll | Conversion::CscEll),
            Impl::TacoNoExt => matches!(conversion, Conversion::CooCsr),
        }
    }
}

/// Runs one conversion with one implementation, returning a value that keeps
/// the optimiser from discarding the work (the output's nonzero or group
/// count).
///
/// # Panics
///
/// Panics when the implementation does not support the conversion (see
/// [`Impl::supports`]).
pub fn run_conversion(inputs: &BenchInputs, conversion: Conversion, implementation: Impl) -> usize {
    match (conversion, implementation) {
        (Conversion::CooCsr, Impl::Generated) => engine::to_csr(&inputs.coo).nnz(),
        (Conversion::CooCsr, Impl::Sparskit) => sparskit::coo_to_csr(&inputs.coo).nnz(),
        (Conversion::CooCsr, Impl::Mkl) => mkl::coo_to_csr(&inputs.coo).nnz(),
        (Conversion::CooCsr, Impl::TacoNoExt) => taco_noext::coo_to_csr(&inputs.coo).nnz(),

        (Conversion::CooDia, Impl::Generated) => engine::to_dia(&inputs.coo)
            .expect("DIA conversion")
            .num_diagonals(),
        (Conversion::CooDia, Impl::Sparskit) => sparskit::coo_to_dia(&inputs.coo).num_diagonals(),
        (Conversion::CooDia, Impl::Mkl) => mkl::coo_to_dia(&inputs.coo).num_diagonals(),

        (Conversion::CsrCsc, Impl::Generated) => engine::to_csc(&inputs.csr).nnz(),
        (Conversion::CsrCsc, Impl::Sparskit) => sparskit::csr_to_csc(&inputs.csr).nnz(),
        (Conversion::CsrCsc, Impl::Mkl) => mkl::csr_to_csc(&inputs.csr).nnz(),

        (Conversion::CsrDia, Impl::Generated) => engine::to_dia(&inputs.csr)
            .expect("DIA conversion")
            .num_diagonals(),
        (Conversion::CsrDia, Impl::Sparskit) => sparskit::csr_to_dia(&inputs.csr).num_diagonals(),
        (Conversion::CsrDia, Impl::Mkl) => mkl::csr_to_dia(&inputs.csr).num_diagonals(),

        (Conversion::CsrEll, Impl::Generated) => engine::to_ell(&inputs.csr).slices(),
        (Conversion::CsrEll, Impl::Sparskit) => sparskit::csr_to_ell(&inputs.csr).slices(),

        (Conversion::CscDia, Impl::Generated) => engine::to_dia(&inputs.csc)
            .expect("DIA conversion")
            .num_diagonals(),
        (Conversion::CscDia, Impl::Sparskit) => sparskit::csc_to_dia(&inputs.csc).num_diagonals(),
        (Conversion::CscDia, Impl::Mkl) => mkl::csc_to_dia(&inputs.csc).num_diagonals(),

        (Conversion::CscEll, Impl::Generated) => engine::to_ell(&inputs.csc).slices(),
        (Conversion::CscEll, Impl::Sparskit) => sparskit::csc_to_ell(&inputs.csc).slices(),

        (conversion, implementation) => {
            panic!(
                "{} does not implement {}",
                implementation.label(),
                conversion.label()
            )
        }
    }
}

/// Median wall-clock time of `reps` runs of `f`.
pub fn median_time<F: FnMut() -> usize>(reps: usize, mut f: F) -> Duration {
    let mut times: Vec<Duration> = Vec::with_capacity(reps);
    let mut sink = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        times.push(start.elapsed());
    }
    std::hint::black_box(sink);
    times.sort();
    times[times.len() / 2]
}

/// Reads an environment variable as `f64`, with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an environment variable as `usize`, with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Splits a binary's CLI arguments into the routing policy (`--route=POLICY`
/// or `--route POLICY`, one of `auto|direct|multi-hop`; the cost model when
/// absent) and the remaining arguments, in order. A missing or unknown
/// policy prints the accepted list and exits with status 2.
pub fn routing_from_cli(args: impl IntoIterator<Item = String>) -> (RoutingPolicy, Vec<String>) {
    let mut routing = RoutingPolicy::CostModel;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let policy = match arg.strip_prefix("--route") {
            Some("") => args.next().unwrap_or_default(),
            Some(value) if value.starts_with('=') => value[1..].to_string(),
            _ => {
                rest.push(arg);
                continue;
            }
        };
        routing = match policy.as_str() {
            "auto" => RoutingPolicy::CostModel,
            "direct" => RoutingPolicy::Direct,
            "multi-hop" => RoutingPolicy::MultiHop,
            other => {
                eprintln!(
                    "error: unknown routing policy '{other}' (expected auto|direct|multi-hop)"
                );
                std::process::exit(2);
            }
        };
    }
    (routing, rest)
}

/// The Table 2 suite, optionally limited to the first `limit` rows.
pub fn suite(limit: Option<usize>) -> Vec<MatrixSpec> {
    let all = table2();
    match limit {
        Some(n) => all.into_iter().take(n).collect(),
        None => all,
    }
}

/// The Table 2 row with the most nonzeros (the throughput benchmarks use
/// it as the paper-faithful "heaviest input").
pub fn largest_spec() -> MatrixSpec {
    table2()
        .into_iter()
        .max_by_key(|s| s.nnz)
        .expect("Table 2 is non-empty")
}

/// One machine-readable benchmark measurement: a conversion pair on one
/// input at one pool width.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Input (Table 2 matrix or synthetic tensor) name.
    pub matrix: String,
    /// Source format (its registry display form).
    pub source: String,
    /// Hex spec fingerprint of the source format (empty for DOK, which has
    /// no spec). Identifies the exact specification measured, so rows for
    /// registry (custom) formats stay unambiguous next to the name.
    pub source_fingerprint: String,
    /// Target format (its registry display form).
    pub target: String,
    /// Hex spec fingerprint of the target format.
    pub target_fingerprint: String,
    /// Worker threads used.
    pub threads: usize,
    /// The input scale this row was measured at. Carried per entry because
    /// several binaries (`table2`, `table4`) append to one document under
    /// different scale settings.
    pub scale: f64,
    /// Nonzeros in the measured input (0 for rows imported from documents
    /// that predate the field).
    pub nnz: u64,
    /// Median wall-clock nanoseconds over the run's repetitions.
    pub median_ns: u128,
    /// Conversion throughput in millions of nonzeros per second, derived
    /// from `nnz` and `median_ns` (0 when either is unknown). Informational:
    /// the regression gate keys on `median_ns` only.
    pub throughput_mnnz_s: f64,
    /// Route the service took for this row (`"direct"`, `"via-coo"`,
    /// `"multi-hop"`, `"stream"`; empty for rows measured outside the
    /// service or imported from documents that predate the field).
    /// Informational: the regression gate keys on `median_ns` only.
    pub route: String,
}

impl BenchRecord {
    /// A record for a measured pair, with names and spec fingerprints taken
    /// from the format handles and the throughput derived from `nnz` and the
    /// median.
    pub fn for_pair(
        matrix: &str,
        source: &Format,
        target: &Format,
        nnz: u64,
        threads: usize,
        scale: f64,
        median_ns: u128,
    ) -> Self {
        let fp = |f: &Format| {
            if f.spec().is_some() {
                format!("{:016x}", f.fingerprint())
            } else {
                String::new()
            }
        };
        BenchRecord {
            matrix: matrix.to_string(),
            source: source.to_string(),
            source_fingerprint: fp(source),
            target: target.to_string(),
            target_fingerprint: fp(target),
            threads,
            scale,
            nnz,
            median_ns,
            throughput_mnnz_s: throughput_mnnz_s(nnz, median_ns),
            route: String::new(),
        }
    }

    /// Sets the route the service reported for this row.
    #[must_use]
    pub fn with_route(mut self, route: &str) -> Self {
        self.route = route.to_string();
        self
    }
}

/// Millions of nonzeros per second for `nnz` entries converted in
/// `median_ns` nanoseconds (0 when either is unknown/zero).
pub fn throughput_mnnz_s(nnz: u64, median_ns: u128) -> f64 {
    if nnz == 0 || median_ns == 0 {
        return 0.0;
    }
    nnz as f64 * 1000.0 / median_ns as f64
}

fn render_record(r: &BenchRecord) -> String {
    format!(
        "    {{\"matrix\": \"{}\", \"source\": \"{}\", \"source_fp\": \"{}\", \
         \"target\": \"{}\", \"target_fp\": \"{}\", \
         \"threads\": {}, \"scale\": {}, \"nnz\": {}, \"median_ns\": {}, \
         \"throughput_mnnz_s\": {:.3}, \"route\": \"{}\"}}",
        r.matrix,
        r.source,
        r.source_fingerprint,
        r.target,
        r.target_fingerprint,
        r.threads,
        r.scale,
        r.nnz,
        r.median_ns,
        r.throughput_mnnz_s,
        r.route,
    )
}

/// Serialises benchmark records as the `BENCH_conversions.json` document the
/// CI perf-trajectory tooling consumes. Hand-rolled (no serde in this
/// offline workspace); every emitted value is a number or a string without
/// escapes, so the encoding stays trivially valid JSON. The top-level
/// `scale` describes the run that *created* the document; each entry
/// additionally carries its own `scale` (see [`BenchRecord::scale`]).
pub fn render_bench_json(scale: f64, reps: usize, records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str("  \"entries\": [\n");
    for (n, r) in records.iter().enumerate() {
        out.push_str(&render_record(r));
        out.push_str(if n + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Appends records to an existing `BENCH_conversions.json` document produced
/// by [`render_bench_json`], so several bench binaries (`table2` for matrix
/// pairs, `table4` for tensor pairs) can contribute entries to one
/// perf-trajectory artifact. Returns `None` when the document does not end
/// with the expected `]` / `}` lines (in which case callers should fall back
/// to [`render_bench_json`]).
pub fn merge_bench_json(existing: &str, records: &[BenchRecord]) -> Option<String> {
    let lines: Vec<&str> = existing.lines().collect();
    if lines.len() < 2 || lines[lines.len() - 2].trim() != "]" || lines[lines.len() - 1] != "}" {
        return None;
    }
    let mut out: Vec<String> = lines[..lines.len() - 2]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if !records.is_empty() {
        if let Some(last) = out.last_mut() {
            // The previous last entry needs a separating comma.
            if last.trim_start().starts_with('{') && !last.ends_with(',') {
                last.push(',');
            }
        }
        for (n, r) in records.iter().enumerate() {
            let mut line = render_record(r);
            if n + 1 != records.len() {
                line.push(',');
            }
            out.push(line);
        }
    }
    out.push("  ]".to_string());
    out.push("}".to_string());
    Some(out.join("\n") + "\n")
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn json_num_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |e| e + start);
    Some(line[start..end].trim())
}

/// Parses a `BENCH_conversions.json` document produced by
/// [`render_bench_json`] (and appended to by [`merge_bench_json`]) back into
/// records — the line-based inverse the `bench_check` regression gate uses.
/// Lines that do not look like entries are skipped.
pub fn parse_bench_json(text: &str) -> Vec<BenchRecord> {
    text.lines()
        .filter_map(|line| {
            let matrix = json_str_field(line, "matrix")?;
            Some(BenchRecord {
                matrix,
                source: json_str_field(line, "source")?,
                source_fingerprint: json_str_field(line, "source_fp").unwrap_or_default(),
                target: json_str_field(line, "target")?,
                target_fingerprint: json_str_field(line, "target_fp").unwrap_or_default(),
                threads: json_num_field(line, "threads")?.parse().ok()?,
                scale: json_num_field(line, "scale")?.parse().ok()?,
                // Documents written before the throughput fields existed
                // parse with zeros, so the gate's key space is unchanged.
                nnz: json_num_field(line, "nnz")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                median_ns: json_num_field(line, "median_ns")?.parse().ok()?,
                throughput_mnnz_s: json_num_field(line, "throughput_mnnz_s")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
                route: json_str_field(line, "route").unwrap_or_default(),
            })
        })
        .collect()
}

/// Geometric mean of a slice (NaN when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_inputs() -> BenchInputs {
        let spec = table2()[3].clone(); // chem_master1 (banded, non-symmetric)
        BenchInputs::build(&spec, 0.01)
    }

    #[test]
    fn every_reported_cell_runs_and_agrees_across_implementations() {
        let inputs = small_inputs();
        for conversion in Conversion::all() {
            if !conversion.reported_for(&inputs.spec) {
                continue;
            }
            let mut outputs = Vec::new();
            for implementation in [Impl::Generated, Impl::Sparskit, Impl::Mkl, Impl::TacoNoExt] {
                if implementation.supports(conversion) {
                    outputs.push(run_conversion(&inputs, conversion, implementation));
                }
            }
            assert!(
                outputs.windows(2).all(|w| w[0] == w[1]),
                "{}: {outputs:?}",
                conversion.label()
            );
        }
    }

    #[test]
    fn support_matrix_matches_table3_columns() {
        assert!(Impl::Mkl.supports(Conversion::CsrDia));
        assert!(!Impl::Mkl.supports(Conversion::CsrEll));
        assert!(!Impl::TacoNoExt.supports(Conversion::CsrCsc));
        assert!(Impl::TacoNoExt.supports(Conversion::CooCsr));
        assert_eq!(Conversion::all().len(), 7);
        assert_eq!(Impl::Generated.label(), "taco w/ ext.");
    }

    #[test]
    fn median_time_and_geomean_helpers() {
        let d = median_time(3, || 1usize);
        assert!(d.as_nanos() > 0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert_eq!(env_usize("THIS_VARIABLE_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("THIS_VARIABLE_DOES_NOT_EXIST", 0.5), 0.5);
    }

    #[test]
    fn suite_limit() {
        assert_eq!(suite(Some(3)).len(), 3);
        assert_eq!(suite(None).len(), 21);
        assert_eq!(largest_spec().name, "pwtk");
    }

    #[test]
    fn bench_json_parses_back_to_its_records() {
        let records = vec![
            BenchRecord::for_pair("cant", &Format::coo(), &Format::csr(), 2000, 1, 0.05, 12345)
                .with_route("multi-hop"),
            BenchRecord::for_pair("pwtk", &Format::csr(), &Format::csc(), 500, 4, 0.05, 6789),
        ];
        let json = render_bench_json(0.05, 3, &records);
        let parsed = parse_bench_json(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].matrix, "cant");
        assert_eq!(parsed[0].median_ns, 12345);
        assert_eq!(parsed[0].nnz, 2000);
        assert_eq!(parsed[0].route, "multi-hop");
        assert_eq!(parsed[1].route, "");
        assert!((parsed[0].throughput_mnnz_s - 2000.0 * 1000.0 / 12345.0).abs() < 1e-3);
        assert_eq!(parsed[1].threads, 4);
        assert_eq!(parsed[1].source, "CSR");
        assert_eq!(parsed[1].scale, 0.05);
        assert!(parse_bench_json("not json at all").is_empty());
        // Rows from documents that predate the throughput fields still parse.
        let legacy = "    {\"matrix\": \"cant\", \"source\": \"COO\", \"source_fp\": \"\", \
                      \"target\": \"CSR\", \"target_fp\": \"\", \
                      \"threads\": 1, \"scale\": 0.05, \"median_ns\": 42}";
        let parsed = parse_bench_json(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].nnz, 0);
        assert_eq!(parsed[0].throughput_mnnz_s, 0.0);
        assert_eq!(parsed[0].median_ns, 42);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let records = vec![
            BenchRecord::for_pair("cant", &Format::coo(), &Format::csr(), 2000, 1, 0.05, 12345),
            BenchRecord::for_pair("cant", &Format::coo(), &Format::csr(), 2000, 4, 0.05, 6789),
        ];
        let json = render_bench_json(0.05, 3, &records);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"median_ns\"").count(), 2);
        assert_eq!(json.matches("\"throughput_mnnz_s\"").count(), 2);
        assert!(json.contains("\"nnz\": 2000"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"scale\": 0.05"));
        // Every row records the spec fingerprints next to the names.
        assert_eq!(json.matches("\"source_fp\"").count(), 2);
        let expected_fp = format!("{:016x}", Format::csr().fingerprint());
        assert!(json.contains(&expected_fp), "{json}");
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn merge_appends_entries_to_an_existing_document() {
        let first = vec![BenchRecord::for_pair(
            "cant",
            &Format::coo(),
            &Format::csr(),
            2000,
            1,
            0.02,
            12345,
        )];
        let second = vec![BenchRecord::for_pair(
            "uniform3d",
            &Format::coo3(),
            &Format::csf(),
            5000,
            4,
            0.1,
            999,
        )];
        let base = render_bench_json(0.05, 3, &first);
        let merged = merge_bench_json(&base, &second).unwrap();
        assert_eq!(merged.matches("\"median_ns\"").count(), 2);
        assert!(merged.contains("\"target\": \"CSF\""));
        assert!(!merged.contains(",\n  ]"));
        assert!(merged.trim_end().ends_with('}'));
        // The first entry gained its separating comma exactly once (entry
        // lines end with the route field).
        assert_eq!(merged.matches("\"route\": \"\"},").count(), 1);
        // Merging into an empty entry list also works.
        let empty = render_bench_json(0.05, 3, &[]);
        let merged = merge_bench_json(&empty, &second).unwrap();
        assert_eq!(merged.matches("\"median_ns\"").count(), 1);
        // Merging zero records is the identity on the entries.
        let same = merge_bench_json(&base, &[]).unwrap();
        assert_eq!(same.matches("\"median_ns\"").count(), 1);
        // Garbage documents are rejected.
        assert!(merge_bench_json("not json", &second).is_none());
    }
}
