//! Shared code for `convprof` and the cross-implementation agreement test:
//! the Table 3 conversion/implementation matrix, its inputs, and the
//! environment/CLI readers.

use conv_runtime::RoutingPolicy;
use conv_workloads::MatrixSpec;
use sparse_conv::engine;
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
        (Conversion::CooCsr, Impl::Generated) => engine::to_csr(&inputs.coo, 1)
            .expect("one chunk runs inline")
            .nnz(),
        (Conversion::CooCsr, Impl::Sparskit) => sparskit::coo_to_csr(&inputs.coo).nnz(),
        (Conversion::CooCsr, Impl::Mkl) => mkl::coo_to_csr(&inputs.coo).nnz(),
        (Conversion::CooCsr, Impl::TacoNoExt) => taco_noext::coo_to_csr(&inputs.coo).nnz(),

        (Conversion::CooDia, Impl::Generated) => engine::to_dia(&inputs.coo)
            .expect("DIA conversion")
            .num_diagonals(),
        (Conversion::CooDia, Impl::Sparskit) => sparskit::coo_to_dia(&inputs.coo).num_diagonals(),
        (Conversion::CooDia, Impl::Mkl) => mkl::coo_to_dia(&inputs.coo).num_diagonals(),

        (Conversion::CsrCsc, Impl::Generated) => engine::to_csc(&inputs.csr, 1)
            .expect("one chunk runs inline")
            .nnz(),
        (Conversion::CsrCsc, Impl::Sparskit) => sparskit::csr_to_csc(&inputs.csr).nnz(),
        (Conversion::CsrCsc, Impl::Mkl) => mkl::csr_to_csc(&inputs.csr).nnz(),

        (Conversion::CsrDia, Impl::Generated) => engine::to_dia(&inputs.csr)
            .expect("DIA conversion")
            .num_diagonals(),
        (Conversion::CsrDia, Impl::Sparskit) => sparskit::csr_to_dia(&inputs.csr).num_diagonals(),
        (Conversion::CsrDia, Impl::Mkl) => mkl::csr_to_dia(&inputs.csr).num_diagonals(),

        (Conversion::CsrEll, Impl::Generated) => engine::to_ell(&inputs.csr)
            .expect("ELL conversion")
            .slices(),
        (Conversion::CsrEll, Impl::Sparskit) => sparskit::csr_to_ell(&inputs.csr).slices(),

        (Conversion::CscDia, Impl::Generated) => engine::to_dia(&inputs.csc)
            .expect("DIA conversion")
            .num_diagonals(),
        (Conversion::CscDia, Impl::Sparskit) => sparskit::csc_to_dia(&inputs.csc).num_diagonals(),
        (Conversion::CscDia, Impl::Mkl) => mkl::csc_to_dia(&inputs.csc).num_diagonals(),

        (Conversion::CscEll, Impl::Generated) => engine::to_ell(&inputs.csc)
            .expect("ELL conversion")
            .slices(),
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

/// An environment variable's raw value, `None` when unset.
type RawSetting = Option<std::ffi::OsString>;

/// Parses one environment setting: `default` when unset, the parsed value
/// when it satisfies `valid`, otherwise an error naming the variable (a
/// silently ignored typo would measure something other than what was asked).
fn parse_setting<T: std::str::FromStr>(
    name: &str,
    raw: RawSetting,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    raw.to_str()
        .and_then(|text| text.parse().ok())
        .filter(valid)
        .ok_or_else(|| format!("{name}={raw:?}: expected {expected}"))
}

fn scale_setting(name: &str, raw: RawSetting, default: f64, max: f64) -> Result<f64, String> {
    let expected = if max.is_finite() {
        format!("a number in (0, {max}]")
    } else {
        "a positive number".to_string()
    };
    parse_setting(name, raw, default, &expected, |v| {
        *v > 0.0 && *v <= max && v.is_finite()
    })
}

fn count_setting(name: &str, raw: RawSetting, default: usize, min: usize) -> Result<usize, String> {
    let expected = format!("an integer >= {min}");
    parse_setting(name, raw, default, &expected, |v| *v >= min)
}

fn or_exit<T>(setting: Result<T, String>) -> T {
    setting.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Reads an environment variable as a finite `f64` in `(0, max]` (a scale
/// factor: `max` is infinite for `PROF_SCALE`; a scale of the Table 2 suite
/// would pass 1), with a default when unset. A
/// malformed or out-of-range value prints an error naming the variable and
/// exits with status 2.
pub fn env_f64(name: &str, default: f64, max: f64) -> f64 {
    or_exit(scale_setting(name, std::env::var_os(name), default, max))
}

/// Reads an environment variable as a `usize` no smaller than `min` (1 for
/// thread counts, 0 for seeds), with a default when unset. A malformed or
/// too-small value prints an error naming the variable and exits with
/// status 2.
pub fn env_usize(name: &str, default: usize, min: usize) -> usize {
    or_exit(count_setting(name, std::env::var_os(name), default, min))
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

#[cfg(test)]
mod tests {
    use super::*;
    use conv_workloads::table2;

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
    fn env_settings_default_when_unset_and_reject_garbage() {
        let scale_to = |raw: Option<&str>, max| scale_setting("S", raw.map(Into::into), 0.5, max);
        let scale = |raw| scale_to(raw, f64::INFINITY);
        assert_eq!(scale(None), Ok(0.5));
        assert_eq!(scale(Some("0.25")), Ok(0.25));
        for bad in ["", "abc", "0", "-1", "NaN", "inf", "0.1x"] {
            let err = scale(Some(bad)).unwrap_err();
            assert!(err.contains("S=") && err.contains(bad), "{err}");
        }
        // A bounded scale (a Table 2 scale, which `conv_workloads` asserts is
        // in (0, 1]) rejects what an unbounded one (PROF_SCALE) accepts.
        assert_eq!(scale(Some("1.5")), Ok(1.5));
        assert_eq!(scale_to(Some("1"), 1.0), Ok(1.0));
        let err = scale_to(Some("1.5"), 1.0).unwrap_err();
        assert_eq!(err, "S=\"1.5\": expected a number in (0, 1]");
        let count = |raw: Option<&str>, min| count_setting("N", raw.map(Into::into), 7, min);
        assert_eq!(count(None, 1), Ok(7));
        assert_eq!(count(Some("3"), 1), Ok(3));
        assert!(count(Some("0"), 1).is_err(), "zero threads");
        assert_eq!(count(Some("0"), 0), Ok(0), "a zero seed is valid");
        assert!(count(Some("four"), 0).unwrap_err().contains("N="));
        assert!(count(Some("-2"), 0).is_err());
    }
}
