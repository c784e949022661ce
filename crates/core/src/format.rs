//! Spec-first format handles and the format registry.
//!
//! The paper's central abstraction is that a sparse format *is* its
//! specification: a coordinate remapping plus a per-dimension level
//! composition (Section 3). [`Format`] makes that the unit of identity for
//! the whole public API: a cheap, cloneable handle to an interned
//! [`FormatSpec`] whose equality is the spec *fingerprint* — not membership
//! in a closed enum. `Format` is the one way to name a format. Stock formats
//! are the rows of the [stock table](crate::stock), preset in the global
//! [`FormatRegistry`] (`Format::csr()`, `Format::csf()`, ...); user formats
//! are built with [`Format::builder`] and become first-class citizens of the
//! same registry: they convert in both directions, parse back from their
//! registered name or spec string ([`std::str::FromStr`]), and key plan
//! caches exactly like the stock set.
//!
//! # Spec strings
//!
//! [`FromStr`](std::str::FromStr) accepts, in order: a stock name or alias
//! from the stock table (`"CSR"`, `"skyline"`, `"BCSR2x2"`), a registered
//! custom format's name, or a full four-field spec string
//! `NAME:REMAP:DIMS:LEVELS`:
//!
//! ```text
//! DCSR:(i,j)->(i,j):i,j:compressed,compressed
//! ```
//!
//! which names the format, gives its coordinate remapping (Section 4
//! notation), the remapped dimension names, and one level kind per remapped
//! dimension. Parsing a spec string interns the format, so bench binaries
//! can select *user-defined* formats from the command line.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::ConvertError;
use crate::levels::LevelKind;
use crate::remap::Remapping;
use crate::spec::FormatSpec;
use crate::stock::{self, FormatId, StockFormat, STOCK};

/// Fingerprint of a stock entry without a coordinate-hierarchy specification
/// (DOK, a conversion source only): it still needs a stable registry
/// identity so `AnyTensor::format()` is total.
fn source_only_fingerprint(name: &str) -> u64 {
    // FNV-1a over a tag no rendered spec can produce (spec fingerprints
    // separate fields with 0xff, and this tag is hashed as a single run).
    let mut h = 0xcbf29ce484222325u64;
    for b in format!("__{}_source_only__", name.to_ascii_lowercase()).bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

#[derive(Debug)]
struct FormatInner {
    /// Registry name (unique; `Display` form).
    name: String,
    /// The stock tag and its table row, when this entry is a stock preset. A
    /// `OnceLock` so a custom-interned entry can be *upgraded* in place when
    /// the same spec later arrives through a stock constructor (the upgrade
    /// is visible through every outstanding handle of the entry).
    stock: OnceLock<(FormatId, &'static StockFormat)>,
    /// The interned specification; `None` only for DOK.
    spec: Option<FormatSpec>,
    /// The spec fingerprint (identity).
    fingerprint: u64,
}

/// A cheap, cloneable handle to an interned format specification.
///
/// Equality, ordering into hash maps, and plan-cache keys all use the spec
/// [fingerprint](FormatSpec::fingerprint): two independently built handles
/// over equal specs are the *same* format (and in fact the same registry
/// entry — interning deduplicates). `Display` prints the registered name and
/// [`FromStr`](std::str::FromStr) parses it back, for stock and custom
/// formats alike.
#[derive(Clone)]
pub struct Format {
    inner: Arc<FormatInner>,
}

impl Format {
    /// The handle of a stock tag. Each row's own preset is memoised in the
    /// registry, so this is an `Arc` clone on the hot path
    /// (`AnyTensor::format()` calls it per conversion); only BCSR shapes
    /// other than the row's sample go through the registry lock.
    pub(crate) fn stock(tag: FormatId) -> Format {
        let registry = FormatRegistry::global();
        let index = tag.row_index();
        if STOCK[index].tag == tag {
            registry.presets[index].clone()
        } else {
            registry.stock(tag)
        }
    }

    /// Coordinate format.
    pub fn coo() -> Format {
        Format::stock(FormatId::Coo)
    }

    /// Compressed sparse row.
    pub fn csr() -> Format {
        Format::stock(FormatId::Csr)
    }

    /// Compressed sparse column.
    pub fn csc() -> Format {
        Format::stock(FormatId::Csc)
    }

    /// Diagonal format.
    pub fn dia() -> Format {
        Format::stock(FormatId::Dia)
    }

    /// ELLPACK format.
    pub fn ell() -> Format {
        Format::stock(FormatId::Ell)
    }

    /// Blocked CSR with the given block shape.
    pub fn bcsr(block_rows: usize, block_cols: usize) -> Format {
        Format::stock(FormatId::Bcsr {
            block_rows,
            block_cols,
        })
    }

    /// Skyline (lower-triangle profile) format.
    pub fn skyline() -> Format {
        Format::stock(FormatId::Skyline)
    }

    /// Jagged diagonal format.
    pub fn jad() -> Format {
        Format::stock(FormatId::Jad)
    }

    /// Dictionary of keys (conversion source only; has no spec).
    pub fn dok() -> Format {
        Format::stock(FormatId::Dok)
    }

    /// Order-3 coordinate format.
    pub fn coo3() -> Format {
        Format::stock(FormatId::Coo3)
    }

    /// Compressed sparse fiber.
    pub fn csf() -> Format {
        Format::stock(FormatId::Csf)
    }

    /// Compressed sparse fiber along an explicit mode order: storage level
    /// `d` holds canonical mode `mode_order[d]`, so `&[2, 0, 1]` stores mode
    /// `k` outermost. The format registers under the `CSF@2,0,1` naming
    /// scheme (which [`FromStr`](std::str::FromStr) parses back); the
    /// canonical order-3 identity resolves to the stock [`Format::csf`]
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when `mode_order` is not a
    /// permutation of `0..mode_order.len()`.
    pub fn csf_ordered(mode_order: &[usize]) -> Result<Format, ConvertError> {
        let n = mode_order.len();
        if !crate::remap::is_permutation(mode_order) {
            return Err(ConvertError::UnsupportedSpec {
                reason: format!("CSF mode order {mode_order:?} is not a permutation of 0..{n}"),
            });
        }
        if n == 3 && mode_order == [0, 1, 2] {
            return Ok(Format::csf());
        }
        let names = crate::remap::ast::canonical_names(n);
        let spec = FormatSpec::new(
            &crate::mode::csf_ordered_name(mode_order),
            Remapping::mode_permutation(mode_order),
            mode_order.iter().map(|&m| names[m].as_str()).collect(),
            vec![LevelKind::Compressed; n],
        );
        Format::from_spec(spec)
    }

    /// The CSF mode order when this format stores a tensor as a fiber tree
    /// along a pure mode permutation (every level compressed); `None` for
    /// every other format. The stock [`Format::csf`] reports the identity
    /// order.
    pub fn mode_order(&self) -> Option<Vec<usize>> {
        self.spec().and_then(crate::mode::mode_order_of)
    }

    /// Starts building a user-defined format named `name`; see
    /// [`FormatBuilder`].
    pub fn builder(name: &str) -> FormatBuilder {
        FormatBuilder::new(name)
    }

    /// Interns an explicit specification and returns its handle (the
    /// existing handle when an equal spec was interned before).
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when the spec fails
    /// [`FormatSpec::validate`].
    pub fn from_spec(spec: FormatSpec) -> Result<Format, ConvertError> {
        spec.validate()?;
        Ok(FormatRegistry::global().intern(spec))
    }

    /// Interns a specification that is already known to assemble (e.g. the
    /// spec carried by an assembled `CustomTensor`), skipping re-validation.
    /// The spec is only cloned when its fingerprint is not registered yet.
    pub(crate) fn intern_spec(spec: &FormatSpec) -> Format {
        let registry = FormatRegistry::global();
        if let Some(existing) = registry.get_by_fingerprint(spec.fingerprint()) {
            return existing;
        }
        registry.intern(spec.clone())
    }

    /// The registered (display) name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The format's row in the [stock table](crate::stock), when it is a
    /// stock preset; `None` for builder-made formats.
    pub fn id(&self) -> Option<&'static StockFormat> {
        self.inner.stock.get().map(|(_, row)| *row)
    }

    /// The stock tag, when this format is a stock preset.
    pub(crate) fn tag(&self) -> Option<FormatId> {
        self.inner.stock.get().map(|(tag, _)| *tag)
    }

    /// The format's specification; `None` only for DOK, which has no
    /// coordinate hierarchy and is supported only as a conversion source.
    pub fn spec(&self) -> Option<&FormatSpec> {
        self.inner.spec.as_ref()
    }

    /// The spec fingerprint this handle's identity rests on.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }

    /// Order of the canonical tensors the format stores (2 for matrix
    /// formats, 3 for the stock tensor formats; DOK stores matrices).
    pub fn order(&self) -> usize {
        self.spec().map_or(2, FormatSpec::source_order)
    }

    /// True when both handles point at the same registry entry (interning
    /// makes this equivalent to fingerprint equality for handles obtained
    /// from the registry).
    pub fn same_entry(&self, other: &Format) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Format")
            .field("name", &self.inner.name)
            .field("id", &self.tag())
            .field("fingerprint", &self.inner.fingerprint)
            .finish()
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.inner.name)
    }
}

impl PartialEq for Format {
    fn eq(&self, other: &Self) -> bool {
        self.inner.fingerprint == other.inner.fingerprint
    }
}

impl Eq for Format {}

impl Hash for Format {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.fingerprint.hash(state);
    }
}

impl From<&Format> for Format {
    fn from(f: &Format) -> Format {
        f.clone()
    }
}

/// Error returned when a string resolves to no [`Format`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError(String);

impl fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown format `{}`: not a stock name (COO, CSR, ..., \
             BCSR<rows>x<cols>), not a registered custom format, and not a \
             spec string `NAME:REMAP:DIMS:LEVELS` (e.g. \
             `DCSR:(i,j)->(i,j):i,j:compressed,compressed`)",
            self.0
        )
    }
}

impl std::error::Error for ParseFormatError {}

impl std::str::FromStr for Format {
    type Err = ParseFormatError;

    /// Resolves a stock name, a registered custom format name, or a full
    /// spec string (which interns the format); see the module docs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(tag) = stock::parse(s) {
            return Ok(Format::stock(tag));
        }
        // The `CSF@...` spelling is reserved: it resolves through
        // `csf_ordered` (collapsing the identity order to stock CSF) even
        // when a format with that literal name was interned, so parsing is
        // deterministic regardless of registry state.
        if let Some(order) = crate::mode::parse_csf_ordered_name(s) {
            return Format::csf_ordered(&order).map_err(|detail| {
                ParseFormatError(format!("{s} (mode-ordered CSF rejected: {detail})"))
            });
        }
        if let Some(found) = FormatRegistry::global().get(s) {
            return Ok(found);
        }
        if s.contains(':') {
            return parse_spec_string(s).map_err(|detail| {
                ParseFormatError(format!("{s} (spec string rejected: {detail})"))
            });
        }
        Err(ParseFormatError(s.to_string()))
    }
}

fn parse_spec_string(s: &str) -> Result<Format, String> {
    let fields: Vec<&str> = s.split(':').collect();
    let [name, remap, dims, levels] = fields.as_slice() else {
        return Err(format!(
            "expected 4 `:`-separated fields (NAME:REMAP:DIMS:LEVELS), got {}",
            fields.len()
        ));
    };
    if name.trim().is_empty() {
        return Err("empty format name".to_string());
    }
    let mut builder = Format::builder(name.trim())
        .remap_str(remap)
        .map_err(|e| e.to_string())?;
    for dim in dims.split(',') {
        builder = builder.dim(dim.trim());
    }
    for level in levels.split(',') {
        let kind: LevelKind = level.parse().map_err(|e| format!("{e}"))?;
        builder = builder.level(kind);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Composes a user-defined [`Format`]: a coordinate remapping, the remapped
/// dimension names, and one level kind per remapped dimension (Section 3's
/// complete format specification). `build` validates the composition and
/// interns it in the global [`FormatRegistry`].
///
/// ```
/// use sparse_conv::prelude::*;
///
/// let dcsr = Format::builder("DCSR-doc")
///     .remap_str("(i,j) -> (i,j)")?
///     .dims(["i", "j"])
///     .levels([LevelKind::Compressed, LevelKind::Compressed])
///     .build()?;
/// assert_eq!(dcsr.name(), "DCSR-doc");
/// assert!(dcsr.id().is_none(), "not a stock preset");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FormatBuilder {
    name: String,
    remapping: Option<Remapping>,
    dims: Vec<String>,
    levels: Vec<LevelKind>,
}

impl FormatBuilder {
    fn new(name: &str) -> Self {
        FormatBuilder {
            name: name.to_string(),
            remapping: None,
            dims: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// Sets the coordinate remapping.
    pub fn remapping(mut self, remapping: Remapping) -> Self {
        self.remapping = Some(remapping);
        self
    }

    /// Parses and sets the coordinate remapping from Section 4 notation.
    ///
    /// # Errors
    ///
    /// Propagates the remapping parser's error.
    pub fn remap_str(self, s: &str) -> Result<Self, crate::remap::RemapError> {
        Ok(self.remapping(crate::remap::parse_remapping(s)?))
    }

    /// Appends one remapped dimension name (outer to inner).
    pub fn dim(mut self, name: &str) -> Self {
        self.dims.push(name.to_string());
        self
    }

    /// Sets all remapped dimension names at once (outer to inner).
    pub fn dims<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.dims = names.into_iter().map(str::to_string).collect();
        self
    }

    /// Appends one level kind (outer to inner).
    pub fn level(mut self, kind: LevelKind) -> Self {
        self.levels.push(kind);
        self
    }

    /// Sets all level kinds at once (outer to inner).
    pub fn levels(mut self, kinds: impl IntoIterator<Item = LevelKind>) -> Self {
        self.levels = kinds.into_iter().collect();
        self
    }

    /// Validates the composition and interns the format.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when the remapping is
    /// missing, the dimension or level counts do not match the remapping's
    /// destination order, or the level composition fails
    /// [`FormatSpec::validate`].
    pub fn build(self) -> Result<Format, ConvertError> {
        let reject = |reason: String| Err(ConvertError::UnsupportedSpec { reason });
        let Some(remapping) = self.remapping else {
            return reject(format!(
                "format {}: no coordinate remapping given",
                self.name
            ));
        };
        if self.dims.len() != remapping.dest_order() {
            return reject(format!(
                "format {}: {} dimension name(s) for a remapping of \
                 destination order {}",
                self.name,
                self.dims.len(),
                remapping.dest_order()
            ));
        }
        if self.levels.len() != remapping.dest_order() {
            return reject(format!(
                "format {}: {} level kind(s) for a remapping of destination \
                 order {}",
                self.name,
                self.levels.len(),
                remapping.dest_order()
            ));
        }
        let spec = FormatSpec::new(
            &self.name,
            remapping,
            self.dims.iter().map(String::as_str).collect(),
            self.levels,
        );
        Format::from_spec(spec)
    }
}

struct RegistryInner {
    by_fingerprint: HashMap<u64, Format>,
    by_name: HashMap<String, u64>,
}

/// The process-wide intern table of format specifications.
///
/// Every [`Format`] handle points into this registry: interning deduplicates
/// by spec fingerprint, and each entry gets a stable unique name (the spec's
/// own name, suffixed with a fingerprint prefix on collision) so
/// `Display`/`FromStr` round-trip for custom formats exactly like stock
/// ones. The [stock table](crate::stock)'s rows are registered eagerly under
/// their table names.
pub struct FormatRegistry {
    inner: Mutex<RegistryInner>,
    /// The handle of each [`STOCK`] row, in table order.
    presets: Vec<Format>,
}

impl FormatRegistry {
    /// The global registry.
    pub fn global() -> &'static FormatRegistry {
        static REGISTRY: OnceLock<FormatRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut registry = FormatRegistry {
                inner: Mutex::new(RegistryInner {
                    by_fingerprint: HashMap::new(),
                    by_name: HashMap::new(),
                }),
                presets: Vec::new(),
            };
            // Register every stock row eagerly so builder specs that happen
            // to equal one resolve to the stock entry (and its engine fast
            // path) from the start. BCSR's other block shapes are unbounded
            // and intern lazily.
            registry.presets = STOCK.iter().map(|row| registry.stock(row.tag)).collect();
            registry
        })
    }

    /// The handle of a stock tag, registering it on first use.
    fn stock(&self, tag: FormatId) -> Format {
        let (name, spec) = (tag.name(), tag.spec());
        let fingerprint = spec
            .as_ref()
            .map_or_else(|| source_only_fingerprint(&name), FormatSpec::fingerprint);
        let mut inner = self.inner.lock().unwrap();
        Self::entry(&mut inner, fingerprint, spec, Some(tag), &name)
    }

    /// Interns a specification, returning the existing handle when an equal
    /// spec (same fingerprint) is already registered.
    fn intern(&self, spec: FormatSpec) -> Format {
        let fingerprint = spec.fingerprint();
        let name = spec.name.clone();
        let mut inner = self.inner.lock().unwrap();
        Self::entry(&mut inner, fingerprint, Some(spec), None, &name)
    }

    fn entry(
        inner: &mut RegistryInner,
        fingerprint: u64,
        spec: Option<FormatSpec>,
        tag: Option<FormatId>,
        preferred_name: &str,
    ) -> Format {
        let format = match inner.by_fingerprint.get(&fingerprint) {
            Some(existing) => existing.clone(),
            None => {
                // Pick a stable unique name: the preferred name, or — when
                // another fingerprint already claimed it — the name suffixed
                // with this fingerprint's leading hex digits.
                let name = match inner.by_name.get(preferred_name) {
                    Some(&fp) if fp != fingerprint => {
                        format!("{preferred_name}#{:08x}", (fingerprint >> 32) as u32)
                    }
                    _ => preferred_name.to_string(),
                };
                let format = Format {
                    inner: Arc::new(FormatInner {
                        name: name.clone(),
                        stock: OnceLock::new(),
                        spec,
                        fingerprint,
                    }),
                };
                inner.by_fingerprint.insert(fingerprint, format.clone());
                inner.by_name.insert(name, fingerprint);
                format
            }
        };
        // Also the upgrade: when the same spec arrives through a stock
        // constructor after being interned as a custom format, the tag is
        // attached in place — every outstanding handle of the entry sees it
        // (the name stays as first published).
        if let Some(tag) = tag {
            let _ = format.inner.stock.set((tag, tag.row()));
        }
        format
    }

    /// Looks a format up by its registered name.
    pub fn get(&self, name: &str) -> Option<Format> {
        let inner = self.inner.lock().unwrap();
        let fp = inner.by_name.get(name)?;
        inner.by_fingerprint.get(fp).cloned()
    }

    /// Looks a format up by its spec fingerprint.
    pub fn get_by_fingerprint(&self, fingerprint: u64) -> Option<Format> {
        self.inner
            .lock()
            .unwrap()
            .by_fingerprint
            .get(&fingerprint)
            .cloned()
    }

    /// Number of registered formats.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().by_fingerprint.len()
    }

    /// True when nothing is registered (never the case for the global
    /// registry, which pre-registers the stock presets).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registered names, sorted (stock presets included).
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut names: Vec<String> = inner.by_name.keys().cloned().collect();
        names.sort();
        names
    }
}

impl fmt::Debug for FormatRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FormatRegistry")
            .field("formats", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_handles_compare_to_their_ids() {
        assert_eq!(Format::csr(), Format::stock(FormatId::Csr));
        assert_ne!(Format::csr(), Format::csc());
        assert_eq!(Format::csr().id().unwrap().name, "CSR");
        // Every block shape is a BCSR-row format of its own.
        assert_eq!(Format::bcsr(2, 3).id().unwrap().name, "BCSR");
        assert_ne!(Format::bcsr(2, 3), Format::bcsr(2, 2));
        assert!(Format::bcsr(2, 2).same_entry(&Format::bcsr(2, 2)));
        assert_eq!(Format::csr().to_string(), "CSR");
        assert_eq!(Format::bcsr(2, 3).to_string(), "BCSR2x3");
        assert_eq!(Format::csr().order(), 2);
        assert_eq!(Format::csf().order(), 3);
        assert!(Format::csr().spec().is_some());
    }

    #[test]
    fn dok_has_a_handle_but_no_spec() {
        let dok = Format::dok();
        assert_eq!(dok.tag(), Some(FormatId::Dok));
        assert!(dok.spec().is_none());
        assert_eq!(dok.to_string(), "DOK");
        assert_eq!("DOK".parse::<Format>().unwrap(), dok);
        assert_ne!(dok, Format::coo());
    }

    #[test]
    fn equal_builder_specs_intern_to_the_same_entry() {
        let build = || {
            Format::builder("REG-TEST-DCSR")
                .remap_str("(i,j) -> (i,j)")
                .unwrap()
                .dims(["i", "j"])
                .levels([LevelKind::Compressed, LevelKind::Compressed])
                .build()
                .unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.same_entry(&b), "interning deduplicates");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.id().is_none());
        // Display/FromStr round-trips through the registry.
        let parsed: Format = a.to_string().parse().unwrap();
        assert!(parsed.same_entry(&a));
    }

    #[test]
    fn builder_spec_equal_to_a_stock_preset_is_the_stock_entry() {
        // CSR's stock spec, rebuilt by hand: same fingerprint, so the
        // registry hands back the stock entry with its id and fast path.
        let rebuilt = Format::builder("CSR")
            .remapping(Remapping::identity(2))
            .dims(["i", "j"])
            .levels([LevelKind::Dense, LevelKind::Compressed])
            .build()
            .unwrap();
        assert!(rebuilt.same_entry(&Format::csr()));
        assert_eq!(rebuilt.tag(), Some(FormatId::Csr));
    }

    #[test]
    fn name_collisions_get_fingerprint_suffixes() {
        let first = Format::builder("REG-TEST-COLLIDE")
            .remap_str("(i,j) -> (i,j)")
            .unwrap()
            .dims(["i", "j"])
            .levels([LevelKind::Dense, LevelKind::Hashed])
            .build()
            .unwrap();
        let second = Format::builder("REG-TEST-COLLIDE")
            .remap_str("(i,j) -> (j,i)")
            .unwrap()
            .dims(["j", "i"])
            .levels([LevelKind::Dense, LevelKind::Hashed])
            .build()
            .unwrap();
        assert_ne!(first, second);
        assert_eq!(first.to_string(), "REG-TEST-COLLIDE");
        assert!(second.to_string().starts_with("REG-TEST-COLLIDE#"));
        // Both names resolve back to their own entries.
        let p1: Format = first.to_string().parse().unwrap();
        let p2: Format = second.to_string().parse().unwrap();
        assert!(p1.same_entry(&first));
        assert!(p2.same_entry(&second));
    }

    #[test]
    fn spec_strings_parse_and_intern() {
        let parsed: Format = "REG-TEST-SPECSTR:(i,j)->(j,i):jj,ii:dense,compressed"
            .parse()
            .unwrap();
        assert_eq!(parsed.name(), "REG-TEST-SPECSTR");
        let spec = parsed.spec().unwrap();
        assert_eq!(spec.dim_names, vec!["jj", "ii"]);
        assert_eq!(spec.levels, vec![LevelKind::Dense, LevelKind::Compressed]);
        // Parsing the registered name afterwards resolves the same entry.
        let by_name: Format = "REG-TEST-SPECSTR".parse().unwrap();
        assert!(by_name.same_entry(&parsed));
        // Malformed spec strings report what went wrong.
        let err = "X:(i,j)->(i,j):i,j:dense".parse::<Format>().unwrap_err();
        assert!(err.to_string().contains("level"), "{err}");
        let err = "X:(i,j)->(i,j):i:j:dense,dense"
            .parse::<Format>()
            .unwrap_err();
        assert!(err.to_string().contains("4"), "{err}");
        assert!("NOSUCHFMT".parse::<Format>().is_err());
    }

    #[test]
    fn builder_rejects_incomplete_and_invalid_compositions() {
        let no_remap = Format::builder("REG-TEST-EMPTY").build();
        assert!(matches!(
            no_remap,
            Err(ConvertError::UnsupportedSpec { .. })
        ));
        let wrong_dims = Format::builder("REG-TEST-DIMS")
            .remap_str("(i,j) -> (i,j)")
            .unwrap()
            .dim("i")
            .levels([LevelKind::Dense, LevelKind::Compressed])
            .build();
        assert!(matches!(
            wrong_dims,
            Err(ConvertError::UnsupportedSpec { .. })
        ));
        let banded_root = Format::builder("REG-TEST-BANDROOT")
            .remap_str("(i,j) -> (i,j)")
            .unwrap()
            .dims(["i", "j"])
            .levels([LevelKind::Banded, LevelKind::Dense])
            .build();
        assert!(matches!(
            banded_root,
            Err(ConvertError::UnsupportedSpec { .. })
        ));
    }

    #[test]
    fn registry_lists_names() {
        let names = FormatRegistry::global().names();
        assert!(names.iter().any(|n| n == "CSR"));
        assert!(names.iter().any(|n| n == "DOK"));
        assert!(!FormatRegistry::global().is_empty());
        assert!(FormatRegistry::global().len() >= 10);
        let dbg = format!("{:?}", FormatRegistry::global());
        assert!(dbg.contains("FormatRegistry"));
    }
}
