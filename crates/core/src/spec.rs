//! Per-format specifications.
//!
//! A [`FormatSpec`] is everything a user must provide to add a new target
//! format (Section 3): a coordinate remapping describing how the format
//! groups and orders nonzeros, and the level format of each remapped
//! dimension (which in turn determines the attribute queries to compute and
//! the assembly level functions to call). One spec per format suffices to
//! convert both *to* and *from* every other supported format.

use crate::error::ConvertError;
use crate::levels::LevelKind;
use crate::query::AttrQuery;
use crate::remap::Remapping;

/// The specification of one tensor format.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatSpec {
    /// Human-readable format name.
    pub name: String,
    /// The coordinate remapping from canonical matrix coordinates to the
    /// format's storage order (Section 4).
    pub remapping: Remapping,
    /// Names of the remapped dimensions, in storage (outer-to-inner) order.
    pub dim_names: Vec<String>,
    /// The level format storing each remapped dimension.
    pub levels: Vec<LevelKind>,
}

impl FormatSpec {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics if the number of dimension names or levels does not match the
    /// remapping's destination order.
    pub fn new(
        name: &str,
        remapping: Remapping,
        dim_names: Vec<&str>,
        levels: Vec<LevelKind>,
    ) -> Self {
        assert_eq!(
            dim_names.len(),
            remapping.dest_order(),
            "one name per remapped dimension"
        );
        assert_eq!(
            levels.len(),
            remapping.dest_order(),
            "one level per remapped dimension"
        );
        FormatSpec {
            name: name.to_string(),
            remapping,
            dim_names: dim_names.into_iter().map(str::to_string).collect(),
            levels,
        }
    }

    /// The attribute queries the format's levels require, outer to inner
    /// (Section 5); levels that need no query are skipped.
    pub fn required_queries(&self) -> Vec<AttrQuery> {
        use sparse_tensor::DimBounds;
        let mut out = Vec::new();
        for (k, kind) in self.levels.iter().enumerate() {
            let assembler = crate::generic::make_assembler(*kind, DimBounds::from_extent(1));
            if let Some(q) = assembler.level().required_query(&self.dim_names, k) {
                out.push(q);
            }
        }
        out
    }

    /// Order of the canonical tensors the format stores (2 for the matrix
    /// formats, 3 for COO3 and CSF).
    pub fn source_order(&self) -> usize {
        self.remapping.source_order()
    }

    /// True when the format stores nonzeros in an order other than the
    /// lexicographic order of their canonical coordinates (DIA, ELL, BCSR,
    /// HiCOO-style formats); such formats are exactly the ones taco without
    /// the paper's extensions cannot assemble.
    pub fn is_structured(&self) -> bool {
        self.remapping.dest_order() > self.remapping.source_order()
    }

    /// Whether any remapped dimension uses a counter (`#i`).
    pub fn uses_counters(&self) -> bool {
        self.remapping.has_counter()
    }

    /// Checks that the dynamic driver can assemble this level composition,
    /// rejecting the shapes that would otherwise panic or silently lose data
    /// mid-assembly. Stock specs always validate; builder-made specs surface
    /// [`ConvertError::UnsupportedSpec`] here instead.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnsupportedSpec`] when:
    ///
    /// * a banded level sits at the root (its position arithmetic needs the
    ///   parent dimension's coordinate),
    /// * a singleton level sits at the root (one coordinate per parent
    ///   position means a single-position root collapses every nonzero),
    /// * an edge-insertion level (compressed, compressed-nonunique, banded)
    ///   sits under an ancestor chain that is not full levels (dense,
    ///   sliced) followed by compressed levels — the only two parent
    ///   enumerations the driver implements.
    pub fn validate(&self) -> Result<(), ConvertError> {
        let reject = |reason: String| Err(ConvertError::UnsupportedSpec { reason });
        for (k, kind) in self.levels.iter().enumerate() {
            match kind {
                LevelKind::Banded if k == 0 => {
                    return reject(format!(
                        "format {}: a banded level cannot be the root level \
                         (it addresses positions relative to its parent \
                         dimension's coordinate)",
                        self.name
                    ));
                }
                LevelKind::Singleton if k == 0 => {
                    return reject(format!(
                        "format {}: a singleton level cannot be the root \
                         level (it stores one coordinate per parent position, \
                         and the root has a single position)",
                        self.name
                    ));
                }
                // A singleton stores exactly one coordinate per parent
                // position, so two nonzeros reaching the same parent position
                // would silently overwrite each other. That cannot happen
                // when some ancestor appends one position per nonzero
                // (compressed-nonunique, as in COO) or when the remapping is
                // structured (DIA/ELL/JAD introduce derived dimensions that
                // determine the singleton coordinate from its ancestors).
                LevelKind::Singleton => {
                    let per_nonzero_ancestor = self.levels[..k]
                        .iter()
                        .any(|a| matches!(a, LevelKind::CompressedNonUnique));
                    if !per_nonzero_ancestor && !self.is_structured() {
                        return reject(format!(
                            "format {}: level {k} (singleton) stores one \
                             coordinate per parent position, but no ancestor \
                             yields a position per nonzero (compressed \
                             non-unique) and the remapping adds no derived \
                             dimensions; colliding nonzeros would overwrite \
                             each other",
                            self.name
                        ));
                    }
                }
                LevelKind::Compressed | LevelKind::CompressedNonUnique | LevelKind::Banded
                    if k > 0 =>
                {
                    // The driver enumerates parents either as the cartesian
                    // product of full levels, or as ranks of distinct sorted
                    // prefixes — the latter only matches assembled positions
                    // when compressed levels follow the full ones (a full
                    // level *below* a compressed one yields gappy arithmetic
                    // positions, not ranks).
                    let ancestors_chainable = {
                        let mut seen_compressed = false;
                        self.levels[..k].iter().all(|a| match a {
                            LevelKind::Compressed => {
                                seen_compressed = true;
                                true
                            }
                            LevelKind::Dense | LevelKind::Sliced => !seen_compressed,
                            _ => false,
                        })
                    };
                    if !ancestors_chainable {
                        return reject(format!(
                            "format {}: level {k} ({kind}) needs edge \
                             insertion, but its ancestors are not full \
                             levels (dense/sliced) followed by compressed \
                             levels — the only two parent enumerations the \
                             driver implements",
                            self.name
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// True when the format's storage groups nonzeros by the outermost
    /// canonical dimension and iterates it in ascending order — derived from
    /// the specification alone: the remapping must be the identity and every
    /// level an ordered, unique chain kind (dense, compressed, banded). On
    /// every stock format this agrees with the `rows_in_order` column of the
    /// [stock table](crate::stock::STOCK); the planner consults it for
    /// registry (custom) formats.
    pub fn iterates_rows_in_order(&self) -> bool {
        self.remapping.is_identity()
            && self.levels.iter().all(|k| {
                matches!(
                    k,
                    LevelKind::Dense | LevelKind::Compressed | LevelKind::Banded
                )
            })
    }

    /// True when per-row nonzero counts can be read off the format's
    /// structure without touching nonzeros (the optimised `count` query of
    /// Section 5.2). Exactly the formats of
    /// [`FormatSpec::iterates_rows_in_order`]: an identity-remapped ordered
    /// chain has a root-level `pos` array to difference.
    pub fn counts_from_structure(&self) -> bool {
        self.iterates_rows_in_order()
    }

    /// A structural fingerprint of the specification: two specs that render
    /// the same remapping, dimension names, and level composition hash
    /// equally. Plan caches key on this so a *re-specified* format (e.g. a
    /// user spec shadowing a stock one) invalidates cached plans.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the rendered spec; stable across processes (unlike
        // `DefaultHasher`, whose keys are randomised per process).
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
            h = (h ^ 0xff).wrapping_mul(0x100000001b3); // field separator
        };
        eat(self.name.as_bytes());
        eat(self.remapping.to_string().as_bytes());
        for name in &self.dim_names {
            eat(name.as_bytes());
        }
        for level in &self.levels {
            eat(level.to_string().as_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Format;

    fn stock(format: Format) -> FormatSpec {
        format.spec().expect("not DOK").clone()
    }

    #[test]
    fn structured_formats_are_detected() {
        assert!(!stock(Format::csr()).is_structured());
        assert!(!stock(Format::csc()).is_structured());
        assert!(stock(Format::dia()).is_structured());
        assert!(stock(Format::ell()).is_structured());
        assert!(stock(Format::ell()).uses_counters());
        assert!(!stock(Format::dia()).uses_counters());
    }

    #[test]
    fn required_queries_follow_level_formats() {
        let csr = stock(Format::csr());
        let queries = csr.required_queries();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].to_string(), "select [i] -> count(j) as nir");

        let dia = stock(Format::dia());
        let queries = dia.required_queries();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].to_string(), "select [k] -> id() as nz");

        let ell = stock(Format::ell());
        let queries = ell.required_queries();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].to_string(), "select [] -> max(k) as max_crd");
    }

    #[test]
    fn csf_spec_is_an_order_3_compressed_chain() {
        let csf = stock(Format::csf());
        assert_eq!(csf.source_order(), 3);
        assert!(!csf.is_structured());
        assert!(!csf.uses_counters());
        let queries: Vec<String> = csf
            .required_queries()
            .iter()
            .map(|q| q.to_string())
            .collect();
        assert_eq!(
            queries,
            vec![
                "select [] -> count(i) as nir",
                "select [i] -> count(j) as nir",
                "select [i,j] -> count(k) as nir",
            ]
        );
        let coo3 = stock(Format::coo3());
        assert_eq!(coo3.source_order(), 3);
        assert_eq!(coo3.required_queries().len(), 1);
        assert_eq!(
            coo3.required_queries()[0].to_string(),
            "select [] -> count(i,j,k) as nir"
        );
    }

    #[test]
    fn dok_has_no_stock_spec() {
        assert!(Format::dok().spec().is_none());
    }

    #[test]
    fn banded_root_is_rejected() {
        let spec = FormatSpec::new(
            "BAD-BANDED",
            Remapping::identity(2),
            vec!["i", "j"],
            vec![LevelKind::Banded, LevelKind::Dense],
        );
        assert!(matches!(
            spec.validate(),
            Err(ConvertError::UnsupportedSpec { .. })
        ));
    }

    #[test]
    fn singleton_root_is_rejected() {
        let spec = FormatSpec::new(
            "BAD-SINGLETON",
            Remapping::identity(2),
            vec!["i", "j"],
            vec![LevelKind::Singleton, LevelKind::Singleton],
        );
        assert!(matches!(
            spec.validate(),
            Err(ConvertError::UnsupportedSpec { .. })
        ));
    }

    #[test]
    fn edge_insertion_under_non_chainable_ancestor_is_rejected() {
        // A compressed level under a hashed ancestor: the driver can neither
        // enumerate full positions nor sorted coordinate prefixes.
        let spec = FormatSpec::new(
            "BAD-CHAIN",
            Remapping::identity(2),
            vec!["i", "j"],
            vec![LevelKind::Hashed, LevelKind::Compressed],
        );
        let err = spec.validate().unwrap_err();
        assert!(matches!(err, ConvertError::UnsupportedSpec { .. }));
        assert!(err.to_string().contains("edge insertion"), "{err}");
        // A banded level under a compressed-nonunique ancestor is equally
        // unassemblable (the ancestor is not unique).
        let spec = FormatSpec::new(
            "BAD-BAND-CHAIN",
            Remapping::identity(2),
            vec!["i", "j"],
            vec![LevelKind::CompressedNonUnique, LevelKind::Banded],
        );
        assert!(matches!(
            spec.validate(),
            Err(ConvertError::UnsupportedSpec { .. })
        ));
    }

    #[test]
    fn fingerprints_distinguish_specs() {
        let csr = stock(Format::csr());
        let csc = stock(Format::csc());
        assert_eq!(csr.fingerprint(), stock(Format::csr()).fingerprint());
        assert_ne!(csr.fingerprint(), csc.fingerprint());
        assert_ne!(
            stock(Format::bcsr(2, 2)).fingerprint(),
            stock(Format::bcsr(2, 4)).fingerprint()
        );
    }
}
