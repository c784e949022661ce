//! Mode-ordered CSF: the paper's "mode ordering" degree of freedom.
//!
//! A mode-ordered CSF format stores an order-N tensor as a CSF fiber tree
//! whose level `d` holds canonical mode `order[d]` — `CSF@2,0,1` puts mode
//! `k` outermost. Such formats are plain registry formats (an all-compressed
//! spec over a pure mode-permutation remapping), so the generic driver
//! already handles them; this module adds the detection and wrapping glue
//! that lets the monomorphised engine, the code generator, and the parallel
//! runtime serve the same targets bit-identically:
//!
//! * [`permutation_of`] recognises a remapping as a pure mode permutation
//!   (which the code generator also reads a source's level order from) and
//!   [`mode_order_of`] a spec as mode-ordered CSF,
//! * [`custom_from_csf`] wraps an engine-built [`CsfTensor`] into the exact
//!   [`CustomTensor`] the generic driver would assemble, and
//! * [`csf_ordered_name`] / [`parse_csf_ordered_name`] implement the
//!   `CSF@2,0,1` naming round-trip used by `Format::from_str`.

use sparse_formats::CsfTensor;

use crate::error::ConvertError;
use crate::generic::{CustomTensor, LevelOutput};
use crate::levels::LevelKind;
use crate::remap::{is_permutation, BoundsEnv, IndexExpr, Remapping};
use crate::spec::FormatSpec;

/// Recognises a remapping that is a pure permutation of its source variables
/// (each destination index a bare source variable, each variable used exactly
/// once). Returns the mode order — storage level `d` holds canonical mode
/// `order[d]` — or `None` for any other remapping.
pub fn permutation_of(remapping: &Remapping) -> Option<Vec<usize>> {
    if remapping.dst.len() != remapping.src.len() {
        return None;
    }
    let mut order = Vec::with_capacity(remapping.dst.len());
    let mut seen = vec![false; remapping.src.len()];
    for dst in &remapping.dst {
        if !dst.lets.is_empty() {
            return None;
        }
        let IndexExpr::Var(v) = &dst.expr else {
            return None;
        };
        let m = remapping.src.iter().position(|s| s == v)?;
        if seen[m] {
            return None;
        }
        seen[m] = true;
        order.push(m);
    }
    Some(order)
}

/// Recognises a spec describing mode-ordered CSF: every level compressed and
/// the remapping a [pure permutation](permutation_of). Returns the mode
/// order, or `None` for any other spec.
pub fn mode_order_of(spec: &FormatSpec) -> Option<Vec<usize>> {
    if spec.levels.is_empty() || spec.levels.iter().any(|k| *k != LevelKind::Compressed) {
        return None;
    }
    permutation_of(&spec.remapping)
}

/// The registry name of the CSF format with the given mode order, e.g.
/// `CSF@2,0,1`.
pub fn csf_ordered_name(order: &[usize]) -> String {
    let modes: Vec<String> = order.iter().map(usize::to_string).collect();
    format!("CSF@{}", modes.join(","))
}

/// Parses a `CSF@2,0,1`-style name (case-insensitive prefix) into its mode
/// order. Returns `None` when the string is not of that shape or the listed
/// modes are not a permutation of `0..n`.
pub fn parse_csf_ordered_name(s: &str) -> Option<Vec<usize>> {
    if s.len() < 4 || !s[..4].eq_ignore_ascii_case("CSF@") {
        return None;
    }
    let rest = &s[4..];
    let order: Vec<usize> = rest
        .split(',')
        .map(|part| part.trim().parse().ok())
        .collect::<Option<_>>()?;
    is_permutation(&order).then_some(order)
}

/// Wraps an engine-built CSF fiber tree (whose storage dimensions follow
/// `mode_order`) into the [`CustomTensor`] the dynamic driver would assemble
/// for the same spec, byte for byte: level 0 is rooted with `pos = [0, F0]`,
/// each deeper level reuses the fiber tree's `pos` arrays, and bounds come
/// from the same static inference the driver runs.
///
/// Duplicate canonical coordinates (which the fiber tree stores as adjacent
/// innermost entries) are rejected with the same error the dynamic driver
/// produces, so both paths agree on every input.
///
/// # Errors
///
/// Returns [`ConvertError::Unsupported`] for duplicate coordinates and
/// propagates bounds-inference failures.
pub fn custom_from_csf(
    spec: &FormatSpec,
    mode_order: &[usize],
    csf: CsfTensor,
) -> Result<CustomTensor, ConvertError> {
    let (order, nnz) = (csf.order(), csf.nnz());
    assert_eq!(mode_order.len(), order, "one mode per storage dimension");
    let roots = csf.num_fibers(0);
    let (packed, crd, pos, vals) = csf.into_parts();
    // Two equal neighbours in the leaf level are a duplicate unless a fiber
    // starts between them.
    if let (Some(fibers), Some(leaves)) = (pos.last(), crd.last()) {
        let mut equal = leaves.windows(2).enumerate().filter(|(_, w)| w[0] == w[1]);
        if equal.any(|(p, _)| fibers.binary_search(&(p + 1)).is_err()) {
            return Err(ConvertError::duplicate_coordinates(&spec.name));
        }
    }
    // Recover the canonical (source) shape: storage dimension `d` has the
    // extent of canonical mode `mode_order[d]`.
    let mut dims = vec![0usize; order];
    for (d, &m) in mode_order.iter().enumerate() {
        dims[m] = packed.dim(d);
    }
    let shape = sparse_tensor::Shape::new(dims);
    let env = BoundsEnv::for_remapping(&spec.remapping, shape.dims()).with_nnz(nnz);
    let bounds = crate::remap::infer_bounds(&spec.remapping, &env)?;
    // The root level's one fiber, then each level's own `pos`; coordinates
    // widen in place.
    let level_pos = std::iter::once(vec![0, roots]).chain(pos);
    let levels = crd
        .into_iter()
        .zip(level_pos)
        .map(|(crd, pos)| LevelOutput::Compressed {
            pos,
            crd: crd.into_iter().map(|c| c as i64).collect(),
        })
        .collect();
    Ok(CustomTensor {
        spec: spec.clone(),
        levels,
        vals,
        source_shape: shape,
        bounds,
        nnz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Format;

    #[test]
    fn stock_csf_spec_is_the_identity_order() {
        let csf = Format::csf();
        assert_eq!(mode_order_of(csf.spec().unwrap()), Some(vec![0, 1, 2]));
    }

    #[test]
    fn permuted_spec_reports_its_order() {
        let spec = FormatSpec::new(
            "CSF@2,0,1",
            Remapping::mode_permutation(&[2, 0, 1]),
            vec!["k", "i", "j"],
            vec![LevelKind::Compressed; 3],
        );
        assert_eq!(mode_order_of(&spec), Some(vec![2, 0, 1]));
    }

    #[test]
    fn non_permutation_specs_are_not_mode_ordered() {
        // CSR: dense root, and only two of the stock specs' levels compressed.
        let csr = Format::csr();
        assert_eq!(mode_order_of(csr.spec().unwrap()), None);
        // DIA's remapping computes j-i: not a bare variable.
        let dia = Format::dia();
        assert_eq!(mode_order_of(dia.spec().unwrap()), None);
    }

    #[test]
    fn name_round_trips_for_every_order3_permutation() {
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let name = csf_ordered_name(&order);
            assert_eq!(parse_csf_ordered_name(&name), Some(order.to_vec()));
        }
        assert_eq!(parse_csf_ordered_name("CSF@2,0,1"), Some(vec![2, 0, 1]));
        assert_eq!(parse_csf_ordered_name("csf@1,0"), Some(vec![1, 0]));
        assert_eq!(parse_csf_ordered_name("CSF@0,0,1"), None);
        assert_eq!(parse_csf_ordered_name("CSF@3,0,1"), None);
        assert_eq!(parse_csf_ordered_name("CSF@"), None);
        assert_eq!(parse_csf_ordered_name("CSR"), None);
    }
}
