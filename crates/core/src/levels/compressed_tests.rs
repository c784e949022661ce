//! Unit tests of `crate::levels::compressed`, mounted at the crate root by `lib.rs` so that
//! they run as `compressed::tests::…`.

mod tests {
    use crate::levels::assembler::LevelAssembler;
    use crate::levels::compressed::*;
    use crate::query::{Aggregate, AttrQuery, QueryResult};
    use sparse_tensor::DimBounds;

    fn nir_query() -> AttrQuery {
        AttrQuery::single(vec!["i".into()], Aggregate::Count(vec!["j".into()]), NIR)
    }

    /// Drives the assembler through the COO→CSR column-level assembly of
    /// Figure 6c for the example matrix.
    fn assemble(sequenced: bool) -> CompressedLevel {
        let query = nir_query();
        let mut q = QueryResult::new(&query, vec![DimBounds::from_extent(4)]).unwrap();
        for (i, n) in [2i64, 2, 2, 3].iter().enumerate() {
            q.set(&[i as i64], NIR, *n).unwrap();
        }
        let mut level = CompressedLevel::new();
        level.init_edges(4, sequenced, Some(&q));
        for i in 0..4i64 {
            level.insert_edges(i as usize, &[i], sequenced, Some(&q));
        }
        level.finalize_edges(4, sequenced);
        assert_eq!(level.pos(), &[0, 2, 4, 6, 9]);
        level.init_coords(4, Some(&q));
        // Insert the example matrix's nonzeros (row-grouped order).
        let coords: [(i64, i64); 9] = [
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 2),
            (3, 1),
            (3, 3),
            (3, 4),
        ];
        level.init_pos(4);
        for (i, j) in coords {
            let p = level.position(i as usize, &[i, j]);
            level.insert_coord(i as usize, p, &[i, j]);
        }
        level.finalize_pos(4);
        level
    }

    #[test]
    fn sequenced_assembly_builds_figure2b_arrays() {
        let level = assemble(true);
        assert_eq!(level.pos(), &[0, 2, 4, 6, 9]);
        assert_eq!(level.crd(), &[0, 1, 1, 2, 0, 2, 1, 3, 4]);
    }

    #[test]
    fn unsequenced_assembly_matches_sequenced() {
        assert_eq!(assemble(false), assemble(true));
    }

    #[test]
    fn required_query_counts_children_per_parent() {
        let level = CompressedLevel::new();
        let dims = vec!["i".to_string(), "j".to_string()];
        let q = level.required_query(&dims, 1).unwrap();
        assert_eq!(q.to_string(), "select [i] -> count(j) as nir");
        let q0 = level.required_query(&dims, 0).unwrap();
        assert_eq!(q0.to_string(), "select [] -> count(i) as nir");
    }

    #[test]
    fn size_reports_total_children() {
        let level = assemble(true);
        assert_eq!(level.size(4), 9);
        let (pos, crd) = level.into_arrays();
        assert_eq!(pos.len(), 5);
        assert_eq!(crd.len(), 9);
    }
}
