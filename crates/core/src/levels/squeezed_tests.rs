//! Unit tests of `crate::levels::squeezed`, mounted at the crate root by `lib.rs` so that
//! they run as `squeezed::tests::…`.

mod tests {
    use crate::levels::assembler::LevelAssembler;
    use crate::levels::properties::LevelKind;
    use crate::levels::squeezed::*;
    use crate::query::QueryResult;
    use sparse_tensor::DimBounds;

    #[test]
    fn collects_nonzero_diagonals_from_the_id_query() {
        // The example matrix's diagonals: offsets -2, 0, 1 in [-3, 6).
        let dims = vec!["k".to_string(), "i".to_string(), "j".to_string()];
        let mut level = SqueezedLevel::new(-3, 6);
        let query = level.required_query(&dims, 0).unwrap();
        assert_eq!(query.to_string(), "select [k] -> id() as nz");

        let mut q = QueryResult::new(&query, vec![DimBounds::new(-3, 6)]).unwrap();
        for k in [-2i64, 0, 1] {
            q.set(&[k], NZ, 1).unwrap();
        }
        level.init_coords(1, Some(&q));
        assert_eq!(level.perm(), &[-2, 0, 1]);
        assert_eq!(level.count(), 3);
        assert_eq!(level.size(1), 3);

        level.init_pos(1);
        assert_eq!(level.position(0, &[-2]), 0);
        assert_eq!(level.position(0, &[0]), 1);
        assert_eq!(level.position(0, &[1]), 2);
        level.finalize_pos(1);
        assert_eq!(level.clone().into_perm(), vec![-2, 0, 1]);
    }

    #[test]
    fn empty_dimension_has_no_stored_values() {
        let dims = vec!["k".to_string()];
        let mut level = SqueezedLevel::new(0, 4);
        let query = level.required_query(&dims, 0).unwrap();
        let q = QueryResult::new(&query, vec![DimBounds::from_extent(4)]).unwrap();
        level.init_coords(1, Some(&q));
        assert_eq!(level.count(), 0);
        assert_eq!(level.size(3), 0);
    }

    #[test]
    fn kind_and_properties() {
        let level = SqueezedLevel::new(0, 1);
        assert_eq!(level.kind(), LevelKind::Squeezed);
        assert!(level.properties().ordered);
        assert!(!level.properties().full);
    }
}
