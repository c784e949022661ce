//! Unit tests of `crate::levels::sliced`, mounted at the crate root by `lib.rs` so that
//! they run as `sliced::tests::…`.

mod tests {
    use crate::levels::assembler::LevelAssembler;
    use crate::levels::properties::LevelKind;
    use crate::levels::sliced::*;
    use crate::query::QueryResult;
    use sparse_tensor::DimBounds;

    #[test]
    fn slice_count_comes_from_the_max_query() {
        let dims = vec!["k".to_string(), "i".to_string(), "j".to_string()];
        let mut level = SlicedLevel::new();
        let query = level.required_query(&dims, 0).unwrap();
        assert_eq!(query.to_string(), "select [] -> max(k) as max_crd");

        let mut q = QueryResult::new(&query, vec![]).unwrap();
        q.set(&[], MAX_CRD, 2).unwrap();
        level.init_coords(1, Some(&q));
        assert_eq!(level.slice_count(), 3);
        assert_eq!(level.size(1), 3);
        // ELL position: slice-major.
        assert_eq!(level.position(0, &[0]), 0);
        assert_eq!(level.position(0, &[2]), 2);
    }

    #[test]
    fn empty_input_yields_zero_slices() {
        let dims = vec!["k".to_string()];
        let mut level = SlicedLevel::new();
        let query = level.required_query(&dims, 0).unwrap();
        let q = QueryResult::new(&query, vec![]).unwrap();
        level.init_coords(1, Some(&q));
        assert_eq!(level.slice_count(), 0);
        assert_eq!(level.size(1), 0);
    }

    #[test]
    fn kind_and_properties() {
        let level = SlicedLevel::new();
        assert_eq!(level.kind(), LevelKind::Sliced);
        assert!(level.properties().full);
        assert!(level.properties().stores_explicit_zeros);
        assert_eq!(DimBounds::from_extent(3).extent(), 3);
    }
}
