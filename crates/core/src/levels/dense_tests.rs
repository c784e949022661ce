//! Unit tests of `crate::levels::dense`, mounted at the crate root by `lib.rs` so that
//! they run as `dense::tests::…`.

mod tests {
    use crate::levels::assembler::LevelAssembler;
    use crate::levels::dense::*;
    use crate::levels::properties::LevelKind;

    #[test]
    fn positions_are_row_major() {
        // CSR's dense row level: locate(p0, i1) = p0 * N + i1 (Figure 4).
        let mut level = DenseLevel::new(6);
        assert_eq!(level.size(1), 6);
        assert_eq!(level.size(4), 24);
        assert_eq!(level.position(0, &[3]), 3);
        assert_eq!(level.position(2, &[1, 5]), 17);
        assert_eq!(level.extent(), 6);
    }

    #[test]
    fn lower_bound_shifts_coordinates() {
        let mut level = DenseLevel::with_lower_bound(4, -1);
        assert_eq!(level.position(0, &[-1]), 0);
        assert_eq!(level.position(1, &[2]), 7);
    }

    #[test]
    fn no_query_needed() {
        let level = DenseLevel::new(4);
        assert!(level.required_query(&["i".into(), "j".into()], 0).is_none());
        assert_eq!(level.kind(), LevelKind::Dense);
        assert!(level.properties().full);
    }
}
