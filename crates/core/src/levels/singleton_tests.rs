//! Unit tests of `crate::levels::singleton`, mounted at the crate root by `lib.rs` so that
//! they run as `singleton::tests::…`.

mod tests {
    use crate::levels::assembler::{LevelAssembler, PositionKind};
    use crate::levels::properties::LevelKind;
    use crate::levels::singleton::*;

    #[test]
    fn forwards_parent_positions_and_stores_coordinates() {
        let mut level = SingletonLevel::new();
        level.init_coords(5, None);
        assert_eq!(level.size(5), 5);
        for (p, j) in [(0usize, 4i64), (1, 2), (4, 0)] {
            let pos = level.position(p, &[0, j]);
            assert_eq!(pos, p);
            level.insert_coord(p, pos, &[0, j]);
        }
        assert_eq!(level.crd(), &[4, 2, 0, 0, 0]);
        assert_eq!(level.clone().into_crd().len(), 5);
    }

    #[test]
    fn no_query_and_yield_positions() {
        let level = SingletonLevel::new();
        assert!(level.required_query(&["i".into(), "j".into()], 1).is_none());
        assert_eq!(level.position_kind(), PositionKind::Yield);
        assert_eq!(level.kind(), LevelKind::Singleton);
        assert!(!level.properties().unique);
    }
}
