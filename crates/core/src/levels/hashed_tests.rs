//! Unit tests of `crate::levels::hashed`, mounted at the crate root by `lib.rs` so that
//! they run as `hashed::tests::…`.

mod tests {
    use crate::levels::assembler::LevelAssembler;
    use crate::levels::hashed::*;
    use crate::levels::properties::LevelKind;

    #[test]
    fn interns_coordinates_and_reuses_positions() {
        let mut level = HashedLevel::new();
        level.init_coords(0, None);
        let a = level.position(0, &[0, 3]);
        let b = level.position(0, &[0, 5]);
        let again = level.position(0, &[0, 3]);
        assert_eq!(a, again);
        assert_ne!(a, b);
        assert_eq!(level.size(0), 2);
        assert_eq!(level.coords(), &[(0, 3), (0, 5)]);
        assert!(level.required_query(&["i".into()], 0).is_none());
        assert_eq!(level.kind(), LevelKind::Hashed);
        assert!(!level.properties().position_iterable_in_order);
    }
}
