//! Unit tests of `crate::levels::properties`, mounted at the crate root by `lib.rs` so that
//! they run as `properties::tests::…`.

mod tests {
    use crate::levels::properties::*;

    #[test]
    fn display_names() {
        assert_eq!(LevelKind::Dense.to_string(), "dense");
        assert_eq!(LevelKind::Squeezed.to_string(), "squeezed");
        assert_eq!(LevelKind::Hashed.to_string(), "hashed");
    }

    #[test]
    fn level_kinds_round_trip_through_display_and_from_str() {
        for kind in [
            LevelKind::Dense,
            LevelKind::Compressed,
            LevelKind::CompressedNonUnique,
            LevelKind::Singleton,
            LevelKind::Sliced,
            LevelKind::Squeezed,
            LevelKind::Banded,
            LevelKind::Hashed,
        ] {
            let rendered = kind.to_string();
            assert_eq!(rendered.parse::<LevelKind>().unwrap(), kind, "{rendered}");
            assert_eq!(rendered.to_uppercase().parse::<LevelKind>().unwrap(), kind);
        }
        let err = "diagonal".parse::<LevelKind>().unwrap_err();
        assert!(err.to_string().contains("diagonal"));
    }

    #[test]
    fn property_presets() {
        let d = LevelProperties::dense_like();
        assert!(d.full && d.ordered && d.unique && d.stores_explicit_zeros);
        let c = LevelProperties::compressed_like();
        assert!(!c.full && c.unique && !c.stores_explicit_zeros);
    }
}
