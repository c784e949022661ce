//! Unit tests of `crate::levels::assembler`, mounted at the crate root by `lib.rs` so that
//! they run as `assembler::tests::…`.

mod tests {
    use crate::levels::assembler::*;
    use crate::levels::{CompressedLevel, DenseLevel, SingletonLevel, SlicedLevel, SqueezedLevel};

    #[test]
    fn trait_is_object_safe_and_defaults_apply() {
        let mut levels: Vec<Box<dyn LevelAssembler>> = vec![
            Box::new(DenseLevel::new(4)),
            Box::new(CompressedLevel::new()),
            Box::new(SingletonLevel::new()),
            Box::new(SlicedLevel::new()),
            Box::new(SqueezedLevel::new(-3, 4)),
        ];
        let dims = vec!["i".to_string(), "j".to_string()];
        for level in &mut levels {
            // Exercise the defaulted methods through the trait object.
            level.finalize_edges(0, true);
            let _ = level.required_query(&dims, 1);
            let _ = level.kind();
            let _ = level.properties();
        }
    }

    #[test]
    fn edge_insertion_defaults() {
        assert_eq!(DenseLevel::new(4).edge_insertion(), EdgeInsertion::None);
        assert_eq!(
            CompressedLevel::new().edge_insertion(),
            EdgeInsertion::SequencedOrUnsequenced
        );
        assert_eq!(CompressedLevel::new().position_kind(), PositionKind::Yield);
        assert_eq!(DenseLevel::new(4).position_kind(), PositionKind::Get);
    }
}
