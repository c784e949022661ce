//! Unit tests of `crate::remap::ast`, mounted at the crate root by `lib.rs` so that
//! they run as `ast::tests::…`.

mod tests {
    use crate::remap::ast::*;

    #[test]
    fn identity_remapping_roundtrips() {
        let r = Remapping::identity(2);
        assert_eq!(r.to_string(), "(i,j) -> (i,j)");
        assert!(r.is_identity());
        assert!(!r.has_counter());
        assert_eq!(r.source_order(), 2);
        assert_eq!(r.dest_order(), 2);
    }

    #[test]
    fn canonical_names_switch_to_numbered() {
        assert_eq!(canonical_names(3), vec!["i", "j", "k"]);
        assert_eq!(canonical_names(5)[4], "i5");
    }

    #[test]
    fn is_permutation_accepts_exactly_the_mode_orders() {
        for order in [&[][..], &[0], &[2, 0, 1], &[1, 0]] {
            assert!(is_permutation(order), "{order:?}");
        }
        for order in [&[1][..], &[0, 0], &[0, 2], &[2, 1, 1]] {
            assert!(!is_permutation(order), "{order:?}");
        }
    }

    #[test]
    fn display_respects_precedence() {
        // (i + j) * 2 must keep its parentheses; i + j * 2 must not gain any.
        let sum = IndexExpr::binary(BinOp::Add, IndexExpr::var("i"), IndexExpr::var("j"));
        let scaled = IndexExpr::binary(BinOp::Mul, sum.clone(), IndexExpr::Const(2));
        assert_eq!(scaled.to_string(), "(i+j)*2");
        let linear = IndexExpr::binary(
            BinOp::Add,
            IndexExpr::var("i"),
            IndexExpr::binary(BinOp::Mul, IndexExpr::var("j"), IndexExpr::Const(2)),
        );
        assert_eq!(linear.to_string(), "i+j*2");
    }

    #[test]
    fn counter_detection() {
        let dst = DstIndex::simple(IndexExpr::Counter(vec!["i".into()]));
        assert!(dst.has_counter());
        let r = Remapping::new(
            vec!["i".into(), "j".into()],
            vec![
                dst,
                DstIndex::simple(IndexExpr::var("i")),
                DstIndex::simple(IndexExpr::var("j")),
            ],
        );
        assert!(r.has_counter());
        assert!(!r.is_identity());
    }

    #[test]
    fn free_vars_and_params() {
        let e = IndexExpr::binary(
            BinOp::Div,
            IndexExpr::var("i"),
            IndexExpr::Param("M".into()),
        );
        assert_eq!(e.free_vars(), vec!["i".to_string()]);
        assert_eq!(e.params(), vec!["M".to_string()]);
    }

    #[test]
    fn dst_index_display_with_lets() {
        let d = DstIndex {
            lets: vec![(
                "r".to_string(),
                IndexExpr::binary(BinOp::Div, IndexExpr::var("i"), IndexExpr::Const(4)),
            )],
            expr: IndexExpr::binary(
                BinOp::And,
                IndexExpr::LetVar("r".into()),
                IndexExpr::Const(1),
            ),
        };
        assert_eq!(d.to_string(), "r=i/4 in r&1");
    }

    #[test]
    #[should_panic]
    fn empty_source_panics() {
        Remapping::new(vec![], vec![DstIndex::simple(IndexExpr::Const(0))]);
    }
}
