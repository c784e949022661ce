//! Unit tests of `crate::ir::expr`, mounted at the crate root by `lib.rs` so that
//! they run as `expr::tests::…`.

mod tests {
    use crate::ir::expr::*;

    #[test]
    fn cmp_apply_int_covers_all_operators() {
        assert!(CmpOp::Eq.apply_int(2, 2));
        assert!(CmpOp::Ne.apply_int(2, 3));
        assert!(CmpOp::Lt.apply_int(2, 3));
        assert!(CmpOp::Le.apply_int(3, 3));
        assert!(CmpOp::Gt.apply_int(4, 3));
        assert!(CmpOp::Ge.apply_int(3, 3));
        assert!(!CmpOp::Lt.apply_int(3, 3));
    }

    #[test]
    fn buffers_read_collects_unique_names() {
        let e = Expr::binary(
            IrBinOp::Add,
            Expr::Load {
                buffer: "pos".into(),
                index: Box::new(Expr::Var("i".into())),
            },
            Expr::Load {
                buffer: "pos".into(),
                index: Box::new(Expr::binary(
                    IrBinOp::Add,
                    Expr::Var("i".into()),
                    Expr::Int(1),
                )),
            },
        );
        assert_eq!(e.buffers_read(), vec!["pos".to_string()]);
    }

    #[test]
    fn is_int_matches_literals_only() {
        assert!(Expr::Int(3).is_int(3));
        assert!(!Expr::Int(2).is_int(3));
        assert!(!Expr::Var("x".into()).is_int(3));
    }

    #[test]
    fn operator_symbols() {
        assert_eq!(IrBinOp::Add.symbol(), "+");
        assert_eq!(IrBinOp::LogicalOr.symbol(), "||");
        assert_eq!(CmpOp::Ge.symbol(), ">=");
        assert_eq!(format!("{}", IrBinOp::Shl), "<<");
        assert_eq!(format!("{}", CmpOp::Ne), "!=");
    }
}
