//! Unit tests of `crate::ir::build`, mounted at the crate root by `lib.rs` so that
//! they run as `build::tests::…`.

mod tests {
    use crate::ir::build::*;
    use crate::ir::expr::{CmpOp, Expr, IrBinOp};
    use crate::ir::stmt::{BufferKind, Stmt};

    #[test]
    fn builders_produce_expected_nodes() {
        assert_eq!(
            add(int(1), int(2)),
            Expr::binary(IrBinOp::Add, Expr::Int(1), Expr::Int(2))
        );
        assert_eq!(
            lt(var("i"), var("n")),
            Expr::cmp(CmpOp::Lt, Expr::Var("i".into()), Expr::Var("n".into()))
        );
        match alloc_float("vals", int(8), true) {
            Stmt::Alloc {
                kind: BufferKind::Float,
                zero_init: true,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        match for_("i", int(0), int(3), vec![comment("x")]) {
            Stmt::For {
                ref var, ref body, ..
            } => {
                assert_eq!(var, "i");
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
