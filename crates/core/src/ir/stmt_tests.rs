//! Unit tests of `crate::ir::stmt`, mounted at the crate root by `lib.rs` so that
//! they run as `stmt::tests::…`.

mod tests {
    use crate::ir::expr::Expr;
    use crate::ir::stmt::*;

    #[test]
    fn statement_count_includes_nested_bodies() {
        let f = Function::new(
            "f",
            vec![],
            vec![
                Stmt::DeclScalar {
                    name: "x".into(),
                    init: Expr::Int(0),
                },
                Stmt::for_loop(
                    "i",
                    Expr::Int(0),
                    Expr::Int(10),
                    vec![
                        Stmt::Assign {
                            name: "x".into(),
                            value: Expr::Var("i".into()),
                        },
                        Stmt::If {
                            cond: Expr::Int(1),
                            then: vec![Stmt::Comment("hi".into())],
                            otherwise: vec![],
                        },
                    ],
                ),
            ],
        );
        assert_eq!(f.statement_count(), 5);
    }
}
