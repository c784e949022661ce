//! Unit tests of `crate::ir::simplify`, mounted at the crate root by `lib.rs` so that
//! they run as `simplify::tests::…`.

mod tests {
    use crate::ir::build::*;
    use crate::ir::expr::Expr;
    use crate::ir::simplify::*;
    use crate::ir::stmt::{Function, Stmt};

    #[test]
    fn folds_constants_and_identities() {
        assert_eq!(simplify_expr(&add(int(2), int(3))), int(5));
        assert_eq!(simplify_expr(&add(var("i"), int(0))), var("i"));
        assert_eq!(simplify_expr(&mul(var("i"), int(1))), var("i"));
        assert_eq!(simplify_expr(&mul(var("i"), int(0))), int(0));
        assert_eq!(simplify_expr(&sub(var("i"), int(0))), var("i"));
        assert_eq!(simplify_expr(&div(var("i"), int(1))), var("i"));
        assert_eq!(simplify_expr(&lt(int(1), int(2))), int(1));
        assert_eq!(simplify_expr(&min(int(4), int(7))), int(4));
        assert_eq!(simplify_expr(&max(int(4), int(7))), int(7));
    }

    #[test]
    fn simplifies_nested_loads_and_selects() {
        let e = load("pos", add(var("i"), int(0)));
        assert_eq!(simplify_expr(&e), load("pos", var("i")));
        let sel = Expr::Select {
            cond: Box::new(int(1)),
            then: Box::new(add(int(1), int(1))),
            otherwise: Box::new(var("x")),
        };
        assert_eq!(simplify_expr(&sel), int(2));
    }

    #[test]
    fn drops_dead_loops_and_branches() {
        let f = Function::new(
            "f",
            vec![],
            vec![
                for_("i", int(3), int(3), vec![comment("dead")]),
                if_(int(0), vec![comment("dead")]),
                if_else(
                    int(0),
                    vec![comment("dead")],
                    vec![decl("x", add(int(1), int(2)))],
                ),
                Stmt::While {
                    cond: int(0),
                    body: vec![comment("dead")],
                },
                decl("y", mul(var("n"), int(1))),
            ],
        );
        let simplified = simplify_function(&f);
        assert_eq!(simplified.body.len(), 2);
        match &simplified.body[0] {
            Stmt::If { cond, then, .. } => {
                assert_eq!(cond, &int(1));
                assert_eq!(then, &vec![decl("x", int(3))]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(simplified.body[1], decl("y", var("n")));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let e = div(int(1), int(0));
        assert_eq!(simplify_expr(&e), e);
    }

    #[test]
    fn not_and_cmp_folding() {
        assert_eq!(simplify_expr(&Expr::Not(Box::new(int(0)))), int(1));
        assert_eq!(
            simplify_expr(&Expr::Not(Box::new(var("x")))),
            Expr::Not(Box::new(var("x")))
        );
        assert_eq!(simplify_expr(&eq(int(2), int(2))), int(1));
        assert_eq!(simplify_expr(&ne(int(2), int(2))), int(0));
    }
}
