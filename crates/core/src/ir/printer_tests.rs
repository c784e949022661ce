//! Unit tests of `crate::ir::printer`, mounted at the crate root by `lib.rs` so that
//! they run as `printer::tests::…`.

mod tests {
    use crate::ir::build::*;
    use crate::ir::expr::Expr;
    use crate::ir::printer::*;
    use crate::ir::stmt::{Function, Stmt};

    #[test]
    fn prints_expressions() {
        assert_eq!(print_expr(&add(var("i"), int(1))), "(i + 1)");
        assert_eq!(print_expr(&load("pos", var("i"))), "pos[i]");
        assert_eq!(print_expr(&max(var("a"), int(0))), "max(a, 0)");
        assert_eq!(print_expr(&lt(var("i"), var("n"))), "(i < n)");
        assert_eq!(print_expr(&Expr::Not(Box::new(var("x")))), "!(x)");
        assert_eq!(
            print_expr(&Expr::Select {
                cond: Box::new(var("c")),
                then: Box::new(int(1)),
                otherwise: Box::new(int(0)),
            }),
            "(c ? 1 : 0)"
        );
        assert_eq!(print_expr(&Expr::Float(1.5)), "1.5");
    }

    #[test]
    fn prints_function_with_loops_and_allocs() {
        let f = Function::new(
            "count_rows",
            vec!["A_pos".into(), "N".into()],
            vec![
                alloc_int("count", var("N"), true),
                for_(
                    "i",
                    int(0),
                    var("N"),
                    vec![store_add(
                        "count",
                        var("i"),
                        sub(
                            load("A_pos", add(var("i"), int(1))),
                            load("A_pos", var("i")),
                        ),
                    )],
                ),
                Stmt::Comment("analysis done".into()),
            ],
        );
        let text = print_function(&f);
        assert!(text.contains("void count_rows(A_pos, N) {"));
        assert!(text.contains("int* count = calloc(N, sizeof(int));"));
        assert!(text.contains("for (int i = 0; i < N; i++) {"));
        assert!(text.contains("count[i] += (A_pos[(i + 1)] - A_pos[i]);"));
        assert!(text.contains("// analysis done"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn prints_if_else_and_while() {
        let f = Function::new(
            "f",
            vec![],
            vec![
                Stmt::If {
                    cond: ge(var("x"), int(0)),
                    then: vec![assign("x", int(1))],
                    otherwise: vec![assign("x", int(2))],
                },
                Stmt::While {
                    cond: lt(var("x"), int(10)),
                    body: vec![assign("x", add(var("x"), int(1)))],
                },
            ],
        );
        let text = print_function(&f);
        assert!(text.contains("if ((x >= 0)) {"));
        assert!(text.contains("} else {"));
        assert!(text.contains("while ((x < 10)) {"));
    }
}
