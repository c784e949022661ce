//! Unit tests of `crate::ir::interp`, mounted at the crate root by `lib.rs` so that
//! they run as `interp::tests::…`.

mod tests {
    use crate::ir::build::*;
    use crate::ir::expr::Expr;
    use crate::ir::checked::InterpError;
    use crate::ir::interp::*;
    use crate::ir::stmt::Function;
    use crate::ir::stmt::Stmt;

    #[test]
    fn runs_histogram_loop() {
        // count[crd[p]]++ over p in [0, 5)
        let f = Function::new(
            "hist",
            vec!["crd".into()],
            vec![
                alloc_int("count", int(3), true),
                for_(
                    "p",
                    int(0),
                    int(5),
                    vec![store_add("count", load("crd", var("p")), int(1))],
                ),
            ],
        );
        let mut interp = Interpreter::new();
        interp.insert_buffer("crd", Buffer::Ints(vec![0, 2, 2, 1, 2]));
        interp.run(&f).unwrap();
        assert_eq!(
            interp.buffer("count").unwrap().as_ints().unwrap(),
            &[1, 1, 3]
        );
    }

    #[test]
    fn float_stores_and_loads() {
        let f = Function::new(
            "copy",
            vec![],
            vec![
                alloc_float("out", int(2), true),
                store("out", int(0), float(1.5)),
                store("out", int(1), add(load("out", int(0)), float(1.0))),
            ],
        );
        let mut interp = Interpreter::new();
        interp.run(&f).unwrap();
        assert_eq!(
            interp.buffer("out").unwrap().as_floats().unwrap(),
            &[1.5, 2.5]
        );
    }

    #[test]
    fn if_else_and_while_execute() {
        let f = Function::new(
            "f",
            vec![],
            vec![
                decl("x", int(0)),
                Stmt::While {
                    cond: lt(var("x"), int(5)),
                    body: vec![assign("x", add(var("x"), int(1)))],
                },
                if_else(
                    ge(var("x"), int(5)),
                    vec![decl("ok", int(1))],
                    vec![decl("ok", int(0))],
                ),
            ],
        );
        let mut interp = Interpreter::new();
        interp.run(&f).unwrap();
        assert_eq!(interp.int("x"), Some(5));
        assert_eq!(interp.int("ok"), Some(1));
    }

    #[test]
    fn reports_out_of_bounds_and_undefined_names() {
        let mut interp = Interpreter::new();
        interp.insert_buffer("a", Buffer::Ints(vec![1, 2]));
        assert!(matches!(
            interp.eval(&load("a", int(5))),
            Err(InterpError::OutOfBounds { .. })
        ));
        assert!(matches!(
            interp.eval(&load("missing", int(0))),
            Err(InterpError::UndefinedBuffer(_))
        ));
        assert!(matches!(
            interp.eval(&var("nope")),
            Err(InterpError::UndefinedVariable(_))
        ));
        assert!(matches!(
            interp.eval(&div(int(1), int(0))),
            Err(InterpError::DivisionByZero)
        ));
    }

    #[test]
    fn store_max_and_store_or() {
        let f = Function::new(
            "f",
            vec![],
            vec![
                alloc_int("m", int(1), true),
                store_max("m", int(0), int(4)),
                store_max("m", int(0), int(2)),
                alloc_int("bits", int(1), true),
                store_or("bits", int(0), int(1)),
                store_or("bits", int(0), int(4)),
            ],
        );
        let mut interp = Interpreter::new();
        interp.run(&f).unwrap();
        assert_eq!(interp.buffer("m").unwrap().as_ints().unwrap(), &[4]);
        assert_eq!(interp.buffer("bits").unwrap().as_ints().unwrap(), &[5]);
    }

    #[test]
    fn negative_allocation_is_an_error() {
        let f = Function::new("f", vec![], vec![alloc_int("a", int(-1), true)]);
        let mut interp = Interpreter::new();
        assert!(matches!(
            interp.run(&f),
            Err(InterpError::NegativeAllocation(-1))
        ));
    }

    #[test]
    fn select_min_max_not_evaluate() {
        let interp = Interpreter::new();
        let e = Expr::Select {
            cond: Box::new(gt(int(2), int(1))),
            then: Box::new(min(int(5), int(3))),
            otherwise: Box::new(max(int(5), int(3))),
        };
        assert_eq!(interp.eval(&e).unwrap(), Scalar::Int(3));
        assert_eq!(
            interp.eval(&Expr::Not(Box::new(int(0)))).unwrap(),
            Scalar::Int(1)
        );
        assert_eq!(
            interp.eval(&Expr::Not(Box::new(int(7)))).unwrap(),
            Scalar::Int(0)
        );
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::Int(3).as_float(), 3.0);
        assert!(Scalar::Float(1.0).as_int().is_err());
        assert_eq!(Scalar::Int(3).as_int().unwrap(), 3);
    }

    fn run(body: Vec<Stmt>) -> (Interpreter, Result<(), InterpError>) {
        let mut interp = Interpreter::new();
        let result = interp.run(&Function::new("f", vec![], body));
        (interp, result)
    }

    #[test]
    fn reads_on_paths_never_taken_are_not_errors_and_typing_ignores_order() {
        // `never` is read only under a false condition; `late` is typed float
        // by a definition after its only read, which runs on the second trip.
        let (interp, result) = run(vec![
            alloc_float("out", int(1), true),
            if_(eq(int(0), int(1)), vec![store("out", int(0), var("never"))]),
            for_(
                "p",
                int(0),
                int(2),
                vec![
                    if_(
                        eq(var("p"), int(1)),
                        vec![store("out", int(0), var("late"))],
                    ),
                    assign("late", float(2.5)),
                ],
            ),
        ]);
        result.unwrap();
        assert_eq!(interp.buffer("out").unwrap().as_floats().unwrap(), &[2.5]);
        // `x = b[0]` is typed float by `b`'s `Alloc`, which follows it; the
        // load runs on the second trip.
        let (interp, result) = run(vec![
            alloc_float("out", int(1), true),
            for_(
                "p",
                int(0),
                int(2),
                vec![
                    if_(
                        eq(var("p"), int(1)),
                        vec![
                            assign("x", load("b", int(0))),
                            store("out", int(0), var("x")),
                        ],
                    ),
                    alloc_float("b", int(1), true),
                    store("b", int(0), float(1.5)),
                ],
            ),
        ]);
        result.unwrap();
        assert_eq!(interp.buffer("out").unwrap().as_floats().unwrap(), &[1.5]);
        // A read before any assignment still fails when it runs.
        let (_, result) = run(vec![decl("y", var("x")), decl("x", int(1))]);
        assert_eq!(result, Err(InterpError::UndefinedVariable("x".into())));
    }

    #[test]
    fn conflicting_definitions_are_type_errors() {
        let is_type_error = |result: Result<(), InterpError>| {
            assert!(
                matches!(&result, Err(InterpError::TypeError(msg)) if msg.contains("both")),
                "{result:?}"
            );
        };
        is_type_error(run(vec![decl("x", int(0)), assign("x", float(1.5))]).1);
        is_type_error(
            run(vec![
                for_("x", int(0), int(1), vec![]),
                decl("x", float(1.0)),
            ])
            .1,
        );
        is_type_error(
            run(vec![
                alloc_int("b", int(1), true),
                alloc_float("b", int(1), true),
            ])
            .1,
        );
        let mut interp = Interpreter::new();
        interp.insert_int("n", 3);
        interp.insert_buffer("v", Buffer::Floats(vec![0.0]));
        let f = Function::new("f", vec![], vec![decl("n", float(0.5))]);
        is_type_error(interp.run(&f));
        let f = Function::new("f", vec![], vec![alloc_int("v", int(1), true)]);
        is_type_error(interp.run(&f));
        // Nothing ran: the bound inputs are untouched.
        assert_eq!(interp.int("n"), Some(3));
        assert_eq!(interp.buffer("v"), Some(&Buffer::Floats(vec![0.0])));
        // Inserting replaces a binding, whatever its type was.
        interp.insert_buffer("v", Buffer::Ints(vec![7]));
        let f = Function::new("f", vec![], vec![store_add("v", int(0), int(1))]);
        interp.run(&f).unwrap();
        assert_eq!(interp.buffer("v"), Some(&Buffer::Ints(vec![8])));
        // `|=` has no float form.
        let or_float = vec![
            alloc_float("f", int(1), true),
            store_or("f", int(0), int(1)),
        ];
        assert!(matches!(run(or_float).1, Err(InterpError::TypeError(_))));
    }

    #[test]
    fn interpreter_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Interpreter>();
    }

    #[test]
    fn definitions_keep_their_types_across_runs_and_reads_give_none() {
        let mut interp = Interpreter::new();
        let mut run = |body| interp.run(&Function::new("f", vec![], body));
        // `z` and `c` are only read, on a path never taken: they get no type.
        let never = eq(int(0), int(1));
        let reads = vec![if_(
            never,
            vec![decl("y", add(var("z"), load("c", int(0))))],
        )];
        run(reads).unwrap();
        run(vec![decl("z", float(1.5)), alloc_float("c", int(1), true)]).unwrap();
        // `y` was defined, as an int: it stays one.
        let result = run(vec![decl("y", float(1.5))]);
        assert!(
            matches!(result, Err(InterpError::TypeError(_))),
            "{result:?}"
        );
        run(vec![decl("y", int(2))]).unwrap();
        assert_eq!(interp.int("y"), Some(2));
    }

    #[test]
    fn every_error_keeps_its_payload() {
        let mut interp = Interpreter::new();
        interp.insert_buffer("a", Buffer::Ints(vec![1, 2]));
        let err = |e: Expr| interp.eval(&e).unwrap_err();
        assert_eq!(
            err(var("nope")),
            InterpError::UndefinedVariable("nope".into())
        );
        assert_eq!(
            err(load("gone", int(0))),
            InterpError::UndefinedBuffer("gone".into())
        );
        for index in [-1, 2] {
            let buffer = "a".to_string();
            let oob = InterpError::OutOfBounds {
                buffer,
                index,
                len: 2,
            };
            assert_eq!(err(load("a", int(index))), oob);
        }
        let InterpError::TypeError(msg) = err(load("a", float(0.5))) else {
            panic!("a float index is a type error");
        };
        assert!(msg.contains("0.5"), "{msg}");
        assert_eq!(err(rem(int(3), int(0))), InterpError::DivisionByZero);
        let (_, result) = run(vec![alloc_int("a", int(-3), true)]);
        assert_eq!(result, Err(InterpError::NegativeAllocation(-3)));
        let spin = Stmt::While {
            cond: int(1),
            body: vec![],
        };
        let mut interp = Interpreter::new();
        interp.while_budget = 3;
        let result = interp.run(&Function::new("f", vec![], vec![spin]));
        assert_eq!(result, Err(InterpError::IterationLimit));
        assert_eq!(
            InterpError::AllocationFailed(7).to_string(),
            "cannot allocate 7 elements"
        );
    }

    #[test]
    fn int_min_over_minus_one_wraps() {
        let interp = Interpreter::new();
        let (lhs, rhs) = (int(i64::MIN), int(-1));
        assert_eq!(
            interp.eval(&div(lhs.clone(), rhs.clone())),
            Ok(Scalar::Int(i64::MIN))
        );
        assert_eq!(interp.eval(&rem(lhs, rhs)), Ok(Scalar::Int(0)));
    }

    #[test]
    fn int_store_add_wraps() {
        let mut interp = Interpreter::new();
        interp.insert_buffer("a", Buffer::Ints(vec![i64::MAX]));
        let f = Function::new("f", vec![], vec![store_add("a", int(0), int(1))]);
        interp.run(&f).unwrap();
        assert_eq!(interp.buffer("a").unwrap().as_ints().unwrap(), &[i64::MIN]);
    }

    #[test]
    fn allocations_too_large_to_make_are_errors() {
        let (_, result) = run(vec![alloc_int("a", int(i64::MAX), false)]);
        assert_eq!(result, Err(InterpError::AllocationFailed(i64::MAX)));
        let (_, result) = run(vec![alloc_float("a", int(1 << 61), true)]);
        assert_eq!(result, Err(InterpError::AllocationFailed(1 << 61)));
    }

    #[test]
    fn buffer_views_are_typed() {
        let (ints, floats) = (Buffer::Ints(vec![1]), Buffer::Floats(vec![1.0]));
        assert_eq!(ints.as_ints(), Some(&[1][..]));
        assert_eq!(ints.as_floats(), None);
        assert_eq!(floats.as_floats(), Some(&[1.0][..]));
        assert_eq!(floats.as_ints(), None);
    }
}
