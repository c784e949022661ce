//! Unit tests of `crate::ir::emit`, mounted at the crate root by `lib.rs` so that
//! they run as `emit::tests::…`.

pub(crate) mod tests {
    use proptest::prelude::*;

    use crate::ir::build::*;
    use crate::ir::checked::{InterpError, Inputs, Outputs, Param};
    use crate::ir::compiled;
    use crate::ir::emit::*;
    use crate::ir::expr::{Expr, IrBinOp};
    use crate::ir::interp::*;
    use crate::ir::stmt::{Function, Stmt};

    /// Every output, tagged with its kind, as bits.
    pub(crate) fn bits(outputs: &Outputs) -> Vec<(String, Vec<u64>)> {
        let ints = outputs.ints.iter().map(|(name, v)| (format!("ints {name}"), v.iter().map(|&x| x as u64).collect()));
        let floats = outputs.floats.iter().map(|(name, v)| (format!("floats {name}"), v.iter().map(|x| x.to_bits()).collect()));
        let scalars = outputs.scalars.iter().map(|(name, v)| (format!("int {name}"), vec![*v as u64]));
        ints.chain(floats).chain(scalars).collect()
    }

    /// Runs `function` in the interpreter on `inputs`, bound to the names
    /// `params` gives them (integer arrays widened to `i64`, as a compiled
    /// routine widens what it loads), and returns the `outputs` it leaves, as
    /// a compiled routine returns them.
    pub(crate) fn interpret(
        function: &Function,
        params: &[(String, Param)],
        inputs: &Inputs,
        outputs: &[(&'static str, Param)],
    ) -> Result<Outputs, InterpError> {
        let mut interp = Interpreter::new();
        let (mut ints, mut floats, mut scalars) = (inputs.ints.iter(), inputs.floats.iter(), inputs.scalars.iter());
        for (name, param) in params {
            match param {
                Param::Ints => {
                    let widened = ints.next().expect("bound").iter().map(|&x| x as i64);
                    interp.insert_buffer(name, Buffer::Ints(widened.collect()));
                }
                Param::Floats => interp.insert_buffer(name, Buffer::Floats(floats.next().expect("bound").to_vec())),
                Param::Int => interp.insert_int(name, *scalars.next().expect("bound")),
            }
        }
        interp.run(function)?;
        let mut out = Outputs::default();
        for &(name, param) in outputs {
            let buffer = interp.buffer(name);
            match param {
                Param::Ints => out.ints.push((name, buffer.and_then(Buffer::as_ints).expect("left").to_vec())),
                Param::Floats => out.floats.push((name, buffer.and_then(Buffer::as_floats).expect("left").to_vec())),
                Param::Int => out.scalars.push((name, interp.int(name).expect("left"))),
            }
        }
        Ok(out)
    }

    fn ints(name: &str) -> (String, Param) {
        (name.to_string(), Param::Ints)
    }

    fn emit(body: Vec<Stmt>, params: &[(String, Param)]) -> Result<String, InterpError> {
        emit_returning(body, params, &[])
    }

    fn emit_returning(
        body: Vec<Stmt>,
        params: &[(String, Param)],
        outputs: &[(&str, Param)],
    ) -> Result<String, InterpError> {
        let names = params.iter().map(|(name, _)| name.clone()).collect();
        emit_function(&Function::new("f", names, body), params, outputs)
    }

    fn bin(op: IrBinOp, l: Expr, r: Expr) -> Expr {
        Expr::binary(op, l, r)
    }

    /// A routine that uses every expression and statement of the IR, with
    /// faults (a zero divisor, an index out of bounds) that depend on its
    /// inputs `xs`, `vs` and `n`, and the outputs it returns. Its scalars
    /// `last`, `zeros` and `late` are defined on some paths only, and are
    /// not returned. `codegen`'s freshness test compiles it into
    /// `compiled.rs` under `#[cfg(test)]`.
    pub(crate) type Fixture = (Function, Vec<(String, Param)>, Vec<(&'static str, Param)>);

    pub(crate) fn fixture() -> Fixture {
        let params = vec![
            ints("xs"),
            ("vs".to_string(), Param::Floats),
            ("n".to_string(), Param::Int),
        ];
        let (x, v) = (var("x"), load("vs", var("i")));
        let o = |slot: i64, value: Expr| store("o", int(slot), value);
        let select = |cond: Expr, then: Expr, otherwise: Expr| Expr::Select {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        };
        let body = vec![
            comment("every expression, on every element"),
            alloc_int("o", int(16), true),
            alloc_float("f", int(8), false),
            decl("acc", int(i64::MIN)),
            decl("facc", float(0.5)),
            for_(
                "i",
                int(0),
                var("n"),
                vec![
                    decl("x", load("xs", var("i"))),
                    assign("acc", add(var("acc"), mul(x.clone(), int(3)))),
                    store_add("o", int(0), x.clone()),
                    store_max("o", int(1), x.clone()),
                    store_or("o", int(2), x.clone()),
                    o(3, div(int(100), sub(x.clone(), int(-1)))),
                    o(4, rem(var("acc"), x.clone())),
                    o(5, bin(IrBinOp::Shl, x.clone(), int(65))),
                    o(6, bin(IrBinOp::Shr, var("acc"), x.clone())),
                    o(7, bin(IrBinOp::BitXor, x.clone(), bin(IrBinOp::BitAnd, var("acc"), int(-4)))),
                    o(8, bin(IrBinOp::LogicalAnd, x.clone(), bin(IrBinOp::BitOr, var("acc"), x.clone()))),
                    o(9, bin(IrBinOp::LogicalOr, x.clone(), var("acc"))),
                    o(10, select(gt(x.clone(), int(2)), x.clone(), int(-2))),
                    o(11, Expr::Not(Box::new(x.clone()))),
                    o(12, min(x.clone(), var("acc"))),
                    o(13, max(x.clone(), int(-1))),
                    store("o", x.clone(), le(x.clone(), var("n"))),
                    assign("facc", add(mul(var("facc"), v.clone()), x.clone())),
                    store_add("f", int(0), v.clone()),
                    store_max("f", int(1), v.clone()),
                    store("f", int(2), div(v.clone(), x.clone())),
                    store("f", int(3), select(lt(v.clone(), float(0.0)), float(-0.0), float(f64::NAN))),
                    store("f", int(4), min(v.clone(), float(-1e300))),
                    store("f", int(5), sub(v.clone(), var("facc"))),
                    store("f", int(6), select(eq(v.clone(), v.clone()), x.clone(), v.clone())),
                    if_else(
                        ne(x.clone(), int(0)),
                        vec![decl("last", x.clone())],
                        vec![assign("zeros", add(var("i"), int(1)))],
                    ),
                ],
            ),
            decl("w", int(0)),
            Stmt::While {
                cond: lt(var("w"), load("xs", int(0))),
                body: vec![assign("w", add(var("w"), int(1)))],
            },
            if_(ge(var("w"), int(2)), vec![decl("late", float(2.5))]),
            store("f", int(7), var("facc")),
        ];
        let outputs = vec![
            ("o", Param::Ints),
            ("f", Param::Floats),
            ("acc", Param::Int),
            ("w", Param::Int),
        ];
        (Function::new("emit_fixture", vec![], body), params, outputs)
    }

    #[test]
    fn reads_before_definition_are_refused() {
        let read_first = vec![decl("y", var("x")), decl("x", int(1))];
        assert_eq!(
            emit(read_first, &[]),
            Err(InterpError::UndefinedVariable("x".into()))
        );
        // Defined on one branch only, or only inside a loop that may not run.
        let one_branch = vec![
            if_(int(1), vec![decl("x", int(1))]),
            decl("y", var("x")),
        ];
        assert_eq!(
            emit(one_branch, &[]),
            Err(InterpError::UndefinedVariable("x".into()))
        );
        let in_loop = vec![
            for_("i", int(0), int(3), vec![alloc_int("b", int(1), true)]),
            store("b", int(0), int(1)),
        ];
        assert_eq!(
            emit(in_loop, &[]),
            Err(InterpError::UndefinedBuffer("b".into()))
        );
        // An output some path leaves undefined is refused as such a read.
        let n = [("n".into(), Param::Int)];
        let one_path = || vec![if_(var("n"), vec![alloc_int("b", int(1), true), decl("x", int(1))])];
        assert!(emit(one_path(), &n).is_ok(), "defined on one path, never read");
        assert_eq!(
            emit_returning(one_path(), &n, &[("b", Param::Ints)]),
            Err(InterpError::UndefinedBuffer("b".into()))
        );
        assert_eq!(
            emit_returning(one_path(), &n, &[("x", Param::Int)]),
            Err(InterpError::UndefinedVariable("x".into()))
        );
        // Both branches define it: the read is fine.
        let both = vec![
            if_else(int(1), vec![decl("x", int(1))], vec![decl("x", int(2))]),
            decl("y", var("x")),
        ];
        assert!(emit(both, &[]).is_ok());
    }

    #[test]
    fn what_the_emitter_does_not_take_is_refused() {
        let refused = |body: Vec<Stmt>, params: &[(String, Param)], what: &str| {
            let Err(InterpError::TypeError(why)) = emit(body, params) else {
                panic!("{what} was emitted");
            };
            assert!(why.contains(what), "{why}");
        };
        refused(vec![store("xs", int(0), int(1))], &[ints("xs")], "writes its input `xs`");
        refused(vec![alloc_int("xs", int(1), true)], &[ints("xs")], "writes its input `xs`");
        refused(vec![decl("x-y", int(1))], &[], "not an identifier");
        let n = [("n".into(), Param::Int)];
        refused(vec![assign("n", add(var("n"), int(1)))], &n, "writes its input `n`");
        let returned = |body: Vec<Stmt>, params: &[(String, Param)], outputs: &[(&str, Param)], what: &str| {
            let Err(InterpError::TypeError(why)) = emit_returning(body, params, outputs) else {
                panic!("{what} was emitted");
            };
            assert!(why.contains(what), "{why}");
        };
        returned(vec![], &[ints("xs")], &[("xs", Param::Ints)], "returns its input `xs`");
        let floats = vec![alloc_float("b", int(1), true)];
        returned(floats, &[], &[("b", Param::Ints)], "`b` is not Ints");
        returned(vec![decl("x", float(1.0))], &[], &[("x", Param::Int)], "`x` is not Int");
    }

    #[test]
    fn type_errors_are_the_interpreters() {
        let body = vec![decl("x", int(1)), decl("x", float(1.0))];
        let function = Function::new("f", vec![], body.clone());
        let expected = Interpreter::new().run(&function).unwrap_err();
        assert!(matches!(expected, InterpError::TypeError(_)));
        assert_eq!(emit(body, &[]), Err(expected));
    }

    /// The compiled routines carry no unchecked access and nothing that can
    /// panic.
    #[test]
    fn the_compiled_file_has_no_unchecked_access_and_no_panics() {
        let text = include_str!("compiled.rs");
        assert!(text.starts_with("// @generated"));
        for banned in ["unsafe", "get_unchecked", "unwrap(", "expect(", "panic!"] {
            assert!(!text.contains(banned), "`{banned}` in compiled.rs");
        }
        // No indexing either: every access goes through `checked`.
        let code = text.lines().map(str::trim_start);
        let code = code.filter(|l| !l.starts_with("//") && !l.starts_with('#'));
        assert!(code.clone().all(|l| !l.contains('[')), "an index in compiled.rs");
        assert!(code.count() > 1000);
    }

    const PAYLOADS: [f64; 6] = [1.5, -0.0, 0.0, f64::NAN, -7.0, f64::INFINITY];

    proptest! {
        /// The fixture's compiled and interpreted runs return the same error,
        /// or the same outputs, bit for bit.
        #[test]
        fn the_compiled_fixture_matches_the_interpreter((xs, vs, extra) in (
            proptest::collection::vec(-3i64..20, 1..12),
            proptest::collection::vec(0..PAYLOADS.len(), 12..13),
            0i64..3,
        )) {
            let (function, params, outputs) = fixture();
            let routine = compiled::lookup("emit_fixture").expect("compiled for tests");
            let n = xs.len() as i64 + extra - 1;
            // The routine reads `usize`s: a negative entry is what a wrapped
            // coordinate would be.
            let xs: Vec<usize> = xs.into_iter().map(|x| x as usize).collect();
            let vs: Vec<f64> = vs.into_iter().map(|p| PAYLOADS[p]).collect();
            let inputs = Inputs { ints: vec![&xs], floats: vec![&vs], scalars: vec![n] };
            let expected = interpret(&function, &params, &inputs, &outputs);
            let got = routine(&inputs).map_err(|fault| *fault);
            prop_assert_eq!(expected.as_ref().map(bits), got.as_ref().map(bits));
        }
    }
}
