//! Unit tests of `crate::ir::checked`, mounted at the crate root by `lib.rs` so that
//! they run as `checked::tests::…`.

mod tests {
    use crate::ir::build::{alloc_float, alloc_int, decl, int, load};
    use crate::ir::build::{store, store_add, store_max, store_or};
    use crate::ir::checked::*;
    use crate::ir::interp::*;
    use crate::ir::stmt::{Function, Stmt};

    /// `result`'s error, unboxed.
    fn fault<T>(result: Checked<T>) -> Result<T, InterpError> {
        result.map_err(|fault| *fault)
    }

    /// The error the interpreter returns for `body`, with `data = [10, 20,
    /// 30]` bound and a `while` budget of 3.
    fn interpreted(body: Vec<Stmt>) -> InterpError {
        let mut interp = Interpreter::new();
        interp.insert_buffer("data", Buffer::Ints(vec![10, 20, 30]));
        interp.while_budget = 3;
        let function = Function::new("f", vec!["data".into()], body);
        interp.run(&function).expect_err("the body faults")
    }

    #[test]
    fn out_of_bounds_loads_and_stores_keep_the_interpreters_payload() {
        let mut data = vec![10_i64, 20, 30];
        for index in [-1, 3] {
            let expected = InterpError::OutOfBounds {
                buffer: "data".into(),
                index,
                len: 3,
            };
            let load = interpreted(vec![decl("x", load("data", int(index)))]);
            assert_eq!(load, expected);
            assert_eq!(fault(ld(&data, index, "data")), Err(expected.clone()));
            let stores = [
                (store("data", int(index), int(1)), fault(update(index, 1, &mut data, "data", |_, v| v))),
                (store_add("data", int(index), int(1)), fault(update(index, 1, &mut data, "data", i64::wrapping_add))),
                (store_max("data", int(index), int(1)), fault(update(index, 1, &mut data, "data", i64::max))),
                (store_or("data", int(index), int(1)), fault(update(index, 1, &mut data, "data", |a, b| a | b))),
            ];
            for (stmt, compiled) in stores {
                assert_eq!(interpreted(vec![stmt]), expected);
                assert_eq!(compiled, Err(expected.clone()));
            }
        }
        assert_eq!(data, [10, 20, 30], "a failed store writes nothing");
        let mut floats = vec![1.0_f64, f64::NAN];
        assert_eq!(ld(&floats, 1, "v").map(f64::is_nan), Ok(true));
        assert_eq!(update(0, 2.5, &mut floats, "v", f64::max), Ok(()));
        assert_eq!(floats[0], 2.5);
    }

    #[test]
    fn allocation_sizes_keep_the_interpreters_payload() {
        for (size, expected) in [
            (-1, InterpError::NegativeAllocation(-1)),
            (i64::MAX, InterpError::AllocationFailed(i64::MAX)),
        ] {
            assert_eq!(interpreted(vec![alloc_float("b", int(size), true)]), expected);
            assert_eq!(fault(alloc::<f64>(size)), Err(expected.clone()));
            assert_eq!(interpreted(vec![alloc_int("b", int(size), true)]), expected);
            assert_eq!(fault(alloc::<i64>(size)), Err(expected));
        }
        assert_eq!(alloc::<i64>(3), Ok(vec![0; 3]));
        assert_eq!(alloc::<f64>(0), Ok(vec![]));
    }

    #[test]
    fn zero_divisors_and_runaway_loops_keep_the_interpreters_payload() {
        let expected = InterpError::DivisionByZero;
        let (div_ir, rem_ir) = (crate::ir::build::div, crate::ir::build::rem);
        assert_eq!(interpreted(vec![decl("x", div_ir(int(1), int(0)))]), expected);
        assert_eq!(interpreted(vec![decl("x", rem_ir(int(1), int(0)))]), expected);
        assert_eq!(fault(div(1, 0)), Err(expected.clone()));
        assert_eq!(fault(rem(1, 0)), Err(expected));
        // Both wrap where the quotient does not fit, as the interpreter does.
        assert_eq!(div(i64::MIN, -1), Ok(i64::MIN));
        assert_eq!(rem(i64::MIN, -1), Ok(0));
        let forever = Stmt::While {
            cond: int(1),
            body: vec![],
        };
        assert_eq!(interpreted(vec![forever]), InterpError::IterationLimit);
        let mut left = 3;
        for _ in 0..3 {
            assert_eq!(fault(tick(&mut left)), Ok(()));
        }
        assert_eq!(fault(tick(&mut left)), Err(InterpError::IterationLimit));
    }
}
