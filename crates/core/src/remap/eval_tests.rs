//! Unit tests of `crate::remap::eval`, mounted at the crate root by `lib.rs` so that
//! they run as `eval::tests::…`.

mod tests {
    use crate::remap::ast::{BinOp, Remapping};
    use crate::remap::error::RemapError;
    use crate::remap::eval::*;
    use crate::remap::parser::parse_remapping;
    use sparse_tensor::example::figure1_matrix;
    use sparse_tensor::DimBounds;

    #[test]
    fn dia_remapping_matches_figure5() {
        // (i,j) -> (j-i,i,j): each nonzero's first coordinate is its diagonal
        // offset.
        let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap);
        assert_eq!(ctx.apply(&[2, 0]).unwrap(), vec![-2, 2, 0]);
        assert_eq!(ctx.apply(&[0, 0]).unwrap(), vec![0, 0, 0]);
        assert_eq!(ctx.apply(&[3, 4]).unwrap(), vec![1, 3, 4]);

        let remapped = ctx.apply_all(&figure1_matrix()).unwrap();
        assert_eq!(remapped.nnz(), 9);
        assert_eq!(remapped.bounds[0], DimBounds::new(-2, 2));
        assert_eq!(remapped.bounds[1], DimBounds::new(0, 4));
        assert_eq!(remapped.bounds[2], DimBounds::new(0, 5));
        // Exactly three distinct diagonals, matching Figure 5.
        let mut offsets: Vec<i64> = remapped.triples.iter().map(|(c, _)| c[0]).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets, vec![-2, 0, 1]);
    }

    #[test]
    fn ell_counter_remapping_matches_figure9() {
        // (i,j) -> (#i,i,j): the k-th nonzero of each row maps to slice k.
        let remap = parse_remapping("(i,j) -> (#i,i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap);
        let remapped = ctx.apply_all(&figure1_matrix()).unwrap();
        // Row nonzero counts are [2,2,2,3], so slices 0 and 1 hold 4 and 4
        // entries... slice 0 holds one entry per nonempty row.
        let slice_of = |k: i64| remapped.triples.iter().filter(|(c, _)| c[0] == k).count();
        assert_eq!(slice_of(0), 4);
        assert_eq!(slice_of(1), 4);
        assert_eq!(slice_of(2), 1);
        assert_eq!(remapped.bounds[0], DimBounds::new(0, 3));
        // Slice 2 contains only the third nonzero of row 3, which is (3,4)=6.
        let last = remapped.triples.iter().find(|(c, _)| c[0] == 2).unwrap();
        assert_eq!(last.0, vec![2, 3, 4]);
        assert_eq!(last.1, 6.0);
    }

    #[test]
    fn bcsr_remapping_uses_parameters() {
        let remap = parse_remapping("(i,j) -> (i/M,j/N,i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap)
            .with_param("M", 2)
            .with_param("N", 3);
        assert_eq!(ctx.apply(&[3, 4]).unwrap(), vec![1, 1, 3, 4]);
        // Missing parameter is an error.
        let mut bare = EvalContext::new(&remap);
        assert!(matches!(
            bare.apply(&[1, 1]),
            Err(RemapError::MissingParameter(_))
        ));
    }

    #[test]
    fn let_bindings_and_bitops_compute_morton_bits() {
        let remap = parse_remapping("(i,j) -> (r=i/2 in s=j/2 in (r&1)|((s&1)<<1),i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap);
        assert_eq!(ctx.apply(&[2, 2]).unwrap()[0], 0b01 | 0b10);
        assert_eq!(ctx.apply(&[0, 2]).unwrap()[0], 0b10);
        assert_eq!(ctx.apply(&[2, 0]).unwrap()[0], 0b01);
        assert_eq!(ctx.apply(&[0, 0]).unwrap()[0], 0);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let remap = parse_remapping("(i,j) -> (i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap);
        assert!(matches!(
            ctx.apply(&[1]),
            Err(RemapError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn division_and_shift_errors() {
        assert_eq!(apply_binop(BinOp::Div, 7, 2).unwrap(), 3);
        assert!(matches!(
            apply_binop(BinOp::Div, 1, 0),
            Err(RemapError::DivisionByZero)
        ));
        assert!(matches!(
            apply_binop(BinOp::Rem, 1, 0),
            Err(RemapError::DivisionByZero)
        ));
        assert!(matches!(
            apply_binop(BinOp::Shl, 1, 64),
            Err(RemapError::InvalidShift(64))
        ));
        assert!(matches!(
            apply_binop(BinOp::Shr, 1, -1),
            Err(RemapError::InvalidShift(-1))
        ));
        assert_eq!(apply_binop(BinOp::Xor, 0b1100, 0b1010).unwrap(), 0b0110);
    }

    #[test]
    fn operators_keep_the_generated_code_semantics() {
        use BinOp::*;
        // The operators as the generated C code has them, checked one pair
        // at a time.
        let reference = |op, a: i64, b: i64| match op {
            Div | Rem if b == 0 => Err(RemapError::DivisionByZero),
            Shl | Shr if !(0..64).contains(&b) => Err(RemapError::InvalidShift(b)),
            Add => Ok(a.wrapping_add(b)),
            Sub => Ok(a.wrapping_sub(b)),
            Mul => Ok(a.wrapping_mul(b)),
            Div => Ok(a / b),
            Rem => Ok(a % b),
            Shl => Ok(a << b),
            Shr => Ok(a >> b),
            And => Ok(a & b),
            Or => Ok(a | b),
            Xor => Ok(a ^ b),
        };
        let lhs = [
            i64::MIN,
            i64::MIN + 1,
            -17,
            -8,
            -5,
            -4,
            -1,
            0,
            1,
            3,
            4,
            7,
            8,
            17,
            i64::MAX,
        ];
        for op in [Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor] {
            for rhs in [-8, -4, -3, -1, 0, 1, 2, 3, 4, 8, 16, 63, 64, 1 << 40] {
                for a in lhs {
                    if matches!(op, Div | Rem) && rhs == -1 && a == i64::MIN {
                        continue; // overflows in both
                    }
                    assert_eq!(
                        apply_binop(op, a, rhs),
                        reference(op, a, rhs),
                        "{a} {op:?} {rhs}"
                    );
                }
            }
        }
        // A zero divisor still fails at the first nonzero, a constant or a
        // parameter alike, and a missing parameter is reported as such.
        let remap = parse_remapping("(i,j) -> (i/B,j%0)").unwrap();
        let ctx = EvalContext::new(&remap).with_param("B", 0);
        let (i, j) = ([5usize, 6], [1usize, 2]);
        let err = ctx.remap_columns(&[&i, &j]).unwrap_err();
        assert_eq!(err, RemapError::DivisionByZero);
        let missing = EvalContext::new(&remap).remap_columns(&[&i, &j]);
        assert_eq!(missing, Err(RemapError::MissingParameter("B".into())));
        let quarters = parse_remapping("(i,j) -> (i/4,i%4,j/B,j%B)").unwrap();
        let ctx = EvalContext::new(&quarters).with_param("B", 4);
        let (i, j) = ([0usize, 3, 4, 9], [7usize, 8, 1, 12]);
        let cols = ctx.remap_columns(&[&i, &j]).unwrap();
        assert_eq!(
            cols,
            vec![
                vec![0, 0, 1, 2],
                vec![0, 3, 0, 1],
                vec![1, 2, 0, 3],
                vec![3, 0, 1, 0]
            ]
        );
    }

    #[test]
    fn counters_reset_between_passes() {
        let remap = parse_remapping("(i,j) -> (#i,i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap);
        let first = ctx.apply_all(&figure1_matrix()).unwrap();
        let second = ctx.apply_all(&figure1_matrix()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn counter_state_peek_and_next() {
        let mut state = CounterState::new();
        let vars = vec!["i".to_string()];
        assert_eq!(state.peek(&vars, &[3]), 0);
        assert_eq!(state.next(&vars, vec![3]), 0);
        assert_eq!(state.next(&vars, vec![3]), 1);
        assert_eq!(state.next(&vars, vec![4]), 0);
        assert_eq!(state.peek(&vars, &[3]), 2);
        state.reset();
        assert_eq!(state.peek(&vars, &[3]), 0);
    }

    #[test]
    fn identity_remapping_is_a_no_op() {
        let remap = Remapping::identity(2);
        let mut ctx = EvalContext::new(&remap);
        let m = figure1_matrix();
        let remapped = ctx.apply_all(&m).unwrap();
        for ((coord, value), t) in remapped.triples.iter().zip(m.iter()) {
            assert_eq!(coord, &t.coord);
            assert_eq!(*value, t.value);
        }
    }

    #[test]
    fn sorted_order_is_lexicographic_in_remapped_space() {
        let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        let mut ctx = EvalContext::new(&remap);
        let remapped = ctx.apply_all(&figure1_matrix()).unwrap();
        let sorted = remapped.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        // First stored nonzero is the first entry of the -2 diagonal: (2,0)=8.
        assert_eq!(sorted[0].0, vec![-2, 2, 0]);
        assert_eq!(sorted[0].1, 8.0);
    }
}
