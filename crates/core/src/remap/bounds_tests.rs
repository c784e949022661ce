//! Unit tests of `crate::remap::bounds`, mounted at the crate root by `lib.rs` so that
//! they run as `bounds::tests::…`.

mod tests {
    use crate::remap::bounds::*;
    use crate::remap::error::RemapError;
    use crate::remap::parser::parse_remapping;
    use sparse_tensor::DimBounds;

    #[test]
    fn dia_offset_bounds_cover_2n_minus_1_diagonals() {
        // For an N x N matrix, j - i ranges over [-(N-1), N-1]: 2N-1 values,
        // matching the `bool nz[2 * N - 1]` allocation in Figure 6a.
        let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[100, 100]);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0], DimBounds::new(-99, 100));
        assert_eq!(bounds[0].extent(), 199);
        assert_eq!(bounds[1], DimBounds::new(0, 100));
        assert_eq!(bounds[2], DimBounds::new(0, 100));
    }

    #[test]
    fn rectangular_dia_bounds() {
        let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[4, 6]);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0], DimBounds::new(-3, 6));
    }

    #[test]
    fn bcsr_block_bounds_use_parameters() {
        let remap = parse_remapping("(i,j) -> (i/M,j/N,i,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[8, 12])
            .with_param("M", 2)
            .with_param("N", 3);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0], DimBounds::new(0, 4));
        assert_eq!(bounds[1], DimBounds::new(0, 4));
    }

    #[test]
    fn counter_bounds_use_other_dimensions_and_nnz() {
        let remap = parse_remapping("(i,j) -> (#i,i,j)").unwrap();
        // Without nnz: at most `cols` nonzeros per row.
        let env = BoundsEnv::for_remapping(&remap, &[4, 6]);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0], DimBounds::new(0, 6));
        // With nnz = 3 the counter cannot exceed 2.
        let env = BoundsEnv::for_remapping(&remap, &[4, 6]).with_nnz(3);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0], DimBounds::new(0, 3));
    }

    #[test]
    fn morton_bits_are_bounded() {
        let remap = parse_remapping("(i,j) -> (r=i/4 in s=j/4 in (r&1)|((s&1)<<1),i,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[16, 16]);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0].lower, 0);
        assert!(
            bounds[0].upper <= 4,
            "two interleaved bits fit in [0, 4), got {}",
            bounds[0]
        );
    }

    #[test]
    fn division_by_zero_parameter_is_detected() {
        let remap = parse_remapping("(i,j) -> (i/M,i,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[4, 4]).with_param("M", 0);
        assert!(matches!(
            infer_bounds(&remap, &env),
            Err(RemapError::DivisionByZero)
        ));
    }

    #[test]
    fn missing_bindings_are_reported() {
        let remap = parse_remapping("(i,j) -> (i/M,i,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[4, 4]);
        assert!(matches!(
            infer_bounds(&remap, &env),
            Err(RemapError::MissingParameter(_))
        ));
        let remap = parse_remapping("(i,j) -> (i,j)").unwrap();
        let env = BoundsEnv::new().with_var("i", DimBounds::from_extent(4));
        assert!(matches!(
            infer_bounds(&remap, &env),
            Err(RemapError::UnboundVariable(_))
        ));
    }

    #[test]
    fn modulo_of_nonnegative_dividend_is_nonnegative() {
        let remap = parse_remapping("(i,j) -> (i%M,j)").unwrap();
        let env = BoundsEnv::for_remapping(&remap, &[100, 100]).with_param("M", 8);
        let bounds = infer_bounds(&remap, &env).unwrap();
        assert_eq!(bounds[0], DimBounds::new(0, 8));
    }
}
