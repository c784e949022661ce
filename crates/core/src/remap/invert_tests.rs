//! Unit tests of `crate::remap::invert`, mounted at the crate root by `lib.rs` so that
//! they run as `invert::tests::…`.

mod tests {
    use crate::remap::ast::Remapping;
    use crate::remap::eval::EvalContext;
    use crate::remap::parser::parse_remapping;

    fn roundtrips(remap: &Remapping, src: &[i64]) {
        let inv = remap.inverter().expect("invertible");
        let mut ctx = EvalContext::new(remap);
        let dest = ctx.apply(src).expect("remapping applies");
        assert_eq!(inv.apply(&dest), src, "{remap}: {src:?}");
    }

    #[test]
    fn stock_remappings_are_invertible() {
        // The stock rows' remappings, BCSR's block constructor, and HiCOO
        // over 2x2 tiles with 2-bit Morton codes.
        let texts = [
            "(i,j) -> (i,j)",
            "(i,j) -> (j,i)",
            "(i,j) -> (j-i,i,j)",
            "(i,j) -> (k=#i in k,i,j)",
            "(i,j) -> (#i,i,j)",
            "(i,j) -> (r=i/2 in s=j/2 in (r&1)|((s&1)<<1)|(((r>>1)&1)<<2)|(((s>>1)&1)<<3),\
             i/2,j/2,u=i%2 in v=j%2 in (u&1)|((v&1)<<1)|(((u>>1)&1)<<2)|(((v>>1)&1)<<3),i,j)",
        ];
        let parsed = texts.map(|text| parse_remapping(text).unwrap());
        for remap in parsed.into_iter().chain([Remapping::blocked(2, 3)]) {
            assert!(remap.is_invertible(), "{remap}");
            for point in [[0i64, 0], [3, 5], [7, 2]] {
                roundtrips(&remap, &point);
            }
        }
        assert!(Remapping::identity(3).is_invertible());
        roundtrips(&Remapping::identity(3), &[1, 4, 2]);
    }

    #[test]
    fn div_rem_recombination_recovers_block_coordinates() {
        let remap = parse_remapping("(i,j) -> (i/2,j/4,i%2,j%4)").unwrap();
        let inv = remap.inverter().unwrap();
        // Storage tuple (bi, bj, li, lj) = (3, 1, 1, 2) -> (i, j) = (7, 6).
        assert_eq!(inv.apply(&[3, 1, 1, 2]), vec![7, 6]);
        for i in 0..9i64 {
            for j in 0..9i64 {
                roundtrips(&remap, &[i, j]);
            }
        }
    }

    #[test]
    fn folded_and_counter_only_remappings_are_not_invertible() {
        // The column is erased: only a counter and the row survive.
        let remap = parse_remapping("(i,j) -> (#i,i)").unwrap();
        assert!(!remap.is_invertible());
        // Folded: i+j cannot be split back.
        let remap = parse_remapping("(i,j) -> (i+j,i*2)").unwrap();
        assert!(!remap.is_invertible());
        // A div without the matching rem loses the low bits.
        let remap = parse_remapping("(i,j) -> (i/2,j)").unwrap();
        assert!(!remap.is_invertible());
        // Let-wrapped projections do not count as projections.
        let remap = parse_remapping("(i,j) -> (r=i in r,j)").unwrap();
        assert!(!remap.is_invertible());
    }

    #[test]
    fn negative_coordinates_recombine_exactly() {
        // DIA-style tuples carry a negative offset dimension; projection
        // recovery must pass negatives through untouched.
        let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        roundtrips(&remap, &[5, 1]);
        let inv = remap.inverter().unwrap();
        assert_eq!(inv.apply(&[-4, 5, 1]), vec![5, 1]);
    }
}
