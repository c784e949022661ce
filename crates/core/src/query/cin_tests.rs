//! Unit tests of `crate::query::cin`, mounted at the crate root by `lib.rs` so that
//! they run as `cin::tests::…`.

mod tests {
    use crate::query::cin::*;
    use crate::query::error::QueryError;
    use crate::query::parse_query;
    use crate::remap::parse_remapping;
    use crate::remap::Remapping;

    fn dia_ctx(remap: &Remapping) -> LowerContext<'_> {
        LowerContext::new(remap, vec!["k".into(), "i2".into(), "j2".into()], "D")
    }

    #[test]
    fn lowers_id_query_to_or_reduction() {
        // select [k] -> id() as Q over the DIA-remapped tensor becomes
        // forall i forall j: Q[j-i] |= map(D[i,j], 1)   (Section 5.2 example).
        let remap = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        let ctx = dia_ctx(&remap);
        let query = parse_query("select [k] -> id() as Q").unwrap();
        let stmt = lower_query(&query, "Q", &ctx).unwrap();
        assert_eq!(
            stmt.to_string(),
            "forall i forall j: Q[j-i] |= map(D[i,j], 1)"
        );
    }

    #[test]
    fn lowers_count_query_with_temporary() {
        let remap = Remapping::identity(2);
        let ctx = LowerContext::new(&remap, vec!["i".into(), "j".into()], "B");
        let query = parse_query("select [i] -> count(j) as Q").unwrap();
        let stmt = lower_query(&query, "Q", &ctx).unwrap();
        assert_eq!(
            stmt.to_string(),
            "forall i forall j: Q[i] += map(W_Q[i,j], 1) where (forall i forall j: W_Q[i,j] |= map(B[i,j], 1))"
        );
    }

    #[test]
    fn lowers_max_query_with_shift() {
        let remap = Remapping::identity(2);
        let ctx = LowerContext::new(&remap, vec!["i".into(), "j".into()], "B");
        let query = parse_query("select [i] -> max(j) as Q").unwrap();
        let stmt = lower_query(&query, "Q", &ctx).unwrap();
        assert_eq!(
            stmt.to_string(),
            "forall i forall j: Q[i] max= map(B[i,j], j+1)"
        );
    }

    #[test]
    fn lowers_max_over_counter_dimension() {
        // The ELL analysis: select [] -> max(k) over the #i-remapped tensor.
        let remap = parse_remapping("(i,j) -> (k=#i in k,i,j)").unwrap();
        let ctx = LowerContext::new(&remap, vec!["k".into(), "i2".into(), "j2".into()], "B");
        let query = parse_query("select [] -> max(k) as max_crd").unwrap();
        let stmt = lower_query(&query, "max_crd", &ctx).unwrap();
        assert_eq!(
            stmt.to_string(),
            "forall i forall j: max_crd[] max= map(B[i,j], #i+1)"
        );
    }

    #[test]
    fn unknown_names_are_reported() {
        let remap = Remapping::identity(2);
        let ctx = LowerContext::new(&remap, vec!["i".into(), "j".into()], "B");
        let query = parse_query("select [z] -> id() as Q").unwrap();
        assert!(matches!(
            lower_query(&query, "Q", &ctx),
            Err(QueryError::UnknownIndexVariable(_))
        ));
        let query = parse_query("select [i] -> id() as Q").unwrap();
        assert!(matches!(
            lower_query(&query, "missing", &ctx),
            Err(QueryError::UnknownField(_))
        ));
    }

    #[test]
    fn display_of_min_query_negates_coordinate() {
        let remap = Remapping::identity(2);
        let ctx =
            LowerContext::new(&remap, vec!["i".into(), "j".into()], "B").with_lower_bound(1, 0);
        let query = parse_query("select [i] -> min(j) as w").unwrap();
        let stmt = lower_query(&query, "w", &ctx).unwrap();
        assert_eq!(
            stmt.to_string(),
            "forall i forall j: w[i] max= map(B[i,j], 0-j+1)"
        );
    }
}
