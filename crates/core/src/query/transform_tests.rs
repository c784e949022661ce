//! Unit tests of `crate::query::transform`, mounted at the crate root by `lib.rs` so that
//! they run as `transform::tests::…`.

mod tests {
    use crate::query::cin::{lower_query, LowerContext};
    use crate::query::cin::{Access, CinExpr, Reduction};
    use crate::query::parse_query;
    use crate::query::transform::*;
    use crate::remap::{parse_remapping, Remapping};

    fn identity_ctx(remap: &Remapping) -> LowerContext<'_> {
        LowerContext::new(remap, vec!["i".into(), "j".into()], "B")
    }

    #[test]
    fn worked_example_for_coo_sources() {
        // Section 5.2: select [i] -> count(j) over a COO matrix becomes
        // forall i forall j: Q[i] += map(B[i,j], 1).
        let remap = Remapping::identity(2);
        let ctx = identity_ctx(&remap);
        let query = parse_query("select [i] -> count(j) as Q").unwrap();
        let canonical = lower_query(&query, "Q", &ctx).unwrap();
        let optimized = optimize(&canonical, false);
        assert_eq!(
            optimized.to_string(),
            "forall i forall j: Q[i] += map(B[i,j], 1)"
        );
    }

    #[test]
    fn worked_example_for_csr_sources() {
        // With a source that stores only nonzeros, the count query further
        // simplifies to forall i: Q[i] = width(B; j)[i]  (pos differencing).
        let remap = Remapping::identity(2);
        let ctx = identity_ctx(&remap);
        let query = parse_query("select [i] -> count(j) as Q").unwrap();
        let canonical = lower_query(&query, "Q", &ctx).unwrap();
        let optimized = optimize(&canonical, true);
        assert_eq!(optimized.to_string(), "forall i: Q[i] = width(B; j)[i]");
    }

    #[test]
    fn reduction_to_assign_checks_coverage() {
        let remap = Remapping::identity(2);
        let ctx = identity_ctx(&remap);
        let query = parse_query("select [i] -> count(j) as Q").unwrap();
        let canonical = lower_query(&query, "Q", &ctx).unwrap();
        // The inner statement's loop variables all appear as its indices, so
        // the rule applies there...
        let inner = canonical.where_stmt.as_deref().unwrap();
        assert_eq!(
            reduction_to_assign(inner).unwrap().reduction,
            Reduction::Assign
        );
        // ...but not on the outer statement, whose `j` is a reduction variable.
        assert!(reduction_to_assign(&canonical).is_err());
    }

    #[test]
    fn inline_temporary_requires_assignment() {
        let remap = Remapping::identity(2);
        let ctx = identity_ctx(&remap);
        let query = parse_query("select [i] -> count(j) as Q").unwrap();
        let canonical = lower_query(&query, "Q", &ctx).unwrap();
        // Without reduction-to-assign on the inner statement the rule refuses.
        assert!(inline_temporary(&canonical).is_err());
        let mut prepared = canonical.clone();
        prepared.where_stmt = Some(Box::new(
            reduction_to_assign(prepared.where_stmt.as_deref().unwrap()).unwrap(),
        ));
        let inlined = inline_temporary(&prepared).unwrap();
        assert!(inlined.where_stmt.is_none());
        assert_eq!(
            inlined.to_string(),
            "forall i forall j: Q[i] += map(B[i,j], 1)"
        );
    }

    #[test]
    fn counter_to_histogram_rewrites_ell_analysis() {
        // The ELL sizing query max(#i) becomes a histogram + max.
        let remap = parse_remapping("(i,j) -> (k=#i in k,i,j)").unwrap();
        let ctx = LowerContext::new(&remap, vec!["k".into(), "r".into(), "c".into()], "B");
        let query = parse_query("select [] -> max(k) as K").unwrap();
        let canonical = lower_query(&query, "K", &ctx).unwrap();
        let rewritten = counter_to_histogram(&canonical).unwrap();
        assert_eq!(
            rewritten.to_string(),
            "forall i: K[] max= W_K[i] where (forall i forall j: W_K[i] += map(B[i,j], 1))"
        );
        // The driver applies it automatically.
        let optimized = optimize(&canonical, false);
        assert!(optimized
            .to_string()
            .starts_with("forall i: K[] max= W_K[i]"));
    }

    #[test]
    fn simplify_width_count_preconditions() {
        let remap = Remapping::identity(2);
        let ctx = identity_ctx(&remap);
        let query = parse_query("select [i] -> count(j) as Q").unwrap();
        let canonical = lower_query(&query, "Q", &ctx).unwrap();
        let flat = optimize(&canonical, false);
        // Applying width-count on a source that may store explicit zeros is
        // rejected.
        assert!(simplify_width_count(&flat, false).is_err());
        let simplified = simplify_width_count(&flat, true).unwrap();
        assert_eq!(simplified.loop_vars, vec!["i".to_string()]);
        // A query whose destination uses the innermost variable is rejected.
        let query = parse_query("select [j] -> count(i) as Q").unwrap();
        let canonical = lower_query(&query, "Q", &ctx).unwrap();
        let flat = optimize(&canonical, false);
        assert!(simplify_width_count(&flat, true).is_err());
    }

    #[test]
    fn simplify_collapses_nested_maps_and_units() {
        let access = Access::with_vars("B", &["i".to_string()]);
        let nested = CinExpr::Map {
            source: access.clone(),
            value: Box::new(CinExpr::Map {
                source: access.clone(),
                value: Box::new(CinExpr::Const(1)),
            }),
        };
        assert_eq!(
            simplify(&nested),
            CinExpr::Map {
                source: access.clone(),
                value: Box::new(CinExpr::Const(1))
            }
        );
        let unit = CinExpr::Mul(
            Box::new(CinExpr::Read(access.clone())),
            Box::new(CinExpr::Const(1)),
        );
        assert_eq!(simplify(&unit), CinExpr::Read(access));
    }
}
