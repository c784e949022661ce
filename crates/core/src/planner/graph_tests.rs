//! Unit tests of `crate::planner::graph`, mounted at the crate root by `lib.rs` so that
//! they run as `graph::tests::…`.

mod tests {
    use crate::planner::cost::TensorAttrs;
    use crate::planner::cost::NS_PER_UNIT;
    use crate::planner::graph::*;
    use crate::Format;

    fn bcsr4() -> Format {
        Format::bcsr(4, 4)
    }

    fn shuffled(nnz: usize) -> TensorAttrs {
        TensorAttrs {
            order: 2,
            nnz,
            stored_entries: nnz,
            rows: 3000,
            cols: 3000,
            rows_in_order: false,
            max_nnz_per_row: None,
        }
    }

    fn names(plan: &RoutePlan) -> Vec<String> {
        plan.names()
    }

    #[test]
    fn shuffled_coo_to_bcsr_routes_via_csr() {
        let g = FormatGraph::new();
        let cfg = PlannerConfig::default();
        let plan = g
            .plan_route(&Format::coo(), &bcsr4(), &shuffled(20_000), &cfg)
            .unwrap();
        assert_eq!(names(&plan), ["COO", "CSR", "BCSR4x4"]);
        // Row-ordered input feeds the block analysis directly.
        let mut ordered = shuffled(20_000);
        ordered.rows_in_order = true;
        let plan = g
            .plan_route(&Format::coo(), &bcsr4(), &ordered, &cfg)
            .unwrap();
        assert!(plan.is_direct());
        // Tiny inputs never pay the extra hop.
        let plan = g
            .plan_route(&Format::coo(), &bcsr4(), &shuffled(64), &cfg)
            .unwrap();
        assert!(plan.is_direct());
    }

    #[test]
    fn padded_sources_route_via_coo_and_compose_three_hops() {
        let g = FormatGraph::new();
        let cfg = PlannerConfig::default();
        let dia = Format::dia();
        let padded = TensorAttrs {
            order: 2,
            nnz: 95,
            stored_entries: 2048,
            rows: 64,
            cols: 64,
            rows_in_order: false,
            max_nnz_per_row: None,
        };
        let plan = g.plan_route(&dia, &Format::ell(), &padded, &cfg).unwrap();
        assert_eq!(names(&plan), ["DIA", "COO", "ELL"]);
        // A padded source *and* a block-analysis target compose: shed the
        // padding first, then feed the block analysis row-major.
        let padded_large = TensorAttrs {
            nnz: 4000,
            stored_entries: 40_000,
            ..padded
        };
        let plan = g.plan_route(&dia, &bcsr4(), &padded_large, &cfg).unwrap();
        assert_eq!(names(&plan), ["DIA", "COO", "CSR", "BCSR4x4"]);
        assert_eq!(plan.hop_count(), 3);
        // COO targets replay the source directly; hops cannot help.
        let plan = g.plan_route(&dia, &Format::coo(), &padded, &cfg).unwrap();
        assert!(plan.is_direct());
    }

    #[test]
    fn column_sensitive_targets_only_accept_replay_intermediates() {
        let g = FormatGraph::new();
        let forced = PlannerConfig {
            exclude_direct: true,
            ..PlannerConfig::default()
        };
        // Forced multi-hop into CSC may only use the COO replay hop: a CSR
        // way-point would rewrite within-column order.
        let plan = g
            .plan_route(&Format::csr(), &Format::csc(), &shuffled(20_000), &forced)
            .unwrap();
        assert_eq!(names(&plan), ["CSR", "COO", "CSC"]);
        // From COO the only admissible way-point coincides with the source,
        // so the forced search falls back to direct.
        let plan = g
            .plan_route(&Format::coo(), &Format::csc(), &shuffled(20_000), &forced)
            .unwrap();
        assert!(plan.is_direct());
    }

    #[test]
    fn unplannable_pairs_yield_no_route() {
        let g = FormatGraph::new();
        let cfg = PlannerConfig::default();
        // DOK has no coordinate-hierarchy spec: no edge can reach it.
        assert!(g
            .plan_route(&Format::coo(), &Format::dok(), &shuffled(1000), &cfg)
            .is_none());
    }

    #[test]
    fn a_slower_measured_edge_loses_its_shortest_path_slot() {
        let g = FormatGraph::new();
        let cfg = PlannerConfig::default();
        let attrs = shuffled(20_000);
        let (coo, csr, bcsr) = (Format::coo(), Format::csr(), bcsr4());
        let before = g.plan_route(&coo, &bcsr, &attrs, &cfg).unwrap();
        assert_eq!(names(&before), ["COO", "CSR", "BCSR4x4"]);
        // Establish a truthful baseline on the sibling edges (measured =
        // predicted), then repeatedly measure the COO→CSR hop far slower
        // than its static estimate.
        let nominal = |src: &Format, dst: &Format, in_order: bool| {
            let units = g
                .edge_units(src, dst, attrs.nnz, in_order, &attrs, &cfg)
                .unwrap();
            (units * NS_PER_UNIT) as u64
        };
        for _ in 0..4 {
            let ns = nominal(&csr, &bcsr, true);
            g.observe(&csr, &bcsr, attrs.nnz, true, &attrs, &cfg, ns);
            let ns = nominal(&coo, &bcsr, false);
            g.observe(&coo, &bcsr, attrs.nnz, false, &attrs, &cfg, ns);
        }
        let version = g.version();
        for _ in 0..8 {
            let ns = 10 * nominal(&coo, &csr, false);
            g.observe(&coo, &csr, attrs.nnz, false, &attrs, &cfg, ns);
        }
        assert!(g.version() > version);
        let after = g.plan_route(&coo, &bcsr, &attrs, &cfg).unwrap();
        assert!(
            after.is_direct(),
            "slow COO→CSR edge should lose its slot, got {:?}",
            names(&after)
        );
    }
}
