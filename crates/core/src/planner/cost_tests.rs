//! Unit tests of `crate::planner::cost`, mounted at the crate root by `lib.rs` so that
//! they run as `cost::tests::…`.

mod tests {
    use crate::kernel_table;
    use crate::planner::cost::*;
    use crate::planner::graph::PlannerConfig;
    use crate::Format;

    fn attrs(nnz: usize) -> TensorAttrs {
        TensorAttrs {
            order: 2,
            nnz,
            stored_entries: nnz,
            rows: 100,
            cols: 100,
            rows_in_order: false,
            max_nnz_per_row: None,
        }
    }

    #[test]
    fn one_profile_pass_serves_selection_and_pricing() {
        use crate::convert::AnyTensor;
        use crate::TensorProfile;
        use sparse_tensor::{Shape, SparseTriples};

        // One dense row of 6 in an otherwise empty 8x8 matrix.
        let mut t = SparseTriples::new(Shape::matrix(8, 8));
        for j in 0..6i64 {
            t.push(vec![2, j], 1.0).unwrap();
        }
        let coo = sparse_formats::CooMatrix::from_triples(&t);
        let profile = TensorProfile::compute(&AnyTensor::Coo(coo.clone()));
        assert_eq!(
            profile.selected,
            crate::auto_select(&AnyTensor::Coo(coo.clone()))
        );

        let bare = TensorAttrs::from_matrix(&AnyTensor::Coo(coo));
        let attrs = bare.clone().with_profile(&profile);
        assert_eq!(attrs.max_nnz_per_row, Some(6));
        // The refined row maximum tightens the ELL write estimate: 6-wide
        // padding over 8 rows stores 48 slots, not nnz = 6.
        let cfg = PlannerConfig::default();
        let units = |a: &TensorAttrs| {
            static_edge_units(&Format::coo(), &Format::ell(), 2, a.nnz, true, a, &cfg)
        };
        let ell_weight = kernel_table::facts(&Format::ell()).assembly_weight;
        assert_eq!(units(&attrs) - units(&bare), ell_weight * (48.0 - 6.0));
    }

    #[test]
    fn unsorted_sources_pay_extra_on_block_targets() {
        let cfg = PlannerConfig::default();
        let coo = Format::coo();
        let bcsr = Format::bcsr(4, 4);
        let a = attrs(10_000);
        let shuffled = static_edge_units(&coo, &bcsr, 2, a.nnz, false, &a, &cfg);
        let ordered = static_edge_units(&coo, &bcsr, 2, a.nnz, true, &a, &cfg);
        assert!(shuffled > ordered * 1.2, "{shuffled} vs {ordered}");
        // The penalty is specific to block analysis: CSC costs the same
        // either way.
        let csc = Format::csc();
        let s = static_edge_units(&coo, &csc, 2, a.nnz, false, &a, &cfg);
        let o = static_edge_units(&coo, &csc, 2, a.nnz, true, &a, &cfg);
        assert_eq!(s, o);
    }

    #[test]
    fn machine_speed_cancels_out_of_multipliers() {
        let model = CostModel::new();
        let (coo, csr, csc) = (Format::coo(), Format::csr(), Format::csc());
        // A machine uniformly 3x slower than the reference: every edge
        // observes ratio 3, so no edge should look cheap or expensive.
        for _ in 0..16 {
            model.observe_units(&coo, &csr, 1000.0, 3_000_000 / 500);
            model.observe_units(&coo, &csc, 1000.0, 3_000_000 / 500);
        }
        let m = model.multiplier(&coo, &csr);
        assert!((0.8..1.3).contains(&m), "multiplier {m} should stay near 1");
        // An edge measured far slower than its siblings does move.
        for _ in 0..16 {
            model.observe_units(&csr, &csc, 1000.0, 10 * 3_000_000 / 500);
        }
        assert!(model.multiplier(&csr, &csc) > 2.0);
        assert_eq!(model.observed_edges(), 3);
        assert!(model.version() >= 48);
    }

    #[test]
    fn multipliers_stay_bounded() {
        let model = CostModel::new();
        let (coo, csr) = (Format::coo(), Format::csr());
        let (dia, ell) = (Format::dia(), Format::ell());
        for _ in 0..64 {
            model.observe_units(&coo, &csr, 1000.0, 1); // absurdly fast
            model.observe_units(&dia, &ell, 1000.0, u64::MAX / 1024); // absurdly slow
        }
        assert!(model.multiplier(&coo, &csr) >= 0.25);
        assert!(model.multiplier(&dia, &ell) <= 4.0);
    }
}
