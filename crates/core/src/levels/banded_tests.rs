//! Unit tests of `crate::levels::banded`, mounted at the crate root by `lib.rs` so that
//! they run as `banded::tests::…`.

mod tests {
    use crate::levels::assembler::LevelAssembler;
    use crate::levels::banded::*;
    use crate::query::QueryResult;
    use sparse_tensor::DimBounds;

    /// Rows with first-nonzero columns [0, 1, 0, 2] for a 4x4 lower triangle.
    fn w_query_result(level: &BandedLevel) -> QueryResult {
        let dims = vec!["i".to_string(), "j".to_string()];
        let query = level.required_query(&dims, 1).unwrap();
        assert_eq!(query.to_string(), "select [i] -> min(j) as w");
        let mut q = QueryResult::new(&query, vec![DimBounds::from_extent(4)]).unwrap();
        for (i, w) in [0i64, 1, 0, 2].iter().enumerate() {
            q.set(&[i as i64], W, *w).unwrap();
        }
        q
    }

    #[test]
    fn edge_insertion_builds_skyline_profile() {
        let mut level = BandedLevel::new();
        let q = w_query_result(&level);
        level.init_edges(4, true, Some(&q));
        for i in 0..4i64 {
            level.insert_edges(i as usize, &[i], true, Some(&q));
        }
        level.finalize_edges(4, true);
        // Run lengths: 1, 1, 3, 2 -> pos = [0, 1, 2, 5, 7].
        assert_eq!(level.pos(), &[0, 1, 2, 5, 7]);
        assert_eq!(level.first(), &[0, 1, 0, 2]);
        assert_eq!(level.size(4), 7);
        // Positions inside row 2's run (columns 0..=2).
        assert_eq!(level.position(2, &[2, 0]), 2);
        assert_eq!(level.position(2, &[2, 1]), 3);
        assert_eq!(level.position(2, &[2, 2]), 4);
        assert_eq!(level.position(3, &[3, 3]), 6);
    }

    #[test]
    fn unsequenced_matches_sequenced() {
        let mut seq = BandedLevel::new();
        let q = w_query_result(&seq);
        seq.init_edges(4, true, Some(&q));
        for i in 0..4i64 {
            seq.insert_edges(i as usize, &[i], true, Some(&q));
        }
        seq.finalize_edges(4, true);

        let mut unseq = BandedLevel::new();
        unseq.init_edges(4, false, Some(&q));
        for i in 0..4i64 {
            unseq.insert_edges(i as usize, &[i], false, Some(&q));
        }
        unseq.finalize_edges(4, false);
        assert_eq!(seq.pos(), unseq.pos());
        assert_eq!(seq.first(), unseq.first());
    }

    #[test]
    fn empty_rows_get_empty_runs() {
        let mut level = BandedLevel::new();
        let dims = vec!["i".to_string(), "j".to_string()];
        let query = level.required_query(&dims, 1).unwrap();
        let q = QueryResult::new(&query, vec![DimBounds::from_extent(2)]).unwrap();
        level.init_edges(2, true, Some(&q));
        for i in 0..2i64 {
            level.insert_edges(i as usize, &[i], true, Some(&q));
        }
        level.finalize_edges(2, true);
        assert_eq!(level.pos(), &[0, 0, 0]);
        let (pos, first) = level.into_arrays();
        assert_eq!(pos, vec![0, 0, 0]);
        assert_eq!(first, vec![0, 1]);
    }
}
