//! Property tests: every chunked routine produces, at 1/2/4 threads, output
//! byte-equal to an oracle written without it (a stable grouping of the
//! source's iteration order, or the container's reference constructor),
//! across random matrices; the service matches the one-thread `convert` at
//! every pool width; and the plan cache never re-plans a warm pair.

use proptest::prelude::*;

use conv_runtime::{ConversionService, PlanCache, ServiceConfig};
use sparse_conv::{engine, kernels, AnyTensor, Format};
use sparse_formats::{BcsrMatrix, CooMatrix, CooTensor, CsfTensor, CsrMatrix};
use sparse_tensor::{Shape, SparseTriples};

const THREAD_POOLS: [usize; 3] = [1, 2, 4];

/// Random sparse matrices as duplicate-free triples, with a shuffle seed so
/// COO inputs arrive in arbitrary storage order (as imported data would).
fn arb_matrix() -> impl Strategy<Value = (SparseTriples, u64)> {
    (1usize..32, 1usize..32).prop_flat_map(|(rows, cols)| {
        let max_nnz = (rows * cols).min(96);
        (
            proptest::collection::vec(((0..rows), (0..cols), -100i32..100), 0..max_nnz),
            1u64..u64::MAX,
        )
            .prop_map(move |(entries, seed)| {
                let mut t = SparseTriples::new(Shape::matrix(rows, cols));
                for (i, j, v) in entries {
                    if v != 0 && t.get(&[i as i64, j as i64]) == 0.0 {
                        t.push(vec![i as i64, j as i64], v as f64)
                            .expect("in bounds");
                    }
                }
                (t, seed)
            })
    })
}

/// Random order-3 tensors as duplicate-free triples plus a shuffle seed.
fn arb_tensor3() -> impl Strategy<Value = (SparseTriples, u64)> {
    (1usize..12, 1usize..12, 1usize..12).prop_flat_map(|(d0, d1, d2)| {
        let max_nnz = (d0 * d1 * d2).min(96);
        (
            proptest::collection::vec(((0..d0), (0..d1), (0..d2), -100i32..100), 0..max_nnz),
            1u64..u64::MAX,
        )
            .prop_map(move |(entries, seed)| {
                let mut t = SparseTriples::new(Shape::tensor3(d0, d1, d2));
                for (i, j, k, v) in entries {
                    let coord = vec![i as i64, j as i64, k as i64];
                    if v != 0 && t.get(&coord) == 0.0 {
                        t.push(coord, v as f64).expect("in bounds");
                    }
                }
                (t, seed)
            })
    })
}

fn shuffled_coo3(t: &SparseTriples, seed: u64) -> CooTensor {
    let mut coo = CooTensor::from_triples(t);
    let mut state = seed;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    coo
}

fn shuffled_coo(t: &SparseTriples, seed: u64) -> CooMatrix {
    let mut coo = CooMatrix::from_triples(t);
    let mut state = seed;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    coo
}

/// The compressed arrays (`pos`, `crd`, `vals`) a count / prefix-sum / fill
/// pass builds from `(parent, child, value)` entries: grouped by parent,
/// iteration order kept inside each group.
fn stably_grouped(
    entries: &[(usize, usize, f64)],
    parents: usize,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&p| entries[p].0);
    let mut pos = vec![0usize; parents + 1];
    for &(parent, _, _) in entries {
        pos[parent + 1] += 1;
    }
    for i in 0..parents {
        pos[i + 1] += pos[i];
    }
    let crd = order.iter().map(|&p| entries[p].1).collect();
    let vals = order.iter().map(|&p| entries[p].2).collect();
    (pos, crd, vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// COO→CSR: histogram, prefix-sum merge and scatter over 1, 2 and 4
    /// chunks of the nonzeros all group the source stably by row.
    #[test]
    fn parallel_coo_to_csr_is_byte_equal((t, seed) in arb_matrix()) {
        let coo = shuffled_coo(&t, seed);
        let entries: Vec<_> = coo.iter().collect();
        let (pos, crd, vals) = stably_grouped(&entries, coo.rows());
        for threads in THREAD_POOLS {
            let csr = engine::to_csr(&coo, threads).expect("no worker panics");
            prop_assert_eq!(csr.pos(), &pos[..], "pos, {} threads", threads);
            prop_assert_eq!(csr.crd(), &crd[..], "crd, {} threads", threads);
            prop_assert_eq!(csr.values(), &vals[..], "vals, {} threads", threads);
        }
    }

    /// CSR→CSC: the transpose over 1, 2 and 4 chunks of whole rows groups
    /// the row-major iteration stably by column.
    #[test]
    fn parallel_csr_to_csc_is_byte_equal((t, _) in arb_matrix()) {
        let csr = CsrMatrix::from_triples(&t);
        let entries: Vec<_> = engine::to_coo(&csr).iter().map(|(i, j, v)| (j, i, v)).collect();
        let (pos, crd, vals) = stably_grouped(&entries, csr.cols());
        for threads in THREAD_POOLS {
            let csc = engine::to_csc(&csr, threads).expect("no worker panics");
            prop_assert_eq!(csc.pos(), &pos[..], "pos, {} threads", threads);
            prop_assert_eq!(csc.crd(), &crd[..], "crd, {} threads", threads);
            prop_assert_eq!(csc.values(), &vals[..], "vals, {} threads", threads);
        }
    }

    /// CSR→BCSR: block discovery and dense-block scatter over chunks of
    /// whole block rows match the reference constructor for a spread of
    /// block shapes.
    #[test]
    fn parallel_csr_to_bcsr_is_byte_equal(
        ((t, _), block_rows, block_cols) in (arb_matrix(), 1usize..5, 1usize..5)
    ) {
        let csr = CsrMatrix::from_triples(&t);
        let reference = BcsrMatrix::from_triples(&t, block_rows, block_cols);
        for threads in THREAD_POOLS {
            let bcsr = kernels::csr_to_bcsr(&csr, block_rows, block_cols, threads)
                .expect("no worker panics");
            prop_assert_eq!(&bcsr, &reference, "{} threads", threads);
        }
    }

    /// COO3→CSF: the root-fiber-partitioned sort-and-pack kernel matches the
    /// reference constructor and the engine's sort-then-pack routine bit for
    /// bit at every pool width.
    #[test]
    fn parallel_coo3_to_csf_is_byte_equal((t, seed) in arb_tensor3()) {
        let coo = shuffled_coo3(&t, seed);
        let reference = CsfTensor::from_triples(&t);
        prop_assert_eq!(&engine::to_csf(&coo), &reference);
        for threads in THREAD_POOLS {
            let csf = kernels::coo_to_csf(&coo, threads).expect("no worker panics");
            prop_assert_eq!(&csf, &reference, "{} threads", threads);
        }
        prop_assert!(reference.to_triples().same_values(&t));
    }

    /// The service's tensor route (chunked kernel included) matches the
    /// one-thread `sparse_conv::convert`, and CSF→COO3 round-trips to the
    /// sorted triples.
    #[test]
    fn service_tensor_conversions_match_sequential_convert((t, seed) in arb_tensor3()) {
        let coo3 = AnyTensor::Coo3(shuffled_coo3(&t, seed));
        for threads in THREAD_POOLS {
            let service = ConversionService::new(ServiceConfig {
                threads,
                parallel_nnz_threshold: 0,
                ..ServiceConfig::default()
            });
            let got = service.convert(&coo3, Format::csf()).expect("conversion");
            let want = sparse_conv::convert(&coo3, Format::csf()).expect("conversion");
            prop_assert_eq!(&got, &want, "COO3→CSF at {} threads", threads);
            let back = service.convert(&got, Format::coo3()).expect("conversion");
            prop_assert!(back.to_triples().same_values(&t));
            prop_assert!(back.to_triples().is_sorted(), "CSF iterates in sorted order");
        }
    }

    /// The full service (routing included) returns exactly what the
    /// sequential `sparse_conv::convert` returns, at every pool width.
    #[test]
    fn service_conversions_match_sequential_convert((t, seed) in arb_matrix()) {
        let coo = AnyTensor::Coo(shuffled_coo(&t, seed));
        for threads in THREAD_POOLS {
            let service = ConversionService::new(ServiceConfig {
                threads,
                parallel_nnz_threshold: 0,
                ..ServiceConfig::default()
            });
            for target in [
                Format::csr(),
                Format::csc(),
                Format::dia(),
                Format::ell(),
                Format::jad(),
                Format::bcsr(2, 2),
            ] {
                let got = service.convert(&coo, &target).expect("conversion");
                let want = sparse_conv::convert(&coo, &target).expect("conversion");
                prop_assert_eq!(got, want, "{} at {} threads", target, threads);
            }
        }
    }
}

#[test]
fn plan_cache_never_replans_a_warm_pair() {
    let planned = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counter = std::sync::Arc::clone(&planned);
    let cache = PlanCache::with_planner(Box::new(move |s, t| {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        sparse_conv::convert::plan_for_formats(s, t)
    }));
    let pairs = [
        (Format::coo(), Format::csr()),
        (Format::csr(), Format::csc()),
        (Format::csc(), Format::dia()),
    ];
    for (s, t) in &pairs {
        cache.plan(s, t).unwrap();
    }
    let built_after_warmup = planned.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(built_after_warmup, pairs.len());
    for _ in 0..10 {
        for (s, t) in &pairs {
            cache.plan(s, t).unwrap();
        }
    }
    assert_eq!(
        planned.load(std::sync::atomic::Ordering::SeqCst),
        built_after_warmup,
        "zero re-planning after warm-up"
    );
    assert_eq!(cache.hits(), 30);
}
