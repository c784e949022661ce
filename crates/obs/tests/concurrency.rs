//! Concurrency properties of the span collector: per-thread spans nested
//! under a parent stay inside the parent's wall-clock window (so per-phase
//! breakdowns never exceed the total).

#![cfg(feature = "collector")]

use conv_obs::{Collector, Span};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-thread worker spans parented under a kernel span stay within the
    /// parent's wall-clock window (the dispatching scope joins every worker
    /// before the parent drops), so each worker duration — and the combined
    /// busy window — is bounded by the parent duration.
    #[test]
    fn worker_spans_stay_inside_the_parent_window(
        (workers, spins) in (1usize..6, 1u64..2000)
    ) {
        let parent = Span::enter_traced("kernel");
        let trace = parent.handle().trace_id();
        let handle = parent.handle();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || {
                    let span = Span::enter_under("chunk", handle);
                    let mut acc = 0u64;
                    for i in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    span.add_items(acc | 1);
                });
            }
        });
        drop(parent);
        let records = Collector::global().take_trace(trace);
        let parent_rec = records
            .iter()
            .find(|r| r.name == "kernel")
            .expect("parent span recorded");
        let chunks: Vec<_> = records.iter().filter(|r| r.name == "chunk").collect();
        prop_assert_eq!(chunks.len(), workers);
        for c in &chunks {
            prop_assert!(c.start_ns >= parent_rec.start_ns);
            prop_assert!(c.end_ns() <= parent_rec.end_ns());
            prop_assert!(c.duration_ns <= parent_rec.duration_ns);
        }
        // The workers' combined busy window is bounded by the parent span.
        let first = chunks.iter().map(|c| c.start_ns).min().unwrap();
        let last = chunks.iter().map(|c| c.end_ns()).max().unwrap();
        prop_assert!(last - first <= parent_rec.duration_ns);
    }

    /// Sequential child spans partition the parent: their durations sum to
    /// at most the parent's duration — the invariant that makes top-level
    /// phase breakdowns sum to ≤ the conversion total.
    #[test]
    fn sequential_phase_durations_sum_to_at_most_the_parent(
        phases in 1usize..8
    ) {
        let parent = Span::enter_traced("convert");
        let trace = parent.handle().trace_id();
        for _ in 0..phases {
            let span = Span::enter("phase");
            span.add_items(1);
        }
        drop(parent);
        let records = Collector::global().take_trace(trace);
        let parent_rec = records.iter().find(|r| r.name == "convert").unwrap();
        let child_sum: u64 = records
            .iter()
            .filter(|r| r.name == "phase")
            .map(|r| r.duration_ns)
            .sum();
        prop_assert!(child_sum <= parent_rec.duration_ns);
    }
}
