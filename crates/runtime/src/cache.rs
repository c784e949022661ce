//! Memoisation of conversion plans.
//!
//! The paper's generator pays its specialisation cost once per format pair
//! and amortises it over every subsequent conversion; [`PlanCache`] gives the
//! runtime the same property. Plans are keyed by the *format handles* of the
//! pair — i.e. by spec fingerprint (see
//! [`FormatSpec::fingerprint`](sparse_conv::FormatSpec::fingerprint)), the
//! identity of the spec-first API. Registry (user-defined) formats therefore
//! share the cache with the stock presets: the second conversion to a
//! builder-made format is a plan hit, exactly like CSR. Keying on the
//! fingerprint also means persisted or cross-version keys stop matching the
//! moment a specification's text changes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sparse_conv::convert::plan_for_formats;
use sparse_conv::{ConversionPlan, ConvertError, Format};

/// The planning function a [`PlanCache`] memoises. Injectable so tests (and
/// alternative planners) can count or replace planning work.
pub type Planner = dyn Fn(&Format, &Format) -> Result<ConversionPlan, ConvertError> + Send + Sync;

/// Cache key: one plan per (source format, target format) pair of handles.
/// [`Format`] equality and hashing are fingerprint-based, so the key space
/// is the space of spec pairs — stock and registry formats alike.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Source format handle.
    pub source: Format,
    /// Target format handle.
    pub target: Format,
}

/// A thread-safe, memoising front end to the conversion planner.
pub struct PlanCache {
    planner: Box<Planner>,
    plans: Mutex<HashMap<PlanKey, Arc<ConversionPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// A cache over the stock planner
    /// ([`plan_for_formats`]).
    pub fn new() -> Self {
        Self::with_planner(Box::new(|s: &Format, t: &Format| plan_for_formats(s, t)))
    }

    /// A cache over a custom planning function; `planner` runs at most once
    /// per distinct [`PlanKey`].
    pub fn with_planner(planner: Box<Planner>) -> Self {
        PlanCache {
            planner,
            plans: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key for a pair of formats (any combination of stock
    /// identifiers and registry handles).
    pub fn key_for<S, T>(&self, source: S, target: T) -> PlanKey
    where
        S: Into<Format>,
        T: Into<Format>,
    {
        PlanKey {
            source: source.into(),
            target: target.into(),
        }
    }

    /// The plan for a pair, building it through the planner only on the
    /// first request.
    ///
    /// # Errors
    ///
    /// Propagates planner errors (e.g. DOK targets); errors are not cached.
    pub fn plan<S, T>(&self, source: S, target: T) -> Result<Arc<ConversionPlan>, ConvertError>
    where
        S: Into<Format>,
        T: Into<Format>,
    {
        self.plan_entry(source, target).map(|(plan, _)| plan)
    }

    /// Like [`PlanCache::plan`], additionally reporting whether the plan was
    /// answered from the cache (`true` on a hit) — the per-call signal a
    /// `ConversionReport` needs, which the aggregate counters can't provide
    /// under concurrency.
    ///
    /// # Errors
    ///
    /// Propagates planner errors (e.g. DOK targets); errors are not cached.
    pub fn plan_entry<S, T>(
        &self,
        source: S,
        target: T,
    ) -> Result<(Arc<ConversionPlan>, bool), ConvertError>
    where
        S: Into<Format>,
        T: Into<Format>,
    {
        let key = self.key_for(source, target);
        if let Some(plan) = self.plans.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(plan), true));
        }
        // Plan outside the lock: planning is pure and an occasional duplicate
        // build on a race is cheaper than holding the map across it.
        let plan = Arc::new((self.planner)(&key.source, &key.target)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.plans
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Number of requests answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that had to build a plan (== plans built, absent
    /// races).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// True when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters are preserved).
    pub fn clear(&self) {
        self.plans.lock().unwrap().clear();
    }

    /// Zeroes the hit/miss counters (cached plans are preserved) — for
    /// isolating benchmark measurement phases from their warm-up.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("plans", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_conv::prelude::LevelKind;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn second_request_for_a_pair_plans_nothing() {
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let cache = PlanCache::with_planner(Box::new(move |s: &Format, t: &Format| {
            counter.fetch_add(1, Ordering::SeqCst);
            plan_for_formats(s, t)
        }));
        let first = cache.plan(Format::coo(), Format::csr()).unwrap();
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let second = cache.plan(Format::coo(), Format::csr()).unwrap();
        assert_eq!(built.load(Ordering::SeqCst), 1, "no re-planning");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(*first, *second);
        // Handle-keyed requests share entries with id-keyed ones: the key is
        // the fingerprint, not the spelling.
        let third = cache.plan(Format::coo(), Format::csr()).unwrap();
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(*third, *second);
    }

    #[test]
    fn plan_entry_reports_per_call_hits_and_counters_reset() {
        let cache = PlanCache::new();
        let (_, hit) = cache.plan_entry(Format::coo(), Format::csr()).unwrap();
        assert!(!hit, "first request builds the plan");
        let (_, hit) = cache.plan_entry(Format::coo(), Format::csr()).unwrap();
        assert!(hit, "second request is a cache hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.reset_counters();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.len(), 1, "reset keeps the cached plans");
    }

    #[test]
    fn distinct_pairs_get_distinct_entries() {
        let cache = PlanCache::new();
        cache.plan(Format::coo(), Format::csr()).unwrap();
        cache.plan(Format::csr(), Format::csc()).unwrap();
        cache.plan(Format::csr(), Format::bcsr(2, 2)).unwrap();
        cache.plan(Format::csr(), Format::bcsr(4, 4)).unwrap();
        assert_eq!(cache.len(), 4);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 4, "counters survive clear");
    }

    #[test]
    fn registry_formats_share_the_cache_with_stock_presets() {
        let cache = PlanCache::new();
        let custom = Format::builder("CACHE-TEST-DCSR")
            .remap_str("(i,j) -> (i,j)")
            .unwrap()
            .dims(["i", "j"])
            .levels([LevelKind::Compressed, LevelKind::Compressed])
            .build()
            .unwrap();
        let plan = cache.plan(Format::coo(), &custom).unwrap();
        assert_eq!(plan.target, "CACHE-TEST-DCSR");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Second request for the same custom target: a hit.
        cache.plan(Format::coo(), &custom).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Custom sources plan too.
        let back = cache.plan(&custom, Format::csr()).unwrap();
        assert_eq!(back.source, "CACHE-TEST-DCSR");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn dok_sources_are_planned_as_coo_and_dok_targets_fail() {
        let cache = PlanCache::new();
        let dok = cache.plan(Format::dok(), Format::csr()).unwrap();
        assert_eq!(dok.source, "COO");
        assert_eq!(
            cache.plan(Format::csr(), Format::dok()),
            Err(ConvertError::UnsupportedTarget(Format::dok()))
        );
        // Failed plans are not cached and do not count as hits.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        // Four workers of the stack's one fan-out share the cache by reference.
        let cache = PlanCache::new();
        sparse_conv::partition::fork_join("test.plan", "test.worker", vec![(); 4], |(), _| {
            for _ in 0..8 {
                cache.plan(Format::coo(), Format::csr()).unwrap();
            }
        })
        .unwrap();
        assert_eq!(cache.hits() + cache.misses(), 32);
        assert_eq!(cache.len(), 1);
    }
}
