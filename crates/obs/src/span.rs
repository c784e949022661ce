//! RAII phase timers with thread-safe parent/child nesting.
//!
//! A [`Span`] measures one phase of a conversion: construct it when the phase
//! starts, drop it when the phase ends. Spans nest through a thread-local
//! stack — a span entered while another is open becomes its child — and
//! cross thread boundaries explicitly: a worker thread parents its spans
//! under a [`SpanHandle`] captured from the dispatching span.
//!
//! Finished spans flow into the global [`Collector`] **only when the trace is
//! recording**: a root opened with [`Span::enter_traced`] records itself and
//! every descendant (on any thread, via handles); a root opened with the
//! plain [`Span::enter`] records nothing, so instrumented library code costs
//! two `Instant::now` calls and a thread-local push when nobody is tracing.
//! [`Span::enter_traced`] always opens a root of its own, even inside another
//! span, and [`Collector::take_trace`] extracts exactly one trace's records
//! by root id, so neither concurrent conversions nor nested traced calls
//! see each other's spans.
//!
//! With the `collector` feature disabled, every type in this module is an
//! inline zero-sized no-op: the instrumented code compiles away entirely.

#[cfg(feature = "collector")]
mod enabled {
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Hard cap on buffered records: a producer that never drains (e.g. a
    /// forgotten trace) is bounded instead of leaking; overflow is counted in
    /// [`Collector::dropped`].
    const CAPACITY: usize = 1 << 16;

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    fn next_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    fn thread_index() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        INDEX.with(|i| *i)
    }

    #[derive(Clone, Copy)]
    struct StackEntry {
        id: u64,
        root: u64,
        recording: bool,
    }

    thread_local! {
        static STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
    }

    /// One finished span: who it was, where it sat in the trace tree, and
    /// what it measured.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanRecord {
        /// Unique id of the span (process-wide).
        pub id: u64,
        /// Id of the enclosing span, `None` for a trace root.
        pub parent: Option<u64>,
        /// Id of the trace root this span belongs to.
        pub root: u64,
        /// Phase name given at enter.
        pub name: &'static str,
        /// Start time in nanoseconds since the collector epoch.
        pub start_ns: u64,
        /// Wall-clock duration in nanoseconds.
        pub duration_ns: u64,
        /// Bytes attributed via [`Span::add_bytes`].
        pub bytes: u64,
        /// Items attributed via [`Span::add_items`].
        pub items: u64,
        /// Dense index of the thread the span ran on.
        pub thread: u64,
    }

    impl SpanRecord {
        /// End time in nanoseconds since the collector epoch.
        pub fn end_ns(&self) -> u64 {
            self.start_ns + self.duration_ns
        }
    }

    /// A copyable reference to an open span, used to parent spans across
    /// thread boundaries (worker threads have their own, empty span stacks).
    #[derive(Debug, Clone, Copy)]
    pub struct SpanHandle {
        id: u64,
        root: u64,
        recording: bool,
    }

    impl SpanHandle {
        /// The id of the trace this handle's span belongs to — the key for
        /// [`Collector::take_trace`].
        pub fn trace_id(&self) -> u64 {
            self.root
        }
    }

    /// An RAII phase timer: measures from construction to drop, then records
    /// itself (when its trace is recording) into the global [`Collector`].
    #[derive(Debug)]
    pub struct Span {
        id: u64,
        parent: Option<u64>,
        root: u64,
        recording: bool,
        name: &'static str,
        start: Instant,
        bytes: Cell<u64>,
        items: Cell<u64>,
    }

    impl Span {
        fn open(name: &'static str, parent: Option<(u64, u64, bool)>, traced: bool) -> Span {
            let id = next_id();
            let (parent_id, root, recording) = match parent {
                Some((pid, proot, prec)) => (Some(pid), proot, prec),
                None => (None, id, traced),
            };
            STACK.with(|s| {
                s.borrow_mut().push(StackEntry {
                    id,
                    root,
                    recording,
                })
            });
            Span {
                id,
                parent: parent_id,
                root,
                recording,
                name,
                start: Instant::now(),
                bytes: Cell::new(0),
                items: Cell::new(0),
            }
        }

        /// Enters a phase as a child of the innermost open span on this
        /// thread. With no enclosing span the new span is a *non-recording*
        /// root: it still nests children correctly but none of them reach the
        /// collector (tracing is opt-in via [`Span::enter_traced`]).
        pub fn enter(name: &'static str) -> Span {
            let parent = STACK.with(|s| s.borrow().last().map(|e| (e.id, e.root, e.recording)));
            Span::open(name, parent, false)
        }

        /// Enters a *recording* root span: this span and every descendant —
        /// including spans parented under its [`SpanHandle`] on other
        /// threads — are recorded, and can be extracted afterwards with
        /// [`Collector::take_trace`] keyed on [`SpanHandle::trace_id`].
        ///
        /// The root is always a trace of its own, even when a span is
        /// already open on this thread: its spans stay out of an enclosing
        /// trace, and taking it leaves the enclosing trace's records alone.
        pub fn enter_traced(name: &'static str) -> Span {
            Span::open(name, None, true)
        }

        /// Enters a phase as a child of `parent`, regardless of this thread's
        /// span stack — the cross-thread nesting primitive for worker
        /// threads.
        pub fn enter_under(name: &'static str, parent: SpanHandle) -> Span {
            Span::open(
                name,
                Some((parent.id, parent.root, parent.recording)),
                false,
            )
        }

        /// A copyable handle for parenting spans on other threads.
        pub fn handle(&self) -> SpanHandle {
            SpanHandle {
                id: self.id,
                root: self.root,
                recording: self.recording,
            }
        }

        /// Attributes `n` bytes moved to this phase.
        pub fn add_bytes(&self, n: u64) {
            self.bytes.set(self.bytes.get() + n);
        }

        /// Attributes `n` processed items (nonzeros, blocks, …) to this
        /// phase.
        pub fn add_items(&self, n: u64) {
            self.items.set(self.items.get() + n);
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Spans are expected to drop LIFO; a stray out-of-order drop
                // removes its own entry without corrupting the rest.
                if let Some(pos) = stack.iter().rposition(|e| e.id == self.id) {
                    stack.remove(pos);
                }
            });
            if !self.recording {
                return;
            }
            let duration_ns = self.start.elapsed().as_nanos() as u64;
            let start_ns = self.start.duration_since(epoch()).as_nanos() as u64;
            Collector::global().push(SpanRecord {
                id: self.id,
                parent: self.parent,
                root: self.root,
                name: self.name,
                start_ns,
                duration_ns,
                bytes: self.bytes.get(),
                items: self.items.get(),
                thread: thread_index(),
            });
        }
    }

    /// The global sink finished spans record into. One short mutex
    /// acquisition per *finished recorded span* — phase-granular, so the
    /// cost is a handful of locks per conversion, not per nonzero.
    #[derive(Debug, Default)]
    pub struct Collector {
        records: Mutex<Vec<SpanRecord>>,
        dropped: AtomicU64,
    }

    impl Collector {
        /// The process-wide collector.
        pub fn global() -> &'static Collector {
            static GLOBAL: OnceLock<Collector> = OnceLock::new();
            GLOBAL.get_or_init(|| {
                // Pin the epoch before the first span so start offsets are
                // non-negative.
                let _ = epoch();
                Collector::default()
            })
        }

        /// Whether the collector is compiled in (the `collector` feature).
        pub fn is_enabled() -> bool {
            true
        }

        fn push(&self, record: SpanRecord) {
            let mut records = self.records.lock().unwrap();
            if records.len() >= CAPACITY {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            records.push(record);
        }

        /// Removes and returns every record belonging to the trace rooted at
        /// `root` (see [`SpanHandle::trace_id`]), in completion order.
        /// Records of other traces are left untouched, so concurrent
        /// conversions can extract their traces independently.
        pub fn take_trace(&self, root: u64) -> Vec<SpanRecord> {
            let mut records = self.records.lock().unwrap();
            let mut taken = Vec::new();
            records.retain(|r| {
                if r.root == root {
                    taken.push(r.clone());
                    false
                } else {
                    true
                }
            });
            taken
        }

        /// Buffered (not yet taken) records.
        pub fn len(&self) -> usize {
            self.records.lock().unwrap().len()
        }

        /// True when no record is buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Records discarded because the buffer was at capacity.
        pub fn dropped(&self) -> u64 {
            self.dropped.load(Ordering::Relaxed)
        }
    }
}

#[cfg(not(feature = "collector"))]
mod disabled {
    /// No-op span record (the `collector` feature is disabled). Kept as a
    /// real (empty) type so report-building code compiles unchanged.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanRecord {
        /// Unique id of the span (always 0 without the collector).
        pub id: u64,
        /// Id of the enclosing span.
        pub parent: Option<u64>,
        /// Id of the trace root.
        pub root: u64,
        /// Phase name.
        pub name: &'static str,
        /// Start offset (always 0 without the collector).
        pub start_ns: u64,
        /// Duration (always 0 without the collector).
        pub duration_ns: u64,
        /// Attributed bytes.
        pub bytes: u64,
        /// Attributed items.
        pub items: u64,
        /// Thread index.
        pub thread: u64,
    }

    impl SpanRecord {
        /// End time in nanoseconds since the collector epoch.
        #[inline(always)]
        pub fn end_ns(&self) -> u64 {
            0
        }
    }

    /// No-op span handle (zero-sized; the `collector` feature is disabled).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SpanHandle;

    impl SpanHandle {
        /// Always 0 without the collector.
        #[inline(always)]
        pub fn trace_id(&self) -> u64 {
            0
        }
    }

    /// No-op span (zero-sized; the `collector` feature is disabled). Every
    /// method inlines to nothing, so instrumented hot loops compile exactly
    /// as if the instrumentation were absent.
    #[derive(Debug)]
    pub struct Span;

    // An explicit (empty) destructor keeps `drop(span)` a meaningful way to
    // end a span early in both feature modes.
    impl Drop for Span {
        fn drop(&mut self) {}
    }

    impl Span {
        /// No-op.
        #[inline(always)]
        pub fn enter(_name: &'static str) -> Span {
            Span
        }

        /// No-op.
        #[inline(always)]
        pub fn enter_traced(_name: &'static str) -> Span {
            Span
        }

        /// No-op.
        #[inline(always)]
        pub fn enter_under(_name: &'static str, _parent: SpanHandle) -> Span {
            Span
        }

        /// No-op handle.
        #[inline(always)]
        pub fn handle(&self) -> SpanHandle {
            SpanHandle
        }

        /// No-op.
        #[inline(always)]
        pub fn add_bytes(&self, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn add_items(&self, _n: u64) {}
    }

    /// No-op collector (the `collector` feature is disabled).
    #[derive(Debug, Default)]
    pub struct Collector;

    impl Collector {
        /// The process-wide (no-op) collector.
        #[inline(always)]
        pub fn global() -> &'static Collector {
            static GLOBAL: Collector = Collector;
            &GLOBAL
        }

        /// Always false: the `collector` feature is disabled.
        #[inline(always)]
        pub fn is_enabled() -> bool {
            false
        }

        /// Always empty.
        #[inline(always)]
        pub fn take_trace(&self, _root: u64) -> Vec<SpanRecord> {
            Vec::new()
        }

        /// Always 0.
        #[inline(always)]
        pub fn len(&self) -> usize {
            0
        }

        /// Always true.
        #[inline(always)]
        pub fn is_empty(&self) -> bool {
            true
        }

        /// Always 0.
        #[inline(always)]
        pub fn dropped(&self) -> u64 {
            0
        }
    }
}

#[cfg(feature = "collector")]
pub use enabled::{Collector, Span, SpanHandle, SpanRecord};

#[cfg(not(feature = "collector"))]
pub use disabled::{Collector, Span, SpanHandle, SpanRecord};

#[cfg(all(test, feature = "collector"))]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_record_nothing() {
        let before = Collector::global().len();
        {
            let _root = Span::enter("quiet_root");
            let _child = Span::enter("quiet_child");
        }
        assert_eq!(Collector::global().len(), before);
    }

    #[test]
    fn traced_spans_nest_and_extract_by_root() {
        let root = Span::enter_traced("root");
        let trace = root.handle().trace_id();
        {
            let a = Span::enter("a");
            a.add_bytes(10);
            a.add_items(3);
            let _inner = Span::enter("a_inner");
        }
        {
            let _b = Span::enter("b");
        }
        drop(root);
        let records = Collector::global().take_trace(trace);
        assert_eq!(records.len(), 4);
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        let root_rec = by_name("root");
        assert_eq!(root_rec.parent, None);
        assert_eq!(root_rec.root, trace);
        let a = by_name("a");
        assert_eq!(a.parent, Some(root_rec.id));
        assert_eq!((a.bytes, a.items), (10, 3));
        assert_eq!(by_name("a_inner").parent, Some(a.id));
        assert_eq!(by_name("b").parent, Some(root_rec.id));
        // Children lie within the parent's wall-clock window.
        for r in &records {
            assert!(r.start_ns >= root_rec.start_ns, "{} starts in root", r.name);
            assert!(r.end_ns() <= root_rec.end_ns(), "{} ends in root", r.name);
        }
        // The trace was removed from the buffer.
        assert!(Collector::global().take_trace(trace).is_empty());
    }

    #[test]
    fn cross_thread_spans_parent_under_the_handle() {
        let root = Span::enter_traced("dispatch");
        let trace = root.handle().trace_id();
        let handle = root.handle();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(move || {
                    let span = Span::enter_under("worker", handle);
                    span.add_items(1);
                });
            }
        });
        drop(root);
        let records = Collector::global().take_trace(trace);
        let root_rec = records.iter().find(|r| r.name == "dispatch").unwrap();
        let workers: Vec<_> = records.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, Some(root_rec.id));
            assert_eq!(w.root, trace);
            assert!(w.end_ns() <= root_rec.end_ns());
        }
    }

    fn names(records: &[SpanRecord]) -> Vec<&'static str> {
        let mut names: Vec<_> = records.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn a_traced_root_inside_a_recording_span_is_its_own_trace() {
        let outer = Span::enter_traced("outer");
        let outer_trace = outer.handle().trace_id();
        drop(Span::enter("outer.child"));
        let inner = Span::enter_traced("inner");
        let inner_trace = inner.handle().trace_id();
        assert_ne!(inner_trace, outer_trace);
        drop(Span::enter("inner.child"));
        drop(inner);
        let taken = Collector::global().take_trace(inner_trace);
        assert_eq!(names(&taken), ["inner", "inner.child"]);
        let root = taken.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(root.parent, None);
        drop(outer);
        // Taking the inner trace left the caller's records in place.
        let taken = Collector::global().take_trace(outer_trace);
        assert_eq!(names(&taken), ["outer", "outer.child"]);
    }

    #[test]
    fn a_traced_root_inside_a_plain_span_records() {
        let plain = Span::enter("plain");
        let inner = Span::enter_traced("inner");
        let trace = inner.handle().trace_id();
        drop(Span::enter("inner.child"));
        drop(inner);
        let taken = Collector::global().take_trace(trace);
        assert_eq!(names(&taken), ["inner", "inner.child"]);
        // Spans opened after the traced root closed nest under the plain
        // span again.
        let after = Span::enter("after");
        assert_eq!(after.handle().trace_id(), plain.handle().trace_id());
    }

    #[test]
    fn concurrent_traces_do_not_mix() {
        let traces: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    s.spawn(move || {
                        let root = Span::enter_traced("concurrent_root");
                        let trace = root.handle().trace_id();
                        for _ in 0..i + 1 {
                            let _child = Span::enter("concurrent_child");
                        }
                        trace
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, trace) in traces.iter().enumerate() {
            let records = Collector::global().take_trace(*trace);
            assert_eq!(records.len(), i + 2, "root + {} children", i + 1);
            assert!(records.iter().all(|r| r.root == *trace));
        }
    }
}

#[cfg(all(test, not(feature = "collector")))]
mod noop_tests {
    use super::*;

    #[test]
    fn disabled_spans_are_zero_sized_and_record_nothing() {
        // The no-op span carries no state at all: the instrumented hot loop
        // has no collector dependency to pay for.
        assert_eq!(std::mem::size_of::<Span>(), 0);
        assert_eq!(std::mem::size_of::<SpanHandle>(), 0);
        assert_eq!(std::mem::size_of::<Collector>(), 0);
        assert!(!Collector::is_enabled());
        let root = Span::enter_traced("root");
        root.add_bytes(1);
        let handle = root.handle();
        let _child = Span::enter_under("child", handle);
        drop(root);
        assert!(Collector::global().is_empty());
        assert!(Collector::global().take_trace(handle.trace_id()).is_empty());
    }
}
