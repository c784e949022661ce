//! Per-conversion profiling reports built from span traces.
//!
//! A [`ConversionReport`] is plain data — it is **always compiled**, with or
//! without the `collector` feature, so service APIs that return reports keep
//! one signature in both builds (without the collector the phase tree and
//! durations are simply empty/zero).
//!
//! The report aggregates one trace (the records extracted by
//! `Collector::take_trace`) into a tree of [`PhaseReport`]s rooted at the
//! conversion's top-level phases. Top-level phases run sequentially inside
//! the root span, so their durations sum to at most the reported total —
//! the invariant [`ConversionReport::validate`] checks and CI enforces on
//! emitted JSON. Deeper levels may overlap (per-thread worker spans), so
//! the invariant is only asserted at the top level.
//!
//! Export: [`ConversionReport::to_json`] (one object, schema documented in
//! `docs/ARCHITECTURE.md`).

use crate::span::SpanRecord;
use std::collections::BTreeMap;

/// One phase of a conversion: its own duration plus nested sub-phases.
///
/// `duration_ns` is the phase span's wall-clock time, which *includes* its
/// children; `bytes` and `count` are the values attributed to the span
/// itself via `Span::add_bytes` / `Span::add_items`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phase name (the span name).
    pub name: String,
    /// Wall-clock duration in nanoseconds (inclusive of children).
    pub duration_ns: u64,
    /// Bytes attributed to this phase.
    pub bytes: u64,
    /// Items (nonzeros, blocks, runs, …) attributed to this phase.
    pub count: u64,
    /// Number of spans merged into this phase (workers with the same name
    /// under the same parent are merged; their durations add up).
    pub spans: u64,
    /// Nested sub-phases, in first-start order.
    pub children: Vec<PhaseReport>,
}

impl PhaseReport {
    /// Total bytes attributed to this phase and every descendant.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
            + self
                .children
                .iter()
                .map(PhaseReport::total_bytes)
                .sum::<u64>()
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&PhaseReport> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// What one conversion did and where its time went.
///
/// Produced by `ConversionService::convert_traced` and
/// `ConversionService::convert_stream`, and built only for them.
/// Identification and routing fields are filled by the service; the phase
/// tree comes from the span trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConversionReport {
    /// Source format name (e.g. `"COO"`).
    pub source: String,
    /// Target format name (e.g. `"CSF@2,0,1"`).
    pub target: String,
    /// Route the service chose: `"direct"`, `"via-coo"`, or `"multi-hop"`
    /// (streaming conversions report `"stream"`).
    pub route: String,
    /// Format path the conversion followed, source first and target last —
    /// `["COO", "CSR", "BCSR4x4"]` for a two-hop route, `[source, target]`
    /// for a direct one.
    pub path: Vec<String>,
    /// Whether the conversion plan came from the plan cache.
    pub plan_cache_hit: bool,
    /// Threads used by the kernel (1 when the sequential engine ran).
    pub threads: usize,
    /// Whether a parallel kernel handled the conversion.
    pub parallel_kernel: bool,
    /// Whether this was a streaming (out-of-core) conversion.
    pub streamed: bool,
    /// For streaming conversions: whether everything stayed in memory.
    pub in_memory: bool,
    /// Total wall-clock duration of the conversion in nanoseconds.
    pub total_ns: u64,
    /// Total bytes attributed across all phases.
    pub bytes_moved: u64,
    /// Number of sorted runs spilled to disk (streaming only).
    pub spilled_runs: u64,
    /// Bytes written to spill files (streaming only).
    pub spilled_bytes: u64,
    /// Top-level phases, in first-start order.
    pub phases: Vec<PhaseReport>,
}

/// Builds the phase tree from one trace's records: the root span becomes
/// `total_ns`, its direct children the top-level phases. Spans with the
/// same name under the same parent (per-thread workers) merge into one
/// `PhaseReport` with `spans` counting the merge width.
fn build_phases(records: &[SpanRecord]) -> (u64, Vec<PhaseReport>) {
    let root = match records.iter().find(|r| r.parent.is_none()) {
        Some(r) => r,
        None => return (0, Vec::new()),
    };
    let mut by_parent: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            by_parent.entry(p).or_default().push(r);
        }
    }
    fn children_of(parent: u64, by_parent: &BTreeMap<u64, Vec<&SpanRecord>>) -> Vec<PhaseReport> {
        let mut out: Vec<PhaseReport> = Vec::new();
        let Some(spans) = by_parent.get(&parent) else {
            return out;
        };
        let mut ordered = spans.clone();
        ordered.sort_by_key(|r| (r.start_ns, r.id));
        for r in ordered {
            let nested = children_of(r.id, by_parent);
            if let Some(existing) = out.iter_mut().find(|p| p.name == r.name) {
                existing.duration_ns += r.duration_ns;
                existing.bytes += r.bytes;
                existing.count += r.items;
                existing.spans += 1;
                merge_children(&mut existing.children, nested);
            } else {
                out.push(PhaseReport {
                    name: r.name.to_string(),
                    duration_ns: r.duration_ns,
                    bytes: r.bytes,
                    count: r.items,
                    spans: 1,
                    children: nested,
                });
            }
        }
        out
    }
    fn merge_children(into: &mut Vec<PhaseReport>, from: Vec<PhaseReport>) {
        for child in from {
            if let Some(existing) = into.iter_mut().find(|p| p.name == child.name) {
                existing.duration_ns += child.duration_ns;
                existing.bytes += child.bytes;
                existing.count += child.count;
                existing.spans += child.spans;
                merge_children(&mut existing.children, child.children);
            } else {
                into.push(child);
            }
        }
    }
    (root.duration_ns, children_of(root.id, &by_parent))
}

impl ConversionReport {
    /// Builds a report from one trace's span records (as returned by
    /// `Collector::take_trace`). Identification fields (`source`, `target`,
    /// `route`, …) start empty/default; the caller fills them in.
    pub fn from_trace(records: &[SpanRecord]) -> ConversionReport {
        let (total_ns, phases) = build_phases(records);
        let bytes_moved = phases.iter().map(PhaseReport::total_bytes).sum();
        ConversionReport {
            total_ns,
            bytes_moved,
            phases,
            ..ConversionReport::default()
        }
    }

    /// Sum of top-level phase durations. Top-level phases run sequentially
    /// inside the root span, so this is ≤ [`ConversionReport::total_ns`]
    /// whenever the collector measured anything.
    pub fn phase_sum_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ns).sum()
    }

    /// Finds a top-level phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Checks the report's structural invariants: the top-level phase
    /// durations must sum to at most `total_ns`, and `threads` must be at
    /// least 1. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be >= 1".to_string());
        }
        let sum = self.phase_sum_ns();
        if sum > self.total_ns {
            return Err(format!(
                "phase durations sum to {sum} ns > total {} ns",
                self.total_ns
            ));
        }
        Ok(())
    }

    /// Renders the report as a single JSON object (no trailing newline).
    /// The schema is documented in `docs/ARCHITECTURE.md`; every key is
    /// always present.
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn phase_json(p: &PhaseReport) -> String {
            format!(
                "{{\"name\":\"{}\",\"duration_ns\":{},\"bytes\":{},\"count\":{},\"spans\":{},\"children\":[{}]}}",
                escape(&p.name),
                p.duration_ns,
                p.bytes,
                p.count,
                p.spans,
                p.children.iter().map(phase_json).collect::<Vec<_>>().join(","),
            )
        }
        format!(
            concat!(
                "{{\"source\":\"{}\",\"target\":\"{}\",\"route\":\"{}\",",
                "\"path\":[{}],",
                "\"plan_cache_hit\":{},\"threads\":{},\"parallel_kernel\":{},",
                "\"streamed\":{},\"in_memory\":{},\"total_ns\":{},\"bytes_moved\":{},",
                "\"spilled_runs\":{},\"spilled_bytes\":{},\"phases\":[{}]}}"
            ),
            escape(&self.source),
            escape(&self.target),
            escape(&self.route),
            self.path
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(","),
            self.plan_cache_hit,
            self.threads,
            self.parallel_kernel,
            self.streamed,
            self.in_memory,
            self.total_ns,
            self.bytes_moved,
            self.spilled_runs,
            self.spilled_bytes,
            self.phases
                .iter()
                .map(phase_json)
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

/// Validates a JSON report string against the documented schema without a
/// JSON parser: every required key present, durations non-negative (JSON
/// `u64` rendering guarantees no `-`), and top-level phase durations sum
/// ≤ total. Used by `convprof --validate` and CI. Returns the first
/// violation found.
pub fn validate_json(json: &str) -> Result<(), String> {
    const REQUIRED: [&str; 14] = [
        "\"source\":",
        "\"target\":",
        "\"route\":",
        "\"path\":",
        "\"plan_cache_hit\":",
        "\"threads\":",
        "\"parallel_kernel\":",
        "\"streamed\":",
        "\"in_memory\":",
        "\"total_ns\":",
        "\"bytes_moved\":",
        "\"spilled_runs\":",
        "\"spilled_bytes\":",
        "\"phases\":",
    ];
    for key in REQUIRED {
        if !json.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    fn field_u64(json: &str, key: &str) -> Result<u64, String> {
        let start = json.find(key).ok_or_else(|| format!("missing key {key}"))? + key.len();
        let rest = &json[start..];
        if rest.starts_with('-') {
            return Err(format!("negative value for {key}"));
        }
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits
            .parse::<u64>()
            .map_err(|_| format!("non-numeric value for {key}"))
    }
    // total_ns appears once at the top level; phase durations are the
    // repeated "duration_ns": occurrences. Top-level phases are the objects
    // at nesting depth 1 inside the "phases" array.
    let total = field_u64(json, "\"total_ns\":")?;
    let phases_start = json
        .find("\"phases\":[")
        .ok_or_else(|| "missing \"phases\":[ array".to_string())?
        + "\"phases\":[".len();
    let mut depth = 0usize;
    let mut sum = 0u64;
    let bytes = &json.as_bytes()[phases_start..];
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                depth += 1;
                if depth == 1 {
                    let obj = &json[phases_start + i..];
                    sum += field_u64(obj, "\"duration_ns\":")?;
                }
            }
            b'}' => {
                if depth == 0 {
                    break; // end of the top-level phases array
                }
                depth -= 1;
            }
            b']' if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if sum > total {
        return Err(format!(
            "phase durations sum to {sum} ns > total {total} ns"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ConversionReport {
        ConversionReport {
            source: "COO".to_string(),
            target: "CSR".to_string(),
            route: "direct".to_string(),
            path: vec!["COO".to_string(), "CSR".to_string()],
            plan_cache_hit: true,
            threads: 4,
            parallel_kernel: true,
            streamed: false,
            in_memory: true,
            total_ns: 1000,
            bytes_moved: 4096,
            spilled_runs: 0,
            spilled_bytes: 0,
            phases: vec![
                PhaseReport {
                    name: "analysis".to_string(),
                    duration_ns: 300,
                    bytes: 0,
                    count: 100,
                    spans: 1,
                    children: vec![PhaseReport {
                        name: "histogram".to_string(),
                        duration_ns: 280,
                        bytes: 0,
                        count: 100,
                        spans: 4,
                        children: Vec::new(),
                    }],
                },
                PhaseReport {
                    name: "scatter".to_string(),
                    duration_ns: 600,
                    bytes: 4096,
                    count: 100,
                    spans: 1,
                    children: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips_through_validation() {
        let report = sample_report();
        report.validate().unwrap();
        let json = report.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"route\":\"direct\""));
        assert!(json.contains("\"path\":[\"COO\",\"CSR\"]"));
        assert!(json.contains("\"plan_cache_hit\":true"));
        assert!(json.contains("\"phases\":[{\"name\":\"analysis\""));
        // Nested phases do not count toward the top-level sum: 300 + 600
        // ≤ 1000 even though histogram adds 280 at depth 2.
        assert_eq!(report.phase_sum_ns(), 900);
    }

    #[test]
    fn validate_json_rejects_bad_reports() {
        let mut report = sample_report();
        report.phases[1].duration_ns = 800; // 300 + 800 > 1000
        assert!(report.validate().is_err());
        let json = report.to_json();
        assert!(validate_json(&json).is_err());
        let missing = json.replace("\"route\":\"direct\",", "");
        assert!(validate_json(&missing).unwrap_err().contains("\"route\""));
    }

    #[cfg(feature = "collector")]
    #[test]
    fn from_trace_builds_phase_tree_with_worker_merge() {
        use crate::span::{Collector, Span};
        let root = Span::enter_traced("convert");
        let trace = root.handle().trace_id();
        {
            let analysis = Span::enter("analysis");
            let handle = analysis.handle();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(move || {
                        let w = Span::enter_under("chunk", handle);
                        w.add_items(10);
                    });
                }
            });
        }
        {
            let pack = Span::enter("pack");
            pack.add_bytes(1024);
        }
        drop(root);
        let records = Collector::global().take_trace(trace);
        let report = ConversionReport::from_trace(&records);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "analysis");
        assert_eq!(report.phases[1].name, "pack");
        let chunk = report.phases[0].child("chunk").unwrap();
        assert_eq!(chunk.spans, 3);
        assert_eq!(chunk.count, 30);
        assert_eq!(report.bytes_moved, 1024);
        assert!(report.phase_sum_ns() <= report.total_ns);
        let mut finished = report;
        finished.source = "COO".to_string();
        finished.target = "CSR".to_string();
        finished.route = "direct".to_string();
        finished.threads = 3;
        finished.validate().unwrap();
        validate_json(&finished.to_json()).unwrap();
    }
}
