//! The harness-side trace: one span around every call into a layer's public
//! function, kept in memory and written out when the run ends.
//!
//! With the tracer off (`--trace 0`, and every other pass of a traced run)
//! `enter`/`exit`/`call` read no clock and store nothing, so the untraced
//! numbers come from exactly one `Instant` pair per pass and one per case.

use std::fmt::Write as _;
use std::time::Instant;

/// The repo module a span's time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own glue (pass and case spans; their self time is
    /// whatever no library layer accounts for).
    Harness,
    Io,
    Select,
    Planner,
    Cache,
    Service,
    Streaming,
    Generic,
    CodegenIr,
    Engine,
    Baselines,
    Spmv,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Harness,
        Layer::Io,
        Layer::Select,
        Layer::Planner,
        Layer::Cache,
        Layer::Service,
        Layer::Streaming,
        Layer::Generic,
        Layer::CodegenIr,
        Layer::Engine,
        Layer::Baselines,
        Layer::Spmv,
    ];

    /// The module name, as the `share.<layer>` metrics and the trace file
    /// spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Io => "workloads.io",
            Layer::Select => "core.select",
            Layer::Planner => "planner",
            Layer::Cache => "runtime.cache",
            Layer::Service => "runtime.service",
            Layer::Streaming => "runtime.streaming",
            Layer::Generic => "core.generic",
            Layer::CodegenIr => "core.codegen_ir",
            Layer::Engine => "core.engine",
            Layer::Baselines => "formats.baselines",
            Layer::Spmv => "formats.spmv",
        }
    }
}

/// One recorded call. `parent` is the span that was open when this one
/// started; spans recorded after a pass closed (the extra direct calls some
/// layer metrics need) have no parent and never count toward a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub pass: u32,
    pub layer: Layer,
    /// What was called, e.g. `io.mtx_load`.
    pub name: &'static str,
    /// The case label the call belongs to (empty for pass spans).
    pub case: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (nonzeros, bytes, requests).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn seconds(&self) -> f64 {
        self.duration_ns() as f64 / 1e9
    }
}

/// Handle to an open span (nothing when the tracer is off).
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off for the pass numbered `pass`.
    pub fn set(&mut self, on: bool, pass: u32) {
        debug_assert!(self.open.is_empty(), "a span is still open");
        self.on = on;
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: Layer, name: &'static str, case: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            pass: self.pass,
            layer,
            name,
            case,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open, items: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Records a leaf span around `f`.
    pub fn call<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        case: &'static str,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter(layer, name, case);
        let out = f();
        self.exit(open, items);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children (which run one after another on the caller thread, so they never
/// overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per traced pass: the pass's duration and the self time each layer spent
/// inside it, both in seconds. Spans without a parent that are not pass roots
/// (the extras) are left out.
pub fn layer_times_per_pass(spans: &[Span]) -> Vec<(f64, [f64; Layer::ALL.len()])> {
    let own = self_times_ns(spans);
    // Index of the pass root each span hangs under, if any.
    let mut root: Vec<Option<u32>> = Vec::with_capacity(spans.len());
    let mut passes: Vec<(u32, f64, [f64; Layer::ALL.len()])> = Vec::new();
    for s in spans {
        let r = match s.parent {
            Some(p) => root[p as usize],
            None if s.name == "pass" => {
                passes.push((s.id, s.seconds(), [0.0; Layer::ALL.len()]));
                Some(passes.len() as u32 - 1)
            }
            None => None,
        };
        root.push(r);
        if let Some(r) = r {
            passes[r as usize].2[s.layer as usize] += own[s.id as usize] as f64 / 1e9;
        }
    }
    passes.into_iter().map(|(_, d, l)| (d, l)).collect()
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the trace file: string tables for layers, names and cases, then
/// one row per span in the column order the header states.
pub fn render(workload: &str, seed: u64, spans: &[Span]) -> String {
    fn index(table: &mut Vec<&'static str>, s: &'static str) -> usize {
        table.iter().position(|t| *t == s).unwrap_or_else(|| {
            table.push(s);
            table.len() - 1
        })
    }
    let mut names: Vec<&'static str> = Vec::new();
    let mut cases: Vec<&'static str> = Vec::new();
    let mut rows = String::with_capacity(spans.len() * 48);
    for (n, s) in spans.iter().enumerate() {
        if n > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "[{},{},{},{},{},{},{},{},{}]",
            s.id,
            s.parent.map_or(-1, i64::from),
            s.pass,
            s.layer as usize,
            index(&mut names, s.name),
            index(&mut cases, s.case),
            s.start_ns,
            s.end_ns,
            s.items
        );
    }
    let table = |out: &mut String, items: &[&str]| {
        out.push('[');
        for (n, item) in items.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            json_str(out, item);
        }
        out.push(']');
    };
    let mut out = String::with_capacity(rows.len() + 1024);
    out.push_str("{\"workload\":");
    json_str(&mut out, workload);
    let _ = write!(out, ",\"seed\":{seed},\"columns\":");
    table(
        &mut out,
        &[
            "id", "parent", "pass", "layer", "name", "case", "start_ns", "end_ns", "items",
        ],
    );
    out.push_str(",\"layers\":");
    let layers: Vec<&str> = Layer::ALL.iter().map(|l| l.as_str()).collect();
    table(&mut out, &layers);
    out.push_str(",\"names\":");
    table(&mut out, &names);
    out.push_str(",\"cases\":");
    table(&mut out, &cases);
    out.push_str(",\"spans\":[\n");
    out.push_str(&rows);
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: Layer, name: &'static str, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            layer,
            name,
            case: "",
            start_ns: t.0,
            end_ns: t.1,
            items: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(0, None, Layer::Harness, "pass", (0, 1000)),
            span(1, Some(0), Layer::Harness, "case", (100, 900)),
            span(2, Some(1), Layer::Io, "io.mtx_load", (100, 400)),
            span(3, Some(1), Layer::Select, "select.profile", (450, 850)),
            // An extra after the pass closed: counted nowhere.
            span(4, None, Layer::Engine, "engine.convert", (1000, 5000)),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 100, 300, 400, 4000]);
        let passes = layer_times_per_pass(&spans);
        assert_eq!(passes.len(), 1);
        let (pass_s, layers) = passes[0];
        assert_eq!(pass_s, 1e-6);
        assert_eq!(layers[Layer::Harness as usize], 300e-9);
        assert_eq!(layers[Layer::Io as usize], 300e-9);
        assert_eq!(layers[Layer::Select as usize], 400e-9);
        assert_eq!(layers[Layer::Engine as usize], 0.0);
        assert!((layers.iter().sum::<f64>() - pass_s).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_off() {
        let mut t = Tracer::new();
        let root = t.enter(Layer::Harness, "pass", "");
        t.call(Layer::Io, "io.mtx_load", "banded", 7, || ());
        t.exit(root, 0);
        assert!(t.spans().is_empty());

        t.set(true, 3);
        let root = t.enter(Layer::Harness, "pass", "");
        let got = t.call(Layer::Io, "io.mtx_load", "banded", 7, || 42);
        t.exit(root, 1);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].items), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = render("w", 1, spans);
        assert!(text.contains("\"names\":[\"pass\",\"io.mtx_load\"]"));
        assert!(text.contains("[1,0,3,1,1,1,"));
    }
}
