//! Spans around the harness's calls into each layer's public functions.
//!
//! Spans are kept in memory and written out when the workload ends, one JSON
//! object per line. A disabled tracer takes no timestamps, so the untraced
//! run measures the program alone; the traced run's extra cost is what
//! `harness.trace_overhead_frac` reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `serve.tick`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Spans of one thread of one run share an id (0 = the workload's main
    /// thread, 1 = the serve client thread).
    pub run_id: u32,
}

impl Span {
    /// `end - start`, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

/// An in-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    run_id: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (threads of one run
    /// share the epoch so their spans line up).
    pub fn new(enabled: bool, epoch: Instant, run_id: u32) -> Self {
        Tracer {
            epoch,
            enabled,
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in begin order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name aggregates over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Writes one JSON object per span:
/// `{"name":…,"start_ns":…,"end_ns":…,"parent":…|null,"run_id":…}`.
/// `parent` is the 0-based line number of the parent span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".to_string());
        // Span names are static identifiers; nothing in them needs escaping.
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run_id\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.run_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ── a 10..40 ── a1 15..25
        //             └─ b 50..90
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(totals["a"].self_ns, 20);
        // Self times partition the root's duration.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_children_and_absorbs_threads() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch, 0);
        let outer = main.begin("outer");
        main.span("inner", || ());
        main.end(outer);
        let mut client = Tracer::new(true, epoch, 1);
        let c = client.begin("client");
        client.span("send", || ());
        client.end(c);
        main.absorb(client);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2), "parent links are re-based");
        assert_eq!(spans[3].run_id, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.begin("x");
        assert_eq!(t.span("y", || 7), 7);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
