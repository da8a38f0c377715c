//! Span recorder for the traced run.
//!
//! The harness wraps every public call it makes into a layer in a span
//! (name, start, end, parent, request id). Spans stay in memory and are
//! written out once, at exit. A layer's **self time** is its span's
//! duration minus the part of that interval its child spans cover.
//! With tracing off, [`Tracer::span`] is one branch around the call, so
//! the untraced and traced runs execute the same harness code and their
//! ratio is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.wire.decode_request`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (panel op) this span belongs to.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span and count recorder. Single-threaded by construction:
/// the benchmark has one driver thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Starts a new request: spans recorded from here on carry a fresh id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval measured elsewhere (a callback the program
    /// under test makes into bench code) as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
    }

    /// Adds `n` to the count kept under `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The count kept under `name` (0 when never counted).
    #[cfg(test)]
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded span, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time, in ns, of every span: duration minus the part covered
    /// by the union of its children (clipped to the span itself).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if hi > lo {
                    children[parent].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Self time of the spans named `name`, summed per request, in µs:
    /// what one panel op spent in that stage however many calls it made.
    pub fn self_us_per_request(&self, name: &str) -> Vec<f64> {
        let mut per_request: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if span.name == name {
                *per_request.entry(span.request).or_insert(0) += self_ns;
            }
        }
        per_request.into_values().map(|ns| ns as f64 / 1e3).collect()
    }

    /// Median whole duration, in µs, of the spans named `name` (0 when
    /// there are none: a stage this run never entered took no time).
    pub fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            crate::stats::median(&durations)
        }
    }

    /// Writes the spans and counts as one JSON document (see the
    /// README's "Reading a trace file").
    pub fn write_json(&self, w: &mut impl Write, workload: &str, seed: u64) -> std::io::Result<()> {
        writeln!(w, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\",")?;
        writeln!(w, " \"counts\": {{")?;
        let n_counts = self.counts.len();
        for (i, (name, n)) in self.counts.iter().enumerate() {
            let comma = if i + 1 < n_counts { "," } else { "" };
            writeln!(w, "  \"{name}\": {n}{comma}")?;
        }
        writeln!(w, " }},")?;
        writeln!(w, " \"spans\": [")?;
        let self_ns = self.self_times_ns();
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"self\": {own}, \
                 \"parent\": {parent}, \"request\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        writeln!(w, " ]\n}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so self-time arithmetic is exact.
    fn fixture(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut tracer = Tracer::on();
        for &(name, start_ns, end_ns, parent) in spans {
            tracer.spans.push(Span { name, start_ns, end_ns, parent, request: 1 });
        }
        tracer
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ serve [10,70) ⊃ kernel [20,50)
        let t = fixture(&[("op", 0, 100, None), ("serve", 10, 70, Some(0)), ("kernel", 20, 50, Some(1))]);
        // The grandchild is charged to `serve`, not to `op` as well.
        assert_eq!(t.self_times_ns(), vec![40, 30, 30]);
    }

    #[test]
    fn self_time_subtracts_sibling_spans() {
        // op [0,100) with siblings decode [0,20), rank [20,90), encode [90,98)
        let t = fixture(&[
            ("op", 0, 100, None),
            ("decode", 0, 20, Some(0)),
            ("rank", 20, 90, Some(0)),
            ("encode", 90, 98, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![2, 20, 70, 8]);
        assert_eq!(t.self_us_per_request("rank"), vec![0.07]);
        assert_eq!(t.median_us("op"), 0.1);
        assert_eq!(t.median_us("absent"), 0.0);
    }

    #[test]
    fn stage_time_sums_per_request() {
        // Two frame round trips in request 1, one in request 2.
        let mut t = fixture(&[("frame", 0, 10, None), ("frame", 20, 50, None)]);
        t.spans
            .push(Span { name: "frame", start_ns: 60, end_ns: 65, parent: None, request: 2 });
        assert_eq!(t.self_us_per_request("frame"), vec![0.04, 0.005]);
        assert!(t.self_us_per_request("absent").is_empty());
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        // Children recorded after the fact may overlap each other or
        // poke past their parent; the union clipped to the parent counts.
        let t = fixture(&[("op", 10, 110, None), ("a", 0, 50, Some(0)), ("b", 40, 60, Some(0))]);
        assert_eq!(t.self_times_ns()[0], 100 - 50);
    }

    #[test]
    fn live_spans_nest_and_stay_inside_their_parent() {
        let mut t = Tracer::on();
        t.next_request();
        let out = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(7));
            let (start, end) = (Instant::now(), Instant::now());
            t.record("callback", start, end);
            t.count("items", 3);
            5
        });
        assert_eq!(out, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request), ("outer", None, 1));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("callback", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.counted("items"), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("outer", |t| t.span("inner", |_| 1) + 1), 2);
        t.count("items", 3);
        t.record("callback", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
        assert_eq!(t.counted("items"), 0);
    }

    #[test]
    fn trace_file_lists_every_span_with_its_self_time() {
        let t = fixture(&[("op", 0, 100, None), ("serve", 10, 70, Some(0))]);
        let mut out = Vec::new();
        t.write_json(&mut out, "req_topn_exact", 7).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"workload\": \"req_topn_exact\", \"seed\": 7"));
        assert!(text.contains("\"name\": \"op\", \"start\": 0, \"end\": 100, \"self\": 40, \"parent\": null"));
        assert!(text.contains("\"name\": \"serve\", \"start\": 10, \"end\": 70, \"self\": 60, \"parent\": 0"));
    }
}
