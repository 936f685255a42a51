//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled tracer records nothing and reads no clock, so the
//! untraced run pays nothing for the instrumentation. A traced run
//! keeps every span in memory and writes them out when it ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it, and every span
/// of one benchmark operation shares `op`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder for one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    perturb: Option<&'static str>,
}

impl Tracer {
    /// A recorder; `thread` makes span ids unique across the recorders
    /// of one run, which share `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            id_base: thread << 40,
            spans: Vec::new(),
            stack: Vec::new(),
            perturb: None,
        }
    }

    /// Makes every [`Tracer::span`] named `layer` busy-wait for a
    /// quarter of its measured call time: a synthetic 25% regression of
    /// one layer, for checking that the bounds can see one.
    pub fn with_perturb(mut self, layer: Option<&'static str>) -> Tracer {
        self.perturb = layer;
        self
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: self.id_base | idx as u64,
            parent,
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let perturbed = (self.perturb == Some(name)).then(Instant::now);
        let out = f();
        if let Some(start) = perturbed {
            let until = Instant::now() + start.elapsed() / 4;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
/// Children of one span are sequential calls on one thread, so their
/// durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| index.get(&p)) {
            child_ns[*p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Summed self time in seconds per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += t as f64 * 1e-9;
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect()
}

/// The share of the root spans' time not covered by any layer span: the
/// harness's own work between calls. Per-layer self times plus this
/// share sum to the end-to-end cost.
pub fn unaccounted_frac(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            root_ns += s.dur_ns();
            root_self_ns += t;
        }
    }
    root_self_ns as f64 / root_ns.max(1) as f64
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "sim.run", 10, 50),
            span(2, Some(0), "emsim.capture", 50, 90),
            span(3, Some(2), "emsim.inner", 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        assert!((unaccounted_frac(&spans) - 0.2).abs() < 1e-12);
        let by = self_seconds_by_name(&spans);
        assert!((by["emsim.capture"] - 30e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 3);
        let root = t.begin("op", 7);
        t.span("layer", 7, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].id >> 40, 3);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(to_jsonl(&spans).lines().count() == 2);

        let mut off = Tracer::new(false, epoch, 0);
        let o = off.begin("op", 1);
        off.end(o);
        assert!(off.into_spans().is_empty());
    }
}
