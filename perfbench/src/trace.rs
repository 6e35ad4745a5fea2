//! In-memory spans recorded around calls into the system's layers.
//!
//! A span has a name, start, end, the span that caused it and, for
//! serving, the request it belongs to. Spans stay in memory during the
//! run and are written out as JSON lines when it ends. A span's self time
//! is its length minus the part of it its children cover; a phase span's
//! self time is the time no named layer span accounts for, reported as
//! `unattributed`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. A disabled tracer records nothing, so untraced runs pay
/// only for a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    /// Record a span whose ends were timed elsewhere (e.g. by the load
    /// generator's waiter threads).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-span self time: the span's length minus the union of its direct
/// children's intervals (clipped to the span), so overlapping children
/// are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.len().saturating_sub(covered(kids, s.start, s.end)))
        .collect()
}

/// Per-name totals of span length and self time, plus span counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub total: Duration,
    pub self_time: Duration,
    pub count: u64,
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.total += s.len();
        t.self_time += st;
        t.count += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start: ms(start),
            end: ms(end),
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 with children 10..30 and 40..70; the grandchild
        // 45..50 reduces only its parent's self time.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![ms(50), ms(20), ms(25), ms(5)]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // Children 10..40 and 30..60 overlap by 10: they cover 50, not 60.
        // A child spilling past its parent is clipped to it.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 60, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], ms(40));
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].self_time, ms(40));
        assert_eq!(totals["x"].total, ms(30));
        assert_eq!(totals["z"].total, ms(30));
    }

    #[test]
    fn identical_and_contained_children_do_not_double_count() {
        let spans = vec![
            span("root", 0, 100, None),
            span("p", 20, 80, Some(0)),
            span("q", 20, 80, Some(0)),
            span("r", 30, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], ms(40));
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].count, 1);
        assert_eq!(totals["p"].self_time, ms(60));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, None);
        t.end(id);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, Some(3));
        let child = t.begin("child", Some(root), Some(3));
        t.end(child);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert_eq!(t.spans()[1].parent, Some(root));
    }
}
