//! In-memory span recording for the traced run.
//!
//! A span covers one call from the benchmark into a layer of the library:
//! name, start, end, the span that caused it, and a request id shared by
//! every span of one query. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A disabled tracer records
//! nothing, so the plain run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// Request id for spans that belong to no single query.
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// One thread's span log. Threads that trace (the serve load clients) own
/// a tracer each, started from the same origin, and hand it back to be
/// [`absorb`](Tracer::absorb)ed.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer whose timestamps count from `origin` (shared across threads
    /// so their spans line up).
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with the same origin and setting, for a worker
    /// thread whose spans are absorbed later.
    pub fn fork(&self) -> Tracer {
        Tracer::with_origin(self.enabled, self.origin)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a leaf span and returns its result (nest spans with
    /// [`Tracer::begin`] and [`Tracer::end`]).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Appends another tracer's spans (re-basing their parent links).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total duration and self time (duration minus
    /// the part of it covered by child spans), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let total = s.end_ns - s.start_ns;
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, vec![(10, 20), (15, 30), (90, 120)]), 30);
        assert_eq!(covered_ns(50, 60, vec![(0, 100)]), 10);
        assert_eq!(covered_ns(0, 10, vec![]), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.begin("x", None, 0), None);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let parent = t.begin("parent", None, 1);
        t.span("child", parent, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(parent);
        let times = t.self_times();
        let (pc, ptotal, pself) = times["parent"];
        let (cc, ctotal, cself) = times["child"];
        assert_eq!((pc, cc), (1, 1));
        assert_eq!(cself, ctotal);
        assert_eq!(pself, ptotal - ctotal);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        a.span("a", None, NO_REQUEST, || ());
        let mut b = a.fork();
        let p = b.begin("p", None, 3);
        b.span("c", p, 3, || ());
        b.end(p);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
