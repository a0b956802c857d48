//! In-memory spans recorded around calls into the library's public
//! functions, written out once when the run ends.
//!
//! A span has a name, a start and end (µs since the tracer's epoch), the
//! span that caused it, and the id of the request it belongs to. A
//! layer's *self time* is its duration minus the part of it covered by
//! its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("a span writer panicked");
        spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            req,
        });
        spans.len() - 1
    }

    fn end(&self, id: SpanId) {
        let end_us = self.now_us();
        self.spans.lock().expect("a span writer panicked")[id].end_us = end_us;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_us, s.end_us, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span (µs): its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (lo, hi) in kids {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        cur = Some((lo, hi));
                    }
                    None => cur = Some((lo, hi)),
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

/// Per-request totals of the self time of spans named `name`, in ms —
/// one value per request that has such a span.
pub fn self_ms_per_request(spans: &[Span], self_us: &[f64], name: &str) -> Vec<f64> {
    let mut per_req: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(self_us) {
        if s.name == name {
            *per_req.entry(s.req).or_default() += t / 1e3;
        }
    }
    per_req.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            span("b", 40.0, 90.0, Some(0)),
            span("b.inner", 50.0, 60.0, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 40.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            // Two children on different threads overlap on [20, 30).
            span("a", 10.0, 30.0, Some(0)),
            span("b", 20.0, 50.0, Some(0)),
            // A child running past its parent's end counts only inside it.
            span("c", 90.0, 120.0, Some(0)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - 40.0 - 10.0);
        assert_eq!(own[3], 30.0);
    }

    #[test]
    fn self_time_sums_per_request() {
        let mut spans = vec![
            span("op", 0.0, 10.0, None),
            span("father", 0.0, 2.0, Some(0)),
            span("father", 2.0, 5.0, Some(0)),
            span("op", 20.0, 30.0, None),
            span("father", 20.0, 21.0, Some(3)),
        ];
        for s in &mut spans[3..] {
            s.req = 1;
        }
        let own = self_times_us(&spans);
        let per_req = self_ms_per_request(&spans, &own, "father");
        assert_eq!(per_req.len(), 2);
        assert!((per_req[0] - 0.005).abs() < 1e-12 && (per_req[1] - 0.001).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nesting() {
        let t = Tracer::new();
        t.scope("op", None, 7, |op| {
            t.scope("stage", Some(op), 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }
}
