//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer of the program in a
//! span; each top-level unit of work (a query, a load, a save, ...) is a
//! request whose spans share one id. Spans stay in memory and are written
//! out as JSON lines when the run ends.
//!
//! Each request's length is also measured apart from its spans, with an
//! `Instant` taken before the root span is opened and read after it is
//! closed. [`Tracer::check`] holds the spans' self times against that
//! length: spans that overlap or reach outside their parent, or span times
//! that disagree with the clock, make their self times add up to more.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    /// Each request's length measured around its root span (ns), indexed
    /// by request id; 0 while the request is open.
    measured_ns: RefCell<Vec<u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            measured_ns: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    /// Outside any span it starts a new request. Returns `f`'s value and
    /// the span's length.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let outer = Instant::now();
        let parent = self.open.borrow().last().copied();
        let request = match parent {
            Some(p) => self.spans.borrow()[p].request,
            None => {
                let mut measured = self.measured_ns.borrow_mut();
                measured.push(0);
                measured.len() as u64 - 1
            }
        };
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now_ns();
        self.spans.borrow_mut()[idx].start_ns = start;
        let out = f();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        self.open.borrow_mut().pop();
        if parent.is_none() {
            self.measured_ns.borrow_mut()[request as usize] = outer.elapsed().as_nanos() as u64;
        }
        (out, Duration::from_nanos(end - start))
    }

    /// Self time of every span: its length minus the part of it that its
    /// child spans cover (children of one span never overlap: the benchmark
    /// is single-threaded).
    pub fn self_times(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                let ps = &spans[p];
                let lo = s.start_ns.max(ps.start_ns);
                let hi = s.end_ns.min(ps.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Check that in every request the spans' self times add up to no more
    /// than the request's length as measured apart from its spans.
    pub fn check(&self) -> Result<(), String> {
        let spans = self.spans.borrow();
        let measured = self.measured_ns.borrow();
        let mut sum = vec![0u64; measured.len()];
        for (s, st) in spans.iter().zip(self.self_times()) {
            sum[s.request as usize] += st;
        }
        match sum.iter().zip(measured.iter()).position(|(s, m)| s > m) {
            Some(r) => Err(format!(
                "request {r}: self times {} ns > measured length {} ns",
                sum[r], measured[r]
            )),
            None => Ok(()),
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.borrow();
        let selfs = self.self_times();
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, st)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{st}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_request_and_self_time_excludes_children() {
        let t = Tracer::default();
        t.span("req", || {
            t.span("a", || std::thread::sleep(Duration::from_millis(2)));
            t.span("b", || std::thread::sleep(Duration::from_millis(2)));
        });
        t.span("req2", || ());
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].request, 0);
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].request, 1);
        let selfs = t.self_times();
        assert_eq!(selfs[0] + selfs[1] + selfs[2], spans[0].duration_ns());
        assert!(selfs[0] < spans[0].duration_ns() / 2);
        let measured = t.measured_ns.borrow();
        assert_eq!(measured.len(), 2);
        assert!(measured[0] >= spans[0].duration_ns());
        drop((spans, measured));
        t.check().unwrap();
    }

    /// A tracer holding one request with the given spans, `(name, start,
    /// end, parent)`, and measured length.
    fn built(spans: &[(&str, u64, u64, Option<usize>)], measured_ns: u64) -> Tracer {
        let t = Tracer::default();
        *t.spans.borrow_mut() = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name: name.to_owned(),
                start_ns,
                end_ns,
                parent,
                request: 0,
            })
            .collect();
        *t.measured_ns.borrow_mut() = vec![measured_ns];
        t
    }

    #[test]
    fn check_rejects_span_trees_that_break_the_invariant() {
        let nested = [
            ("req", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 50, 90, Some(0)),
        ];
        built(&nested, 100).check().unwrap();
        // Span times longer than the request measured apart from them.
        assert!(built(&nested, 90).check().is_err());
        // Children that overlap each other.
        let overlapping = [
            ("req", 0, 100, None),
            ("a", 10, 70, Some(0)),
            ("b", 40, 100, Some(0)),
        ];
        assert!(built(&overlapping, 100).check().is_err());
        // A child that ends after its parent.
        let escaping = [("req", 0, 100, None), ("a", 50, 150, Some(0))];
        assert!(built(&escaping, 100).check().is_err());
    }
}
