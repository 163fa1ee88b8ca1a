//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans live in memory while a traced run measures and are written out
//! once at the end, so recording costs one `Vec` push per span.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span, `req` ties the
/// spans of one request (or one engine call) together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Span store; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Per span name: `(name, count, total ns, self ns)`, where self time
    /// is a span's duration minus the part covered by its child spans.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(*child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let t0 = t.origin;
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record("round", ms(0), ms(10), None, 0);
        t.record("call", ms(1), ms(4), root, 1);
        t.record("call", ms(5), ms(9), root, 2);
        let rows = t.summary();
        assert_eq!(rows[0], ("round", 1, 10_000_000, 3_000_000));
        assert_eq!(rows[1], ("call", 2, 7_000_000, 7_000_000));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, None, 0), None);
        assert!(t.summary().is_empty());
    }
}
