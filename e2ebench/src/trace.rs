//! In-memory span recorder.
//!
//! The benchmark times every call it makes into the system with
//! [`Tracer::span`].  Tracing off, that is a pair of `Instant` reads; tracing
//! on, the call is also kept as a [`Span`] (name, start, end, parent,
//! request id).  Spans stay in memory and are written out once, at exit, so
//! recording them costs no I/O inside the measured phase.

use std::io::Write;
use std::time::Instant;

use crate::stats::json_string;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or cycle) the span belongs to; spans of one request
    /// share it.
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records spans while [`Tracer::on`] is set.
#[derive(Debug)]
pub struct Tracer {
    /// Whether calls are recorded (the benchmark toggles it per block).
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f`, returning its result and its wall time in milliseconds;
    /// when tracing is on the call is also recorded as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if self.on {
            let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us,
                end_us: start_us + ms * 1e3,
                parent,
                request,
            });
        }
        (out, ms)
    }

    /// Opens an enclosing span (closed by [`Tracer::close`]); `None` when
    /// tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every recorded span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {id}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": {}}}",
                json_string(s.name),
                s.start_us,
                s.end_us,
                s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_kept_only_while_on() {
        let mut t = Tracer::new(false);
        let (v, ms) = t.span("a", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.open("root", None, 0).is_none());
        assert!(t.spans().is_empty());
        t.on = true;
        let root = t.open("root", None, 1);
        t.span("child", root, 1, || std::hint::black_box(1 + 1));
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.durations_ms("child").len(), 1);
        assert!(t.spans()[0].ms() >= t.spans()[1].ms());
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\": 0"));
    }
}
