//! Spans recorded from the benchmark's own code around its calls into
//! each module. Each client thread owns one [`Trace`]; they are merged
//! and written once, as JSON lines, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: its name, interval, parent span, and the request it
/// belongs to (spans of one request share `request`).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run: the track in the high bits.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
    /// `module.call` name.
    pub name: &'static str,
    /// Start, microseconds since the run's origin.
    pub start_us: f64,
    /// End, microseconds since the run's origin.
    pub end_us: f64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(((self.end_us - self.start_us) / 1e6).max(0.0))
    }
}

/// An in-memory span buffer for one thread.
pub struct Trace {
    origin: Instant,
    track: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// A buffer whose span ids are unique across tracks.
    pub fn new(origin: Instant, track: u64) -> Trace {
        Trace {
            origin,
            track,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished interval and returns its span id.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (self.track << 40) | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: self.at(start),
            end_us: self.at(end),
        });
        id
    }

    /// Starts a span that [`Trace::close`] ends, so that spans recorded
    /// in between can name it as their parent.
    pub fn open(&mut self, request: u64, parent: Option<u64>, name: &'static str) -> u64 {
        let now = Instant::now();
        self.record(request, parent, name, now, now)
    }

    /// Ends a span started with [`Trace::open`].
    pub fn close(&mut self, id: u64) {
        let end = self.at(Instant::now());
        let local = (id & ((1 << 40) - 1)) as usize;
        if let Some(span) = self.spans.get_mut(local) {
            span.end_us = end;
        }
    }

    /// Times `f` as a span and returns its result, duration and id.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(request, parent, name, start, end);
        (out, end - start, id)
    }

    /// Records consecutive child spans of known durations starting at
    /// `start` — the per-step times a call returned, laid end to end.
    pub fn steps(
        &mut self,
        request: u64,
        parent: u64,
        start: Instant,
        steps: &[(&'static str, Duration)],
    ) {
        let mut t = start;
        for &(name, d) in steps {
            self.record(request, Some(parent), name, t, t + d);
            t += d;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another buffer's spans into this one.
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, trace: &Trace) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in trace.spans() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
             \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id, s.request, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

/// Counts a traced run's spans and writes them to the work directory.
pub fn finish(args: &crate::Args, out: &mut crate::Outcome, trace: &Trace) {
    out.metrics
        .set("trace.spans", trace.spans().len() as f64, "count");
    let path = args
        .work_dir
        .join(format!("trace-{}.jsonl", args.workload.name));
    match write_jsonl(&path, trace) {
        Ok(()) => eprintln!("wrote {} spans to {}", trace.spans().len(), path.display()),
        Err(e) => out.violation(format!("cannot write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_consecutive_children() {
        let origin = Instant::now();
        let mut t = Trace::new(origin, 3);
        let ((), _, root) = t.time(7, None, "root", || ());
        t.steps(
            7,
            root,
            origin,
            &[
                ("a", Duration::from_micros(10)),
                ("b", Duration::from_micros(5)),
            ],
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].end_us, spans[2].start_us);
        assert!(spans.iter().all(|s| s.request == 7 && s.id >> 40 == 3));
    }

    #[test]
    fn open_spans_close_after_their_children() {
        let mut t = Trace::new(Instant::now(), 0);
        let root = t.open(1, None, "root");
        let ((), _, child) = t.time(1, Some(root), "child", || {
            std::thread::sleep(Duration::from_millis(2));
        });
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[1].id, child);
        assert!(spans[0].start_us <= spans[1].start_us && spans[0].end_us >= spans[1].end_us);
    }
}
