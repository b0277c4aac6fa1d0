//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the engine is touched. A span is
//! `(name, start, end, parent)` plus the id of the *op* it belongs to
//! (all spans of one operation share it). They are held in memory and
//! written as one JSON document when the run ends.
//!
//! A span's self time is its duration minus the part its children
//! cover: for an op span whose children are the staged layer calls,
//! that is exactly what staging cannot attribute.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), next_op: 0 }
    }

    /// The instant span times are measured from; threads that time
    /// their own work report offsets from it through [`Recorder::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Record a span that was timed elsewhere (a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span { name, op, parent, start_ns, end_ns });
        (self.spans.len() - 1) as u32
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh op id: one per measured operation.
    pub fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as u32
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        (end - s.start_ns) as f64
    }

    /// Time `f` under a span; returns its result and the span's
    /// duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, op, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the children's durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total duration and self time per span name, in first-seen order:
    /// `(name, count, total_ns, self_ns)`.
    pub fn rollup(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let own = self.self_times_ns();
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let dur = s.end_ns - s.start_ns;
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some((_, c, t, o)) => {
                    *c += 1;
                    *t += dur;
                    *o += own_ns;
                }
                None => out.push((s.name, 1, dur, own_ns)),
            }
        }
        out
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 80);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let op = r.new_op();
        let root = r.open("op", op, None);
        let a = r.open("layer.a", op, Some(root));
        r.close(a);
        let b = r.open("layer.b", op, Some(root));
        r.close(b);
        r.close(root);
        // make the arithmetic exact
        r.spans[root as usize].start_ns = 0;
        r.spans[root as usize].end_ns = 100;
        r.spans[a as usize].start_ns = 10;
        r.spans[a as usize].end_ns = 40;
        r.spans[b as usize].start_ns = 50;
        r.spans[b as usize].end_ns = 90;
        assert_eq!(r.self_times_ns(), vec![30, 30, 40]);
        let roll = r.rollup();
        assert_eq!(roll[0], ("op", 1, 100, 30));
        assert_eq!(roll[1], ("layer.a", 1, 30, 30));
        let json = r.to_json("w");
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
        assert!(r.spans().iter().all(|s| s.op == op));
    }

    #[test]
    fn span_helper_times_the_closure() {
        let mut r = Recorder::new();
        let op = r.new_op();
        let (v, ns) = r.span("x", op, None, || 21 * 2);
        assert_eq!(v, 42);
        assert!(ns >= 0.0);
        assert_ne!(r.new_op(), op);
    }
}
