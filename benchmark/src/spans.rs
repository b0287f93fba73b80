//! Spans recorded by the benchmark's own code around its calls into
//! each layer: `{name, op, parent, start, end}`, kept in memory and
//! written out once at exit. Spans inside the program are a later
//! issue; everything here is measured from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many ops keep their individual spans (the rest only feed the
/// per-name aggregates): enough to read, small enough to write.
pub const SPAN_OPS: u64 = 20_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Schedule index of the op this span belongs to (−1: none).
    pub op: i64,
    /// Index of the parent span in the file (−1: root).
    pub parent: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name rollup: count, total duration, self time (duration minus
/// the part covered by child spans).
#[derive(Clone, Copy, Default, Debug)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default, Debug)]
pub struct Spans {
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn enabled() -> Spans {
        Spans { enabled: true, spans: Vec::new() }
    }

    /// Record a span; returns its index (for children to name as parent).
    pub fn push(&mut self, name: &'static str, op: i64, parent: i64, start: u64, end: u64) -> i64 {
        if !self.enabled {
            return -1;
        }
        self.spans.push(Span { name, op, parent, start_ns: start, end_ns: end.max(start) });
        self.spans.len() as i64 - 1
    }

    /// Set the end of a span opened before its children ran.
    pub fn close(&mut self, id: i64, end: u64) {
        if let Some(span) = usize::try_from(id).ok().and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end.max(span.start_ns);
        }
    }

    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as i64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent >= 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            r.count += 1;
            r.total_ns += dur;
            r.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The span file: a rollup per name, then every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"rollup\":{{"
        );
        for (i, (name, r)) in self.rollup().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
                r.count, r.total_ns, r.self_ns
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start\":{},\"end\":{}}}",
                s.name, s.op, s.parent, s.start_ns, s.end_ns
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
        let mut s = Spans::enabled();
        let op = s.push("op", 0, -1, 0, 100);
        s.push("load.queue", 0, op, 0, 10);
        s.push("net.inflight", 0, op, 15, 95);
        let r = s.rollup();
        assert_eq!(r["op"].total_ns, 100);
        assert_eq!(r["op"].self_ns, 10);
        assert_eq!(r["net.inflight"].self_ns, 80);
        assert!(s.to_json("w", 1).contains("\"net.inflight\""));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut s = Spans::default();
        assert_eq!(s.push("op", 0, -1, 0, 1), -1);
        assert!(s.rollup().is_empty());
    }
}
