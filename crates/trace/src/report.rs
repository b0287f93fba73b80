//! [`TraceReport`]: the immutable rollup a store hands back from
//! `trace()`, with stable text and JSON renderings.

use crate::hist::HistogramSnapshot;
use crate::recorder::TraceEvent;
use std::fmt;

/// Everything the tracer knows, frozen at one instant.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Whether tracing was on (an all-zero report usually means it
    /// wasn't).
    pub enabled: bool,
    /// Reads that took the fast path (one round-trip — "lucky").
    pub fast_reads: u64,
    /// Reads that fell back to the slow path.
    pub slow_reads: u64,
    /// Writes that took the fast path.
    pub fast_writes: u64,
    /// Writes that fell back to the slow path.
    pub slow_writes: u64,
    /// Fast writes that settled while their round-1 timer was still
    /// pending — RTT-bound, where the rest of `fast_writes` were
    /// timer-bound (their deciding ack came after the timer had fired).
    /// Read off the session's own span: the simulator's `World` rolls up
    /// spans it synthesises from invoke/complete times, cannot see
    /// session timers, and reports 0 here.
    pub writes_before_timer: u64,
    /// Operations failed by the per-op deadline.
    pub timeouts: u64,
    /// Socket-level errors absorbed while tracing was on.
    pub io_errors: u64,
    /// Flight-recorder dumps taken (automatic or explicit).
    pub dumps: u64,
    /// Read latency distribution, microseconds.
    pub read_latency: HistogramSnapshot,
    /// Write latency distribution, microseconds.
    pub write_latency: HistogramSnapshot,
    /// Durable-backend persist latency distribution, microseconds
    /// (empty unless the store runs durable servers).
    pub persist_latency: HistogramSnapshot,
    /// The flight recorder's retained events, oldest first.
    pub recent: Vec<TraceEvent>,
    /// The most recent flight-recorder dump, if one was taken.
    pub last_dump: Option<String>,
}

impl TraceReport {
    /// Fast reads over all reads; 1.0 when no reads completed (an empty
    /// run has no unlucky ops).
    pub fn lucky_read_ratio(&self) -> f64 {
        ratio(self.fast_reads, self.slow_reads)
    }

    /// Fast writes over all writes; 1.0 when no writes completed.
    pub fn lucky_write_ratio(&self) -> f64 {
        ratio(self.fast_writes, self.slow_writes)
    }

    /// Operations that fell back to the slow path (reads + writes).
    pub fn slow_ops(&self) -> u64 {
        self.slow_reads + self.slow_writes
    }

    /// The stable multi-line text rendering (also `Display`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: enabled={} reads {}/{} lucky ({:.1}%), writes {}/{} lucky ({:.1}%)\n",
            self.enabled,
            self.fast_reads,
            self.fast_reads + self.slow_reads,
            100.0 * self.lucky_read_ratio(),
            self.fast_writes,
            self.fast_writes + self.slow_writes,
            100.0 * self.lucky_write_ratio(),
        ));
        out.push_str(&format!(
            "       fast writes: {} ({} before the timer)\n",
            self.fast_writes, self.writes_before_timer
        ));
        out.push_str(&format!(
            "       timeouts={} io_errors={} dumps={}\n",
            self.timeouts, self.io_errors, self.dumps
        ));
        out.push_str(&render_hist_line("read  latency", &self.read_latency));
        out.push_str(&render_hist_line("write latency", &self.write_latency));
        if self.persist_latency.count() > 0 {
            out.push_str(&render_hist_line("persist latency", &self.persist_latency));
        }
        out
    }

    /// A stable single-line JSON rendering (hand-rolled: this crate is
    /// dependency-free). Keys appear in a fixed order; `recent` renders
    /// each event through its `Display` form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"enabled\":{},", self.enabled));
        out.push_str(&format!("\"fast_reads\":{},", self.fast_reads));
        out.push_str(&format!("\"slow_reads\":{},", self.slow_reads));
        out.push_str(&format!("\"fast_writes\":{},", self.fast_writes));
        out.push_str(&format!("\"slow_writes\":{},", self.slow_writes));
        out.push_str(&format!("\"writes_before_timer\":{},", self.writes_before_timer));
        out.push_str(&format!("\"timeouts\":{},", self.timeouts));
        out.push_str(&format!("\"io_errors\":{},", self.io_errors));
        out.push_str(&format!("\"dumps\":{},", self.dumps));
        push_hist_json(&mut out, "read_latency_us", &self.read_latency);
        out.push(',');
        push_hist_json(&mut out, "write_latency_us", &self.write_latency);
        out.push(',');
        push_hist_json(&mut out, "persist_latency_us", &self.persist_latency);
        out.push(',');
        out.push_str("\"recent\":[");
        for (i, e) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &e.to_string());
        }
        out.push_str("],");
        out.push_str("\"last_dump\":");
        match &self.last_dump {
            Some(d) => push_json_string(&mut out, d),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

fn ratio(fast: u64, slow: u64) -> f64 {
    if fast + slow == 0 {
        1.0
    } else {
        fast as f64 / (fast + slow) as f64
    }
}

fn render_hist_line(label: &str, h: &HistogramSnapshot) -> String {
    format!(
        "       {label}: n={} p50≤{}µs p90≤{}µs p99≤{}µs p999≤{}µs\n",
        h.count(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999()
    )
}

fn push_hist_json(out: &mut String, key: &str, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "\"{key}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
        h.count(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999()
    ));
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};
    use crate::{Actor, OpSpan};

    fn sample_report() -> TraceReport {
        let t = Tracer::new(TraceConfig::enabled());
        let mut span = OpSpan::begin(0);
        span.note_send_batch(0);
        span.settle(4_000, false);
        t.record_settle(Actor::Reader { reg: 0, id: 0 }, false, 1, true, 4_000, &span);
        t.record_settle(Actor::Writer { reg: 0 }, true, 2, false, 11_000, &span);
        t.report()
    }

    #[test]
    fn ratios() {
        let r = sample_report();
        assert_eq!(r.lucky_read_ratio(), 1.0);
        assert_eq!(r.lucky_write_ratio(), 0.0);
        assert_eq!(r.slow_ops(), 1);
        // Empty report: vacuously lucky.
        let t = Tracer::new(TraceConfig::disabled());
        assert_eq!(t.report().lucky_read_ratio(), 1.0);
    }

    #[test]
    fn text_rendering_is_stable() {
        let text = sample_report().render_text();
        assert!(text.contains("reads 1/1 lucky (100.0%)"));
        assert!(text.contains("writes 0/1 lucky (0.0%)"));
        assert!(text.contains("fast writes: 0 (0 before the timer)"));
        assert!(text.contains("read  latency: n=1"));
    }

    #[test]
    fn json_has_fixed_keys_and_escapes() {
        let mut r = sample_report();
        r.last_dump = Some("line1\nline\"2\"".into());
        let json = r.to_json();
        for key in [
            "\"enabled\":true",
            "\"fast_reads\":1",
            "\"slow_writes\":1",
            "\"writes_before_timer\":0",
            "\"read_latency_us\":{\"count\":1,",
            "\"recent\":[",
            "\"last_dump\":\"line1\\nline\\\"2\\\"\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
