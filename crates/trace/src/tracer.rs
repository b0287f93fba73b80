//! The per-store [`Tracer`]: the rollup point every runtime reports to.

use crate::hist::Histogram;
use crate::recorder::{Actor, EventKind, FailReason, FlightRecorder, TraceEvent};
use crate::report::TraceReport;
use crate::span::{OpSpan, SpanPhase};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Tracing policy, fixed at store construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// Master switch. Off costs one relaxed atomic load per entry point.
    pub enabled: bool,
    /// Flight-recorder ring capacity (events).
    pub recorder_capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity: enough to cover the tail of a few dozen
    /// multi-round operations.
    pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

    /// Tracing off (the default): every record call is a no-op after
    /// one relaxed load.
    pub fn disabled() -> TraceConfig {
        TraceConfig { enabled: false, recorder_capacity: Self::DEFAULT_RECORDER_CAPACITY }
    }

    /// Tracing on with the default ring capacity.
    pub fn enabled() -> TraceConfig {
        TraceConfig { enabled: true, recorder_capacity: Self::DEFAULT_RECORDER_CAPACITY }
    }

    /// Tracing on with a specific ring capacity.
    pub fn with_capacity(recorder_capacity: usize) -> TraceConfig {
        TraceConfig { enabled: true, recorder_capacity }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Per-store trace rollup: lucky/slow counters, latency histograms and
/// the flight recorder. All entry points are `&self` and thread-safe;
/// runtimes share one `Arc<Tracer>` across their workers.
pub struct Tracer {
    enabled: AtomicBool,
    read_latency: Histogram,
    write_latency: Histogram,
    fast_reads: AtomicU64,
    slow_reads: AtomicU64,
    fast_writes: AtomicU64,
    slow_writes: AtomicU64,
    writes_before_timer: AtomicU64,
    timeouts: AtomicU64,
    io_errors: AtomicU64,
    dumps: AtomicU64,
    recorder: FlightRecorder,
    last_dump: Mutex<Option<String>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("events", &self.recorder.len())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer with the given policy.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(config.enabled),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            fast_reads: AtomicU64::new(0),
            slow_reads: AtomicU64::new(0),
            fast_writes: AtomicU64::new(0),
            slow_writes: AtomicU64::new(0),
            writes_before_timer: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            recorder: FlightRecorder::new(config.recorder_capacity),
            last_dump: Mutex::new(None),
        }
    }

    /// `true` iff recording is on. One relaxed load — this is the whole
    /// cost of a disabled tracer.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Replay a span's invoke/round marks into the recorder. Settle and
    /// deadline marks are skipped — the caller records those with the
    /// richer [`EventKind::Settle`]/[`EventKind::OpFailed`] payloads.
    fn push_span(&self, actor: Actor, write: bool, span: &OpSpan) {
        for mark in span.marks() {
            let kind = match mark.phase {
                SpanPhase::Invoke => EventKind::Invoke { write },
                SpanPhase::Round(n) => EventKind::Round { n },
                SpanPhase::Settle | SpanPhase::Deadline => continue,
            };
            self.recorder.record(TraceEvent { at_micros: mark.at, actor, kind });
        }
    }

    /// An operation completed: bump the luck counters, record latency,
    /// and replay its span into the flight recorder.
    pub fn record_settle(
        &self,
        actor: Actor,
        write: bool,
        rounds: u32,
        fast: bool,
        latency_micros: u64,
        span: &OpSpan,
    ) {
        if !self.is_enabled() {
            return;
        }
        let counter = match (write, fast) {
            (true, true) => &self.fast_writes,
            (true, false) => &self.slow_writes,
            (false, true) => &self.fast_reads,
            (false, false) => &self.slow_reads,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if write && fast && span.settled_before_timer {
            self.writes_before_timer.fetch_add(1, Ordering::Relaxed);
        }
        let hist = if write { &self.write_latency } else { &self.read_latency };
        hist.record(latency_micros);
        self.push_span(actor, write, span);
        self.recorder.record(TraceEvent {
            at_micros: span.ended_at().or(span.invoked_at()).unwrap_or(0),
            actor,
            kind: EventKind::Settle { rounds, fast, latency_micros },
        });
    }

    /// An operation failed: record the span + failure event and dump the
    /// flight recorder (a timeout is exactly the moment the recent event
    /// log is worth keeping).
    pub fn record_failure(&self, actor: Actor, write: bool, reason: FailReason, span: &OpSpan) {
        if !self.is_enabled() {
            return;
        }
        if reason == FailReason::Deadline {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        self.push_span(actor, write, span);
        self.recorder.record(TraceEvent {
            at_micros: span.ended_at().or(span.invoked_at()).unwrap_or(0),
            actor,
            kind: EventKind::OpFailed { reason },
        });
        self.dump(&format!("op failed on {actor}: {reason}"));
    }

    /// A message delivery (sim runs feed these; the net hot path does
    /// not, to keep the router lock-free of tracing).
    pub fn record_delivery(&self, at_micros: u64, from: Actor, to: Actor) {
        if !self.is_enabled() {
            return;
        }
        self.recorder.record(TraceEvent {
            at_micros,
            actor: to,
            kind: EventKind::Deliver { from },
        });
    }

    /// A socket-level error was absorbed: record it and dump.
    pub fn note_io_error(&self, at_micros: u64, detail: &str) {
        if !self.is_enabled() {
            return;
        }
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(TraceEvent {
            at_micros,
            actor: Actor::Store,
            kind: EventKind::IoError,
        });
        self.dump(&format!("io error: {detail}"));
    }

    /// A checker verdict failed over this store's history: record it and
    /// dump, so the violation report comes with the recent event log.
    pub fn note_check_failed(&self, detail: &str) {
        if !self.is_enabled() {
            return;
        }
        self.recorder.record(TraceEvent {
            at_micros: 0,
            actor: Actor::Store,
            kind: EventKind::CheckFailed,
        });
        self.dump(&format!("checker verdict failed: {detail}"));
    }

    /// Render the flight recorder now, retain it as
    /// [`Tracer::last_dump`], and return it.
    pub fn dump(&self, reason: &str) -> String {
        let rendered = self.recorder.render(reason);
        self.dumps.fetch_add(1, Ordering::Relaxed);
        let mut last = self.last_dump.lock().unwrap_or_else(|e| e.into_inner());
        *last = Some(rendered.clone());
        rendered
    }

    /// The most recent automatic or explicit dump, if any.
    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Roll everything up into an immutable report.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            enabled: self.is_enabled(),
            fast_reads: self.fast_reads.load(Ordering::Relaxed),
            slow_reads: self.slow_reads.load(Ordering::Relaxed),
            fast_writes: self.fast_writes.load(Ordering::Relaxed),
            slow_writes: self.slow_writes.load(Ordering::Relaxed),
            writes_before_timer: self.writes_before_timer.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            dumps: self.dumps.load(Ordering::Relaxed),
            read_latency: self.read_latency.snapshot(),
            write_latency: self.write_latency.snapshot(),
            persist_latency: Default::default(),
            recent: self.recorder.snapshot(),
            last_dump: self.last_dump(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settled_span() -> OpSpan {
        let mut s = OpSpan::begin(100);
        s.note_send_batch(100);
        s.settle(5_100, false);
        s
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(TraceConfig::disabled());
        t.record_settle(Actor::Writer { reg: 0 }, true, 1, true, 5_000, &settled_span());
        t.record_failure(Actor::Writer { reg: 0 }, true, FailReason::Deadline, &settled_span());
        t.note_io_error(0, "boom");
        let r = t.report();
        assert!(!r.enabled);
        assert_eq!(r.fast_writes + r.slow_writes + r.timeouts + r.io_errors, 0);
        assert!(r.recent.is_empty());
        assert!(r.last_dump.is_none());
    }

    #[test]
    fn settle_classifies_luck_and_records_latency() {
        let t = Tracer::new(TraceConfig::enabled());
        t.record_settle(Actor::Reader { reg: 0, id: 0 }, false, 1, true, 4_000, &settled_span());
        t.record_settle(Actor::Reader { reg: 0, id: 1 }, false, 2, false, 9_000, &settled_span());
        t.record_settle(Actor::Writer { reg: 0 }, true, 1, true, 5_000, &settled_span());
        let r = t.report();
        assert_eq!((r.fast_reads, r.slow_reads, r.fast_writes, r.slow_writes), (1, 1, 1, 0));
        assert_eq!(r.read_latency.count(), 2);
        assert_eq!(r.write_latency.count(), 1);
        assert!(r.recent.iter().any(|e| matches!(e.kind, EventKind::Settle { fast: true, .. })));
    }

    #[test]
    fn only_fast_writes_settled_with_a_timer_pending_count_as_before_the_timer() {
        let t = Tracer::new(TraceConfig::enabled());
        let mut early = OpSpan::begin(100);
        early.settle(300, true);
        let w = Actor::Writer { reg: 0 };
        t.record_settle(w, true, 1, true, 200, &early);
        t.record_settle(w, true, 1, true, 5_000, &settled_span()); // at the timer
        t.record_settle(w, true, 3, false, 900, &early); // slow: a later round's wait
        t.record_settle(Actor::Reader { reg: 0, id: 0 }, false, 1, true, 200, &early); // a read
        let r = t.report();
        assert_eq!((r.fast_writes, r.writes_before_timer), (2, 1));
        assert!(r.render_text().contains("fast writes: 2 (1 before the timer)"));
    }

    #[test]
    fn failure_dumps_the_span_events() {
        let t = Tracer::new(TraceConfig::enabled());
        let mut span = OpSpan::begin(10);
        span.note_send_batch(10);
        span.note_send_batch(5_010); // round 2
        span.deadline(1_000_000);
        t.record_failure(Actor::Writer { reg: 2 }, true, FailReason::Deadline, &span);
        let r = t.report();
        assert_eq!(r.timeouts, 1);
        assert_eq!(r.dumps, 1);
        let dump = r.last_dump.expect("failure auto-dumps");
        assert!(dump.contains("deadline exceeded"));
        assert!(dump.contains("invoke WRITE"));
        assert!(dump.contains("round-2"));
        assert!(dump.contains("w@2"));
    }
}
