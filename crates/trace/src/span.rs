//! Per-operation spans: a fixed-capacity phase timeline carried inside
//! the session.
//!
//! A span is deliberately *plain data* — a small inline array of
//! `(phase, time)` marks plus two counters. The session that owns it
//! derives `Clone + PartialEq + Eq + Hash` (the model checker hashes
//! whole sessions), so the span must too, and must not allocate: a
//! `Vec` of marks would cost an allocation per operation on the hot
//! path and a deep clone per explored state.

/// Phase marks one span retains. The deepest lifecycle any variant
/// produces is invoke + a handful of round transitions + settle; marks
/// past the capacity overwrite the last slot so the terminal
/// settle/deadline mark always survives.
pub const SPAN_MARKS: usize = 8;

/// A lifecycle phase of one operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SpanPhase {
    /// `begin` was called: the round-1 broadcast went out.
    #[default]
    Invoke,
    /// The core broadcast again while the op was pending: round `n`
    /// started (the round-1 synchrony timer expired, or a recovery
    /// phase kicked in).
    Round(u16),
    /// The operation completed.
    Settle,
    /// The operation deadline passed; the session failed the op.
    Deadline,
}

impl std::fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanPhase::Invoke => write!(f, "invoke"),
            SpanPhase::Round(n) => write!(f, "round-{n}"),
            SpanPhase::Settle => write!(f, "settle"),
            SpanPhase::Deadline => write!(f, "deadline"),
        }
    }
}

/// One timestamped phase transition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SpanMark {
    /// Which phase began.
    pub phase: SpanPhase,
    /// Session time of the transition, in microseconds of whatever
    /// clock the owning runtime uses (virtual in the sim, an `Instant`
    /// epoch in `lucky-net`).
    pub at: u64,
}

/// The phase timeline of one in-flight (or finished) operation.
///
/// Round transitions are detected structurally: the session calls
/// [`OpSpan::note_send_batch`] whenever it absorbs core sends while the
/// operation is pending; the first batch is the invoke broadcast, every
/// later one starts a new round. The *authoritative* round count still
/// comes from the core's completion — the span only timestamps the
/// transitions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct OpSpan {
    marks: [SpanMark; SPAN_MARKS],
    len: u8,
    /// Send batches absorbed while pending; batch `k > 1` marks round `k`.
    batches: u16,
    /// The op settled with a core timer still pending: its last wait was
    /// bounded by the network, not by a timer.
    pub(crate) settled_before_timer: bool,
}

impl OpSpan {
    /// A fresh span marking `Invoke` at `now`: call from `begin`.
    pub fn begin(now: u64) -> OpSpan {
        let mut span = OpSpan::default();
        span.push(SpanPhase::Invoke, now);
        span
    }

    fn push(&mut self, phase: SpanPhase, at: u64) {
        let slot = (self.len as usize).min(SPAN_MARKS - 1);
        self.marks[slot] = SpanMark { phase, at };
        self.len = (self.len + 1).min(SPAN_MARKS as u8);
    }

    /// The core sent a batch of messages while the op was pending; the
    /// first batch is the invoke broadcast, later ones start new rounds.
    pub fn note_send_batch(&mut self, now: u64) {
        self.batches = self.batches.saturating_add(1);
        if self.batches > 1 {
            self.push(SpanPhase::Round(self.batches), now);
        }
    }

    /// The operation completed at `now`; `timer_pending` says whether a
    /// core timer the session had armed was still waiting to fire — for
    /// a one-round operation, whether it beat its round-1 timer.
    pub fn settle(&mut self, now: u64, timer_pending: bool) {
        self.push(SpanPhase::Settle, now);
        self.settled_before_timer = timer_pending;
    }

    /// The operation deadline passed at `now`.
    pub fn deadline(&mut self, now: u64) {
        self.push(SpanPhase::Deadline, now);
    }

    /// The recorded marks, oldest first.
    pub fn marks(&self) -> &[SpanMark] {
        &self.marks[..self.len as usize]
    }

    /// `true` iff no operation was ever begun on this span.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Session time of the `Invoke` mark, if any.
    pub fn invoked_at(&self) -> Option<u64> {
        self.marks().first().map(|m| m.at)
    }

    /// Session time of the terminal `Settle`/`Deadline` mark, if any.
    pub fn ended_at(&self) -> Option<u64> {
        self.marks()
            .iter()
            .rev()
            .find(|m| matches!(m.phase, SpanPhase::Settle | SpanPhase::Deadline))
            .map(|m| m.at)
    }

    /// Round transitions observed so far (≥ 1 once begun). May undercount
    /// relative to the core's authoritative round count if a round's
    /// broadcast coalesced with another batch, never overcounts sends.
    pub fn rounds_marked(&self) -> u16 {
        self.batches.max(u16::from(self.len > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_marks_in_order() {
        let mut s = OpSpan::begin(100);
        s.note_send_batch(100); // invoke broadcast: no extra mark
        s.note_send_batch(5_100); // round 2 starts
        s.settle(9_000, false);
        let phases: Vec<SpanPhase> = s.marks().iter().map(|m| m.phase).collect();
        assert_eq!(phases, vec![SpanPhase::Invoke, SpanPhase::Round(2), SpanPhase::Settle]);
        assert_eq!(s.invoked_at(), Some(100));
        assert_eq!(s.ended_at(), Some(9_000));
        assert_eq!(s.rounds_marked(), 2);
    }

    #[test]
    fn overflow_keeps_the_terminal_mark() {
        let mut s = OpSpan::begin(0);
        for i in 0..20 {
            s.note_send_batch(i);
        }
        s.deadline(999);
        assert_eq!(s.marks().len(), SPAN_MARKS);
        assert_eq!(s.marks().last().unwrap().phase, SpanPhase::Deadline);
        assert_eq!(s.ended_at(), Some(999));
    }

    #[test]
    fn default_span_is_empty() {
        let s = OpSpan::default();
        assert!(s.is_empty());
        assert_eq!(s.invoked_at(), None);
        assert_eq!(s.ended_at(), None);
        assert_eq!(s.rounds_marked(), 0);
    }
}
