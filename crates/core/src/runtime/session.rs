//! The sans-io [`ClientSession`]: a poll-based operation lifecycle that
//! every runtime consumes.
//!
//! The paper's clients are event-driven state machines — invoke, rounds
//! of sends and acks interleaved with synchrony timers, complete (§2.1).
//! A [`ClientSession`] owns exactly that lifecycle for one in-flight
//! operation over any [`ClientCore`], with **explicit time**: the driver
//! tells the session what time it is ([`Time`], microseconds on whatever
//! clock the runtime owns — virtual in `lucky-sim`, an `Instant` epoch in
//! `lucky-net`), and the session tells the driver when it next needs to
//! be woken ([`ClientSession::next_wake`]). No I/O, no threads, no clock
//! reads happen inside; the session is a pure state machine, so the same
//! code drives the deterministic simulator, the blocking threaded
//! runtime, the nonblocking polled runtime and the model checker.
//!
//! The session subsumes what every runtime used to re-implement:
//!
//! * the `invoke` / `deliver` / `timer` triple becomes
//!   [`ClientSession::begin`] plus [`ClientSession::handle`] with
//!   [`Input::Deliver`] / [`Input::Wake`];
//! * the ad-hoc `(TimerId, Instant)` vectors become internal due-times,
//!   surfaced only as a single [`ClientSession::next_wake`] deadline;
//! * the per-runtime operation deadline becomes a session concern,
//!   configured once via [`SessionConfig`] and reported as
//!   [`SessionError::DeadlineExceeded`].
//!
//! # Completion on a delivery
//!
//! A round's timer bounds a wait; it does not define one. The WRITE
//! engine ends its PW phase on the ack that *decides* the outcome
//! (`S − fw` acks, or all `S`) instead of waiting Fig. 1 line 5's timer
//! out — legal because the timer is the client's local clock in an
//! asynchronous model, free to expire at any instant — so an operation
//! can complete inside [`Input::Deliver`] while its timer is still
//! pending. Completion clears every pending timer and the deadline:
//! [`ClientSession::next_wake`] is `None` from that step on and a driver
//! arms nothing stale. When the deciding ack instead *starts* a later
//! round (fast writes off, all `S` acked), the superseded timer stays
//! queued until it fires as a no-op in the core — a wasted wake-up, never
//! a wrong one. The op's span records whether it settled with a timer
//! still pending, which `lucky-trace` rolls up as `writes_before_timer`.
//!
//! # Driving one atomic write by hand
//!
//! The session API is small enough to operate manually — this is exactly
//! what every driver does, minus the sockets:
//!
//! ```
//! use lucky_core::runtime::{ClientSession, Input, Output, SessionConfig, SessionStatus};
//! use lucky_core::Setup;
//! use lucky_types::{Message, Op, Params, ProcessId, PwAckMsg, RegisterId, Seq, Time, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // S = 3 servers, one crash tolerated, fast writes despite one failure.
//! let setup = Setup::Atomic(Params::new(1, 0, 1, 0)?);
//! let core = setup.make_writer(RegisterId::DEFAULT, Default::default());
//! let mut session = ClientSession::new(
//!     ProcessId::Writer,
//!     RegisterId::DEFAULT,
//!     core,
//!     SessionConfig::default(),
//! );
//!
//! // Begin WRITE(7): the session queues the PW-round broadcast.
//! session.begin(Op::Write(Value::from_u64(7)), Time(0))?;
//! let mut pw_targets = Vec::new();
//! while let Some(Output::Send(to, _msg)) = session.poll_output() {
//!     pw_targets.push(to);
//! }
//! assert_eq!(pw_targets.len(), 3, "PW broadcast to every server");
//! let due = session.next_wake().expect("the round-1 synchrony timer is pending");
//!
//! // One ack is not a quorum: the write is pending, the timer still owed.
//! let ack = Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(1), newread: vec![] });
//! session.handle(Input::Deliver(pw_targets[0], ack.clone()), Time(40));
//! assert_eq!(session.next_wake(), Some(due));
//! // The second ack is the (S - fw)-th: the fast path is decided, so the
//! // write completes on that delivery — one round trip, no timer wait.
//! session.handle(Input::Deliver(pw_targets[1], ack), Time(45));
//! let outcome = session.take_outcome().expect("fast write completed");
//! assert_eq!((outcome.rounds, outcome.fast), (1, true));
//! assert_eq!(outcome.completed_at, Time(45));
//! assert_eq!(session.next_wake(), None, "nothing left to wake for");
//! assert_eq!(session.status(), &SessionStatus::Idle, "ready for the next operation");
//! # Ok(())
//! # }
//! ```

use crate::runtime::adapters::ClientCore;
use lucky_sim::{Effects, TimerId};
use lucky_trace::OpSpan;
use lucky_types::{Message, Op, OpKind, ProcessId, RegisterId, Time, Value};
use std::collections::VecDeque;
use std::fmt;

/// Per-session policy, fixed at construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SessionConfig {
    /// Operation deadline in microseconds of session time: an operation
    /// still pending `deadline_micros` after its [`ClientSession::begin`]
    /// fails with [`SessionError::DeadlineExceeded`] on the next input.
    /// `None` (the default) never times out.
    pub deadline_micros: Option<u64>,
}

impl SessionConfig {
    /// A config with the given operation deadline.
    pub fn with_deadline(deadline_micros: u64) -> SessionConfig {
        SessionConfig { deadline_micros: Some(deadline_micros) }
    }
}

/// An event the driver feeds into the session.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Input {
    /// A protocol message arrived from `from`.
    Deliver(ProcessId, Message),
    /// The driver woke up (its clock reached a previously reported
    /// [`ClientSession::next_wake`], or it simply polled): the session
    /// fires every internal timer that is due and checks the deadline.
    Wake,
}

/// An effect the driver drains from the session and performs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Output {
    /// Send one protocol message to `to`.
    Send(ProcessId, Message),
}

impl Output {
    /// The `(to, message)` send — the form every driver forwards.
    pub fn into_send(self) -> (ProcessId, Message) {
        let Output::Send(to, msg) = self;
        (to, msg)
    }
}

/// Why a session's operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SessionError {
    /// The operation was still pending when the configured deadline
    /// (see [`SessionConfig`]) passed.
    DeadlineExceeded,
    /// [`ClientSession::begin`] was called with an operation already in
    /// flight (clients invoke one operation at a time, §2.2).
    Busy,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::DeadlineExceeded => {
                write!(f, "operation still pending at the configured deadline")
            }
            SessionError::Busy => write!(f, "an operation is already in flight"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A completed operation, as the session observed it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SessionOutcome {
    /// The register the operation targeted.
    pub reg: RegisterId,
    /// Whether the operation was a WRITE or a READ.
    pub kind: OpKind,
    /// The raw completion value: the value read (READs) or `None`
    /// (WRITEs). [`SessionOutcome::value_or`] resolves it for display.
    pub value: Option<Value>,
    /// Communication round-trips used.
    pub rounds: u32,
    /// `true` iff the operation was fast (one round-trip, §2.4).
    pub fast: bool,
    /// Session time at [`ClientSession::begin`].
    pub invoked_at: Time,
    /// Session time at completion.
    pub completed_at: Time,
    /// The operation's phase timeline (invoke → round transitions →
    /// settle), timestamped in session time.
    pub span: OpSpan,
}

impl SessionOutcome {
    /// The headline value of the operation: the value read, the value
    /// written (taken from `op`), or `⊥` for a READ of the empty
    /// register.
    pub fn value_or(&self, op: &Op) -> Value {
        match (&self.value, op) {
            (Some(v), _) => v.clone(),
            (None, Op::Write(v)) => v.clone(),
            (None, Op::Read) => Value::Bot,
        }
    }
}

/// Where the session's operation lifecycle currently stands.
///
/// `Done` is much larger than its siblings (the outcome carries the
/// value and the op's span), but there is exactly one `SessionStatus`
/// per long-lived session and it lives inline in the session struct —
/// boxing it would buy nothing except an allocation per completed op.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum SessionStatus {
    /// No operation in flight; [`ClientSession::begin`] may start one.
    #[default]
    Idle,
    /// An operation is in flight: keep feeding [`Input`]s and honouring
    /// [`ClientSession::next_wake`].
    Pending,
    /// The operation completed; take it with
    /// [`ClientSession::take_outcome`].
    Done(SessionOutcome),
    /// The operation failed; take it with
    /// [`ClientSession::take_failure`].
    Failed(SessionError),
}

/// A sans-io client session: one [`ClientCore`] (a writer or reader of
/// any variant) plus the operation lifecycle around it.
///
/// Generic over the core so model checkers can explore concrete,
/// hashable sessions ([`ClientSession<AtomicWriter>`] etc.); runtimes use
/// the default `Box<dyn ClientCore>` form built by the
/// [`Setup`](crate::Setup) session factories.
///
/// [`ClientSession<AtomicWriter>`]: crate::atomic::AtomicWriter
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClientSession<C: ClientCore = Box<dyn ClientCore>> {
    id: ProcessId,
    reg: RegisterId,
    core: C,
    config: SessionConfig,
    /// The in-flight (or last) operation; `None` before the first begin.
    op: Option<Op>,
    invoked_at: Time,
    /// Absolute deadline of the in-flight operation.
    deadline: Option<Time>,
    /// Pending core timers as absolute due times.
    timers: Vec<(TimerId, Time)>,
    outputs: VecDeque<Output>,
    status: SessionStatus,
    /// Phase timeline of the in-flight (or last) operation. Plain
    /// `Copy` data, so the session stays hashable and cheap to clone
    /// for the model checker.
    span: OpSpan,
}

impl<C: ClientCore> ClientSession<C> {
    /// A fresh, idle session for the client process `id` operating on
    /// register `reg`.
    pub fn new(id: ProcessId, reg: RegisterId, core: C, config: SessionConfig) -> ClientSession<C> {
        ClientSession {
            id,
            reg,
            core,
            config,
            op: None,
            invoked_at: Time::ZERO,
            deadline: None,
            timers: Vec::new(),
            outputs: VecDeque::new(),
            status: SessionStatus::Idle,
            span: OpSpan::default(),
        }
    }

    /// The client process this session drives.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The register this session operates on.
    pub fn reg(&self) -> RegisterId {
        self.reg
    }

    /// The in-flight (or most recently begun) operation.
    pub fn op(&self) -> Option<&Op> {
        self.op.as_ref()
    }

    /// Where the lifecycle stands. `Done`/`Failed` persist until taken
    /// (or until the next [`ClientSession::begin`]).
    pub fn status(&self) -> &SessionStatus {
        &self.status
    }

    /// `true` iff an operation is in flight.
    pub fn is_pending(&self) -> bool {
        matches!(self.status, SessionStatus::Pending)
    }

    /// `true` iff [`ClientSession::begin`] may start an operation now.
    pub fn is_ready(&self) -> bool {
        !self.is_pending()
    }

    /// `true` iff the last begun operation has resolved — `Done` or
    /// `Failed` — and its result is waiting in
    /// [`ClientSession::take_outcome`] / [`ClientSession::take_failure`].
    /// Drivers use this as the settle gate after feeding inputs.
    pub fn is_settled(&self) -> bool {
        matches!(self.status, SessionStatus::Done(_) | SessionStatus::Failed(_))
    }

    /// Read-only access to the protocol core (used by assertions and the
    /// model checker's no-op pruning).
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The phase timeline of the in-flight (or last) operation. A
    /// completed op's span also rides on its [`SessionOutcome`]; this
    /// accessor serves the failure path, where
    /// [`ClientSession::take_failure`] returns only the error.
    pub fn span(&self) -> &OpSpan {
        &self.span
    }

    /// Start an operation at session time `now`.
    ///
    /// A previous `Done`/`Failed` status is discarded (take outcomes
    /// first if you need them). Note that after a
    /// [`SessionError::DeadlineExceeded`] failure the core may still
    /// consider its abandoned operation in progress — whether a new one
    /// can start is the core's business (the paper's clients never
    /// abandon operations; deadlines model a crashed client).
    ///
    /// # Errors
    ///
    /// [`SessionError::Busy`] if an operation is already pending.
    pub fn begin(&mut self, op: Op, now: Time) -> Result<(), SessionError> {
        if self.is_pending() {
            return Err(SessionError::Busy);
        }
        self.op = Some(op.clone());
        self.invoked_at = now;
        self.deadline = self.config.deadline_micros.map(|d| now + d);
        self.timers.clear();
        self.status = SessionStatus::Pending;
        self.span = OpSpan::begin(now.0);
        let mut eff = Effects::new();
        self.core.invoke(op, &mut eff);
        self.absorb(eff, now);
        Ok(())
    }

    /// Feed one input at session time `now`; returns the status after.
    ///
    /// While pending, the deadline is checked first: if `now` has
    /// reached it the session fails and the input is discarded — the
    /// operation is over, exactly as if the client had crashed.
    /// Deliveries while *not* pending still reach the core (stale acks
    /// arriving after completion keep updating server-view bookkeeping,
    /// and the core's tag discipline ignores what no longer matters).
    pub fn handle(&mut self, input: Input, now: Time) -> SessionStatus {
        if self.is_pending() {
            if let Some(deadline) = self.deadline {
                if now >= deadline {
                    self.timers.clear();
                    self.deadline = None;
                    self.span.deadline(now.0);
                    self.status = SessionStatus::Failed(SessionError::DeadlineExceeded);
                    return self.status.clone();
                }
            }
        }
        match input {
            Input::Deliver(from, msg) => {
                let mut eff = Effects::new();
                self.core.deliver(from, msg, &mut eff);
                self.absorb(eff, now);
            }
            Input::Wake => self.fire_due_timers(now),
        }
        self.status.clone()
    }

    /// Fire every internal timer due at or before `now`, repeating in
    /// case a firing schedules another timer that is itself already due.
    fn fire_due_timers(&mut self, now: Time) {
        loop {
            let Some(pos) = self.timers.iter().position(|&(_, due)| due <= now) else {
                return;
            };
            let (id, _) = self.timers.remove(pos);
            let mut eff = Effects::new();
            self.core.timer(id, &mut eff);
            self.absorb(eff, now);
        }
    }

    /// The next session time at which the driver must call
    /// [`ClientSession::handle`] with [`Input::Wake`]: the earliest
    /// pending timer or the operation deadline, whichever comes first.
    /// `None` means the session needs no wake-up (deliveries may still
    /// arrive).
    pub fn next_wake(&self) -> Option<Time> {
        let timer = self.timers.iter().map(|&(_, due)| due).min();
        let deadline = if self.is_pending() { self.deadline } else { None };
        match (timer, deadline) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (t, d) => t.or(d),
        }
    }

    /// Drain one queued output effect (send it, then poll again).
    pub fn poll_output(&mut self) -> Option<Output> {
        self.outputs.pop_front()
    }

    /// `true` iff outputs are queued.
    pub fn has_output(&self) -> bool {
        !self.outputs.is_empty()
    }

    /// Take the completed operation, returning the session to `Idle`.
    /// `None` unless the status is `Done`.
    pub fn take_outcome(&mut self) -> Option<SessionOutcome> {
        match std::mem::take(&mut self.status) {
            SessionStatus::Done(outcome) => Some(outcome),
            other => {
                self.status = other;
                None
            }
        }
    }

    /// Take the failed operation's error, returning the session to
    /// `Idle`. `None` unless the status is `Failed`.
    pub fn take_failure(&mut self) -> Option<SessionError> {
        match std::mem::take(&mut self.status) {
            SessionStatus::Failed(err) => Some(err),
            other => {
                self.status = other;
                None
            }
        }
    }

    /// Apply one core step's effects: queue sends, absolutize timers,
    /// and promote a completion into `Done`.
    fn absorb(&mut self, eff: Effects, now: Time) {
        let (sends, timers, completion) = eff.into_parts();
        if !sends.is_empty() && self.is_pending() {
            // The first batch is the invoke broadcast; every later one
            // is a new round starting (the span timestamps the
            // transition — the core's completion still owns the
            // authoritative round count).
            self.span.note_send_batch(now.0);
        }
        for (to, msg) in sends {
            self.outputs.push_back(Output::Send(to, msg));
        }
        for (id, delay_micros) in timers {
            self.timers.push((id, now + delay_micros));
        }
        if let Some(c) = completion {
            if !self.is_pending() {
                // The core finished an operation the session already
                // abandoned (deadline passed, failure not yet observed
                // by a new begin): the client saw a failure, so the late
                // completion is discarded like any other stale traffic.
                return;
            }
            // A timer still queued here never got to fire: the op was
            // bounded by the network, not by the timer.
            self.span.settle(now.0, !self.timers.is_empty());
            self.timers.clear();
            self.deadline = None;
            let op = self.op.as_ref().expect("pending implies an op");
            self.status = SessionStatus::Done(SessionOutcome {
                reg: self.reg,
                kind: op.kind(),
                value: c.value,
                rounds: c.rounds,
                fast: c.fast,
                invoked_at: self.invoked_at,
                completed_at: now,
                span: self.span,
            });
        }
    }
}

impl<C: ClientCore + Clone + PartialEq> ClientSession<C> {
    /// Drop pending timers whose firing provably leaves the core
    /// unchanged and produces no output (stale round timers the core's
    /// tag discipline ignores). Model checkers call this to keep the
    /// explored state space free of no-op wake branches; runtimes never
    /// need it — firing a stale timer is merely a wasted wake-up.
    pub fn prune_stale_timers(&mut self) {
        let core = &self.core;
        self.timers.retain(|&(id, _)| {
            let mut probe = core.clone();
            let mut eff = Effects::new();
            probe.timer(id, &mut eff);
            !(eff.is_empty() && probe == *core)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Setup;
    use lucky_types::{Params, PwAckMsg, ReaderId, Seq, ServerId};

    fn params() -> Params {
        Params::new(1, 0, 1, 0).unwrap() // S = 3, fast writes despite 1 failure
    }

    fn writer_session(config: SessionConfig) -> ClientSession {
        let setup = Setup::Atomic(params());
        ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            setup.make_writer(RegisterId::DEFAULT, Default::default()),
            config,
        )
    }

    fn pw_ack() -> Message {
        Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(1), newread: vec![] })
    }

    fn drain<C: ClientCore>(session: &mut ClientSession<C>) -> Vec<Output> {
        std::iter::from_fn(|| session.poll_output()).collect()
    }

    #[test]
    fn begin_broadcasts_and_arms_the_round_timer() {
        let mut s = writer_session(SessionConfig::default());
        assert_eq!(s.status(), &SessionStatus::Idle);
        assert_eq!(s.next_wake(), None);
        s.begin(Op::Write(Value::from_u64(7)), Time(100)).unwrap();
        assert!(s.is_pending());
        let outs = drain(&mut s);
        assert_eq!(outs.len(), 3, "PW broadcast to all three servers");
        let wake = s.next_wake().expect("round-1 timer armed");
        assert!(wake > Time(100), "due strictly after begin");
    }

    /// S = 5 (t = 2, fw = fr = 1): quorum 3, fast threshold S − fw = 4 —
    /// wide enough for a quorum that leaves luck undecided.
    fn wide_writer_session() -> ClientSession {
        let setup = Setup::Atomic(Params::new(2, 0, 1, 1).unwrap());
        ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            setup.make_writer(RegisterId::DEFAULT, Default::default()),
            SessionConfig::default(),
        )
    }

    fn deliver_acks<C: ClientCore>(
        s: &mut ClientSession<C>,
        servers: std::ops::Range<u16>,
        at: u64,
    ) {
        for i in servers {
            s.handle(Input::Deliver(ProcessId::Server(ServerId(i)), pw_ack()), Time(at));
        }
    }

    #[test]
    fn undecided_quorum_waits_for_the_timer_and_goes_slow() {
        let mut s = wide_writer_session();
        s.begin(Op::Write(Value::from_u64(7)), Time(0)).unwrap();
        drain(&mut s);
        let due = s.next_wake().expect("round-1 timer");
        // S − fw − 1 = 3 acks: a quorum, one short of deciding Fig. 1
        // line 8. Still pending one microsecond before the timer …
        deliver_acks(&mut s, 0..3, 10);
        s.handle(Input::Wake, Time(due.0 - 1));
        assert!(s.is_pending());
        assert!(drain(&mut s).is_empty());
        assert_eq!(s.next_wake(), Some(due));
        // … and slow at it: no false luck.
        s.handle(Input::Wake, due);
        assert!(s.is_pending());
        let outs = drain(&mut s);
        assert_eq!(outs.len(), 5, "W round 2 broadcast");
        assert!(outs
            .iter()
            .all(|o| matches!(o, Output::Send(_, Message::Write(m)) if m.round == 2)));
    }

    #[test]
    fn fast_write_completes_on_the_deciding_ack() {
        let mut s = wide_writer_session();
        s.begin(Op::Write(Value::from_u64(7)), Time(0)).unwrap();
        drain(&mut s);
        deliver_acks(&mut s, 0..3, 10);
        assert!(s.is_pending(), "three acks decide nothing");
        // The (S − fw)-th ack completes the write fast in that step.
        let status = s.handle(Input::Deliver(ProcessId::Server(ServerId(3)), pw_ack()), Time(40));
        assert!(matches!(status, SessionStatus::Done(_)));
        assert_eq!(s.next_wake(), None, "completion on a delivery leaves no timer armed");
        let outcome = s.take_outcome().expect("S − fw acks complete the fast write");
        assert_eq!((outcome.rounds, outcome.fast), (1, true));
        assert_eq!(outcome.kind, OpKind::Write);
        assert_eq!((outcome.invoked_at, outcome.completed_at), (Time(0), Time(40)));
        assert_eq!(outcome.value_or(&Op::Write(Value::from_u64(7))).as_u64(), Some(7));
        assert_eq!(s.status(), &SessionStatus::Idle);
        assert!(drain(&mut s).is_empty(), "a fast write sends nothing after PW");
    }

    #[test]
    fn all_acks_start_the_w_rounds_and_the_stale_timer_is_a_noop() {
        use crate::atomic::AtomicWriter;
        use crate::config::ProtocolConfig;
        use lucky_trace::SpanPhase;
        // A concrete core, so the session can be cloned and compared.
        let mut s: ClientSession<AtomicWriter> = ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            crate::atomic::writer(RegisterId::DEFAULT, params(), ProtocolConfig::slow_only(100)),
            SessionConfig::default(),
        );
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        let due = s.next_wake().unwrap();
        deliver_acks(&mut s, 0..2, 10);
        assert!(drain(&mut s).is_empty(), "a third ack may still arrive: the phase stays open");
        // Fast writes are off, so nothing is decided until every server
        // has answered; the S-th ack starts W round 2 in that step.
        deliver_acks(&mut s, 2..3, 30);
        let outs = drain(&mut s);
        assert_eq!(outs.len(), 3);
        assert!(outs
            .iter()
            .all(|o| matches!(o, Output::Send(_, Message::Write(m)) if m.round == 2)));
        assert_eq!(s.span().marks()[1].phase, SpanPhase::Round(2));
        assert_eq!(s.span().marks()[1].at, 30, "round 2 starts at the ack, not at the timer");
        // The superseded PW timer is still queued; firing it is a no-op.
        assert_eq!(s.next_wake(), Some(due));
        let before = s.clone();
        s.handle(Input::Wake, due);
        assert_eq!(s.next_wake(), None);
        assert!(s.is_pending());
        assert!(drain(&mut s).is_empty());
        assert_eq!(s.core(), before.core());
        assert_eq!(s.span(), before.span());
    }

    #[test]
    fn begin_while_pending_is_busy() {
        let mut s = writer_session(SessionConfig::default());
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        assert_eq!(
            s.begin(Op::Write(Value::from_u64(2)), Time(1)),
            Err(SessionError::Busy),
            "one operation at a time (§2.2)"
        );
    }

    #[test]
    fn deadline_fails_the_pending_operation_exactly() {
        let mut s = writer_session(SessionConfig::with_deadline(1_000));
        s.begin(Op::Write(Value::from_u64(1)), Time(50)).unwrap();
        drain(&mut s);
        // The deadline caps every reported wake.
        assert!(s.next_wake().unwrap() <= Time(1_050));
        // One microsecond early: still pending (timer fires, no acks).
        s.handle(Input::Wake, Time(1_049));
        assert!(s.is_pending());
        // At the deadline: failed, and the late ack is discarded.
        let status =
            s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(1_050));
        assert_eq!(status, SessionStatus::Failed(SessionError::DeadlineExceeded));
        assert_eq!(s.next_wake(), None);
        assert_eq!(s.take_failure(), Some(SessionError::DeadlineExceeded));
        assert_eq!(s.status(), &SessionStatus::Idle);
    }

    #[test]
    fn wake_fires_only_due_timers() {
        use crate::config::ProtocolConfig;
        let setup = Setup::Atomic(params());
        let mut s = ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            setup.make_writer(RegisterId::DEFAULT, ProtocolConfig::slow_only(100)),
            SessionConfig::default(),
        );
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        let due = s.next_wake().unwrap();
        // A quorum of PW acks arrives, but the round-1 timer is pending:
        // the slow path waits for it.
        s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(10));
        s.handle(Input::Deliver(ProcessId::Server(ServerId(1)), pw_ack()), Time(20));
        // A wake before the due time fires nothing.
        s.handle(Input::Wake, Time(due.0 - 1));
        assert!(drain(&mut s).is_empty());
        assert_eq!(s.next_wake(), Some(due));
        // At the due time the round-1 timer fires and the W rounds start.
        s.handle(Input::Wake, due);
        assert!(!drain(&mut s).is_empty(), "timer expiry starts the W round broadcast");
    }

    #[test]
    fn reader_session_reads_bot_from_empty_register() {
        use lucky_types::{FrozenSlot, ReadAckMsg, ReadSeq, TsVal};
        let setup = Setup::Atomic(params());
        let rid = ReaderId(0);
        let mut s = ClientSession::new(
            ProcessId::Reader(rid),
            RegisterId::DEFAULT,
            setup.make_reader(RegisterId::DEFAULT, Default::default()),
            SessionConfig::default(),
        );
        s.begin(Op::Read, Time(0)).unwrap();
        let outs = drain(&mut s);
        assert_eq!(outs.len(), 3, "READ broadcast");
        for i in 0..3 {
            let ack = Message::ReadAck(ReadAckMsg {
                reg: RegisterId::DEFAULT,
                tsr: ReadSeq(1),
                rnd: 1,
                pw: TsVal::initial(),
                w: TsVal::initial(),
                vw: Some(TsVal::initial()),
                frozen: FrozenSlot::initial(),
            });
            s.handle(Input::Deliver(ProcessId::Server(ServerId(i)), ack), Time(10));
        }
        let due = s.next_wake().expect("round-1 timer still pending");
        s.handle(Input::Wake, due);
        let outcome = s.take_outcome().expect("unanimous initial acks complete the read");
        assert_eq!(outcome.kind, OpKind::Read);
        assert_eq!(outcome.value_or(&Op::Read), Value::Bot);
        assert!(outcome.value.expect("reads return a value").is_bot());
    }

    #[test]
    fn prune_stale_timers_keeps_live_ones() {
        use crate::atomic::AtomicWriter;
        let mut s: ClientSession<AtomicWriter> = ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            crate::atomic::writer(RegisterId::DEFAULT, params(), Default::default()),
            SessionConfig::default(),
        );
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        // The round-1 timer is live (firing it is what lets the PW phase
        // finish): pruning must keep it.
        s.prune_stale_timers();
        let due = s.next_wake().expect("live timer survives pruning");
        s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(5));
        s.handle(Input::Deliver(ProcessId::Server(ServerId(1)), pw_ack()), Time(6));
        s.handle(Input::Wake, due);
        assert!(s.take_outcome().is_some());
        assert_eq!(s.next_wake(), None, "completion already cleared the timers");
    }

    #[test]
    fn spans_timestamp_the_phase_transitions() {
        use lucky_trace::SpanPhase;
        // Fast write: the span is invoke → settle, and settle carries the
        // deciding ack's time — not the timer's.
        let mut s = writer_session(SessionConfig::default());
        s.begin(Op::Write(Value::from_u64(7)), Time(100)).unwrap();
        drain(&mut s);
        let due = s.next_wake().unwrap();
        s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(110));
        s.handle(Input::Deliver(ProcessId::Server(ServerId(1)), pw_ack()), Time(120));
        let outcome = s.take_outcome().unwrap();
        let phases: Vec<SpanPhase> = outcome.span.marks().iter().map(|m| m.phase).collect();
        assert_eq!(phases, vec![SpanPhase::Invoke, SpanPhase::Settle]);
        assert_eq!(outcome.span.invoked_at(), Some(100));
        assert_eq!(outcome.span.ended_at(), Some(120));
        assert!(due > Time(120));

        // Slow write (fast path disabled, one ack missing): the W-round
        // broadcast after the round-1 timer marks round 2 in the span.
        use crate::config::ProtocolConfig;
        let setup = Setup::Atomic(params());
        let mut s = ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            setup.make_writer(RegisterId::DEFAULT, ProtocolConfig::slow_only(100)),
            SessionConfig::default(),
        );
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        let due = s.next_wake().unwrap();
        s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(10));
        s.handle(Input::Deliver(ProcessId::Server(ServerId(1)), pw_ack()), Time(20));
        s.handle(Input::Wake, due);
        let phases: Vec<SpanPhase> = s.span().marks().iter().map(|m| m.phase).collect();
        assert_eq!(phases, vec![SpanPhase::Invoke, SpanPhase::Round(2)]);
        assert_eq!(s.span().marks()[1].at, due.0, "round 2 starts at the timer expiry");

        // Deadline failure: the span's terminal mark is Deadline.
        let mut s = writer_session(SessionConfig::with_deadline(1_000));
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        s.handle(Input::Wake, Time(1_000));
        assert_eq!(s.take_failure(), Some(SessionError::DeadlineExceeded));
        assert_eq!(s.span().marks().last().unwrap().phase, SpanPhase::Deadline);
        assert_eq!(s.span().ended_at(), Some(1_000));
    }

    #[test]
    fn span_tells_rtt_bound_fast_writes_from_timer_bound_ones() {
        use lucky_trace::{Actor, TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::enabled());
        let record = |outcome: SessionOutcome| {
            assert!(outcome.fast);
            tracer.record_settle(Actor::Writer { reg: 0 }, true, 1, true, 0, &outcome.span);
            tracer.report().writes_before_timer
        };
        // Both acks inside the timer: settled with the timer pending.
        let mut s = writer_session(SessionConfig::default());
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        deliver_acks(&mut s, 0..2, 10);
        assert_eq!(record(s.take_outcome().unwrap()), 1);
        // The deciding ack arrives after the timer fired: still fast
        // (Fig. 1 line 8 holds), but the timer did not wait for it.
        s.begin(Op::Write(Value::from_u64(2)), Time(1_000)).unwrap();
        let due = s.next_wake().unwrap();
        s.handle(Input::Wake, due);
        let ack =
            Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(2), newread: vec![] });
        for i in 0..2 {
            s.handle(Input::Deliver(ProcessId::Server(ServerId(i)), ack.clone()), Time(due.0 + 5));
        }
        assert_eq!(record(s.take_outcome().unwrap()), 1, "not counted a second time");
        assert_eq!(tracer.report().fast_writes, 2);
    }

    #[test]
    fn completion_after_a_deadline_failure_is_discarded() {
        let mut s = writer_session(SessionConfig::with_deadline(5_000));
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        // The round-1 timer expires with no acks, then the deadline
        // passes: the operation fails.
        let timer_due = s.next_wake().unwrap();
        s.handle(Input::Wake, timer_due);
        s.handle(Input::Wake, Time(5_000));
        assert_eq!(s.status(), &SessionStatus::Failed(SessionError::DeadlineExceeded));
        // The quorum's acks arrive late and the core completes the
        // abandoned WRITE: the session discards the completion — the
        // client already observed the failure.
        s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(5_010));
        s.handle(Input::Deliver(ProcessId::Server(ServerId(1)), pw_ack()), Time(5_020));
        assert_eq!(s.status(), &SessionStatus::Failed(SessionError::DeadlineExceeded));
        assert_eq!(s.take_failure(), Some(SessionError::DeadlineExceeded));
        assert!(s.take_outcome().is_none(), "the stale completion never surfaces");
    }

    #[test]
    fn late_deliveries_reach_the_core_without_reviving_the_session() {
        let mut s = writer_session(SessionConfig::default());
        s.begin(Op::Write(Value::from_u64(1)), Time(0)).unwrap();
        drain(&mut s);
        let due = s.next_wake().unwrap();
        s.handle(Input::Deliver(ProcessId::Server(ServerId(0)), pw_ack()), Time(10));
        s.handle(Input::Deliver(ProcessId::Server(ServerId(1)), pw_ack()), Time(11));
        s.handle(Input::Wake, due);
        assert!(s.take_outcome().is_some());
        // A third, late ack: harmless, session stays idle.
        let status = s.handle(Input::Deliver(ProcessId::Server(ServerId(2)), pw_ack()), Time(99));
        assert_eq!(status, SessionStatus::Idle);
        assert!(drain(&mut s).is_empty());
    }
}
