//! The process model: sans-io automata and their effects.

use lucky_types::{Message, Op, ProcessId, Time, Value};

/// Identifier an automaton assigns to a timer it starts, echoed back when
/// the timer fires. Automata choose their own ids (e.g. the round number),
/// which lets them ignore stale timers from abandoned phases.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerId(pub u64);

/// Everything an automaton wants done as the result of one step: messages
/// to send, timers to start, and possibly the completion of the client
/// operation in progress.
///
/// An `Effects` value is handed to the automaton by the [`World`]
/// (or any other driver, such as the threaded runtime in `lucky-net`) and
/// applied atomically after the step — matching the paper's definition of
/// a step (§2.1), in which a process removes messages, computes, and then
/// puts its output messages into the channels.
///
/// Sends are point-to-point messages; merging a step's sends to one
/// destination into a [`Message::Batch`] is the driver's job, by
/// [`BatchConfig::coalesce`](lucky_types::BatchConfig::coalesce).
///
/// [`World`]: crate::World
#[derive(Debug)]
pub struct Effects {
    pub(crate) sends: Vec<(ProcessId, Message)>,
    pub(crate) timers: Vec<(TimerId, u64)>,
    pub(crate) completion: Option<Completion>,
    pub(crate) failed: bool,
}

/// Completion of a client operation, with the complexity metadata the
/// paper's fast/slow distinction cares about.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Completion {
    /// Value returned (READs) or `None` (WRITEs).
    pub value: Option<Value>,
    /// Communication round-trips used.
    pub rounds: u32,
    /// `true` iff the operation was fast (one round-trip).
    pub fast: bool,
}

// Called on every protocol step from other crates: `#[inline]` keeps
// them inlinable there, as they were while `Effects` was generic.
impl Effects {
    /// Fresh, empty effects.
    #[inline]
    pub fn new() -> Effects {
        Effects { sends: Vec::new(), timers: Vec::new(), completion: None, failed: false }
    }

    /// Send `msg` to `to`.
    #[inline]
    pub fn send(&mut self, to: ProcessId, msg: Message) {
        self.sends.push((to, msg));
    }

    /// Send clones of `msg` to every destination.
    #[inline]
    pub fn broadcast(&mut self, to: impl IntoIterator<Item = ProcessId>, msg: Message) {
        for dest in to {
            self.sends.push((dest, msg.clone()));
        }
    }

    /// Start a timer that fires after `delay_micros`, echoing `id`.
    #[inline]
    pub fn set_timer(&mut self, id: TimerId, delay_micros: u64) {
        self.timers.push((id, delay_micros));
    }

    /// Complete the operation in progress. `value` is the READ result
    /// (`None` for WRITEs); `rounds` counts communication round-trips and
    /// `fast` records whether the operation was fast (§2.4: one round).
    #[inline]
    pub fn complete(&mut self, value: Option<Value>, rounds: u32, fast: bool) {
        debug_assert!(self.completion.is_none(), "operation completed twice in one step");
        self.completion = Some(Completion { value, rounds, fast });
    }

    /// Fail the operation in progress (e.g. a client session's deadline
    /// passed). The driver abandons the pending operation: it never
    /// completes, and [`World::op_failed`] records the instant.
    ///
    /// [`World::op_failed`]: crate::World::op_failed
    #[inline]
    pub fn fail_op(&mut self) {
        debug_assert!(self.completion.is_none(), "operation both completed and failed");
        self.failed = true;
    }

    /// Number of queued sends (used by drivers for accounting).
    #[inline]
    pub fn send_count(&self) -> usize {
        self.sends.len()
    }

    /// `true` iff nothing was emitted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.completion.is_none() && !self.failed
    }

    /// Decompose into `(sends, timers, completion)` — used by protocol
    /// unit tests and alternative drivers (e.g. the threaded runtime).
    #[allow(clippy::type_complexity)]
    #[inline]
    pub fn into_parts(
        self,
    ) -> (Vec<(ProcessId, Message)>, Vec<(TimerId, u64)>, Option<Completion>) {
        (self.sends, self.timers, self.completion)
    }
}

impl Default for Effects {
    #[inline]
    fn default() -> Self {
        Effects::new()
    }
}

/// A process automaton, following the paper's model (§2.1): in each step it
/// consumes at most one message (or a timer expiry, or an operation
/// invocation scheduled by the algorithm) and atomically produces output
/// messages.
///
/// Every callback receives the driver's current time `now` — processes
/// cannot *read* a clock (the paper's model gives them none), but a
/// time-explicit adapter such as `lucky-core`'s session automaton needs
/// the instant of each step to maintain its wake-up schedule.
///
/// Malicious processes are modelled as different implementations of this
/// same trait — they may answer anything, but the driver guarantees they
/// cannot tamper with channels between non-malicious processes, exactly as
/// in the paper's fault model.
pub trait Automaton: Send {
    /// A client operation is invoked on this process at time `now`.
    /// Servers never receive invocations; the default ignores them.
    fn on_invoke(&mut self, now: Time, op: Op, eff: &mut Effects) {
        let _ = (now, op, eff);
    }

    /// A message from `from` is delivered at time `now`.
    fn on_message(&mut self, now: Time, from: ProcessId, msg: Message, eff: &mut Effects);

    /// A timer previously started via [`Effects::set_timer`] fired at
    /// time `now`.
    fn on_timer(&mut self, now: Time, id: TimerId, eff: &mut Effects) {
        let _ = (now, id, eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{ReadMsg, ReadSeq, RegisterId, ServerId};

    fn read(reg: u32) -> Message {
        Message::Read(ReadMsg { reg: RegisterId(reg), tsr: ReadSeq(1), rnd: 1 })
    }

    #[test]
    fn effects_accumulate_sends() {
        let mut eff = Effects::new();
        assert!(eff.is_empty());
        eff.send(ProcessId::Writer, read(0));
        eff.broadcast(ServerId::all(3).map(ProcessId::from), read(1));
        assert_eq!(eff.send_count(), 4);
        assert!(!eff.is_empty());
    }

    #[test]
    fn effects_record_completion() {
        let mut eff = Effects::new();
        eff.complete(Some(Value::from_u64(3)), 2, false);
        let c = eff.completion.unwrap();
        assert_eq!(c.rounds, 2);
        assert!(!c.fast);
        assert_eq!(c.value.unwrap().as_u64(), Some(3));
    }

    #[test]
    fn effects_record_timers() {
        let mut eff = Effects::new();
        eff.set_timer(TimerId(7), 250);
        assert_eq!(eff.timers, vec![(TimerId(7), 250)]);
    }

    #[test]
    fn default_is_empty() {
        assert!(Effects::default().is_empty());
    }
}
