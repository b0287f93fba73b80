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
/// [`World`]: crate::World
#[derive(Debug)]
pub struct Effects {
    pub(crate) sends: Vec<(ProcessId, Message)>,
    /// Per-destination staging buffer: messages parked by
    /// [`Effects::stage`] until [`Effects::flush`] groups them per
    /// destination (and merges multi-message groups into batches).
    pub(crate) staged: Vec<(ProcessId, Message)>,
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
        Effects {
            sends: Vec::new(),
            staged: Vec::new(),
            timers: Vec::new(),
            completion: None,
            failed: false,
        }
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

    /// Park `msg` in the staging buffer instead of sending it right away.
    /// [`Effects::flush`] later groups staged messages per destination;
    /// until then the message is not part of [`Effects::send_count`].
    ///
    /// Drivers treat any messages still staged at
    /// [`Effects::into_parts`] as plain sends, so a missed flush degrades
    /// to unbatched delivery rather than losing messages.
    #[inline]
    pub fn stage(&mut self, to: ProcessId, msg: Message) {
        self.staged.push((to, msg));
    }

    /// Stage clones of `msg` for every destination.
    #[inline]
    pub fn stage_broadcast(&mut self, to: impl IntoIterator<Item = ProcessId>, msg: Message) {
        for dest in to {
            self.staged.push((dest, msg.clone()));
        }
    }

    /// Move everything staged into the outgoing sends, grouped per
    /// destination (in order of each destination's first staged message,
    /// parts in staging order). A destination with a single staged
    /// message gets it verbatim; multi-message groups are merged into one
    /// [`Message::batch`] envelope.
    ///
    /// This is the single place batching enters the round engines: they
    /// stage their round broadcasts and flush once per step, so any
    /// future step that emits several messages to one destination batches
    /// them with no per-variant code.
    #[inline]
    pub fn flush(&mut self) {
        self.flush_capped(usize::MAX);
    }

    /// Like [`Effects::flush`], but no produced batch carries more than
    /// `max_msgs` *flattened* parts (a staged message may itself be a
    /// pre-formed batch, and merging flattens): a destination's group is
    /// chunked before merging. Used where a
    /// [`BatchConfig`](lucky_types::BatchConfig)'s `max_msgs` bound must
    /// hold on the produced envelopes (e.g. server ack re-batching).
    #[inline]
    pub fn flush_capped(&mut self, max_msgs: usize) {
        assert!(max_msgs >= 1, "a batch carries at least one message");
        if self.staged.is_empty() {
            return;
        }
        // A round broadcast stages one message per destination, which
        // the grouping below would emit verbatim and in order.
        if distinct_destinations(&self.staged) {
            self.sends.append(&mut self.staged);
            return;
        }
        let mut groups: Vec<(ProcessId, Vec<Message>)> = Vec::new();
        for (to, msg) in self.staged.drain(..) {
            match groups.iter_mut().find(|(dest, _)| *dest == to) {
                Some((_, parts)) => parts.push(msg),
                None => groups.push((to, vec![msg])),
            }
        }
        for (to, msgs) in groups {
            let mut chunk: Vec<Message> = Vec::new();
            let mut chunk_parts = 0usize;
            let emit = |chunk: &mut Vec<Message>, sends: &mut Vec<(ProcessId, Message)>| {
                if chunk.len() == 1 {
                    sends.push((to, chunk.pop().expect("length checked")));
                } else if chunk.len() > 1 {
                    sends.push((to, Message::batch(std::mem::take(chunk))));
                }
            };
            for msg in msgs {
                let parts = msg.part_count();
                if !chunk.is_empty() && chunk_parts + parts > max_msgs {
                    emit(&mut chunk, &mut self.sends);
                    chunk_parts = 0;
                }
                chunk.push(msg);
                chunk_parts += parts;
                if chunk_parts >= max_msgs {
                    emit(&mut chunk, &mut self.sends);
                    chunk_parts = 0;
                }
            }
            emit(&mut chunk, &mut self.sends);
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

    /// `true` iff [`Effects::fail_op`] was called this step.
    #[inline]
    pub fn op_failed(&self) -> bool {
        self.failed
    }

    /// Number of queued sends (used by drivers for accounting). Staged
    /// messages count only after [`Effects::flush`].
    #[inline]
    pub fn send_count(&self) -> usize {
        self.sends.len()
    }

    /// `true` iff nothing was emitted (and nothing is staged).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.staged.is_empty()
            && self.timers.is_empty()
            && self.completion.is_none()
            && !self.failed
    }

    /// Decompose into `(sends, timers, completion)` — used by protocol
    /// unit tests and alternative drivers (e.g. the threaded runtime).
    /// Messages still staged (not [`Effects::flush`]ed) are appended as
    /// plain sends so they are never lost.
    #[allow(clippy::type_complexity)]
    #[inline]
    pub fn into_parts(
        mut self,
    ) -> (Vec<(ProcessId, Message)>, Vec<(TimerId, u64)>, Option<Completion>) {
        self.sends.append(&mut self.staged);
        (self.sends, self.timers, self.completion)
    }
}

/// `true` iff no destination appears twice in `msgs`.
#[inline]
pub(crate) fn distinct_destinations(msgs: &[(ProcessId, Message)]) -> bool {
    msgs.iter().enumerate().all(|(i, (to, _))| msgs[..i].iter().all(|(seen, _)| seen != to))
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

    #[test]
    fn flush_batches_message_groups_per_destination() {
        let mut eff = Effects::new();
        let s0 = ProcessId::Server(ServerId(0));
        let s1 = ProcessId::Server(ServerId(1));
        eff.stage(s0, read(0));
        eff.stage(s1, read(0));
        eff.stage(s0, read(1));
        assert_eq!(eff.send_count(), 0, "staged messages are not sends yet");
        assert!(!eff.is_empty(), "…but the effects are not empty either");
        eff.flush();
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends.len(), 2, "one wire message per destination");
        // s0's two messages merged into a batch, in staging order.
        assert_eq!(sends[0].0, s0);
        assert_eq!(sends[0].1.clone().flatten(), vec![read(0), read(1)]);
        // s1's singleton group stays a plain message.
        assert_eq!(sends[1], (s1, read(0)));
    }

    #[test]
    fn flush_of_one_message_per_destination_is_verbatim() {
        let mut eff = Effects::new();
        let staged: Vec<_> = vec![
            (ProcessId::Server(ServerId(2)), read(0)),
            (ProcessId::Server(ServerId(0)), Message::batch(vec![read(1), read(2), read(3)])),
            (ProcessId::Writer, read(4)),
        ];
        for (to, msg) in staged.clone() {
            eff.stage(to, msg);
        }
        // A cap below a staged batch's part count leaves it whole too.
        eff.flush_capped(2);
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends, staged);
    }

    #[test]
    fn flush_capped_counts_flattened_parts_not_envelopes() {
        let mut eff = Effects::new();
        let dest = ProcessId::Server(ServerId(0));
        // Stage a pre-formed 3-part batch plus two plain messages with a
        // cap of 4: 3+1 fit in the first envelope, the last goes alone.
        eff.stage(dest, Message::batch(vec![read(0), read(1), read(2)]));
        eff.stage(dest, read(3));
        eff.stage(dest, read(4));
        eff.flush_capped(4);
        let (sends, _, _) = eff.into_parts();
        let sizes: Vec<usize> = sends.iter().map(|(_, m)| m.part_count()).collect();
        assert_eq!(sizes, vec![4, 1], "the bound is on flattened parts, not envelopes");
    }

    #[test]
    fn unflushed_staged_messages_survive_into_parts() {
        let mut eff = Effects::new();
        let dest = ProcessId::Server(ServerId(0));
        eff.send(dest, read(1));
        eff.stage(dest, read(2));
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends, vec![(dest, read(1)), (dest, read(2))], "staged messages are never lost");
    }
}
