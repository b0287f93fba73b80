//! Bridging the sans-io protocol cores onto `lucky-sim`'s [`Automaton`].

use crate::engine::{ReadEngine, ReadPolicy, Server, ServerPolicy, WriteEngine, WritePolicy};
use crate::runtime::session::{ClientSession, Input};
use lucky_sim::{Automaton, Effects, TimerId};
use lucky_types::{Message, Op, ProcessId, Time};

/// A client-side protocol core: a writer or reader of any variant.
///
/// Every setup's writer is a [`WriteEngine`] and every reader a
/// [`ReadEngine`]; this trait lets the [`ClientSession`] — and through it
/// every runtime — hold either behind one type.
pub trait ClientCore: Send {
    /// Invoke an operation (a WRITE with its value, or a READ).
    fn invoke(&mut self, op: Op, eff: &mut Effects);
    /// Deliver a message from `from`.
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects);
    /// A timer fired.
    fn timer(&mut self, id: TimerId, eff: &mut Effects);
}

/// A server-side protocol core (honest or Byzantine).
pub trait ServerCore: Send {
    /// Deliver a message from `from`.
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects);

    /// Serialize this core's state for a durable backend, or `None` when
    /// the core has nothing worth persisting. The default is `None` —
    /// Byzantine stand-ins and other synthetic cores simply stay
    /// amnesiac across restarts. Honest variant cores return the image
    /// their `from_snapshot` inverts.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }
}

impl ServerCore for Box<dyn ServerCore> {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        (**self).deliver(from, msg, eff);
    }
    fn snapshot(&self) -> Option<Vec<u8>> {
        (**self).snapshot()
    }
}

impl ClientCore for Box<dyn ClientCore> {
    fn invoke(&mut self, op: Op, eff: &mut Effects) {
        (**self).invoke(op, eff);
    }
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        (**self).deliver(from, msg, eff);
    }
    fn timer(&mut self, id: TimerId, eff: &mut Effects) {
        (**self).timer(id, eff);
    }
}

/// Every variant's writer is the shared WRITE engine over its policy.
impl<P: WritePolicy + Send> ClientCore for WriteEngine<P> {
    fn invoke(&mut self, op: Op, eff: &mut Effects) {
        match op {
            Op::Write(v) => WriteEngine::invoke(self, v, eff),
            Op::Read => panic!("the writer does not invoke READs (§2.2)"),
        }
    }
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        self.on_message(from, msg, eff);
    }
    fn timer(&mut self, id: TimerId, eff: &mut Effects) {
        self.on_timer(id, eff);
    }
}

/// Every variant's reader is the shared READ engine over its policy.
impl<P: ReadPolicy + Send> ClientCore for ReadEngine<P> {
    fn invoke(&mut self, op: Op, eff: &mut Effects) {
        match op {
            Op::Read => ReadEngine::invoke(self, eff),
            Op::Write(_) => panic!("readers do not invoke WRITEs (§2.2)"),
        }
    }
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        self.on_message(from, msg, eff);
    }
    fn timer(&mut self, id: TimerId, eff: &mut Effects) {
        self.on_timer(id, eff);
    }
}

/// Every honest lucky server is the shared server over its policy.
impl<P: ServerPolicy + Send> ServerCore for Server<P> {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        self.handle(from, msg, eff);
    }
    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.to_snapshot())
    }
}

/// Adapter driving a [`ClientSession`] from the simulator's virtual
/// clock: World events become session inputs, session outputs become
/// `Effects`, and the session's [`next_wake`] schedule is maintained
/// with a single simulator timer — the adapter itself keeps no timer or
/// deadline bookkeeping.
///
/// [`next_wake`]: ClientSession::next_wake
#[derive(Debug)]
pub struct SessionAutomaton<C: ClientCore = Box<dyn ClientCore>> {
    session: ClientSession<C>,
    /// The earliest wake currently scheduled with the World, to avoid
    /// re-scheduling one event per step. Stale (superseded) wake events
    /// still fire; the session treats them as no-op polls.
    scheduled_wake: Option<Time>,
}

/// The one simulator timer id the adapter uses: wake-ups are anonymous
/// (the session owns the real `TimerId`s internally).
const WAKE: TimerId = TimerId(u64::MAX);

impl<C: ClientCore> SessionAutomaton<C> {
    /// Wrap a session for simulation.
    pub fn new(session: ClientSession<C>) -> SessionAutomaton<C> {
        SessionAutomaton { session, scheduled_wake: None }
    }

    /// The wrapped session.
    pub fn session(&self) -> &ClientSession<C> {
        &self.session
    }

    /// Drain session outputs into `eff`, surface a completion or
    /// failure, and keep the World's wake-up schedule current.
    fn pump(&mut self, now: Time, eff: &mut Effects) {
        while let Some(out) = self.session.poll_output() {
            let (to, msg) = out.into_send();
            eff.send(to, msg);
        }
        if let Some(outcome) = self.session.take_outcome() {
            eff.complete(outcome.value, outcome.rounds, outcome.fast);
        } else if self.session.take_failure().is_some() {
            eff.fail_op();
        }
        if let Some(due) = self.session.next_wake() {
            if self.scheduled_wake.is_none_or(|w| due < w) {
                eff.set_timer(WAKE, due.0.saturating_sub(now.0));
                self.scheduled_wake = Some(due);
            }
        }
    }
}

impl<C: ClientCore> Automaton for SessionAutomaton<C> {
    fn on_invoke(&mut self, now: Time, op: Op, eff: &mut Effects) {
        self.session.begin(op, now).expect("the World enforces one operation at a time (§2.2)");
        self.pump(now, eff);
    }
    fn on_message(&mut self, now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
        self.session.handle(Input::Deliver(from, msg), now);
        self.pump(now, eff);
    }
    fn on_timer(&mut self, now: Time, _id: TimerId, eff: &mut Effects) {
        // Whatever was scheduled has fired (possibly a stale duplicate);
        // recompute from the session's own view.
        self.scheduled_wake = None;
        self.session.handle(Input::Wake, now);
        self.pump(now, eff);
    }
}

/// Adapter presenting any [`ServerCore`] as a simulator [`Automaton`].
#[derive(Debug)]
pub struct ServerAutomaton<S>(pub S);

impl<S: ServerCore> Automaton for ServerAutomaton<S> {
    fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
        self.0.deliver(from, msg, eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::runtime::session::SessionConfig;
    use lucky_types::{Params, RegisterId, Value};

    #[test]
    #[should_panic(expected = "does not invoke READs")]
    fn writer_rejects_read_invocations() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut w = crate::atomic::writer(RegisterId::DEFAULT, params, ProtocolConfig::default());
        let mut eff = Effects::new();
        ClientCore::invoke(&mut w, Op::Read, &mut eff);
    }

    #[test]
    #[should_panic(expected = "do not invoke WRITEs")]
    fn reader_rejects_write_invocations() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut r = crate::atomic::reader(RegisterId::DEFAULT, params, ProtocolConfig::default());
        let mut eff = Effects::new();
        ClientCore::invoke(&mut r, Op::Write(Value::from_u64(1)), &mut eff);
    }

    #[test]
    fn two_round_writer_ignores_wakes_through_the_shared_engine_path() {
        use lucky_types::TwoRoundParams;
        let params = TwoRoundParams::new(1, 0, 1).unwrap();
        let mut w = crate::tworound::writer(RegisterId::DEFAULT, params);
        let mut eff = Effects::new();
        ClientCore::timer(&mut w, TimerId(1), &mut eff);
        assert!(eff.is_empty(), "the two-round writer has no timers (Fig. 6)");
    }

    #[test]
    fn session_automaton_schedules_exactly_one_wake_per_deadline() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let setup = crate::Setup::Atomic(params);
        let session = ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            setup.make_writer(RegisterId::DEFAULT, ProtocolConfig::default()),
            SessionConfig::default(),
        );
        let mut auto = SessionAutomaton::new(session);
        let mut eff = Effects::new();
        auto.on_invoke(Time(0), Op::Write(Value::from_u64(1)), &mut eff);
        let (sends, timers, completion) = eff.into_parts();
        assert_eq!(sends.len(), 3, "PW broadcast passes through");
        assert_eq!(timers.len(), 1, "one wake for the round-1 timer");
        assert_eq!(timers[0].0, WAKE);
        assert!(completion.is_none());
        // A second input at the same instant does not re-schedule.
        let mut eff = Effects::new();
        auto.on_message(
            Time(5),
            ProcessId::Server(lucky_types::ServerId(2)),
            dummy_ack(),
            &mut eff,
        );
        let (_, timers, _) = eff.into_parts();
        assert!(timers.is_empty(), "wake already scheduled");
    }

    fn dummy_ack() -> Message {
        Message::PwAck(lucky_types::PwAckMsg {
            reg: RegisterId::DEFAULT,
            ts: lucky_types::Seq(1),
            newread: vec![],
        })
    }
}
