//! The WRITE phase driver shared by every variant writer.
//!
//! # When the PW phase ends (a deliberate deviation from Fig. 1 line 5)
//!
//! The paper's writer waits for *a quorum of PW acks **and** the expiry
//! of its timer* before it looks at how many acks it holds. The timer is
//! there so that a synchronous run collects every correct server's ack;
//! it carries no safety argument. This engine ends the phase as soon as
//! its outcome is **decided**: a quorum has acked and either the timer
//! expired, or all `S` servers answered, or `S − fw` acks are in — Fig. 1
//! line 8 is monotone in the ack count, so once it holds no later ack
//! can take the fast completion away, and with all `S` acks in hand no
//! later ack exists. A lucky WRITE therefore costs one round trip, not
//! one timer.
//!
//! Every run this produces is a run of the paper's algorithm: the model
//! is asynchronous (§2.1), the writer's timer is a local clock with no
//! bound relating it to message delays, so "the timer expired right
//! after the deciding ack" is an admissible schedule — exactly the ones
//! `lucky-explore` enumerates when it fires client timers at any point
//! relative to deliveries. Acks that arrive after the phase ended are
//! dropped, as they always were once the timer had fired.
//!
//! What the early end gives up is only *surplus* information, and two
//! mechanisms were sized for its absence: a WRITE that returns on
//! `S − fw` acks leaves up to `fw` correct servers without `pw` yet, and
//! the reader's `fastpw = S − fw − fr` threshold is exactly what keeps
//! the next lucky READ fast in that state; `freezevalues()` sees `S − fw`
//! `newread` sets instead of up to `S`, and servers re-report a waiting
//! reader on every PW ack until its value is frozen, so a report that
//! missed this WRITE rides the next one (the paper's liveness argument
//! only ever assumed `S − t` acks).

use crate::engine::quorum::AckSet;
use lucky_sim::{Effects, TimerId};
use lucky_types::{
    FrozenUpdate, Message, NewRead, ProcessId, PwMsg, ReadSeq, ReaderId, RegisterId, Seq, ServerId,
    Tag, TsVal, Value, WriteMsg,
};
use std::collections::BTreeMap;

/// What a protocol variant contributes to the WRITE: quorum sizes, the
/// fast-path threshold, the W-round schedule, the synchrony-timer and
/// frozen-set placement choices. The phase machinery — PW ack
/// accumulation keyed by the write timestamp, stale-ack filtering, the
/// round-1 timer, W-round sequencing and the `freezevalues()` hand-off —
/// lives in [`WriteEngine`].
pub trait WritePolicy {
    /// Does the PW phase arm a round-1 timer (Fig. 1 line 5)? With one,
    /// a quorum that leaves the outcome undecided waits for it; the
    /// two-round variant has no timer (Fig. 6) and decides on the quorum.
    const PW_TIMER: bool;

    /// W-phase round numbers run, in order, when the fast path is not
    /// taken. The slow WRITE completes after `1 + W_ROUNDS.len()`
    /// round-trips.
    const W_ROUNDS: &'static [u8];

    /// Ship the frozen set computed by `freezevalues()` inside this
    /// WRITE's first W message (Fig. 6 lines 7–10) instead of stashing it
    /// for the next WRITE's PW message (Fig. 1). Incompatible with an
    /// enabled fast path — a fast WRITE sends no W message — and
    /// [`WriteEngine::new`] rejects that combination.
    const FROZEN_ON_W: bool;

    /// Acks awaited in every round (`S − t`).
    fn quorum(&self) -> usize;

    /// Number of servers in the cluster.
    fn server_count(&self) -> usize;

    /// The Byzantine bound `b`, used by `freezevalues()`.
    fn b(&self) -> usize;

    /// PW acks required for the one-round fast path (Fig. 1 line 8);
    /// `None` disables the fast path entirely.
    fn fast_write_acks(&self) -> Option<usize>;

    /// Is the freezing mechanism enabled?
    fn freezing(&self) -> bool;
}

/// Progress of the WRITE in flight.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum WriteState {
    /// No operation in progress.
    Idle,
    /// PW phase: collecting acks until the outcome is decided or (with
    /// [`WritePolicy::PW_TIMER`]) the timer expires.
    Pw { acks: BTreeMap<ServerId, Vec<NewRead>>, timer_expired: bool },
    /// W phase: `idx` indexes [`WritePolicy::W_ROUNDS`].
    W { idx: usize, acks: AckSet<u8> },
}

/// The generic WRITE driver: owns the timestamp counter, the `pw`/`w`
/// pairs, the per-reader freeze watermarks and the phase state machine;
/// consults a [`WritePolicy`] for everything variant-specific.
///
/// The PW phase ends when its outcome is decided — a quorum of acks plus
/// any of *timer expired*, *all `S` acked*, *`S − fw` acked* — where
/// Fig. 1 line 5 always waits the timer out; the module source argues
/// why every such run is one the paper's asynchronous model admits.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WriteEngine<P> {
    policy: P,
    /// The register this writer serves: stamped on every outgoing message
    /// and required on every ack that counts.
    reg: RegisterId,
    timer_micros: u64,
    ts: Seq,
    pw: TsVal,
    w: TsVal,
    read_ts: BTreeMap<ReaderId, ReadSeq>,
    /// Frozen set stashed for the *next* WRITE's PW message (unused when
    /// [`WritePolicy::FROZEN_ON_W`]).
    frozen: Vec<FrozenUpdate>,
    state: WriteState,
}

impl<P: WritePolicy> WriteEngine<P> {
    /// A fresh engine around `policy`. `timer_micros` sizes the PW-phase
    /// timer and is ignored when the policy has no timer.
    ///
    /// # Panics
    ///
    /// Panics if the policy combines [`WritePolicy::FROZEN_ON_W`] with an
    /// enabled fast path: a fast WRITE broadcasts no W message, so a
    /// frozen set that only rides W messages would be silently dropped
    /// after `freezevalues()` already advanced the read_ts watermarks.
    pub fn new(policy: P, timer_micros: u64) -> WriteEngine<P> {
        WriteEngine::for_register(RegisterId::DEFAULT, policy, timer_micros)
    }

    /// A fresh engine writing register `reg` of a multi-register store.
    ///
    /// # Panics
    ///
    /// Same conditions as [`WriteEngine::new`].
    pub fn for_register(reg: RegisterId, policy: P, timer_micros: u64) -> WriteEngine<P> {
        assert!(
            !(P::FROZEN_ON_W && policy.fast_write_acks().is_some()),
            "FROZEN_ON_W policies must disable the fast path (fast_write_acks = None): \
             a fast WRITE sends no W message to carry the frozen set"
        );
        WriteEngine {
            policy,
            reg,
            timer_micros,
            ts: Seq::INITIAL,
            pw: TsVal::initial(),
            w: TsVal::initial(),
            read_ts: BTreeMap::new(),
            frozen: Vec::new(),
            state: WriteState::Idle,
        }
    }

    /// The variant policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The register this writer serves.
    pub fn register(&self) -> RegisterId {
        self.reg
    }

    /// The timestamp of the last invoked WRITE.
    pub fn ts(&self) -> Seq {
        self.ts
    }

    /// `true` iff no WRITE is in progress.
    pub fn is_idle(&self) -> bool {
        self.state == WriteState::Idle
    }

    /// The freeze watermark for `reader` (`read_ts[r_j]`).
    pub fn read_ts_for(&self, reader: ReaderId) -> ReadSeq {
        self.read_ts.get(&reader).copied().unwrap_or(ReadSeq::INITIAL)
    }

    /// Invoke `WRITE(v)` (Fig. 1 lines 3–4 / Fig. 6 lines 3–5): bump the
    /// timestamp, start the PW-phase timer if the policy has one, and send
    /// `PW⟨ts, pw, w, frozen⟩` to all servers.
    ///
    /// # Panics
    ///
    /// Panics if a WRITE is already in progress (clients invoke one
    /// operation at a time, §2.2) or if `v` is `⊥` (not a valid input).
    pub fn invoke(&mut self, v: Value, eff: &mut Effects) {
        assert!(self.is_idle(), "WRITE invoked while another WRITE is in progress");
        assert!(!v.is_bot(), "⊥ is not a valid WRITE input (§2.2)");
        self.ts = self.ts.next();
        self.pw = TsVal::new(self.ts, v);
        if P::PW_TIMER {
            eff.set_timer(TimerId(self.ts.0), self.timer_micros);
        }
        let msg = Message::Pw(PwMsg {
            reg: self.reg,
            ts: self.ts,
            pw: self.pw.clone(),
            w: self.w.clone(),
            frozen: if P::FROZEN_ON_W { Vec::new() } else { self.frozen.clone() },
        });
        eff.broadcast(self.servers(), msg);
        // With no timer the phase is gated on the quorum alone.
        self.state = WriteState::Pw { acks: BTreeMap::new(), timer_expired: !P::PW_TIMER };
    }

    /// Deliver a server message. Acks carrying a timestamp other than the
    /// current `ts` are invalid (§3.4) and never count; neither do acks
    /// addressed to another register. A [`Message::Batch`] is unwrapped
    /// here — parts are processed in order, each re-validated exactly as
    /// if it had arrived alone, so a batch (even a Byzantine one mixing
    /// registers and rounds) can never do more than its parts could.
    pub fn on_message(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        let Some(server) = from.as_server() else {
            return;
        };
        if matches!(msg, Message::Batch(_)) {
            // Flatten first (iteratively): hostile nesting cannot drive
            // per-level recursion, and the parts below are always plain.
            for part in msg.flatten() {
                self.on_message(from, part, eff);
            }
            return;
        }
        if msg.register() != Some(self.reg) {
            return; // another register's traffic (or a forged echo)
        }
        match msg {
            Message::PwAck(ack) if ack.ts == self.ts => {
                if let WriteState::Pw { acks, .. } = &mut self.state {
                    acks.insert(server, ack.newread);
                } else {
                    return;
                }
                self.try_finish_pw(eff);
            }
            Message::WriteAck(ack) if ack.tag == Tag::Write(self.ts) => {
                let quorum = self.policy.quorum();
                let finished_idx = match &mut self.state {
                    WriteState::W { idx, acks } => {
                        acks.record(ack.round, server);
                        acks.has_quorum(quorum).then_some(*idx)
                    }
                    _ => None,
                };
                if let Some(idx) = finished_idx {
                    if idx + 1 < P::W_ROUNDS.len() {
                        self.start_w_round(idx + 1, Vec::new(), eff);
                    } else {
                        // The slow WRITE completes after the last W round.
                        self.state = WriteState::Idle;
                        eff.complete(None, 1 + P::W_ROUNDS.len() as u32, false);
                    }
                }
            }
            _ => {}
        }
    }

    /// The PW-phase timer fired. Timers from previous WRITEs are stale
    /// and ignored; policies without a timer ignore all of them.
    pub fn on_timer(&mut self, id: TimerId, eff: &mut Effects) {
        if !P::PW_TIMER || id != TimerId(self.ts.0) {
            return;
        }
        if let WriteState::Pw { timer_expired, .. } = &mut self.state {
            *timer_expired = true;
            self.try_finish_pw(eff);
        }
    }

    /// Fig. 1 lines 5–9 / Fig. 6 lines 6–10: once the PW phase is
    /// *settled*, run `freezevalues()`, adopt `w := ⟨ts, v⟩`, and either
    /// complete fast or start the W schedule.
    ///
    /// Settled: a quorum has acked and nothing that could still arrive
    /// can change what happens next — the timer expired (no further wait
    /// is owed), every server answered (no further ack exists), or the
    /// fast threshold is met (and stays met).
    fn try_finish_pw(&mut self, eff: &mut Effects) {
        let WriteState::Pw { acks, timer_expired } = &self.state else {
            return;
        };
        let n = acks.len();
        // Fig. 1 line 8; what settles the phase early is what completes it.
        let fast = self.policy.fast_write_acks().is_some_and(|fast_acks| n >= fast_acks);
        let settled = *timer_expired || n == self.policy.server_count() || fast;
        if n < self.policy.quorum() || !settled {
            return;
        }
        let acks = acks.clone();
        self.w = self.pw.clone();
        let frozen_now = if self.policy.freezing() {
            crate::freeze::freeze_values(self.policy.b(), &self.pw, &mut self.read_ts, &acks)
        } else {
            Vec::new()
        };
        if !P::FROZEN_ON_W {
            // Fig. 1: the frozen set rides the *next* WRITE's PW message.
            self.frozen = frozen_now.clone();
        }
        if fast {
            // One-round fast WRITE.
            self.state = WriteState::Idle;
            eff.complete(None, 1, true);
            return;
        }
        let first_frozen = if P::FROZEN_ON_W { frozen_now } else { Vec::new() };
        self.start_w_round(0, first_frozen, eff);
    }

    fn start_w_round(&mut self, idx: usize, frozen: Vec<FrozenUpdate>, eff: &mut Effects) {
        let round = P::W_ROUNDS[idx];
        let msg = Message::Write(WriteMsg {
            reg: self.reg,
            round,
            tag: Tag::Write(self.ts),
            c: self.pw.clone(),
            frozen,
        });
        eff.broadcast(self.servers(), msg);
        self.state = WriteState::W { idx, acks: AckSet::new(round) };
    }

    fn servers(&self) -> impl Iterator<Item = ProcessId> {
        ServerId::all(self.policy.server_count()).map(ProcessId::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{Params, PwAckMsg, WriteAckMsg};

    /// A three-W-round policy (rounds 2, 3, 4) that is not one of the
    /// shipped variants: these tests drive the kernel schedule directly.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct TestPolicy {
        params: Params,
        fast: bool,
        frozen_on_w: bool,
    }

    impl TestPolicy {
        fn new(fast: bool) -> TestPolicy {
            TestPolicy { params: Params::new(2, 1, 1, 0).unwrap(), fast, frozen_on_w: false }
        }
    }

    macro_rules! impl_test_policy {
        ($ty:ty, $timer:expr, $rounds:expr, $frozen_on_w:expr) => {
            impl WritePolicy for $ty {
                const PW_TIMER: bool = $timer;
                const W_ROUNDS: &'static [u8] = $rounds;
                const FROZEN_ON_W: bool = $frozen_on_w;
                fn quorum(&self) -> usize {
                    self.params().quorum()
                }
                fn server_count(&self) -> usize {
                    self.params().server_count()
                }
                fn b(&self) -> usize {
                    self.params().b()
                }
                fn fast_write_acks(&self) -> Option<usize> {
                    self.fast().then(|| self.params().fast_write_acks())
                }
                fn freezing(&self) -> bool {
                    true
                }
            }
        };
    }

    impl TestPolicy {
        fn params(&self) -> Params {
            self.params
        }
        fn fast(&self) -> bool {
            self.fast
        }
    }
    impl_test_policy!(TestPolicy, true, &[2, 3, 4], false);

    /// Timer-free policy shipping frozen entries on its single W round.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct FrozenOnWPolicy(TestPolicy);

    impl FrozenOnWPolicy {
        fn params(&self) -> Params {
            self.0.params
        }
        fn fast(&self) -> bool {
            false
        }
    }
    impl_test_policy!(FrozenOnWPolicy, false, &[2], true);

    fn engine(fast: bool) -> WriteEngine<TestPolicy> {
        WriteEngine::new(TestPolicy::new(fast), 100)
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn pw_ack(ts: u64) -> Message {
        Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(ts), newread: vec![] })
    }

    fn w_ack(round: u8, ts: u64) -> Message {
        Message::WriteAck(WriteAckMsg { reg: RegisterId::DEFAULT, round, tag: Tag::Write(Seq(ts)) })
    }

    #[test]
    fn w_schedule_runs_every_round_in_order() {
        let mut e = engine(false);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        for i in 0..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
        for (step, round) in [2u8, 3, 4].into_iter().enumerate() {
            let mut eff = Effects::new();
            for i in 0..4 {
                e.on_message(server(i), w_ack(round, 1), &mut eff);
            }
            let (sends, _, completion) = eff.into_parts();
            if round < 4 {
                assert!(completion.is_none(), "round {round} is not the last");
                let next = round + 1;
                assert!(sends
                    .iter()
                    .all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == next)));
            } else {
                let c = completion.expect("completion after the last W round");
                assert_eq!((c.rounds, c.fast), (1 + 3, false));
                assert_eq!(step, 2);
            }
        }
        assert!(e.is_idle());
    }

    #[test]
    fn stale_and_future_w_acks_do_not_advance_the_schedule() {
        let mut e = engine(false);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        for i in 0..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        // W round 2 is collecting; round-3 and round-4 acks are future,
        // wrong-ts acks are stale: none may count.
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), w_ack(3, 1), &mut eff);
            e.on_message(server(i), w_ack(4, 1), &mut eff);
            e.on_message(server(i), w_ack(2, 9), &mut eff);
        }
        assert!(eff.is_empty());
        assert!(!e.is_idle());
    }

    #[test]
    fn no_timer_policy_decides_on_quorum_alone() {
        let mut e = WriteEngine::new(FrozenOnWPolicy(TestPolicy::new(false)), 100);
        let mut eff = Effects::new();
        e.invoke(Value::from_u64(7), &mut eff);
        let (_, timers, _) = eff.into_parts();
        assert!(timers.is_empty(), "no PW timer for this policy");
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(
            sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)),
            "quorum alone starts the W round"
        );
        // Stray timers are ignored outright.
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        assert!(eff.is_empty());
    }

    #[test]
    fn frozen_on_w_rides_the_first_w_message() {
        let mut e = WriteEngine::new(FrozenOnWPolicy(TestPolicy::new(false)), 100);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let nr = vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(3) }];
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(
                server(i),
                Message::PwAck(PwAckMsg {
                    reg: RegisterId::DEFAULT,
                    ts: Seq(1),
                    newread: nr.clone(),
                }),
                &mut eff,
            );
        }
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::Write(wm) => {
                assert_eq!(wm.frozen.len(), 1);
                assert_eq!(wm.frozen[0].tsr, ReadSeq(3));
            }
            other => panic!("expected Write, got {other:?}"),
        }
        assert_eq!(e.read_ts_for(ReaderId(0)), ReadSeq(3));
    }

    #[test]
    fn frozen_stash_rides_the_next_pw_message() {
        let mut e = engine(true);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let nr = vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(5) }];
        let mut eff = Effects::new();
        for i in 0..5 {
            e.on_message(
                server(i),
                Message::PwAck(PwAckMsg {
                    reg: RegisterId::DEFAULT,
                    ts: Seq(1),
                    newread: nr.clone(),
                }),
                &mut eff,
            );
        }
        e.on_timer(TimerId(1), &mut eff);
        assert!(e.is_idle(), "fast completion");
        let mut eff = Effects::new();
        e.invoke(Value::from_u64(8), &mut eff);
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::Pw(m) => {
                assert_eq!(m.frozen.len(), 1);
                assert_eq!(m.frozen[0].tsr, ReadSeq(5));
            }
            other => panic!("expected Pw, got {other:?}"),
        }
    }

    #[test]
    fn fast_path_needs_threshold_not_just_quorum() {
        let mut e = engine(true);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        // Quorum (4) but below the fast threshold (5): W phase starts.
        for i in 0..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().any(|(_, m)| matches!(m, Message::Write(_))));
    }

    fn pw_ack_reporting(tsr: u64) -> Message {
        Message::PwAck(PwAckMsg {
            reg: RegisterId::DEFAULT,
            ts: Seq(1),
            newread: vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(tsr) }],
        })
    }

    #[test]
    fn deciding_ack_completes_the_fast_write_before_the_timer() {
        let mut e = engine(true);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        // Quorum (4) but one short of S − fw = 5: luck is in doubt, the
        // phase stays open.
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        assert!(eff.is_empty());
        assert!(!e.is_idle());
        // The (S − fw)-th ack decides Fig. 1 line 8: fast, in that step.
        let mut eff = Effects::new();
        e.on_message(server(4), pw_ack(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.is_empty());
        let c = completion.expect("settled on the deciding ack");
        assert_eq!((c.rounds, c.fast), (1, true));
        assert!(e.is_idle());
        // The timer it no longer waits for is a no-op when it fires.
        let settled = e.clone();
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        assert!(eff.is_empty());
        assert_eq!(e, settled);
    }

    #[test]
    fn undecided_quorum_waits_for_the_timer_and_goes_slow() {
        let mut e = engine(true);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        assert!(eff.is_empty(), "S − fw − 1 acks never settle the phase on their own");
        e.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none(), "no false luck at the timer");
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
        assert_eq!(sends.len(), 6);
    }

    #[test]
    fn all_s_acks_start_the_w_schedule_without_the_timer() {
        let mut e = engine(false);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        for i in 0..5 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        assert!(eff.is_empty(), "an ack may still arrive: the phase stays open");
        e.on_message(server(5), pw_ack(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
        // The PW timer fires into the W phase: stale, ignored.
        let in_w = e.clone();
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        assert!(eff.is_empty());
        assert_eq!(e, in_w);
    }

    #[test]
    fn byzantine_reack_counts_once_before_settle_and_not_at_all_after() {
        let mut e = engine(true);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        // Before settle: server 0 acks five times with five different
        // `newread` sets. One server is one ack, whatever it says.
        for tsr in 1..=5 {
            e.on_message(server(0), pw_ack_reporting(tsr), &mut eff);
        }
        for i in 1..4 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        assert!(eff.is_empty(), "four servers, however chatty, are not S − fw");
        e.on_message(server(4), pw_ack(1), &mut eff);
        assert!(eff.into_parts().2.is_some_and(|c| c.fast));
        // One reporter is not b + 1 = 2: nothing was frozen.
        assert_eq!(e.read_ts_for(ReaderId(0)), ReadSeq::INITIAL);
        // After settle: re-acks with yet another `newread`, from the
        // liar and from the server whose ack was still in flight, are
        // dropped — no effect, no state change, no retroactive freeze.
        let settled = e.clone();
        let mut eff = Effects::new();
        e.on_message(server(0), pw_ack_reporting(9), &mut eff);
        e.on_message(server(5), pw_ack_reporting(9), &mut eff);
        assert!(eff.is_empty());
        assert_eq!(e, settled);
    }

    #[test]
    fn batched_acks_count_like_individual_acks() {
        let mut e = engine(false);
        e.invoke(Value::from_u64(7), &mut Effects::new());
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        // Each server's PW ack arrives wrapped in a batch together with a
        // stale ack and a foreign-register ack: only the valid part counts.
        for i in 0..4 {
            let batch = Message::batch(vec![
                pw_ack(9), // stale ts: never counts
                Message::PwAck(PwAckMsg { reg: RegisterId(5), ts: Seq(1), newread: vec![] }),
                pw_ack(1), // the real ack
            ]);
            e.on_message(server(i), batch, &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(
            sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)),
            "the quorum of batched acks starts the W schedule"
        );
    }

    #[test]
    #[should_panic(expected = "not a valid WRITE input")]
    fn bot_rejected() {
        let mut e = engine(true);
        e.invoke(Value::Bot, &mut Effects::new());
    }

    #[test]
    #[should_panic(expected = "in progress")]
    fn concurrent_writes_rejected() {
        let mut e = engine(true);
        e.invoke(Value::from_u64(1), &mut Effects::new());
        e.invoke(Value::from_u64(2), &mut Effects::new());
    }

    #[test]
    fn engine_stamps_its_register_and_drops_foreign_acks() {
        let reg = RegisterId(3);
        let mut e = WriteEngine::for_register(reg, TestPolicy::new(false), 100);
        assert_eq!(e.register(), reg);
        let mut eff = Effects::new();
        e.invoke(Value::from_u64(7), &mut eff);
        let (sends, _, _) = eff.into_parts();
        assert!(
            sends.iter().all(|(_, m)| m.register() == Some(reg)),
            "PW stamped with the register"
        );
        // A full quorum of acks for the *default* register must not count.
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        for i in 0..6 {
            e.on_message(server(i), pw_ack(1), &mut eff);
        }
        assert!(eff.is_empty(), "foreign-register acks must not advance the WRITE");
        // Correctly-addressed acks do.
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(
                server(i),
                Message::PwAck(PwAckMsg { reg, ts: Seq(1), newread: vec![] }),
                &mut eff,
            );
        }
        let (sends, _, _) = eff.into_parts();
        assert!(
            sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.reg == reg)),
            "W round starts, stamped with the register"
        );
    }
}
