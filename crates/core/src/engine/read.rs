//! The READ round driver shared by every variant reader.

use crate::config::ProtocolConfig;
use crate::engine::quorum::AckSet;
use crate::predicates::{self, Thresholds};
use crate::view::{update_view, ViewTable};
use lucky_sim::{Effects, TimerId};
use lucky_types::{
    Message, ProcessId, ReadMsg, ReadSeq, RegisterId, ServerId, Tag, TsVal, WriteMsg,
};

/// What a protocol variant contributes to the READ loop: thresholds,
/// quorum sizes, the round-1 fast gate and the write-back schedule.
/// Everything else — round iteration, ack accumulation, stale-ack
/// filtering, the round-1 timer, write-back sequencing and round-cap
/// parking — lives in [`ReadEngine`].
pub trait ReadPolicy {
    /// Write-back rounds a slow READ runs after selecting a candidate.
    /// `0` means the selected value is returned immediately (the regular
    /// variant, App. D.2 modification 2).
    const WRITEBACK_ROUNDS: u8;

    /// Does round 1 arm a timer and wait it out (Fig. 2 line 17)? With
    /// one, a round-1 quorum decides only once the timer has expired;
    /// without, round 1 ends on its quorum like every later round — the
    /// READ twin of [`WritePolicy::PW_TIMER`](crate::engine::WritePolicy::PW_TIMER).
    const ROUND_ONE_TIMER: bool;

    /// The numeric thresholds the decision predicates compare against.
    fn thresholds(&self) -> &Thresholds;

    /// Acks awaited in every round (`S − t`).
    fn quorum(&self) -> usize;

    /// Number of servers in the cluster.
    fn server_count(&self) -> usize;

    /// May a round-1 decision for candidate `c` skip the write-back?
    /// (Fig. 2 line 21 for the atomic variant, Fig. 7 line 5 for the
    /// two-round variant.) Irrelevant when `WRITEBACK_ROUNDS == 0`.
    fn round_one_fast(&self, views: &ViewTable, c: &TsVal) -> bool;
}

/// Progress of the READ in flight.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ReadState {
    /// No operation in progress.
    Idle,
    /// Iterating READ rounds (Fig. 2 lines 14–19); the [`AckSet`] round is
    /// the current READ round `rnd`.
    Reading { acks: AckSet<u32>, views: ViewTable, timer_expired: bool },
    /// Writing the selected value back; `read_rounds` remembers how many
    /// READ rounds preceded the write-back.
    WritingBack { acks: AckSet<u8>, c: TsVal, read_rounds: u32 },
    /// The configured round cap was hit: the READ is parked and will never
    /// complete (used to keep starvation experiments finite).
    Capped,
}

/// The generic READ driver: owns the reader timestamp, the round loop,
/// the view table and the write-back sequencing; consults a
/// [`ReadPolicy`] for everything variant-specific.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ReadEngine<P> {
    policy: P,
    /// The register this reader reads: stamped on every outgoing message
    /// and required on every ack that counts.
    reg: RegisterId,
    cfg: ProtocolConfig,
    tsr: ReadSeq,
    state: ReadState,
}

impl<P: ReadPolicy> ReadEngine<P> {
    /// A fresh engine around `policy`, reading the default register.
    pub fn new(policy: P, cfg: ProtocolConfig) -> ReadEngine<P> {
        ReadEngine::for_register(RegisterId::DEFAULT, policy, cfg)
    }

    /// A fresh engine reading register `reg` of a multi-register store.
    pub fn for_register(reg: RegisterId, policy: P, cfg: ProtocolConfig) -> ReadEngine<P> {
        ReadEngine { policy, reg, cfg, tsr: ReadSeq::INITIAL, state: ReadState::Idle }
    }

    /// The variant policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The register this reader reads.
    pub fn register(&self) -> RegisterId {
        self.reg
    }

    /// The timestamp of the last invoked READ.
    pub fn tsr(&self) -> ReadSeq {
        self.tsr
    }

    /// `true` iff no READ is in progress.
    pub fn is_idle(&self) -> bool {
        self.state == ReadState::Idle
    }

    /// `true` iff the READ hit the configured round cap and was parked.
    pub fn is_capped(&self) -> bool {
        self.state == ReadState::Capped
    }

    /// The current round number, if a READ is iterating rounds.
    pub fn current_round(&self) -> Option<u32> {
        match &self.state {
            ReadState::Reading { acks, .. } => Some(acks.round()),
            _ => None,
        }
    }

    /// Invoke `READ()` (Fig. 2 lines 12–16): bump `tsr`, reset the view
    /// table, start the round-1 timer if the policy has one and send
    /// `READ⟨tsr, 1⟩` to all.
    ///
    /// # Panics
    ///
    /// Panics if a READ is already in progress.
    pub fn invoke(&mut self, eff: &mut Effects) {
        assert!(self.is_idle(), "READ invoked while another READ is in progress");
        self.tsr = self.tsr.next();
        self.state = ReadState::Reading {
            acks: AckSet::new(1),
            views: ViewTable::new(),
            timer_expired: false,
        };
        if P::ROUND_ONE_TIMER {
            eff.set_timer(TimerId(self.tsr.0), self.cfg.timer_micros);
        }
        eff.broadcast(
            self.servers(),
            Message::Read(ReadMsg { reg: self.reg, tsr: self.tsr, rnd: 1 }),
        );
    }

    /// Deliver a server message. Acks carrying a timestamp other than the
    /// current `tsr` — leftovers from a previous READ — never count;
    /// neither do acks addressed to another register. A
    /// [`Message::Batch`] is unwrapped here — parts are processed in
    /// order, each re-validated exactly as if it had arrived alone, so a
    /// batch (even a Byzantine one mixing registers and rounds) can never
    /// do more than its parts could.
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
            Message::ReadAck(ack) if ack.tsr == self.tsr => {
                if let ReadState::Reading { acks, views, .. } = &mut self.state {
                    // Lines 23–25: keep the latest view per server; line 17
                    // counts only acks of the current round.
                    update_view(views, server, &ack);
                    acks.record(ack.rnd, server);
                } else {
                    return;
                }
                self.try_finish_round(eff);
            }
            Message::WriteAck(ack) if ack.tag == Tag::WriteBack(self.tsr) => {
                let quorum = self.policy.quorum();
                let finished_round = match &mut self.state {
                    ReadState::WritingBack { acks, .. } => {
                        acks.record(ack.round, server);
                        acks.has_quorum(quorum).then(|| acks.round())
                    }
                    _ => None,
                };
                match finished_round {
                    Some(r) if r < P::WRITEBACK_ROUNDS => {
                        self.start_writeback_round(r + 1, eff);
                    }
                    Some(_) => {
                        let ReadState::WritingBack { c, read_rounds, .. } =
                            std::mem::replace(&mut self.state, ReadState::Idle)
                        else {
                            unreachable!("matched WritingBack above");
                        };
                        // Line 22: return csel.val after the full
                        // write-back schedule.
                        eff.complete(
                            Some(c.val),
                            read_rounds + u32::from(P::WRITEBACK_ROUNDS),
                            false,
                        );
                    }
                    None => {}
                }
            }
            _ => {}
        }
    }

    /// The round-1 timer fired. Timers from previous READs are stale and
    /// ignored; policies without a round-1 timer ignore all of them.
    pub fn on_timer(&mut self, id: TimerId, eff: &mut Effects) {
        if !P::ROUND_ONE_TIMER || id != TimerId(self.tsr.0) {
            return; // stale timer from a previous READ
        }
        if let ReadState::Reading { timer_expired, .. } = &mut self.state {
            *timer_expired = true;
            self.try_finish_round(eff);
        }
    }

    /// Fig. 2 lines 17–22: once a quorum of current-round acks arrived
    /// (and, in round 1 of a policy with [`ReadPolicy::ROUND_ONE_TIMER`],
    /// the timer expired), evaluate the candidate set.
    fn try_finish_round(&mut self, eff: &mut Effects) {
        let ReadState::Reading { acks, views, timer_expired } = &self.state else {
            return;
        };
        let rnd = acks.round();
        let timer_pending = rnd == 1 && P::ROUND_ONE_TIMER && !*timer_expired;
        if !acks.has_quorum(self.policy.quorum()) || timer_pending {
            return;
        }
        match predicates::select(views, self.tsr, self.policy.thresholds()) {
            Some(c) => {
                if rnd == 1 && self.policy.round_one_fast(views, &c) {
                    // The fast gate: skip the write-back entirely.
                    self.state = ReadState::Idle;
                    eff.complete(Some(c.val), 1, true);
                } else if P::WRITEBACK_ROUNDS == 0 {
                    // No write-back in the schedule: return immediately;
                    // the READ is fast exactly when it decided in round 1.
                    self.state = ReadState::Idle;
                    eff.complete(Some(c.val), rnd, rnd == 1);
                } else {
                    self.state = ReadState::WritingBack {
                        acks: AckSet::new(0), // set by start_writeback_round
                        c,
                        read_rounds: rnd,
                    };
                    self.start_writeback_round(1, eff);
                }
            }
            None => {
                // No candidate yet: next round (unless the cap parks us).
                if let Some(cap) = self.cfg.max_read_rounds {
                    if rnd + 1 > cap {
                        self.state = ReadState::Capped;
                        return;
                    }
                }
                if let ReadState::Reading { acks, .. } = &mut self.state {
                    acks.advance(rnd + 1);
                }
                eff.broadcast(
                    self.servers(),
                    Message::Read(ReadMsg { reg: self.reg, tsr: self.tsr, rnd: rnd + 1 }),
                );
            }
        }
    }

    fn start_writeback_round(&mut self, round: u8, eff: &mut Effects) {
        let ReadState::WritingBack { acks, c, .. } = &mut self.state else {
            unreachable!("write-back round outside WritingBack state");
        };
        acks.advance(round);
        let msg = Message::Write(WriteMsg {
            reg: self.reg,
            round,
            tag: Tag::WriteBack(self.tsr),
            c: c.clone(),
            frozen: vec![],
        });
        eff.broadcast(self.servers(), msg);
    }

    fn servers(&self) -> impl Iterator<Item = ProcessId> {
        ServerId::all(self.policy.server_count()).map(ProcessId::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{FrozenSlot, Params, ReadAckMsg, Seq, Value, WriteAckMsg};

    /// A two-round write-back policy over the t=2, b=1 thresholds — not
    /// one of the shipped variants, precisely so these tests exercise the
    /// kernel directly rather than through a variant.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct TestPolicy {
        params: Params,
        thresholds: Thresholds,
        fast: bool,
    }

    impl TestPolicy {
        fn new(fast: bool) -> TestPolicy {
            let params = Params::new(2, 1, 1, 0).unwrap();
            TestPolicy { params, thresholds: Thresholds::from(params), fast }
        }
    }

    impl ReadPolicy for TestPolicy {
        const WRITEBACK_ROUNDS: u8 = 2;
        const ROUND_ONE_TIMER: bool = true;
        fn thresholds(&self) -> &Thresholds {
            &self.thresholds
        }
        fn quorum(&self) -> usize {
            self.params.quorum()
        }
        fn server_count(&self) -> usize {
            self.params.server_count()
        }
        fn round_one_fast(&self, _views: &ViewTable, _c: &TsVal) -> bool {
            self.fast
        }
    }

    /// Like [`TestPolicy`] but with no write-back at all.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct NoWritebackPolicy(TestPolicy);

    impl ReadPolicy for NoWritebackPolicy {
        const WRITEBACK_ROUNDS: u8 = 0;
        const ROUND_ONE_TIMER: bool = true;
        fn thresholds(&self) -> &Thresholds {
            self.0.thresholds()
        }
        fn quorum(&self) -> usize {
            self.0.quorum()
        }
        fn server_count(&self) -> usize {
            self.0.server_count()
        }
        fn round_one_fast(&self, _views: &ViewTable, _c: &TsVal) -> bool {
            false
        }
    }

    /// Like [`TestPolicy`] but with no round-1 timer.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct UntimedPolicy(TestPolicy);

    impl ReadPolicy for UntimedPolicy {
        const WRITEBACK_ROUNDS: u8 = 2;
        const ROUND_ONE_TIMER: bool = false;
        fn thresholds(&self) -> &Thresholds {
            self.0.thresholds()
        }
        fn quorum(&self) -> usize {
            self.0.quorum()
        }
        fn server_count(&self) -> usize {
            self.0.server_count()
        }
        fn round_one_fast(&self, views: &ViewTable, c: &TsVal) -> bool {
            self.0.round_one_fast(views, c)
        }
    }

    fn engine(fast: bool) -> ReadEngine<TestPolicy> {
        ReadEngine::new(TestPolicy::new(fast), ProtocolConfig::for_sync_bound(100))
    }

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn read_ack(tsr: u64, rnd: u32) -> Message {
        Message::ReadAck(ReadAckMsg {
            reg: RegisterId::DEFAULT,
            tsr: ReadSeq(tsr),
            rnd,
            pw: pair(1),
            w: pair(1),
            vw: None,
            frozen: FrozenSlot::initial(),
        })
    }

    fn wb_ack(round: u8, tsr: u64) -> Message {
        Message::WriteAck(WriteAckMsg {
            reg: RegisterId::DEFAULT,
            round,
            tag: Tag::WriteBack(ReadSeq(tsr)),
        })
    }

    fn quorum_of_read_acks(e: &mut ReadEngine<TestPolicy>, tsr: u64, rnd: u32) -> Effects {
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), read_ack(tsr, rnd), &mut eff);
        }
        eff
    }

    #[test]
    fn stale_tsr_acks_never_count() {
        let mut e = engine(true);
        let mut eff = Effects::new();
        e.invoke(&mut eff);
        e.on_timer(TimerId(1), &mut Effects::new());
        // A full quorum of acks — but all for tsr 9, not the current READ.
        let mut eff = Effects::new();
        for i in 0..6 {
            e.on_message(server(i), read_ack(9, 1), &mut eff);
        }
        assert!(eff.is_empty(), "foreign-tsr acks must not complete the READ");
        assert_eq!(e.current_round(), Some(1));
        // The real acks still complete it.
        let (_, _, completion) = quorum_of_read_acks(&mut e, 1, 1).into_parts();
        assert!(completion.is_some());
    }

    #[test]
    fn stale_round_acks_are_viewed_but_not_counted() {
        let mut e = engine(false);
        let mut eff = Effects::new();
        e.invoke(&mut eff);
        e.on_timer(TimerId(1), &mut Effects::new());
        // Push the engine to round 2 with an undecidable quorum: divided
        // views, no candidate.
        let mut eff = Effects::new();
        for (i, ts) in [(0u16, 2u64), (1, 3), (2, 4), (3, 5)] {
            let ack = Message::ReadAck(ReadAckMsg {
                reg: RegisterId::DEFAULT,
                tsr: ReadSeq(1),
                rnd: 1,
                pw: pair(ts),
                w: pair(1),
                vw: None,
                frozen: FrozenSlot::initial(),
            });
            e.on_message(server(i), ack, &mut eff);
        }
        assert_eq!(e.current_round(), Some(2));
        // Round-1 retransmissions arrive late: they must not fill the
        // round-2 quorum.
        let mut eff = Effects::new();
        for i in 0..6 {
            e.on_message(server(i), read_ack(1, 1), &mut eff);
        }
        assert_eq!(e.current_round(), Some(2), "stale-round acks must not advance");
    }

    #[test]
    fn stale_timer_from_previous_read_is_ignored() {
        let mut e = engine(true);
        e.invoke(&mut Effects::new());
        e.on_timer(TimerId(1), &mut Effects::new());
        quorum_of_read_acks(&mut e, 1, 1);
        assert!(e.is_idle());
        // Second READ; the first READ's timer id no longer matches.
        e.invoke(&mut Effects::new());
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), read_ack(2, 1), &mut eff);
        }
        let mut eff = Effects::new();
        e.on_timer(TimerId(1), &mut eff);
        assert!(eff.is_empty(), "stale timer must not trigger the decision");
        let mut eff = Effects::new();
        e.on_timer(TimerId(2), &mut eff);
        assert!(eff.into_parts().2.is_some(), "the current timer decides");
    }

    #[test]
    fn writeback_rounds_run_in_sequence() {
        let mut e = engine(false); // never fast: always writes back
        e.invoke(&mut Effects::new());
        e.on_timer(TimerId(1), &mut Effects::new());
        let (sends, _, completion) = quorum_of_read_acks(&mut e, 1, 1).into_parts();
        assert!(completion.is_none());
        assert_eq!(sends.len(), 6, "write-back round 1 broadcast");
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 1)));
        // Round-2 acks before round 1 completes are stale: ignored.
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), wb_ack(2, 1), &mut eff);
        }
        assert!(eff.is_empty(), "future-round write-back acks must not count");
        // Round 1 quorum → round 2 broadcast.
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), wb_ack(1, 1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
        // Round 2 quorum → completion with rounds = 1 read + 2 write-back.
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), wb_ack(2, 1), &mut eff);
        }
        let c = eff.into_parts().2.expect("slow completion");
        assert_eq!((c.rounds, c.fast), (3, false));
        assert!(e.is_idle());
    }

    #[test]
    fn round_cap_parks_the_read() {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut cfg = ProtocolConfig::for_sync_bound(100);
        cfg.max_read_rounds = Some(1);
        let policy = TestPolicy { params, thresholds: Thresholds::from(params), fast: false };
        let mut e = ReadEngine::new(policy, cfg);
        e.invoke(&mut Effects::new());
        e.on_timer(TimerId(1), &mut Effects::new());
        // Divided views: no candidate, and the cap forbids round 2.
        let mut eff = Effects::new();
        for (i, ts) in [(0u16, 2u64), (1, 3), (2, 4), (3, 5)] {
            let ack = Message::ReadAck(ReadAckMsg {
                reg: RegisterId::DEFAULT,
                tsr: ReadSeq(1),
                rnd: 1,
                pw: pair(ts),
                w: pair(1),
                vw: None,
                frozen: FrozenSlot::initial(),
            });
            e.on_message(server(i), ack, &mut eff);
        }
        assert!(e.is_capped());
        assert!(!e.is_idle());
        assert_eq!(e.current_round(), None);
        // A parked READ reacts to nothing.
        let mut eff = Effects::new();
        for i in 0..6 {
            e.on_message(server(i), read_ack(1, 2), &mut eff);
        }
        assert!(eff.is_empty());
        assert!(e.is_capped());
    }

    #[test]
    fn zero_writeback_policy_completes_immediately() {
        let mut e = ReadEngine::new(
            NoWritebackPolicy(TestPolicy::new(false)),
            ProtocolConfig::for_sync_bound(100),
        );
        e.invoke(&mut Effects::new());
        e.on_timer(TimerId(1), &mut Effects::new());
        let mut eff = Effects::new();
        for i in 0..4 {
            e.on_message(server(i), read_ack(1, 1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.is_empty(), "no write-back with an empty schedule");
        let c = completion.expect("immediate completion");
        assert_eq!((c.rounds, c.fast), (1, true), "round-1 decision counts as fast");
        assert!(e.is_idle());
    }

    #[test]
    fn untimed_round_one_decides_on_its_quorum() {
        let mut e = ReadEngine::new(
            UntimedPolicy(TestPolicy::new(true)),
            ProtocolConfig::for_sync_bound(100),
        );
        let mut eff = Effects::new();
        e.invoke(&mut eff);
        assert!(eff.into_parts().1.is_empty(), "no round-1 timer is armed");
        let mut eff = Effects::new();
        for i in 0..3 {
            e.on_message(server(i), read_ack(1, 1), &mut eff);
        }
        assert!(eff.is_empty(), "below the quorum nothing is decided");
        e.on_message(server(3), read_ack(1, 1), &mut eff);
        let c = eff.into_parts().2.expect("the quorum decides without a timer");
        assert_eq!((c.rounds, c.fast), (1, true));
    }

    #[test]
    fn batched_acks_decide_like_individual_acks() {
        let mut e = engine(true);
        e.invoke(&mut Effects::new());
        e.on_timer(TimerId(1), &mut Effects::new());
        let mut eff = Effects::new();
        for i in 0..4 {
            // Each ack arrives batched with a stale-tsr straggler; only
            // the current-READ part counts towards the quorum.
            let batch = Message::batch(vec![read_ack(9, 1), read_ack(1, 1)]);
            e.on_message(server(i), batch, &mut eff);
        }
        let c = eff.into_parts().2.expect("batched quorum completes the READ");
        assert_eq!((c.rounds, c.fast), (1, true));
    }

    #[test]
    #[should_panic(expected = "in progress")]
    fn concurrent_reads_rejected() {
        let mut e = engine(true);
        e.invoke(&mut Effects::new());
        e.invoke(&mut Effects::new());
    }

    #[test]
    fn engine_stamps_its_register_and_drops_foreign_acks() {
        let reg = RegisterId(5);
        let mut e = ReadEngine::for_register(
            reg,
            TestPolicy::new(true),
            ProtocolConfig::for_sync_bound(100),
        );
        assert_eq!(e.register(), reg);
        let mut eff = Effects::new();
        e.invoke(&mut eff);
        let (sends, _, _) = eff.into_parts();
        assert!(
            sends.iter().all(|(_, m)| m.register() == Some(reg)),
            "READ stamped with the register"
        );
        e.on_timer(TimerId(1), &mut Effects::new());
        // A full quorum of default-register acks must not count.
        let mut eff = Effects::new();
        for i in 0..6 {
            e.on_message(server(i), read_ack(1, 1), &mut eff);
        }
        assert!(eff.is_empty(), "foreign-register acks must not complete the READ");
        assert_eq!(e.current_round(), Some(1));
        // Correctly-addressed acks complete it.
        let mut eff = Effects::new();
        for i in 0..4 {
            let ack = Message::ReadAck(ReadAckMsg {
                reg,
                tsr: ReadSeq(1),
                rnd: 1,
                pw: pair(1),
                w: pair(1),
                vw: None,
                frozen: FrozenSlot::initial(),
            });
            e.on_message(server(i), ack, &mut eff);
        }
        assert!(eff.into_parts().2.is_some(), "same-register acks decide");
    }
}
