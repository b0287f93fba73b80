//! The writer automaton (Fig. 1), as a policy over the shared
//! [`WriteEngine`] kernel.
//!
//! One deliberate deviation from the figure: line 5 waits for a quorum
//! of PW acks *and* the timer; this writer's PW phase ends on the ack
//! that decides its outcome — `S − fw` acks (line 8 holds and stays
//! true) or all `S` (nothing else can arrive) — and only an undecided
//! quorum waits the timer out. A lucky WRITE costs a round trip, not a
//! timer. The timer is the writer's local clock in an asynchronous model
//! (§2.1), so every such run is one the paper already admits; see
//! [`WriteEngine`] for the argument and what it leans on (`fastpw` for
//! the next READ's luck, servers re-reporting `newread` for freezing).

use crate::config::ProtocolConfig;
use crate::engine::{WriteEngine, WritePolicy};
use lucky_types::{Params, RegisterId};

/// The atomic variant's WRITE policy: a timed PW phase, the `S − fw`
/// one-round fast path (Fig. 1 line 8), a two-round W phase (rounds 2
/// and 3), and the frozen set shipped on the *next* WRITE's PW message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AtomicWritePolicy {
    params: Params,
    fast_writes: bool,
    freezing: bool,
}

impl WritePolicy for AtomicWritePolicy {
    const PW_TIMER: bool = true;
    const W_ROUNDS: &'static [u8] = &[2, 3];
    const FROZEN_ON_W: bool = false;

    fn quorum(&self) -> usize {
        self.params.quorum()
    }

    fn server_count(&self) -> usize {
        self.params.server_count()
    }

    fn b(&self) -> usize {
        self.params.b()
    }

    fn fast_write_acks(&self) -> Option<usize> {
        self.fast_writes.then(|| self.params.fast_write_acks())
    }

    fn freezing(&self) -> bool {
        self.freezing
    }
}

/// The single writer `w` of the atomic algorithm. Its persistent state
/// (Fig. 1 lines 1–2) — the timestamp counter `ts`, the last pre-written
/// and written pairs `pw`/`w`, the per-reader freeze watermark
/// `read_ts[*]`, and the `frozen` set computed by the last
/// `freezevalues()` — lives in the shared [`WriteEngine`].
pub type AtomicWriter = WriteEngine<AtomicWritePolicy>;

/// A fresh writer of register `reg` for a cluster with the given
/// parameters.
pub fn writer(reg: RegisterId, params: Params, cfg: ProtocolConfig) -> AtomicWriter {
    let policy = AtomicWritePolicy { params, fast_writes: cfg.fast_writes, freezing: cfg.freezing };
    WriteEngine::for_register(reg, policy, cfg.timer_micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::{Effects, TimerId};
    use lucky_types::{
        Message, NewRead, ProcessId, PwAckMsg, ReadSeq, ReaderId, Seq, ServerId, Tag, TsVal, Value,
        WriteAckMsg,
    };

    /// t = 2, b = 1, fw = 1, fr = 0 → S = 6, quorum 4, fast acks 5.
    fn writer() -> AtomicWriter {
        let params = Params::new(2, 1, 1, 0).unwrap();
        super::writer(RegisterId::DEFAULT, params, ProtocolConfig::for_sync_bound(100))
    }

    fn pw_ack(ts: u64, newread: Vec<NewRead>) -> Message {
        Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(ts), newread })
    }

    fn w_ack(round: u8, ts: u64) -> Message {
        Message::WriteAck(WriteAckMsg { reg: RegisterId::DEFAULT, round, tag: Tag::Write(Seq(ts)) })
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    /// Drive `w` through invocation, returning the PW broadcast.
    fn invoke(w: &mut AtomicWriter, v: u64) -> Effects {
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(v), &mut eff);
        eff
    }

    #[test]
    fn invoke_broadcasts_pw_to_all_servers_and_sets_timer() {
        let mut w = writer();
        let eff = invoke(&mut w, 7);
        let (sends, timers, completion) = eff.into_parts();
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(to, m)| to.is_server() && matches!(m, Message::Pw(_))));
        assert_eq!(timers, vec![(TimerId(1), 201)]);
        assert!(completion.is_none());
        assert_eq!(w.ts(), Seq(1));
    }

    #[test]
    fn fast_write_completes_on_the_s_minus_fw_th_ack_and_never_on_fewer() {
        // S − fw − 1 = 4 acks: a quorum, but luck is undecided. The WRITE
        // stays pending until the timer and then goes slow — no false luck.
        let mut w = writer();
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        for i in 0..4 {
            w.on_message(server(i), pw_ack(1, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
        assert!(!w.is_idle());
        w.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));

        // The (S − fw)-th ack decides Fig. 1 line 8: the WRITE completes
        // in one round in that step, without the timer.
        let mut w = writer();
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        for i in 0..4 {
            w.on_message(server(i), pw_ack(1, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
        w.on_message(server(4), pw_ack(1, vec![]), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.is_empty());
        let c = completion.expect("fast completion on the deciding ack");
        assert_eq!((c.rounds, c.fast), (1, true));
        assert!(w.is_idle());
        // Its timer fires later into an idle writer: nothing happens.
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        assert!(eff.is_empty());
    }

    #[test]
    fn slow_write_runs_two_more_rounds() {
        let mut w = writer();
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        // Only quorum acks (4 < S - fw = 5): W phase begins.
        for i in 0..3 {
            w.on_message(server(i), pw_ack(1, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
        let mut eff = Effects::new();
        w.on_message(server(3), pw_ack(1, vec![]), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));

        // Round 2 quorum -> round 3 broadcast.
        let mut eff = Effects::new();
        for i in 0..4 {
            w.on_message(server(i), w_ack(2, 1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 3)));

        // Round 3 quorum -> slow completion (3 rounds total).
        let mut eff = Effects::new();
        for i in 0..4 {
            w.on_message(server(i), w_ack(3, 1), &mut eff);
        }
        let (_, _, completion) = eff.into_parts();
        let c = completion.expect("slow completion");
        assert_eq!((c.rounds, c.fast), (3, false));
    }

    #[test]
    fn fast_path_disabled_always_runs_w_phase() {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut w = super::writer(RegisterId::DEFAULT, params, ProtocolConfig::slow_only(100));
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        for i in 0..6 {
            w.on_message(server(i), pw_ack(1, vec![]), &mut eff);
        }
        // All 6 acks received, yet the W phase starts anyway.
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().any(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
    }

    #[test]
    fn duplicate_and_stale_acks_are_ignored() {
        let mut w = writer();
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        // Duplicate acks from one server count once.
        for _ in 0..5 {
            w.on_message(server(0), pw_ack(1, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
        // Acks with the wrong timestamp are invalid (§3.4).
        let mut eff = Effects::new();
        for i in 1..4 {
            w.on_message(server(i), pw_ack(9, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
        assert!(!w.is_idle());
    }

    #[test]
    fn freezevalues_advances_watermark_to_b_plus_1st_highest() {
        let mut w = writer();
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        let nr = |tsr: u64| vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(tsr) }];
        // b + 1 = 2 reports needed; reported values 9 and 5 → watermark 5.
        // Acks arrive before the timer (the synchronous pattern), so the
        // evaluation sees all five and the WRITE completes fast.
        w.on_message(server(0), pw_ack(1, nr(9)), &mut eff);
        w.on_message(server(1), pw_ack(1, nr(5)), &mut eff);
        w.on_message(server(2), pw_ack(1, vec![]), &mut eff);
        w.on_message(server(3), pw_ack(1, vec![]), &mut eff);
        w.on_message(server(4), pw_ack(1, vec![]), &mut eff);
        w.on_timer(TimerId(1), &mut eff);
        assert_eq!(w.read_ts_for(ReaderId(0)), ReadSeq(5));
        assert!(w.is_idle());
        // The frozen entry rides the next WRITE's PW message.
        let eff = invoke(&mut w, 8);
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::Pw(m) => {
                assert_eq!(m.frozen.len(), 1);
                assert_eq!(m.frozen[0].reader, ReaderId(0));
                assert_eq!(m.frozen[0].tsr, ReadSeq(5));
                // The frozen pair is the *previous* WRITE's pair.
                assert_eq!(m.frozen[0].pw, TsVal::new(Seq(1), Value::from_u64(7)));
            }
            other => panic!("expected Pw, got {other:?}"),
        }
    }

    #[test]
    fn single_report_is_not_enough_to_freeze() {
        let mut w = writer();
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        let nr = vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(9) }];
        w.on_message(server(0), pw_ack(1, nr), &mut eff);
        for i in 1..5 {
            w.on_message(server(i), pw_ack(1, vec![]), &mut eff);
        }
        // Only one server (possibly malicious) reported: no freeze.
        assert_eq!(w.read_ts_for(ReaderId(0)), ReadSeq::INITIAL);
    }

    #[test]
    fn freeze_is_at_most_once_per_read() {
        let mut w = writer();
        // First write freezes tsr = 5 for r0.
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        let nr = |tsr: u64| vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(tsr) }];
        for i in 0..5 {
            w.on_message(server(i), pw_ack(1, nr(5)), &mut eff);
        }
        w.on_timer(TimerId(1), &mut eff);
        assert_eq!(w.read_ts_for(ReaderId(0)), ReadSeq(5));
        // Second write sees the same reports again: watermark not above 5,
        // so nothing new is frozen.
        invoke(&mut w, 8);
        let mut eff = Effects::new();
        for i in 0..5 {
            w.on_message(server(i), pw_ack(2, nr(5)), &mut eff);
        }
        w.on_timer(TimerId(2), &mut eff);
        let eff2 = invoke(&mut w, 9);
        let (sends, _, _) = eff2.into_parts();
        match &sends[0].1 {
            Message::Pw(m) => assert!(m.frozen.is_empty(), "no second freeze for tsr 5"),
            other => panic!("expected Pw, got {other:?}"),
        }
    }

    #[test]
    fn freezing_disabled_never_freezes() {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut cfg = ProtocolConfig::for_sync_bound(100);
        cfg.freezing = false;
        let mut w = super::writer(RegisterId::DEFAULT, params, cfg);
        invoke(&mut w, 7);
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        let nr = |tsr: u64| vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(tsr) }];
        for i in 0..5 {
            w.on_message(server(i), pw_ack(1, nr(5)), &mut eff);
        }
        assert_eq!(w.read_ts_for(ReaderId(0)), ReadSeq::INITIAL);
    }

    #[test]
    #[should_panic(expected = "not a valid WRITE input")]
    fn bot_cannot_be_written() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::Bot, &mut eff);
    }

    #[test]
    #[should_panic(expected = "in progress")]
    fn concurrent_invocations_rejected() {
        let mut w = writer();
        invoke(&mut w, 1);
        invoke(&mut w, 2);
    }
}
