//! The reader automaton (Fig. 2), as a policy over the shared
//! [`ReadEngine`] kernel.

use crate::config::ProtocolConfig;
use crate::engine::{ReadEngine, ReadPolicy};
use crate::predicates::{self, Thresholds};
use crate::view::ViewTable;
use lucky_types::{Params, RegisterId, TsVal};

/// The atomic variant's READ policy: three write-back rounds and the
/// `fast(c) = fastpw(c) ∨ fastvw(c)` round-1 gate (Fig. 2 lines 5–7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AtomicReadPolicy {
    params: Params,
    thresholds: Thresholds,
    fast_reads: bool,
}

impl ReadPolicy for AtomicReadPolicy {
    const WRITEBACK_ROUNDS: u8 = 3;
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

    fn round_one_fast(&self, views: &ViewTable, c: &TsVal) -> bool {
        // Line 21: skip the write-back iff fast(c) holds.
        self.fast_reads && predicates::fast(views, c, &self.thresholds)
    }
}

/// A reader `r_j` of the atomic algorithm: the shared [`ReadEngine`]
/// over [`AtomicReadPolicy`].
pub type AtomicReader = ReadEngine<AtomicReadPolicy>;

/// A fresh reader of register `reg`. Its identity is the session's
/// [`ProcessId`](lucky_types::ProcessId): servers key `tsr_j` and frozen
/// slots on the sender, so the core never needs it.
pub fn reader(reg: RegisterId, params: Params, cfg: ProtocolConfig) -> AtomicReader {
    let mut thresholds = Thresholds::from(params);
    if let Some(fastpw) = cfg.fastpw_override {
        thresholds.fastpw = fastpw;
    }
    let policy = AtomicReadPolicy { params, thresholds, fast_reads: cfg.fast_reads };
    ReadEngine::for_register(reg, policy, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::{Effects, TimerId};
    use lucky_types::{
        FrozenSlot, Message, ProcessId, ReadAckMsg, ReadSeq, Seq, ServerId, Tag, Value, WriteAckMsg,
    };

    /// t = 2, b = 1, fw = 1, fr = 0 → S = 6, quorum 4, fastpw 5, safe 2.
    fn reader() -> AtomicReader {
        let params = Params::new(2, 1, 1, 0).unwrap();
        super::reader(RegisterId::DEFAULT, params, ProtocolConfig::for_sync_bound(100))
    }

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn read_ack(tsr: u64, rnd: u32, pw: TsVal, w: TsVal, vw: TsVal) -> Message {
        Message::ReadAck(ReadAckMsg {
            reg: RegisterId::DEFAULT,
            tsr: ReadSeq(tsr),
            rnd,
            pw,
            w,
            vw: Some(vw),
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

    fn invoke(r: &mut AtomicReader) -> Effects {
        let mut eff = Effects::new();
        r.invoke(&mut eff);
        eff
    }

    #[test]
    fn invoke_broadcasts_round_one_and_sets_timer() {
        let mut r = reader();
        let (sends, timers, _) = invoke(&mut r).into_parts();
        assert_eq!(sends.len(), 6);
        assert!(sends
            .iter()
            .all(|(_, m)| matches!(m, Message::Read(rm) if rm.rnd == 1 && rm.tsr == ReadSeq(1))));
        assert_eq!(timers, vec![(TimerId(1), 201)]);
        assert_eq!(r.current_round(), Some(1));
    }

    #[test]
    fn fast_read_completes_in_one_round_when_fastpw_holds() {
        let mut r = reader();
        invoke(&mut r);
        let mut eff = Effects::new();
        // 5 servers (= fastpw threshold) report ⟨1, v1⟩ in pw.
        for i in 0..5 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        }
        // Quorum reached but the round-1 timer is pending: no decision.
        assert!(eff.is_empty());
        let mut eff = Effects::new();
        r.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.is_empty(), "fast read leaves nothing behind");
        let c = completion.expect("fast completion");
        assert_eq!((c.rounds, c.fast), (1, true));
        assert_eq!(c.value.unwrap().as_u64(), Some(1));
        assert!(r.is_idle());
    }

    #[test]
    fn fast_read_via_fastvw_after_slow_write() {
        let mut r = reader();
        invoke(&mut r);
        let mut eff = Effects::new();
        r.on_timer(TimerId(1), &mut eff);
        // b + 1 = 2 servers saw the third W round (vw = ⟨1⟩); the other two
        // quorum members lag with older registers but still vouch via pw/w.
        r.on_message(server(0), read_ack(1, 1, pair(1), pair(1), pair(1)), &mut eff);
        r.on_message(server(1), read_ack(1, 1, pair(1), pair(1), pair(1)), &mut eff);
        r.on_message(server(2), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        let mut eff = Effects::new();
        r.on_message(server(3), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        let (_, _, completion) = eff.into_parts();
        let c = completion.expect("fastvw completion");
        assert_eq!((c.rounds, c.fast), (1, true));
        assert_eq!(c.value.unwrap().as_u64(), Some(1));
    }

    #[test]
    fn slow_read_writes_back_in_three_rounds() {
        let mut r = reader();
        invoke(&mut r);
        let mut eff = Effects::new();
        r.on_timer(TimerId(1), &mut eff);
        // Quorum agrees on ⟨1⟩ but only 4 < 5 pw copies and no vw: not fast.
        for i in 0..4 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        // Write-back round 1 broadcast.
        assert_eq!(sends.len(), 6);
        assert!(sends
            .iter()
            .all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 1 && wm.c == pair(1))));
        // Three write-back rounds, then completion with rounds = 1 + 3.
        for round in 1..=3u8 {
            let mut eff = Effects::new();
            for i in 0..4 {
                r.on_message(server(i), wb_ack(round, 1), &mut eff);
            }
            let (sends, _, completion) = eff.into_parts();
            if round < 3 {
                assert!(completion.is_none());
                assert_eq!(sends.len(), 6, "next write-back round broadcast");
            } else {
                let c = completion.expect("slow completion");
                assert_eq!((c.rounds, c.fast), (4, false));
                assert_eq!(c.value.unwrap().as_u64(), Some(1));
            }
        }
        assert!(r.is_idle());
    }

    #[test]
    fn contention_forces_second_round() {
        let mut r = reader();
        invoke(&mut r);
        let mut eff = Effects::new();
        r.on_timer(TimerId(1), &mut eff);
        // A write of ⟨2⟩ is in flight: one server already holds it in both
        // pw and w (so it reports nothing older), three lag at ⟨1⟩. Then:
        // safe(⟨2⟩) fails (1 < b+1 vouchers), and highCand(⟨1⟩) fails too,
        // because invalidw(⟨2⟩) counts only the 3 laggards (< S−t = 4).
        // C is empty and the reader must start round 2.
        for i in 0..3 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        }
        r.on_message(server(3), read_ack(1, 1, pair(2), pair(2), TsVal::initial()), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        // Round 2 broadcast.
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Read(rm) if rm.rnd == 2)));
        assert_eq!(r.current_round(), Some(2));
        // Round 2: the write completed meanwhile; all six servers now
        // vouch for ⟨2⟩ — but round 2 is never fast, so a write-back runs.
        let mut eff = Effects::new();
        for i in 0..4 {
            r.on_message(server(i), read_ack(1, 2, pair(2), pair(2), pair(2)), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 1)));
        for round in 1..=3u8 {
            let mut eff = Effects::new();
            for i in 0..4 {
                r.on_message(server(i), wb_ack(round, 1), &mut eff);
            }
            if round == 3 {
                let (_, _, completion) = eff.into_parts();
                let c = completion.expect("completion after round-2 read");
                assert_eq!((c.rounds, c.fast), (5, false));
                assert_eq!(c.value.unwrap().as_u64(), Some(2));
            }
        }
    }

    #[test]
    fn stale_acks_from_previous_read_are_ignored() {
        let mut r = reader();
        invoke(&mut r);
        let mut eff = Effects::new();
        // Acks arrive before the timer (the synchronous pattern): the
        // evaluation at timer expiry sees all five pw copies → fast.
        for i in 0..5 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        }
        r.on_timer(TimerId(1), &mut eff);
        assert!(r.is_idle());
        // Second READ: acks carrying the old tsr = 1 must not count.
        invoke(&mut r);
        let mut eff = Effects::new();
        for i in 0..5 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1), TsVal::initial()), &mut eff);
        }
        r.on_timer(TimerId(2), &mut eff);
        assert!(!r.is_idle(), "old-tsr acks must not complete the new READ");
        assert_eq!(r.current_round(), Some(1));
    }

    #[test]
    fn round_cap_parks_the_read() {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut cfg = ProtocolConfig::for_sync_bound(100);
        cfg.max_read_rounds = Some(1);
        let mut r = super::reader(RegisterId::DEFAULT, params, cfg);
        invoke(&mut r);
        let mut eff = Effects::new();
        r.on_timer(TimerId(1), &mut eff);
        // Divided views: each server reports a distinct pre-written pair,
        // so no pair is safe and ⟨1⟩'s highCand is blocked by ⟨4⟩/⟨5⟩
        // (fewer than S−b−t = 3 older pw responses) → C empty → cap hit.
        for (i, ts) in [(0u16, 2u64), (1, 3), (2, 4), (3, 5)] {
            r.on_message(server(i), read_ack(1, 1, pair(ts), pair(1), TsVal::initial()), &mut eff);
        }
        assert!(r.is_capped());
    }

    #[test]
    fn fast_reads_disabled_forces_writeback() {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut r = super::reader(RegisterId::DEFAULT, params, ProtocolConfig::slow_only(100));
        invoke(&mut r);
        let mut eff = Effects::new();
        r.on_timer(TimerId(1), &mut eff);
        for i in 0..6 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1), pair(1)), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none(), "fast path disabled: must write back");
        assert!(sends.iter().any(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 1)));
    }

    #[test]
    #[should_panic(expected = "in progress")]
    fn concurrent_reads_rejected() {
        let mut r = reader();
        invoke(&mut r);
        invoke(&mut r);
    }
}
