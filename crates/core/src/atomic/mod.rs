//! The main algorithm (§3 of the paper, Figs 1–3).
//!
//! An optimally-resilient (`S = 2t + b + 1`) wait-free SWMR **atomic**
//! storage in which, for any split `fw + fr = t − b`:
//!
//! * every *lucky* WRITE (synchronous; in the SWMR setting every
//!   synchronous WRITE is contention-free) completes in **one** round-trip
//!   whenever at most `fw` servers have failed (Theorem 3);
//! * every *lucky* READ (synchronous and contention-free) completes in
//!   **one** round-trip whenever at most `fr` servers have failed
//!   (Theorem 4).
//!
//! Under contention, asynchrony or excess failures the operations fall
//! back to slow paths that preserve atomicity (Theorem 1) and
//! wait-freedom (Theorem 2): a slow WRITE adds a two-round W phase; a slow
//! READ iterates rounds until its candidate set is non-empty, then writes
//! the chosen value back in three rounds. The *freezing* hand-shake between
//! readers (round ≥ 2 READ messages), servers (`newread` piggybacking) and
//! the writer (`freezevalues()`) guarantees that a READ concurrent with an
//! unbounded stream of WRITEs still terminates.
//!
//! This module is the variant's policies only: [`AtomicWriter`],
//! [`AtomicReader`] and [`AtomicServer`] are the [`engine`](crate::engine)
//! types over them, built by [`writer()`], [`reader()`] and
//! `AtomicServer::new`.

mod reader;
mod writer;

pub use reader::{reader, AtomicReadPolicy, AtomicReader};
pub use writer::{writer, AtomicWritePolicy, AtomicWriter};

use crate::engine::{Server, ServerPolicy};

/// The atomic variant's server switches (Fig. 3): a `vw` register, and
/// readers' write-backs applied exactly like the writer's W rounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct AtomicServerPolicy;

impl ServerPolicy for AtomicServerPolicy {
    const VW: bool = true;
    const READER_WRITEBACKS: bool = true;
}

/// A correct server of the atomic algorithm (Fig. 3).
pub type AtomicServer = Server<AtomicServerPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::Effects;
    use lucky_types::{
        FrozenSlot, FrozenUpdate, Message, NewRead, ProcessId, PwMsg, ReadMsg, ReadSeq, ReaderId,
        RegisterId, Seq, Tag, TsVal, Value, WriteAckMsg, WriteMsg,
    };

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn pw_msg(ts: u64, pw: TsVal, w: TsVal, frozen: Vec<FrozenUpdate>) -> Message {
        Message::Pw(PwMsg { reg: RegisterId::DEFAULT, ts: Seq(ts), pw, w, frozen })
    }

    fn drain(eff: &mut Effects) -> Vec<(ProcessId, Message)> {
        std::mem::take(eff).into_parts().0
    }

    #[test]
    fn pw_updates_registers_and_acks() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(ProcessId::Writer, pw_msg(1, pair(1), TsVal::initial(), vec![]), &mut eff);
        assert_eq!(s.pw(), &pair(1));
        assert_eq!(s.w(), &TsVal::initial());
        let sends = drain(&mut eff);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, ProcessId::Writer);
        match &sends[0].1 {
            Message::PwAck(a) => {
                assert_eq!(a.ts, Seq(1));
                assert!(a.newread.is_empty());
            }
            other => panic!("expected PwAck, got {other:?}"),
        }
    }

    #[test]
    fn pw_from_non_writer_is_ignored() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            pw_msg(1, pair(1), TsVal::initial(), vec![]),
            &mut eff,
        );
        assert_eq!(s.pw(), &TsVal::initial());
        assert!(eff.is_empty());
    }

    #[test]
    fn registers_never_regress() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(ProcessId::Writer, pw_msg(5, pair(5), pair(4), vec![]), &mut eff);
        // An older PW arrives late (reordered in transit).
        s.handle(ProcessId::Writer, pw_msg(3, pair(3), pair(2), vec![]), &mut eff);
        assert_eq!(s.pw(), &pair(5));
        assert_eq!(s.w(), &pair(4));
    }

    #[test]
    fn write_rounds_update_progressively() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        let w = |round| {
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round,
                tag: Tag::Write(Seq(2)),
                c: pair(2),
                frozen: vec![],
            })
        };
        s.handle(ProcessId::Writer, w(2), &mut eff);
        assert_eq!((s.pw(), s.w(), s.vw()), (&pair(2), &pair(2), &TsVal::initial()));
        s.handle(ProcessId::Writer, w(3), &mut eff);
        assert_eq!(s.vw(), &pair(2));
        // Round numbers echoed in the acks.
        let sends = drain(&mut eff);
        assert!(matches!(&sends[0].1, Message::WriteAck(a) if a.round == 2));
        assert!(matches!(&sends[1].1, Message::WriteAck(a) if a.round == 3));
    }

    #[test]
    fn writeback_round_one_touches_only_pw() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(1)),
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 1,
                tag: Tag::WriteBack(ReadSeq(1)),
                c: pair(7),
                frozen: vec![],
            }),
            &mut eff,
        );
        assert_eq!(s.pw(), &pair(7));
        assert_eq!(s.w(), &TsVal::initial());
        assert_eq!(s.vw(), &TsVal::initial());
    }

    #[test]
    fn read_round_two_records_reader_timestamp() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        let r0 = ProcessId::Reader(ReaderId(0));
        // Round 1 leaves no trace (fast reads are invisible).
        s.handle(
            r0,
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(3), rnd: 1 }),
            &mut eff,
        );
        assert_eq!(s.reader_ts_for(ReaderId(0)), ReadSeq::INITIAL);
        // Round 2 records it.
        s.handle(
            r0,
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(3), rnd: 2 }),
            &mut eff,
        );
        assert_eq!(s.reader_ts_for(ReaderId(0)), ReadSeq(3));
        // An older READ cannot regress it.
        s.handle(
            r0,
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(2), rnd: 2 }),
            &mut eff,
        );
        assert_eq!(s.reader_ts_for(ReaderId(0)), ReadSeq(3));
    }

    #[test]
    fn read_ack_reflects_current_state() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(ProcessId::Writer, pw_msg(4, pair(4), pair(3), vec![]), &mut eff);
        drain(&mut eff);
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 }),
            &mut eff,
        );
        let sends = drain(&mut eff);
        match &sends[0].1 {
            Message::ReadAck(a) => {
                assert_eq!(a.pw, pair(4));
                assert_eq!(a.w, pair(3));
                assert_eq!(a.vw, Some(TsVal::initial()));
                assert_eq!(a.rnd, 1);
                assert_eq!(a.tsr, ReadSeq(1));
            }
            other => panic!("expected ReadAck, got {other:?}"),
        }
    }

    #[test]
    fn newread_reports_unfrozen_slow_reads() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        let r0 = ProcessId::Reader(ReaderId(0));
        // A slow READ (round 2) registers tsr = 5.
        s.handle(
            r0,
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(5), rnd: 2 }),
            &mut eff,
        );
        drain(&mut eff);
        // The next PW ack reports it.
        s.handle(ProcessId::Writer, pw_msg(2, pair(2), pair(1), vec![]), &mut eff);
        let sends = drain(&mut eff);
        match &sends[0].1 {
            Message::PwAck(a) => {
                assert_eq!(a.newread, vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(5) }]);
            }
            other => panic!("expected PwAck, got {other:?}"),
        }
    }

    #[test]
    fn frozen_adoption_respects_reader_ts() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        let r0 = ProcessId::Reader(ReaderId(0));
        s.handle(
            r0,
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(5), rnd: 2 }),
            &mut eff,
        );
        // Freeze addressed to an older READ (tsr 4 < stored 5): rejected.
        s.handle(
            ProcessId::Writer,
            pw_msg(
                3,
                pair(3),
                pair(2),
                vec![FrozenUpdate { reader: ReaderId(0), pw: pair(3), tsr: ReadSeq(4) }],
            ),
            &mut eff,
        );
        assert_eq!(s.frozen_for(ReaderId(0)), FrozenSlot::initial());
        // Freeze for the current READ (tsr 5): adopted.
        s.handle(
            ProcessId::Writer,
            pw_msg(
                4,
                pair(4),
                pair(3),
                vec![FrozenUpdate { reader: ReaderId(0), pw: pair(4), tsr: ReadSeq(5) }],
            ),
            &mut eff,
        );
        assert_eq!(s.frozen_for(ReaderId(0)), FrozenSlot { pw: pair(4), tsr: ReadSeq(5) });
    }

    #[test]
    fn frozen_read_stops_being_reported() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        let r0 = ProcessId::Reader(ReaderId(0));
        s.handle(
            r0,
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(5), rnd: 2 }),
            &mut eff,
        );
        s.handle(
            ProcessId::Writer,
            pw_msg(
                4,
                pair(4),
                pair(3),
                vec![FrozenUpdate { reader: ReaderId(0), pw: pair(4), tsr: ReadSeq(5) }],
            ),
            &mut eff,
        );
        drain(&mut eff);
        // Next PW: newread no longer mentions r0 (tsr == frozen.tsr).
        s.handle(ProcessId::Writer, pw_msg(5, pair(5), pair(4), vec![]), &mut eff);
        let sends = drain(&mut eff);
        match &sends[0].1 {
            Message::PwAck(a) => assert!(a.newread.is_empty()),
            other => panic!("expected PwAck, got {other:?}"),
        }
    }

    #[test]
    fn acks_addressed_to_servers_are_ignored() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Writer,
            Message::WriteAck(WriteAckMsg {
                reg: RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(1)),
            }),
            &mut eff,
        );
        assert!(eff.is_empty());
    }

    #[test]
    fn with_state_preloads_registers() {
        let s = AtomicServer::with_state(pair(9), pair(8), pair(7));
        assert_eq!((s.pw(), s.w(), s.vw()), (&pair(9), &pair(8), &pair(7)));
    }

    #[test]
    fn acks_echo_the_request_register() {
        let reg = RegisterId(4);
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::writer(reg),
            Message::Pw(PwMsg {
                reg,
                ts: Seq(1),
                pw: pair(1),
                w: TsVal::initial(),
                frozen: vec![],
            }),
            &mut eff,
        );
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg { reg, tsr: ReadSeq(1), rnd: 1 }),
            &mut eff,
        );
        s.handle(
            ProcessId::writer(reg),
            Message::Write(WriteMsg {
                reg,
                round: 2,
                tag: Tag::Write(Seq(1)),
                c: pair(1),
                frozen: vec![],
            }),
            &mut eff,
        );
        let sends = drain(&mut eff);
        assert_eq!(sends.len(), 3);
        assert!(
            sends.iter().all(|(_, m)| m.register() == Some(reg)),
            "every ack echoes the register"
        );
    }

    #[test]
    fn pw_from_another_registers_writer_is_ignored() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        // The writer of register 2 sends a PW claiming register 1.
        s.handle(
            ProcessId::writer(RegisterId(2)),
            Message::Pw(PwMsg {
                reg: RegisterId(1),
                ts: Seq(1),
                pw: pair(1),
                w: TsVal::initial(),
                frozen: vec![],
            }),
            &mut eff,
        );
        assert_eq!(s.pw(), &TsVal::initial());
        assert!(eff.is_empty());
    }

    #[test]
    fn snapshot_roundtrips_every_field() {
        let mut s = AtomicServer::new();
        let mut eff = Effects::new();
        // Populate all five state components: registers via writes,
        // reader_ts via a round-2 READ, frozen via a PW frozen entry.
        s.handle(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(4)),
                c: pair(4),
                frozen: vec![],
            }),
            &mut eff,
        );
        s.handle(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 3,
                tag: Tag::Write(Seq(4)),
                c: pair(4),
                frozen: vec![],
            }),
            &mut eff,
        );
        s.handle(
            ProcessId::Reader(ReaderId(2)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(7), rnd: 2 }),
            &mut eff,
        );
        s.handle(
            ProcessId::Writer,
            pw_msg(
                5,
                pair(5),
                pair(4),
                vec![FrozenUpdate { reader: ReaderId(2), pw: pair(4), tsr: ReadSeq(7) }],
            ),
            &mut eff,
        );
        let restored = AtomicServer::from_snapshot(&s.to_snapshot()).unwrap();
        assert_eq!(restored, s);

        // A fresh server snapshots and restores too.
        let fresh = AtomicServer::new();
        assert_eq!(AtomicServer::from_snapshot(&fresh.to_snapshot()).unwrap(), fresh);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let mut bytes = AtomicServer::new().to_snapshot();
        bytes.push(0xEE);
        assert!(matches!(
            AtomicServer::from_snapshot(&bytes),
            Err(lucky_wire::DecodeError::TrailingBytes(1))
        ));
        assert!(AtomicServer::from_snapshot(&bytes[..bytes.len() - 2]).is_err());
        assert!(AtomicServer::from_snapshot(&[]).is_err());
    }
}
