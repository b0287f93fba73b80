//! The two-round-write algorithm (Appendix C, Figs 6–8).
//!
//! Trades one extra server per unit of `min(b, fr)` for a **two-round
//! worst-case WRITE**: over `S = 2t + b + min(b, fr) + 1` servers,
//!
//! * every WRITE completes in exactly two communication round-trips
//!   (PW round + W round, no timer, no fast path — Fig. 6);
//! * every lucky READ is fast despite up to `fr` server failures, using
//!   the `fast(c) ::= |{i : w_i = c}| ≥ S − t − fr` predicate
//!   (Fig. 7 line 5);
//! * slow READs write back in **two** rounds (Fig. 7 lines 24–26).
//!
//! Proposition 5 shows the server count is tight: with one server fewer no
//! such algorithm exists (experiment T6 reconstructs the Fig. 5 runs).
//! Differences from the atomic variant worth auditing: the `frozen` set
//! rides the **W** message instead of the PW message (Fig. 6 line 9) —
//! the writer policy's choice; the shared server adopts it from either —
//! and servers keep no `vw` register (the pseudocode's `vw` is vestigial —
//! see DESIGN.md §4.5).
//!
//! This module is the variant's policies only: [`TwoRoundWriter`],
//! [`TwoRoundReader`] and [`TwoRoundServer`] are the
//! [`engine`](crate::engine) types over them, built by [`writer()`],
//! [`reader()`] and `TwoRoundServer::new`.

mod reader;
mod writer;

pub use reader::{reader, TwoRoundReadPolicy, TwoRoundReader};
pub use writer::{writer, TwoRoundWritePolicy, TwoRoundWriter};

use crate::engine::{Server, ServerPolicy};

/// The two-round variant's server switches (Fig. 8): no `vw` register —
/// READ acks carry `vw = None` and snapshots omit it — and readers'
/// write-backs applied like the writer's W round.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TwoRoundServerPolicy;

impl ServerPolicy for TwoRoundServerPolicy {
    const VW: bool = false;
    const READER_WRITEBACKS: bool = true;
}

/// A correct server of the two-round algorithm (Fig. 8).
pub type TwoRoundServer = Server<TwoRoundServerPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::Effects;
    use lucky_types::{
        FrozenSlot, FrozenUpdate, Message, NewRead, ProcessId, PwMsg, ReadMsg, ReadSeq, ReaderId,
        RegisterId, Seq, Tag, TsVal, Value, WriteMsg,
    };

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn drain(eff: &mut Effects) -> Vec<(ProcessId, Message)> {
        std::mem::take(eff).into_parts().0
    }

    #[test]
    fn read_acks_have_no_vw() {
        let mut s = TwoRoundServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 }),
            &mut eff,
        );
        let sends = drain(&mut eff);
        match &sends[0].1 {
            Message::ReadAck(a) => assert_eq!(a.vw, None),
            other => panic!("expected ReadAck, got {other:?}"),
        }
    }

    #[test]
    fn frozen_entries_ride_the_w_message() {
        let mut s = TwoRoundServer::new();
        let mut eff = Effects::new();
        // Slow READ registers tsr = 4.
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(4), rnd: 2 }),
            &mut eff,
        );
        // Frozen entry arrives on the writer's W round.
        s.handle(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(3)),
                c: pair(3),
                frozen: vec![FrozenUpdate { reader: ReaderId(0), pw: pair(3), tsr: ReadSeq(4) }],
            }),
            &mut eff,
        );
        assert_eq!(s.frozen_for(ReaderId(0)), FrozenSlot { pw: pair(3), tsr: ReadSeq(4) });
        assert_eq!(s.w(), &pair(3));
    }

    #[test]
    fn frozen_entries_from_readers_are_ignored() {
        let mut s = TwoRoundServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(1)),
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 2,
                tag: Tag::WriteBack(ReadSeq(1)),
                c: pair(3),
                frozen: vec![FrozenUpdate { reader: ReaderId(0), pw: pair(9), tsr: ReadSeq(9) }],
            }),
            &mut eff,
        );
        // The write-back itself applies, the frozen forgery does not.
        assert_eq!(s.w(), &pair(3));
        assert_eq!(s.frozen_for(ReaderId(0)), FrozenSlot::initial());
    }

    #[test]
    fn pw_reports_newread_like_the_atomic_variant() {
        let mut s = TwoRoundServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(2), rnd: 3 }),
            &mut eff,
        );
        drain(&mut eff);
        s.handle(
            ProcessId::Writer,
            Message::Pw(PwMsg {
                reg: RegisterId::DEFAULT,
                ts: Seq(1),
                pw: pair(1),
                w: TsVal::initial(),
                frozen: vec![],
            }),
            &mut eff,
        );
        let sends = drain(&mut eff);
        match &sends[0].1 {
            Message::PwAck(a) => {
                assert_eq!(a.newread, vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(2) }]);
            }
            other => panic!("expected PwAck, got {other:?}"),
        }
    }

    #[test]
    fn registers_never_regress() {
        let mut s = TwoRoundServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Writer,
            Message::Pw(PwMsg {
                reg: RegisterId::DEFAULT,
                ts: Seq(5),
                pw: pair(5),
                w: pair(4),
                frozen: vec![],
            }),
            &mut eff,
        );
        s.handle(
            ProcessId::Writer,
            Message::Pw(PwMsg {
                reg: RegisterId::DEFAULT,
                ts: Seq(2),
                pw: pair(2),
                w: pair(1),
                frozen: vec![],
            }),
            &mut eff,
        );
        assert_eq!((s.pw(), s.w()), (&pair(5), &pair(4)));
    }

    #[test]
    fn snapshot_roundtrips_every_field() {
        let mut s = TwoRoundServer::new();
        let mut eff = Effects::new();
        // Registers + frozen from a writer W with a frozen entry;
        // reader_ts from a round-2 READ.
        s.handle(
            ProcessId::Reader(ReaderId(1)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(3), rnd: 2 }),
            &mut eff,
        );
        s.handle(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(2)),
                c: pair(2),
                frozen: vec![FrozenUpdate { reader: ReaderId(1), pw: pair(1), tsr: ReadSeq(3) }],
            }),
            &mut eff,
        );
        let restored = TwoRoundServer::from_snapshot(&s.to_snapshot()).unwrap();
        assert_eq!(restored, s);
        assert!(TwoRoundServer::from_snapshot(&[0xFF]).is_err());
    }
}
