//! The regular, malicious-reader-tolerant variant (Appendix D).
//!
//! Obtained from the atomic algorithm by three modifications (App. D.2):
//!
//! 1. the W phase of a slow WRITE takes **one** round instead of two
//!    (so `vw` is never written);
//! 2. the READ never writes back (Fig. 2 lines 21 and 26–28 removed) —
//!    a READ returns as soon as its candidate set is non-empty;
//! 3. servers **ignore** every WB message sent by a reader.
//!
//! What this buys (Proposition 7):
//!
//! * every lucky WRITE is fast despite up to `fw = t − b` failures
//!   (the fast-ack threshold becomes `S − (t−b) = t + 2b + 1`);
//! * every lucky READ is fast despite up to `fr = t` failures;
//! * **malicious readers cannot corrupt the storage**: since servers never
//!   apply reader write-backs, a Byzantine reader cannot plant forged
//!   values for honest readers to return — the attack that breaks the
//!   atomic variant (experiment T7).
//!
//! The price is semantics: without write-backs two sequential READs may
//! see a new value then an old one (new/old inversion), so the storage is
//! **regular**, not atomic.
//!
//! Each modification is one policy setting over the shared
//! [`engine`](crate::engine): `W_ROUNDS = [2]` for the writer,
//! `WRITEBACK_ROUNDS = 0` for the reader and `READER_WRITEBACKS = false`
//! for the server. [`RegularWriter`], [`RegularReader`] and
//! [`RegularServer`] are the engine types over these policies, built by
//! [`writer()`], [`reader()`] and `RegularServer::new`.

mod reader;
mod writer;

pub use reader::{reader, RegularReadPolicy, RegularReader};
pub use writer::{writer, RegularWritePolicy, RegularWriter};

use crate::engine::{Server, ServerPolicy};

/// The regular variant's server switches: the atomic server's `vw`
/// register (never written, since W phases have one round), and readers'
/// `W` messages dropped — no state change, no ack (App. D.2 modification
/// 3). That drop is exactly what makes arbitrarily malicious readers
/// harmless to other readers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct RegularServerPolicy;

impl ServerPolicy for RegularServerPolicy {
    const VW: bool = true;
    const READER_WRITEBACKS: bool = false;
}

/// A correct server of the regular variant.
pub type RegularServer = Server<RegularServerPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::Effects;
    use lucky_types::WriteMsg;
    use lucky_types::{Message, ProcessId, ReadMsg, ReadSeq, ReaderId, Seq, Tag, TsVal, Value};

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    #[test]
    fn reader_writebacks_are_dropped_silently() {
        let mut s = RegularServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Write(WriteMsg {
                reg: lucky_types::RegisterId::DEFAULT,
                round: 3,
                tag: Tag::WriteBack(ReadSeq(1)),
                c: pair(9), // a forged value a malicious reader writes back
                frozen: vec![],
            }),
            &mut eff,
        );
        assert_eq!(s.pw(), &TsVal::initial());
        assert!(eff.is_empty(), "no state change and no ack");
    }

    #[test]
    fn writer_w_rounds_still_apply() {
        let mut s = RegularServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: lucky_types::RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(1)),
                c: pair(1),
                frozen: vec![],
            }),
            &mut eff,
        );
        assert_eq!(s.w(), &pair(1));
        assert_eq!(eff.send_count(), 1);
    }

    #[test]
    fn reads_still_answered() {
        let mut s = RegularServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg {
                reg: lucky_types::RegisterId::DEFAULT,
                tsr: ReadSeq(1),
                rnd: 1,
            }),
            &mut eff,
        );
        assert_eq!(eff.send_count(), 1);
    }

    #[test]
    fn snapshot_roundtrips_through_the_inner_server() {
        let mut s = RegularServer::new();
        let mut eff = Effects::new();
        s.handle(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: lucky_types::RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(3)),
                c: pair(3),
                frozen: vec![],
            }),
            &mut eff,
        );
        let restored = RegularServer::from_snapshot(&s.to_snapshot()).unwrap();
        assert_eq!(restored, s);
    }
}
