//! The regular variant's server: the atomic server minus reader
//! write-backs.

use crate::atomic::AtomicServer;
use lucky_sim::Effects;
use lucky_types::{FrozenSlot, Message, ProcessId, ReadSeq, ReaderId, TsVal};

/// A correct server of the regular variant.
///
/// Delegates everything to the atomic server (Fig. 3) except that
/// `W`/`WB` messages from **readers** are dropped (App. D.2 modification
/// 3) — which is exactly what makes arbitrarily malicious readers
/// harmless to other readers.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RegularServer {
    inner: AtomicServer,
}

impl RegularServer {
    /// A server in its initial state.
    pub fn new() -> RegularServer {
        RegularServer { inner: AtomicServer::new() }
    }

    /// Current `pw` register.
    pub fn pw(&self) -> &TsVal {
        self.inner.pw()
    }

    /// Current `w` register.
    pub fn w(&self) -> &TsVal {
        self.inner.w()
    }

    /// The frozen slot for `reader`.
    pub fn frozen_for(&self, reader: ReaderId) -> FrozenSlot {
        self.inner.frozen_for(reader)
    }

    /// The stored READ timestamp for `reader`.
    pub fn reader_ts_for(&self, reader: ReaderId) -> ReadSeq {
        self.inner.reader_ts_for(reader)
    }

    /// Serialize the complete server state for a durable backend —
    /// byte-for-byte the inner atomic server's snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        self.inner.to_snapshot()
    }

    /// Rebuild a server from a [`RegularServer::to_snapshot`] image.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`](lucky_wire::DecodeError) on any malformed
    /// snapshot — callers fall back to a fresh server.
    pub fn from_snapshot(bytes: &[u8]) -> Result<RegularServer, lucky_wire::DecodeError> {
        Ok(RegularServer { inner: AtomicServer::from_snapshot(bytes)? })
    }

    /// Handle one client message. A [`Message::Batch`] is unwrapped and
    /// its parts handled in order, so the write-back filter below applies
    /// to every part individually.
    pub fn handle(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        if matches!(msg, Message::Batch(_)) {
            // Flatten iteratively so hostile nesting cannot recurse.
            for part in msg.flatten() {
                self.handle(from, part, eff);
            }
            return;
        }
        // Modification 3: reader write-backs are ignored entirely — no
        // state change, no ack. Only the targeted register's writer may
        // run W rounds.
        if let Message::Write(w_msg) = &msg {
            if !from.is_writer_of(w_msg.reg) {
                return;
            }
        }
        self.inner.handle(from, msg, eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{ReadMsg, Seq, Tag, Value, WriteMsg};

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
