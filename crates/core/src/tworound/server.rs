//! The two-round variant's server automaton (Fig. 8).

use lucky_sim::Effects;
use lucky_types::{
    FrozenSlot, Message, NewRead, ProcessId, PwAckMsg, ReadAckMsg, ReadSeq, ReaderId, TsVal,
    WriteAckMsg,
};
use std::collections::BTreeMap;

/// A correct server of the two-round algorithm.
///
/// Differences from the atomic server (Fig. 3): there is no `vw` register,
/// PW messages carry no frozen entries, and frozen entries arrive on the
/// **W** message of the writer instead (Fig. 8 lines 13–14). Reader
/// write-backs never carry frozen entries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TwoRoundServer {
    pw: TsVal,
    w: TsVal,
    reader_ts: BTreeMap<ReaderId, ReadSeq>,
    frozen: BTreeMap<ReaderId, FrozenSlot>,
}

impl TwoRoundServer {
    /// A server in its initial state.
    pub fn new() -> TwoRoundServer {
        TwoRoundServer {
            pw: TsVal::initial(),
            w: TsVal::initial(),
            reader_ts: BTreeMap::new(),
            frozen: BTreeMap::new(),
        }
    }

    /// Current `pw` register.
    pub fn pw(&self) -> &TsVal {
        &self.pw
    }

    /// Current `w` register.
    pub fn w(&self) -> &TsVal {
        &self.w
    }

    /// The frozen slot for `reader` (initial if none).
    pub fn frozen_for(&self, reader: ReaderId) -> FrozenSlot {
        self.frozen.get(&reader).cloned().unwrap_or_default()
    }

    /// The stored READ timestamp for `reader`.
    pub fn reader_ts_for(&self, reader: ReaderId) -> ReadSeq {
        self.reader_ts.get(&reader).copied().unwrap_or(ReadSeq::INITIAL)
    }

    /// Serialize the complete server state for a durable backend.
    /// [`TwoRoundServer::from_snapshot`] inverts it exactly.
    pub fn to_snapshot(&self) -> Vec<u8> {
        use lucky_wire::Encode;
        let mut w = lucky_wire::Writer::new();
        self.pw.encode(&mut w);
        self.w.encode(&mut w);
        w.varint(self.reader_ts.len() as u64);
        for (reader, tsr) in &self.reader_ts {
            reader.encode(&mut w);
            tsr.encode(&mut w);
        }
        w.varint(self.frozen.len() as u64);
        for (reader, slot) in &self.frozen {
            reader.encode(&mut w);
            slot.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Rebuild a server from a [`TwoRoundServer::to_snapshot`] image —
    /// the recovery path after a crash-restart.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`](lucky_wire::DecodeError) on any malformed
    /// snapshot — callers fall back to a fresh server.
    pub fn from_snapshot(bytes: &[u8]) -> Result<TwoRoundServer, lucky_wire::DecodeError> {
        use lucky_wire::Decode;
        let mut r = lucky_wire::Reader::new(bytes);
        let (pw, w) = (TsVal::decode(&mut r)?, TsVal::decode(&mut r)?);
        let mut reader_ts = BTreeMap::new();
        for _ in 0..r.list_len(2)? {
            let reader = ReaderId::decode(&mut r)?;
            reader_ts.insert(reader, ReadSeq::decode(&mut r)?);
        }
        let mut frozen = BTreeMap::new();
        for _ in 0..r.list_len(3)? {
            let reader = ReaderId::decode(&mut r)?;
            frozen.insert(reader, FrozenSlot::decode(&mut r)?);
        }
        if r.remaining() > 0 {
            return Err(lucky_wire::DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(TwoRoundServer { pw, w, reader_ts, frozen })
    }

    /// Handle one client message, replying immediately. A
    /// [`Message::Batch`] is unwrapped and its parts handled in order,
    /// each exactly as if it had arrived alone.
    pub fn handle(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        match msg {
            Message::Batch(parts) => {
                // Flatten iteratively so hostile nesting cannot recurse.
                for part in Message::Batch(parts).flatten() {
                    self.handle(from, part, eff);
                }
            }
            // Fig. 8 lines 3–6: no frozen processing here.
            Message::Pw(pw_msg) => {
                if !from.is_writer_of(pw_msg.reg) {
                    return;
                }
                update(&mut self.pw, &pw_msg.pw);
                update(&mut self.w, &pw_msg.w);
                let newread: Vec<NewRead> = self
                    .reader_ts
                    .iter()
                    .filter(|(r, tsr)| {
                        **tsr > self.frozen.get(r).map(|f| f.tsr).unwrap_or(ReadSeq::INITIAL)
                    })
                    .map(|(r, tsr)| NewRead { reader: *r, tsr: *tsr })
                    .collect();
                eff.send(
                    from,
                    Message::PwAck(PwAckMsg { reg: pw_msg.reg, ts: pw_msg.ts, newread }),
                );
            }

            // Fig. 8 lines 7–9.
            Message::Read(read_msg) => {
                let Some(reader) = from.as_reader() else {
                    return;
                };
                if read_msg.rnd > 1 && read_msg.tsr > self.reader_ts_for(reader) {
                    self.reader_ts.insert(reader, read_msg.tsr);
                }
                eff.send(
                    from,
                    Message::ReadAck(ReadAckMsg {
                        reg: read_msg.reg,
                        tsr: read_msg.tsr,
                        rnd: read_msg.rnd,
                        pw: self.pw.clone(),
                        w: self.w.clone(),
                        vw: None, // no vw register in this variant
                        frozen: self.frozen_for(reader),
                    }),
                );
            }

            // Fig. 8 lines 10–15: frozen entries only from the writer.
            Message::Write(w_msg) => {
                if !from.is_client() {
                    return;
                }
                update(&mut self.pw, &w_msg.c);
                if w_msg.round > 1 {
                    update(&mut self.w, &w_msg.c);
                }
                if from.is_writer_of(w_msg.reg) {
                    for fu in &w_msg.frozen {
                        if fu.tsr >= self.reader_ts_for(fu.reader) {
                            self.frozen
                                .insert(fu.reader, FrozenSlot { pw: fu.pw.clone(), tsr: fu.tsr });
                        }
                    }
                }
                eff.send(
                    from,
                    Message::WriteAck(WriteAckMsg {
                        reg: w_msg.reg,
                        round: w_msg.round,
                        tag: w_msg.tag,
                    }),
                );
            }

            Message::PwAck(_) | Message::WriteAck(_) | Message::ReadAck(_) => {}
        }
    }
}

impl Default for TwoRoundServer {
    fn default() -> Self {
        TwoRoundServer::new()
    }
}

/// `update()` (Fig. 8 line 16).
fn update(local: &mut TsVal, new: &TsVal) {
    if new.ts > local.ts {
        *local = new.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{FrozenUpdate, PwMsg, ReadMsg, RegisterId, Seq, Tag, Value, WriteMsg};

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
