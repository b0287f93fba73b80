//! The server automaton (Fig. 3).

use lucky_sim::Effects;
use lucky_types::{
    FrozenSlot, Message, NewRead, ProcessId, PwAckMsg, ReadAckMsg, ReadSeq, ReaderId, TsVal,
    WriteAckMsg,
};
use std::collections::BTreeMap;

/// A correct server of the atomic algorithm.
///
/// State (Fig. 3 lines 1–2): the three register copies `pw`, `w`, `vw`,
/// plus per-reader `tsr_j` (highest READ timestamp seen from a round ≥ 2
/// message) and `frozen_rj` slots. Servers are purely reactive: they reply
/// to every client message immediately, never contact each other, and
/// never send unsolicited messages — the *data-centric* model the paper's
/// fast-operation definition (§2.4) relies on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AtomicServer {
    pw: TsVal,
    w: TsVal,
    vw: TsVal,
    reader_ts: BTreeMap<ReaderId, ReadSeq>,
    frozen: BTreeMap<ReaderId, FrozenSlot>,
}

impl AtomicServer {
    /// A server in its initial state.
    pub fn new() -> AtomicServer {
        AtomicServer {
            pw: TsVal::initial(),
            w: TsVal::initial(),
            vw: TsVal::initial(),
            reader_ts: BTreeMap::new(),
            frozen: BTreeMap::new(),
        }
    }

    /// A server whose registers are pre-loaded — the building block of the
    /// `ForgeState` Byzantine behaviour (a malicious server "forges its
    /// state to σ1" in run r5 of the Proposition 2 proof).
    pub fn with_state(pw: TsVal, w: TsVal, vw: TsVal) -> AtomicServer {
        AtomicServer { pw, w, vw, ..AtomicServer::new() }
    }

    /// Current `pw` register (for tests and assertions).
    pub fn pw(&self) -> &TsVal {
        &self.pw
    }

    /// Current `w` register.
    pub fn w(&self) -> &TsVal {
        &self.w
    }

    /// Current `vw` register.
    pub fn vw(&self) -> &TsVal {
        &self.vw
    }

    /// The frozen slot for `reader` (initial if none).
    pub fn frozen_for(&self, reader: ReaderId) -> FrozenSlot {
        self.frozen.get(&reader).cloned().unwrap_or_default()
    }

    /// The stored READ timestamp for `reader`.
    pub fn reader_ts_for(&self, reader: ReaderId) -> ReadSeq {
        self.reader_ts.get(&reader).copied().unwrap_or(ReadSeq::INITIAL)
    }

    /// Serialize the complete server state — registers *and* view
    /// tables — for a durable backend. [`AtomicServer::from_snapshot`]
    /// inverts it exactly.
    pub fn to_snapshot(&self) -> Vec<u8> {
        use lucky_wire::Encode;
        let mut w = lucky_wire::Writer::new();
        self.pw.encode(&mut w);
        self.w.encode(&mut w);
        self.vw.encode(&mut w);
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

    /// Rebuild a server from a [`AtomicServer::to_snapshot`] image —
    /// the recovery path after a crash-restart.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`](lucky_wire::DecodeError) on any malformed
    /// snapshot (e.g. a torn log record that slipped past framing —
    /// callers fall back to a fresh server).
    pub fn from_snapshot(bytes: &[u8]) -> Result<AtomicServer, lucky_wire::DecodeError> {
        use lucky_wire::Decode;
        let mut r = lucky_wire::Reader::new(bytes);
        let (pw, w, vw) = (TsVal::decode(&mut r)?, TsVal::decode(&mut r)?, TsVal::decode(&mut r)?);
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
        Ok(AtomicServer { pw, w, vw, reader_ts, frozen })
    }

    /// Handle one client message, replying immediately (the definition of
    /// a *fast*-compatible server, §2.4 point 2). A [`Message::Batch`] is
    /// unwrapped and its parts handled in order, each exactly as if it
    /// had arrived alone.
    pub fn handle(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        match msg {
            Message::Batch(parts) => {
                // Flatten iteratively so hostile nesting cannot recurse.
                for part in Message::Batch(parts).flatten() {
                    self.handle(from, part, eff);
                }
            }
            // Fig. 3 lines 3–8.
            Message::Pw(pw_msg) => {
                // Only this register's writer legitimately sends PW
                // messages; a Byzantine *client* impersonating the writer
                // is outside the model (writers are correct or
                // crash-faulty).
                if !from.is_writer_of(pw_msg.reg) {
                    return;
                }
                update(&mut self.pw, &pw_msg.pw);
                update(&mut self.w, &pw_msg.w);
                // Line 5–6: adopt frozen entries addressed to a READ at
                // least as recent as the one we know about.
                for fu in &pw_msg.frozen {
                    if fu.tsr >= self.reader_ts_for(fu.reader) {
                        self.frozen
                            .insert(fu.reader, FrozenSlot { pw: fu.pw.clone(), tsr: fu.tsr });
                    }
                }
                // Line 7: report readers whose current READ has not been
                // frozen yet.
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

            // Fig. 3 lines 9–11.
            Message::Read(read_msg) => {
                let Some(reader) = from.as_reader() else {
                    return;
                };
                // Line 10: remember the READ timestamp, but only from
                // round ≥ 2 (a fast READ leaves no trace).
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
                        vw: Some(self.vw.clone()),
                        frozen: self.frozen_for(reader),
                    }),
                );
            }

            // Fig. 3 lines 12–16 — W-phase rounds from the writer and
            // write-back rounds from readers are handled identically.
            Message::Write(w_msg) => {
                if !from.is_client() {
                    return;
                }
                update(&mut self.pw, &w_msg.c);
                if w_msg.round > 1 {
                    update(&mut self.w, &w_msg.c);
                }
                if w_msg.round > 2 {
                    update(&mut self.vw, &w_msg.c);
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

            // Servers never receive acks.
            Message::PwAck(_) | Message::WriteAck(_) | Message::ReadAck(_) => {}
        }
    }
}

impl Default for AtomicServer {
    fn default() -> Self {
        AtomicServer::new()
    }
}

/// `update(localtsval, tsval)` (Fig. 3 line 17): adopt strictly newer
/// pairs only — timestamps at non-malicious servers never decrease
/// (Lemma 3).
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
