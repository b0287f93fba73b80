//! The server automaton shared by every variant (Fig. 3, Fig. 8, App. D.2).

use lucky_sim::Effects;
use lucky_types::{
    FrozenSlot, FrozenUpdate, Message, NewRead, ProcessId, PwAckMsg, ReadAckMsg, ReadSeq, ReaderId,
    TsVal, WriteAckMsg,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// What a protocol variant contributes to the server: whether it keeps
/// the `vw` register, and whether it applies readers' write-backs.
/// Everything else — the `update()` rule, `tsr_j` tracking, `newread`
/// reports, frozen-slot adoption and the snapshot codec — lives in
/// [`Server`].
///
/// Which writer message carries the frozen set is the writer's choice
/// ([`WritePolicy::FROZEN_ON_W`](crate::engine::WritePolicy::FROZEN_ON_W));
/// the server adopts frozen entries from either, so no constant here
/// repeats it.
pub trait ServerPolicy {
    /// Keep a `vw` register (Fig. 3)? Without one (Fig. 8) a READ ack's
    /// `vw` is `None` and the snapshot omits it.
    const VW: bool;

    /// Apply `W` messages from readers (Fig. 2's write-back)? Without
    /// (App. D.2 modification 3) only the register's writer may run `W`
    /// rounds; anything else is dropped with no state change and no ack.
    const READER_WRITEBACKS: bool;
}

/// A correct server: the register copies `pw`, `w` and (with
/// [`ServerPolicy::VW`]) `vw`, plus per-reader `tsr_j` (the highest READ
/// timestamp seen in a round ≥ 2 message) and `frozen_rj` slots (Fig. 3
/// lines 1–2). Servers are purely reactive: they reply to every client
/// message immediately, never contact each other, and never send
/// unsolicited messages — the *data-centric* model the paper's
/// fast-operation definition (§2.4) relies on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Server<P> {
    pw: TsVal,
    w: TsVal,
    /// Stays initial when the policy keeps no `vw`.
    vw: TsVal,
    reader_ts: BTreeMap<ReaderId, ReadSeq>,
    frozen: BTreeMap<ReaderId, FrozenSlot>,
    policy: PhantomData<P>,
}

impl<P: ServerPolicy> Server<P> {
    /// A server in its initial state.
    pub fn new() -> Server<P> {
        Server::with_state(TsVal::initial(), TsVal::initial(), TsVal::initial())
    }

    /// A server whose registers are pre-loaded — the building block of the
    /// `ForgeState` Byzantine behaviour (a malicious server "forges its
    /// state to σ1" in run r5 of the Proposition 2 proof).
    pub fn with_state(pw: TsVal, w: TsVal, vw: TsVal) -> Server<P> {
        let vw = if P::VW { vw } else { TsVal::initial() };
        let (reader_ts, frozen) = (BTreeMap::new(), BTreeMap::new());
        Server { pw, w, vw, reader_ts, frozen, policy: PhantomData }
    }

    /// Current `pw` register (for tests and assertions).
    pub fn pw(&self) -> &TsVal {
        &self.pw
    }

    /// Current `w` register.
    pub fn w(&self) -> &TsVal {
        &self.w
    }

    /// Current `vw` register (initial when the policy keeps none).
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
    /// tables — for a durable backend. [`Server::from_snapshot`] inverts
    /// it exactly.
    pub fn to_snapshot(&self) -> Vec<u8> {
        use lucky_wire::Encode;
        let mut w = lucky_wire::Writer::new();
        self.pw.encode(&mut w);
        self.w.encode(&mut w);
        if P::VW {
            self.vw.encode(&mut w);
        }
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

    /// Rebuild a server from a [`Server::to_snapshot`] image — the
    /// recovery path after a crash-restart.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`](lucky_wire::DecodeError) on any malformed
    /// snapshot (e.g. a torn log record that slipped past framing —
    /// callers fall back to a fresh server).
    pub fn from_snapshot(bytes: &[u8]) -> Result<Server<P>, lucky_wire::DecodeError> {
        use lucky_wire::Decode;
        let mut r = lucky_wire::Reader::new(bytes);
        let (pw, w) = (TsVal::decode(&mut r)?, TsVal::decode(&mut r)?);
        let vw = if P::VW { TsVal::decode(&mut r)? } else { TsVal::initial() };
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
        Ok(Server { pw, w, vw, reader_ts, frozen, policy: PhantomData })
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
            // Fig. 3 lines 3–8 / Fig. 8 lines 3–6.
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
                self.adopt_frozen(&pw_msg.frozen);
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

            // Fig. 3 lines 9–11 / Fig. 8 lines 7–9.
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
                        vw: P::VW.then(|| self.vw.clone()),
                        frozen: self.frozen_for(reader),
                    }),
                );
            }

            // Fig. 3 lines 12–16 / Fig. 8 lines 10–15 — W-phase rounds
            // from the writer and write-back rounds from readers are
            // handled identically, where the policy accepts the latter.
            Message::Write(w_msg) => {
                let from_writer = from.is_writer_of(w_msg.reg);
                let accepted = if P::READER_WRITEBACKS { from.is_client() } else { from_writer };
                if !accepted {
                    return;
                }
                update(&mut self.pw, &w_msg.c);
                if w_msg.round > 1 {
                    update(&mut self.w, &w_msg.c);
                }
                if P::VW && w_msg.round > 2 {
                    update(&mut self.vw, &w_msg.c);
                }
                if from_writer {
                    self.adopt_frozen(&w_msg.frozen);
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

    /// Fig. 3 lines 5–6 / Fig. 8 lines 13–14: adopt the writer's frozen
    /// entries addressed to a READ at least as recent as the one we know
    /// about.
    fn adopt_frozen(&mut self, entries: &[FrozenUpdate]) {
        for fu in entries {
            if fu.tsr >= self.reader_ts_for(fu.reader) {
                self.frozen.insert(fu.reader, FrozenSlot { pw: fu.pw.clone(), tsr: fu.tsr });
            }
        }
    }
}

impl<P: ServerPolicy> Default for Server<P> {
    fn default() -> Self {
        Server::new()
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
