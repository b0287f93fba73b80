//! The ABD SWMR atomic register (Attiya, Bar-Noy and Dolev, JACM 1995;
//! \[2\] in the paper), as a fourth policy over the round engine.
//!
//! Crash-only (`b = 0`), `S = 2t + 1` servers, majority quorums:
//!
//! * `WRITE(v)`: bump the timestamp, store `⟨ts, v⟩` at a majority —
//!   **one** round;
//! * `READ()`: query a majority, pick the highest pair, write it back to
//!   a majority, return — **two** rounds, unconditionally.
//!
//! The write-back is what makes ABD atomic rather than merely regular,
//! and it is precisely the cost the lucky protocol's fast reads avoid in
//! the common case: this is the "reads always pay two round-trips"
//! baseline the paper's introduction (§1) argues against.
//!
//! Nothing here loops or counts. The writer is a [`WritePolicy`] whose
//! fast path is the majority itself and which arms no timer; the reader is
//! a [`ReadPolicy`] with one write-back round and no round-1 timer, whose
//! `b = 0` thresholds make the candidate set's maximum ABD's
//! highest-timestamp pair; the server keeps one pair and answers the
//! engine's `PW`, `READ` and write-back messages. So ABD runs wherever the
//! other variants run — the simulator and every `lucky-net` driver — with
//! codec-exact byte counts.

use crate::config::ProtocolConfig;
use crate::engine::{ReadEngine, ReadPolicy, WriteEngine, WritePolicy};
use crate::predicates::Thresholds;
use crate::runtime::ServerCore;
use crate::view::ViewTable;
use lucky_sim::Effects;
use lucky_types::{
    FrozenSlot, Message, ProcessId, PwAckMsg, ReadAckMsg, RegisterId, TsVal, WriteAckMsg,
};

/// ABD's WRITE: one round, complete on a majority of acks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AbdWritePolicy {
    servers: usize,
}

impl WritePolicy for AbdWritePolicy {
    const PW_TIMER: bool = false;
    /// Never run: the fast path below is taken on every quorum.
    const W_ROUNDS: &'static [u8] = &[];
    const FROZEN_ON_W: bool = false;

    fn quorum(&self) -> usize {
        self.servers / 2 + 1
    }

    fn server_count(&self) -> usize {
        self.servers
    }

    fn b(&self) -> usize {
        0
    }

    fn fast_write_acks(&self) -> Option<usize> {
        // The majority that settles the phase also completes it.
        Some(self.quorum())
    }

    fn freezing(&self) -> bool {
        false
    }
}

/// ABD's READ: a majority query, then one write-back round.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AbdReadPolicy {
    servers: usize,
    thresholds: Thresholds,
}

impl ReadPolicy for AbdReadPolicy {
    const WRITEBACK_ROUNDS: u8 = 1;
    const ROUND_ONE_TIMER: bool = false;

    fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    fn quorum(&self) -> usize {
        self.servers / 2 + 1
    }

    fn server_count(&self) -> usize {
        self.servers
    }

    fn round_one_fast(&self, _views: &ViewTable, _c: &TsVal) -> bool {
        false // ABD always writes back
    }
}

/// The `b = 0` thresholds: one report makes a pair safe (no server
/// lies), a majority refutes one, and no pair is ever fast. With a single
/// correct writer no two reported pairs share a timestamp, so the
/// highest pair a majority reports is always a candidate and `csel` —
/// the candidate set's maximum — is exactly ABD's choice.
fn thresholds(servers: usize) -> Thresholds {
    let majority = servers / 2 + 1;
    Thresholds {
        safe: 1,
        fastpw: servers + 1,
        fastvw: servers + 1,
        fast_w: servers + 1,
        invalidw: majority,
        invalidpw: majority,
    }
}

/// The ABD writer: the shared [`WriteEngine`] over [`AbdWritePolicy`].
pub type AbdWriter = WriteEngine<AbdWritePolicy>;

/// A fresh writer of register `reg` over `S = 2t + 1` servers.
pub fn writer(reg: RegisterId, t: usize) -> AbdWriter {
    // No PW timer, so its length is never read.
    WriteEngine::for_register(reg, AbdWritePolicy { servers: 2 * t + 1 }, 0)
}

/// An ABD reader: the shared [`ReadEngine`] over [`AbdReadPolicy`].
pub type AbdReader = ReadEngine<AbdReadPolicy>;

/// A fresh reader of register `reg` over `S = 2t + 1` servers. Only
/// `cfg.max_read_rounds` applies: ABD has no timer and no fast path.
pub fn reader(reg: RegisterId, t: usize, cfg: ProtocolConfig) -> AbdReader {
    let servers = 2 * t + 1;
    ReadEngine::for_register(reg, AbdReadPolicy { servers, thresholds: thresholds(servers) }, cfg)
}

/// An ABD server: one register cell, highest timestamp wins.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AbdServer {
    stored: TsVal,
}

impl AbdServer {
    /// Rebuild a server from a [`ServerCore::snapshot`] image.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`](lucky_wire::DecodeError) on any malformed
    /// snapshot — callers fall back to a fresh server.
    pub fn from_snapshot(bytes: &[u8]) -> Result<AbdServer, lucky_wire::DecodeError> {
        use lucky_wire::Decode;
        let mut r = lucky_wire::Reader::new(bytes);
        let stored = TsVal::decode(&mut r)?;
        if r.remaining() > 0 {
            return Err(lucky_wire::DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(AbdServer { stored })
    }

    fn store(&mut self, pair: TsVal) {
        if pair.ts > self.stored.ts {
            self.stored = pair;
        }
    }
}

impl ServerCore for AbdServer {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        match msg {
            Message::Batch(_) => {
                for part in msg.flatten() {
                    self.deliver(from, part, eff);
                }
            }
            // The writer's store round.
            Message::Pw(m) if from.is_writer_of(m.reg) => {
                self.store(m.pw);
                eff.send(from, Message::PwAck(PwAckMsg { reg: m.reg, ts: m.ts, newread: vec![] }));
            }
            // The query. The one pair rides in `pw`; `w` stays initial so
            // an ack carries one value, as ABD's does.
            Message::Read(m) if from.as_reader().is_some() => {
                let ack = ReadAckMsg {
                    reg: m.reg,
                    tsr: m.tsr,
                    rnd: m.rnd,
                    pw: self.stored.clone(),
                    w: TsVal::initial(),
                    vw: None,
                    frozen: FrozenSlot::initial(),
                };
                eff.send(from, Message::ReadAck(ack));
            }
            // A reader's write-back.
            Message::Write(m) if from.is_client() => {
                self.store(m.c);
                let ack = WriteAckMsg { reg: m.reg, round: m.round, tag: m.tag };
                eff.send(from, Message::WriteAck(ack));
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        use lucky_wire::Encode;
        let mut w = lucky_wire::Writer::new();
        self.stored.encode(&mut w);
        Some(w.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{PwMsg, Seq, Value};

    #[test]
    fn empty_register_reads_bot_and_t_plus_one_crashes_stall() {
        use crate::{Setup, StoreConfig};
        let mut store = StoreConfig::synchronous(Setup::Abd { t: 1 }).build_sim();
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert!(r.value.is_bot(), "the initial pair is the highest a majority reports");
        assert_eq!(r.rounds, 2);
        store.crash_server(0);
        store.crash_server(1);
        let op = store.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(1));
        assert!(store.run_until_complete(op).is_err(), "no majority, no WRITE");
        store.check_atomicity().unwrap();
    }

    #[test]
    fn snapshot_round_trips_and_rejects_trailing_bytes() {
        let mut s = AbdServer::default();
        let pw = PwMsg {
            reg: RegisterId::DEFAULT,
            ts: Seq(3),
            pw: TsVal::new(Seq(3), Value::from_u64(3)),
            w: TsVal::initial(),
            frozen: vec![],
        };
        s.deliver(ProcessId::Writer, Message::Pw(pw), &mut Effects::new());
        assert_eq!(s.stored.ts, Seq(3), "the writer's pair is stored");
        let snap = s.snapshot().unwrap();
        assert_eq!(AbdServer::from_snapshot(&snap).unwrap(), s);
        let mut long = snap;
        long.push(0);
        assert!(AbdServer::from_snapshot(&long).is_err());
    }
}
