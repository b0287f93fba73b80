//! [`Setup`] — which protocol variant a store runs, and the factories
//! that build its processes.

use crate::config::ProtocolConfig;
use crate::runtime::adapters::{ClientCore, ServerCore};
use crate::runtime::mux::RegisterMux;
use crate::runtime::session::{ClientSession, SessionConfig};
use crate::{abd, atomic, regular, tworound};
use lucky_log::{DurableBackend, LogCounters, ServerBackend};
use lucky_types::{BatchConfig, Params, ReaderId, RegisterId, TwoRoundParams};
use std::path::PathBuf;
use std::sync::Arc;

/// Which protocol instance a store runs, with its parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Setup {
    /// The atomic algorithm (§3) with `Params` thresholds.
    Atomic(Params),
    /// The two-round algorithm (App. C).
    TwoRound(TwoRoundParams),
    /// The regular variant (App. D); use [`Params::trading_reads`].
    Regular(Params),
    /// The crash-only ABD register ([`abd`]) over `S = 2t + 1` servers —
    /// the paper's comparison baseline (§1).
    Abd {
        /// Crash failures tolerated.
        t: usize,
    },
}

impl Setup {
    /// Number of servers this setup deploys.
    pub fn server_count(&self) -> usize {
        match self {
            Setup::Atomic(p) | Setup::Regular(p) => p.server_count(),
            Setup::TwoRound(p) => p.server_count(),
            Setup::Abd { t } => 2 * t + 1,
        }
    }

    // The factories below are the single place a variant name maps to
    // concrete protocol cores. Every runtime — the simulator's `SimStore`
    // and the threaded `NetStore` in `lucky-net` — builds its processes
    // through them, so adding a variant (or swapping a policy) lands in
    // one match arm per role.

    /// Build this variant's writer core for register `reg`.
    pub fn make_writer(&self, reg: RegisterId, protocol: ProtocolConfig) -> Box<dyn ClientCore> {
        match *self {
            Setup::Atomic(p) => Box::new(atomic::writer(reg, p, protocol)),
            Setup::TwoRound(p) => Box::new(tworound::writer(reg, p)),
            Setup::Regular(p) => Box::new(regular::writer(reg, p, protocol)),
            Setup::Abd { t } => Box::new(abd::writer(reg, t)),
        }
    }

    /// Build this variant's reader core reading register `reg`. The
    /// reader's identity is its session's [`ProcessId`]; the core never
    /// needs it.
    ///
    /// [`ProcessId`]: lucky_types::ProcessId
    pub fn make_reader(&self, reg: RegisterId, protocol: ProtocolConfig) -> Box<dyn ClientCore> {
        match *self {
            Setup::Atomic(p) => Box::new(atomic::reader(reg, p, protocol)),
            Setup::TwoRound(p) => Box::new(tworound::reader(reg, p, protocol)),
            Setup::Regular(p) => Box::new(regular::reader(reg, p, protocol)),
            Setup::Abd { t } => Box::new(abd::reader(reg, t, protocol)),
        }
    }

    /// Build this variant's writer as a ready-to-drive [`ClientSession`]
    /// for register `reg` — the form every runtime consumes.
    pub fn make_writer_session(
        &self,
        reg: RegisterId,
        protocol: ProtocolConfig,
        session: SessionConfig,
    ) -> ClientSession {
        ClientSession::new(
            lucky_types::ProcessId::writer(reg),
            reg,
            self.make_writer(reg, protocol),
            session,
        )
    }

    /// Build this variant's reader with identity `id` as a ready-to-drive
    /// [`ClientSession`] for register `reg`.
    pub fn make_reader_session(
        &self,
        reg: RegisterId,
        id: ReaderId,
        protocol: ProtocolConfig,
        session: SessionConfig,
    ) -> ClientSession {
        ClientSession::new(
            lucky_types::ProcessId::Reader(id),
            reg,
            self.make_reader(reg, protocol),
            session,
        )
    }

    /// Build this variant's (correct) single-register server core — the
    /// building block [`RegisterMux`] instantiates per register.
    pub fn make_server(&self) -> Box<dyn ServerCore> {
        match self {
            Setup::Atomic(_) => Box::new(atomic::AtomicServer::new()),
            Setup::TwoRound(_) => Box::new(tworound::TwoRoundServer::new()),
            Setup::Regular(_) => Box::new(regular::RegularServer::new()),
            Setup::Abd { .. } => Box::new(abd::AbdServer::default()),
        }
    }

    /// Build this variant's multi-register server: a [`RegisterMux`]
    /// keeping one [`Setup::make_server`] core per register, created
    /// lazily on first contact, with an ack-batching policy: a batch of
    /// `k` requests is answered with one batched ack message instead of
    /// `k` individual ones (when `batch.enabled`).
    pub fn make_server_mux_batched(&self, batch: BatchConfig) -> Box<dyn ServerCore> {
        Box::new(RegisterMux::with_batch(*self, batch))
    }

    /// Like [`Setup::make_server_mux_batched`], with a pluggable storage
    /// backend: per-register state is reloaded from `backend` on first
    /// contact and re-persisted after every delivered message, *before*
    /// any reply leaves the server — so a crash-restarted server rejoins
    /// the quorum with exactly the state its previous incarnation acked.
    pub fn make_server_mux_durable(
        &self,
        batch: BatchConfig,
        backend: Box<dyn ServerBackend>,
    ) -> Box<dyn ServerCore> {
        Box::new(RegisterMux::with_backend(*self, batch, backend))
    }

    /// Build a store's server `i`: a durable mux over `<dir>/s<i>/` (on a
    /// restart, replaying the logs found there) when `durable` names a
    /// directory, an in-memory mux otherwise. This is what every runtime
    /// deploys at a server's address, so one server cluster serves the
    /// whole register namespace.
    pub fn make_store_server(
        &self,
        batch: BatchConfig,
        durable: Option<(PathBuf, Arc<LogCounters>)>,
        i: u16,
    ) -> Box<dyn ServerCore> {
        match durable {
            Some((dir, counters)) => {
                let backend = DurableBackend::open_with(dir.join(format!("s{i}")), counters)
                    .expect("create the server's log directory");
                self.make_server_mux_durable(batch, Box::new(backend))
            }
            None => self.make_server_mux_batched(batch),
        }
    }

    /// Rebuild this variant's single-register server core from a
    /// [`ServerCore::snapshot`] image, or `None` when the image does not
    /// decode (callers fall back to a fresh core — the safe direction:
    /// the log layer already discarded torn records, so a non-decoding
    /// snapshot means an old-format or foreign-variant file).
    pub fn restore_server(&self, snapshot: &[u8]) -> Option<Box<dyn ServerCore>> {
        fn boxed<S: ServerCore + 'static>(
            s: Result<S, lucky_wire::DecodeError>,
        ) -> Option<Box<dyn ServerCore>> {
            s.ok().map(|s| Box::new(s) as Box<dyn ServerCore>)
        }
        match self {
            Setup::Atomic(_) => boxed(atomic::AtomicServer::from_snapshot(snapshot)),
            Setup::TwoRound(_) => boxed(tworound::TwoRoundServer::from_snapshot(snapshot)),
            Setup::Regular(_) => boxed(regular::RegularServer::from_snapshot(snapshot)),
            Setup::Abd { .. } => boxed(abd::AbdServer::from_snapshot(snapshot)),
        }
    }
}

/// `Params` defaults to the main atomic algorithm (§3); build
/// [`Setup::Regular`] explicitly for the Appendix D variant.
impl From<Params> for Setup {
    fn from(params: Params) -> Setup {
        Setup::Atomic(params)
    }
}

impl From<TwoRoundParams> for Setup {
    fn from(params: TwoRoundParams) -> Setup {
        Setup::TwoRound(params)
    }
}

#[cfg(test)]
mod tests {
    //! Pins what the honest servers write to disk and put on the wire, so
    //! a log written by one build still recovers under the next.

    use super::*;
    use lucky_sim::Effects;
    use lucky_types::{
        FrozenUpdate, Message, ProcessId, PwMsg, ReadMsg, ReadSeq, Seq, Tag, TsVal, Value, WriteMsg,
    };

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn read(reader: u16, tsr: u64, rnd: u32) -> (ProcessId, Message) {
        let msg = Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(tsr), rnd });
        (ProcessId::Reader(ReaderId(reader)), msg)
    }

    fn pw(ts: u64, frozen: Vec<FrozenUpdate>) -> (ProcessId, Message) {
        let msg = Message::Pw(PwMsg {
            reg: RegisterId::DEFAULT,
            ts: Seq(ts),
            pw: pair(ts),
            w: pair(ts - 1),
            frozen,
        });
        (ProcessId::Writer, msg)
    }

    fn write(
        from: ProcessId,
        tag: Tag,
        round: u8,
        ts: u64,
        frozen: Vec<FrozenUpdate>,
    ) -> (ProcessId, Message) {
        let c = pair(ts);
        (from, Message::Write(WriteMsg { reg: RegisterId::DEFAULT, round, tag, c, frozen }))
    }

    /// One message sequence that sets every field of every honest server:
    /// a round-2 READ (`tsr_j`), a PW (`pw`, `w`), writer W rounds 1–3
    /// (`vw`), the frozen set on the writer message the variant's own
    /// writer puts it on (PW for Fig. 1, W for Fig. 6), a second slow
    /// READ left unfrozen, a reader write-back in rounds 1–3 — the one
    /// the regular server drops — and a round-1 READ. Returns every
    /// reply, in order.
    fn drive(setup: Setup, server: &mut dyn ServerCore) -> Vec<(ProcessId, Message)> {
        let frozen = vec![FrozenUpdate { reader: ReaderId(2), pw: pair(4), tsr: ReadSeq(7) }];
        let on_w = matches!(setup, Setup::TwoRound(_));
        let mut script = vec![read(2, 7, 2), pw(5, if on_w { vec![] } else { frozen.clone() })];
        for round in 1..=3 {
            let f = if on_w && round == 2 { frozen.clone() } else { vec![] };
            script.push(write(ProcessId::Writer, Tag::Write(Seq(5)), round, 5, f));
        }
        script.extend([read(3, 2, 3), pw(6, vec![])]);
        let reader = ProcessId::Reader(ReaderId(1));
        for round in 1..=3 {
            script.push(write(reader, Tag::WriteBack(ReadSeq(1)), round, 6, vec![]));
        }
        script.push(read(0, 1, 1));
        let mut eff = Effects::new();
        for (from, msg) in script {
            server.deliver(from, msg, &mut eff);
        }
        eff.into_parts().0
    }

    #[test]
    fn honest_server_formats_are_pinned() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        // (setup, snapshot, every reply's encoding, does a READ ack carry `vw`?)
        let cases = [
            (
                Setup::Atomic(params),
                "06010800000000000000060601080000000000000006060108000000000000000602020703020102040108000000000000000407",
                "05000702000000000100000000000100050003000100050300020005030003000505000203050108000000000000000505010800000000000000050105010800000000000000050000000100060103020300010101030002010103000301010500010106010800000000000000060601080000000000000006010601080000000000000006000000",
                true,
            ),
            (
                Setup::TwoRound(TwoRoundParams::new(1, 0, 1).unwrap()),
                "0601080000000000000006060108000000000000000602020703020102040108000000000000000407",
                "050007020000000000000000010005010207030001000503000200050300030005050002030501080000000000000005050108000000000000000500000000010006010302030001010103000201010300030101050001010601080000000000000006060108000000000000000600000000",
                false,
            ),
            (
                Setup::Regular(Params::trading_reads(1, 0).unwrap()),
                "06010800000000000000060501080000000000000005050108000000000000000502020703020102040108000000000000000407",
                "05000702000000000100000000000100050003000100050300020005030003000505000203050108000000000000000505010800000000000000050105010800000000000000050000000100060103020500010106010800000000000000060501080000000000000005010501080000000000000005000000",
                true,
            ),
            (
                Setup::Abd { t: 1 },
                "0601080000000000000006",
                "0500070200000000000000000100050003000100050300020005030003000505000203050108000000000000000500000000000001000600030001010103000201010300030101050001010601080000000000000006000000000000",
                false,
            ),
        ];
        for (setup, snapshot_hex, replies_hex, has_vw) in cases {
            let mut server = setup.make_server();
            let replies = drive(setup, server.as_mut());
            let snapshot = server.snapshot().expect("honest servers persist their state");
            assert_eq!(hex(&snapshot), snapshot_hex, "{setup:?} snapshot");
            let wire: Vec<u8> =
                replies.iter().flat_map(|(_, m)| lucky_wire::encode_message(m)).collect();
            assert_eq!(hex(&wire), replies_hex, "{setup:?} replies");
            match replies.last() {
                Some((_, Message::ReadAck(ack))) => {
                    assert_eq!(ack.vw.is_some(), has_vw, "{setup:?} ReadAck.vw");
                }
                other => panic!("{setup:?}: the final READ is answered, got {other:?}"),
            }

            // The pinned image restores to a server in the same state:
            // it re-snapshots byte for byte and answers a READ alike.
            let mut restored = setup.restore_server(&snapshot).expect("the image decodes");
            assert_eq!(restored.snapshot().as_deref(), Some(&snapshot[..]), "{setup:?} restore");
            let (from, msg) = read(0, 2, 1);
            let (mut a, mut b) = (Effects::new(), Effects::new());
            server.deliver(from, msg.clone(), &mut a);
            restored.deliver(from, msg, &mut b);
            assert_eq!(a.into_parts().0, b.into_parts().0, "{setup:?} restored READ ack");
        }
    }
}
