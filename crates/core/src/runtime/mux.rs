//! Multiplexing one server process over many registers.

use crate::runtime::adapters::ServerCore;
use crate::runtime::setup::Setup;
use lucky_log::{MemoryBackend, ServerBackend};
use lucky_sim::Effects;
use lucky_types::{BatchConfig, Message, ProcessId, RegisterId};
use std::collections::BTreeMap;
use std::fmt;

/// A server that serves a whole namespace of registers.
///
/// The paper's server (Fig. 3 / Fig. 8) keeps the state of *one* register:
/// the `pw`/`w`(/`vw`) copies, the per-reader READ timestamps and the
/// frozen slots. A production store multiplexes many independent registers
/// over the same server processes; this adapter keeps that per-register
/// state in a map keyed by [`RegisterId`], dispatching every incoming
/// message on the register it names and creating register state lazily on
/// first contact.
///
/// A [`Message::Batch`] is unwrapped here: its parts — which may span
/// registers and rounds — are dispatched in order, and the acks they
/// produce are re-batched per sender when batching is enabled, so a batch
/// of `k` requests costs one wire message each way instead of `2k`.
///
/// Because each entry is a full single-register server core built by the
/// [`Setup`] factory, the per-register protocol logic is untouched —
/// isolation between registers is structural: a message for register `x`
/// can only ever read or write register `x`'s state.
pub struct RegisterMux {
    setup: Setup,
    batch: BatchConfig,
    regs: BTreeMap<RegisterId, Box<dyn ServerCore>>,
    backend: Box<dyn ServerBackend>,
}

impl RegisterMux {
    /// A server of `setup`'s variant with no register state yet and ack
    /// batching off (incoming batches are still unwrapped — only the
    /// *replies* stay unbatched).
    pub fn new(setup: Setup) -> RegisterMux {
        RegisterMux::with_batch(setup, BatchConfig::disabled())
    }

    /// A server of `setup`'s variant with the given ack-batching policy.
    pub fn with_batch(setup: Setup, batch: BatchConfig) -> RegisterMux {
        RegisterMux::with_backend(setup, batch, Box::new(MemoryBackend))
    }

    /// A server whose per-register state lives in `backend`: each
    /// register's core is restored from the backend on first contact
    /// (surviving a process restart when the backend is durable) and
    /// persisted after every delivered message, *before* the acks leave
    /// the server — so nothing a client ever saw acknowledged can be
    /// forgotten by a crash.
    pub fn with_backend(
        setup: Setup,
        batch: BatchConfig,
        backend: Box<dyn ServerBackend>,
    ) -> RegisterMux {
        RegisterMux { setup, batch, regs: BTreeMap::new(), backend }
    }

    /// Number of registers this server has state for.
    pub fn register_count(&self) -> usize {
        self.regs.len()
    }

    /// The registers this server has state for, in id order.
    pub fn registers(&self) -> impl Iterator<Item = RegisterId> + '_ {
        self.regs.keys().copied()
    }

    /// Dispatch one plain (non-batch) message on the register it names.
    fn dispatch(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        let Some(reg) = msg.register() else {
            return; // empty batch remnants carry no register: ignore
        };
        let setup = self.setup;
        let backend = &mut self.backend;
        let core = self.regs.entry(reg).or_insert_with(|| {
            // First contact: replay this register from the backend (the
            // crash-recovery path) or start fresh. A snapshot the variant
            // cannot decode falls back to fresh — the log layer already
            // discarded torn records, so this only fires on foreign or
            // legacy images.
            backend
                .load(reg)
                .and_then(|snap| setup.restore_server(&snap))
                .unwrap_or_else(|| setup.make_server())
        });
        core.deliver(from, msg, eff);
        // Persist-before-ack: `eff` still holds the replies this message
        // produced — they only reach the network after dispatch returns,
        // by which point the new state is in the backend. A crash between
        // the two can lose an *unacked* transition (allowed: the client
        // retries) but never an acked one.
        if backend.durable() {
            if let Some(snap) = core.snapshot() {
                backend.persist(reg, &snap);
            }
        }
    }
}

impl fmt::Debug for RegisterMux {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterMux")
            .field("setup", &self.setup)
            .field("batch", &self.batch)
            .field("registers", &self.regs.len())
            .finish()
    }
}

impl ServerCore for RegisterMux {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        if !matches!(msg, Message::Batch(_)) {
            // The common single-message path: nothing to re-batch.
            self.dispatch(from, msg, eff);
            return;
        }
        // Batched delivery: process parts in order, then re-batch the
        // acks per destination (normally all to `from`, but a part may
        // stay unanswered or a Byzantine batch may mix registers —
        // `coalesce` handles any shape, and its size bound holds on
        // replies too). Timers and completions a core emits are
        // forwarded untouched, so a batched part is processed exactly as
        // if it had arrived alone.
        let mut inner = Effects::new();
        for part in msg.flatten() {
            self.dispatch(from, part, &mut inner);
        }
        let (mut sends, timers, completion) = inner.into_parts();
        for (id, delay_micros) in timers {
            eff.set_timer(id, delay_micros);
        }
        if let Some(c) = completion {
            eff.complete(c.value, c.rounds, c.fast);
        }
        self.batch.coalesce(&mut sends);
        for (to, ack) in sends {
            eff.send(to, ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{
        Message, Params, PwMsg, ReadMsg, ReadSeq, ReaderId, Seq, Tag, TsVal, Value, WriteMsg,
    };

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn pw(reg: RegisterId, ts: u64) -> Message {
        Message::Pw(PwMsg { reg, ts: Seq(ts), pw: pair(ts), w: TsVal::initial(), frozen: vec![] })
    }

    fn read(reg: RegisterId) -> Message {
        Message::Read(ReadMsg { reg, tsr: ReadSeq(1), rnd: 1 })
    }

    #[test]
    fn registers_are_isolated() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::new(setup);
        let mut eff = Effects::new();
        // Write ts=5 into register 1 only.
        let r1 = RegisterId(1);
        let r2 = RegisterId(2);
        mux.deliver(ProcessId::writer(r1), pw(r1, 5), &mut eff);
        assert_eq!(mux.register_count(), 1);
        // Register 2 still answers with the initial state.
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Reader(ReaderId(0)), read(r2), &mut eff);
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::ReadAck(a) => {
                assert_eq!(a.reg, r2);
                assert_eq!(a.pw, TsVal::initial(), "register 2 never saw the write");
            }
            other => panic!("expected ReadAck, got {other:?}"),
        }
        // Register 1 answers with the pre-written pair.
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Reader(ReaderId(0)), read(r1), &mut eff);
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::ReadAck(a) => {
                assert_eq!(a.reg, r1);
                assert_eq!(a.pw, pair(5));
            }
            other => panic!("expected ReadAck, got {other:?}"),
        }
        assert_eq!(mux.register_count(), 2);
        assert_eq!(mux.registers().collect::<Vec<_>>(), vec![r1, r2]);
    }

    #[test]
    fn acks_echo_the_register_through_the_mux() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::new(setup);
        for reg in RegisterId::all(4) {
            let mut eff = Effects::new();
            mux.deliver(ProcessId::writer(reg), pw(reg, 1), &mut eff);
            let (sends, _, _) = eff.into_parts();
            assert_eq!(sends.len(), 1);
            assert_eq!(sends[0].1.register(), Some(reg));
        }
    }

    #[test]
    fn batched_requests_are_answered_with_one_batched_ack() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::with_batch(setup, BatchConfig::enabled(16));
        // One reader sends a cross-register batch of three READs.
        let reader = ProcessId::Reader(ReaderId(0));
        let batch =
            Message::batch(vec![read(RegisterId(0)), read(RegisterId(1)), read(RegisterId(2))]);
        let mut eff = Effects::new();
        mux.deliver(reader, batch, &mut eff);
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends.len(), 1, "three acks travel as one wire message");
        assert_eq!(sends[0].0, reader);
        let parts = sends[0].1.clone().flatten();
        assert_eq!(parts.len(), 3);
        // Acks come back in request order, one per register.
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.register(), Some(RegisterId(i as u32)), "ack order preserved");
        }
        assert_eq!(mux.register_count(), 3, "each part reached its own register");
    }

    #[test]
    fn batched_requests_without_batching_still_unwrap_but_acks_stay_plain() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::new(setup); // ack batching off
        let reader = ProcessId::Reader(ReaderId(0));
        let batch = Message::batch(vec![read(RegisterId(0)), read(RegisterId(1))]);
        let mut eff = Effects::new();
        mux.deliver(reader, batch, &mut eff);
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends.len(), 2, "individual acks when ack batching is off");
        assert!(sends.iter().all(|(to, m)| *to == reader && !matches!(m, Message::Batch(_))));
    }

    #[test]
    fn per_part_guards_survive_batched_delivery() {
        use lucky_types::ServerId;
        let setup = Setup::Regular(Params::trading_reads(1, 0).unwrap());
        let mut mux = RegisterMux::with_batch(setup, BatchConfig::enabled(16));
        let r0 = RegisterId(0);
        let r1 = RegisterId(1);
        // A Byzantine server smuggles a forged PW for register 1 and a
        // reader smuggles a write-back (dropped by the regular variant)
        // into batches; the per-part dispatch applies each single-message
        // guard — wrong-sender PWs and reader write-backs are rejected
        // exactly as they would be unbatched.
        let forged_pw = pw(r1, 9);
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Server(ServerId(5)), Message::batch(vec![forged_pw]), &mut eff);
        let smuggled_wb = Message::Write(WriteMsg {
            reg: r1,
            round: 2,
            tag: Tag::WriteBack(ReadSeq(1)),
            c: pair(9),
            frozen: vec![],
        });
        let mut eff = Effects::new();
        mux.deliver(
            ProcessId::Reader(ReaderId(0)),
            Message::batch(vec![read(r0), smuggled_wb]),
            &mut eff,
        );
        // Register 1 was not corrupted: a READ shows the initial state.
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Reader(ReaderId(0)), read(r1), &mut eff);
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::ReadAck(a) => {
                assert_eq!(a.pw, TsVal::initial(), "smuggled batch parts rejected")
            }
            other => panic!("expected ReadAck, got {other:?}"),
        }
    }

    #[test]
    fn ack_batches_respect_the_max_msgs_bound() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::with_batch(setup, BatchConfig::enabled(2));
        let reader = ProcessId::Reader(ReaderId(0));
        // A 5-part request batch (Byzantine-sized: over the cap) must be
        // answered in ceil(5/2) = 3 reply envelopes of at most 2 parts.
        let batch = Message::batch((0..5).map(|i| read(RegisterId(i))).collect());
        let mut eff = Effects::new();
        mux.deliver(reader, batch, &mut eff);
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends.len(), 3, "5 acks chunked into 2+2+1 envelopes");
        let sizes: Vec<usize> = sends.iter().map(|(_, m)| m.part_count()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(
            sends.iter().map(|(_, m)| m.part_count()).sum::<usize>(),
            5,
            "no ack lost to the cap"
        );
    }

    #[test]
    fn deeply_nested_hostile_batch_is_flattened_without_recursion() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::with_batch(setup, BatchConfig::enabled(16));
        // A Byzantine sender hand-nests Batch envelopes 100k deep around
        // one real READ (bypassing `Message::batch`'s flattening): the
        // iterative traversals must survive and serve the single part.
        let mut hostile = read(RegisterId(0));
        for _ in 0..100_000 {
            hostile = Message::Batch(vec![hostile]);
        }
        assert_eq!(hostile.part_count(), 1);
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Reader(ReaderId(0)), hostile, &mut eff);
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends.len(), 1, "the buried READ is answered normally");
        assert!(matches!(sends[0].1, Message::ReadAck(_)));
    }

    #[test]
    fn durable_state_survives_a_mux_restart() {
        use lucky_log::{DurableBackend, TempDir};
        let dir = TempDir::new("mux-restart");
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let r1 = RegisterId(1);
        let r2 = RegisterId(2);

        // First incarnation: write ts=5 into register 1, ts=3 into 2.
        let backend = Box::new(DurableBackend::open(dir.path()).unwrap());
        let mut mux = RegisterMux::with_backend(setup, BatchConfig::disabled(), backend);
        let mut eff = Effects::new();
        mux.deliver(ProcessId::writer(r1), pw(r1, 5), &mut eff);
        mux.deliver(ProcessId::writer(r2), pw(r2, 3), &mut eff);
        drop(mux); // the crash: all volatile state gone

        // Second incarnation over the same directory: both registers
        // answer with their pre-crash state on first contact.
        let backend = Box::new(DurableBackend::open(dir.path()).unwrap());
        let counters = backend.counters();
        let mut mux = RegisterMux::with_backend(setup, BatchConfig::disabled(), backend);
        for (reg, ts) in [(r1, 5), (r2, 3)] {
            let mut eff = Effects::new();
            mux.deliver(ProcessId::Reader(ReaderId(0)), read(reg), &mut eff);
            let (sends, _, _) = eff.into_parts();
            match &sends[0].1 {
                Message::ReadAck(a) => assert_eq!(a.pw, pair(ts), "{reg:?} replayed"),
                other => panic!("expected ReadAck, got {other:?}"),
            }
        }
        assert_eq!(counters.recoveries(), 2, "one log replay per register");
    }

    #[test]
    fn memory_backend_forgets_across_restarts() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let r1 = RegisterId(1);
        let mut mux = RegisterMux::new(setup);
        let mut eff = Effects::new();
        mux.deliver(ProcessId::writer(r1), pw(r1, 5), &mut eff);
        drop(mux);
        let mut mux = RegisterMux::new(setup);
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Reader(ReaderId(0)), read(r1), &mut eff);
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::ReadAck(a) => assert_eq!(a.pw, TsVal::initial(), "amnesiac by design"),
            other => panic!("expected ReadAck, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_is_ignored() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut mux = RegisterMux::with_batch(setup, BatchConfig::enabled(16));
        let mut eff = Effects::new();
        mux.deliver(ProcessId::Reader(ReaderId(0)), Message::Batch(vec![]), &mut eff);
        assert!(eff.is_empty());
        assert_eq!(mux.register_count(), 0);
    }
}
