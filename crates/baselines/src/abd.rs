//! The ABD SWMR atomic register (Attiya–Bar-Noy–Dolev, JACM 1995).
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
//! the common case.

use lucky_checker::Violations;
use lucky_sim::{Automaton, Effects, NetworkModel, Payload, RunError, World};
use lucky_types::{
    History, Op, OpId, OpRecord, ProcessId, ReaderId, Seq, ServerId, Time, TsVal, Value,
};
use std::collections::BTreeSet;

/// ABD wire messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AbdMessage {
    /// Reader query, tagged with a per-reader request id.
    Get {
        /// Request id (echoed in the reply).
        rid: u64,
    },
    /// Server reply to a query.
    GetAck {
        /// Echo of the request id.
        rid: u64,
        /// The server's stored pair.
        stored: TsVal,
    },
    /// Store request (writer round or reader write-back).
    Put {
        /// Request id (echoed in the reply).
        rid: u64,
        /// The pair to store.
        pair: TsVal,
    },
    /// Server reply to a store request.
    PutAck {
        /// Echo of the request id.
        rid: u64,
    },
}

impl Payload for AbdMessage {
    fn wire_size(&self) -> usize {
        match self {
            AbdMessage::Get { .. } => 16,
            AbdMessage::GetAck { stored, .. } => 16 + stored.wire_size(),
            AbdMessage::Put { pair, .. } => 16 + pair.wire_size(),
            AbdMessage::PutAck { .. } => 16,
        }
    }
}

/// An ABD server: a single register cell with highest-timestamp-wins.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AbdServer {
    stored: TsVal,
}

impl AbdServer {
    /// A server in its initial state.
    pub fn new() -> AbdServer {
        AbdServer { stored: TsVal::initial() }
    }

    /// The stored pair (for tests).
    pub fn stored(&self) -> &TsVal {
        &self.stored
    }
}

impl Automaton<AbdMessage> for AbdServer {
    fn on_message(
        &mut self,
        _now: Time,
        from: ProcessId,
        msg: AbdMessage,
        eff: &mut Effects<AbdMessage>,
    ) {
        match msg {
            AbdMessage::Get { rid } => {
                eff.send(from, AbdMessage::GetAck { rid, stored: self.stored.clone() });
            }
            AbdMessage::Put { rid, pair } => {
                if pair.ts > self.stored.ts {
                    self.stored = pair;
                }
                eff.send(from, AbdMessage::PutAck { rid });
            }
            AbdMessage::GetAck { .. } | AbdMessage::PutAck { .. } => {}
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum WriterState {
    Idle,
    Putting { rid: u64, acks: BTreeSet<ServerId> },
}

/// The ABD writer: one `Put` round per WRITE.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AbdWriter {
    servers: usize,
    majority: usize,
    ts: Seq,
    next_rid: u64,
    state: WriterState,
}

impl AbdWriter {
    /// A writer for `servers = 2t + 1` servers.
    pub fn new(servers: usize) -> AbdWriter {
        AbdWriter {
            servers,
            majority: servers / 2 + 1,
            ts: Seq::INITIAL,
            next_rid: 0,
            state: WriterState::Idle,
        }
    }
}

impl Automaton<AbdMessage> for AbdWriter {
    fn on_invoke(&mut self, _now: Time, op: Op, eff: &mut Effects<AbdMessage>) {
        let Op::Write(v) = op else {
            panic!("the ABD writer only invokes WRITEs");
        };
        assert!(
            self.state == WriterState::Idle,
            "WRITE invoked while another WRITE is in progress"
        );
        self.ts = self.ts.next();
        self.next_rid += 1;
        let rid = self.next_rid;
        let pair = TsVal::new(self.ts, v);
        for s in ServerId::all(self.servers) {
            eff.send(ProcessId::Server(s), AbdMessage::Put { rid, pair: pair.clone() });
        }
        self.state = WriterState::Putting { rid, acks: BTreeSet::new() };
    }

    fn on_message(
        &mut self,
        _now: Time,
        from: ProcessId,
        msg: AbdMessage,
        eff: &mut Effects<AbdMessage>,
    ) {
        let Some(server) = from.as_server() else { return };
        let WriterState::Putting { rid, acks } = &mut self.state else { return };
        if let AbdMessage::PutAck { rid: ack_rid } = msg {
            if ack_rid == *rid {
                acks.insert(server);
                if acks.len() >= self.majority {
                    self.state = WriterState::Idle;
                    eff.complete(None, 1, true);
                }
            }
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum ReaderState {
    Idle,
    Querying { rid: u64, acks: BTreeSet<ServerId>, best: TsVal },
    WritingBack { rid: u64, acks: BTreeSet<ServerId>, best: TsVal },
}

/// The ABD reader: query round then write-back round, every time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AbdReader {
    servers: usize,
    majority: usize,
    next_rid: u64,
    state: ReaderState,
}

impl AbdReader {
    /// A reader for `servers = 2t + 1` servers.
    pub fn new(servers: usize) -> AbdReader {
        AbdReader { servers, majority: servers / 2 + 1, next_rid: 0, state: ReaderState::Idle }
    }

    fn broadcast(&self, eff: &mut Effects<AbdMessage>, msg: AbdMessage) {
        for s in ServerId::all(self.servers) {
            eff.send(ProcessId::Server(s), msg.clone());
        }
    }
}

impl Automaton<AbdMessage> for AbdReader {
    fn on_invoke(&mut self, _now: Time, op: Op, eff: &mut Effects<AbdMessage>) {
        assert!(matches!(op, Op::Read), "ABD readers only invoke READs");
        assert!(self.state == ReaderState::Idle, "READ invoked while another READ is in progress");
        self.next_rid += 1;
        let rid = self.next_rid;
        self.broadcast(eff, AbdMessage::Get { rid });
        self.state = ReaderState::Querying { rid, acks: BTreeSet::new(), best: TsVal::initial() };
    }

    fn on_message(
        &mut self,
        _now: Time,
        from: ProcessId,
        msg: AbdMessage,
        eff: &mut Effects<AbdMessage>,
    ) {
        let Some(server) = from.as_server() else { return };
        match (&mut self.state, msg) {
            (
                ReaderState::Querying { rid, acks, best },
                AbdMessage::GetAck { rid: ack_rid, stored },
            ) if ack_rid == *rid => {
                acks.insert(server);
                if stored.ts > best.ts {
                    *best = stored;
                }
                if acks.len() >= self.majority {
                    let best = best.clone();
                    self.next_rid += 1;
                    let wb_rid = self.next_rid;
                    self.broadcast(eff, AbdMessage::Put { rid: wb_rid, pair: best.clone() });
                    self.state =
                        ReaderState::WritingBack { rid: wb_rid, acks: BTreeSet::new(), best };
                }
            }
            (ReaderState::WritingBack { rid, acks, best }, AbdMessage::PutAck { rid: ack_rid })
                if ack_rid == *rid =>
            {
                acks.insert(server);
                if acks.len() >= self.majority {
                    let value = best.val.clone();
                    self.state = ReaderState::Idle;
                    // Two rounds, by construction never "fast" in the
                    // paper's one-round sense.
                    eff.complete(Some(value), 2, false);
                }
            }
            _ => {}
        }
    }
}

/// Configuration of an ABD cluster.
#[derive(Clone, Debug)]
pub struct AbdConfig {
    /// Crash-failure threshold `t` (servers = `2t + 1`).
    pub t: usize,
    /// Network model.
    pub net: NetworkModel,
    /// Simulation seed.
    pub seed: u64,
}

impl AbdConfig {
    /// Synchronous network preset matching `lucky-core`'s
    /// `StoreConfig::synchronous` (δ = 100µs), for fair comparisons.
    pub fn synchronous(t: usize) -> AbdConfig {
        AbdConfig { t, net: NetworkModel::uniform(50, 100), seed: 0 }
    }

    /// Asynchronous preset matching `StoreConfig::asynchronous`.
    pub fn asynchronous(t: usize) -> AbdConfig {
        AbdConfig { t, net: NetworkModel::uniform(50, 20_000), seed: 0 }
    }

    /// Replace the seed (chainable).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> AbdConfig {
        self.seed = seed;
        self
    }
}

/// A simulated ABD cluster serving one register, with the `write`/`read`
/// surface of a one-register `lucky-core` `SimStore`.
#[derive(Debug)]
pub struct AbdCluster {
    world: World<AbdMessage>,
    t: usize,
}

/// Flattened outcome of one ABD operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AbdOutcome {
    /// Operation id.
    pub id: OpId,
    /// Value read (READs) or written (WRITEs).
    pub value: Value,
    /// Rounds used (1 for writes, 2 for reads).
    pub rounds: u32,
    /// Latency in virtual microseconds.
    pub latency: u64,
    /// Messages exchanged with this client during the operation.
    pub msgs: u64,
    /// Estimated wire bytes.
    pub bytes: u64,
}

impl AbdOutcome {
    fn from_record(rec: &OpRecord) -> AbdOutcome {
        let value = match (&rec.result, &rec.op) {
            (Some(v), _) => v.clone(),
            (None, Op::Write(v)) => v.clone(),
            (None, Op::Read) => Value::Bot,
        };
        AbdOutcome {
            id: rec.id,
            value,
            rounds: rec.rounds,
            latency: rec.latency().unwrap_or(0),
            msgs: rec.msgs,
            bytes: rec.bytes,
        }
    }
}

impl AbdCluster {
    /// Build an ABD cluster with `readers` reader processes.
    pub fn new(cfg: AbdConfig, readers: usize) -> AbdCluster {
        let servers = 2 * cfg.t + 1;
        let mut world = World::new(cfg.net.clone(), cfg.seed);
        world.add_process(ProcessId::Writer, Box::new(AbdWriter::new(servers)));
        for r in ReaderId::all(readers) {
            world.add_process(ProcessId::Reader(r), Box::new(AbdReader::new(servers)));
        }
        for s in ServerId::all(servers) {
            world.add_process(ProcessId::Server(s), Box::new(AbdServer::new()));
        }
        AbdCluster { world, t: cfg.t }
    }

    /// Number of servers (`2t + 1`).
    pub fn server_count(&self) -> usize {
        2 * self.t + 1
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// Invoke `WRITE(v)` (one microsecond from now, so that back-to-back
    /// helper calls produce strictly ordered operations).
    pub fn invoke_write(&mut self, v: Value) -> OpId {
        let at = self.world.now() + 1;
        self.world.invoke_at(at, ProcessId::Writer, Op::Write(v))
    }

    /// Invoke `READ()` on reader `r` (one microsecond from now).
    pub fn invoke_read(&mut self, r: ReaderId) -> OpId {
        let at = self.world.now() + 1;
        self.world.invoke_at(at, ProcessId::Reader(r), Op::Read)
    }

    /// Run until `op` completes.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] when the run stalls.
    pub fn run_until_complete(&mut self, op: OpId) -> Result<AbdOutcome, RunError> {
        self.world.run_until_complete(op).map(AbdOutcome::from_record)
    }

    /// `WRITE(v)` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the write stalls (more than `t` crashed servers).
    pub fn write(&mut self, v: Value) -> AbdOutcome {
        let op = self.invoke_write(v);
        self.run_until_complete(op).expect("ABD WRITE stalled")
    }

    /// `READ()` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the read stalls (more than `t` crashed servers).
    pub fn read(&mut self, r: ReaderId) -> AbdOutcome {
        let op = self.invoke_read(r);
        self.run_until_complete(op).expect("ABD READ stalled")
    }

    /// Crash server `i` immediately.
    pub fn crash_server(&mut self, i: u16) {
        self.world.crash_now(ProcessId::Server(ServerId(i)));
    }

    /// Full access to the underlying world.
    pub fn world_mut(&mut self) -> &mut World<AbdMessage> {
        &mut self.world
    }

    /// The operation history so far.
    pub fn history(&self) -> &History {
        self.world.history()
    }

    /// Check the history against the atomicity conditions.
    ///
    /// # Errors
    ///
    /// Returns the violations found.
    pub fn check_atomicity(&self) -> Result<(), Violations> {
        lucky_checker::assert_atomic(self.history())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_round_reads_two_rounds() {
        let mut c = AbdCluster::new(AbdConfig::synchronous(2), 1);
        let w = c.write(Value::from_u64(1));
        assert_eq!(w.rounds, 1);
        let r = c.read(ReaderId(0));
        assert_eq!(r.rounds, 2);
        assert_eq!(r.value.as_u64(), Some(1));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn empty_register_reads_bot() {
        let mut c = AbdCluster::new(AbdConfig::synchronous(1), 1);
        let r = c.read(ReaderId(0));
        assert!(r.value.is_bot());
        c.check_atomicity().unwrap();
    }

    #[test]
    fn tolerates_t_crashes() {
        let mut c = AbdCluster::new(AbdConfig::synchronous(2), 1);
        c.crash_server(0);
        c.crash_server(1);
        c.write(Value::from_u64(1));
        let r = c.read(ReaderId(0));
        assert_eq!(r.value.as_u64(), Some(1));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn t_plus_one_crashes_stall() {
        let mut c = AbdCluster::new(AbdConfig::synchronous(1), 1);
        c.crash_server(0);
        c.crash_server(1);
        let op = c.invoke_write(Value::from_u64(1));
        assert!(c.run_until_complete(op).is_err());
    }

    #[test]
    fn sequence_of_ops_is_atomic_under_async_network() {
        let mut c = AbdCluster::new(AbdConfig::asynchronous(2).with_seed(5), 2);
        for i in 1..=10u64 {
            c.write(Value::from_u64(i));
            let r = c.read(ReaderId((i % 2) as u16));
            assert_eq!(r.value.as_u64(), Some(i));
        }
        c.check_atomicity().unwrap();
    }

    #[test]
    fn reader_writeback_promotes_partial_writes() {
        // Hold the writer's Put to two servers so only a bare majority
        // stores the value; the reader's write-back then completes it.
        let mut c = AbdCluster::new(AbdConfig::synchronous(2), 1);
        c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(3)));
        c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(4)));
        c.write(Value::from_u64(1));
        let r = c.read(ReaderId(0));
        assert_eq!(r.value.as_u64(), Some(1));
        // A second read still sees it (atomicity across readers).
        let r2 = c.read(ReaderId(0));
        assert_eq!(r2.value.as_u64(), Some(1));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn concurrent_read_write_atomic() {
        let mut c = AbdCluster::new(AbdConfig::synchronous(2), 2);
        c.write(Value::from_u64(1));
        let w = c.invoke_write(Value::from_u64(2));
        let r = c.invoke_read(ReaderId(0));
        c.world_mut().run_until_all_complete(&[w, r]).unwrap();
        c.check_atomicity().unwrap();
    }
}
