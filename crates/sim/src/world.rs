//! The simulation engine.
//!
//! A step pops the earliest event, hands it to its process's automaton
//! and applies the [`Effects`] the automaton left behind. Nothing on that
//! path walks a map or allocates once the run is warm: the event queue
//! is a binary heap of `(time, seq, slot)` keys over a slab of events
//! with a free list, processes sit in a dense table indexed by their id,
//! an [`OpId`] `n` is `history.ops[n]`, and one [`Effects`] buffer is
//! drained and reused by every step.

use crate::automaton::{Automaton, Completion, Effects, TimerId};
use crate::network::NetworkModel;
use lucky_types::{
    BatchConfig, History, Message, Op, OpId, OpRecord, ProcessId, ReaderId, RegisterId, ServerId,
    Time,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::Arc;

/// Why a run helper stopped before the requested condition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunError {
    /// The event queue drained with the operation still incomplete —
    /// it is blocked on gated links or crashed processes.
    Stalled {
        /// The operation that never completed.
        op: OpId,
    },
    /// The client abandoned the operation (see [`Effects::fail_op`]) —
    /// e.g. a session's configured deadline passed.
    OpFailed {
        /// The operation that failed.
        op: OpId,
        /// The virtual instant at which the client gave it up.
        at: Time,
    },
    /// The step budget was exhausted (the run may be livelocked or simply
    /// needs a larger budget).
    StepBudgetExhausted,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stalled { op } => {
                write!(f, "event queue drained before {op} completed")
            }
            RunError::OpFailed { op, at } => {
                write!(f, "the client abandoned {op} at {at}")
            }
            RunError::StepBudgetExhausted => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

/// One line of the (optional) message trace: a delivery that was
/// processed, with the payload's label.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    /// Delivery instant.
    pub time: Time,
    /// Sender.
    pub from: ProcessId,
    /// Recipient.
    pub to: ProcessId,
    /// Payload label (e.g. `"PW_ACK"`).
    pub label: &'static str,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} -> {}: {}", self.time, self.from, self.to, self.label)
    }
}

enum EventKind {
    Deliver {
        from: ProcessId,
        msg: Message,
    },
    Timer {
        id: TimerId,
    },
    Invoke {
        op_id: OpId,
    },
    Crash,
    /// Revive the process with the automaton `build` produces *at the
    /// restart instant* — lazily, so a recovery builder replays whatever
    /// the durable log holds at that point of the schedule, not at the
    /// (earlier) instant the restart was scheduled.
    Restart {
        build: Box<dyn FnOnce() -> Box<dyn Automaton> + Send>,
    },
}

/// An event and the process it happens to.
struct Event {
    to: ProcessId,
    kind: EventKind,
}

/// Pending events in `(time, seq)` order, `seq` counting every event
/// ever scheduled: events due at one instant pop in scheduling order.
/// The heap orders small keys; the events themselves stay put in a slab
/// whose freed slots are reused, so a warm queue never allocates.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(Time, u64, usize)>>,
    slab: Vec<Option<Event>>,
    free: Vec<usize>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at: Time, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, Event)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slab[slot].take().expect("a queued key owns its slot");
        self.free.push(slot);
        Some((at, event))
    }

    /// The instant of the next event.
    fn next_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

struct ProcEntry {
    automaton: Box<dyn Automaton>,
    alive: bool,
    /// The operation this client is running (at most one, §2.2).
    pending: Option<OpId>,
}

/// Installed processes, one column per kind (writers by register,
/// readers, servers) indexed by the id's number. Writer slot 0 is
/// [`ProcessId::Writer`], the canonical spelling of the default
/// register's writer ([`ProcessId::writer`]).
#[derive(Default)]
struct ProcTable([Vec<Option<ProcEntry>>; 3]);

impl ProcTable {
    fn slot(p: ProcessId) -> (usize, usize) {
        match p {
            ProcessId::Writer => (0, 0),
            ProcessId::WriterOf(reg) => (0, reg.index()),
            ProcessId::Reader(r) => (1, r.index()),
            ProcessId::Server(s) => (2, s.index()),
        }
    }

    fn id(column: usize, i: usize) -> ProcessId {
        match column {
            0 => ProcessId::writer(RegisterId(i as u32)),
            1 => ProcessId::Reader(ReaderId(i as u16)),
            _ => ProcessId::Server(ServerId(i as u16)),
        }
    }

    fn get(&self, p: ProcessId) -> Option<&ProcEntry> {
        let (column, i) = Self::slot(p);
        self.0[column].get(i)?.as_ref()
    }

    fn get_mut(&mut self, p: ProcessId) -> Option<&mut ProcEntry> {
        let (column, i) = Self::slot(p);
        self.0[column].get_mut(i)?.as_mut()
    }

    /// `p`'s slot, grown into the table if it lies beyond it.
    fn slot_mut(&mut self, p: ProcessId) -> &mut Option<ProcEntry> {
        let (column, i) = Self::slot(p);
        let column = &mut self.0[column];
        if column.len() <= i {
            column.resize_with(i + 1, || None);
        }
        &mut column[i]
    }

    /// Every installed process.
    fn ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.0.iter().enumerate().flat_map(|(column, entries)| {
            entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.is_some())
                .map(move |(i, _)| Self::id(column, i))
        })
    }
}

/// The deterministic discrete-event world: processes, clock, network.
///
/// Events run in `(time, seq)` order: earliest instant first, and events
/// due at one instant in the order they were scheduled. So a run is a
/// function of its seed, processes and schedule. Operation `OpId(n)` is
/// the `n`-th operation invoked through the world, and its record is
/// `history().ops[n]`.
///
/// See the crate-level docs for an end-to-end example.
pub struct World {
    now: Time,
    queue: EventQueue,
    procs: ProcTable,
    net: NetworkModel,
    rng: SmallRng,
    gates: BTreeSet<(ProcessId, ProcessId)>,
    held: BTreeMap<(ProcessId, ProcessId), Vec<Message>>,
    /// Every invoked operation; `OpId(n)` is `history.ops[n]`.
    history: History,
    /// Operations abandoned by their client (never completed), with the
    /// instant of abandonment.
    failed_ops: BTreeMap<OpId, Time>,
    steps: u64,
    /// The effects buffer every step hands its automaton; drained after
    /// the step, so its vectors keep their capacity.
    eff: Effects,
    trace: Option<Vec<TraceEntry>>,
    batch: BatchConfig,
    /// Shared trace rollup (deliveries, settles, failures); `None`
    /// keeps the engine free of any tracing cost.
    tracer: Option<Arc<lucky_trace::Tracer>>,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("queued_events", &self.queue.len())
            .field("processes", &self.procs.ids().count())
            .field("ops", &self.history.ops.len())
            .finish()
    }
}

impl World {
    /// Create a world with the given network model and RNG seed. Runs with
    /// equal seeds, processes and schedules are bit-for-bit identical.
    pub fn new(net: NetworkModel, seed: u64) -> World {
        World {
            now: Time::ZERO,
            queue: EventQueue::default(),
            procs: ProcTable::default(),
            net,
            rng: SmallRng::seed_from_u64(seed),
            gates: BTreeSet::new(),
            held: BTreeMap::new(),
            history: History::new(),
            failed_ops: BTreeMap::new(),
            steps: 0,
            eff: Effects::new(),
            trace: None,
            batch: BatchConfig::disabled(),
            tracer: None,
        }
    }

    /// Install a wire-message batching policy. When enabled, the messages
    /// one process step sends to a single destination travel as one
    /// [`Message::batch`] wire message — one schedulable event, one
    /// sampled network delay, atomic in-order delivery of its parts — and
    /// [`World::release`] delivers a gated link's backlog the same way.
    /// Disabled (the default), scheduling is exactly the pre-batching
    /// behaviour, including the order of RNG delay draws.
    pub fn set_batch(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// The installed batching policy.
    pub fn batch(&self) -> BatchConfig {
        self.batch
    }

    /// Start recording a message trace (every processed delivery). Useful
    /// when debugging adversarial schedules; off by default because traces
    /// grow with the run.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded trace (empty if tracing was never enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Report deliveries, op settles and op failures to `tracer` (its
    /// flight recorder and luck counters). Unlike [`World::enable_trace`]
    /// this is bounded: the tracer keeps a ring, not the whole run.
    pub fn set_tracer(&mut self, tracer: Arc<lucky_trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The installed tracer, if it is recording.
    fn enabled_tracer(&self) -> Option<&lucky_trace::Tracer> {
        self.tracer.as_deref().filter(|t| t.is_enabled())
    }

    /// Map a process to its trace actor, resolving a client's register
    /// through its pending operation (readers are globally numbered, so
    /// the id alone does not name the register).
    fn tracer_actor(&self, p: ProcessId) -> lucky_trace::Actor {
        use lucky_trace::Actor;
        let client_reg = |p: ProcessId| {
            self.procs
                .get(p)
                .and_then(|e| e.pending)
                .map_or(0, |op| self.history.ops[op.0 as usize].reg.index() as u32)
        };
        match p {
            ProcessId::Writer => Actor::Writer { reg: 0 },
            ProcessId::WriterOf(reg) => Actor::Writer { reg: reg.index() as u32 },
            ProcessId::Reader(r) => Actor::Reader { reg: client_reg(p), id: r.0 },
            ProcessId::Server(s) => Actor::Server { id: s.0 },
        }
    }

    /// Install a process. Replaces any previous automaton at this id
    /// (used to install Byzantine behaviours at a server's address).
    ///
    /// # Panics
    ///
    /// Panics on `ProcessId::WriterOf(RegisterId::DEFAULT)`: the default
    /// register's writer is [`ProcessId::Writer`] (see
    /// [`ProcessId::writer`]).
    pub fn add_process(&mut self, id: ProcessId, automaton: Box<dyn Automaton>) {
        assert!(
            id != ProcessId::WriterOf(RegisterId::DEFAULT),
            "the default register's writer is ProcessId::Writer (use ProcessId::writer)"
        );
        let slot = self.procs.slot_mut(id);
        let pending = slot.as_ref().and_then(|e| e.pending);
        *slot = Some(ProcEntry { automaton, alive: true, pending });
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The run history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Consume the world, returning the history.
    pub fn into_history(self) -> History {
        self.history
    }

    /// The record of operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` was never invoked through this world.
    pub fn record(&self, op: OpId) -> &OpRecord {
        self.history.ops.get(op.0 as usize).expect("unknown op id")
    }

    /// The instant at which the client abandoned `op` (see
    /// [`Effects::fail_op`]), or `None` if it was never abandoned.
    pub fn op_failed(&self, op: OpId) -> Option<Time> {
        self.failed_ops.get(&op).copied()
    }

    /// Mutable access to the network model (delay reconfiguration between
    /// phases of an experiment).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    // ------------------------------------------------------------------
    // Fault and schedule control
    // ------------------------------------------------------------------

    /// Crash `p` at time `at` (no further steps after that instant).
    pub fn crash_at(&mut self, p: ProcessId, at: Time) {
        self.schedule(at, p, EventKind::Crash);
    }

    /// Crash `p` immediately.
    pub fn crash_now(&mut self, p: ProcessId) {
        let proc_ = self.procs.get_mut(p).expect("unknown process");
        proc_.alive = false;
    }

    /// Restart `p` at time `at`: replace its automaton with whatever
    /// `build` produces **at that instant** and mark the process alive
    /// again. The builder runs lazily so a durable-recovery builder
    /// replays the log as it stands when the restart fires — events
    /// scheduled between now and `at` (including further crashes) land
    /// first. Messages sent to `p` while it was down stay lost, exactly
    /// like a real process that was not listening.
    ///
    /// For an immediate restart use [`World::add_process`], which
    /// replaces the automaton and revives in one call.
    pub fn restart_at(
        &mut self,
        p: ProcessId,
        at: Time,
        build: Box<dyn FnOnce() -> Box<dyn Automaton> + Send>,
    ) {
        self.schedule(at, p, EventKind::Restart { build });
    }

    /// `true` iff `p` has not crashed.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.procs.get(p).is_some_and(|e| e.alive)
    }

    /// Hold all messages sent on the directed link `from → to` from now
    /// on: they stay "in transit" until [`World::release`] (or forever).
    pub fn hold(&mut self, from: ProcessId, to: ProcessId) {
        self.gates.insert((from, to));
    }

    /// Hold every directed link out of `p`.
    pub fn hold_all_from(&mut self, p: ProcessId) {
        let others: Vec<_> = self.procs.ids().filter(|&q| q != p).collect();
        for q in others {
            self.hold(p, q);
        }
    }

    /// Hold every directed link into `p`.
    pub fn hold_all_to(&mut self, p: ProcessId) {
        let others: Vec<_> = self.procs.ids().filter(|&q| q != p).collect();
        for q in others {
            self.hold(q, p);
        }
    }

    /// Stop holding `from → to` and deliver every held message with a
    /// fresh network delay from the current instant. With batching
    /// enabled the backlog travels as batches (up to `max_msgs` parts
    /// each), every batch one event with one sampled delay.
    pub fn release(&mut self, from: ProcessId, to: ProcessId) {
        self.gates.remove(&(from, to));
        if let Some(msgs) = self.held.remove(&(from, to)) {
            let mut sends = msgs.into_iter().map(|msg| (to, msg)).collect();
            self.batch.coalesce(&mut sends);
            for (_, msg) in sends {
                let delay = self.net.sample(from, to, &mut self.rng);
                let at = self.now + delay;
                self.schedule(at, to, EventKind::Deliver { from, msg });
            }
        }
    }

    /// Stop holding every link out of `p`, delivering held messages.
    pub fn release_all_from(&mut self, p: ProcessId) {
        let links: Vec<_> = self.gates.iter().copied().filter(|&(f, _)| f == p).collect();
        for (f, t) in links {
            self.release(f, t);
        }
    }

    /// Discard all messages currently held on `from → to` **and keep the
    /// gate closed**. Models a partial run in which those messages remain
    /// in transit beyond the end of the experiment.
    pub fn drop_held(&mut self, from: ProcessId, to: ProcessId) {
        self.held.remove(&(from, to));
    }

    /// Number of messages currently held on `from → to`.
    pub fn held_count(&self, from: ProcessId, to: ProcessId) -> usize {
        self.held.get(&(from, to)).map_or(0, Vec::len)
    }

    /// Inject `msg` into the channel `from → to` as if `from` had sent it.
    ///
    /// This models the paper's malicious-process capability of putting
    /// arbitrary messages into **its own** channels (§2.1) — use it only
    /// to script Byzantine senders; honest processes send exclusively
    /// through their automaton's [`Effects`]. Gates on the link apply as
    /// usual.
    pub fn send_as(&mut self, from: ProcessId, to: ProcessId, msg: Message) {
        if self.gates.contains(&(from, to)) {
            self.held.entry((from, to)).or_default().push(msg);
        } else {
            let delay = self.net.sample(from, to, &mut self.rng);
            let at = self.now + delay;
            self.schedule(at, to, EventKind::Deliver { from, msg });
        }
    }

    // ------------------------------------------------------------------
    // Invocations
    // ------------------------------------------------------------------

    /// Invoke `op` on `client` now (on the default register). Returns the
    /// operation id.
    pub fn invoke(&mut self, client: ProcessId, op: Op) -> OpId {
        self.invoke_at(self.now, client, op)
    }

    /// Invoke `op` on `client` at time `at` (≥ now), on the default
    /// register. Multi-register stores use [`World::invoke_on_at`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `client` is unknown.
    pub fn invoke_at(&mut self, at: Time, client: ProcessId, op: Op) -> OpId {
        self.invoke_on_at(at, client, RegisterId::DEFAULT, op)
    }

    /// Invoke `op` on `client` at time `at` (≥ now), recording it against
    /// register `reg`. The register is bookkeeping only — the client core
    /// itself decides which register its messages target — but it lets
    /// per-register checkers partition the resulting history.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `client` is unknown.
    pub fn invoke_on_at(&mut self, at: Time, client: ProcessId, reg: RegisterId, op: Op) -> OpId {
        assert!(at >= self.now, "cannot invoke in the past");
        assert!(self.procs.get(client).is_some(), "unknown client {client}");
        let id = OpId(self.history.ops.len() as u64);
        self.history.ops.push(OpRecord {
            id,
            reg,
            client,
            op,
            invoked_at: at,
            completed_at: None,
            result: None,
            rounds: 0,
            fast: false,
            msgs: 0,
            bytes: 0,
        });
        self.schedule(at, client, EventKind::Invoke { op_id: id });
        id
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, Event { to: proc_id, kind })) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        self.steps += 1;

        let Some(entry) = self.procs.get_mut(proc_id) else {
            return true; // message to a process that was never installed
        };

        let kind = match kind {
            EventKind::Crash => {
                entry.alive = false;
                return true;
            }
            // Restarts apply to dead processes — that is their point.
            EventKind::Restart { build } => {
                entry.automaton = build();
                entry.alive = true;
                return true;
            }
            other => other,
        };
        if !entry.alive {
            return true; // crashed processes take no steps
        }

        let now = self.now;
        let mut eff = std::mem::take(&mut self.eff);
        match kind {
            EventKind::Deliver { from, msg } => {
                self.account_delivery(proc_id, &msg);
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEntry { time: self.now, from, to: proc_id, label: msg.kind() });
                }
                if let Some(tracer) = self.enabled_tracer() {
                    tracer.record_delivery(
                        self.now.0,
                        self.tracer_actor(from),
                        self.tracer_actor(proc_id),
                    );
                }
                let entry = self.procs.get_mut(proc_id).expect("checked above");
                entry.automaton.on_message(now, from, msg, &mut eff);
            }
            EventKind::Timer { id } => {
                let entry = self.procs.get_mut(proc_id).expect("checked above");
                entry.automaton.on_timer(now, id, &mut eff);
            }
            EventKind::Invoke { op_id } => {
                let entry = self.procs.get_mut(proc_id).expect("checked above");
                let prev = entry.pending.replace(op_id);
                assert!(
                    prev.is_none(),
                    "client {proc_id} invoked {op_id} with an operation pending \
                     (clients invoke at most one operation at a time, §2.2)"
                );
                let op = self.history.ops[op_id.0 as usize].op.clone();
                entry.automaton.on_invoke(now, op, &mut eff);
            }
            EventKind::Crash | EventKind::Restart { .. } => unreachable!("handled above"),
        }
        self.apply_effects(proc_id, &mut eff);
        self.eff = eff;
        true
    }

    /// Run until the event queue is empty or `max_steps` have been taken.
    /// Returns the number of steps taken.
    pub fn run_until_idle(&mut self, max_steps: u64) -> u64 {
        let mut taken = 0;
        while taken < max_steps && self.step() {
            taken += 1;
        }
        taken
    }

    /// Process every event scheduled at or before `deadline`, then advance
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while self.queue.next_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Step until operation `op` completes.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] if the queue drains first,
    /// [`RunError::StepBudgetExhausted`] after 10 million steps.
    pub fn run_until_complete(&mut self, op: OpId) -> Result<&OpRecord, RunError> {
        const BUDGET: u64 = 10_000_000;
        let mut taken = 0;
        while !self.record(op).is_complete() {
            if let Some(at) = self.op_failed(op) {
                return Err(RunError::OpFailed { op, at });
            }
            if taken >= BUDGET {
                return Err(RunError::StepBudgetExhausted);
            }
            if !self.step() {
                return Err(RunError::Stalled { op });
            }
            taken += 1;
        }
        Ok(self.record(op))
    }

    /// Step until each of `ops` completes (any interleaving).
    ///
    /// # Errors
    ///
    /// Same conditions as [`World::run_until_complete`].
    pub fn run_until_all_complete(&mut self, ops: &[OpId]) -> Result<(), RunError> {
        for &op in ops {
            self.run_until_complete(op)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, at: Time, to: ProcessId, kind: EventKind) {
        self.queue.push(at, Event { to, kind });
    }

    /// The record of the operation `client` is running, if any.
    fn pending_record(&mut self, client: ProcessId) -> Option<&mut OpRecord> {
        let op = self.procs.get(client)?.pending?;
        Some(&mut self.history.ops[op.0 as usize])
    }

    fn account_delivery(&mut self, to: ProcessId, msg: &Message) {
        if to.is_client() {
            if let Some(rec) = self.pending_record(to) {
                rec.msgs += 1;
                rec.bytes += msg.wire_size() as u64;
            }
        }
    }

    /// End `client`'s pending operation (`how` names the way, for the
    /// panic when there is none).
    fn take_pending(&mut self, client: ProcessId, how: &str) -> OpId {
        self.procs
            .get_mut(client)
            .and_then(|e| e.pending.take())
            .unwrap_or_else(|| panic!("{client} {how} with no pending operation"))
    }

    /// Apply (and drain) the effects of `from`'s step.
    fn apply_effects(&mut self, from: ProcessId, eff: &mut Effects) {
        // Coalesce one step's sends per destination into wire messages.
        // Disabled, or with no destination named twice, this is the
        // identity — same messages, same RNG draw order — so unbatched
        // runs are bit-identical to pre-batching.
        self.batch.coalesce(&mut eff.sends);
        // Client-side message accounting (per wire message: a batch
        // counts once — that is the complexity the metric tracks).
        if from.is_client() {
            if let Some(rec) = self.pending_record(from) {
                rec.msgs += eff.sends.len() as u64;
                rec.bytes += eff.sends.iter().map(|(_, m)| m.wire_size() as u64).sum::<u64>();
            }
        }
        for (to, msg) in eff.sends.drain(..) {
            if self.gates.contains(&(from, to)) {
                self.held.entry((from, to)).or_default().push(msg);
            } else {
                let delay = self.net.sample(from, to, &mut self.rng);
                let at = self.now + delay;
                self.schedule(at, to, EventKind::Deliver { from, msg });
            }
        }
        for (id, delay) in eff.timers.drain(..) {
            let at = self.now + delay;
            self.schedule(at, from, EventKind::Timer { id });
        }
        if let Some(Completion { value, rounds, fast }) = eff.completion.take() {
            let actor = self.enabled_tracer().map(|_| self.tracer_actor(from));
            let op = self.take_pending(from, "completed");
            let rec = &mut self.history.ops[op.0 as usize];
            rec.completed_at = Some(self.now);
            rec.result = value;
            rec.rounds = rounds;
            rec.fast = fast;
            if let (Some(actor), Some(tracer)) = (actor, &self.tracer) {
                let write = matches!(rec.op, Op::Write(_));
                let mut span = lucky_trace::OpSpan::begin(rec.invoked_at.0);
                span.settle(self.now.0, false);
                let latency = self.now.0.saturating_sub(rec.invoked_at.0);
                tracer.record_settle(actor, write, rounds, fast, latency, &span);
            }
        }
        if std::mem::take(&mut eff.failed) {
            let actor = self.enabled_tracer().map(|_| self.tracer_actor(from));
            let op = self.take_pending(from, "failed");
            self.failed_ops.insert(op, self.now);
            if let (Some(actor), Some(tracer)) = (actor, &self.tracer) {
                let rec = &self.history.ops[op.0 as usize];
                let write = matches!(rec.op, Op::Write(_));
                let mut span = lucky_trace::OpSpan::begin(rec.invoked_at.0);
                span.deadline(self.now.0);
                tracer.record_failure(actor, write, lucky_trace::FailReason::Deadline, &span);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{ReadMsg, ReadSeq, ServerId, Value};

    /// The one message the toy automata below exchange.
    fn probe() -> Message {
        Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 })
    }

    /// Echo server used by the engine tests: replies with what it got.
    struct Echo;
    impl Automaton for Echo {
        fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
            eff.send(from, msg);
        }
    }

    /// Client that pings `n` servers and completes when all reply.
    struct FanOut {
        expect: usize,
        got: usize,
    }
    impl Automaton for FanOut {
        fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
            for s in ServerId::all(self.expect) {
                eff.send(ProcessId::Server(s), probe());
            }
        }
        fn on_message(&mut self, _now: Time, _from: ProcessId, _msg: Message, eff: &mut Effects) {
            self.got += 1;
            if self.got == self.expect {
                eff.complete(Some(Value::from_u64(self.got as u64)), 1, true);
            }
        }
    }

    /// Client that completes when its timer fires.
    struct TimerClient;
    impl Automaton for TimerClient {
        fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
            eff.set_timer(TimerId(3), 777);
        }
        fn on_message(&mut self, _now: Time, _from: ProcessId, _msg: Message, _eff: &mut Effects) {}
        fn on_timer(&mut self, _now: Time, id: TimerId, eff: &mut Effects) {
            assert_eq!(id, TimerId(3));
            eff.complete(None, 1, false);
        }
    }

    fn fan_out_world(servers: usize, seed: u64) -> World {
        let mut w = World::new(NetworkModel::constant(50), seed);
        for s in ServerId::all(servers) {
            w.add_process(ProcessId::Server(s), Box::new(Echo));
        }
        w.add_process(ProcessId::Writer, Box::new(FanOut { expect: servers, got: 0 }));
        w
    }

    #[test]
    fn round_trip_latency_is_two_hops() {
        let mut w = fan_out_world(3, 0);
        let op = w.invoke(ProcessId::Writer, Op::Read);
        let rec = w.run_until_complete(op).unwrap();
        assert_eq!(rec.latency(), Some(100));
        assert!(rec.fast);
        // 3 sends + 3 replies accounted.
        assert_eq!(rec.msgs, 6);
    }

    #[test]
    fn timer_fires_at_requested_delay() {
        let mut w = World::new(NetworkModel::constant(50), 0);
        w.add_process(ProcessId::Writer, Box::new(TimerClient));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        let rec = w.run_until_complete(op).unwrap();
        assert_eq!(rec.latency(), Some(777));
    }

    #[test]
    fn crashed_server_never_replies() {
        let mut w = fan_out_world(3, 0);
        w.crash_now(ProcessId::Server(ServerId(2)));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        let err = w.run_until_complete(op).unwrap_err();
        assert_eq!(err, RunError::Stalled { op });
        assert!(!w.record(op).is_complete());
    }

    #[test]
    fn crash_at_takes_effect_at_that_instant() {
        let mut w = fan_out_world(1, 0);
        // Crash after the request is delivered (50) but the reply is already
        // in flight, so the operation still completes.
        w.crash_at(ProcessId::Server(ServerId(0)), Time(60));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        assert!(w.run_until_complete(op).is_ok());

        // Crash before delivery: no reply ever.
        let mut w = fan_out_world(1, 0);
        w.crash_at(ProcessId::Server(ServerId(0)), Time(10));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        assert!(w.run_until_complete(op).is_err());
        assert!(!w.is_alive(ProcessId::Server(ServerId(0))));
    }

    #[test]
    fn restart_at_revives_a_crashed_process_lazily() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut w = fan_out_world(1, 0);
        let s0 = ProcessId::Server(ServerId(0));
        w.crash_now(s0);
        let built = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&built);
        w.restart_at(
            s0,
            Time(500),
            Box::new(move || {
                flag.store(true, Ordering::Relaxed);
                Box::new(Echo)
            }),
        );
        assert!(!built.load(Ordering::Relaxed), "builder deferred to the restart instant");
        w.run_until(Time(500));
        assert!(w.is_alive(s0), "restart revives the process");
        assert!(built.load(Ordering::Relaxed));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        assert!(w.run_until_complete(op).is_ok(), "the revived server answers again");
    }

    #[test]
    fn gated_links_hold_messages_until_release() {
        let mut w = fan_out_world(2, 0);
        w.hold(ProcessId::Writer, ProcessId::Server(ServerId(1)));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        // Only server 0 gets the request; the op cannot complete.
        assert!(w.run_until_complete(op).is_err());
        assert_eq!(w.held_count(ProcessId::Writer, ProcessId::Server(ServerId(1))), 1);
        // Release: the held message is delivered and the op completes.
        w.release(ProcessId::Writer, ProcessId::Server(ServerId(1)));
        assert!(w.run_until_complete(op).is_ok());
    }

    #[test]
    fn drop_held_discards_but_keeps_gate() {
        let mut w = fan_out_world(2, 0);
        w.hold(ProcessId::Writer, ProcessId::Server(ServerId(1)));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        let _ = w.run_until_complete(op);
        w.drop_held(ProcessId::Writer, ProcessId::Server(ServerId(1)));
        assert_eq!(w.held_count(ProcessId::Writer, ProcessId::Server(ServerId(1))), 0);
        w.release(ProcessId::Writer, ProcessId::Server(ServerId(1)));
        // Message was dropped: still stalled.
        assert!(w.run_until_complete(op).is_err());
    }

    #[test]
    fn hold_all_from_gates_every_outgoing_link() {
        let mut w = fan_out_world(3, 0);
        w.hold_all_from(ProcessId::Writer);
        let op = w.invoke(ProcessId::Writer, Op::Read);
        assert!(w.run_until_complete(op).is_err());
        let total: usize =
            (0..3).map(|i| w.held_count(ProcessId::Writer, ProcessId::Server(ServerId(i)))).sum();
        assert_eq!(total, 3);
        w.release_all_from(ProcessId::Writer);
        assert!(w.run_until_complete(op).is_ok());
    }

    #[test]
    fn identical_seeds_produce_identical_histories() {
        let run = |seed| {
            let mut w = fan_out_world(3, seed);
            let mut net = NetworkModel::uniform(10, 500);
            std::mem::swap(w.network_mut(), &mut net);
            let op = w.invoke(ProcessId::Writer, Op::Read);
            w.run_until_complete(op).unwrap();
            w.into_history()
        };
        assert_eq!(run(42), run(42));
        // Different seeds almost surely differ in latency.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = World::new(NetworkModel::constant(1), 0);
        w.add_process(ProcessId::Writer, Box::new(TimerClient));
        w.run_until(Time(5000));
        assert_eq!(w.now(), Time(5000));
    }

    #[test]
    fn run_until_only_processes_events_up_to_deadline() {
        let mut w = World::new(NetworkModel::constant(1), 0);
        w.add_process(ProcessId::Writer, Box::new(TimerClient));
        let op = w.invoke(ProcessId::Writer, Op::Read); // timer at 777
        w.run_until(Time(700));
        assert!(!w.record(op).is_complete());
        w.run_until(Time(800));
        assert!(w.record(op).is_complete());
    }

    #[test]
    #[should_panic(expected = "at most one operation")]
    fn double_invocation_is_rejected() {
        let mut w = fan_out_world(2, 0);
        w.hold_all_from(ProcessId::Writer);
        let _ = w.invoke(ProcessId::Writer, Op::Read);
        let _ = w.invoke(ProcessId::Writer, Op::Read);
        w.run_until_idle(100);
    }

    #[test]
    #[should_panic(expected = "ProcessId::Writer")]
    fn the_default_registers_writer_has_one_spelling() {
        let mut w = World::new(NetworkModel::constant(1), 0);
        w.add_process(ProcessId::WriterOf(RegisterId::DEFAULT), Box::new(TimerClient));
    }

    #[test]
    fn invoke_at_schedules_in_the_future() {
        let mut w = fan_out_world(2, 0);
        let op = w.invoke_at(Time(1000), ProcessId::Writer, Op::Read);
        let rec = w.run_until_complete(op).unwrap();
        assert_eq!(rec.invoked_at, Time(1000));
        assert_eq!(rec.completed_at, Some(Time(1100)));
    }

    /// Logs every callback as `"<incarnation>@<time>:<what>"`.
    struct Recorder {
        incarnation: u32,
        log: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }
    impl Recorder {
        fn note(&self, now: Time, what: String) {
            self.log.lock().unwrap().push(format!("{}@{}:{what}", self.incarnation, now.0));
        }
    }
    impl Automaton for Recorder {
        fn on_invoke(&mut self, now: Time, _op: Op, eff: &mut Effects) {
            self.note(now, "invoke".into());
            eff.set_timer(TimerId(9), 100);
        }
        fn on_message(&mut self, now: Time, from: ProcessId, msg: Message, _eff: &mut Effects) {
            let Message::Read(m) = msg else { panic!("only probes are sent") };
            self.note(now, format!("{from}#{}", m.tsr.0));
        }
        fn on_timer(&mut self, now: Time, id: TimerId, _eff: &mut Effects) {
            self.note(now, format!("timer{}", id.0));
        }
    }

    /// Events due at one instant run in the order they were scheduled —
    /// deliveries from different senders, a timer, a crash (which drops
    /// the deliveries after it) and a restart (whose new automaton takes
    /// the deliveries after that) — and an earlier instant beats an
    /// earlier scheduling.
    #[test]
    fn events_at_one_instant_run_in_scheduling_order() {
        use std::sync::{Arc, Mutex};
        let log = Arc::new(Mutex::new(Vec::new()));
        let r = ProcessId::Reader(lucky_types::ReaderId(0));
        let (s0, s1) = (ProcessId::Server(ServerId(0)), ProcessId::Server(ServerId(1)));
        let mut w = World::new(NetworkModel::constant(100), 3);
        w.add_process(s0, Box::new(Echo));
        w.add_process(s1, Box::new(Echo));
        w.add_process(r, Box::new(Recorder { incarnation: 1, log: Arc::clone(&log) }));
        let tagged =
            |n| Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(n), rnd: 1 });
        w.invoke(r, Op::Read);
        w.run_until(Time(0)); // the invoke arms the timer for t = 100
        w.send_as(s0, r, tagged(0));
        w.send_as(s1, r, tagged(1));
        w.crash_at(r, Time(100));
        w.send_as(s0, r, tagged(2)); // lost: the reader is down
        let rebuilt = Arc::clone(&log);
        w.restart_at(
            r,
            Time(100),
            Box::new(move || Box::new(Recorder { incarnation: 2, log: rebuilt })),
        );
        w.send_as(s1, r, tagged(3));
        w.network_mut().set_link(s1, r, crate::network::Delay::Constant(50));
        w.send_as(s1, r, tagged(4)); // scheduled last, due first
        w.run_until_idle(100);
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            ["1@0:invoke", "1@50:s1#4", "1@100:timer9", "1@100:s0#0", "1@100:s1#1", "2@100:s1#3"]
        );
        assert_eq!(w.steps(), 9, "invoke + 5 deliveries + timer + crash + restart");
        assert_eq!(w.now(), Time(100));
        assert!(w.is_alive(r));
    }

    #[test]
    fn steps_counter_increments() {
        let mut w = fan_out_world(2, 0);
        let op = w.invoke(ProcessId::Writer, Op::Read);
        w.run_until_complete(op).unwrap();
        // 1 invoke + 2 delivers to servers + 2 delivers to client.
        assert_eq!(w.steps(), 5);
    }

    mod batching {
        use super::*;
        use lucky_types::BatchConfig;

        fn read(reg: u32) -> Message {
            Message::Read(ReadMsg { reg: RegisterId(reg), tsr: ReadSeq(1), rnd: 1 })
        }

        /// Sends `n` READs to server 0 in one step, then completes after
        /// receiving `n` delivery events (batches count their parts).
        struct MultiSend {
            n: usize,
            got: usize,
        }
        impl Automaton for MultiSend {
            fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
                for reg in 0..self.n {
                    eff.send(ProcessId::Server(ServerId(0)), read(reg as u32));
                }
            }
            fn on_message(
                &mut self,
                _now: Time,
                _from: ProcessId,
                msg: Message,
                eff: &mut Effects,
            ) {
                self.got += msg.part_count();
                if self.got >= self.n {
                    eff.complete(None, 1, true);
                }
            }
        }

        /// Echoes every delivery straight back (batches echoed whole).
        struct EchoBack;
        impl Automaton for EchoBack {
            fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
                eff.send(from, msg);
            }
        }

        fn world(batch: BatchConfig, n: usize) -> (World, OpId) {
            let mut w = World::new(NetworkModel::constant(50), 0);
            w.set_batch(batch);
            w.add_process(ProcessId::Server(ServerId(0)), Box::new(EchoBack));
            w.add_process(ProcessId::Writer, Box::new(MultiSend { n, got: 0 }));
            let op = w.invoke(ProcessId::Writer, Op::Read);
            (w, op)
        }

        #[test]
        fn one_steps_same_destination_sends_travel_as_one_event() {
            let (mut w, op) = world(BatchConfig::enabled(16), 4);
            let msgs = w.run_until_complete(op).unwrap().msgs;
            // 1 invoke + 1 batched delivery to the server + 1 back.
            assert_eq!(w.steps(), 3, "the four messages travel as one event each way");
            assert_eq!(msgs, 2, "one wire message out, one back");
            // Unbatched: 4 events each way, 8 wire messages.
            let (mut w, op) = world(BatchConfig::disabled(), 4);
            let msgs = w.run_until_complete(op).unwrap().msgs;
            assert_eq!(w.steps(), 9);
            assert_eq!(msgs, 8);
        }

        #[test]
        fn max_msgs_caps_the_batch_size() {
            let (mut w, op) = world(BatchConfig::enabled(3), 4);
            w.run_until_complete(op).unwrap();
            // 1 invoke + 2 wire messages out (3+1 parts) + 2 echoed back.
            assert_eq!(w.steps(), 5);
        }

        #[test]
        fn release_delivers_a_gated_backlog_as_one_batch() {
            let (mut w, op) = world(BatchConfig::enabled(16), 3);
            let s0 = ProcessId::Server(ServerId(0));
            w.hold(ProcessId::Writer, s0);
            assert!(w.run_until_complete(op).is_err(), "gated: nothing delivered");
            assert_eq!(w.held_count(ProcessId::Writer, s0), 1, "the batch is held whole");
            let steps_before = w.steps();
            w.release(ProcessId::Writer, s0);
            w.run_until_complete(op).unwrap();
            assert_eq!(w.steps() - steps_before, 2, "one delivery each way after release");
        }

        #[test]
        fn disabled_batching_is_the_default() {
            let w = World::new(NetworkModel::constant(1), 0);
            assert!(!w.batch().enabled);
        }

        /// Absorbs every delivery (a client with no operation pending).
        struct Sink;
        impl Automaton for Sink {
            fn on_message(&mut self, _n: Time, _f: ProcessId, _m: Message, _e: &mut Effects) {}
        }

        #[test]
        fn release_bounds_batches_by_flattened_parts_not_envelopes() {
            let mut w = World::new(NetworkModel::constant(50), 0);
            w.set_batch(BatchConfig::enabled(4));
            let s0 = ProcessId::Server(ServerId(0));
            w.add_process(s0, Box::new(EchoBack));
            w.add_process(ProcessId::Writer, Box::new(Sink));
            w.hold(ProcessId::Writer, s0);
            // Two pre-formed 3-part batches held on the gated link:
            // releasing must NOT merge them into one 6-part batch (the
            // max_msgs = 4 bound is on protocol messages, and merging
            // flattens nested envelopes).
            let three = |base: u32| Message::batch((base..base + 3).map(read).collect());
            w.send_as(ProcessId::Writer, s0, three(0));
            w.send_as(ProcessId::Writer, s0, three(10));
            assert_eq!(w.held_count(ProcessId::Writer, s0), 2);
            w.release(ProcessId::Writer, s0);
            w.run_until_idle(100);
            // 2 deliveries to the server, echoed back whole as 2 more.
            assert_eq!(w.steps(), 4, "3+3 parts must ship as two wire messages, not one");
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::automaton::{Automaton, Effects};
    use lucky_types::{Op, ReadMsg, ReadSeq, ServerId};

    fn probe() -> Message {
        Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 })
    }

    struct Echo;
    impl Automaton for Echo {
        fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
            eff.send(from, msg);
        }
    }
    struct Probe;
    impl Automaton for Probe {
        fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
            eff.send(ProcessId::Server(ServerId(0)), probe());
        }
        fn on_message(&mut self, _now: Time, _from: ProcessId, _msg: Message, eff: &mut Effects) {
            eff.complete(None, 1, true);
        }
    }

    #[test]
    fn trace_records_processed_deliveries_in_order() {
        let mut w = World::new(NetworkModel::constant(10), 0);
        w.add_process(ProcessId::Server(ServerId(0)), Box::new(Echo));
        w.add_process(ProcessId::Writer, Box::new(Probe));
        w.enable_trace();
        let op = w.invoke(ProcessId::Writer, Op::Read);
        w.run_until_complete(op).unwrap();
        let trace = w.trace();
        assert_eq!(trace.len(), 2, "request + reply");
        assert_eq!(trace[0].from, ProcessId::Writer);
        assert_eq!(trace[0].to, ProcessId::Server(ServerId(0)));
        assert_eq!(trace[1].from, ProcessId::Server(ServerId(0)));
        assert!(trace[0].time <= trace[1].time);
        // Entries carry the message kind as their label.
        assert_eq!(trace[0].label, "READ");
        // Display renders a readable line.
        let line = trace[0].to_string();
        assert!(line.contains("w") && line.contains("s0"));
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let mut w = World::new(NetworkModel::constant(10), 0);
        w.add_process(ProcessId::Server(ServerId(0)), Box::new(Echo));
        w.add_process(ProcessId::Writer, Box::new(Probe));
        let op = w.invoke(ProcessId::Writer, Op::Read);
        w.run_until_complete(op).unwrap();
        assert!(w.trace().is_empty());
    }
}
