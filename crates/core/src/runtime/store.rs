//! The store facade over the simulator runtime.
//!
//! The paper emulates *one* robust register; a production store serves a
//! whole namespace of them over a single `S = 2t + b + 1` server cluster.
//! [`StoreConfig`] names the variant, the network regime and the register
//! namespace; [`SimStore`] wires one simulated cluster serving all of it:
//! every register gets its own writer process and reader processes, every
//! server multiplexes per-register state through a
//! [`RegisterMux`](crate::runtime::RegisterMux), and [`SimStore::register`]
//! hands out typed [`SimRegister`] handles exposing the familiar
//! `write`/`read`/`invoke_*` operations. The default namespace is the
//! paper's single register, [`RegisterId::DEFAULT`], whose writer is
//! [`ProcessId::Writer`] and whose reader `j` is `ReaderId(j)`.
//!
//! ```
//! use lucky_core::StoreConfig;
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(1, 0, 1, 0)?;
//! let mut store = StoreConfig::synchronous(params).registers(4).build_sim();
//! for reg in RegisterId::all(4) {
//!     store.register(reg).write(Value::from_u64(100 + reg.0 as u64));
//! }
//! let r = store.register(RegisterId(2)).read(0);
//! assert_eq!(r.value.as_u64(), Some(102));
//! assert_eq!(r.reg, RegisterId(2));
//! store.check_atomicity()?; // every register independently atomic
//! # Ok(())
//! # }
//! ```

use crate::byz;
use crate::config::ProtocolConfig;
use crate::runtime::adapters::{ServerAutomaton, ServerCore, SessionAutomaton};
use crate::runtime::session::SessionConfig;
use crate::runtime::setup::Setup;
use lucky_checker::Violations;
use lucky_log::LogCounters;
use lucky_sim::{NetworkModel, RunError, World};
use lucky_types::{
    BatchConfig, History, Op, OpId, OpKind, OpRecord, ProcessId, ReaderId, RegisterId, ServerId,
    Time, Value,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The synchrony bound δ used by the presets, in microseconds.
pub const SYNC_BOUND_MICROS: u64 = 100;

/// Configuration of a store: the protocol variant, the network regime and
/// the shape of the register namespace.
///
/// The presets encode the two network regimes the paper distinguishes
/// (§2.3): [`StoreConfig::synchronous`] keeps every delay within the bound
/// the clients' timers assume (δ = [`SYNC_BOUND_MICROS`]), so operations
/// are *lucky* whenever they are contention-free;
/// [`StoreConfig::asynchronous`] draws delays far beyond that bound. Both
/// serve one register with one reader; chain [`StoreConfig::registers`]
/// and [`StoreConfig::readers_per_register`] to size the namespace, then
/// build a runtime with [`StoreConfig::build_sim`] (or hand the config to
/// `lucky-net`'s `NetStore` for the threaded runtime).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Protocol variant and resilience parameters.
    pub setup: Setup,
    /// Protocol tunables (timers, fast paths, freezing).
    pub protocol: ProtocolConfig,
    /// Network delay model.
    pub net: NetworkModel,
    /// Simulation seed.
    pub seed: u64,
    /// Number of registers the store serves (≥ 1).
    pub registers: usize,
    /// Reader processes per register.
    pub readers_per_register: usize,
    /// Wire-message batching policy (off by default): when enabled, the
    /// world delivers same-destination messages as single batch events
    /// and servers re-batch their acks per sender.
    pub batch: BatchConfig,
    /// Per-operation client-session deadline in virtual microseconds
    /// (`None`, the default, never times out): an operation still
    /// pending this long after its invocation is abandoned by its
    /// session at exactly that tick, surfacing as
    /// [`RunError::OpFailed`](lucky_sim::RunError::OpFailed).
    pub op_deadline_micros: Option<u64>,
    /// When set, every server persists its per-register state in an
    /// append-only log under `<dir>/s<i>/` (one subdirectory per
    /// server), and [`SimStore::restart_server`] /
    /// [`SimStore::restart_server_at`] revive crashed servers by
    /// replaying those logs. `None` (the default) keeps servers purely
    /// in-memory — a restarted server comes back amnesiac.
    pub durable_dir: Option<PathBuf>,
    /// Tracing configuration (disabled by default): when enabled, the
    /// store keeps per-op latency histograms, lucky/slow fast-path
    /// counters and a bounded flight recorder, all surfaced through
    /// [`SimStore::trace`].
    pub trace: lucky_trace::TraceConfig,
    /// Number of independent server **groups** the register namespace is
    /// consistent-hashed across (1, the default, is the classic
    /// single-quorum store). A single-group config builds directly via
    /// [`StoreConfig::build_sim`] / `lucky-net`'s `NetStore`; a
    /// multi-group config is consumed by `lucky-shard`'s sharded stores,
    /// which build one engine — server set, router slot-space, stats and
    /// checker partition — *per group*, with [`StoreConfig::registers`]
    /// acting as each group's materialization quota.
    pub groups: usize,
    /// Per-group protocol setup overrides, keyed by group index: a group
    /// listed here runs its own quorum parameters (S, B and the timers
    /// derived from them) instead of the store-wide `setup`. Resolved
    /// through [`StoreConfig::setup_for`]; consumed by `lucky-shard`.
    pub group_setups: Vec<(u16, Setup)>,
}

impl StoreConfig {
    fn preset(setup: Setup, max_delay_micros: u64) -> StoreConfig {
        StoreConfig {
            setup,
            protocol: ProtocolConfig::for_sync_bound(SYNC_BOUND_MICROS),
            net: NetworkModel::uniform(SYNC_BOUND_MICROS / 2, max_delay_micros),
            seed: 0,
            registers: 1,
            readers_per_register: 1,
            batch: BatchConfig::disabled(),
            op_deadline_micros: None,
            durable_dir: None,
            trace: lucky_trace::TraceConfig::disabled(),
            groups: 1,
            group_setups: Vec::new(),
        }
    }

    /// `setup` on a synchronous network: every delay within δ. Accepts a
    /// [`Setup`] directly or anything converting into one (`Params` for
    /// the atomic variant, `TwoRoundParams`); the regular variant is
    /// `Setup::Regular(params)`.
    pub fn synchronous(setup: impl Into<Setup>) -> StoreConfig {
        StoreConfig::preset(setup.into(), SYNC_BOUND_MICROS)
    }

    /// `setup` on an asynchronous network: delays up to 200δ, so round-1
    /// timers expire long before a quorum assembles and no operation is
    /// synchronous.
    pub fn asynchronous(setup: impl Into<Setup>) -> StoreConfig {
        StoreConfig::preset(setup.into(), 200 * SYNC_BOUND_MICROS)
    }

    /// Size the register namespace (chainable).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a store serves at least one register.
    #[must_use]
    pub fn registers(mut self, n: usize) -> StoreConfig {
        assert!(n >= 1, "a store serves at least one register");
        self.registers = n;
        self
    }

    /// Reader processes per register (chainable).
    #[must_use]
    pub fn readers_per_register(mut self, n: usize) -> StoreConfig {
        self.readers_per_register = n;
        self
    }

    /// Replace the seed (chainable).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> StoreConfig {
        self.seed = seed;
        self
    }

    /// Replace the network model (chainable).
    #[must_use]
    pub fn with_net(mut self, net: NetworkModel) -> StoreConfig {
        self.net = net;
        self
    }

    /// Replace the protocol tunables (chainable).
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> StoreConfig {
        self.protocol = protocol;
        self
    }

    /// Replace the wire-message batching policy (chainable).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> StoreConfig {
        self.batch = batch;
        self
    }

    /// Give every client session a per-operation deadline (chainable).
    #[must_use]
    pub fn with_op_deadline(mut self, micros: u64) -> StoreConfig {
        self.op_deadline_micros = Some(micros);
        self
    }

    /// Enable (or reconfigure) op tracing (chainable). See
    /// [`StoreConfig::trace`].
    #[must_use]
    pub fn with_trace(mut self, trace: lucky_trace::TraceConfig) -> StoreConfig {
        self.trace = trace;
        self
    }

    /// Persist every server's per-register state under `dir` (chainable):
    /// state survives server crashes and is replayed on restart. See
    /// [`StoreConfig::durable_dir`].
    #[must_use]
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> StoreConfig {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Shard the register namespace across `n` independent server groups
    /// (chainable). See [`StoreConfig::groups`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a store serves at least one group.
    #[must_use]
    pub fn groups(mut self, n: usize) -> StoreConfig {
        assert!(n >= 1, "a store serves at least one server group");
        self.groups = n;
        self
    }

    /// Give group `g` its own protocol setup — quorum shape, Byzantine
    /// budget and derived timers — instead of the cluster-wide one
    /// (chainable). Accepts a [`Setup`] directly or anything converting
    /// into one (`Params`, `TwoRoundParams`). Re-setting a group
    /// replaces its previous override.
    #[must_use]
    pub fn group_setup(mut self, g: u16, setup: impl Into<Setup>) -> StoreConfig {
        let setup = setup.into();
        match self.group_setups.iter_mut().find(|(i, _)| *i == g) {
            Some((_, s)) => *s = setup,
            None => self.group_setups.push((g, setup)),
        }
        self
    }

    /// The protocol setup group `g` runs: its override if present,
    /// otherwise the store-wide `setup`.
    pub fn setup_for(&self, g: lucky_types::GroupId) -> Setup {
        self.group_setups.iter().find(|(i, _)| *i == g.0).map(|(_, s)| *s).unwrap_or(self.setup)
    }

    /// Build a simulated store.
    ///
    /// # Panics
    ///
    /// Panics on a multi-group config: one `SimStore` is one group's
    /// engine. Multi-group configs build through `lucky-shard`'s
    /// `ShardSimStore`, which calls this once per group.
    pub fn build_sim(self) -> SimStore {
        SimStore::new(self)
    }
}

/// The outcome of one completed operation, flattened for assertions and
/// table rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpOutcome {
    /// Operation id.
    pub id: OpId,
    /// The register the operation targeted.
    pub reg: RegisterId,
    /// Whether the operation was a WRITE or a READ.
    pub kind: OpKind,
    /// Value read (for READs) or written (for WRITEs).
    pub value: Value,
    /// Communication round-trips used.
    pub rounds: u32,
    /// `true` iff the operation was fast (one round-trip, §2.4).
    pub fast: bool,
    /// Latency in virtual microseconds.
    pub latency: u64,
    /// Messages sent by + delivered to the client during the operation.
    pub msgs: u64,
    /// Estimated wire bytes for those messages.
    pub bytes: u64,
}

impl OpOutcome {
    fn from_record(rec: &OpRecord) -> OpOutcome {
        let value = match (&rec.result, &rec.op) {
            (Some(v), _) => v.clone(),
            (None, Op::Write(v)) => v.clone(),
            (None, Op::Read) => Value::Bot,
        };
        OpOutcome {
            id: rec.id,
            reg: rec.reg,
            kind: rec.op.kind(),
            value,
            rounds: rec.rounds,
            fast: rec.fast,
            latency: rec.latency().unwrap_or(0),
            msgs: rec.msgs,
            bytes: rec.bytes,
        }
    }
}

/// A simulated store: one server cluster of the configured variant
/// serving `registers` independent SWMR registers, each with its own
/// writer and `readers_per_register` readers, plus fault-injection and
/// checking helpers.
///
/// The checks partition the history per register, since registers are
/// independent objects; a violation is reported inside
/// [`Violation::InRegister`](lucky_checker::Violation::InRegister) naming
/// its register.
#[derive(Debug)]
pub struct SimStore {
    setup: Setup,
    world: World,
    registers: usize,
    readers_per_register: usize,
    batch: BatchConfig,
    durable_dir: Option<PathBuf>,
    /// Durability counters shared by every server's backend across all
    /// incarnations (always present; stays zero without a durable dir).
    counters: Arc<LogCounters>,
    /// Op tracer shared with the world (always present; a disabled
    /// tracer records nothing and costs one relaxed load per hook).
    tracer: Arc<lucky_trace::Tracer>,
}

impl SimStore {
    /// Build a store from `cfg`. Every process is built through the
    /// [`Setup`] factories, so the constructor is variant-agnostic.
    pub fn new(cfg: StoreConfig) -> SimStore {
        let StoreConfig {
            setup,
            protocol,
            net,
            seed,
            registers,
            readers_per_register,
            batch,
            op_deadline_micros,
            durable_dir,
            trace,
            groups,
            group_setups: _,
        } = cfg;
        assert!(registers >= 1, "a store serves at least one register");
        assert!(
            groups == 1,
            "a SimStore is one group's engine; multi-group configs build \
             through lucky-shard's ShardSimStore"
        );
        assert!(
            registers * readers_per_register <= u16::MAX as usize,
            "reader namespace exceeds the ReaderId range"
        );
        let mut world = World::new(net, seed);
        world.set_batch(batch);
        let tracer = Arc::new(lucky_trace::Tracer::new(trace));
        world.set_tracer(Arc::clone(&tracer));
        let session = SessionConfig { deadline_micros: op_deadline_micros };
        let counters = Arc::new(LogCounters::default());
        for reg in RegisterId::all(registers) {
            world.add_process(
                ProcessId::writer(reg),
                Box::new(SessionAutomaton::new(setup.make_writer_session(reg, protocol, session))),
            );
            for j in 0..readers_per_register {
                let rid = reg.reader(readers_per_register, j as u16);
                world.add_process(
                    ProcessId::Reader(rid),
                    Box::new(SessionAutomaton::new(
                        setup.make_reader_session(reg, rid, protocol, session),
                    )),
                );
            }
        }
        for s in ServerId::all(setup.server_count()) {
            let durable = durable_dir.as_ref().map(|d| (d.clone(), Arc::clone(&counters)));
            world.add_process(
                ProcessId::Server(s),
                Box::new(ServerAutomaton(setup.make_store_server(batch, durable, s.0))),
            );
        }
        SimStore {
            setup,
            world,
            registers,
            readers_per_register,
            batch,
            durable_dir,
            counters,
            tracer,
        }
    }

    /// The protocol setup this store runs.
    pub fn setup(&self) -> Setup {
        self.setup
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.setup.server_count()
    }

    /// Number of registers served.
    pub fn register_count(&self) -> usize {
        self.registers
    }

    /// Reader processes per register.
    pub fn readers_per_register(&self) -> usize {
        self.readers_per_register
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// A handle on register `reg`, exposing `write`/`read`/`invoke_*`.
    ///
    /// The handle borrows the store, so use it one at a time; interleave
    /// registers by invoking (`invoke_write`/`invoke_read`) on several
    /// handles and then driving the world with
    /// [`SimStore::run_until_all_complete`].
    ///
    /// # Panics
    ///
    /// Panics if `reg` is outside the configured namespace.
    pub fn register(&mut self, reg: RegisterId) -> SimRegister<'_> {
        assert!(
            reg.index() < self.registers,
            "register {reg} outside the namespace (0..{})",
            self.registers
        );
        SimRegister { store: self, reg }
    }

    /// The global [`ReaderId`] of register `reg`'s `j`-th reader (see
    /// [`RegisterId::reader`] for the allocation scheme).
    pub fn reader_id(&self, reg: RegisterId, j: u16) -> ReaderId {
        assert!((j as usize) < self.readers_per_register, "reader index out of range");
        reg.reader(self.readers_per_register, j)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run until `op` completes.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] when the run stalls first.
    pub fn run_until_complete(&mut self, op: OpId) -> Result<OpOutcome, RunError> {
        self.world.run_until_complete(op).map(OpOutcome::from_record)
    }

    /// Run until each of `ops` completes (any interleaving).
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] when the run stalls first.
    pub fn run_until_all_complete(&mut self, ops: &[OpId]) -> Result<(), RunError> {
        self.world.run_until_all_complete(ops)
    }

    /// The outcome of a completed (or still-pending) operation.
    pub fn outcome(&self, op: OpId) -> OpOutcome {
        OpOutcome::from_record(self.world.record(op))
    }

    /// `true` iff `op` has completed.
    pub fn is_complete(&self, op: OpId) -> bool {
        self.world.record(op).is_complete()
    }

    /// Advance virtual time, processing everything scheduled on the way.
    pub fn run_until(&mut self, deadline: Time) {
        self.world.run_until(deadline);
    }

    /// Advance virtual time by `micros` from now.
    pub fn run_for(&mut self, micros: u64) {
        let deadline = self.world.now() + micros;
        self.world.run_until(deadline);
    }

    /// Drain the event queue (bounded); returns steps taken.
    pub fn run_until_idle(&mut self, max_steps: u64) -> u64 {
        self.world.run_until_idle(max_steps)
    }

    // ------------------------------------------------------------------
    // Fault injection. Every server-indexed injector panics unless
    // `i < S`: aimed at a server the store does not have, a fault would
    // otherwise be dropped or install a phantom server no client
    // addresses, and the run would silently test nothing.
    // ------------------------------------------------------------------

    /// Server `i`'s process id, checked against the cluster size.
    #[track_caller]
    fn server(&self, i: u16) -> ProcessId {
        let s = self.server_count();
        assert!(usize::from(i) < s, "server {i} does not exist: the store has S = {s} servers");
        ProcessId::Server(ServerId(i))
    }

    /// Crash server `i` immediately (it stops serving *every* register).
    pub fn crash_server(&mut self, i: u16) {
        let server = self.server(i);
        self.world.crash_now(server);
    }

    /// Crash server `i` at time `at`.
    pub fn crash_server_at(&mut self, i: u16, at: Time) {
        let server = self.server(i);
        self.world.crash_at(server, at);
    }

    /// Crash register `reg`'s writer immediately.
    pub fn crash_writer(&mut self, reg: RegisterId) {
        self.world.crash_now(ProcessId::writer(reg));
    }

    /// Crash register `reg`'s writer at time `at`.
    pub fn crash_writer_at(&mut self, reg: RegisterId, at: Time) {
        self.world.crash_at(ProcessId::writer(reg), at);
    }

    /// Restart server `i` immediately: a fresh server core replaces the
    /// crashed one and the process is alive again. On a durable store
    /// the core replays the server's on-disk logs (lazily, per register,
    /// on first contact) — exactly the state its previous incarnation
    /// persisted before every ack. On an in-memory store it comes back
    /// amnesiac, modeling the paper's crash-stop server that rejoins
    /// empty.
    pub fn restart_server(&mut self, i: u16) {
        let server = self.server(i);
        let durable = self.durable_dir.as_ref().map(|d| (d.clone(), Arc::clone(&self.counters)));
        self.world.add_process(
            server,
            Box::new(ServerAutomaton(self.setup.make_store_server(self.batch, durable, i))),
        );
    }

    /// Restart server `i` at time `at`. The replacement core is built
    /// *at that instant*, so on a durable store the log replay reflects
    /// everything persisted up to the restart point of the schedule —
    /// not the (earlier) moment the restart was scheduled.
    pub fn restart_server_at(&mut self, i: u16, at: Time) {
        let server = self.server(i);
        let setup = self.setup;
        let batch = self.batch;
        let durable = self.durable_dir.as_ref().map(|d| (d.clone(), Arc::clone(&self.counters)));
        self.world.restart_at(
            server,
            at,
            Box::new(move || Box::new(ServerAutomaton(setup.make_store_server(batch, durable, i)))),
        );
    }

    /// Total log replays performed by restarted servers (over all
    /// registers and incarnations). Zero on a non-durable store.
    pub fn recoveries(&self) -> u64 {
        self.counters.recoveries()
    }

    /// Total bytes of committed log data written + replayed across every
    /// server backend. Zero on a non-durable store.
    pub fn log_bytes(&self) -> u64 {
        self.counters.log_bytes()
    }

    /// Replace server `i` with a Byzantine behaviour (see [`byz`]). The
    /// behaviour answers *all* registers — a malicious server is malicious
    /// towards the whole namespace.
    pub fn install_byzantine(&mut self, i: u16, core: Box<dyn ServerCore>) {
        let server = self.server(i);
        self.world.add_process(server, Box::new(ServerAutomaton(core)));
    }

    /// Replace server `i` with the [`byz::ForgeValue`] behaviour — the
    /// most common attack in the test sweeps.
    pub fn install_forge_value(&mut self, i: u16, pair: lucky_types::TsVal) {
        self.install_byzantine(i, Box::new(byz::ForgeValue::new(pair)));
    }

    /// Full access to the underlying world (gates, custom scheduling).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Read-only access to the underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    // ------------------------------------------------------------------
    // History and checking
    // ------------------------------------------------------------------

    /// The operation history so far (all registers interleaved; partition
    /// with [`History::partition_by_register`]).
    pub fn history(&self) -> &History {
        self.world.history()
    }

    /// Check every register's sub-history against the atomicity
    /// conditions (§2.2). Registers are independent objects, so the
    /// conditions apply per register.
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_atomicity(&self) -> Result<(), Violations> {
        lucky_checker::assert_atomic_per_register_traced(self.history(), &self.tracer)
    }

    /// Check every register's sub-history against the regularity
    /// conditions (App. D).
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_regularity(&self) -> Result<(), Violations> {
        lucky_checker::assert_regular_per_register_traced(self.history(), &self.tracer)
    }

    /// Check every register's sub-history against safeness (App. B).
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_safeness(&self) -> Result<(), Violations> {
        lucky_checker::check_per_register(self.history(), lucky_checker::check_safeness)
            .map_err(Violations)
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// The shared op tracer (for wiring into external sinks).
    pub fn tracer(&self) -> &Arc<lucky_trace::Tracer> {
        &self.tracer
    }

    /// A rollup of everything the tracer has seen: lucky/slow op counts,
    /// per-phase latency histograms (including the durable-log persist
    /// histogram), recent flight-recorder events and the last dump.
    /// Meaningful only when the store was built
    /// [`StoreConfig::with_trace`]-enabled; a disabled store reports all
    /// zeros.
    pub fn trace(&self) -> lucky_trace::TraceReport {
        let mut report = self.tracer.report();
        report.persist_latency = self.counters.persist_latency();
        report
    }
}

/// A typed handle on one register of a [`SimStore`], exposing the
/// single-register operation surface.
///
/// `j` arguments index the register's *own* readers (`0 ..
/// readers_per_register`); the handle translates to global reader ids.
#[derive(Debug)]
pub struct SimRegister<'a> {
    store: &'a mut SimStore,
    reg: RegisterId,
}

impl SimRegister<'_> {
    /// The register this handle addresses.
    pub fn id(&self) -> RegisterId {
        self.reg
    }

    /// Invoke `WRITE(v)` on this register (one microsecond from now, so
    /// back-to-back helper calls stay strictly ordered); returns the
    /// operation id for scripting.
    pub fn invoke_write(&mut self, v: Value) -> OpId {
        let at = self.store.world.now() + 1;
        self.invoke_write_at(at, v)
    }

    /// Invoke `WRITE(v)` at a future instant.
    pub fn invoke_write_at(&mut self, at: Time, v: Value) -> OpId {
        self.store.world.invoke_on_at(at, ProcessId::writer(self.reg), self.reg, Op::Write(v))
    }

    /// Invoke `READ()` on this register's reader `j` (one microsecond
    /// from now).
    pub fn invoke_read(&mut self, j: u16) -> OpId {
        let at = self.store.world.now() + 1;
        self.invoke_read_at(at, j)
    }

    /// Invoke `READ()` on reader `j` at a future instant.
    pub fn invoke_read_at(&mut self, at: Time, j: u16) -> OpId {
        let rid = self.store.reader_id(self.reg, j);
        self.store.world.invoke_on_at(at, ProcessId::Reader(rid), self.reg, Op::Read)
    }

    /// `WRITE(v)` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the write cannot complete (too many failures / gates) —
    /// use [`SimRegister::try_write`] to handle that case.
    pub fn write(&mut self, v: Value) -> OpOutcome {
        self.try_write(v).expect("WRITE stalled; use try_write for fallible runs")
    }

    /// `WRITE(v)` to completion, propagating stalls.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the operation cannot complete.
    pub fn try_write(&mut self, v: Value) -> Result<OpOutcome, RunError> {
        let op = self.invoke_write(v);
        self.store.run_until_complete(op)
    }

    /// `READ()` on reader `j` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the read cannot complete — use [`SimRegister::try_read`]
    /// for fallible runs.
    pub fn read(&mut self, j: u16) -> OpOutcome {
        self.try_read(j).expect("READ stalled; use try_read for fallible runs")
    }

    /// `READ()` to completion, propagating stalls.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the operation cannot complete.
    pub fn try_read(&mut self, j: u16) -> Result<OpOutcome, RunError> {
        let op = self.invoke_read(j);
        self.store.run_until_complete(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{Params, TwoRoundParams};

    fn params() -> Params {
        Params::new(1, 0, 1, 0).unwrap()
    }

    #[test]
    fn eight_registers_hold_independent_values() {
        let mut store = StoreConfig::synchronous(params()).registers(8).build_sim();
        for reg in RegisterId::all(8) {
            store.register(reg).write(Value::from_u64(100 + reg.0 as u64));
        }
        for reg in RegisterId::all(8) {
            let r = store.register(reg).read(0);
            assert_eq!(r.value.as_u64(), Some(100 + reg.0 as u64));
            assert_eq!(r.reg, reg);
            assert_eq!(r.kind, OpKind::Read);
        }
        store.check_atomicity().unwrap();
    }

    #[test]
    fn interleaved_registers_stay_isolated() {
        let mut store =
            StoreConfig::synchronous(params()).registers(4).readers_per_register(2).build_sim();
        // Invoke one write per register at the same instant, then one read
        // per register while the writes are still in flight.
        let mut ops = Vec::new();
        for reg in RegisterId::all(4) {
            ops.push(store.register(reg).invoke_write(Value::from_u64(10 + reg.0 as u64)));
        }
        for reg in RegisterId::all(4) {
            ops.push(store.register(reg).invoke_read(1));
        }
        store.run_until_all_complete(&ops).unwrap();
        store.check_atomicity().unwrap();
        // A second, sequential read per register sees that register's value.
        for reg in RegisterId::all(4) {
            let r = store.register(reg).read(0);
            assert_eq!(r.value.as_u64(), Some(10 + reg.0 as u64), "register {reg}");
        }
    }

    #[test]
    fn outcome_carries_register_and_kind() {
        let mut store = StoreConfig::synchronous(params()).registers(2).build_sim();
        let w = store.register(RegisterId(1)).write(Value::from_u64(9));
        assert_eq!(w.reg, RegisterId(1));
        assert_eq!(w.kind, OpKind::Write);
        assert_eq!(w.value.as_u64(), Some(9));
    }

    #[test]
    fn default_register_writer_is_the_classic_writer_process() {
        let store = StoreConfig::synchronous(params()).registers(3).build_sim();
        assert_eq!(ProcessId::writer(RegisterId::DEFAULT), ProcessId::Writer);
        assert_eq!(store.reader_id(RegisterId(0), 0), ReaderId(0));
        assert_eq!(store.reader_id(RegisterId(2), 0), ReaderId(2));
    }

    #[test]
    fn two_round_and_regular_stores_serve_many_registers() {
        let trp = TwoRoundParams::new(1, 0, 1).unwrap();
        let mut store = StoreConfig::synchronous(trp).registers(3).build_sim();
        for reg in RegisterId::all(3) {
            let w = store.register(reg).write(Value::from_u64(1 + reg.0 as u64));
            assert_eq!(w.rounds, 2, "App. C: always two rounds");
            assert_eq!(store.register(reg).read(0).value.as_u64(), Some(1 + reg.0 as u64));
        }
        store.check_atomicity().unwrap();

        let p = Params::trading_reads(1, 0).unwrap();
        let mut store = StoreConfig::synchronous(Setup::Regular(p)).registers(3).build_sim();
        for reg in RegisterId::all(3) {
            store.register(reg).write(Value::from_u64(1 + reg.0 as u64));
            assert_eq!(store.register(reg).read(0).value.as_u64(), Some(1 + reg.0 as u64));
        }
        store.check_regularity().unwrap();
    }

    #[test]
    fn crashing_one_registers_writer_leaves_others_live() {
        let mut store = StoreConfig::synchronous(params()).registers(2).build_sim();
        store.crash_writer(RegisterId(0));
        assert!(store.register(RegisterId(0)).try_write(Value::from_u64(1)).is_err());
        let w = store.register(RegisterId(1)).try_write(Value::from_u64(2)).unwrap();
        assert_eq!(w.value.as_u64(), Some(2));
    }

    #[test]
    #[should_panic(expected = "outside the namespace")]
    fn out_of_namespace_register_is_rejected() {
        let mut store = StoreConfig::synchronous(params()).registers(2).build_sim();
        store.register(RegisterId(2));
    }

    #[test]
    fn trace_report_counts_lucky_ops_on_a_quiet_run() {
        let mut store = StoreConfig::synchronous(params())
            .registers(2)
            .with_trace(lucky_trace::TraceConfig::enabled())
            .build_sim();
        for reg in RegisterId::all(2) {
            store.register(reg).write(Value::from_u64(40 + reg.0 as u64));
            store.register(reg).read(0);
        }
        let report = store.trace();
        assert_eq!(report.fast_writes + report.slow_writes, 2);
        assert_eq!(report.fast_reads + report.slow_reads, 2);
        // Synchronous, contention-free: every read takes the fast path.
        assert_eq!(report.slow_reads, 0);
        assert!((report.lucky_read_ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(report.read_latency.count(), 2);
        assert_eq!(report.timeouts, 0);
        assert!(!report.recent.is_empty(), "flight recorder saw the ops");
        // The rollup renders and serializes without panicking.
        assert!(report.render_text().contains("reads"));
        assert!(report.to_json().contains("\"fast_reads\""));
    }

    #[test]
    fn disabled_trace_reports_all_zeros() {
        let mut store = StoreConfig::synchronous(params()).build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(1));
        store.register(RegisterId(0)).read(0);
        let report = store.trace();
        assert_eq!(report.fast_reads + report.slow_reads, 0);
        assert_eq!(report.read_latency.count(), 0);
        assert!(report.recent.is_empty());
    }

    #[test]
    fn traced_store_rolls_in_the_persist_histogram() {
        let dir = lucky_log::TempDir::new("simstore-trace-persist");
        let mut store = StoreConfig::synchronous(params())
            .durable(dir.path())
            .with_trace(lucky_trace::TraceConfig::enabled())
            .build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(7));
        let report = store.trace();
        assert!(report.persist_latency.count() > 0, "durable appends were timed");
    }

    #[test]
    fn durable_servers_survive_a_full_cluster_restart() {
        let dir = lucky_log::TempDir::new("simstore-full-restart");
        let mut store =
            StoreConfig::synchronous(params()).registers(2).durable(dir.path()).build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(7));
        store.register(RegisterId(1)).write(Value::from_u64(8));
        // Crash EVERY server, then restart them all: the values can only
        // come back from the logs.
        for i in 0..store.server_count() as u16 {
            store.crash_server(i);
        }
        for i in 0..store.server_count() as u16 {
            store.restart_server(i);
        }
        assert_eq!(store.register(RegisterId(0)).read(0).value.as_u64(), Some(7));
        assert_eq!(store.register(RegisterId(1)).read(0).value.as_u64(), Some(8));
        assert!(store.recoveries() > 0, "restarted servers replayed their logs");
        assert!(store.log_bytes() > 0, "committed state was written");
        store.check_atomicity().unwrap();
    }

    #[test]
    fn amnesiac_restart_forgets_but_the_quorum_still_answers() {
        let p = Params::new(2, 1, 1, 0).unwrap(); // S = 6: tolerates restarts
        let mut store = StoreConfig::synchronous(p).build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(5));
        store.crash_server(0);
        store.restart_server(0);
        // No durable dir: server 0 came back empty, but the quorum holds
        // the value and the read is still correct.
        assert_eq!(store.register(RegisterId(0)).read(0).value.as_u64(), Some(5));
        assert_eq!(store.recoveries(), 0, "nothing to replay without a log");
        assert_eq!(store.log_bytes(), 0);
        store.check_atomicity().unwrap();
    }

    #[test]
    fn scheduled_restart_replays_state_persisted_after_scheduling() {
        let dir = lucky_log::TempDir::new("simstore-sched-restart");
        let mut store = StoreConfig::synchronous(params()).durable(dir.path()).build_sim();
        // Schedule the restart FIRST, then write: the lazily-built
        // recovery core must still see the write, proving the log is
        // replayed at the restart instant.
        store.crash_server_at(0, Time(10_000));
        store.restart_server_at(0, Time(20_000));
        store.register(RegisterId(0)).write(Value::from_u64(3));
        store.run_until(Time(30_000));
        assert_eq!(store.register(RegisterId(0)).read(0).value.as_u64(), Some(3));
        assert!(store.recoveries() > 0, "the restarted server replayed its log");
        store.check_atomicity().unwrap();
    }

    #[test]
    fn out_of_range_server_faults_are_rejected() {
        use lucky_types::{Seq, TsVal};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Unchecked, each would install a phantom server or schedule an
        // event for a process that does not exist: the fault never fires.
        fn rejects(name: &str, inject: fn(&mut SimStore, u16)) {
            let mut store = StoreConfig::synchronous(params()).build_sim();
            let s = store.server_count() as u16;
            let err = catch_unwind(AssertUnwindSafe(|| inject(&mut store, s))).expect_err(name);
            let msg = err.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains(&format!("server {s} ")), "{name}: {msg}");
            assert!(msg.contains(&format!("S = {s}")), "{name}: {msg}");
            // The last server in range is accepted.
            inject(&mut store, s - 1);
        }
        rejects("crash_server_at", |s, i| s.crash_server_at(i, Time(10)));
        rejects("restart_server", |s, i| s.restart_server(i));
        rejects("restart_server_at", |s, i| s.restart_server_at(i, Time(10)));
        rejects("install_forge_value", |s, i| {
            s.install_forge_value(i, TsVal::new(Seq(9), Value::from_u64(9)))
        });
    }

    // The paper's single register: a one-register store of the S = 6
    // cluster t = 2, b = 1, fw = 1, fr = 0, addressed as register 0.

    fn s6() -> Params {
        Params::new(2, 1, 1, 0).unwrap()
    }

    #[test]
    fn failure_free_lucky_write_and_read_are_fast() {
        let mut c = StoreConfig::synchronous(s6()).build_sim();
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(7));
        assert!(w.fast);
        assert_eq!(w.rounds, 1);
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.fast);
        assert_eq!(r.value.as_u64(), Some(7));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn read_of_empty_register_returns_bot() {
        let mut c = StoreConfig::synchronous(s6()).build_sim();
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.value.is_bot());
        assert!(r.fast);
        c.check_atomicity().unwrap();
    }

    #[test]
    fn write_survives_fw_crashes_fast_and_more_crashes_slow() {
        // fw = 1: one crash keeps writes fast.
        let mut c = StoreConfig::synchronous(s6()).build_sim();
        c.crash_server(0);
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(w.fast, "fw = 1 crash still fast");
        // Two crashes (≤ t) force the slow path but preserve liveness.
        c.crash_server(1);
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(2));
        assert!(!w.fast);
        assert_eq!(w.rounds, 3);
        c.check_atomicity().unwrap();
    }

    #[test]
    fn read_slow_when_failures_exceed_fr() {
        // fr = 0 guarantees fast lucky reads only with zero failures. The
        // adversarial pattern needs a server that *missed* the fast write
        // (its PW stays in transit) plus a crash of a holder: then only
        // S − fw − 1 = 4 < fastpw pw-copies respond and the read goes slow.
        let mut c = StoreConfig::synchronous(s6()).build_sim();
        c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(4)));
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(w.fast, "S - fw = 5 acks suffice");
        c.crash_server(5); // a holder of the value
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(!r.fast);
        assert_eq!(r.rounds, 4, "1 read round + 3 write-back rounds");
        assert_eq!(r.value.as_u64(), Some(1));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn asynchronous_network_forces_slow_operations() {
        let mut c = StoreConfig::asynchronous(s6()).with_seed(3).build_sim();
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(1));
        // With delays up to 200δ the timer (2δ) always expires first and
        // the quorum-sized view is almost never fast; atomicity holds
        // regardless.
        assert!(!w.fast || !r.fast);
        c.check_atomicity().unwrap();
    }

    #[test]
    fn two_round_cluster_round_counts() {
        let trp = TwoRoundParams::new(2, 1, 1).unwrap();
        let mut c = StoreConfig::synchronous(trp).build_sim();
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(5));
        assert_eq!((w.rounds, w.fast), (2, false));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.fast, "lucky read after a complete two-round write");
        assert_eq!(r.value.as_u64(), Some(5));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn regular_cluster_reads_fast_despite_t_crashes() {
        let p = Params::trading_reads(2, 1).unwrap();
        let mut c = StoreConfig::synchronous(Setup::Regular(p)).build_sim();
        c.register(RegisterId::DEFAULT).write(Value::from_u64(4));
        // Crash t = 2 servers: regular lucky reads stay fast (fr = t).
        c.crash_server(0);
        c.crash_server(1);
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.fast);
        assert_eq!(r.value.as_u64(), Some(4));
        c.check_regularity().unwrap();
    }

    #[test]
    fn byzantine_forger_cannot_corrupt_reads() {
        use lucky_types::{Seq, TsVal};
        let mut c = StoreConfig::synchronous(s6()).build_sim();
        c.install_forge_value(2, TsVal::new(Seq(99), Value::from_u64(666)));
        c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(1));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn contending_read_and_write_preserve_atomicity() {
        let mut c = StoreConfig::synchronous(s6()).readers_per_register(2).build_sim();
        c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        // Writer and both readers overlap.
        let late = c.now() + 40;
        let mut reg = c.register(RegisterId::DEFAULT);
        let w = reg.invoke_write(Value::from_u64(2));
        let r0 = reg.invoke_read(0);
        let r1 = reg.invoke_read_at(late, 1);
        c.world_mut().run_until_all_complete(&[w, r0, r1]).unwrap();
        let v0 = c.outcome(r0).value.as_u64().unwrap();
        let v1 = c.outcome(r1).value.as_u64().unwrap();
        assert!(v0 == 1 || v0 == 2);
        assert!(v1 == 1 || v1 == 2);
        c.check_atomicity().unwrap();
    }

    /// Pins the exact schedule of a seeded contended run — a value forger,
    /// overlapping ops on four registers, a server crash mid-run — by its
    /// step count, end instant and `(fast, rounds, msgs, bytes)` totals.
    /// Any change to event order or RNG draws moves one of these.
    #[test]
    fn contended_byzantine_run_schedule_is_pinned() {
        use lucky_types::{Seq, TsVal};
        let mut c = StoreConfig::synchronous(s6())
            .registers(4)
            .readers_per_register(2)
            .with_seed(5)
            .build_sim();
        c.install_forge_value(0, TsVal::new(Seq(1 << 40), Value::from_u64(666)));
        let mut next = 0u64;
        for wave in 0..12u64 {
            if wave == 6 {
                let at = c.now() + 100;
                c.crash_server_at(5, at);
            }
            let base = c.now() + 1;
            let mut ids = Vec::new();
            for reg in RegisterId::all(4) {
                let at = base + (wave * 37 + u64::from(reg.0) * 53) % 250;
                let mut h = c.register(reg);
                ids.push(if (wave + u64::from(reg.0)) % 3 == 0 {
                    next += 1;
                    h.invoke_write_at(at, Value::from_u64(next))
                } else {
                    h.invoke_read_at(at, (wave % 2) as u16)
                });
            }
            c.run_until_all_complete(&ids).unwrap();
        }
        let ops = &c.history().ops;
        assert!(ops.iter().all(|r| r.is_complete()));
        let fast = ops.iter().filter(|r| r.fast).count();
        let rounds: u32 = ops.iter().map(|r| r.rounds).sum();
        let msgs: u64 = ops.iter().map(|r| r.msgs).sum();
        let bytes: u64 = ops.iter().map(|r| r.bytes).sum();
        let got = (c.world().steps(), c.now(), ops.len(), fast, rounds, msgs, bytes);
        assert_eq!(got, (945, Time(7184), 48, 39, 75, 832, 13402));
        c.check_atomicity().unwrap();
    }

    /// Pins a batched schedule in which every coalescing site fires: a
    /// released link's backlog (client → server), one step's
    /// same-destination sends (the forger answers a batch part by part)
    /// and `RegisterMux`'s re-batched acks (honest servers).
    #[test]
    fn batched_run_schedule_is_pinned() {
        use lucky_types::{Seq, TsVal};
        let mut c = StoreConfig::synchronous(s6())
            .registers(4)
            .readers_per_register(2)
            .with_seed(5)
            .with_batch(BatchConfig::enabled(3))
            .build_sim();
        c.install_forge_value(0, TsVal::new(Seq(1 << 40), Value::from_u64(666)));
        c.world_mut().enable_trace();
        let clients: Vec<ProcessId> = RegisterId::all(4)
            .flat_map(|reg| {
                let readers = (0..2).map(move |j| ProcessId::Reader(reg.reader(2, j)));
                std::iter::once(ProcessId::writer(reg)).chain(readers)
            })
            .collect();
        let gated = [ProcessId::Server(ServerId(0)), ProcessId::Server(ServerId(2))];
        let mut next = 0u64;
        for wave in 0..12u64 {
            for &client in &clients {
                for &server in &gated {
                    match wave {
                        0 | 6 => c.world_mut().hold(client, server),
                        4 | 9 => c.world_mut().release(client, server),
                        _ => {}
                    }
                }
            }
            let base = c.now() + 1;
            let mut ids = Vec::new();
            for reg in RegisterId::all(4) {
                let at = base + (wave * 37 + u64::from(reg.0) * 53) % 250;
                let mut h = c.register(reg);
                ids.push(if (wave + u64::from(reg.0)) % 3 == 0 {
                    next += 1;
                    h.invoke_write_at(at, Value::from_u64(next))
                } else {
                    h.invoke_read_at(at, (wave % 2) as u16)
                });
            }
            c.run_until_all_complete(&ids).unwrap();
        }
        c.run_until_idle(100_000);
        let ops = &c.history().ops;
        assert!(ops.iter().all(|r| r.is_complete()));
        let fast = ops.iter().filter(|r| r.fast).count();
        let rounds: u32 = ops.iter().map(|r| r.rounds).sum();
        let msgs: u64 = ops.iter().map(|r| r.msgs).sum();
        let bytes: u64 = ops.iter().map(|r| r.bytes).sum();
        let got = (c.world().steps(), c.now(), ops.len(), fast, rounds, msgs, bytes);
        assert_eq!(got, (876, Time(6907), 48, 36, 74, 783, 13307));
        // BATCH deliveries by sender: clients' released backlogs, the
        // forger's per-part answers, honest servers' re-batched acks.
        let batches = |from: &dyn Fn(ProcessId) -> bool| {
            c.world().trace().iter().filter(|e| e.label == "BATCH" && from(e.from)).count()
        };
        let forger = ProcessId::Server(ServerId(0));
        let by_sender = (
            batches(&|p| p.is_client()),
            batches(&|p| p == forger),
            batches(&|p| p.is_server() && p != forger),
        );
        assert_eq!(by_sender, (30, 15, 15));
        c.check_atomicity().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = StoreConfig::asynchronous(s6()).with_seed(seed).build_sim();
            c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            c.register(RegisterId::DEFAULT).read(0);
            c.history().clone()
        };
        assert_eq!(run(11), run(11));
    }
}
