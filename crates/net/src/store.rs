//! The multi-register store over the threaded runtime.
//!
//! One router thread and one thread per server (each multiplexing
//! per-register state through `lucky-core`'s `RegisterMux` and reading
//! its own loopback socket) serve a whole namespace of registers.
//! Client cores are **sharded across worker threads by register**: a
//! register's writer core lands on worker `hash(RegisterId)` and its
//! reader cores on the neighbouring workers, so operations on
//! independent registers proceed concurrently over the shared router —
//! and a register's READs can overlap its WRITE, exactly
//! the concurrency the SWMR model permits (one writer, many readers).
//! Only operations on the *same core* (the single writer, or one
//! particular reader) serialize.
//!
//! [`NetRegisterHandle::write`]/[`NetRegisterHandle::read`] block the
//! caller; [`NetRegisterHandle::invoke_write`]/
//! [`NetRegisterHandle::invoke_read`] submit the operation and return an
//! [`OpTicket`], letting one caller thread drive many registers at once.

use crate::cluster::{
    assert_one_fault_per_server, spawn_server_thread, HandleError, NetConfig, NetError, NetOutcome,
    ServerCtl,
};
use crate::future::{NotifyGuard, OpFuture, OpNotify};
use crate::polled::{Driver, Job, PollIo, PolledSlot, PolledWorker};
use crate::reactor::wait_strategy;
use crate::router::{spawn_router, Envelope, NetStats, RouterConfig, SlotMap, SlotSink};
use crate::tcp::Transport;
use crossbeam::channel::{unbounded, Receiver, Sender};
use epoll::WakeFd;
use lucky_core::runtime::ServerCore;
use lucky_core::{ProtocolConfig, SessionConfig, Setup, StoreConfig};
use lucky_log::{DurableBackend, LogCounters};
use lucky_types::{BatchConfig, History, Op, ProcessId, RegisterId, ServerId, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Key of a register's writer core within its worker (readers are `j+1`).
const WRITER_SLOT: u32 = 0;

/// Builder for a threaded multi-register store.
pub struct NetStoreBuilder {
    setup: Setup,
    cfg: NetConfig,
    registers: usize,
    readers_per_register: usize,
    shards: Option<usize>,
    protocol: ProtocolConfig,
    batch: BatchConfig,
    /// `None` until [`NetStoreBuilder::driver`] names one: `build` then
    /// picks [`Driver::Reactor`] on Linux, [`Driver::Polled`] elsewhere.
    driver: Option<Driver>,
    byzantine: BTreeMap<u16, Box<dyn ServerCore>>,
    crashed: Vec<u16>,
    durable_dir: Option<PathBuf>,
    trace: lucky_trace::TraceConfig,
}

impl fmt::Debug for NetStoreBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetStoreBuilder")
            .field("setup", &self.setup)
            .field("registers", &self.registers)
            .field("readers_per_register", &self.readers_per_register)
            .finish_non_exhaustive()
    }
}

impl NetStoreBuilder {
    /// Size the register namespace (chainable).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a store serves at least one register.
    #[must_use]
    pub fn registers(mut self, n: usize) -> Self {
        assert!(n >= 1, "a store serves at least one register");
        self.registers = n;
        self
    }

    /// Reader handles per register (chainable, default 1).
    #[must_use]
    pub fn readers_per_register(mut self, n: usize) -> Self {
        self.readers_per_register = n;
        self
    }

    /// Number of shard worker threads hosting the client cores
    /// (chainable). Defaults to `min(registers, 4)`. A register's writer
    /// core maps to worker `hash(RegisterId) mod shards` and its readers
    /// to the following workers, so two registers on different workers
    /// never contend for a thread and a register's reads can overlap its
    /// write.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard worker");
        self.shards = Some(n);
        self
    }

    /// Protocol tunables (fast paths, freezing, round caps) for every
    /// client core (chainable). The round-1 timer is always re-derived
    /// from the [`NetConfig`] — wall-clock latencies, not the
    /// simulator's microsecond synchrony bound, size it.
    #[must_use]
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Wire-message batching policy (default off). Enabled, the router
    /// coalesces traffic per destination socket-slot — a server, or the
    /// shard worker hosting a group of client cores — into single wire
    /// messages (up to `max_msgs` parts, waiting at most
    /// `max_delay_micros`), and servers re-batch their acks per sender.
    /// Disabled, the wire traffic is identical to the pre-batching
    /// runtime.
    #[must_use]
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Changes nothing: [`Transport::Tcp`] is the only transport, and
    /// every store already has it — each server and each shard worker
    /// owns a loopback socket, and all protocol traffic is encoded by
    /// `lucky-wire`, framed, written to the destination slot's socket
    /// and reassembled on the far side. Kept so that callers which
    /// still name the transport, such as the end-to-end benchmark
    /// (`benchmark/`), keep compiling.
    #[must_use]
    pub fn transport(self, _transport: Transport) -> Self {
        self
    }

    /// How the shard workers and the servers wait for input. Not
    /// calling this is the normal case: the store then picks
    /// [`Driver::Reactor`] on Linux and [`Driver::Polled`], the portable
    /// fallback, otherwise. Every worker runs the same loop and
    /// multiplexes all of its client sessions on one thread either way;
    /// the handle/ticket API is identical.
    #[must_use]
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = Some(driver);
        self
    }

    /// Install a Byzantine behaviour at server `i` (it answers *all*
    /// registers — a malicious server is malicious towards the whole
    /// namespace).
    #[must_use]
    pub fn byzantine(mut self, i: u16, core: Box<dyn ServerCore>) -> Self {
        self.byzantine.insert(i, core);
        self
    }

    /// Start server `i` crashed (it is simply never spawned).
    #[must_use]
    pub fn crashed(mut self, i: u16) -> Self {
        self.crashed.push(i);
        self
    }

    /// Persist every honest server's per-register state in `lucky-log`
    /// append-only logs under `dir` (chainable; per-server subdirectory
    /// `s<i>`). A durable server persists each state transition
    /// *before* its replies leave the node, and a
    /// [`NetStore::restart_server`] replays the logs — so a
    /// crash-restarted server rejoins the quorum with everything it
    /// ever acked. Without this, restarts are amnesiac (crash-stop
    /// semantics).
    #[must_use]
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Op tracing policy (default disabled — a disabled tracer costs one
    /// relaxed atomic load per hook on the hot path). Enabled, every
    /// worker records per-op spans, lucky/slow classification and
    /// latency histograms, all surfaced through [`NetStore::trace`].
    #[must_use]
    pub fn trace(mut self, trace: lucky_trace::TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Spawn the router, server and shard-worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the reader namespace exceeds the `ReaderId` range, or
    /// if a server index is configured both crashed and Byzantine.
    pub fn build(mut self) -> NetStore {
        assert!(
            self.registers * self.readers_per_register <= u16::MAX as usize,
            "reader namespace exceeds the ReaderId range"
        );
        assert_one_fault_per_server(&self.crashed, &self.byzantine);
        // Unless named, the wait strategy is epoll where there is one.
        let driver = self.driver.unwrap_or(if cfg!(target_os = "linux") {
            Driver::Reactor
        } else {
            Driver::Polled
        });
        let protocol =
            ProtocolConfig { timer_micros: self.cfg.timer.as_micros() as u64, ..self.protocol };
        let (router_tx, router_rx) = unbounded::<Envelope>();
        let mut server_threads = Vec::new();

        // One session per client core, grouped by shard worker. The
        // router's socket-slot map mirrors the placement: a client
        // process's wire traffic coalesces per hosting worker (the
        // "socket" the worker drains), servers get one slot each.
        let shard_count = self.shards.unwrap_or_else(|| self.registers.min(4)).max(1);
        let server_count = self.setup.server_count();
        let mut slots: SlotMap = SlotMap::new();
        let session_cfg = SessionConfig::with_deadline(self.cfg.op_deadline().as_micros() as u64);
        let mut shard_sessions: Vec<BTreeMap<(RegisterId, u32), PolledSlot>> =
            (0..shard_count).map(|_| BTreeMap::new()).collect();
        let mut shard_pids: Vec<BTreeMap<ProcessId, (RegisterId, u32)>> =
            (0..shard_count).map(|_| BTreeMap::new()).collect();
        let mut place = |pid: ProcessId, key: (RegisterId, u32), session| {
            let worker = shard_for(key.0, key.1, shard_count);
            slots.insert(pid, server_count + worker);
            shard_pids[worker].insert(pid, key);
            shard_sessions[worker].insert(key, PolledSlot::new(session));
        };
        for reg in RegisterId::all(self.registers) {
            place(
                ProcessId::writer(reg),
                (reg, WRITER_SLOT),
                self.setup.make_writer_session(reg, protocol, session_cfg),
            );
            for j in 0..self.readers_per_register as u16 {
                let rid = reg.reader(self.readers_per_register, j);
                place(
                    ProcessId::Reader(rid),
                    (reg, j as u32 + 1),
                    self.setup.make_reader_session(reg, rid, protocol, session_cfg),
                );
            }
        }

        // A thread that blocks in `epoll_wait` is handed its work
        // through a port carrying an eventfd; without one (sleep-polling
        // by choice, exotic platform, fd exhaustion) it sleep-polls.
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let tracer = Arc::new(lucky_trace::Tracer::new(self.trace));
        let epoch = Instant::now();
        let new_wake = || match driver {
            Driver::Reactor => match WakeFd::new() {
                Ok(wake) => Some(Arc::new(wake)),
                Err(_) => {
                    stats.lock().io_errors += 1;
                    tracer.note_io_error(0, "reactor eventfd unavailable; sleep-polling");
                    None
                }
            },
            Driver::Polled => None,
        };
        // Where wire messages land: on the destination slot's own
        // socket — bound here so the router's sink can connect; the
        // slot's thread itself accepts and reads, nonblocking.
        let mut sinks = BTreeMap::new();
        let mut own_socket = |slot: usize| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            let addr = listener.local_addr().expect("listener has an address");
            sinks.insert(slot, SlotSink::new(connect_sink(addr).expect("connect router sink")));
            (PollIo::tcp(listener, &stats, &tracer, epoch), addr)
        };

        // Server threads: every honest server multiplexes all registers
        // and re-batches its acks per sender (when batching is enabled).
        // Each gets a control port so the store can crash and restart
        // it mid-run; a durable store's servers share one counter pair.
        let counters = Arc::new(LogCounters::default());
        let mut ctl = BTreeMap::new();
        let mut server_addrs = BTreeMap::new();
        for s in ServerId::all(server_count) {
            slots.insert(ProcessId::Server(s), s.index());
            if self.crashed.contains(&s.0) {
                continue;
            }
            let core: Box<dyn ServerCore> = match self.byzantine.remove(&s.0) {
                Some(byz) => byz,
                None => store_server_core(
                    self.setup,
                    self.batch,
                    self.durable_dir.clone().map(|d| (d, Arc::clone(&counters))),
                    s.0,
                ),
            };
            let (ctl_tx, ctl_rx) = unbounded::<ServerCtl>();
            let (io, addr) = own_socket(s.index());
            server_addrs.insert(s, addr);
            let wake = new_wake();
            ctl.insert(s.0, Port::new(ctl_tx, wake.clone()));
            server_threads.push(spawn_server_thread(
                format!("lucky-store-server-{}", s.0),
                ProcessId::Server(s),
                core,
                io,
                wake,
                ctl_rx,
                router_tx.clone(),
            ));
        }

        // Shard workers: each owns its registers' client sessions,
        // multiplexes them on one loop, and appends completed operations
        // to the shared history.
        let history = Arc::new(Mutex::new(History::new()));
        let wakeups = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        let mut worker_txs: Vec<Port<Job>> = Vec::new();
        for (w, (sessions, by_pid)) in shard_sessions.into_iter().zip(shard_pids).enumerate() {
            let (io, _) = own_socket(server_count + w);
            let (tx, rx) = unbounded::<Job>();
            let worker = PolledWorker {
                sessions,
                by_pid,
                jobs: rx,
                jobs_open: true,
                router: router_tx.clone(),
                disconnected: false,
                io,
                history: Arc::clone(&history),
                stats: Arc::clone(&stats),
                epoch,
                tracer: Arc::clone(&tracer),
            };
            let wake = new_wake();
            worker_txs.push(Port::new(tx, wake.clone()));
            let wakeups = Arc::clone(&wakeups);
            let thread = std::thread::Builder::new().name(format!("lucky-store-worker-{w}")).spawn(
                move || {
                    let wait = wait_strategy(&worker.io, wake, Some(wakeups));
                    worker.run(wait)
                },
            );
            workers.push(thread.expect("spawn shard worker"));
        }

        let router_thread = spawn_router(
            "lucky-store-router",
            router_rx,
            RouterConfig {
                latency: (self.cfg.min_latency, self.cfg.max_latency),
                seed: self.cfg.seed,
                batch: self.batch,
                slots,
                sinks,
            },
            Arc::clone(&stats),
        );

        let handles = RegisterId::all(self.registers)
            .map(|reg| {
                // One sender per client core, following the same
                // placement as the sessions above.
                let slots = (0..=self.readers_per_register as u32)
                    .map(|slot| worker_txs[shard_for(reg, slot, shard_count)].clone())
                    .collect();
                (reg, NetRegisterHandle { reg, readers: self.readers_per_register, slots })
            })
            .collect();

        NetStore {
            router_tx,
            router_thread: Some(router_thread),
            server_threads,
            server_addrs,
            _workers: workers,
            handles,
            registers: self.registers,
            readers_per_register: self.readers_per_register,
            shard_count,
            stats,
            history,
            ctl,
            counters,
            setup: self.setup,
            batch: self.batch,
            durable_dir: self.durable_dir,
            wakeups,
            tracer,
        }
    }
}

/// A thread's command endpoint — a shard worker's jobs, a server's
/// control commands: the channel plus, for a thread that blocks in
/// `epoll_wait`, the eventfd that interrupts it. A worker's is cloned
/// into every register handle whose cores it hosts.
pub(crate) struct Port<T> {
    tx: Sender<T>,
    /// Declared after `tx`, so dropped after it.
    wake: Option<WakeOnDrop>,
}

/// The reactor detects "nothing can ever arrive again" by the channel
/// disconnecting — which it only observes when awake. Each dropping
/// port fires the eventfd *after* its sender is gone, so the last drop
/// (the disconnect) always interrupts a blocked `epoll_wait`, and the
/// woken thread finds the channel already disconnected.
struct WakeOnDrop(Arc<WakeFd>);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl<T> Port<T> {
    fn new(tx: Sender<T>, wake: Option<Arc<WakeFd>>) -> Port<T> {
        Port { tx, wake: wake.map(WakeOnDrop) }
    }

    /// Send an item, then wake the reactor (the order matters: the
    /// thread must find the item when the wakeup drains).
    fn send(&self, item: T) {
        // A send failure means the store shut down; whatever reply
        // sender (and notify guard, for futures) the item carried drops
        // with it, which surfaces it.
        let _ = self.tx.send(item);
        if let Some(wake) = &self.wake {
            wake.0.wake();
        }
    }
}

impl<T> Clone for Port<T> {
    fn clone(&self) -> Self {
        Port::new(self.tx.clone(), self.wake.as_ref().map(|w| Arc::clone(&w.0)))
    }
}

/// Connect the router-side write half of a slot's socket.
fn connect_sink(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let sink = TcpStream::connect(addr)?;
    sink.set_nodelay(true)?;
    Ok(sink)
}

/// Build one server's protocol core: a durable store opens (and on a
/// restart, replays) the server's per-register logs under `<dir>/s<i>`;
/// a plain store serves from memory.
fn store_server_core(
    setup: Setup,
    batch: BatchConfig,
    durable: Option<(PathBuf, Arc<LogCounters>)>,
    i: u16,
) -> Box<dyn ServerCore> {
    match durable {
        Some((dir, counters)) => {
            let backend = DurableBackend::open_with(dir.join(format!("s{i}")), counters)
                .expect("create the server's log directory");
            setup.make_server_mux_durable(batch, Box::new(backend))
        }
        None => setup.make_server_mux_batched(batch),
    }
}

/// Shard placement: a register's writer (`slot` 0) lands on worker
/// `hash(RegisterId) mod shards` (register ids are already uniformly
/// assignable, so the hash is the id itself); its readers land on the
/// following workers, so a register's reads can overlap its write while
/// independent registers still spread across the pool.
fn shard_for(reg: RegisterId, slot: u32, shards: usize) -> usize {
    (reg.index() + slot as usize) % shards
}

/// A pending operation on a [`NetRegisterHandle`]: wait for its outcome
/// with [`OpTicket::wait`], or poll it with [`OpTicket::is_done`] /
/// [`OpTicket::wait_for`] without committing to a full blocking wait.
#[derive(Debug)]
pub struct OpTicket {
    rx: Receiver<Result<NetOutcome, NetError>>,
    /// The settled result, once observed by any polling call — kept so
    /// `is_done`/`wait_for`/`wait` compose in any order.
    settled: Option<Result<NetOutcome, NetError>>,
}

impl OpTicket {
    fn new(rx: Receiver<Result<NetOutcome, NetError>>) -> OpTicket {
        OpTicket { rx, settled: None }
    }

    /// Try to observe the result without blocking; cache it if present.
    fn poll(&mut self) {
        if self.settled.is_none() {
            match self.rx.try_recv() {
                Ok(result) => self.settled = Some(result),
                Err(crossbeam::channel::TryRecvError::Empty) => {}
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    self.settled = Some(Err(NetError::Disconnected));
                }
            }
        }
    }

    /// `true` iff the operation has settled (completed or failed):
    /// a subsequent [`OpTicket::wait`] will not block.
    pub fn is_done(&mut self) -> bool {
        self.poll();
        self.settled.is_some()
    }

    /// The settled result, if any, without blocking — [`crate::OpFuture`]'s
    /// poll body. Returns the cached result again once settled (fused).
    pub(crate) fn try_settled(&mut self) -> Option<Result<NetOutcome, NetError>> {
        self.poll();
        self.settled.clone()
    }

    /// Wait up to `timeout` for the operation to settle.
    ///
    /// Returns `Ok(Some(outcome))` when it completed, `Ok(None)` when it
    /// is still in flight after `timeout` (call again, or [`wait`]).
    ///
    /// # Errors
    ///
    /// [`NetError`] if the operation failed (deadline) or the store shut
    /// down mid-operation.
    ///
    /// [`wait`]: OpTicket::wait
    pub fn wait_for(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<NetOutcome>, NetError> {
        if self.settled.is_none() {
            match self.rx.recv_timeout(timeout) {
                Ok(result) => self.settled = Some(result),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => return Ok(None),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    self.settled = Some(Err(NetError::Disconnected));
                }
            }
        }
        self.settled.clone().expect("settled above").map(Some)
    }

    /// Block until the operation completes (or fails).
    ///
    /// # Errors
    ///
    /// [`NetError`] if the operation stalled past its deadline or the
    /// store shut down mid-operation.
    pub fn wait(self) -> Result<NetOutcome, NetError> {
        if let Some(result) = self.settled {
            return result;
        }
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(NetError::Disconnected),
        }
    }
}

/// A typed handle on one register of a [`NetStore`], taken once via
/// [`NetStore::register`]. Handles are `Send`: move them to whatever
/// thread should drive that register.
pub struct NetRegisterHandle {
    reg: RegisterId,
    readers: usize,
    /// One job port per client core: index 0 is the writer, `j + 1`
    /// reader `j`. Cores may live on different shard workers.
    slots: Vec<Port<Job>>,
}

impl fmt::Debug for NetRegisterHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetRegisterHandle")
            .field("reg", &self.reg)
            .field("readers", &self.readers)
            .finish_non_exhaustive()
    }
}

impl NetRegisterHandle {
    /// The register this handle addresses.
    pub fn id(&self) -> RegisterId {
        self.reg
    }

    /// Reader cores available to [`NetRegisterHandle::read`].
    pub fn reader_count(&self) -> usize {
        self.readers
    }

    fn submit(&self, slot: u32, op: Op) -> OpTicket {
        let (reply, rx) = unbounded();
        // A send failure means the store shut down; the dropped reply
        // sender surfaces as `Disconnected` from `wait`.
        self.slots[slot as usize].send(Job { slot: (self.reg, slot), op, reply, notify: None });
        OpTicket::new(rx)
    }

    /// Like [`NetRegisterHandle::submit`], wiring a wake channel through
    /// the job so an [`OpFuture`] learns when its ticket settles.
    fn submit_future(&self, slot: u32, op: Op) -> OpFuture {
        let (reply, rx) = unbounded();
        let notify = OpNotify::new();
        self.slots[slot as usize].send(Job {
            slot: (self.reg, slot),
            op,
            reply,
            notify: Some(NotifyGuard::new(Arc::clone(&notify))),
        });
        OpFuture::new(OpTicket::new(rx), notify)
    }

    /// Submit `WRITE(v)` and return a ticket to wait on. Writes on the
    /// same register run in submission order (single writer); reads on
    /// this register and operations on registers hosted by other shard
    /// workers run concurrently.
    pub fn invoke_write(&self, v: Value) -> OpTicket {
        self.submit(WRITER_SLOT, Op::Write(v))
    }

    /// Submit `READ()` on this register's reader `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is outside `0..reader_count()`.
    pub fn invoke_read(&self, j: u16) -> OpTicket {
        assert!(
            (j as usize) < self.readers,
            "reader {j} outside 0..{} for register {}",
            self.readers,
            self.reg
        );
        self.submit(j as u32 + 1, Op::Read)
    }

    /// Submit `WRITE(v)` and return a [`Future`](std::future::Future) of
    /// its outcome. The op is in flight from this call (submission does
    /// not wait for a poll); `.await` it from any executor —
    /// [`block_on`](crate::exec::block_on) and
    /// [`Executor`](crate::exec::Executor) ship with this crate, and
    /// [`run_all`](crate::exec::run_all) holds thousands in flight from
    /// one thread. Dropping the future abandons the wait, never the op.
    pub fn write_future(&self, v: Value) -> OpFuture {
        self.submit_future(WRITER_SLOT, Op::Write(v))
    }

    /// Submit `READ()` on reader `j` as a [`Future`](std::future::Future);
    /// see [`NetRegisterHandle::write_future`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is outside `0..reader_count()`.
    pub fn read_future(&self, j: u16) -> OpFuture {
        assert!(
            (j as usize) < self.readers,
            "reader {j} outside 0..{} for register {}",
            self.readers,
            self.reg
        );
        self.submit_future(j as u32 + 1, Op::Read)
    }

    /// `WRITE(v)` as an `async fn`: sugar for
    /// [`NetRegisterHandle::write_future`]`.await`.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the store shut down or the operation stalled.
    pub async fn write_async(&self, v: Value) -> Result<NetOutcome, NetError> {
        self.write_future(v).await
    }

    /// `READ()` on reader `j` as an `async fn`: sugar for
    /// [`NetRegisterHandle::read_future`]`.await`.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the store shut down or the operation stalled.
    ///
    /// # Panics
    ///
    /// Panics if `j` is outside `0..reader_count()`.
    pub async fn read_async(&self, j: u16) -> Result<NetOutcome, NetError> {
        self.read_future(j).await
    }

    /// `WRITE(v)`, blocking until it completes.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the store shut down or the operation stalled.
    pub fn write(&self, v: Value) -> Result<NetOutcome, NetError> {
        self.invoke_write(v).wait()
    }

    /// `READ()` on reader `j`, blocking until it completes.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the store shut down or the operation stalled.
    ///
    /// # Panics
    ///
    /// Panics if `j` is outside `0..reader_count()`.
    pub fn read(&self, j: u16) -> Result<NetOutcome, NetError> {
        self.invoke_read(j).wait()
    }
}

/// A running threaded multi-register store: one server cluster serving
/// `registers` independent registers, client cores sharded across worker
/// threads by register.
///
/// Build one with [`NetStore::builder`] (or [`NetStore::from_config`] to
/// reuse a simulator-side [`StoreConfig`]); take per-register handles
/// with [`NetStore::register`]; call [`NetStore::shutdown`] when done.
pub struct NetStore {
    router_tx: Sender<Envelope>,
    router_thread: Option<JoinHandle<()>>,
    server_threads: Vec<JoinHandle<()>>,
    /// Listener address of each live server's slot, for tests and
    /// adversarial harnesses that talk raw bytes to a server.
    server_addrs: BTreeMap<ServerId, SocketAddr>,
    /// Worker threads exit when every job sender (the untaken handles
    /// below plus whatever the caller took) is dropped.
    _workers: Vec<JoinHandle<()>>,
    handles: BTreeMap<RegisterId, NetRegisterHandle>,
    registers: usize,
    readers_per_register: usize,
    shard_count: usize,
    stats: Arc<Mutex<NetStats>>,
    history: Arc<Mutex<History>>,
    /// Control port of each live server thread, by server index. A
    /// socket server runs until its port drops.
    ctl: BTreeMap<u16, Port<ServerCtl>>,
    /// Durability counters shared by every server backend (and every
    /// restarted incarnation); rolled into [`NetStats`] by `stats()`.
    counters: Arc<LogCounters>,
    /// What `restart_server` needs to rebuild a core.
    setup: Setup,
    batch: BatchConfig,
    durable_dir: Option<PathBuf>,
    /// `epoll_wait` returns across every epoll worker (stays zero under
    /// sleep-polling); rolled into [`NetStats`] by `stats()`.
    wakeups: Arc<AtomicU64>,
    /// Op tracer shared by every shard worker (disabled unless the
    /// builder enabled it); surfaced through [`NetStore::trace`].
    tracer: Arc<lucky_trace::Tracer>,
}

impl fmt::Debug for NetStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetStore")
            .field("registers", &self.registers)
            .field("readers_per_register", &self.readers_per_register)
            .field("shards", &self.shard_count)
            .field("servers", &self.server_threads.len())
            .finish_non_exhaustive()
    }
}

impl NetStore {
    /// Start building a store of the given variant. Accepts a [`Setup`]
    /// directly, or anything converting into one (`Params` selects the
    /// atomic algorithm, `TwoRoundParams` the two-round one).
    pub fn builder(setup: impl Into<Setup>, cfg: NetConfig) -> NetStoreBuilder {
        NetStoreBuilder {
            setup: setup.into(),
            cfg,
            registers: 1,
            readers_per_register: 1,
            shards: None,
            protocol: ProtocolConfig::default(),
            batch: BatchConfig::disabled(),
            driver: None,
            byzantine: BTreeMap::new(),
            crashed: Vec::new(),
            durable_dir: None,
            trace: lucky_trace::TraceConfig::disabled(),
        }
    }

    /// Build a store from a simulator-side [`StoreConfig`] (variant,
    /// namespace shape and protocol tunables) and a threaded-runtime
    /// [`NetConfig`] (latency band and timer). The config's protocol
    /// tunables carry over except the round-1 timer, which is re-derived
    /// from `net` (wall-clock latencies, not the simulator's synchrony
    /// bound, size it). A durable config's servers log under its
    /// directory, as [`NetStoreBuilder::durable`] would have them.
    pub fn from_config(cfg: StoreConfig, net: NetConfig) -> NetStore {
        assert!(
            cfg.groups == 1,
            "a NetStore is one group's engine; multi-group configs build through \
             lucky-shard's ShardNetStore"
        );
        let mut builder = NetStore::builder(cfg.setup, net)
            .registers(cfg.registers)
            .readers_per_register(cfg.readers_per_register)
            .protocol(cfg.protocol)
            .batch(cfg.batch)
            .trace(cfg.trace);
        if let Some(dir) = cfg.durable_dir {
            builder = builder.durable(dir);
        }
        builder.build()
    }

    /// Number of registers served.
    pub fn register_count(&self) -> usize {
        self.registers
    }

    /// Reader cores per register.
    pub fn readers_per_register(&self) -> usize {
        self.readers_per_register
    }

    /// Number of shard worker threads hosting client cores.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Take register `reg`'s handle (once).
    ///
    /// # Errors
    ///
    /// [`HandleError::UnknownRegister`] if `reg` is outside the
    /// namespace, [`HandleError::RegisterTaken`] if the handle was
    /// already taken.
    pub fn register(&mut self, reg: RegisterId) -> Result<NetRegisterHandle, HandleError> {
        if reg.index() >= self.registers {
            return Err(HandleError::UnknownRegister(reg));
        }
        self.handles.remove(&reg).ok_or(HandleError::RegisterTaken(reg))
    }

    /// Router statistics so far, including the per-register breakdown
    /// and — for a durable store — the log recovery/byte rollup across
    /// every server's backend.
    pub fn stats(&self) -> NetStats {
        let mut s = self.stats.lock().clone();
        s.recoveries = self.counters.recoveries();
        s.log_bytes = self.counters.log_bytes();
        s.reactor_wakeups = self.wakeups.load(Ordering::Relaxed);
        s
    }

    /// Crash server `i` mid-run: its thread drops the protocol core and
    /// discards every delivery until [`NetStore::restart_server`]. The
    /// slot's wire is severed too, so in-flight frames count as dropped,
    /// exactly like a never-spawned server's. No-op for a server that
    /// was built crashed (it has no thread).
    pub fn crash_server(&mut self, i: u16) {
        let Some(port) = self.ctl.get(&i) else {
            return;
        };
        port.send(ServerCtl::Crash);
        let _ = self.router_tx.send(Envelope::Sink { slot: i as usize, stream: None });
    }

    /// Restart server `i`: its thread rebuilds the protocol core — for a
    /// durable store by replaying the server's `lucky-log` logs, so the
    /// incarnation rejoins the quorum with everything it ever acked; for
    /// a memory store amnesiac, with completely fresh state. The server
    /// re-binds its listener on a fresh ephemeral port (see
    /// [`NetStore::server_addr`]) and the router installs the freshly
    /// connected sink. No-op for a server that was built crashed.
    ///
    /// Blocks until the server thread has performed the rebuild:
    /// messages sent after this returns cannot race the still-down
    /// window and be silently lost — which matters the moment the
    /// recovered server is quorum-critical (exactly `t` others down).
    pub fn restart_server(&mut self, i: u16) {
        let Some(port) = self.ctl.get(&i) else {
            return;
        };
        let setup = self.setup;
        let batch = self.batch;
        let durable = self.durable_dir.clone().map(|d| (d, Arc::clone(&self.counters)));
        let (done_tx, done_rx) = unbounded();
        port.send(ServerCtl::Restart(
            Box::new(move || store_server_core(setup, batch, durable, i)),
            done_tx,
        ));
        // The bound only guards against a thread that already exited.
        let rebound = done_rx.recv_timeout(std::time::Duration::from_secs(5)).ok().flatten();
        // The server comes back at a new address: the old one is gone
        // either way, and the new one is the slot's only once the router
        // holds a sink connected to it. (A server that could not re-bind
        // acks no address and counted that itself.)
        self.server_addrs.remove(&ServerId(i));
        let Some(addr) = rebound else {
            return;
        };
        match connect_sink(addr) {
            Ok(sink) => {
                self.server_addrs.insert(ServerId(i), addr);
                let _ =
                    self.router_tx.send(Envelope::Sink { slot: i as usize, stream: Some(sink) });
            }
            Err(_) => self.stats.lock().io_errors += 1,
        }
    }

    /// A snapshot of the operation history so far (all registers
    /// interleaved; partition with `History::partition_by_register`).
    /// Wall-clock instants are microseconds since the store started.
    pub fn history(&self) -> History {
        self.history.lock().clone()
    }

    /// Operations recorded in the history so far (completed or failed):
    /// the length, read under the lock, without the clone
    /// [`NetStore::history`] pays.
    pub fn history_len(&self) -> usize {
        self.history.lock().ops.len()
    }

    /// Check every register's sub-history against the atomicity
    /// conditions (§2.2), partitioned per register.
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_atomicity(&self) -> Result<(), lucky_checker::Violations> {
        lucky_checker::assert_atomic_per_register_traced(&self.history(), &self.tracer)
    }

    /// Check every register's sub-history against the regularity
    /// conditions (App. D), partitioned per register.
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_regularity(&self) -> Result<(), lucky_checker::Violations> {
        lucky_checker::assert_regular_per_register_traced(&self.history(), &self.tracer)
    }

    /// The shared op tracer (for wiring into external sinks).
    pub fn tracer(&self) -> &Arc<lucky_trace::Tracer> {
        &self.tracer
    }

    /// A rollup of everything the tracer has seen: lucky/slow op counts
    /// per kind, latency histograms (including the durable-log persist
    /// histogram), recent flight-recorder events and the last dump.
    /// Meaningful only for a store built with an enabled
    /// [`NetStoreBuilder::trace`] policy; a disabled store reports all
    /// zeros.
    pub fn trace(&self) -> lucky_trace::TraceReport {
        let mut report = self.tracer.report();
        report.persist_latency = self.counters.persist_latency();
        report
    }

    /// The loopback address server `s` listens on (`None` for a server
    /// built crashed, or one whose restart could not re-bind).
    pub fn server_addr(&self, s: ServerId) -> Option<SocketAddr> {
        self.server_addrs.get(&s).copied()
    }

    /// Stop the router and server threads and wait for them. Shard
    /// workers exit once every register handle is dropped; pending
    /// operations fail with [`NetError`].
    pub fn shutdown(&mut self) {
        self.handles.clear();
        let _ = self.router_tx.send(Envelope::Stop);
        if let Some(t) = self.router_thread.take() {
            let _ = t.join();
        }
        // A server runs until its control port goes.
        self.ctl.clear();
        for t in self.server_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetStore {
    fn drop(&mut self) {
        // Non-blocking: signal stop; threads unwind on channel disconnect.
        let _ = self.router_tx.send(Envelope::Stop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{OpKind, Params};
    use std::time::Duration;

    fn fast_cfg() -> NetConfig {
        NetConfig {
            min_latency: Duration::from_micros(50),
            max_latency: Duration::from_micros(200),
            seed: 1,
            timer: Duration::from_millis(5),
        }
    }

    #[test]
    fn eight_registers_hold_independent_values() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).registers(8).build();
        let handles: Vec<_> = RegisterId::all(8).map(|reg| store.register(reg).unwrap()).collect();
        // Interleave: submit every write, then wait for all of them.
        let tickets: Vec<_> = handles
            .iter()
            .map(|h| h.invoke_write(Value::from_u64(100 + h.id().0 as u64)))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        for h in &handles {
            let r = h.read(0).unwrap();
            assert_eq!(r.value.as_u64(), Some(100 + h.id().0 as u64), "register {}", h.id());
            assert_eq!(r.reg, h.id());
            assert_eq!(r.kind, OpKind::Read);
        }
        store.check_atomicity().unwrap();
        let stats = store.stats();
        assert!(stats.per_register.len() >= 8, "per-register stats recorded");
        assert!(stats.register(RegisterId(0)).messages > 0);
        store.shutdown();
    }

    #[test]
    fn tcp_encode_path_reuses_frames_after_warmup() {
        // The router pops a frame buffer from its pool per outgoing TCP
        // frame and gets it back when the frame comes due, so
        // `frame_allocs` (pool misses) counts the most frames that were
        // ever in flight at once — not the frames sent. One client runs
        // one op at a time: at most S requests or S replies of that op,
        // plus stragglers of the previous one (a fast write returns on
        // S − fw acks while the last PW or its ack is still travelling).
        // *When* that high-water mark is reached is timing; that it is a
        // constant, flat in the number of ops, is the guarantee.
        let params = Params::new(1, 0, 1, 0).unwrap();
        let bound = 3 * params.server_count() as u64;
        let mut store = NetStore::builder(params, fast_cfg()).registers(1).build();
        let h = store.register(RegisterId(0)).unwrap();
        let mut allocs = Vec::new();
        for batch in 0..3 {
            for i in 0..32 {
                h.write(Value::from_u64(100 * batch + i)).unwrap();
                h.read(0).unwrap();
            }
            allocs.push(store.stats().frame_allocs);
        }
        assert!(allocs[0] > 0, "ops must have encoded at least one frame");
        // 64 ops are ≥ 384 frames, 192 ops ≥ 1152: per-frame allocation
        // would blow through the bound in the first batch.
        assert!(
            allocs.iter().all(|&a| a <= bound),
            "steady-state encodes must hit the frame pool, not allocate: \
             {allocs:?} allocs after 64/128/192 ops, in-flight bound {bound}"
        );
        store.shutdown();
    }

    #[test]
    fn register_handles_are_take_once_with_descriptive_errors() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).registers(2).build();
        let h = store.register(RegisterId(1)).unwrap();
        assert_eq!(
            store.register(RegisterId(1)).unwrap_err(),
            HandleError::RegisterTaken(RegisterId(1))
        );
        assert_eq!(
            store.register(RegisterId(9)).unwrap_err(),
            HandleError::UnknownRegister(RegisterId(9))
        );
        drop(h);
        store.shutdown();
    }

    #[test]
    fn history_partitions_per_register() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).registers(3).build();
        for reg in RegisterId::all(3) {
            let h = store.register(reg).unwrap();
            h.write(Value::from_u64(7)).unwrap(); // same value in every register
            h.read(0).unwrap();
        }
        let history = store.history();
        assert_eq!(history.registers().len(), 3);
        assert_eq!(history.ops.len(), 6);
        // The same value written to three different registers is not a
        // duplicate under per-register checking.
        store.check_atomicity().unwrap();
        store.shutdown();
    }

    #[test]
    fn tickets_outlive_their_handle() {
        // Submit through the ticket API, then drop the handle before
        // waiting: the shard worker owns the session, so the operations
        // complete and the tickets resolve normally. What they resolve
        // *to* is atomicity's call: a READ invoked while the WRITE is in
        // flight may return the initial value or the written one, a
        // READ invoked after the WRITE returned only the written one.
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).registers(2).build();
        let h = store.register(RegisterId(0)).unwrap();
        let w = h.invoke_write(Value::from_u64(9));
        let concurrent = h.invoke_read(0);
        assert_eq!(w.wait().unwrap().kind, OpKind::Write);
        let later = h.invoke_read(0);
        drop(h);
        let read = concurrent.wait().unwrap();
        assert_eq!(read.kind, OpKind::Read);
        assert!(
            read.value.is_bot() || read.value.as_u64() == Some(9),
            "a READ concurrent with the WRITE sees ⊥ or 9, got {:?}",
            read.value
        );
        let read = later.wait().unwrap();
        assert_eq!(read.kind, OpKind::Read);
        assert_eq!(read.value.as_u64(), Some(9), "ticket resolves after the handle is gone");
        store.check_atomicity().unwrap();
        store.shutdown();
    }

    #[test]
    fn tickets_after_shutdown_fail_with_disconnected() {
        // A handle kept across shutdown: the op can no longer complete
        // (router and servers are gone), and the ticket reports it as an
        // error instead of hanging.
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut cfg = fast_cfg();
        cfg.timer = Duration::from_millis(1); // keep the deadline short
        let mut store = NetStore::builder(params, cfg).registers(1).build();
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(1)).unwrap();
        store.shutdown();
        let t = h.invoke_write(Value::from_u64(2));
        assert!(
            matches!(t.wait(), Err(NetError::Disconnected) | Err(NetError::TimedOut)),
            "post-shutdown tickets must fail, not hang"
        );
        drop(h);
    }

    #[test]
    fn operations_after_shutdown_fail_with_disconnected_idempotently() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).build();
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(1)).unwrap();
        store.shutdown();
        // The first post-shutdown write observes the disconnect; every
        // retry reports it again instead of panicking on a busy session.
        assert_eq!(h.write(Value::from_u64(2)).unwrap_err(), NetError::Disconnected);
        assert_eq!(h.write(Value::from_u64(3)).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn too_many_crashes_time_out() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut cfg = fast_cfg();
        cfg.timer = Duration::from_millis(1);
        let mut store = NetStore::builder(params, cfg).crashed(0).crashed(1).build();
        let h = store.register(RegisterId(0)).unwrap();
        assert_eq!(h.write(Value::from_u64(1)).unwrap_err(), NetError::TimedOut);
        store.shutdown();
    }

    #[test]
    fn concurrent_reader_threads() {
        let params = Params::new(1, 0, 0, 1).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).readers_per_register(2).build();
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(1)).unwrap();
        let seen = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                (0..5).map(|_| h.read(1).unwrap().value.as_u64().unwrap()).collect::<Vec<_>>()
            });
            for i in 2..=6u64 {
                h.write(Value::from_u64(i)).unwrap();
                let v = h.read(0).unwrap().value.as_u64().unwrap();
                assert!(v >= i.saturating_sub(1), "reader sees a recent value");
            }
            reader.join().unwrap()
        });
        // Values seen by the concurrent reader never decrease (atomicity).
        for pair in seen.windows(2) {
            assert!(pair[1] >= pair[0], "no new/old inversion: {seen:?}");
        }
        store.check_atomicity().unwrap();
        store.shutdown();
    }

    #[test]
    #[should_panic(expected = "reader 2 outside 0..2")]
    fn out_of_range_reader_is_rejected_up_front() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store =
            NetStore::builder(params, fast_cfg()).registers(1).readers_per_register(2).build();
        let h = store.register(RegisterId(0)).unwrap();
        let _ = h.invoke_read(2); // only readers 0 and 1 exist
    }

    #[test]
    fn double_take_and_unknown_register_after_partial_take() {
        // Interleave takes and failures: every combination of taken /
        // untaken / unknown answers with the precise error.
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).registers(3).build();
        let h1 = store.register(RegisterId(1)).unwrap();
        assert_eq!(
            store.register(RegisterId(1)).unwrap_err(),
            HandleError::RegisterTaken(RegisterId(1))
        );
        // Unknown stays unknown no matter how many takes happened.
        assert_eq!(
            store.register(RegisterId(3)).unwrap_err(),
            HandleError::UnknownRegister(RegisterId(3))
        );
        // The other registers are still takeable exactly once.
        let h0 = store.register(RegisterId(0)).unwrap();
        let h2 = store.register(RegisterId(2)).unwrap();
        assert_eq!(
            store.register(RegisterId(0)).unwrap_err(),
            HandleError::RegisterTaken(RegisterId(0))
        );
        drop((h0, h1, h2));
        store.shutdown();
    }

    #[test]
    #[should_panic(expected = "both crashed and Byzantine")]
    fn crashed_and_byzantine_on_one_server_is_rejected() {
        use lucky_core::byz::Mute;
        let params = Params::new(2, 1, 1, 0).unwrap();
        let _ = NetStore::builder(params, fast_cfg())
            .crashed(1)
            .byzantine(1, Box::new(Mute::new()))
            .build();
    }

    #[test]
    fn from_config_carries_protocol_tunables() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        // Disable the fast paths through the StoreConfig: the threaded
        // store must honour them (a fast one-round write would otherwise
        // be overwhelmingly likely at this latency band).
        let cfg = StoreConfig::synchronous(params)
            .registers(2)
            .with_protocol(lucky_core::ProtocolConfig::slow_only(100));
        let mut store = NetStore::from_config(cfg, fast_cfg());
        let h = store.register(RegisterId(0)).unwrap();
        for i in 1..=3u64 {
            let out = h.write(Value::from_u64(i)).unwrap();
            assert!(!out.fast, "fast path disabled via StoreConfig");
            assert!(out.rounds > 1);
        }
        drop(h);
        store.shutdown();
    }

    #[test]
    fn reads_overlap_writes_on_the_same_register() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg())
            .registers(1)
            .readers_per_register(2)
            .shards(3)
            .build();
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(1)).unwrap();
        // Submit a write and two reads without waiting: the reader cores
        // live on different shard workers, so the reads run while the
        // write is still in flight.
        let w = h.invoke_write(Value::from_u64(2));
        let r0 = h.invoke_read(0);
        let r1 = h.invoke_read(1);
        for t in [r0, r1] {
            let out = t.wait().unwrap();
            let v = out.value.as_u64().unwrap();
            assert!(v == 1 || v == 2, "concurrent read sees old or new value, got {v}");
        }
        w.wait().unwrap();
        store.check_atomicity().unwrap();
        store.shutdown();
    }

    #[test]
    fn tcp_restart_rebinds_the_listener_and_replays() {
        // 1 writer fault tolerated (t=1, S=4): crash one server, write
        // through the remaining quorum, restart it, then crash a
        // *different* server — the restarted one must carry the weight,
        // which it only can if its log replayed, on both registers.
        let params = Params::new(2, 1, 1, 0).unwrap();
        let dir = lucky_log::TempDir::new("net-tcp-restart");
        let mut store =
            NetStore::builder(params, fast_cfg()).registers(2).durable(dir.path()).build();
        let h0 = store.register(RegisterId(0)).unwrap();
        let h1 = store.register(RegisterId(1)).unwrap();
        h0.write(Value::from_u64(10)).unwrap();
        h1.write(Value::from_u64(20)).unwrap();
        let before = store.server_addr(ServerId(0)).expect("a store knows its addresses");
        store.crash_server(0);
        h0.write(Value::from_u64(11)).unwrap();
        store.restart_server(0);
        let after = store.server_addr(ServerId(0)).expect("restarted slot re-binds");
        assert_ne!(before, after, "the restarted server listens on a fresh port");
        store.crash_server(3);
        // The quorum now needs server 0's recovered state.
        assert_eq!(h0.read(0).unwrap().value.as_u64(), Some(11));
        assert_eq!(h1.read(0).unwrap().value.as_u64(), Some(20));
        store.check_atomicity().unwrap();
        let stats = store.stats();
        assert!(stats.recoveries > 0, "restart replayed at least one register log");
        assert!(stats.log_bytes > 0, "snapshots were committed to disk");
        store.shutdown();
    }

    #[test]
    fn from_config_carries_the_durable_directory() {
        // A durable StoreConfig builds a durable NetStore: its servers
        // log under the config's directory and a restart replays there.
        // Every server restarts in turn, so whichever of them the write
        // reached, some restart finds a non-empty log.
        let params = Params::new(2, 1, 1, 0).unwrap();
        let dir = lucky_log::TempDir::new("net-from-config-durable");
        let cfg = StoreConfig::synchronous(params).durable(dir.path());
        let mut store = NetStore::from_config(cfg, fast_cfg());
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(1)).unwrap();
        for i in 0..params.server_count() as u16 {
            assert!(dir.path().join(format!("s{i}")).is_dir(), "server {i} logs under the dir");
            store.crash_server(i);
            store.restart_server(i);
        }
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(1));
        let stats = store.stats();
        assert!(stats.recoveries > 0, "a restart replayed a log: {stats}");
        assert!(stats.log_bytes > 0, "the servers wrote logs: {stats}");
        store.check_atomicity().unwrap();
        store.shutdown();
    }

    #[test]
    fn amnesiac_restart_keeps_the_counters_at_zero() {
        // Without `durable`, a restart is crash-stop followed by a fresh
        // empty server: the cluster still answers (quorums cover it) and
        // no recovery is ever counted.
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).build();
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(5)).unwrap();
        store.crash_server(1);
        store.restart_server(1);
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(5));
        let stats = store.stats();
        assert_eq!(stats.recoveries, 0);
        assert_eq!(stats.log_bytes, 0);
        store.check_atomicity().unwrap();
        store.shutdown();
    }

    #[test]
    fn shards_distribute_registers() {
        let params = Params::new(1, 0, 1, 0).unwrap();
        let mut store = NetStore::builder(params, fast_cfg()).registers(6).shards(3).build();
        assert_eq!(store.shard_count(), 3);
        let tickets: Vec<_> = RegisterId::all(6)
            .map(|reg| store.register(reg).unwrap())
            .map(|h| h.invoke_write(Value::from_u64(1 + h.id().0 as u64)))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        store.check_atomicity().unwrap();
        store.shutdown();
    }
}
