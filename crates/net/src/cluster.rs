//! What every store is assembled from: the latency/timer configuration,
//! the error and outcome types of the client API, and the server
//! thread, which reads its own loopback socket through the same
//! [`PollIo`] receive path as a shard worker.
//!
//! Stores are **variant-generic**: they are built from the same
//! [`Setup`](lucky_core::Setup) enum the simulator uses, and every
//! process is constructed through its factories — the atomic (§3),
//! two-round (App. C) and regular (App. D) algorithms all run on real
//! threads with no variant-specific code in this crate.

use crate::polled::PollIo;
use crate::reactor::wait_strategy;
use crate::router::Envelope;
use crate::settle::Settle;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use epoll::WakeFd;
use lucky_core::runtime::{ServerCore, SessionError, SessionOutcome};
use lucky_sim::Effects;
use lucky_types::{Message, Op, ProcessId, RegisterId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a threaded cluster.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Minimum injected one-way latency.
    pub min_latency: Duration,
    /// Maximum injected one-way latency.
    pub max_latency: Duration,
    /// Router RNG seed (latency sampling).
    pub seed: u64,
    /// Client round-1 timer. Must be at least `2 × max_latency` plus a
    /// scheduling margin for operations to be reliably lucky;
    /// [`NetConfig::for_latency`] computes exactly that. A lucky READ
    /// lasts one timer; a lucky WRITE returns on its deciding ack, one
    /// round trip in, and only waits the timer out when luck is in doubt.
    pub timer: Duration,
}

impl NetConfig {
    /// Margin added on top of the `2 × max_latency` round trip when
    /// deriving the timer, absorbing thread-scheduling noise.
    pub const TIMER_MARGIN: Duration = Duration::from_millis(6);

    /// How many timer lengths a blocking operation may take before it
    /// fails with [`NetError::TimedOut`]; generous so that only genuine
    /// stalls (too many crashes, partitioned quorums) trip it, even on a
    /// slow or heavily loaded CI machine.
    pub const OP_DEADLINE_TIMERS: u32 = 200;

    /// Lower bound on the per-operation deadline: with a very short
    /// timer the proportional deadline would also have to cover thread
    /// spawn and router start-up, which the timer does not model.
    pub const OP_DEADLINE_FLOOR: Duration = Duration::from_secs(1);

    /// A configuration for the given latency band, with the round-1 timer
    /// derived as `2 × max_latency + TIMER_MARGIN`.
    pub fn for_latency(min_latency: Duration, max_latency: Duration) -> NetConfig {
        NetConfig {
            min_latency,
            max_latency,
            seed: 0,
            timer: 2 * max_latency + NetConfig::TIMER_MARGIN,
        }
    }

    /// The per-operation deadline, derived from the configured timer
    /// (see [`NetConfig::OP_DEADLINE_TIMERS`]) and clamped to
    /// [`NetConfig::OP_DEADLINE_FLOOR`].
    pub fn op_deadline(&self) -> Duration {
        (NetConfig::OP_DEADLINE_TIMERS * self.timer).max(NetConfig::OP_DEADLINE_FLOOR)
    }
}

impl Default for NetConfig {
    /// 200µs–2ms injected latency; the derived timer is
    /// `2 × 2ms + 6ms = 10ms`.
    fn default() -> Self {
        NetConfig::for_latency(Duration::from_micros(200), Duration::from_millis(2))
    }
}

/// Why a blocking operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// The cluster was shut down while the operation was in flight.
    Disconnected,
    /// The operation did not complete within the deadline.
    TimedOut,
    /// A driver bug: an operation was started on a session that already
    /// had one in flight. The worker serializes ops per session (its
    /// `is_ready` gate), so seeing this means a driver invariant was
    /// violated — it is deliberately *not* folded into
    /// [`NetError::TimedOut`], which reports a protocol-level deadline.
    DriverBusy,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "cluster shut down mid-operation"),
            NetError::TimedOut => write!(f, "operation did not complete within the deadline"),
            NetError::DriverBusy => {
                write!(f, "driver invariant violation: an operation was already in flight")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// The tracing classification of this failure.
    pub(crate) fn fail_reason(self) -> lucky_trace::FailReason {
        match self {
            NetError::TimedOut => lucky_trace::FailReason::Deadline,
            NetError::DriverBusy => lucky_trace::FailReason::Busy,
            NetError::Disconnected => lucky_trace::FailReason::Disconnected,
        }
    }
}

/// Map a client process to its tracing identity. `reg` disambiguates
/// readers, whose global ids do not name their register.
pub(crate) fn trace_actor(client: ProcessId, reg: RegisterId) -> lucky_trace::Actor {
    match client {
        ProcessId::Writer | ProcessId::WriterOf(_) => lucky_trace::Actor::Writer { reg: reg.0 },
        ProcessId::Reader(r) => lucky_trace::Actor::Reader { reg: reg.0, id: r.0 },
        ProcessId::Server(s) => lucky_trace::Actor::Server { id: s.0 },
    }
}

/// How session failures surface to blocking/future callers: the one
/// mapping, so the deadline-vs-busy distinction cannot silently diverge.
impl From<SessionError> for NetError {
    fn from(err: SessionError) -> NetError {
        match err {
            SessionError::DeadlineExceeded => NetError::TimedOut,
            SessionError::Busy => NetError::DriverBusy,
        }
    }
}

/// Why a register handle could not be handed out: "you already took
/// this handle" and "no such register exists" are distinct errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandleError {
    /// No register with this id exists in the store.
    UnknownRegister(RegisterId),
    /// That register's handle was already taken.
    RegisterTaken(RegisterId),
}

impl fmt::Display for HandleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandleError::UnknownRegister(x) => write!(f, "no register {x} in this store"),
            HandleError::RegisterTaken(x) => write!(f, "register {x} handle already taken"),
        }
    }
}

impl std::error::Error for HandleError {}

/// Outcome of a blocking operation on the threaded runtime.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetOutcome {
    /// The register the operation targeted.
    pub reg: RegisterId,
    /// Whether the operation was a WRITE or a READ.
    pub kind: lucky_types::OpKind,
    /// Value read (READs) or written (WRITEs).
    pub value: Value,
    /// Communication round-trips used.
    pub rounds: u32,
    /// `true` iff the operation was fast (one round-trip).
    pub fast: bool,
    /// Wall-clock latency.
    pub elapsed: Duration,
}

impl NetOutcome {
    /// Assemble from a completed session outcome: the invoked `op`
    /// resolves the headline value (a WRITE reports the value written),
    /// `elapsed` is the worker's measured wall time.
    pub(crate) fn from_session(outcome: SessionOutcome, op: &Op, elapsed: Duration) -> NetOutcome {
        NetOutcome {
            reg: outcome.reg,
            kind: outcome.kind,
            value: outcome.value_or(op),
            rounds: outcome.rounds,
            fast: outcome.fast,
            elapsed,
        }
    }
}

/// Control-plane commands for one server thread: the crash-recovery
/// harness speaks to a *live thread* whose protocol core comes and goes.
pub(crate) enum ServerCtl {
    /// Drop the protocol core: the thread keeps draining its socket but
    /// every delivery is discarded, exactly as a dead process loses the
    /// messages sent to it.
    Crash,
    /// Rebuild the core and resume answering. The builder runs on the
    /// server thread *after* the old core (and its open log handles)
    /// has been dropped, so a durable rebuild replays logs whose every
    /// pre-crash write has completed. The server then re-binds: the old
    /// listener and its connections close, a fresh ephemeral one takes
    /// their place. The second field acknowledges the completed restart
    /// with the new listener's address (dropped unsettled if no listener
    /// could be had): the requester blocks on it so that once its
    /// `restart_server` returns, no later message can race the
    /// still-down window and be lost (deliveries *before* the rebuild
    /// are lost like any message to a down server).
    Restart(Box<dyn FnOnce() -> Box<dyn ServerCore> + Send>, Settle<SocketAddr>),
}

/// One server: its protocol core, present unless crashed, and where its
/// replies go.
struct Server {
    id: ProcessId,
    core: Option<Box<dyn ServerCore>>,
    router: Sender<Envelope>,
}

impl Server {
    /// Apply one control command. A restart hands back its
    /// acknowledgement, for the caller to settle once its socket is
    /// ready for the new incarnation.
    fn control(&mut self, cmd: ServerCtl) -> Option<Settle<SocketAddr>> {
        match cmd {
            ServerCtl::Crash => {
                self.core = None;
                None
            }
            ServerCtl::Restart(build, done) => {
                // The old core (and its open log handles) drops before
                // the rebuild opens the same logs.
                drop(self.core.take());
                self.core = Some(build());
                Some(done)
            }
        }
    }

    /// Deliver one message to the core (a crashed server's delivery is
    /// lost) and forward its replies — a durable core has persisted
    /// before `deliver` returns, so before any reply leaves this thread.
    /// `false` once the router is gone.
    fn deliver(&mut self, from: ProcessId, msg: Message) -> bool {
        let Some(core) = self.core.as_mut() else { return true };
        let mut eff = Effects::new();
        core.deliver(from, msg, &mut eff);
        let (sends, _, _) = eff.into_parts();
        sends.into_iter().all(|(to, out)| {
            self.router.send(Envelope::Deliver { from: self.id, to, msg: out }).is_ok()
        })
    }
}

/// Spawn one server's event loop: read `io`, deliver every inbound
/// message to `core` and forward its replies to the router. The control
/// port (whose eventfd, if any, is `wake`) injects crash/restart
/// transitions, and always goes first: a queued crash takes effect
/// before any queued delivery, so deliveries behind the command in
/// wall-clock order are lost like a real crash loses them.
///
/// The server exits when its control port disconnects, or once the
/// router is gone.
pub(crate) fn spawn_server_thread(
    name: String,
    id: ProcessId,
    core: Box<dyn ServerCore>,
    mut io: PollIo,
    wake: Option<Arc<WakeFd>>,
    ctl: Receiver<ServerCtl>,
    router: Sender<Envelope>,
) -> JoinHandle<()> {
    let mut server = Server { id, core: Some(core), router };
    let run = move || {
        let mut wait = wait_strategy(&io, wake.clone(), None);
        let stats = Arc::clone(&io.stats);
        let mut router_up = true;
        loop {
            loop {
                match ctl.try_recv() {
                    Ok(cmd) => {
                        if let Some(done) = server.control(cmd) {
                            let addr = io.rebind();
                            wait = wait_strategy(&io, wake.clone(), None);
                            if let Some(addr) = addr {
                                done.settle(addr);
                            }
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            // Only a part addressed to this server, while it is up,
            // reaches the core; anything else on this socket (only
            // hostile frames are mis-addressed — the router partitions
            // by slot) is dropped and counted.
            wait.input(&mut io, &mut |from, to, msg| {
                if to == id && server.core.is_some() {
                    router_up &= server.deliver(from, msg);
                } else {
                    stats.lock().dropped += msg.part_count() as u64;
                }
            });
            if !router_up {
                return;
            }
            wait.wait(&io, None);
        }
    };
    std::thread::Builder::new().name(name).spawn(run).expect("spawn server thread")
}

/// Panic on a server index configured both crashed and Byzantine: the
/// crash would silently win and the Byzantine behaviour never run.
pub(crate) fn assert_one_fault_per_server(
    crashed: &[u16],
    byzantine: &BTreeMap<u16, Box<dyn ServerCore>>,
) {
    if let Some(i) = crashed.iter().find(|i| byzantine.contains_key(i)) {
        panic!("server {i} configured both crashed and Byzantine — pick one fault per server");
    }
}
