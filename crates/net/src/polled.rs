//! The session-multiplexing shard worker: the one client loop.
//!
//! A [`PolledWorker`] multiplexes **all of a shard's client sessions on
//! one thread**: a single loop ([`PolledWorker::run`]) drains the job
//! queue, feeds whatever input is ready to the sessions, wakes the ones
//! that are due, pumps their outputs to the router and settles finished
//! operations. The sans-io `ClientSession` isolates all protocol and
//! deadline logic, so the only thing two workers may differ in is how
//! they find input and how they block when there is none — the [`Wait`]
//! strategy:
//!
//! * [`Driver::Polled`] — this module's [`SleepPoll`]: re-poll every
//!   input source after a sleep of at most [`POLL_TICK`]. Portable (no
//!   OS reactor) and the only strategy that can watch a channel, at the
//!   cost of scheduling noise up to one tick per input;
//! * [`Driver::Reactor`] — `crate::reactor`'s `EpollWait`: block in
//!   `epoll_wait` with the session timers armed on a timerfd, wake only
//!   for actual IO, a timer or a job submission, and read only the
//!   connections epoll reported.
//!
//! Input sources per [`Transport`](crate::Transport):
//!
//! * **Channel** — the worker owns its client processes' inboxes and
//!   `try_recv`s them;
//! * **Tcp** — the worker owns its slot's loopback listener *itself*
//!   (the fabric spawns reader threads for server slots only): it
//!   accepts the router's connection nonblocking, reads whatever bytes
//!   arrived, reassembles frames with [`FrameDecoder`], decodes the
//!   packet parts and dispatches them to sessions by recipient. One
//!   thread, zero blocking reads — the push-based decoder from
//!   `lucky-wire` is what makes this loop possible.
//!
//! Socket setup failures degrade instead of killing the worker: a
//! connection that cannot be flipped nonblocking is dropped (counted in
//! [`NetStats::io_errors`]), a listener that cannot be is abandoned —
//! the shard's sessions then fail per-operation (deadline) rather than
//! stranding every session the worker multiplexes.

use crate::cluster::{trace_actor, NetError, NetOutcome};
use crate::future::NotifyGuard;
use crate::router::{Envelope, NetStats};
use crossbeam::channel::{Receiver, Sender};
use lucky_core::runtime::{ClientSession, Input};
use lucky_types::{History, Message, Op, OpId, OpRecord, ProcessId, RegisterId, Time};
use lucky_wire::{decode_packet, FrameDecoder};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a `NetStore`'s shard workers wait for input. Unless the builder's
/// `driver` method names one, the store derives it from the transport:
/// [`Driver::Reactor`] over [`Transport::Tcp`](crate::Transport::Tcp) on
/// Linux, [`Driver::Polled`] otherwise (epoll cannot watch a channel).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Sleep-capped polling: the worker re-polls its inboxes or sockets
    /// after at most one tick. Works under every transport and platform.
    Polled,
    /// One `epoll` instance per shard worker: the thread blocks in
    /// `epoll_wait` (wake eventfd + listener + accepted connections
    /// registered, session timers on a timerfd) instead of sleep-capped
    /// polling — so one thread drives thousands of concurrent sessions
    /// and an idle worker costs zero CPU. Requires
    /// [`Transport::Tcp`](crate::Transport::Tcp); where no epoll
    /// instance can be had the worker falls back to sleep-polling
    /// (counted in [`NetStats::io_errors`]).
    Reactor,
}

/// A job submitted to a shard worker: run `op` on the client session
/// keyed by `slot` and send the outcome back through `reply`. `notify`
/// wakes the op's future (if the job came from the futures API) once the
/// reply has been sent — or on any path that drops the job, so a future
/// can never be lost.
pub(crate) struct Job {
    pub(crate) slot: (RegisterId, u32),
    pub(crate) op: Op,
    pub(crate) reply: Sender<Result<NetOutcome, NetError>>,
    pub(crate) notify: Option<NotifyGuard>,
}

/// The operation currently in flight on one session, with its per-op
/// traffic attribution (wire messages sent/received and their
/// codec-exact bytes while the op was pending — the same accounting the
/// sim world's `apply_effects`/`account_delivery` perform).
struct Current {
    op: Op,
    reply: Sender<Result<NetOutcome, NetError>>,
    notify: Option<NotifyGuard>,
    start: Instant,
    invoked_at: Time,
    msgs: u64,
    bytes: u64,
}

/// A queued operation: what to run, where the outcome goes, and the
/// optional future wakeup to fire once the reply is observable.
type QueuedOp = (Op, Sender<Result<NetOutcome, NetError>>, Option<NotifyGuard>);

/// One session plus its queued work.
pub(crate) struct PolledSlot {
    pub(crate) session: ClientSession,
    queue: VecDeque<QueuedOp>,
    current: Option<Current>,
}

impl PolledSlot {
    pub(crate) fn new(session: ClientSession) -> PolledSlot {
        PolledSlot { session, queue: VecDeque::new(), current: None }
    }

    fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    /// Credit one delivered wire message to the pending op (if any).
    fn credit_delivery(&mut self, msg: &Message) {
        if let Some(cur) = self.current.as_mut() {
            cur.msgs += 1;
            cur.bytes += msg.wire_size() as u64;
        }
    }
}

/// Where a polled worker's inbound protocol messages come from.
pub(crate) enum PollIo {
    /// Channel transport: the per-process inboxes this worker hosts.
    Channel(BTreeMap<ProcessId, Receiver<(ProcessId, Message)>>),
    /// TCP transport: the worker's own loopback listener (nonblocking;
    /// `None` if it could not be made so — the worker then runs without
    /// accepting, degraded but alive), plus a slab of the connections
    /// accepted so far with their frame decoders. Slab indices are
    /// stable (closed connections leave a `None` hole) so the reactor's
    /// epoll tokens stay valid across closes.
    Tcp { listener: Option<TcpListener>, conns: Vec<Option<(TcpStream, FrameDecoder)>> },
}

impl PollIo {
    /// A nonblocking TCP source. The listener must already be bound;
    /// this flips it nonblocking. If the OS refuses, the listener is
    /// **abandoned** (counted in [`NetStats::io_errors`]) rather than
    /// kept blocking — a blocking `accept` would wedge the whole shard
    /// worker, whereas a worker without a listener merely lets its
    /// sessions fail per-operation.
    pub(crate) fn tcp(
        listener: TcpListener,
        stats: &Arc<Mutex<NetStats>>,
        tracer: &lucky_trace::Tracer,
    ) -> PollIo {
        let listener = match listener.set_nonblocking(true) {
            Ok(()) => Some(listener),
            Err(_) => {
                stats.lock().io_errors += 1;
                tracer.note_io_error(0, "worker listener cannot be made nonblocking; abandoned");
                discard_broken(listener);
                None
            }
        };
        PollIo::Tcp { listener, conns: Vec::new() }
    }
}

/// Upper bound on one poll-loop sleep: inputs (jobs, bytes) that arrive
/// while the worker sleeps are picked up at worst this much later.
const POLL_TICK: Duration = Duration::from_micros(500);

/// How long an *idle* worker (no session pending, no job queued) parks
/// on the job queue before re-checking for shutdown.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// The one thing two shard workers may differ in: where ready input is
/// found and how the thread blocks when there is none.
pub(crate) trait Wait {
    /// Feed the sessions whatever input is ready, without blocking.
    fn input(&mut self, worker: &mut PolledWorker);
    /// Block until there may be work again: input, a due session timer
    /// or a submitted job.
    fn wait(&mut self, worker: &mut PolledWorker);
}

/// The portable strategy: poll every input source, then sleep until the
/// next session timer — capped at [`POLL_TICK`], since nothing
/// interrupts the sleep — or, fully idle, park on the job queue so an
/// idle store costs no CPU.
pub(crate) struct SleepPoll;

impl Wait for SleepPoll {
    fn input(&mut self, worker: &mut PolledWorker) {
        worker.poll_io();
    }

    fn wait(&mut self, worker: &mut PolledWorker) {
        if !worker.all_idle() {
            let next = worker.next_wake_delay().unwrap_or(POLL_TICK);
            std::thread::sleep(next.min(POLL_TICK));
        } else if worker.jobs_open {
            match worker.jobs.recv_timeout(IDLE_PARK) {
                Ok(job) => worker.enqueue(job),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => worker.jobs_open = false,
            }
        }
    }
}

pub(crate) struct PolledWorker {
    pub(crate) sessions: BTreeMap<(RegisterId, u32), PolledSlot>,
    /// Recipient → session key, for dispatching inbound messages.
    pub(crate) by_pid: BTreeMap<ProcessId, (RegisterId, u32)>,
    pub(crate) jobs: Receiver<Job>,
    /// Cleared once the store has dropped every job sender.
    pub(crate) jobs_open: bool,
    pub(crate) router: Sender<Envelope>,
    /// Latched once a send to the router fails (the store shut down):
    /// from then on every operation fails fast with
    /// [`NetError::Disconnected`] instead of touching its session, whose
    /// abandoned operation can never be completed or retried.
    pub(crate) disconnected: bool,
    pub(crate) io: PollIo,
    pub(crate) history: Arc<Mutex<History>>,
    pub(crate) stats: Arc<Mutex<NetStats>>,
    pub(crate) epoch: Instant,
    pub(crate) tracer: Arc<lucky_trace::Tracer>,
}

impl PolledWorker {
    /// Session time: microseconds since the store's epoch (shared by
    /// every worker so history timestamps interleave correctly).
    pub(crate) fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_micros() as u64)
    }

    /// The worker loop, until the store drops the job senders and every
    /// session has drained its work.
    pub(crate) fn run(mut self, mut wait: Box<dyn Wait>) {
        loop {
            // 1. Drain newly submitted jobs into their session queues.
            self.drain_jobs();
            // 2. Feed ready input to the sessions.
            wait.input(&mut self);
            // 3. Wake every session whose next_wake is due.
            self.fire_due_wakes();
            // 4. Settle finished operations, start queued ones, pump
            //    outputs.
            self.advance();
            // 5. Exit once no more jobs can arrive and nothing is left.
            if !self.jobs_open && self.all_idle() {
                return;
            }
            // 6. Block until there may be work again.
            wait.wait(&mut self);
        }
    }

    /// Move every queued job into its session's queue; clears
    /// `jobs_open` once the store has dropped the job senders.
    fn drain_jobs(&mut self) {
        while self.jobs_open {
            match self.jobs.try_recv() {
                Ok(job) => self.enqueue(job),
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => self.jobs_open = false,
            }
        }
    }

    /// Wake every session whose `next_wake` is due.
    fn fire_due_wakes(&mut self) {
        let now = self.now();
        for slot in self.sessions.values_mut() {
            if slot.session.next_wake().is_some_and(|due| due <= now) {
                slot.session.handle(Input::Wake, now);
            }
        }
    }

    /// `true` iff no session has an op in flight or queued.
    fn all_idle(&self) -> bool {
        self.sessions.values().all(PolledSlot::is_idle)
    }

    /// How long until the earliest session timer is due (`None` when no
    /// session needs waking — e.g. fully idle). The epoll strategy arms
    /// its timerfd with this; the sleep-poll strategy caps it at
    /// [`POLL_TICK`].
    pub(crate) fn next_wake_delay(&self) -> Option<Duration> {
        let now = self.now();
        self.sessions
            .values()
            .filter_map(|s| s.session.next_wake())
            .min()
            .map(|due| Duration::from_micros(due.0.saturating_sub(now.0)))
    }

    fn enqueue(&mut self, job: Job) {
        // An unknown slot cannot happen (handle construction prevents
        // it); if it did, dropping the reply sender surfaces as a
        // disconnect to the caller (and the dropped notify guard wakes
        // the op's future, if any).
        if let Some(slot) = self.sessions.get_mut(&job.slot) {
            slot.queue.push_back((job.op, job.reply, job.notify));
        }
    }

    /// Drain whatever input arrived on any source, without blocking.
    fn poll_io(&mut self) {
        match &mut self.io {
            PollIo::Channel(_) => self.poll_channels(),
            PollIo::Tcp { .. } => {
                self.accept_new();
                let PollIo::Tcp { conns, .. } = &self.io else { unreachable!() };
                let live: Vec<usize> =
                    conns.iter().enumerate().filter_map(|(i, c)| c.as_ref().map(|_| i)).collect();
                for i in live {
                    self.read_conn(i);
                }
            }
        }
    }

    /// Drain the channel-transport inboxes.
    fn poll_channels(&mut self) {
        let now = self.now();
        let PollIo::Channel(inboxes) = &mut self.io else { return };
        for (pid, rx) in inboxes.iter() {
            let Some(&key) = self.by_pid.get(pid) else { continue };
            while let Ok((from, msg)) = rx.try_recv() {
                if let Some(slot) = self.sessions.get_mut(&key) {
                    slot.credit_delivery(&msg);
                    slot.session.handle(Input::Deliver(from, msg), now);
                }
            }
        }
    }

    /// Accept every connection the router has established (TCP only),
    /// returning the slab indices of the new connections so a reactor
    /// can register them. A connection that cannot be made nonblocking
    /// is dropped and counted — one bad socket must not kill the worker.
    pub(crate) fn accept_new(&mut self) -> Vec<usize> {
        let mut added = Vec::new();
        let PollIo::Tcp { listener, conns } = &mut self.io else { return added };
        let Some(listener) = listener.as_ref() else { return added };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.lock().io_errors += 1;
                        self.tracer.note_io_error(
                            self.epoch.elapsed().as_micros() as u64,
                            "accepted connection cannot be made nonblocking; dropped",
                        );
                        discard_broken(stream);
                        continue;
                    }
                    let i = match conns.iter().position(Option::is_none) {
                        Some(hole) => hole,
                        None => {
                            conns.push(None);
                            conns.len() - 1
                        }
                    };
                    conns[i] = Some((stream, FrameDecoder::new()));
                    added.push(i);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        added
    }

    /// The worker's loopback listener, for epoll registration (`None`
    /// for channel transport or a degraded TCP source).
    pub(crate) fn listener(&self) -> Option<&TcpListener> {
        match &self.io {
            PollIo::Tcp { listener, .. } => listener.as_ref(),
            PollIo::Channel(_) => None,
        }
    }

    /// The accepted connection at slab index `i`, for epoll registration.
    pub(crate) fn conn_stream(&self, i: usize) -> Option<&TcpStream> {
        match &self.io {
            PollIo::Tcp { conns, .. } => conns.get(i).and_then(|c| c.as_ref()).map(|(s, _)| s),
            PollIo::Channel(_) => None,
        }
    }

    /// Drop the accepted connection at slab index `i` (its hole is
    /// reused by later accepts).
    pub(crate) fn drop_conn(&mut self, i: usize) {
        if let PollIo::Tcp { conns, .. } = &mut self.io {
            if let Some(c) = conns.get_mut(i) {
                *c = None;
            }
        }
    }

    /// Read connection `i` dry: reassemble frames, decode, dispatch to
    /// sessions. Closes the connection on EOF, IO error or the first
    /// malformed frame (counted — a corrupt stream has no trustworthy
    /// framing left).
    pub(crate) fn read_conn(&mut self, i: usize) {
        let now = self.now();
        let PollIo::Tcp { conns, .. } = &mut self.io else { return };
        let Some(Some((stream, dec))) = conns.get_mut(i) else { return };
        let mut buf = [0u8; 16 * 1024];
        let mut close = false;
        'conn: loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    close = true;
                    break;
                }
                Ok(n) => {
                    dec.feed(&buf[..n]);
                    loop {
                        match dec.next_frame() {
                            Ok(Some(payload)) => match decode_packet(&payload) {
                                Ok(parts) => dispatch(
                                    &parts,
                                    &self.by_pid,
                                    &mut self.sessions,
                                    &self.stats,
                                    now,
                                ),
                                Err(_) => {
                                    self.stats.lock().decode_errors += 1;
                                    close = true;
                                    break 'conn;
                                }
                            },
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.lock().decode_errors += 1;
                                close = true;
                                break 'conn;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if close {
            conns[i] = None;
        }
    }

    /// Begin queued operations on idle sessions, forward outputs to the
    /// router, and resolve completed or failed operations.
    fn advance(&mut self) {
        let now = self.now();
        for slot in self.sessions.values_mut() {
            // Loop the slot until it makes no progress: an operation
            // that settles in this pass frees the session for the next
            // queued one *now*. Left for the next pass, that operation
            // would have no timer armed yet, and a worker blocked in
            // `epoll_wait` nothing to wake it.
            loop {
                // Start the next queued op when the session is free.
                if slot.current.is_none() && (self.disconnected || slot.session.is_ready()) {
                    if let Some((op, reply, notify)) = slot.queue.pop_front() {
                        if !self.disconnected {
                            slot.session
                                .begin(op.clone(), now)
                                .expect("is_ready checked; sessions run one op at a time");
                        }
                        slot.current = Some(Current {
                            op,
                            reply,
                            notify,
                            start: Instant::now(),
                            invoked_at: now,
                            msgs: 0,
                            bytes: 0,
                        });
                    }
                }
                // Pump outputs, attributing each send to the pending op.
                let from = slot.session.id();
                while let Some(out) = slot.session.poll_output() {
                    let (to, msg) = out.into_send();
                    if let Some(cur) = slot.current.as_mut() {
                        cur.msgs += 1;
                        cur.bytes += msg.wire_size() as u64;
                    }
                    if self.router.send(Envelope::Deliver { from, to, msg }).is_err() {
                        self.disconnected = true;
                    }
                }
                // Settle.
                let settled = if self.disconnected {
                    Err(NetError::Disconnected)
                } else if let Some(outcome) = slot.session.take_outcome() {
                    Ok(outcome)
                } else if let Some(err) = slot.session.take_failure() {
                    Err(err.into())
                } else {
                    break;
                };
                let Some(cur) = slot.current.take() else { break };
                let result =
                    settled.map(|out| NetOutcome::from_session(out, &cur.op, cur.start.elapsed()));
                let actor = trace_actor(slot.session.id(), slot.session.reg());
                let write = matches!(cur.op, Op::Write(_));
                match &result {
                    Ok(net) => self.tracer.record_settle(
                        actor,
                        write,
                        net.rounds,
                        net.fast,
                        net.elapsed.as_micros() as u64,
                        slot.session.span(),
                    ),
                    Err(err) => self.tracer.record_failure(
                        actor,
                        write,
                        err.fail_reason(),
                        slot.session.span(),
                    ),
                }
                // A failed operation stays an incomplete record.
                append_history(
                    &self.history,
                    slot.session.reg(),
                    slot.session.id(),
                    cur.op,
                    cur.invoked_at,
                    result.as_ref().ok().map(|net| (now, net)),
                    (cur.msgs, cur.bytes),
                );
                let _ = cur.reply.send(result);
                // Wake the op's future (if any) only now, *after* the
                // reply is observable in the channel.
                drop(cur.notify);
            }
        }
    }
}

/// Dispose of a socket whose `set_nonblocking` failed. The practical
/// failure is `EBADF` — the descriptor is already dead (closed out from
/// under us) — and `OwnedFd`'s drop *aborts the process* on a
/// double-close. So instead of dropping, close through the raw,
/// EBADF-tolerant helper and forget the handle: a live descriptor is
/// closed exactly once, a dead one is left alone, and the worker
/// survives either way.
fn discard_broken(socket: impl std::os::fd::AsRawFd) {
    epoll::close_fd(socket.as_raw_fd());
    std::mem::forget(socket);
}

/// Hand decoded packet parts to their sessions. Parts addressed to a
/// process this worker does not host (only hostile frames produce one)
/// count as dropped, mirroring the fabric's accounting.
fn dispatch(
    parts: &[(ProcessId, ProcessId, Message)],
    by_pid: &BTreeMap<ProcessId, (RegisterId, u32)>,
    sessions: &mut BTreeMap<(RegisterId, u32), PolledSlot>,
    stats: &Arc<Mutex<NetStats>>,
    now: Time,
) {
    for (from, to, msg) in parts {
        match by_pid.get(to).and_then(|key| sessions.get_mut(key)) {
            Some(slot) => {
                slot.credit_delivery(msg);
                slot.session.handle(Input::Deliver(*from, msg.clone()), now);
            }
            None => stats.lock().dropped += msg.part_count() as u64,
        }
    }
}

/// Append one finished (or abandoned) operation to the shared history.
/// `completion` is `None` for a failed operation (it stays an incomplete
/// record, so the checkers treat it as pending, never as a bogus
/// completion).
/// `traffic` is the op's `(msgs, bytes)` attribution, counted by the
/// worker while the op was pending — the same population the sim world
/// records, so sim-vs-net comparisons read real numbers.
fn append_history(
    history: &Arc<Mutex<History>>,
    reg: RegisterId,
    client: ProcessId,
    op: Op,
    invoked_at: Time,
    completion: Option<(Time, &NetOutcome)>,
    traffic: (u64, u64),
) {
    let mut h = history.lock();
    let id = OpId(h.ops.len() as u64);
    let (completed_at, result, rounds, fast) = match completion {
        Some((at, net)) => (
            Some(at),
            match op {
                Op::Read => Some(net.value.clone()),
                Op::Write(_) => None,
            },
            net.rounds,
            net.fast,
        ),
        None => (None, None, 0, false),
    };
    h.ops.push(OpRecord {
        id,
        reg,
        client,
        op,
        invoked_at,
        completed_at,
        result,
        rounds,
        fast,
        msgs: traffic.0,
        bytes: traffic.1,
    });
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use lucky_core::runtime::{SessionConfig, Setup};
    use lucky_core::ProtocolConfig;
    use lucky_types::Params;
    use std::os::fd::AsRawFd;

    fn one_session_worker(
        listener: TcpListener,
        deadline_micros: u64,
    ) -> (PolledWorker, Sender<Job>, Receiver<Envelope>, Arc<Mutex<NetStats>>) {
        let setup = Setup::from(Params::new(1, 0, 1, 0).unwrap());
        let protocol = ProtocolConfig { timer_micros: 1_000, ..ProtocolConfig::default() };
        let session = setup.make_writer_session(
            RegisterId(0),
            protocol,
            SessionConfig::with_deadline(deadline_micros),
        );
        let pid = session.id();
        let key = (RegisterId(0), 0u32);
        let mut sessions = BTreeMap::new();
        sessions.insert(key, PolledSlot::new(session));
        let mut by_pid = BTreeMap::new();
        by_pid.insert(pid, key);
        let (job_tx, job_rx) = unbounded::<Job>();
        // Nothing drains the router queue: this worker's sends go
        // nowhere by design. The caller keeps the receiver alive, or the
        // worker would see a shut-down store.
        let (router_tx, router_rx) = unbounded::<Envelope>();
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let tracer = Arc::new(lucky_trace::Tracer::new(lucky_trace::TraceConfig::disabled()));
        let worker = PolledWorker {
            sessions,
            by_pid,
            jobs: job_rx,
            jobs_open: true,
            router: router_tx,
            disconnected: false,
            io: PollIo::tcp(listener, &stats, &tracer),
            history: Arc::new(Mutex::new(History::new())),
            stats: Arc::clone(&stats),
            epoch: Instant::now(),
            tracer,
        };
        (worker, job_tx, router_rx, stats)
    }

    #[test]
    fn sabotaged_listener_degrades_instead_of_panicking() {
        // Close the listener's descriptor out from under it: the next
        // fcntl (set_nonblocking) fails with EBADF. The old code
        // `.expect()`ed here and killed the whole shard worker.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        epoll::close_fd(listener.as_raw_fd());
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let tracer = lucky_trace::Tracer::new(lucky_trace::TraceConfig::disabled());
        let io = PollIo::tcp(listener, &stats, &tracer);
        match &io {
            PollIo::Tcp { listener, conns } => {
                assert!(listener.is_none(), "unusable listener is abandoned, not kept blocking");
                assert!(conns.is_empty());
            }
            PollIo::Channel(_) => panic!("tcp() builds a Tcp source"),
        }
        assert_eq!(stats.lock().io_errors, 1, "the degradation is counted");
    }

    #[test]
    fn worker_with_degraded_listener_stays_alive_and_times_ops_out() {
        // A worker whose listener was abandoned at setup keeps running:
        // the submitted op can never receive acks, so it fails with
        // TimedOut at its deadline — and the worker then exits cleanly
        // when the job sender drops, instead of having panicked.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        epoll::close_fd(listener.as_raw_fd());
        let (worker, job_tx, _router_rx, stats) = one_session_worker(listener, 50_000);
        assert_eq!(stats.lock().io_errors, 1);
        let handle = std::thread::spawn(move || worker.run(Box::new(SleepPoll)));
        let (reply, rx) = unbounded();
        job_tx
            .send(Job {
                slot: (RegisterId(0), 0),
                op: Op::Write(lucky_types::Value::from_u64(1)),
                reply,
                notify: None,
            })
            .unwrap();
        let result = rx.recv_timeout(Duration::from_secs(5)).expect("worker still answers");
        assert_eq!(result.unwrap_err(), NetError::TimedOut);
        drop(job_tx);
        handle.join().expect("worker exits cleanly, no panic");
    }
}
