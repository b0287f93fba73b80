//! The one receive path ([`PollIo`]), the one way to wait for it
//! ([`Wait`]), and the session-multiplexing shard worker built on them.
//!
//! Every thread that receives protocol messages — a shard worker or a
//! server — owns a [`PollIo`] and reads it itself, nonblocking, through
//! a [`Wait`] strategy. What the thread *does* with a message is a sink
//! it passes in; where ready input is found and how the thread blocks
//! when there is none is the strategy:
//!
//! * [`Driver::Polled`] — this module's [`SleepPoll`]: re-poll every
//!   socket after a sleep of at most [`POLL_TICK`]. The portable
//!   fallback, at the cost of scheduling noise up to one tick per hop;
//! * [`Driver::Reactor`] — `crate::reactor`'s `EpollWait`: block in
//!   `epoll_wait` with the caller's deadline armed on a timerfd, wake
//!   only for actual IO, the deadline or a port's eventfd, and read only
//!   the connections epoll reported.
//!
//! The input source is the thread's own loopback listener: the thread
//! accepts the router's connection nonblocking, reads whatever bytes
//! arrived, reassembles frames with [`FrameDecoder`], decodes the packet
//! parts and hands each `(from, to, message)` to the sink. One thread,
//! zero blocking reads — the push-based decoder from `lucky-wire` is
//! what makes this loop possible.
//!
//! Trust model: a slot's socket delivers only to the sink of the thread
//! that owns it, so a frame arriving on server 0's socket can never
//! inject into server 1, and a sink only handles parts addressed to a
//! process it hosts — anything else counts as [`NetStats::dropped`].
//! Malformed frames (bad magic, version skew, oversized length prefixes,
//! checksum failures, codec garbage) are counted in
//! [`NetStats::decode_errors`] and the connection is dropped: a
//! corrupted byte stream cannot be resynchronized, so continuing would
//! mean guessing at frame boundaries. Peer *authentication* is out of
//! scope for this loopback transport (the listener trusts whoever
//! connects and the `from` each part names, which is how the
//! adversarial tests inject hostile bytes); within one store the paper's
//! channel model holds because every honest frame is written by the
//! router. ROADMAP item 9 is the work that closes this gap.
//!
//! Socket failures degrade instead of killing the thread, each counted
//! in [`NetStats::io_errors`]: a connection that cannot be flipped
//! nonblocking is dropped, a listener that cannot be is abandoned, a
//! failing `accept` backs off — the slot's operations then fail
//! per-operation (deadline) rather than stranding everything the thread
//! multiplexes.
//!
//! [`PolledWorker`] is the one client loop: it multiplexes **all of a
//! shard's client sessions on one thread**, and one pass of it costs
//! O(ready + due), however many sessions sit idle beside them. A
//! session becomes runnable in one of three ways — a job arrives for
//! it, a part is decoded for it, or its wake falls due — and each puts
//! its slot on the worker's *ready list* (once: a per-slot flag
//! dedups). Wakes live in a *timer heap* keyed by due time, as the
//! router's in-flight frames do: after stepping a slot the
//! worker pushes the session's `next_wake` if it moved, due entries are
//! popped and fired, and the earliest live entry is the deadline the
//! [`Wait`] blocks on. An entry whose time no longer equals its
//! session's `next_wake` is stale: it is skipped when it surfaces,
//! never searched for. A counter of busy slots says when the worker is
//! idle. One pass: drain the job queue, feed ready input, fire due
//! wakes, step the ready slots (settle, start queued ops, pump outputs
//! to the router), wait. The sans-io `ClientSession` isolates all
//! protocol and deadline logic.

use crate::cluster::{trace_actor, NetError, NetOutcome};
use crate::oplog::OpLog;
use crate::router::{Envelope, NetStats};
use crate::settle::Settle;
use crossbeam::channel::{Receiver, Sender};
use lucky_core::runtime::{ClientSession, Input};
use lucky_types::{Message, Op, ProcessId, RegisterId, Time};
use lucky_wire::{decode_packet, FrameDecoder};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a `NetStore`'s socket-owning threads (shard workers and servers)
/// wait for input. Unless the builder's `driver` method names one, the
/// store picks [`Driver::Reactor`] on Linux and [`Driver::Polled`]
/// otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Sleep-capped polling: the thread re-polls its sockets after at
    /// most a 500 µs tick, which a message pays once per hop. The
    /// portable fallback: it runs off Linux, and it is what a
    /// [`Driver::Reactor`] thread degrades to when no epoll set or
    /// eventfd can be had.
    Polled,
    /// One `epoll` instance per thread: it blocks in
    /// `epoll_wait` (wake eventfd + listener + accepted connections
    /// registered, session timers on a timerfd) instead of sleep-capped
    /// polling — so one thread drives thousands of concurrent sessions
    /// and an idle worker costs zero CPU. Linux only; where no epoll
    /// instance or eventfd can be had the thread falls back to
    /// sleep-polling (counted in [`NetStats::io_errors`]).
    Reactor,
}

/// A job submitted to a shard worker: run `op` on the client session
/// keyed by `slot` and settle the outcome into `settle`, the cell its
/// ticket or future reads. A path that drops the job unsettled closes
/// the cell, so the caller is never lost.
pub(crate) struct Job {
    pub(crate) slot: (RegisterId, u32),
    pub(crate) op: Op,
    pub(crate) settle: Settle<Result<NetOutcome, NetError>>,
}

/// The operation currently in flight on one session, with its per-op
/// traffic attribution (wire messages sent/received and their
/// codec-exact bytes while the op was pending — the same accounting the
/// sim world's `apply_effects`/`account_delivery` perform).
struct Current {
    op: Op,
    settle: Settle<Result<NetOutcome, NetError>>,
    start: Instant,
    invoked_at: Time,
    msgs: u64,
    bytes: u64,
}

/// A queued operation: what to run and where the outcome goes.
type QueuedOp = (Op, Settle<Result<NetOutcome, NetError>>);

/// A session's key within its worker: its register and its slot there
/// (the writer, or one of the readers).
type SlotKey = (RegisterId, u32);

/// One session plus its queued work.
struct PolledSlot {
    session: ClientSession,
    queue: VecDeque<QueuedOp>,
    current: Option<Current>,
    /// Whether the slot is on the worker's ready list.
    listed: bool,
    /// The due time of the slot's newest timer-heap entry: the
    /// session's `next_wake` when the worker last stepped it.
    armed: Option<Time>,
}

impl PolledSlot {
    fn new(session: ClientSession) -> PolledSlot {
        PolledSlot { session, queue: VecDeque::new(), current: None, listed: false, armed: None }
    }

    fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    /// Put the slot on the ready list, unless it is there already.
    fn mark_ready(&mut self, i: usize, ready: &mut VecDeque<usize>) {
        if !std::mem::replace(&mut self.listed, true) {
            ready.push_back(i);
        }
    }

    /// Credit one delivered wire message to the pending op (if any).
    fn credit_delivery(&mut self, msg: &Message) {
        if let Some(cur) = self.current.as_mut() {
            cur.msgs += 1;
            cur.bytes += msg.wire_size() as u64;
        }
    }
}

/// What a receiving thread does with one decoded part: `(from, to,
/// message)`. The sink decides whether `to` is a process it hosts.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(ProcessId, ProcessId, Message);

/// Where a thread's inbound protocol messages come from, and the one
/// code path that receives them.
pub(crate) struct PollIo {
    /// The thread's own loopback listener, nonblocking. `None` if it
    /// could not be bound or made nonblocking: the thread then runs
    /// without accepting, degraded but alive.
    listener: Option<TcpListener>,
    /// The connections accepted so far with their frame decoders. Slab
    /// indices are stable (closed connections leave a `None` hole) so
    /// the reactor's epoll tokens stay valid across closes.
    conns: Vec<Option<(TcpStream, FrameDecoder)>>,
    /// Read scratch, kept so a wakeup does not pay to clear 16 KiB.
    scratch: Box<[u8; 16 * 1024]>,
    pub(crate) stats: Arc<Mutex<NetStats>>,
    tracer: Arc<lucky_trace::Tracer>,
    epoch: Instant,
}

impl PollIo {
    /// A nonblocking TCP source. The listener must already be bound;
    /// this flips it nonblocking. If the OS refuses, the listener is
    /// **abandoned** (counted in [`NetStats::io_errors`]) rather than
    /// kept blocking — a blocking `accept` would wedge the whole thread,
    /// whereas a thread without a listener merely lets the operations
    /// that need it fail one by one.
    pub(crate) fn tcp(
        listener: TcpListener,
        stats: &Arc<Mutex<NetStats>>,
        tracer: &Arc<lucky_trace::Tracer>,
        epoch: Instant,
    ) -> PollIo {
        let mut io = PollIo {
            listener: None,
            conns: Vec::new(),
            scratch: Box::new([0; 16 * 1024]),
            stats: Arc::clone(stats),
            tracer: Arc::clone(tracer),
            epoch,
        };
        match listener.set_nonblocking(true) {
            Ok(()) => io.listener = Some(listener),
            Err(_) => io.io_error("listener cannot be made nonblocking; abandoned"),
        }
        io
    }

    /// Close the listener and every connection it accepted, and listen
    /// on a new ephemeral loopback port instead: the socket half of a
    /// server restart — a restarted server resumes at a new address,
    /// exactly as a restarted process would. Returns that address, or
    /// `None` if no listener could be had (counted; the source then
    /// accepts nothing).
    pub(crate) fn rebind(&mut self) -> Option<SocketAddr> {
        self.listener = None;
        self.conns.clear();
        let bound = TcpListener::bind("127.0.0.1:0").and_then(|listener| {
            listener.set_nonblocking(true)?;
            Ok((listener.local_addr()?, listener))
        });
        match bound {
            Ok((addr, listener)) => {
                self.listener = Some(listener);
                Some(addr)
            }
            Err(_) => {
                self.io_error("no loopback listener for the restarted slot");
                None
            }
        }
    }

    /// Count one absorbed socket failure and note it in the flight
    /// recorder.
    pub(crate) fn io_error(&self, what: &'static str) {
        self.stats.lock().io_errors += 1;
        self.tracer.note_io_error(self.epoch.elapsed().as_micros() as u64, what);
    }

    /// Hand the sink whatever arrived on any connection, without
    /// blocking.
    fn poll(&mut self, sink: Sink<'_>) {
        self.accept_new();
        for i in 0..self.conns.len() {
            self.read_conn(i, sink);
        }
    }

    /// Accept every connection waiting on the listener, returning the
    /// slab indices of the new connections so a reactor can register
    /// them. A connection that cannot be made nonblocking is dropped and
    /// counted — one bad socket must not kill the thread.
    pub(crate) fn accept_new(&mut self) -> Vec<usize> {
        let mut added = Vec::new();
        let Some(listener) = self.listener.as_ref() else { return added };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.io_error("accepted connection cannot be made nonblocking; dropped");
                        continue;
                    }
                    let i = match self.conns.iter().position(Option::is_none) {
                        Some(hole) => hole,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    self.conns[i] = Some((stream, FrameDecoder::new()));
                    added.push(i);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // `EMFILE`, a dead listener: the failure may well
                    // persist, and a level-triggered epoll set reports
                    // the listener ready for as long as it does. Back
                    // off so that is a counted retry per millisecond,
                    // not a spinning core.
                    self.io_error("accept failed; backing off");
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
        added
    }

    /// The loopback listener, for epoll registration (`None` for a
    /// degraded source).
    pub(crate) fn listener(&self) -> Option<&TcpListener> {
        self.listener.as_ref()
    }

    /// The accepted connection at slab index `i`, for epoll registration.
    pub(crate) fn conn_stream(&self, i: usize) -> Option<&TcpStream> {
        self.conns.get(i).and_then(|c| c.as_ref()).map(|(s, _)| s)
    }

    /// Drop the accepted connection at slab index `i` (its hole is
    /// reused by later accepts).
    pub(crate) fn drop_conn(&mut self, i: usize) {
        if let Some(c) = self.conns.get_mut(i) {
            *c = None;
        }
    }

    /// Read connection `i` dry: reassemble frames, decode, hand every
    /// part to the sink. Closes the connection on EOF, IO error or the
    /// first malformed frame (counted — a corrupt stream has no
    /// trustworthy framing left).
    pub(crate) fn read_conn(&mut self, i: usize, sink: Sink<'_>) {
        let Some(Some((stream, dec))) = self.conns.get_mut(i) else { return };
        let close = 'conn: loop {
            match stream.read(&mut self.scratch[..]) {
                Ok(0) => break true, // EOF: peer closed
                Ok(n) => {
                    dec.feed(&self.scratch[..n]);
                    loop {
                        // A frame the framing rejects and a frame whose
                        // packet the codec rejects end the same way.
                        let parts = dec
                            .next_frame()
                            .and_then(|frame| frame.as_ref().map(decode_packet).transpose());
                        match parts {
                            Ok(Some(parts)) => {
                                for (from, to, msg) in parts {
                                    sink(from, to, msg);
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.lock().decode_errors += 1;
                                break 'conn true;
                            }
                        }
                    }
                    // A short read drained the socket. Whatever arrives
                    // later makes it readable again — level-triggered
                    // epoll reports it, sleep-polling finds it next
                    // tick — so skip the read that would only say
                    // `WouldBlock`: one syscall per wakeup, not two.
                    if n < self.scratch.len() {
                        break false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(_) => break true,
            }
        };
        if close {
            self.conns[i] = None;
        }
    }
}

/// Upper bound on one poll-loop sleep: inputs (jobs, bytes) that arrive
/// while the thread sleeps are picked up at worst this much later.
const POLL_TICK: Duration = Duration::from_micros(500);

/// How long an *idle* sleep-polling worker (no session pending, no job
/// queued) parks on the job queue before polling its sources again.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// The one thing two receiving threads may differ in: where ready input
/// is found and how the thread blocks when there is none.
pub(crate) trait Wait {
    /// Hand the sink whatever input is ready, without blocking.
    fn input(&mut self, io: &mut PollIo, sink: Sink<'_>);
    /// Block until there may be work again: input, `timeout` (`None` =
    /// no deadline) or — if [`Wait::interruptible`] — a port's eventfd.
    fn wait(&mut self, io: &PollIo, timeout: Option<Duration>);
    /// Whether a send on the thread's port cuts `wait` short. If not,
    /// a thread that needs no input is better off blocking on the port's
    /// queue than in `wait`.
    fn interruptible(&self) -> bool;
}

/// The portable strategy: poll every connection, then sleep until the
/// deadline — capped at [`POLL_TICK`], since nothing interrupts the
/// sleep.
pub(crate) struct SleepPoll;

impl Wait for SleepPoll {
    fn input(&mut self, io: &mut PollIo, sink: Sink<'_>) {
        io.poll(sink);
    }

    fn wait(&mut self, _io: &PollIo, timeout: Option<Duration>) {
        std::thread::sleep(timeout.map_or(POLL_TICK, |t| t.min(POLL_TICK)));
    }

    fn interruptible(&self) -> bool {
        false
    }
}

pub(crate) struct PolledWorker {
    /// The hosted sessions. A slot's index here is its name on the ready
    /// list and in the timer heap.
    sessions: Vec<PolledSlot>,
    /// Session key → slot index, for routing jobs.
    by_key: BTreeMap<SlotKey, usize>,
    /// Recipient → slot index, for dispatching inbound messages.
    by_pid: BTreeMap<ProcessId, usize>,
    /// The slots that may have work: a job arrived, a part was decoded
    /// for the session, or its wake fell due. A pass steps these and no
    /// others.
    ready: VecDeque<usize>,
    /// Every session's wake, earliest first. An entry is stale once its
    /// time no longer equals the session's `next_wake`; it is skipped
    /// when it surfaces, never removed eagerly.
    timers: BinaryHeap<Reverse<(Time, usize)>>,
    /// How many slots have an op in flight or queued: 0 is idle.
    busy: usize,
    jobs: Receiver<Job>,
    /// Cleared once the store has dropped every job sender.
    jobs_open: bool,
    router: Sender<Envelope>,
    /// Latched once a send to the router fails (the store shut down):
    /// from then on every operation fails fast with
    /// [`NetError::Disconnected`] instead of touching its session, whose
    /// abandoned operation can never be completed or retried. Latching
    /// it lists every busy slot, so each fails in the same pass.
    disconnected: bool,
    pub(crate) io: PollIo,
    /// The store's op log, shared by every worker: each settled or
    /// failed op is appended under its lock (see [`append_history`]).
    history: Arc<Mutex<OpLog>>,
    stats: Arc<Mutex<NetStats>>,
    epoch: Instant,
    tracer: Arc<lucky_trace::Tracer>,
}

impl PolledWorker {
    /// A worker hosting no sessions yet: it takes jobs from `jobs`,
    /// reads `io`, sends to `router`, and appends to `history`.
    pub(crate) fn new(
        jobs: Receiver<Job>,
        router: Sender<Envelope>,
        io: PollIo,
        history: Arc<Mutex<OpLog>>,
        stats: Arc<Mutex<NetStats>>,
        epoch: Instant,
        tracer: Arc<lucky_trace::Tracer>,
    ) -> PolledWorker {
        PolledWorker {
            sessions: Vec::new(),
            by_key: BTreeMap::new(),
            by_pid: BTreeMap::new(),
            ready: VecDeque::new(),
            timers: BinaryHeap::new(),
            busy: 0,
            jobs,
            jobs_open: true,
            router,
            disconnected: false,
            io,
            history,
            stats,
            epoch,
            tracer,
        }
    }

    /// Host each session under its key: jobs naming the key run on it,
    /// and parts addressed to its process are delivered to it.
    pub(crate) fn host(&mut self, sessions: Vec<(SlotKey, ClientSession)>) {
        self.sessions.reserve(sessions.len());
        for (key, session) in sessions {
            let i = self.sessions.len();
            self.by_key.insert(key, i);
            self.by_pid.insert(session.id(), i);
            self.sessions.push(PolledSlot::new(session));
        }
    }

    /// Session time: microseconds since the store's epoch (shared by
    /// every worker so history timestamps interleave correctly).
    pub(crate) fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_micros() as u64)
    }

    /// The worker loop, until the store drops the job senders and every
    /// session has drained its work.
    pub(crate) fn run(mut self, mut wait: Box<dyn Wait>) {
        loop {
            // 1. Drain newly submitted jobs into their session queues,
            //    listing each job's slot as ready.
            self.drain_jobs();
            // 2. Feed ready input to the sessions, listing each one a
            //    part was decoded for.
            self.feed(wait.as_mut());
            // 3. Pop the due entries off the timer heap and wake their
            //    sessions, listing them too.
            self.fire_due_wakes();
            // 4. Step the listed slots, and only those: settle finished
            //    operations, start queued ones, pump outputs, re-arm
            //    each slot's wake.
            self.advance();
            // 5. Exit once no more jobs can arrive and nothing is left.
            if !self.jobs_open && self.busy == 0 {
                return;
            }
            // 6. Block until there may be work again, at most until the
            //    heap's earliest live entry. Idle, the only work there
            //    can be is a job: where no submission can interrupt the
            //    wait, park on the job queue itself, so an idle store
            //    costs no CPU.
            if self.busy == 0 && !wait.interruptible() {
                match self.jobs.recv_timeout(IDLE_PARK) {
                    Ok(job) => self.enqueue(job),
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        self.jobs_open = false;
                    }
                }
            } else {
                let delay = self.next_wake_delay();
                wait.wait(&self.io, delay);
            }
        }
    }

    /// Hand every ready inbound part to the session it is addressed to,
    /// and list that session's slot. A part addressed to a process this
    /// worker does not host (only hostile frames produce one) counts as
    /// dropped.
    fn feed(&mut self, wait: &mut dyn Wait) {
        let now = self.now();
        let (by_pid, sessions, ready, stats) =
            (&self.by_pid, &mut self.sessions, &mut self.ready, &self.stats);
        wait.input(&mut self.io, &mut |from, to, msg| match by_pid.get(&to) {
            Some(&i) => {
                let slot = &mut sessions[i];
                slot.credit_delivery(&msg);
                slot.session.handle(Input::Deliver(from, msg), now);
                slot.mark_ready(i, ready);
            }
            None => stats.lock().dropped += msg.part_count() as u64,
        });
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

    /// Pop every due entry off the timer heap and wake its session,
    /// unless the entry is stale.
    fn fire_due_wakes(&mut self) {
        let now = self.now();
        while let Some(&Reverse((due, i))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let slot = &mut self.sessions[i];
            if slot.armed == Some(due) {
                // The slot's newest entry is gone; stepping it re-arms.
                slot.armed = None;
            }
            if slot.session.next_wake() == Some(due) {
                slot.session.handle(Input::Wake, now);
                slot.mark_ready(i, &mut self.ready);
            }
        }
    }

    /// How long until the earliest live heap entry is due (`None` when
    /// no session needs waking — e.g. fully idle): the deadline the
    /// worker hands its [`Wait`]. Stale entries that surface on top are
    /// popped here, so none can cut a wait short.
    fn next_wake_delay(&mut self) -> Option<Duration> {
        let now = self.now();
        while let Some(&Reverse((due, i))) = self.timers.peek() {
            if self.sessions[i].session.next_wake() == Some(due) {
                return Some(Duration::from_micros(due.0.saturating_sub(now.0)));
            }
            self.timers.pop();
        }
        None
    }

    fn enqueue(&mut self, job: Job) {
        // An unknown slot cannot happen (handle construction prevents
        // it); if it did, the dropped job closes its cell, which
        // surfaces as a disconnect to the caller.
        if let Some(&i) = self.by_key.get(&job.slot) {
            let slot = &mut self.sessions[i];
            if slot.is_idle() {
                self.busy += 1;
            }
            slot.queue.push_back((job.op, job.settle));
            slot.mark_ready(i, &mut self.ready);
        }
    }

    /// Step every listed slot: begin queued operations on free
    /// sessions, forward outputs to the router, resolve completed or
    /// failed operations, and re-arm the slot's wake if it moved.
    fn advance(&mut self) {
        let now = self.now();
        while let Some(i) = self.ready.pop_front() {
            let slot = &mut self.sessions[i];
            slot.listed = false;
            let was_busy = !slot.is_idle();
            let was_disconnected = self.disconnected;
            // Loop the slot until it makes no progress: an operation
            // that settles in this pass frees the session for the next
            // queued one *now*. Left for the next pass, that operation
            // would have no timer armed yet, and a worker blocked in
            // `epoll_wait` nothing to wake it.
            loop {
                // Start the next queued op when the session is free.
                if slot.current.is_none() && (self.disconnected || slot.session.is_ready()) {
                    if let Some((op, settle)) = slot.queue.pop_front() {
                        if !self.disconnected {
                            slot.session
                                .begin(op.clone(), now)
                                .expect("is_ready checked; sessions run one op at a time");
                        }
                        slot.current = Some(Current {
                            op,
                            settle,
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
                    &cur.op,
                    cur.invoked_at,
                    result.as_ref().ok().map(|net| (now, net)),
                    (cur.msgs, cur.bytes),
                );
                cur.settle.settle(result);
            }
            if was_busy && slot.is_idle() {
                self.busy -= 1;
            }
            // A wake that moved gets a fresh heap entry; the old one
            // goes stale where it lies.
            let wake = slot.session.next_wake();
            if wake != slot.armed {
                slot.armed = wake;
                if let Some(due) = wake {
                    self.timers.push(Reverse((due, i)));
                }
            }
            if self.disconnected && !was_disconnected {
                // The store shut down: every busy slot, stepped already
                // or not, fails its operations in this pass rather than
                // at its next timer. The one walk over every session,
                // once per worker.
                for (i, slot) in self.sessions.iter_mut().enumerate() {
                    if !slot.is_idle() {
                        slot.mark_ready(i, &mut self.ready);
                    }
                }
            }
        }
    }
}

/// Append one finished (or abandoned) operation to the store's op log.
/// `completion` is `None` for a failed operation (it stays an incomplete
/// record, so the checkers treat it as pending, never as a bogus
/// completion).
/// `traffic` is the op's `(msgs, bytes)` attribution, counted by the
/// worker while the op was pending — the same population the sim world
/// records, so sim-vs-net comparisons read real numbers.
/// The log keeps a 64 B record per op and copies the op's value into its
/// arena, unless it is a READ of its register's last logged WRITE value
/// (`crate::oplog`); the op's own buffers are not retained.
fn append_history(
    history: &Mutex<OpLog>,
    reg: RegisterId,
    client: ProcessId,
    op: &Op,
    invoked_at: Time,
    completion: Option<(Time, &NetOutcome)>,
    traffic: (u64, u64),
) {
    history.lock().push(reg, client, op, invoked_at, completion, traffic);
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::settle::oneshot;
    use crate::OpTicket;
    use crossbeam::channel::unbounded;
    use lucky_core::runtime::{SessionConfig, Setup};
    use lucky_core::ProtocolConfig;
    use lucky_types::Params;
    use std::os::fd::AsRawFd;

    /// The writer session of register `reg`.
    fn writer(reg: u32, timer_micros: u64, deadline_micros: u64) -> ClientSession {
        let setup = Setup::from(Params::new(1, 0, 1, 0).unwrap());
        let protocol = ProtocolConfig { timer_micros, ..ProtocolConfig::default() };
        setup.make_writer_session(
            RegisterId(reg),
            protocol,
            SessionConfig::with_deadline(deadline_micros),
        )
    }

    /// A worker hosting `writers`, each in its register's writer slot.
    fn test_worker(
        listener: TcpListener,
        writers: Vec<ClientSession>,
    ) -> (PolledWorker, Sender<Job>, Receiver<Envelope>, Arc<Mutex<NetStats>>) {
        let (job_tx, job_rx) = unbounded::<Job>();
        // Nothing drains the router queue: this worker's sends go
        // nowhere by design. The caller keeps the receiver alive, or the
        // worker would see a shut-down store.
        let (router_tx, router_rx) = unbounded::<Envelope>();
        let (io, stats, tracer) = tcp_io(listener);
        let history = Arc::new(Mutex::new(OpLog::default()));
        let mut worker = PolledWorker::new(
            job_rx,
            router_tx,
            io,
            history,
            Arc::clone(&stats),
            Instant::now(),
            tracer,
        );
        worker.host(writers.into_iter().map(|session| ((session.reg(), 0), session)).collect());
        (worker, job_tx, router_rx, stats)
    }

    fn tcp_io(listener: TcpListener) -> (PollIo, Arc<Mutex<NetStats>>, Arc<lucky_trace::Tracer>) {
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let tracer = Arc::new(lucky_trace::Tracer::new(lucky_trace::TraceConfig::disabled()));
        (PollIo::tcp(listener, &stats, &tracer, Instant::now()), stats, tracer)
    }

    #[test]
    fn sabotaged_listener_degrades_instead_of_panicking() {
        // Close the listener's descriptor out from under it: the next
        // fcntl (set_nonblocking) fails with EBADF. The old code
        // `.expect()`ed here and killed the whole shard worker.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        epoll::close_fd(listener.as_raw_fd());
        let (io, stats, _tracer) = tcp_io(listener);
        assert!(io.listener().is_none(), "unusable listener is abandoned, not kept blocking");
        assert!(io.conns.is_empty());
        assert_eq!(stats.lock().io_errors, 1, "the degradation is counted");
    }

    #[test]
    fn failing_accept_is_counted_and_backs_off_instead_of_spinning() {
        // The listener dies *after* setup: every accept now fails with
        // EBADF, and would for good. Each attempt must be visible in
        // io_errors and cost the caller a pause — under level-triggered
        // epoll the listener keeps reporting ready, and an uncounted
        // `break` here was a silent 100 % CPU loop.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut io, stats, _tracer) = tcp_io(listener);
        epoll::close_fd(io.listener().expect("healthy at setup").as_raw_fd());
        let start = Instant::now();
        for attempt in 1..=3 {
            assert!(io.accept_new().is_empty());
            assert_eq!(stats.lock().io_errors, attempt, "one io_error per failed accept");
        }
        assert!(start.elapsed() >= Duration::from_millis(3), "each failure backs off");
        // The thread's other input is unaffected: polling still works.
        io.poll(&mut |_, _, _| panic!("a dead listener delivers nothing"));
    }

    #[test]
    fn a_burst_larger_than_the_read_scratch_is_reassembled() {
        // What the router's coalesced write looks like from the far
        // side: many frames back to back, several scratch-fuls of them,
        // with frames straddling every read boundary.
        use lucky_types::{PwAckMsg, Seq, ServerId};
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (mut io, stats, _tracer) = tcp_io(listener);
        let (from, to) = (ProcessId::writer(RegisterId(0)), ProcessId::Server(ServerId(0)));
        let ack =
            |n| Message::PwAck(PwAckMsg { reg: RegisterId(0), ts: Seq(n), newread: Vec::new() });
        const FRAMES: u64 = 4_000;
        let burst: Vec<u8> =
            (0..FRAMES).flat_map(|n| lucky_wire::encode_packet(&[(from, to, ack(n))])).collect();
        assert!(burst.len() > 4 * io.scratch.len(), "{} bytes is not a burst", burst.len());
        let mut got = Vec::new();
        std::thread::scope(|s| {
            // One `write_all`, from a thread of its own: it may block
            // until the reader below has made room.
            s.spawn(|| TcpStream::connect(addr).unwrap().write_all(&burst).unwrap());
            let deadline = Instant::now() + Duration::from_secs(10);
            while (got.len() as u64) < FRAMES && Instant::now() < deadline {
                io.poll(&mut |f, t, msg| got.push((f, t, msg)));
                std::thread::yield_now();
            }
        });
        let sent: Vec<_> = (0..FRAMES).map(|n| (from, to, ack(n))).collect();
        assert!(got == sent, "{} of {FRAMES} frames, or out of order", got.len());
        assert_eq!(stats.lock().decode_errors, 0);
    }

    #[test]
    fn worker_with_degraded_listener_stays_alive_and_times_ops_out() {
        // A worker whose listener was abandoned at setup keeps running:
        // the submitted op can never receive acks, so it fails with
        // TimedOut at its deadline — and the worker then exits cleanly
        // when the job sender drops, instead of having panicked.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        epoll::close_fd(listener.as_raw_fd());
        let (worker, job_tx, _router_rx, stats) =
            test_worker(listener, vec![writer(0, 1_000, 50_000)]);
        assert_eq!(stats.lock().io_errors, 1);
        let handle = std::thread::spawn(move || worker.run(Box::new(SleepPoll)));
        let mut ticket = submit_write(&job_tx, 0);
        assert_eq!(ticket.wait_for(Duration::from_secs(5)), Err(NetError::TimedOut));
        drop(job_tx);
        handle.join().expect("worker exits cleanly, no panic");
    }

    /// Queue a WRITE on register `reg`'s writer; the ticket gets its
    /// outcome.
    fn submit_write(jobs: &Sender<Job>, reg: u32) -> OpTicket {
        let (settle, receipt) = oneshot();
        let op = Op::Write(lucky_types::Value::from_u64(1));
        jobs.send(Job { slot: (RegisterId(reg), 0), op, settle }).unwrap();
        OpTicket(receipt)
    }

    #[test]
    fn a_disconnect_fails_sessions_the_failing_pass_never_touched() {
        // Session B is mid-operation, waiting on acks that will never
        // come, its timer 5 s out. The store then shuts down (the router
        // receiver drops) and a job arrives for session A, whose send is
        // the one that fails. B must fail too, with `Disconnected`, and
        // long before its timer would have stepped it: an epoll worker
        // blocks until the heap's earliest entry, which is B's. Both key
        // orders, since a walk in key order reaches a B that comes after
        // A in the failing pass and misses one that comes before.
        const TIMER: u64 = 5_000_000;
        for (a, b) in [(0, 1), (1, 0)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let (worker, job_tx, router_rx, _stats) = test_worker(
                listener,
                vec![writer(a, TIMER, 2 * TIMER), writer(b, TIMER, 2 * TIMER)],
            );
            let wake = Arc::new(epoll::WakeFd::new().unwrap());
            let mut b_reply = submit_write(&job_tx, b);
            let port = Arc::clone(&wake);
            let handle = std::thread::spawn(move || {
                let wait = crate::reactor::wait_strategy(&worker.io, Some(port), None);
                worker.run(wait)
            });
            router_rx.recv_timeout(Duration::from_secs(5)).expect("B's write went out");
            drop(router_rx);
            let start = Instant::now();
            let mut a_reply = submit_write(&job_tx, a);
            wake.wake();
            let within = Duration::from_secs(2);
            assert_eq!(a_reply.wait_for(within), Err(NetError::Disconnected));
            assert_eq!(b_reply.wait_for(within), Err(NetError::Disconnected), "A = {a}, B = {b}");
            assert!(start.elapsed() < Duration::from_micros(TIMER));
            drop(job_tx);
            wake.wake();
            handle.join().expect("worker exits cleanly, no panic");
        }
    }
}
