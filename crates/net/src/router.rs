//! The latency-injecting router thread.
//!
//! The router models the network fabric between the client node and the
//! server processes. Besides sampling per-message latency, it is where
//! **wire-message batching** happens in this runtime: with an enabled
//! [`BatchConfig`], messages bound for the same destination *socket-slot*
//! (a server, or the shard worker hosting a group of client cores) are
//! coalesced — up to `max_msgs` parts, waiting at most
//! `max_delay_micros` for co-travellers — and travel as one wire message
//! with a single sampled delay. At launch, runs of parts that share a
//! sender and recipient are encoded as one [`Message::Batch`], and the
//! packet names each run's `(from, to)` explicitly, so a batch carries
//! several senders without merging them.
//!
//! The receiving thread trusts the `from` a packet names: the sockets
//! do not authenticate their peers. Every honest frame is written by
//! this router, so within one store the paper's point-to-point channels
//! hold; anyone else who can connect to a slot's loopback listener can
//! name any sender. Closing that gap is ROADMAP item 9.
//!
//! # One `write` per destination per pass
//!
//! A wire message is a frame, and frames leave in two steps. Every frame that is due in a
//! router pass is **appended** to its destination slot's write buffer;
//! when the pass has no more due frames, each non-empty buffer is
//! flushed with **one** `write_all` — the only place this crate writes
//! to a sink. Frames stay what they were (one per wire message, same
//! bytes, same checksum), so this changes what a message costs the
//! kernel, not what crosses the wire: at saturation a pass carries many
//! frames per destination and pays one syscall — and the receiver one
//! wake-up — for all of them ([`NetStats::socket_writes`] against
//! [`NetStats::messages`]); at low load a pass carries one frame and
//! issues one write, as if nothing coalesced.
//!
//! * **Order.** A slot's buffer receives frames in the order the heap
//!   releases them, `(due, launch sequence)`, so per-destination order
//!   on the socket is exactly the order per-frame writes had.
//! * **No hold-back.** A buffer is flushed in the pass that filled it
//!   and is empty between passes: there is no timer, no size threshold
//!   and nothing to tune. Only frames that are due *together* share a
//!   write; a frame is never written before its `due`, and never later
//!   than the end of the pass that found it due.
//! * **Loss accounting.** [`NetStats::dropped`] counts protocol parts,
//!   not writes: a frame whose slot has no sink drops its parts on the
//!   spot, and a flush that fails drops every part in that buffer. A
//!   `write_all` that breaks mid-buffer may already have handed the
//!   kernel some of the buffer's leading frames, so the count can
//!   overstate the loss by at most those — on a connection that is dead
//!   either way, where an upper bound is the honest number.
//! * **Sink swaps.** The buffer lives with its stream, and a swap
//!   ([`Envelope::Sink`]) is handled between flushes, when the buffer is
//!   empty: bytes staged for one incarnation of a slot cannot reach the
//!   next one's socket.
//! * **Memory.** Buffers keep their capacity from pass to pass (no
//!   allocation per pass) and are trimmed back to [`SINK_BUF_KEEP`]
//!   after an unusually large one.

use crossbeam::channel::Receiver;
use lucky_types::{BatchConfig, Message, ProcessId, RegisterId, ServerId};
use lucky_wire::PacketPart;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap};
use std::io::Write;
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message travelling between two processes.
///
/// `Deliver` is essentially every envelope ever sent (`Stop` appears
/// once per channel at teardown), so boxing its payload to shrink the
/// enum would buy nothing and cost an allocation per delivered message.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Envelope {
    /// Deliver `msg` from `from` to `to` after the injected latency.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// Payload.
        msg: Message,
    },
    /// Swap the write half of one destination slot's socket: `Some`
    /// installs a freshly connected sink after
    /// a slot re-binds its listener (server restart), `None` severs the
    /// wire (server crash — frames bound for the slot count as
    /// dropped, exactly like a never-spawned server's).
    Sink {
        /// Destination socket-slot whose sink changes.
        slot: usize,
        /// The new write stream, or `None` to sever.
        stream: Option<TcpStream>,
    },
    /// Tear the cluster down.
    Stop,
}

/// Per-register traffic counters (one entry of [`NetStats::per_register`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegisterStats {
    /// Protocol messages routed for this register (batch parts count
    /// individually — this is the register's share of the traffic).
    pub messages: u64,
    /// Estimated wire bytes routed for this register.
    pub bytes: u64,
    /// Wire batches that carried at least one of this register's
    /// messages.
    pub batches_sent: u64,
}

/// Traffic counters for one destination server (one entry of
/// [`NetStats::per_server`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Wire messages delivered to this server (a batch counts once).
    pub messages: u64,
    /// Protocol messages those wire messages carried.
    pub parts: u64,
    /// Wire messages that carried more than one part.
    pub batches_sent: u64,
    /// Estimated wire bytes.
    pub bytes: u64,
}

impl ServerStats {
    /// Mean parts per wire message to this server (1.0 when unbatched).
    pub fn msgs_per_batch(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.parts as f64 / self.messages as f64
        }
    }
}

/// Rollup for one server group of a sharded store (one entry of
/// [`NetStats::per_group`]). Filled by `lucky-shard`'s stats
/// aggregation — a single-group [`NetStore`](crate::NetStore) leaves
/// the map empty.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct GroupStats {
    /// Completed operations served by the group.
    pub ops: u64,
    /// Framed bytes the group's router staged for its sockets.
    pub wire_bytes: u64,
    /// Register logs replayed by the group's restarted durable servers.
    pub recoveries: u64,
    /// The group's lucky-read ratio from its `TraceReport` (`NaN`-free:
    /// 0.0 when the group traced no reads or tracing is disabled).
    pub lucky_ratio: f64,
}

/// Counters the router maintains; readable via `NetStore::stats`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct NetStats {
    /// Wire messages routed: a batch counts **once** — this is the
    /// message complexity the batching layer reduces.
    pub messages: u64,
    /// Protocol messages carried (batch parts count individually);
    /// equals `messages` when batching is disabled.
    pub parts: u64,
    /// Wire messages that carried more than one part.
    pub batches_sent: u64,
    /// Wire payload bytes routed, computed from the codec-exact
    /// [`Message::wire_size`] (plus one notional frame header per
    /// coalesced wire message): the payload portion of what actually
    /// crosses the sockets; [`NetStats::wire_bytes`] adds the framing.
    pub bytes: u64,
    /// Actual framed bytes of every wire message staged for its socket
    /// (frame headers, packet envelopes and payloads). It exceeds
    /// [`NetStats::bytes`] by exactly the framing overhead —
    /// `examples/tcp_smoke.rs` asserts the bound.
    ///
    /// Counted when the frame is staged, not when the socket write
    /// succeeds — deliberately mirroring [`NetStats::bytes`], which
    /// also counts routed-but-undeliverable traffic (e.g. frames bound
    /// for a crashed server's slot; those surface in
    /// [`NetStats::dropped`]). The two counters therefore describe the
    /// same population and their difference is pure framing overhead.
    pub wire_bytes: u64,
    /// Frames rejected by the receive side (bad magic, version skew,
    /// oversized length prefix, checksum failure, codec garbage). Only
    /// hostile or corrupted connections produce these; each one also
    /// drops its connection.
    pub decode_errors: u64,
    /// Protocol messages dropped because the recipient was unknown, its
    /// slot had no socket (e.g. a crashed server) or a write to it
    /// failed, or because the thread reading the socket hosts no such
    /// recipient (only hostile frames are mis-addressed).
    pub dropped: u64,
    /// Register logs replayed from disk — once per non-empty per-register
    /// log opened by a (re)starting durable server. Zero unless the store
    /// was built with a durable backend and a server restarted. Rolled up
    /// from the store's [`lucky_log::LogCounters`] at `stats()` time.
    pub recoveries: u64,
    /// Committed payload bytes across every register log the store's
    /// servers have written or replayed. Zero without a durable backend.
    /// Rolled up at `stats()` time, like [`NetStats::recoveries`].
    pub log_bytes: u64,
    /// Socket-setup failures absorbed without killing a worker thread: a
    /// connection (or listener) that could not be made nonblocking and
    /// was dropped, or an epoll registration/wait that failed and made a
    /// reactor degrade. Each one costs at most the affected connection;
    /// the worker and its other sessions keep running.
    pub io_errors: u64,
    /// Times a reactor worker returned from `epoll_wait` (for any
    /// reason: IO readiness, job-submission wake, or timer timeout).
    /// Zero under sleep-polling. An *idle* reactor adds nothing
    /// here — the no-busy-wait property `tests/reactor.rs` pins.
    pub reactor_wakeups: u64,
    /// Frame buffers the TCP encode path had to **allocate** because no
    /// recycled buffer was free: the router pops a spent buffer per
    /// outgoing frame and returns it once the frame has been copied
    /// into its destination's write buffer, so in steady state this
    /// counter stops growing (at most the in-flight high-water mark of
    /// buffers ever exist).
    pub frame_allocs: u64,
    /// `write_all` calls the router issued on its socket sinks: one per
    /// destination slot per router pass that had frames due for it,
    /// however many frames that was. Never above [`NetStats::messages`];
    /// the gap is the syscalls (and receiver wake-ups) coalescing saved.
    pub socket_writes: u64,
    /// Traffic broken down by the register each protocol message names.
    pub per_register: BTreeMap<RegisterId, RegisterStats>,
    /// Traffic broken down by destination server.
    pub per_server: BTreeMap<ServerId, ServerStats>,
    /// Rollup per server group of a sharded store: empty for a plain
    /// single-group store, filled by `lucky-shard`'s stats aggregation
    /// (which also sums every scalar field above across its groups).
    pub per_group: BTreeMap<lucky_types::GroupId, GroupStats>,
}

/// One line per [`NetStats`] rollup: the headline counters every smoke
/// example used to hand-format its own way. Conditional sections
/// (errors, durability, reactor) appear only when nonzero, so a quiet
/// run prints short and an eventful one prints all of it.
impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} wire msgs", self.messages)?;
        // Only when coalescing had something to save.
        if self.socket_writes > 0 && self.socket_writes != self.messages {
            write!(f, " in {} writes", self.socket_writes)?;
        }
        write!(
            f,
            " ({} parts, {:.2} parts/msg), {} payload B",
            self.parts,
            self.msgs_per_batch(),
            self.bytes
        )?;
        if self.wire_bytes > 0 {
            write!(f, " / {} framed B", self.wire_bytes)?;
        }
        if self.decode_errors + self.dropped + self.io_errors > 0 {
            write!(
                f,
                ", {} decode errs / {} dropped / {} io errs",
                self.decode_errors, self.dropped, self.io_errors
            )?;
        }
        if self.recoveries + self.log_bytes > 0 {
            write!(f, ", {} log replays / {} log B", self.recoveries, self.log_bytes)?;
        }
        if self.reactor_wakeups > 0 {
            write!(f, ", {} epoll wakeups", self.reactor_wakeups)?;
        }
        for (g, per) in &self.per_group {
            write!(
                f,
                "\n  {g}: {} ops, {} wire B, {} replays, luck {:.0}%",
                per.ops,
                per.wire_bytes,
                per.recoveries,
                per.lucky_ratio * 100.0
            )?;
        }
        Ok(())
    }
}

impl NetStats {
    /// The one-line rollup [`NetStats`]'s `Display` renders, as an owned
    /// string — for callers composing it into wider report lines.
    pub fn summary(&self) -> String {
        self.to_string()
    }

    /// The traffic counters for register `reg` (zero if never routed).
    pub fn register(&self, reg: RegisterId) -> RegisterStats {
        self.per_register.get(&reg).copied().unwrap_or_default()
    }

    /// The traffic counters for server `s` (zero if never routed).
    pub fn server(&self, s: ServerId) -> ServerStats {
        self.per_server.get(&s).copied().unwrap_or_default()
    }

    /// The rollup for group `g` of a sharded store (zero for a plain
    /// store, whose per-group map is empty).
    pub fn group(&self, g: lucky_types::GroupId) -> GroupStats {
        self.per_group.get(&g).copied().unwrap_or_default()
    }

    /// Mean parts per wire message (1.0 when batching is disabled).
    pub fn msgs_per_batch(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.parts as f64 / self.messages as f64
        }
    }

    /// Upper bound on the framing overhead [`NetStats::wire_bytes`]
    /// may carry over [`NetStats::bytes`], derived from the
    /// `lucky-wire` frame layout rather than hand-tuned constants: per
    /// wire message one frame header plus the packet part-count varint,
    /// per protocol part two encoded process ids plus a batch-envelope
    /// share. The TCP smoke run and transport tests assert
    /// `bytes < wire_bytes <= bytes + max_framing_overhead()`.
    pub fn max_framing_overhead(&self) -> u64 {
        // Per frame: the fixed header + a ≤ 5-byte part-count varint.
        let per_message = lucky_wire::FRAME_HEADER_BYTES as u64 + 5;
        // Per flattened part: two encoded `ProcessId`s (≤ 6 bytes
        // each) and the per-run `Batch` envelope (tag + count varint,
        // ≤ 6 bytes, amortized over the run's ≥ 1 parts).
        let per_part = 18;
        per_message * self.messages + per_part * self.parts
    }
}

/// Where wire traffic can be coalesced: the destination's socket-slot.
/// Servers get one slot each; client processes map to the shard worker
/// that hosts their core (so acks bound for cores on one worker share a
/// wire). Built by the store builder.
pub(crate) type SlotMap = BTreeMap<ProcessId, usize>;

/// One part of a wire message: sender, recipient, payload.
type Part = (ProcessId, ProcessId, Message);

/// One wire message in flight: the frame it crosses the socket as. The
/// bytes are encoded at launch, so encode cost and true size are paid
/// and known when the message enters the wire, and delivery is a copy
/// into the slot's write buffer.
struct InFlight {
    due: Instant,
    seq: u64,
    /// Destination socket-slot (indexes the router's sink map).
    slot: usize,
    /// The complete encoded frame.
    bytes: Vec<u8>,
    /// Flattened protocol messages inside — the `dropped` count if the
    /// slot's socket is gone (e.g. a crashed server).
    parts: u64,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Messages staged for one destination slot, waiting for co-travellers.
struct SlotBuf {
    parts: Vec<Part>,
    /// Flattened protocol messages across `parts` (an envelope may
    /// itself be a pre-batched ack batch): the `max_msgs` bound is on
    /// this count, not on envelopes.
    part_total: usize,
    oldest: Instant,
}

/// The write half of one destination slot's socket, with the frames of
/// the current router pass staged in front of it.
pub(crate) struct SlotSink {
    stream: TcpStream,
    /// The frames due in this pass, back to back in delivery order.
    /// Empty between passes; the allocation is kept.
    pending: Vec<u8>,
    /// Protocol parts riding in `pending`: what a failed flush drops.
    parts: u64,
}

impl SlotSink {
    pub(crate) fn new(stream: TcpStream) -> SlotSink {
        SlotSink { stream, pending: Vec::new(), parts: 0 }
    }
}

/// Write-buffer capacity a sink keeps from pass to pass. A pass that
/// staged more (a burst of large values) gives the excess back, so one
/// big pass does not pin its high-water mark for the store's lifetime.
const SINK_BUF_KEEP: usize = 64 * 1024;

/// Everything the router needs besides its channels.
pub(crate) struct RouterConfig {
    pub(crate) latency: (Duration, Duration),
    pub(crate) seed: u64,
    pub(crate) batch: BatchConfig,
    pub(crate) slots: SlotMap,
    /// The write half of each destination slot's loopback socket.
    pub(crate) sinks: BTreeMap<usize, SlotSink>,
}

/// Spawn the router thread.
pub(crate) fn spawn_router(
    name: &str,
    rx: Receiver<Envelope>,
    cfg: RouterConfig,
    stats: Arc<Mutex<NetStats>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || Router::new(rx, cfg, stats).run())
        .expect("spawn router thread")
}

/// Most spent frame buffers the router keeps for reuse; a delivery
/// burst beyond this frees the excess instead of hoarding it.
const FRAME_POOL_CAP: usize = 64;

struct Router {
    rx: Receiver<Envelope>,
    cfg: RouterConfig,
    stats: Arc<Mutex<NetStats>>,
    /// Latency sampling.
    rng: SmallRng,
    /// Wire messages in flight, earliest due first.
    heap: BinaryHeap<InFlight>,
    /// Per destination slot: parts waiting for co-travellers.
    staged: BTreeMap<usize, SlotBuf>,
    /// Launch order, the heap's tie-break.
    seq: u64,
    /// Recycled payload scratch for the encode path.
    encoder: lucky_wire::PacketEncoder,
    /// Spent frame buffers: popped in `launch_one`, returned by
    /// `deliver` once the frame sits in its slot's write buffer. Steady
    /// state allocates nothing per frame ([`NetStats::frame_allocs`]
    /// stops growing).
    spare_frames: Vec<Vec<u8>>,
}

impl Router {
    fn new(rx: Receiver<Envelope>, cfg: RouterConfig, stats: Arc<Mutex<NetStats>>) -> Router {
        Router {
            rx,
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            stats,
            heap: BinaryHeap::new(),
            staged: BTreeMap::new(),
            seq: 0,
            encoder: lucky_wire::PacketEncoder::new(),
            spare_frames: Vec::new(),
        }
    }

    /// Run the router loop until a [`Envelope::Stop`] arrives or every
    /// sender disconnects: a [`Router::pass`], then block for the next
    /// envelope, the next due delivery, or the next slot flush deadline
    /// — whichever comes first.
    fn run(mut self) {
        let max_delay = self.max_delay();
        loop {
            if self.pass().is_break() {
                return;
            }
            let next_due = self.heap.peek().map(|m| m.due);
            let next_flush = self.staged.values().map(|b| b.oldest + max_delay).min();
            let deadline = match (next_due, next_flush) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let next = match deadline {
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(timeout) {
                        Ok(env) => Some(env),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                }
                None => match self.rx.recv() {
                    Ok(env) => Some(env),
                    Err(_) => return,
                },
            };
            if next.is_some_and(|env| self.on_envelope(env).is_break()) {
                return;
            }
        }
    }

    /// Longest a staged part waits for co-travellers.
    fn max_delay(&self) -> Duration {
        Duration::from_micros(self.cfg.batch.max_delay_micros)
    }

    /// One non-blocking pass: drain the queued envelopes, launch the
    /// staged slots whose wait is over, deliver what is due. `Break`
    /// tears the router down.
    fn pass(&mut self) -> ControlFlow<()> {
        // Drain every envelope that is already queued *before*
        // flushing any slot: messages that became ready together
        // coalesce even with max_delay_micros = 0 (a broadcast's
        // envelopes sit in the channel as one burst).
        loop {
            match self.rx.try_recv() {
                Ok(env) => self.on_envelope(env)?,
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    return ControlFlow::Break(())
                }
            }
        }
        // Launch every staged slot whose oldest part has waited long
        // enough.
        let max_delay = self.max_delay();
        let now = Instant::now();
        let due_slots: Vec<usize> = self
            .staged
            .iter()
            .filter(|(_, buf)| buf.oldest + max_delay <= now)
            .map(|(&slot, _)| slot)
            .collect();
        for slot in due_slots {
            let buf = self.staged.remove(&slot).expect("listed above");
            self.launch(buf.parts);
        }
        // Deliver everything due — against a fresh clock reading, so
        // what was launched above with no latency to wait out leaves in
        // this pass. Whatever is due *together* coalesces: frames are
        // appended to their slots' write buffers, and the buffers are
        // flushed, one write each, once nothing more is due.
        let now = Instant::now();
        let mut lost = 0;
        while self.heap.peek().is_some_and(|m| m.due <= now) {
            let m = self.heap.pop().expect("peeked above");
            lost += self.deliver(m);
        }
        let (writes, unwritten) = self.flush_sinks();
        lost += unwritten;
        if lost + writes > 0 {
            let mut s = self.stats.lock();
            s.dropped += lost;
            s.socket_writes += writes;
        }
        ControlFlow::Continue(())
    }

    /// Act on one envelope; `Break` tears the router down.
    fn on_envelope(&mut self, env: Envelope) -> ControlFlow<()> {
        match env {
            Envelope::Deliver { from, to, msg } => self.accept(from, to, msg),
            Envelope::Sink { slot, stream } => self.swap_sink(slot, stream),
            Envelope::Stop => return ControlFlow::Break(()),
        }
        ControlFlow::Continue(())
    }

    /// Install (or sever) one slot's socket sink. Frames already in
    /// flight toward the slot land on whatever sink is current when
    /// they come due — a restart therefore loses at most the traffic
    /// the crash itself would have lost. Envelopes are only handled
    /// between flushes, so the outgoing sink's write buffer is empty:
    /// nothing staged for the old socket is inherited by the new one.
    fn swap_sink(&mut self, slot: usize, stream: Option<TcpStream>) {
        let old = match stream {
            Some(s) => self.cfg.sinks.insert(slot, SlotSink::new(s)),
            None => self.cfg.sinks.remove(&slot),
        };
        debug_assert!(
            old.is_none_or(|sink| sink.pending.is_empty() && sink.parts == 0),
            "a sink is swapped between passes, when its write buffer is empty"
        );
    }

    /// Accept one envelope: stage it on its destination slot (batching
    /// enabled and a mapped destination) or put it straight in flight.
    fn accept(&mut self, from: ProcessId, to: ProcessId, msg: Message) {
        let slot = self.cfg.slots.get(&to).copied();
        match slot {
            Some(slot) if self.cfg.batch.enabled => {
                let count = msg.part_count();
                // Strict size bound on *flattened* parts (an envelope may
                // itself be a pre-batched ack batch): if joining would
                // push the buffer over max_msgs, ship the buffer first.
                if let Some(buf) = self.staged.get(&slot) {
                    if buf.part_total + count > self.cfg.batch.max_msgs {
                        let buf = self.staged.remove(&slot).expect("checked above");
                        self.launch(buf.parts);
                    }
                }
                let buf = self.staged.entry(slot).or_insert_with(|| SlotBuf {
                    parts: Vec::new(),
                    part_total: 0,
                    oldest: Instant::now(),
                });
                buf.parts.push((from, to, msg));
                buf.part_total += count;
                if buf.part_total >= self.cfg.batch.max_msgs {
                    let buf = self.staged.remove(&slot).expect("just inserted");
                    self.launch(buf.parts);
                }
            }
            // Batching disabled (or an unmapped destination): every
            // message is its own wire message.
            _ => self.launch(vec![(from, to, msg)]),
        }
    }

    /// Put one staged wire message in flight. The codec's hard caps
    /// bound what one frame may carry, so the load is first chunked into
    /// cap-respecting frames (one chunk in every honest configuration —
    /// `max_msgs` sits far below the caps); a single protocol message
    /// whose encoding cannot fit any frame at all is dropped and
    /// counted, since no amount of splitting can put it on this wire.
    fn launch(&mut self, parts: Vec<Part>) {
        debug_assert!(!parts.is_empty());
        // Conservative per-part frame cost: two encoded process ids
        // (≤ 6 bytes each) plus the exact message payload. Grouping
        // parts into per-run batches at encode time only ever shrinks
        // the real cost below this bound.
        const PART_OVERHEAD: usize = 12;
        // Frame payload budget, with slack for the part-count varint.
        const FRAME_BUDGET: usize = lucky_wire::MAX_FRAME_BYTES - 8;
        let mut chunk: Vec<Part> = Vec::new();
        let (mut chunk_cost, mut chunk_flat) = (0usize, 0usize);
        let mut lost = 0u64;
        for part in parts {
            let flat = part.2.part_count();
            let cost = PART_OVERHEAD + part.2.wire_size();
            if cost > FRAME_BUDGET || flat > lucky_wire::MAX_PARTS {
                // Unframeable however we split: no frame may carry it.
                lost += flat as u64;
                continue;
            }
            if !chunk.is_empty()
                && (chunk_cost + cost > FRAME_BUDGET || chunk_flat + flat > lucky_wire::MAX_PARTS)
            {
                let full = std::mem::take(&mut chunk);
                (chunk_cost, chunk_flat) = (0, 0);
                self.launch_one(full);
            }
            chunk.push(part);
            chunk_cost += cost;
            chunk_flat += flat;
        }
        if lost > 0 {
            self.stats.lock().dropped += lost;
        }
        if !chunk.is_empty() {
            self.launch_one(chunk);
        }
    }

    /// Account one wire message carrying `parts` and put it in flight
    /// with a single sampled delay. The frame is encoded here — staged
    /// as the real bytes it will cross the socket as — and its framed
    /// size lands in `wire_bytes`. The caller guarantees the parts fit
    /// one frame's caps.
    fn launch_one(&mut self, parts: Vec<Part>) {
        debug_assert!(!parts.is_empty());
        let (min, max) = self.cfg.latency;
        let delay = if max > min {
            min + Duration::from_micros(self.rng.gen_range(0..=(max - min).as_micros() as u64))
        } else {
            min
        };
        // Compute every accounting delta — and the encoded frame —
        // *before* touching the stats mutex, so this hot path pays
        // exactly one acquisition per wire message (the same lock serves
        // every receiving thread and `stats()` pollers).
        //
        // A part may itself be a pre-batched envelope (a server's
        // re-batched acks travel as one `Message::Batch` send):
        // protocol-message accounting always uses the flattened view.
        let total_parts: u64 = parts.iter().map(|(_, _, m)| m.part_count() as u64).sum();
        let part_bytes: u64 = parts.iter().map(|(_, _, m)| m.wire_size() as u64).sum();
        // Coalesced envelopes share one wire frame: one extra header.
        let bytes = if parts.len() > 1 {
            lucky_wire::FRAME_HEADER_BYTES as u64 + part_bytes
        } else {
            part_bytes
        };
        let batched = total_parts > 1;
        // Per-register deltas, in first-seen order.
        let mut per_register: Vec<(RegisterId, u64, u64)> = Vec::new();
        for (_, _, m) in &parts {
            m.for_each_part(|part| {
                let Some(reg) = part.register() else {
                    return;
                };
                let size = part.wire_size() as u64;
                match per_register.iter_mut().find(|(r, _, _)| *r == reg) {
                    Some((_, msgs, b)) => {
                        *msgs += 1;
                        *b += size;
                    }
                    None => per_register.push((reg, 1, size)),
                }
            });
        }
        // Per-server breakdown: server slots hold one server only.
        let server = parts[0]
            .1
            .as_server()
            .filter(|&server| parts.iter().all(|(_, to, _)| to.as_server() == Some(server)));
        // Stage the wire message as the real frame it will cross the
        // socket as. Every part of one wire message is bound for the
        // same slot (that is what the staging buffer coalesces on), so
        // the first recipient names it. The frame buffer is recycled
        // from a previous delivery when one is free; otherwise it is a
        // counted fresh allocation.
        let mut fresh_frame = false;
        let frame = self.cfg.slots.get(&parts[0].1).copied().map(|slot| {
            let mut bytes = self.spare_frames.pop().unwrap_or_else(|| {
                fresh_frame = true;
                Vec::new()
            });
            self.encoder.encode_into(&group_runs(parts), &mut bytes);
            (slot, bytes)
        });
        {
            let mut s = self.stats.lock();
            s.messages += 1;
            s.parts += total_parts;
            s.bytes += bytes;
            if batched {
                s.batches_sent += 1;
            }
            for (reg, msgs, reg_bytes) in per_register {
                let per = s.per_register.entry(reg).or_default();
                per.messages += msgs;
                per.bytes += reg_bytes;
                if batched {
                    per.batches_sent += 1;
                }
            }
            if let Some(server) = server {
                let per = s.per_server.entry(server).or_default();
                per.messages += 1;
                per.parts += total_parts;
                per.bytes += bytes;
                if batched {
                    per.batches_sent += 1;
                }
            }
            match &frame {
                Some((_, bytes)) => s.wire_bytes += bytes.len() as u64,
                // An unmapped destination: nothing to frame.
                None => s.dropped += total_parts,
            }
            if fresh_frame {
                s.frame_allocs += 1;
            }
        }
        let Some((slot, bytes)) = frame else {
            return;
        };
        self.seq += 1;
        self.heap.push(InFlight {
            due: Instant::now() + delay,
            seq: self.seq,
            slot,
            bytes,
            parts: total_parts,
        });
    }

    /// Hand a due frame to its destination; returns the protocol
    /// messages that were lost on the spot.
    ///
    /// The frame is *appended* to the destination slot's write buffer —
    /// [`Router::flush_sinks`] writes it, together with every other
    /// frame this pass found due for the slot; the thread that owns the
    /// slot (a server, or a shard worker) decodes and fans out on the
    /// far side. A slot without a sink loses the frame here, parts and
    /// all, and no write is issued for it.
    fn deliver(&mut self, m: InFlight) -> u64 {
        let lost = match self.cfg.sinks.get_mut(&m.slot) {
            Some(sink) => {
                sink.pending.extend_from_slice(&m.bytes);
                sink.parts += m.parts;
                0
            }
            // No socket: the slot never spawned, or crashed.
            None => m.parts,
        };
        // Staged or lost, the buffer itself is spent: recycle it for the
        // next `launch_one`.
        if self.spare_frames.len() < FRAME_POOL_CAP {
            self.spare_frames.push(m.bytes);
        }
        lost
    }

    /// Flush every slot's write buffer with one `write_all` — the only
    /// write this crate issues on a sink — and leave it empty. Returns
    /// the writes issued and the parts lost to failed ones: every part
    /// the buffer carried (an upper bound: frames ahead of the break may
    /// have reached the kernel, on a connection that is dead anyway).
    fn flush_sinks(&mut self) -> (u64, u64) {
        let (mut writes, mut lost) = (0, 0);
        for sink in self.cfg.sinks.values_mut() {
            if sink.pending.is_empty() {
                continue;
            }
            writes += 1;
            if sink.stream.write_all(&sink.pending).is_err() {
                lost += sink.parts;
            }
            sink.pending.clear();
            sink.pending.shrink_to(SINK_BUF_KEEP);
            sink.parts = 0;
        }
        (writes, lost)
    }
}

/// Group consecutive parts sharing one (sender, recipient) pair into
/// single wire-payload messages: a run of length ≥ 2 merges into one
/// [`Message::Batch`], preserving order — how a frame's packet is laid
/// out when the router stages it.
fn group_runs(parts: Vec<Part>) -> Vec<PacketPart> {
    let mut out: Vec<PacketPart> = Vec::new();
    let mut run: Vec<Message> = Vec::new();
    let mut run_key: Option<(ProcessId, ProcessId)> = None;
    let flush =
        |key: Option<(ProcessId, ProcessId)>, run: &mut Vec<Message>, out: &mut Vec<PacketPart>| {
            let Some((from, to)) = key else {
                return;
            };
            let msg = if run.len() == 1 {
                run.pop().expect("length checked")
            } else {
                Message::batch(std::mem::take(run))
            };
            run.clear();
            out.push((from, to, msg));
        };
    for (from, to, msg) in parts {
        if run_key != Some((from, to)) {
            flush(run_key, &mut run, &mut out);
            run_key = Some((from, to));
        }
        run.push(msg);
    }
    flush(run_key, &mut run, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Sender};
    use lucky_types::{PwAckMsg, Seq};
    use std::io::Read;
    use std::net::{Shutdown, TcpListener};

    /// A connected loopback pair: the router's sink and the peer reading it.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (sink, peer)
    }

    /// A router that is driven by hand, one [`Router::pass`] at a
    /// time, with no thread: servers `0..servers` own slots `0..servers`,
    /// `sinks` says which of them have a socket.
    struct Rig {
        router: Router,
        tx: Sender<Envelope>,
        stats: Arc<Mutex<NetStats>>,
    }

    fn rig(servers: u16, sinks: Vec<(usize, TcpStream)>, latency: Duration) -> Rig {
        let slots = (0..servers).map(|i| (server(i), i as usize)).collect();
        let sinks = sinks.into_iter().map(|(slot, s)| (slot, SlotSink::new(s))).collect();
        let cfg = RouterConfig {
            latency: (latency, latency),
            seed: 1,
            batch: BatchConfig::disabled(),
            slots,
            sinks,
        };
        let (tx, rx) = unbounded();
        let stats = Arc::new(Mutex::new(NetStats::default()));
        Rig { router: Router::new(rx, cfg, Arc::clone(&stats)), tx, stats }
    }

    impl Rig {
        /// Queue one message for server `to`; returns the frame it will
        /// cross the wire as.
        fn send(&self, to: u16, msg: Message) -> Vec<u8> {
            let part = (ProcessId::writer(RegisterId(0)), server(to), msg);
            let frame = lucky_wire::encode_packet(std::slice::from_ref(&part));
            let (from, to, msg) = part;
            self.tx.send(Envelope::Deliver { from, to, msg }).unwrap();
            frame
        }

        /// Exactly one pass — after which no write buffer may hold a byte.
        fn pass(&mut self) {
            assert!(self.router.pass().is_continue());
            for sink in self.router.cfg.sinks.values() {
                assert!(sink.pending.is_empty() && sink.parts == 0, "flushed in the same pass");
            }
        }

        fn stats(&self) -> NetStats {
            self.stats.lock().clone()
        }
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn ack(n: u64) -> Message {
        Message::PwAck(PwAckMsg { reg: RegisterId(0), ts: Seq(n), newread: Vec::new() })
    }

    /// Everything `peer` was ever sent, once the far end is closed.
    fn drain(mut peer: TcpStream) -> Vec<u8> {
        let mut all = Vec::new();
        peer.read_to_end(&mut all).unwrap();
        all
    }

    #[test]
    fn a_pass_issues_one_write_per_destination_and_keeps_launch_order() {
        let ((sink0, peer0), (sink1, peer1)) = (pair(), pair());
        let mut rig = rig(2, vec![(0, sink0), (1, sink1)], Duration::ZERO);
        let mut expected = [Vec::new(), Vec::new()];
        let (mut parts, mut bytes) = (0, 0);
        // Nine frames for two slots, interleaved; one carries three parts.
        for n in 0..9u64 {
            let msg = if n == 4 { Message::batch(vec![ack(40), ack(41), ack(42)]) } else { ack(n) };
            parts += msg.part_count() as u64;
            bytes += msg.wire_size() as u64;
            expected[(n % 2) as usize].extend(rig.send((n % 2) as u16, msg));
        }
        rig.pass();
        let s = rig.stats();
        assert_eq!(s.socket_writes, 2, "nine frames, two destinations, two writes");
        // The counters per-frame delivery kept are unmoved.
        assert_eq!((s.messages, s.parts, s.bytes, s.dropped), (9, parts, bytes, 0));
        assert_eq!(s.wire_bytes, (expected[0].len() + expected[1].len()) as u64);

        // At low load a pass carries one frame and issues one write.
        expected[0].extend(rig.send(0, ack(9)));
        rig.pass();
        let s = rig.stats();
        assert_eq!((s.socket_writes, s.messages), (3, 10));

        // Each peer read the concatenation of its frames, byte for
        // byte, in launch order.
        drop(rig);
        assert_eq!(drain(peer0), expected[0]);
        assert_eq!(drain(peer1), expected[1]);
    }

    #[test]
    fn a_frame_for_a_slot_without_a_sink_drops_its_parts_and_issues_no_write() {
        let (sink0, peer0) = pair();
        let mut rig = rig(2, vec![(0, sink0)], Duration::ZERO);
        rig.send(1, Message::batch(vec![ack(1), ack(2), ack(3)]));
        rig.send(1, ack(4));
        rig.pass();
        let s = rig.stats();
        assert_eq!((s.dropped, s.socket_writes), (4, 0), "parts are counted, not frames");

        // Severing a live slot makes it the same case.
        let delivered = rig.send(0, ack(5));
        rig.pass();
        rig.tx.send(Envelope::Sink { slot: 0, stream: None }).unwrap();
        rig.send(0, ack(6));
        rig.pass();
        let s = rig.stats();
        assert_eq!((s.dropped, s.socket_writes), (5, 1));
        assert_eq!(drain(peer0), delivered);
    }

    #[test]
    fn a_failed_flush_drops_every_part_in_the_buffer() {
        let (sink0, _peer0) = pair();
        sink0.shutdown(Shutdown::Write).unwrap(); // every write now fails
        let mut rig = rig(1, vec![(0, sink0)], Duration::ZERO);
        rig.send(0, ack(1));
        rig.send(0, Message::batch(vec![ack(2), ack(3), ack(4)]));
        rig.send(0, ack(5));
        rig.pass();
        let s = rig.stats();
        assert_eq!((s.socket_writes, s.dropped), (1, 5), "one write issued, five parts lost");
    }

    #[test]
    fn a_frame_is_never_written_before_its_due() {
        // Two frames for one slot, launched half a latency apart: each
        // leaves the heap no earlier than `latency` after it was sent,
        // whether or not the other was flushed meanwhile. (Lower bounds
        // only: a stalled test thread delays a frame, never hurries it.)
        let latency = Duration::from_millis(20);
        let (sink0, peer0) = pair();
        let mut rig = rig(1, vec![(0, sink0)], latency);
        let mut sent: Vec<Instant> = Vec::new();
        // One pass, then: whatever has left the heap was due.
        let pass = |rig: &mut Rig, sent: &[Instant]| {
            rig.pass();
            let after = Instant::now();
            let left = rig.router.heap.len();
            for (n, &at) in sent.iter().enumerate().take(sent.len() - left) {
                assert!(after >= at + latency, "frame {n} left {:?} early", at + latency - after);
            }
            assert_eq!(rig.stats().socket_writes > 0, left < sent.len(), "a write iff one left");
            left
        };
        sent.push(Instant::now());
        let mut expected = rig.send(0, ack(1));
        pass(&mut rig, &sent);
        std::thread::sleep(latency / 2);
        sent.push(Instant::now());
        expected.extend(rig.send(0, ack(2)));
        while pass(&mut rig, &sent) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rig.stats().socket_writes <= 2);
        drop(rig);
        assert_eq!(drain(peer0), expected, "due order is launch order");
    }

    #[test]
    fn a_swapped_sink_inherits_no_bytes_from_its_predecessor() {
        let ((old, old_peer), (new, new_peer)) = (pair(), pair());
        let mut rig = rig(1, vec![(0, old)], Duration::ZERO);
        let to_old = rig.send(0, ack(1));
        rig.pass();
        // A frame already in flight when the swap is handled lands on
        // the sink that is current when it comes due: the new one.
        let mut to_new = rig.send(0, ack(2));
        rig.tx.send(Envelope::Sink { slot: 0, stream: Some(new) }).unwrap();
        to_new.extend(rig.send(0, ack(3)));
        rig.pass();
        assert_eq!(rig.stats().socket_writes, 2);
        assert_eq!(drain(old_peer), to_old, "the old socket closed with the swap");
        drop(rig);
        assert_eq!(drain(new_peer), to_new);
    }
}
