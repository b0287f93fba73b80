//! The loopback-TCP fabric behind [`Transport::Tcp`].
//!
//! Every destination **socket-slot** — a server, or the shard worker
//! hosting a group of client cores — owns a real `std::net` loopback
//! listener. The router holds the write half: one persistent
//! [`TcpStream`] per slot, into which it writes the frames built by
//! `lucky-wire` ([`encode_packet`](lucky_wire::encode_packet)). Shard
//! workers read their own sockets (`crate::polled`); this module is the
//! receive side of the **server** slots: each runs an acceptor thread
//! plus one reader thread per connection; readers reassemble frames
//! from partial reads with [`FrameDecoder`](lucky_wire::FrameDecoder),
//! decode the packet parts, and hand `(from, message)` to the server's
//! inbox.
//!
//! Trust model: a reader only holds the inbox sender of **its own
//! slot's server**, so a frame arriving on server 0's socket can
//! never inject into server 1 — the slot boundary is enforced
//! structurally, not by checking. Malformed frames (bad magic, version
//! skew, oversized length prefixes, checksum failures, codec garbage)
//! are counted in [`NetStats::decode_errors`] and the connection is
//! dropped: a corrupted byte stream cannot be resynchronized, so
//! continuing would mean guessing at frame boundaries. Peer
//! *authentication* is out of scope for this loopback transport (the
//! listener trusts whoever connects, which is how the adversarial tests
//! inject hostile bytes); within the workspace the paper's channel
//! model is preserved because every honest frame is written by the
//! router.

use crate::router::NetStats;
use crossbeam::channel::Sender;
use lucky_types::{Message, ProcessId, ServerId};
use lucky_wire::{decode_packet, FrameDecoder};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How the router moves wire messages to their destination slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Transport {
    /// In-process channels (the original runtime): zero-copy handoff,
    /// no bytes ever exist. `NetStats::bytes` is the codec-exact
    /// payload estimate; `wire_bytes` stays zero.
    #[default]
    Channel,
    /// Real loopback TCP sockets: every wire message is encoded by
    /// `lucky-wire`, framed, written to the destination slot's socket
    /// and reassembled/decoded on the far side. `NetStats::wire_bytes`
    /// reports the true framed byte count.
    Tcp,
}

/// How long a reader blocks in `read` before re-checking the shutdown
/// flag — bounds how long fabric teardown can take.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// The inbox of the one server a slot hosts.
type ServerInbox = Sender<(ProcessId, Message)>;

/// One server slot's receive side: its listener thread plus the inbox
/// sender of exactly the server hosted on this slot.
struct SlotReceiver {
    server: ServerId,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    /// This slot's own teardown flag: fabric shutdown raises every
    /// slot's, [`TcpFabric::rebind_slot`] raises just one — a server
    /// restart must not stop its peers' acceptors.
    down: Arc<AtomicBool>,
    /// Where this slot's readers deliver, kept so a re-bind can rebuild
    /// the receive side for the same server.
    inbox: ServerInbox,
}

/// The TCP substrate of one store: per-server listeners and the
/// router-side write streams.
pub(crate) struct TcpFabric {
    name: String,
    stats: Arc<Mutex<NetStats>>,
    receivers: Vec<SlotReceiver>,
    /// Listener address of each server's slot, for tests and
    /// adversarial harnesses that talk raw bytes to a server.
    pub(crate) server_addrs: BTreeMap<ServerId, SocketAddr>,
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric").field("slots", &self.receivers.len()).finish_non_exhaustive()
    }
}

/// Build the fabric: one listener + acceptor per live server (slot
/// `s.index()`), and one connected router-side stream per slot. Returns
/// the fabric and the router's write streams keyed by slot.
pub(crate) fn build_fabric(
    name: &str,
    servers: BTreeMap<ServerId, ServerInbox>,
    stats: &Arc<Mutex<NetStats>>,
) -> (TcpFabric, BTreeMap<usize, TcpStream>) {
    let mut receivers = Vec::new();
    let mut sinks = BTreeMap::new();
    let mut server_addrs = BTreeMap::new();
    for (server, inbox) in servers {
        let (receiver, sink) = bind_slot(name, server, inbox, stats);
        server_addrs.insert(server, receiver.addr);
        sinks.insert(server.index(), sink);
        receivers.push(receiver);
    }
    let fabric = TcpFabric { name: name.into(), stats: Arc::clone(stats), receivers, server_addrs };
    (fabric, sinks)
}

/// Bind one slot's receive side — a fresh ephemeral-port listener, its
/// acceptor thread, its own teardown flag — and connect the router-side
/// write stream. Used at build time and again on every slot re-bind.
fn bind_slot(
    name: &str,
    server: ServerId,
    inbox: ServerInbox,
    stats: &Arc<Mutex<NetStats>>,
) -> (SlotReceiver, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener has an address");
    let down = Arc::new(AtomicBool::new(false));
    let acceptor = spawn_acceptor(
        format!("{name}-slot-{}", server.index()),
        listener,
        (server, inbox.clone()),
        Arc::clone(stats),
        Arc::clone(&down),
    );
    let sink = TcpStream::connect(addr).expect("connect router sink");
    sink.set_nodelay(true).expect("set TCP_NODELAY");
    (SlotReceiver { server, addr, acceptor, down, inbox }, sink)
}

impl TcpFabric {
    /// Stop accepting, wake the blocked acceptors, and join every
    /// receive-side thread. Call after the router thread (which owns
    /// the write streams) has exited, so readers see EOF.
    pub(crate) fn shutdown(&mut self) {
        for r in &self.receivers {
            r.down.store(true, Ordering::SeqCst);
            // Wake the acceptor out of its blocking accept.
            let _ = TcpStream::connect(r.addr);
        }
        for r in self.receivers.drain(..) {
            let _ = r.acceptor.join();
        }
    }

    /// Re-bind one slot's receive side — the TCP half of a server
    /// restart. The old listener, acceptor and reader threads are torn
    /// down and joined, then the slot comes back on a **fresh ephemeral
    /// port** with a freshly connected router sink: a restarted server
    /// resumes at a new address, exactly as a restarted process would.
    /// Returns the new sink for the router to install (via
    /// `Envelope::Sink`), or `None` for a slot this fabric never bound
    /// (e.g. a server started crashed). `server_addrs` is updated for
    /// the slot's server so `server_addr()` keeps answering truthfully.
    pub(crate) fn rebind_slot(&mut self, slot: usize) -> Option<TcpStream> {
        let idx = self.receivers.iter().position(|r| r.server.index() == slot)?;
        let old = self.receivers.swap_remove(idx);
        old.down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(old.addr); // wake the blocking accept
        let _ = old.acceptor.join();
        let (receiver, sink) = bind_slot(&self.name, old.server, old.inbox, &self.stats);
        self.server_addrs.insert(old.server, receiver.addr);
        self.receivers.push(receiver);
        Some(sink)
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        // Non-blocking teardown path (store dropped without an
        // explicit shutdown): raise the flags and wake the acceptors so
        // they release their inbox senders; don't join.
        for r in &self.receivers {
            r.down.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(r.addr);
        }
    }
}

/// Accept connections for one slot until shutdown; each connection gets
/// its own frame-reader thread. Reader handles are joined before the
/// acceptor exits so the slot's inbox senders drop deterministically.
fn spawn_acceptor(
    name: String,
    listener: TcpListener,
    inbox: (ServerId, ServerInbox),
    stats: Arc<Mutex<NetStats>>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let mut readers = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let inbox = inbox.clone();
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                readers.push(
                    std::thread::Builder::new()
                        .name(format!("{name}-rx"))
                        .spawn(move || read_frames(stream, inbox, stats, shutdown))
                        .expect("spawn frame reader"),
                );
            }
            for r in readers {
                let _ = r.join();
            }
        })
        .expect("spawn slot acceptor")
}

/// Drain one connection: reassemble frames from whatever partial reads
/// the socket produces, decode each packet, and deliver its parts to
/// this slot's server. Exits on EOF, on shutdown, or on the first
/// malformed frame (counted, connection dropped — a corrupt stream has
/// no trustworthy framing left).
fn read_frames(
    mut stream: TcpStream,
    inbox: (ServerId, ServerInbox),
    stats: Arc<Mutex<NetStats>>,
    shutdown: Arc<AtomicBool>,
) {
    stream.set_read_timeout(Some(READ_TIMEOUT)).expect("set read timeout");
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        match stream.read(&mut buf) {
            Ok(0) => break, // EOF: peer closed
            Ok(n) => {
                dec.feed(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => match decode_packet(&payload) {
                            Ok(parts) => deliver(&parts, &inbox, &stats),
                            Err(_) => {
                                stats.lock().decode_errors += 1;
                                break 'conn;
                            }
                        },
                        Ok(None) => break,
                        Err(_) => {
                            stats.lock().decode_errors += 1;
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Hand decoded parts to the slot's server. A part addressed to any
/// other process (only hostile frames can produce one — the router
/// partitions by slot) or arriving after the inbox closed counts as
/// dropped, exactly like the channel transport's accounting.
fn deliver(
    parts: &[(ProcessId, ProcessId, Message)],
    (server, inbox): &(ServerId, ServerInbox),
    stats: &Arc<Mutex<NetStats>>,
) {
    for (from, to, msg) in parts {
        if *to != ProcessId::Server(*server) || inbox.send((*from, msg.clone())).is_err() {
            stats.lock().dropped += msg.part_count() as u64;
        }
    }
}
