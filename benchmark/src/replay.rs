//! The layer replay: the workload's own seeded schedule, hand-driven
//! single-threaded through every layer's public functions with a span
//! around each call —
//!
//! `Setup::make_*_session` → `ClientSession::{begin, poll_output}` →
//! `PacketEncoder::encode_into` / `encode_frame_into` →
//! `FrameDecoder::{feed, next_frame}` → `decode_packet` → server mux
//! `deliver` (memory backend or `DurableBackend`) → the ack back the
//! same way → `ClientSession::handle` → `Wake` at the timer →
//! `take_outcome`.
//!
//! There is no router, socket or second thread here, so what a layer
//! costs in the replay is its own CPU time and nothing else; the live
//! run's latency above the protocol timer minus the sum of these is
//! what the router, the sockets and the scheduler add
//! (`net.unattributed_us_per_op`). Messages are delivered with zero
//! virtual delay, so an op's virtual duration is exactly the time it
//! spent waiting on a timer (`core.timer_wait_us_per_op`).

use crate::schedule::{Freshness, OpGen, SchedOp};
use crate::spans::{Rollup, Spans};
use lucky_core::runtime::{ClientSession, Input, ServerCore, SessionConfig};
use lucky_core::{byz, ProtocolConfig, Setup};
use lucky_log::{DurableBackend, LogCounters, ServerBackend};
use lucky_sim::Effects;
use lucky_types::{
    BatchConfig, Message, Op, Params, ProcessId, RegisterId, Seq, ServerId, Time, TsVal,
};
use lucky_wire::{
    decode_packet, encode_frame_into, FrameDecoder, PacketEncoder, FRAME_HEADER_BYTES,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ops whose individual spans are kept for the span file (every op
/// feeds the per-layer totals).
const KEPT_OPS: usize = 256;

pub struct ReplaySpec {
    pub params: Params,
    pub timer_micros: u64,
    pub readers: u16,
    /// Registers the prelude writes (`prelude_rounds` times each),
    /// unmeasured, before the replayed ops.
    pub prelude_registers: u32,
    pub prelude_rounds: usize,
    /// Server crashed after the prelude.
    pub crash: Option<u16>,
    /// Server crashed half-way through the replayed ops.
    pub crash_midway: Option<u16>,
    /// Server replaced by a value forger.
    pub forger: Option<u16>,
    /// Pass every message through the wire codec and framing.
    pub wire: bool,
    /// Servers persist through `DurableBackend` under this directory.
    pub durable_dir: Option<PathBuf>,
    pub ops: usize,
}

/// Times every non-elided `persist` from outside the log crate, through
/// its public `ServerBackend` trait.
struct TimedBackend {
    inner: DurableBackend,
    counters: Arc<LogCounters>,
    log: Arc<Mutex<PersistLog>>,
}

#[derive(Default)]
struct PersistLog {
    /// `(ns, bytes)` of each persist that appended a record.
    records: Vec<(u64, u64)>,
    /// Time spent in persist calls since last taken (real or elided).
    pending_ns: u64,
}

impl ServerBackend for TimedBackend {
    fn load(&mut self, reg: RegisterId) -> Option<Vec<u8>> {
        self.inner.load(reg)
    }

    fn persist(&mut self, reg: RegisterId, snapshot: &[u8]) {
        let before = self.counters.log_bytes();
        let start = Instant::now();
        self.inner.persist(reg, snapshot);
        let ns = start.elapsed().as_nanos() as u64;
        let grew = self.counters.log_bytes() - before;
        let mut log = self.log.lock().expect("single-threaded replay");
        log.pending_ns += ns;
        if grew > 0 {
            log.records.push((ns, grew));
        }
    }

    fn durable(&self) -> bool {
        true
    }
}

#[derive(Default)]
pub struct ReplayResult {
    pub ops: usize,
    /// `(rounds, fast)` per replayed op, in schedule order.
    pub verdicts: Vec<(u32, bool)>,
    pub reads: u64,
    pub writes: u64,
    /// Virtual µs spent waiting on timers, summed per kind.
    pub timer_wait_read_us: u64,
    pub timer_wait_write_us: u64,
    /// Per-layer-call rollups (empty-span cost already subtracted).
    pub calls: BTreeMap<&'static str, Rollup>,
    /// Messages delivered to servers / wire hops / framed bytes.
    pub server_msgs: u64,
    pub hops: u64,
    pub framed_bytes: u64,
    pub persists: Vec<(u64, u64)>,
    pub spans: Spans,
    pub wall_s: f64,
}

impl ReplayResult {
    fn self_ns(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.calls.get(n).map_or(0, |r| r.self_ns)).sum()
    }

    pub fn session_ns_per_op(&self) -> f64 {
        let ns = self.self_ns(&[
            "core.make_session",
            "core.session.begin",
            "core.session.poll_output",
            "core.session.handle",
            "core.session.wake",
            "core.session.take_outcome",
        ]);
        ns as f64 / self.ops.max(1) as f64
    }

    pub fn server_handle_ns_per_msg(&self) -> f64 {
        self.self_ns(&["core.server.deliver"]) as f64 / self.server_msgs.max(1) as f64
    }

    pub fn per_hop(&self, name: &str) -> f64 {
        self.self_ns(&[name]) as f64 / self.hops.max(1) as f64
    }

    /// Everything the replay spent per op, µs: what the layers cost when
    /// nothing but the layers runs.
    pub fn total_us_per_op(&self) -> f64 {
        let ns: u64 = self.calls.values().map(|r| r.self_ns).sum();
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    pub fn timer_wait_us_per_op(&self) -> f64 {
        (self.timer_wait_read_us + self.timer_wait_write_us) as f64
            / (self.reads + self.writes).max(1) as f64
    }
}

struct Replayer {
    setup: Setup,
    protocol: ProtocolConfig,
    readers: u16,
    wire: bool,
    servers: Vec<Option<Box<dyn ServerCore>>>,
    sessions: BTreeMap<(u32, u32), ClientSession>,
    persist_log: Arc<Mutex<PersistLog>>,
    encoder: PacketEncoder,
    decoder: FrameDecoder,
    frame: Vec<u8>,
    reframe: Vec<u8>,
    epoch: Instant,
    now: Time,
    /// Cost of one empty span (two clock reads), subtracted per call.
    clock_ns: u64,
    measuring: bool,
    keep: bool,
    op_index: i64,
    op_span: i64,
    out: ReplayResult,
}

impl Replayer {
    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (a child of the current op).
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Replayer) -> T) -> T {
        let start = self.ns();
        let out = f(self);
        let end = self.ns();
        if self.measuring {
            let r = self.out.calls.entry(name).or_default();
            let dur = (end - start).saturating_sub(self.clock_ns);
            r.count += 1;
            r.total_ns += dur;
            r.self_ns += dur;
            if self.keep {
                self.out.spans.push(name, self.op_index, self.op_span, start, end);
            }
        }
        out
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.out.calls.get(name).map_or(0, |r| r.total_ns)
    }

    /// Move time out of `parent`'s self time (it was spent in a child
    /// span that has its own entry).
    fn reattribute(&mut self, parent: &'static str, child_ns: u64) {
        if self.measuring {
            let r = self.out.calls.entry(parent).or_default();
            r.self_ns = r.self_ns.saturating_sub(child_ns);
        }
    }

    /// One message across the wire: encode + frame on the sender's
    /// side, reassemble + verify + decode on the receiver's.
    fn hop(&mut self, from: ProcessId, to: ProcessId, msg: Message) -> Message {
        if !self.wire {
            return msg;
        }
        let parts = [(from, to, msg)];
        self.timed("wire.encode", |r| r.encoder.encode_into(&parts, &mut r.frame));
        // `encode_into` frames as its last step; time that step alone on
        // the same payload and move it out of the encode figure.
        let before = self.total_ns("wire.frame.encode");
        self.timed("wire.frame.encode", |r| {
            encode_frame_into(&r.frame[FRAME_HEADER_BYTES..], &mut r.reframe)
        });
        let framing = self.total_ns("wire.frame.encode") - before;
        self.reattribute("wire.encode", framing);
        let payload = self.timed("wire.frame.decode", |r| {
            r.decoder.feed(&r.frame);
            r.decoder.next_frame().expect("own frame verifies").expect("a whole frame was fed")
        });
        let mut decoded =
            self.timed("wire.decode", |_| decode_packet(&payload).expect("own packet decodes"));
        if self.measuring {
            self.out.hops += 1;
            self.out.framed_bytes += self.frame.len() as u64;
        }
        decoded.pop().expect("one part in, one part out").2
    }

    fn session_key(op: &SchedOp) -> (u32, u32) {
        (op.reg, op.reader.map_or(0, |j| u32::from(j) + 1))
    }

    fn ensure_session(&mut self, op: &SchedOp) {
        let key = Replayer::session_key(op);
        if self.sessions.contains_key(&key) {
            return;
        }
        let reg = RegisterId(op.reg);
        let cfg = SessionConfig::with_deadline(1_000_000);
        let (setup, protocol, readers) = (self.setup, self.protocol, self.readers);
        let session = self.timed("core.make_session", |_| match op.reader {
            None => setup.make_writer_session(reg, protocol, cfg),
            Some(j) => {
                setup.make_reader_session(reg, reg.reader(readers as usize, j), protocol, cfg)
            }
        });
        self.sessions.insert(key, session);
    }

    fn run_op(&mut self, sched: &SchedOp, op: Op) -> (u32, bool) {
        self.ensure_session(sched);
        let key = Replayer::session_key(sched);
        let mut session = self.sessions.remove(&key).expect("ensured above");
        let me = session.id();
        let invoked = self.now;
        let now = self.now;
        self.timed("core.session.begin", |_| session.begin(op, now))
            .expect("sessions run one op at a time");
        let mut inbox: Vec<(ProcessId, Message)> = Vec::new();
        loop {
            while let Some(out) = self.timed("core.session.poll_output", |_| session.poll_output())
            {
                let (to, msg) = out.into_send();
                let msg = self.hop(me, to, msg);
                let ProcessId::Server(ServerId(s)) = to else { continue };
                let Some(mut server) = self.servers[s as usize].take() else {
                    continue; // crashed: the message is lost
                };
                let mut eff = Effects::new();
                self.persist_log.lock().expect("single-threaded replay").pending_ns = 0;
                self.timed("core.server.deliver", |_| server.deliver(me, msg, &mut eff));
                let persisted = std::mem::take(
                    &mut self.persist_log.lock().expect("single-threaded").pending_ns,
                );
                if persisted > 0 && self.measuring {
                    let r = self.out.calls.entry("log.persist").or_default();
                    r.count += 1;
                    r.total_ns += persisted;
                    r.self_ns += persisted;
                    self.reattribute("core.server.deliver", persisted);
                }
                if self.measuring {
                    self.out.server_msgs += 1;
                }
                self.servers[s as usize] = Some(server);
                for (back_to, ack) in eff.into_parts().0 {
                    let ack = self.hop(to, back_to, ack);
                    inbox.push((to, ack));
                }
            }
            for (from, ack) in inbox.drain(..) {
                let now = self.now;
                self.timed("core.session.handle", |_| {
                    session.handle(Input::Deliver(from, ack), now)
                });
            }
            if session.is_settled() {
                break;
            }
            if session.has_output() {
                continue;
            }
            // Nothing left to deliver: the session is waiting on a timer.
            let due = session.next_wake().expect("a pending session always has a wake-up");
            self.now = self.now.max(due);
            let now = self.now;
            self.timed("core.session.wake", |_| session.handle(Input::Wake, now));
            if session.is_settled() {
                break;
            }
        }
        let outcome = self
            .timed("core.session.take_outcome", |_| session.take_outcome())
            .expect("replayed ops complete: quorums are alive and no link is lossy");
        if self.measuring {
            let waited = self.now.since(invoked);
            if sched.is_write() {
                self.out.writes += 1;
                self.out.timer_wait_write_us += waited;
            } else {
                self.out.reads += 1;
                self.out.timer_wait_read_us += waited;
            }
        }
        self.sessions.insert(key, session);
        // Ops are sequential; keep virtual instants strictly increasing.
        self.now = Time(self.now.0 + 1);
        (outcome.rounds, outcome.fast)
    }
}

pub fn run(spec: &ReplaySpec, mut gen: OpGen, namespace: usize) -> ReplayResult {
    let setup = Setup::Atomic(spec.params);
    let counters = Arc::new(LogCounters::default());
    let persist_log = Arc::new(Mutex::new(PersistLog::default()));
    let servers = ServerId::all(setup.server_count())
        .map(|s| -> Option<Box<dyn ServerCore>> {
            if spec.forger == Some(s.0) {
                let forged = TsVal::new(Seq(1 << 40), crate::schedule::value_for(u32::MAX, 1));
                return Some(Box::new(byz::ForgeValue::new(forged)));
            }
            Some(match &spec.durable_dir {
                Some(dir) => {
                    let inner =
                        DurableBackend::open_with(dir.join(format!("s{}", s.0)), counters.clone())
                            .expect("create the replay's log directory");
                    setup.make_server_mux_durable(
                        BatchConfig::disabled(),
                        Box::new(TimedBackend {
                            inner,
                            counters: counters.clone(),
                            log: persist_log.clone(),
                        }),
                    )
                }
                None => setup.make_server_mux_batched(BatchConfig::disabled()),
            })
        })
        .collect();
    let epoch = Instant::now();
    // Calibrate the cost of an empty span.
    let clock_ns = {
        let mut costs: Vec<u64> = (0..2_000)
            .map(|_| {
                let a = epoch.elapsed().as_nanos() as u64;
                let b = epoch.elapsed().as_nanos() as u64;
                b - a
            })
            .collect();
        costs.sort_unstable();
        costs[costs.len() / 2]
    };
    let mut r = Replayer {
        setup,
        protocol: ProtocolConfig { timer_micros: spec.timer_micros, ..ProtocolConfig::default() },
        readers: spec.readers,
        wire: spec.wire,
        servers,
        sessions: BTreeMap::new(),
        persist_log,
        encoder: PacketEncoder::new(),
        decoder: FrameDecoder::new(),
        frame: Vec::new(),
        reframe: Vec::new(),
        epoch,
        now: Time(1),
        clock_ns,
        measuring: false,
        keep: false,
        op_index: -1,
        op_span: -1,
        out: ReplayResult { spans: Spans::enabled(), ..ReplayResult::default() },
    };
    let mut fresh = Freshness::new(namespace);

    for _ in 0..spec.prelude_rounds {
        for reg in 0..spec.prelude_registers {
            let op = SchedOp { reg, reader: None };
            r.run_op(&op, Op::Write(fresh.next_write(reg).1));
        }
    }
    if let Some(s) = spec.crash {
        r.servers[s as usize] = None;
    }
    r.persist_log.lock().expect("single-threaded replay").records.clear();

    r.measuring = true;
    let start = Instant::now();
    for i in 0..spec.ops {
        if i == spec.ops / 2 {
            if let Some(s) = spec.crash_midway {
                r.servers[s as usize] = None;
            }
        }
        let sched = gen.next_op();
        let op = match sched.reader {
            None => Op::Write(fresh.next_write(sched.reg).1),
            Some(_) => Op::Read,
        };
        r.keep = i < KEPT_OPS;
        r.op_index = i as i64;
        let op_start = r.ns();
        r.op_span = if r.keep {
            r.out.spans.push("replay.op", i as i64, -1, op_start, op_start)
        } else {
            -1
        };
        let verdict = r.run_op(&sched, op);
        let op_end = r.ns();
        r.out.spans.close(r.op_span, op_end);
        r.out.verdicts.push(verdict);
    }
    r.out.wall_s = start.elapsed().as_secs_f64();
    r.out.ops = spec.ops;
    r.out.persists =
        std::mem::take(&mut r.persist_log.lock().expect("single-threaded replay").records);
    r.out
}
