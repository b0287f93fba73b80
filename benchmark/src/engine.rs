//! The load generator for the net workloads: one thread holding every
//! in-flight op as an `OpFuture`, blocked in a single
//! `recv_timeout(min(next due, deadline))` that a completion's waker
//! cuts short. No `is_done` polling: in the sizing probe a 50 µs poll
//! loop cost 120 µs CPU/op and tripled p99.
//!
//! * **Open loop**: op `i` is due at `start + i / rate` whatever the
//!   store does, and its latency counts from that *due* instant, so a
//!   stall charges every op it delays (no coordinated omission). How
//!   late the generator itself ran is `load.gen_lag_p99_us`.
//! * **Closed loop**: `tasks` ops in flight; a completion frees its
//!   task, which immediately issues the schedule's next op.
//!
//! Either way a client process (a register's writer, or one of its
//! readers) has at most **one** op inside the store at a time, as the
//! paper's model prescribes (§2.2): an op whose client is busy parks in
//! the generator, keeps its due time, and is submitted the moment the
//! client's previous op completes. (Beyond fidelity, this sidesteps a
//! store defect the harness found: an op queued inside a shard worker
//! behind one that settles is only begun at the worker's *next* wake,
//! and an idle reactor never wakes — the last op of a run could hang.)

use crate::pass::Sample;
use crate::schedule::{Freshness, OpGen, SchedOp};
use crate::spans::{Spans, SPAN_OPS};
use lucky_net::{NetError, NetOutcome, NetRegisterHandle, OpFuture};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// How the generator paces submissions.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Fixed-rate arrivals, ops per second.
    Open(f64),
    /// This many ops in flight.
    Closed(usize),
}

/// Pushes its slot id on the generator's ready queue.
struct SlotWaker {
    slot: usize,
    ready: Sender<usize>,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.ready.send(self.slot);
    }
}

/// An op the generator has taken off the schedule but whose client
/// still has its previous op in the store.
struct Parked {
    op: SchedOp,
    idx: u64,
    due_ns: u64,
    issued_ns: u64,
}

struct InFlight {
    fut: OpFuture,
    op: SchedOp,
    idx: u64,
    due_ns: u64,
    issued_ns: u64,
    submit_ns: u64,
    submitted_ns: u64,
    /// WRITE: its sequence number. READ: the freshness floor at issue.
    mark: u64,
}

pub struct Engine<'a> {
    handles: &'a [NetRegisterHandle],
    gen: OpGen,
    pub fresh: Freshness,
    epoch: Instant,
    slots: Vec<Option<InFlight>>,
    wakers: Vec<Waker>,
    free: Vec<usize>,
    /// Ops issued and not yet completed (in the store or parked).
    in_flight: usize,
    /// Per client (`reg × (1 + readers) + role`): an op is in the store.
    busy: Vec<bool>,
    parked: Vec<VecDeque<Parked>>,
    roles: usize,
    ready_tx: Sender<usize>,
    ready_rx: Receiver<usize>,
    next_idx: u64,
    /// Open loop: when the next op is due.
    next_due_ns: Option<u64>,
    /// Measured window `[t0, t1)`; empty until the caller sets it.
    window: (u64, u64),
    /// Classify by due time (open loop) or completion time (closed).
    measure_by_due: bool,
    pub samples: Vec<Sample>,
    pub spans: Spans,
    /// Read the process's peak RSS when this many ops have completed.
    pub rss_mark_ops: Option<u64>,
    pub rss_at_mark: Option<f64>,
}

impl<'a> Engine<'a> {
    pub fn new(
        handles: &'a [NetRegisterHandle],
        gen: OpGen,
        epoch: Instant,
        pacing: Pacing,
        spans: Spans,
    ) -> Engine<'a> {
        let (ready_tx, ready_rx) = channel();
        let roles = 1 + handles.first().map_or(0, NetRegisterHandle::reader_count);
        Engine {
            handles,
            gen,
            fresh: Freshness::new(handles.len()),
            epoch,
            slots: Vec::new(),
            wakers: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            busy: vec![false; handles.len() * roles],
            parked: (0..handles.len() * roles).map(|_| VecDeque::new()).collect(),
            roles,
            ready_tx,
            ready_rx,
            next_idx: 0,
            next_due_ns: None,
            window: (u64::MAX, u64::MAX),
            measure_by_due: matches!(pacing, Pacing::Open(_)),
            samples: Vec::new(),
            spans,
            rss_mark_ops: None,
            rss_at_mark: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_window(&mut self, t0_ns: u64, t1_ns: u64) {
        self.window = (t0_ns, t1_ns);
    }

    fn client(&self, op: &SchedOp) -> usize {
        op.reg as usize * self.roles + op.reader.map_or(0, |j| j as usize + 1)
    }

    /// Take an op off the schedule: into the store if its client is
    /// free, parked behind the client's current op otherwise.
    fn issue(&mut self, op: SchedOp, idx: u64, due_ns: u64) {
        self.in_flight += 1;
        let client = self.client(&op);
        let parked = Parked { op, idx, due_ns, issued_ns: self.now_ns() };
        if self.busy[client] {
            self.parked[client].push_back(parked);
        } else {
            self.submit(parked);
        }
    }

    fn submit(&mut self, Parked { op, idx, due_ns, issued_ns }: Parked) {
        let client = self.client(&op);
        self.busy[client] = true;
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.slots.len();
            self.slots.push(None);
            self.wakers
                .push(Waker::from(Arc::new(SlotWaker { slot, ready: self.ready_tx.clone() })));
            slot
        });
        let handle = &self.handles[op.reg as usize];
        let (fut, mark, submit_ns) = match op.reader {
            None => {
                let (wseq, value) = self.fresh.next_write(op.reg);
                let submit_ns = self.now_ns();
                (handle.write_future(value), wseq, submit_ns)
            }
            Some(j) => {
                let floor = self.fresh.floor(op.reg);
                let submit_ns = self.now_ns();
                (handle.read_future(j), floor, submit_ns)
            }
        };
        let submitted_ns = self.now_ns();
        self.slots[slot] =
            Some(InFlight { fut, op, idx, due_ns, issued_ns, submit_ns, submitted_ns, mark });
        // The first poll registers the waker (the op is already in
        // flight; submission does not wait for a poll).
        self.poll_slot(slot);
    }

    fn poll_slot(&mut self, slot: usize) {
        let Some(inf) = self.slots[slot].as_mut() else {
            return; // stale wake of a finished op
        };
        let mut cx = Context::from_waker(&self.wakers[slot]);
        if let Poll::Ready(result) = Pin::new(&mut inf.fut).poll(&mut cx) {
            let inf = self.slots[slot].take().expect("polled just above");
            self.free.push(slot);
            self.in_flight -= 1;
            let client = self.client(&inf.op);
            self.record(inf, result);
            match self.parked[client].pop_front() {
                Some(next) => self.submit(next),
                None => self.busy[client] = false,
            }
        }
    }

    fn record(&mut self, inf: InFlight, result: Result<NetOutcome, NetError>) {
        let done_ns = self.now_ns();
        let write = inf.op.is_write();
        let (ok, fast, rounds, store_elapsed_ns) = match &result {
            Ok(out) => {
                if write {
                    self.fresh.write_acked(inf.op.reg, inf.mark);
                } else {
                    self.fresh.read_returned(inf.op.reg, inf.mark, &out.value);
                }
                (true, out.fast, out.rounds, out.elapsed.as_nanos() as u64)
            }
            Err(_) => (false, false, 0, 0),
        };
        let at = if self.measure_by_due { inf.due_ns } else { done_ns };
        let measured = inf.idx != u64::MAX && at >= self.window.0 && at < self.window.1;
        if self.spans.enabled && inf.idx < SPAN_OPS {
            let i = inf.idx as i64;
            let root = self.spans.push("op", i, -1, inf.due_ns, done_ns);
            self.spans.push("load.queue", i, root, inf.due_ns, inf.submit_ns);
            self.spans.push("net.submit", i, root, inf.submit_ns, inf.submitted_ns);
            self.spans.push("net.inflight", i, root, inf.submitted_ns, done_ns);
        }
        if self.rss_mark_ops == Some(self.samples.len() as u64 + 1) {
            self.rss_at_mark = Some(crate::procfs::peak_rss_mb());
        }
        self.samples.push(Sample {
            idx: inf.idx,
            due_ns: inf.due_ns,
            issued_ns: inf.issued_ns,
            submit_ns: inf.submit_ns,
            submitted_ns: inf.submitted_ns,
            done_ns,
            store_elapsed_ns,
            write,
            ok,
            fast,
            rounds,
            msgs: 0,
            bytes: 0,
            measured,
            first_touch: false,
            timed: true,
        });
    }

    /// Block until a completion wake or `until_ns`, then absorb every
    /// completion already queued.
    fn wait(&mut self, until_ns: u64) {
        let now = self.now_ns();
        let first = if until_ns > now {
            self.ready_rx.recv_timeout(Duration::from_nanos(until_ns - now))
        } else {
            self.ready_rx.try_recv().map_err(|_| RecvTimeoutError::Timeout)
        };
        if let Ok(slot) = first {
            self.poll_slot(slot);
            while let Ok(slot) = self.ready_rx.try_recv() {
                self.poll_slot(slot);
            }
        }
    }

    fn next_scheduled(&mut self) -> (SchedOp, u64) {
        let idx = self.next_idx;
        self.next_idx += 1;
        (self.gen.next_op(), idx)
    }

    /// Drive the schedule under `pacing` until `deadline_ns`.
    pub fn run_until(&mut self, pacing: Pacing, deadline_ns: u64) {
        match pacing {
            Pacing::Open(rate) => {
                let interval = (1e9 / rate) as u64;
                let mut due = self.next_due_ns.unwrap_or_else(|| self.now_ns());
                loop {
                    let now = self.now_ns();
                    while due <= now && due < deadline_ns {
                        let (op, idx) = self.next_scheduled();
                        self.issue(op, idx, due);
                        due += interval;
                    }
                    if now >= deadline_ns {
                        break;
                    }
                    self.wait(due.min(deadline_ns));
                }
                self.next_due_ns = Some(due);
            }
            Pacing::Closed(tasks) => loop {
                let now = self.now_ns();
                if now >= deadline_ns {
                    break;
                }
                while self.in_flight < tasks {
                    let (op, idx) = self.next_scheduled();
                    let due = self.now_ns();
                    self.issue(op, idx, due);
                }
                self.wait(deadline_ns);
            },
        }
    }

    /// A count-based phase: issue `ops` (explicit prelude/fill ops, not
    /// part of the indexed schedule and never measured) or, when `ops` is
    /// `None`, the schedule's next `n` ops — `tasks` in flight, to
    /// completion, giving stragglers `patience` after the last issue.
    pub fn run_batch(
        &mut self,
        ops: Option<&[SchedOp]>,
        n: usize,
        tasks: usize,
        patience: Duration,
    ) {
        let mut issued = 0;
        let mut give_up_ns = self.now_ns() + patience.as_nanos() as u64;
        while (issued < n || self.in_flight > 0) && self.now_ns() < give_up_ns {
            while issued < n && self.in_flight < tasks {
                let (op, idx) = match ops {
                    Some(list) => (list[issued], u64::MAX),
                    None => self.next_scheduled(),
                };
                let due = self.now_ns();
                self.issue(op, idx, due);
                issued += 1;
                give_up_ns = due + patience.as_nanos() as u64;
            }
            self.wait(give_up_ns);
        }
    }

    /// Wait up to `patience` for every in-flight op; whatever is left is
    /// recorded as failed (unfinished) and returned as a count.
    pub fn drain(&mut self, patience: Duration) -> u64 {
        let give_up_ns = self.now_ns() + patience.as_nanos() as u64;
        while self.in_flight > 0 && self.now_ns() < give_up_ns {
            self.wait(give_up_ns);
        }
        // Whatever is left — in the store or parked behind it — failed.
        let mut unfinished = 0;
        for slot in 0..self.slots.len() {
            if let Some(inf) = self.slots[slot].take() {
                self.free.push(slot);
                unfinished += 1;
                self.record(inf, Err(NetError::TimedOut));
            }
        }
        unfinished += self.parked.iter_mut().map(|q| q.drain(..).count() as u64).sum::<u64>();
        self.busy.fill(false);
        self.in_flight = 0;
        unfinished
    }
}
