//! Allocation floor of a warm simulator step.
//!
//! Once a run has warmed up, a `World` step allocates nothing: the event
//! queue reuses its heap and slab slots, the process table and history
//! are indexed in place, and one `Effects` buffer is drained and reused.
//! This binary installs a counting global allocator and drives the
//! `sim_core` bench's ping-pong world (an echo server and a client that
//! answers every echo), so the count is exact.

use lucky_sim::{Automaton, Effects, NetworkModel, World};
use lucky_types::{Message, Op, ProcessId, ReadMsg, ReadSeq, RegisterId, ServerId, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the allocations made by threads that armed [`COUNTING`].
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Echoes every message back to its sender.
struct Pong;
impl Automaton for Pong {
    fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
        eff.send(from, msg);
    }
}

fn countdown(n: u64) -> Message {
    Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(n), rnd: 1 })
}

/// Counts the READ timestamp down to zero, one echo at a time.
struct Ping {
    peer: ProcessId,
}
impl Automaton for Ping {
    fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
        eff.send(self.peer, countdown(10_000));
    }
    fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
        match msg {
            Message::Read(m) if m.tsr.0 > 0 => eff.send(from, countdown(m.tsr.0 - 1)),
            _ => eff.complete(None, 1, true),
        }
    }
}

#[test]
fn a_warm_ping_pong_step_allocates_nothing() {
    const WARM_UP: u64 = 100;
    const MEASURED: u64 = 5_000;
    let mut w = World::new(NetworkModel::constant(10), 1);
    let server = ProcessId::Server(ServerId(0));
    w.add_process(server, Box::new(Pong));
    w.add_process(ProcessId::Writer, Box::new(Ping { peer: server }));
    let op = w.invoke(ProcessId::Writer, Op::Read);
    assert_eq!(w.run_until_idle(WARM_UP), WARM_UP);
    let allocs = allocations_of(|| {
        assert_eq!(w.run_until_idle(MEASURED), MEASURED);
    });
    assert_eq!(allocs, 0, "allocations over {MEASURED} warm steps");
    assert!(!w.record(op).is_complete(), "the ping-pong is still running");
}
