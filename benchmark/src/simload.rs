//! `sim_contended_byz`: the deterministic simulator under contention
//! with a Byzantine server and a mid-run crash. No sockets or threads:
//! `lucky-core` + `lucky-sim` do all the work, and every count repeats
//! exactly for a fixed seed.
//!
//! The pass is a fixed number of ops issued in **waves**. A wave takes
//! the schedule's next ops until one names a client already in the
//! wave (a client invokes one op at a time, §2.2); its first op is the
//! *foreground* op, invoked immediately and driven with the blocking
//! `run_until_complete` a sim user would call, the rest are invoked at
//! seeded instants inside the first op's lifetime so they overlap it.
//! The wall-clock time of the foreground call — which simulates every
//! overlapping event on the way — is this workload's op latency; the
//! virtual latencies are reported per layer as `sim.virt_*`.
//!
//! The fixed-size pass repeats on a fresh store until the window is
//! over, so timings are pooled over several passes while counts are
//! compared pass against pass (they must be bit-identical).

use crate::pass::{Counters, Pass, Sample};
use crate::schedule::{Freshness, Keys, OpGen, Rng, SchedOp};
use crate::spans::Spans;
use crate::workloads::Tuning;
use lucky_core::{SimStore, StoreConfig};
use lucky_trace::TraceConfig;
use lucky_types::{OpId, Params, RegisterId, Seq, Time, TsVal};
use std::collections::BTreeSet;
use std::time::Instant;

pub const REGISTERS: usize = 64;
pub const READERS: u16 = 2;
pub const READ_PERMILLE: u32 = 700;
const MAX_WAVE: usize = 24;
/// Background ops start within this many virtual µs of the foreground
/// op (a lucky op lasts one 201 µs timer, so they overlap it).
const OVERLAP_MICROS: u64 = 250;
pub const FORGER: u16 = 0;
pub const CRASHED: u16 = 5;

pub fn params() -> Params {
    Params::new(2, 1, 1, 0).expect("S = 6: two crashes, one of them Byzantine")
}

fn build(traced: bool) -> SimStore {
    let trace = if traced { TraceConfig::enabled() } else { TraceConfig::disabled() };
    let mut store = StoreConfig::synchronous(params())
        .registers(REGISTERS)
        .readers_per_register(READERS as usize)
        .with_trace(trace)
        .build_sim();
    // A forged pair far in the timestamp future, of a value no writer
    // ever writes: any read that returns it is a checker violation.
    store.install_forge_value(
        FORGER,
        TsVal::new(Seq(1 << 40), crate::schedule::value_for(u32::MAX, 1)),
    );
    store
}

/// The exact (timing-free) signature of one pass.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Signature {
    ops: u64,
    fast: u64,
    rounds: u64,
    msgs: u64,
    bytes: u64,
    virt_micros: u64,
    end: u64,
}

fn one_pass(
    seed: u64,
    traced: bool,
    ops: usize,
    epoch: Instant,
    pass: &mut Pass,
) -> (SimStore, Signature) {
    let mut store = build(traced);
    let mut gen = OpGen::new(seed, Keys::Uniform(REGISTERS as u32), READ_PERMILLE, READERS);
    let mut offsets = Rng::new(seed ^ 0x5151_5151);
    let mut fresh = Freshness::new(REGISTERS);
    let mut sig = Signature::default();
    let mut carried: Option<SchedOp> = None;
    let mut issued = 0usize;
    let mut crashed = false;
    let now_ns = |epoch: Instant| epoch.elapsed().as_nanos() as u64;
    while issued < ops {
        // One CPU reading per whole second of the window.
        if now_ns(epoch) >= pass.t0_ns + pass.at_second.len() as u64 * 1_000_000_000 {
            pass.at_second.push(Counters::cpu_only());
        }
        if !crashed && issued >= ops / 2 {
            store.crash_server_at(CRASHED, Time(store.now().0 + 100));
            crashed = true;
        }
        // Assemble the wave.
        let mut wave: Vec<SchedOp> = Vec::with_capacity(MAX_WAVE);
        let mut clients: BTreeSet<(u32, Option<u16>)> = BTreeSet::new();
        while wave.len() < MAX_WAVE && issued + wave.len() < ops {
            let op = carried.take().unwrap_or_else(|| gen.next_op());
            if !clients.insert((op.reg, op.reader)) {
                carried = Some(op);
                break;
            }
            wave.push(op);
        }
        // Invoke it: the first op now, the others overlapping it.
        let base = store.now().0 + 1;
        let ids: Vec<OpId> = wave
            .iter()
            .enumerate()
            .map(|(k, op)| {
                let at = Time(if k == 0 { base } else { base + offsets.below(OVERLAP_MICROS) });
                let mut reg = store.register(RegisterId(op.reg));
                match op.reader {
                    None => reg.invoke_write_at(at, fresh.next_write(op.reg).1),
                    Some(j) => reg.invoke_read_at(at, j),
                }
            })
            .collect();
        let start = now_ns(epoch);
        let fg = store.run_until_complete(ids[0]).is_ok();
        let fg_done = now_ns(epoch);
        let rest = store.run_until_all_complete(&ids).is_ok();
        let done = now_ns(epoch);
        for (k, (op, id)) in wave.iter().zip(&ids).enumerate() {
            let out = store.outcome(*id);
            let ok = store.is_complete(*id) && if k == 0 { fg } else { rest };
            if ok {
                sig.ops += 1;
                sig.fast += u64::from(out.fast);
                sig.rounds += u64::from(out.rounds);
                sig.msgs += out.msgs;
                sig.bytes += out.bytes;
                sig.virt_micros += out.latency;
                if op.is_write() {
                    pass.virt_write_us.push(out.latency);
                } else {
                    pass.virt_read_us.push(out.latency);
                }
            }
            pass.samples.push(Sample {
                idx: (issued + k) as u64,
                due_ns: start,
                issued_ns: start,
                submit_ns: start,
                submitted_ns: start,
                done_ns: if k == 0 { fg_done } else { done },
                store_elapsed_ns: 0,
                write: op.is_write(),
                ok,
                fast: out.fast,
                rounds: out.rounds,
                msgs: out.msgs,
                bytes: out.bytes,
                measured: true,
                first_touch: false,
                timed: k == 0,
            });
        }
        issued += wave.len();
    }
    sig.end = store.now().0;
    (store, sig)
}

pub fn run(seed: u64, seconds: f64, traced: bool, tuning: &Tuning) -> Pass {
    let mut pass =
        Pass { spans: if traced { Spans::enabled() } else { Spans::default() }, ..Pass::default() };
    let epoch = Instant::now();
    // Set-up: build → first op acknowledged (a blocking write). It is
    // tens of microseconds, so many repetitions are cheap; a batch runs
    // before every pass, so the median is taken across the whole window
    // and not over one instant of the machine's mood.
    let set_up = |pass: &mut Pass| {
        for _ in 0..tuning.setup_reps.max(1) * 8 {
            let start = Instant::now();
            let mut store = build(traced);
            store.register(RegisterId(0)).write(crate::schedule::value_for(0, 1));
            pass.setup_s.push(start.elapsed().as_secs_f64());
        }
    };

    let t0 = epoch.elapsed().as_nanos() as u64;
    let at_t0 = Counters::cpu_only();
    pass.t0_ns = t0;
    let mut first: Option<Signature> = None;
    let mut last_store;
    loop {
        set_up(&mut pass);
        let (store, sig) = one_pass(seed, traced, tuning.sim_ops, epoch, &mut pass);
        last_store = store;
        match &first {
            // Memory after one pass's worth of ops: a fixed amount of
            // work, however many passes the window then fits.
            None => {
                pass.peak_rss_mb = crate::procfs::peak_rss_mb();
                first = Some(sig);
            }
            Some(f) if *f != sig => pass.repeat_mismatches += 1,
            Some(_) => {}
        }
        if epoch.elapsed().as_secs_f64() - t0 as f64 / 1e9 >= seconds {
            break;
        }
    }
    let t1 = epoch.elapsed().as_nanos() as u64;
    pass.window = Counters::cpu_only().since(&at_t0);
    pass.end = pass.window;
    pass.t0_ns = t0;
    pass.t1_ns = t1;
    pass.threads = crate::procfs::threads();
    pass.sim_wall_ns_per_op = (t1 - t0) as f64 / pass.samples.len().max(1) as f64;

    let verify_start = epoch.elapsed().as_nanos() as u64;
    let verdict = last_store.check_atomicity();
    let verify_end = epoch.elapsed().as_nanos() as u64;
    pass.spans.push("checker.verify", -1, -1, verify_start, verify_end);
    pass.verify_s = (verify_end - verify_start) as f64 / 1e9;
    pass.ops_checked = last_store.history().ops.len() as u64;
    pass.violations = verdict.err().map_or(0, |v| v.0.len() as u64) + pass.repeat_mismatches;
    if traced {
        pass.trace = Some(last_store.trace());
    }
    pass
}
