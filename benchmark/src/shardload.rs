//! `sharded_zipf`: four server groups behind `ShardNetStore`, a lazy
//! 100 000-register namespace, zipf(0.99) keys, a closed loop of
//! blocking client threads (the shard API is blocking-only). The only
//! user of `lucky-shard`: placement, lazy first-touch materialisation,
//! the drain gate, four times the thread set.

use crate::pass::{Counters, Pass, Sample};
use crate::schedule::{decode_value, value_for, Keys, OpGen, SchedOp};
use crate::workloads::{Tuning, TIMER};
use lucky_core::StoreConfig;
use lucky_net::{Driver, NetConfig, NetStats, Transport};
use lucky_shard::ShardNetStore;
use lucky_trace::TraceConfig;
use lucky_types::{GroupId, Params, Placement, RegisterId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const GROUPS: usize = 4;
pub const NAMESPACE: u32 = 100_000;
pub const ZIPF_THETA: f64 = 0.99;
pub const READ_PERMILLE: u32 = 900;
/// Backing registers each group is built with. A `NetStore` builds its
/// registers eagerly, so this — not the namespace — sizes set-up time,
/// memory and the worker's per-wake session scan.
pub const GROUP_CAPACITY: usize = 2_048;
/// The client threads together cycle through a seeded schedule of this
/// many ops (split evenly among them), which bounds the distinct keys a
/// run can ever touch — and so keeps every run inside `GROUP_CAPACITY`
/// however fast a later commit makes the store or however many cores
/// the machine has.
pub const SCHEDULE_PERIOD: usize = 8_192;
/// `peak_rss_mb` is read when this many ops have completed (see
/// `NetSpec::rss_mark_ops`): about half of what the sandbox serves in
/// warm-up + window.
const RSS_MARK_OPS: u64 = 6_000;
/// A client process — a register's writer, or its reader — invokes one
/// op at a time (§2.2), so two threads that draw the same key and role
/// serialise on one of these locks (striped by key).
const CLIENT_LOCKS: usize = 1_024;

pub fn params() -> Params {
    Params::new(1, 0, 1, 0).expect("S = 3 per group")
}

pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

fn build(traced: bool) -> ShardNetStore {
    let trace = if traced { TraceConfig::enabled() } else { TraceConfig::disabled() };
    let cfg = StoreConfig::synchronous(params())
        .registers(GROUP_CAPACITY)
        .readers_per_register(1)
        .groups(GROUPS)
        .with_trace(trace);
    let net = NetConfig {
        min_latency: Duration::ZERO,
        max_latency: Duration::ZERO,
        seed: 0,
        timer: TIMER,
    };
    ShardNetStore::builder(cfg, net).transport(Transport::Tcp).driver(Driver::Reactor).build()
}

/// Build → namespace → first op acknowledged (a READ of the hottest
/// key, which also materialises the first register).
fn set_up(traced: bool) -> (ShardNetStore, f64) {
    let start = Instant::now();
    let store = build(traced);
    store.bulk_create(NAMESPACE).expect("an empty namespace accepts a bulk create");
    store.read(RegisterId(0), 0).expect("the first op completes on a healthy store");
    (store, start.elapsed().as_secs_f64())
}

/// The schedule seed of client thread `t`.
pub fn thread_seed(seed: u64, t: usize) -> u64 {
    seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Thread `t`'s schedule: its share of `SCHEDULE_PERIOD` seeded ops,
/// cycled.
pub fn thread_schedule(seed: u64, t: usize, threads: usize, keys: &Keys) -> Vec<SchedOp> {
    let mut gen = OpGen::new(thread_seed(seed, t), keys.clone(), READ_PERMILLE, 1);
    (0..SCHEDULE_PERIOD / threads.max(1)).map(|_| gen.next_op()).collect()
}

fn summed(store: &ShardNetStore) -> NetStats {
    // Not `store.stats()`: that clones every group's history to count
    // ops, which would charge the store for the harness's curiosity.
    let mut total = NetStats::default();
    for g in GroupId::all(GROUPS) {
        let s = store.group_stats(g);
        total.messages += s.messages;
        total.parts += s.parts;
        total.batches_sent += s.batches_sent;
        total.bytes += s.bytes;
        total.wire_bytes += s.wire_bytes;
        total.decode_errors += s.decode_errors;
        total.dropped += s.dropped;
        total.io_errors += s.io_errors;
        total.reactor_wakeups += s.reactor_wakeups;
        total.frame_allocs += s.frame_allocs;
    }
    total
}

struct Shared {
    next_wseq: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    touched: Vec<AtomicBool>,
    writer_locks: Vec<Mutex<()>>,
    reader_locks: Vec<Mutex<()>>,
    stale_reads: AtomicU64,
    foreign_values: AtomicU64,
    completed: AtomicU64,
    /// Bits of the peak-RSS reading taken at `RSS_MARK_OPS` (0: not yet).
    rss_at_mark: AtomicU64,
}

pub fn run(seed: u64, seconds: f64, traced: bool, tuning: &Tuning) -> Pass {
    let mut pass = Pass::default();
    if traced {
        pass.spans.enabled = true;
    }
    let epoch = Instant::now();
    // The measured store is the first thing this process builds, and
    // the other set-up repetitions follow its shutdown. `shutdown` does
    // not join a store's worker and socket-reader threads; how many of
    // an earlier store's were still alive, with their memory, was
    // decided by thread timing, and `peak_rss_mb` read 45 or 63 MiB.
    let build_start = epoch.elapsed().as_nanos() as u64;
    let (store, secs) = set_up(traced);
    pass.setup_s.push(secs);
    pass.spans.push("net.build", -1, -1, build_start, epoch.elapsed().as_nanos() as u64);

    let keys = Keys::zipf(NAMESPACE, ZIPF_THETA);
    let threads = client_threads();
    let schedules: Vec<Vec<SchedOp>> =
        (0..threads).map(|t| thread_schedule(seed, t, threads, &keys)).collect();
    let placement = Placement::new(GROUPS);
    // Every key the schedules can touch must find a backing register.
    let mut distinct: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); GROUPS];
    for op in schedules.iter().flatten() {
        distinct[placement.group_of(RegisterId(op.reg)).index()].insert(op.reg);
    }
    let need = distinct.iter().map(BTreeSet::len).max().unwrap_or(0);
    assert!(need <= GROUP_CAPACITY, "the schedule needs {need} registers in one group");
    let shared = Shared {
        next_wseq: (0..NAMESPACE).map(|_| AtomicU64::new(0)).collect(),
        acked: (0..NAMESPACE).map(|_| AtomicU64::new(0)).collect(),
        touched: (0..NAMESPACE).map(|_| AtomicBool::new(false)).collect(),
        writer_locks: (0..CLIENT_LOCKS).map(|_| Mutex::new(())).collect(),
        reader_locks: (0..CLIENT_LOCKS).map(|_| Mutex::new(())).collect(),
        stale_reads: AtomicU64::new(0),
        foreign_values: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        rss_at_mark: AtomicU64::new(0),
    };
    // The set-up's first op already touched key 0.
    shared.touched[0].store(true, Ordering::Relaxed);

    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let t0 = now_ns() + tuning.warmup.as_nanos() as u64;
    let t1 = t0 + (seconds * 1e9) as u64;
    let (mut at_t0, mut at_t1) = (Counters::default(), Counters::default());
    let mut per_thread: Vec<Vec<Sample>> = Vec::new();
    let mut at_second: Vec<Counters> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let (store, shared) = (&store, &shared);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (i, op) in schedule.iter().cycle().enumerate() {
                        let start = epoch.elapsed().as_nanos() as u64;
                        if start >= t1 {
                            break;
                        }
                        let reg = RegisterId(op.reg);
                        let key = op.reg as usize;
                        let first_touch = !shared.touched[key].swap(true, Ordering::Relaxed);
                        let result = match op.reader {
                            None => {
                                let _one_writer = shared.writer_locks[key % CLIENT_LOCKS]
                                    .lock()
                                    .expect("no writer panics while holding its lock");
                                let wseq =
                                    shared.next_wseq[key].fetch_add(1, Ordering::Relaxed) + 1;
                                let out = store.write(reg, value_for(op.reg, wseq));
                                if out.is_ok() {
                                    shared.acked[key].fetch_max(wseq, Ordering::SeqCst);
                                }
                                out
                            }
                            Some(j) => {
                                let _one_reader = shared.reader_locks[key % CLIENT_LOCKS]
                                    .lock()
                                    .expect("no reader panics while holding its lock");
                                let floor = shared.acked[key].load(Ordering::SeqCst);
                                let out = store.read(reg, j);
                                if let Ok(out) = &out {
                                    match decode_value(&out.value, op.reg) {
                                        Some((r, wseq)) if r == op.reg => {
                                            if wseq < floor {
                                                shared.stale_reads.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                        _ => {
                                            shared.foreign_values.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                                out
                            }
                        };
                        let done = epoch.elapsed().as_nanos() as u64;
                        if shared.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_MARK_OPS {
                            let peak = crate::procfs::peak_rss_mb();
                            shared.rss_at_mark.store(peak.to_bits(), Ordering::Relaxed);
                        }
                        let (ok, fast, rounds, elapsed) = match &result {
                            Ok(o) => (true, o.fast, o.rounds, o.elapsed.as_nanos() as u64),
                            Err(_) => (false, false, 0, 0),
                        };
                        samples.push(Sample {
                            idx: i as u64,
                            due_ns: start,
                            issued_ns: start,
                            submit_ns: start,
                            submitted_ns: start,
                            done_ns: done,
                            store_elapsed_ns: elapsed,
                            write: op.is_write(),
                            ok,
                            fast,
                            rounds,
                            msgs: 0,
                            bytes: 0,
                            measured: done >= t0 && done < t1,
                            first_touch,
                            timed: true,
                        });
                    }
                    samples
                })
            })
            .collect();
        let sleep_until = |t: u64| {
            let now = epoch.elapsed().as_nanos() as u64;
            std::thread::sleep(Duration::from_nanos(t.saturating_sub(now)));
        };
        sleep_until(t0);
        at_t0 = Counters::read(&summed(&store));
        at_second.push(at_t0);
        let mut edge = t0;
        while edge < t1 {
            edge = (edge + 1_000_000_000).min(t1);
            sleep_until(edge);
            at_second.push(Counters::read(&summed(&store)));
        }
        at_t1 = *at_second.last().expect("the window has an end");
        pass.threads = crate::procfs::threads();
        per_thread =
            workers.into_iter().map(|w| w.join().expect("a client thread panicked")).collect();
    });
    pass.t0_ns = t0;
    pass.t1_ns = t1;
    pass.window = at_t1.since(&at_t0);
    pass.at_second = at_second;
    pass.end = Counters::read(&summed(&store));
    pass.materialized = store.materialized() as u64;
    pass.group_ops = vec![0; GROUPS];
    // Thread 0's ops carry the schedule indices the replay compares
    // against; the other threads' are tagged out of its range.
    for (t, samples) in per_thread.into_iter().enumerate() {
        for mut s in samples {
            if s.measured {
                let op = schedules[t][s.idx as usize % schedules[t].len()];
                pass.group_ops[placement.group_of(RegisterId(op.reg)).index()] += 1;
            }
            if t != 0 {
                s.idx = u64::MAX - 1;
            }
            pass.samples.push(s);
        }
    }

    pass.peak_rss_mb = match shared.rss_at_mark.load(Ordering::Relaxed) {
        0 => crate::procfs::peak_rss_mb(),
        bits => f64::from_bits(bits),
    };
    let verify_start = now_ns();
    let verdict = store.check_atomicity();
    let verify_end = now_ns();
    pass.spans.push("checker.verify", -1, -1, verify_start, verify_end);
    pass.verify_s = (verify_end - verify_start) as f64 / 1e9;
    pass.ops_checked = pass.samples.len() as u64 + pass.setup_s.len().min(1) as u64;
    pass.violations = verdict.err().map_or(0, |v| v.0.len() as u64)
        + shared.stale_reads.load(Ordering::Relaxed)
        + shared.foreign_values.load(Ordering::Relaxed);
    if traced {
        // One report per group; fold the luck counters into one.
        let mut merged = store.group_trace(GroupId(0));
        for g in GroupId::all(GROUPS).skip(1) {
            let r = store.group_trace(g);
            merged.fast_reads += r.fast_reads;
            merged.slow_reads += r.slow_reads;
            merged.fast_writes += r.fast_writes;
            merged.slow_writes += r.slow_writes;
            merged.timeouts += r.timeouts;
        }
        pass.trace = Some(merged);
    }
    let shutdown_start = now_ns();
    store.shutdown();
    pass.spans.push("net.shutdown", -1, -1, shutdown_start, now_ns());
    // Twice the repetitions of the other workloads: its set-up spawns
    // ~60 threads and binds ~16 sockets, and repeats worst.
    for _ in 1..(2 * tuning.setup_reps).saturating_sub(1) {
        let (store, secs) = set_up(traced);
        pass.setup_s.push(secs);
        store.shutdown();
    }
    pass
}

/// Mean cost of one `group_of` ring lookup over the schedule's keys, ns.
pub fn group_of_ns(seed: u64) -> f64 {
    let keys = Keys::zipf(NAMESPACE, ZIPF_THETA);
    let schedule = thread_schedule(seed, 0, 1, &keys);
    let placement = Placement::new(GROUPS);
    let start = Instant::now();
    let mut acc = 0usize;
    for op in &schedule {
        acc += std::hint::black_box(placement.group_of(RegisterId(std::hint::black_box(op.reg))))
            .index();
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / schedule.len() as f64
}
