//! One pass of a single-group workload over `NetStore`: TCP on
//! loopback, reactor driver, one shard worker, memory or durable
//! backend — the fixed settings of `workloads.rs`.

use crate::engine::{Engine, Pacing};
use crate::pass::{Counters, Pass};
use crate::schedule::{Keys, OpGen, SchedOp};
use crate::spans::Spans;
use crate::workloads::{NetSpec, Tuning, READERS, REGISTERS, TIMER};
use lucky_net::{Driver, NetConfig, NetRegisterHandle, NetStore, Transport};
use lucky_trace::TraceConfig;
use lucky_types::RegisterId;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// In-flight cap of the count-based phases (prelude, fill, tail).
const PHASE_TASKS: usize = 32;
/// How long a phase may wait for stragglers before counting them as
/// unfinished (the store's own op deadline is 1 s).
const GIVE_UP: Duration = Duration::from_secs(5);

fn build(spec: &NetSpec, traced: bool, durable_dir: Option<&Path>) -> NetStore {
    // Injected router latency 0/0: nothing simulated rides on the ops.
    let cfg = NetConfig {
        min_latency: Duration::ZERO,
        max_latency: Duration::ZERO,
        seed: 0,
        timer: TIMER,
    };
    let trace = if traced { TraceConfig::enabled() } else { TraceConfig::disabled() };
    let mut b = NetStore::builder(spec.params, cfg)
        .registers(REGISTERS)
        .readers_per_register(READERS as usize)
        .shards(1)
        .transport(Transport::Tcp)
        .driver(Driver::Reactor)
        .batch(spec.batch)
        .trace(trace);
    if let Some(dir) = durable_dir {
        b = b.durable(dir);
    }
    b.build()
}

/// Build → handles → first op acknowledged. The first op is a READ of
/// register 0 (returns ⊥, so it costs the schedule no write sequence
/// number); waiting for its ack means work deferred out of `build()`
/// into the first operation still shows in `setup_s`.
fn set_up(
    spec: &NetSpec,
    traced: bool,
    durable_dir: Option<&Path>,
) -> (NetStore, Vec<NetRegisterHandle>, f64) {
    let start = Instant::now();
    let mut store = build(spec, traced, durable_dir);
    let handles: Vec<NetRegisterHandle> = RegisterId::all(REGISTERS)
        .map(|reg| store.register(reg).expect("fresh store, fresh handles"))
        .collect();
    handles[0].read(0).expect("the first op completes on a healthy store");
    (store, handles, start.elapsed().as_secs_f64())
}

/// A scratch directory for durable logs inside the checkout (never
/// `/tmp`: the benchmark reads and writes only under its own tree).
fn durable_scratch(out_dir: &Path, rep: usize) -> PathBuf {
    let dir = out_dir.join(format!("durable-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the durable scratch directory");
    dir
}

fn tear_down(mut store: NetStore, handles: Vec<NetRegisterHandle>, dir: Option<PathBuf>) {
    drop(handles);
    store.shutdown();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

pub fn run(
    spec: &NetSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    tuning: &Tuning,
    out_dir: &Path,
) -> Pass {
    let mut pass = Pass::default();
    let mut spans = if traced { Spans::enabled() } else { Spans::default() };

    // Set-up, several times; the last store is the one that runs.
    let epoch = Instant::now();
    let reps = tuning.setup_reps.max(1);
    let mut kept = None;
    for rep in 0..reps {
        let dir = spec.durable.then(|| durable_scratch(out_dir, rep));
        let build_start = epoch.elapsed().as_nanos() as u64;
        let (store, handles, secs) = set_up(spec, traced, dir.as_deref());
        pass.setup_s.push(secs);
        if rep + 1 < reps {
            tear_down(store, handles, dir);
        } else {
            spans.push("net.build", -1, -1, build_start, epoch.elapsed().as_nanos() as u64);
            kept = Some((store, handles, dir));
        }
    }
    let (mut store, handles, dir) = kept.expect("at least one set-up repetition");

    let gen = OpGen::new(seed, Keys::Uniform(REGISTERS as u32), spec.read_permille, READERS);
    let mut engine = Engine::new(&handles, gen, epoch, spec.pacing, spans);
    engine.rss_mark_ops = spec.rss_mark_ops;

    // Prelude: every register written `prelude_rounds` times, in
    // register order — deterministic, unmeasured.
    let prelude: Vec<SchedOp> = (0..spec.prelude_rounds)
        .flat_map(|_| (0..REGISTERS as u32).map(|reg| SchedOp { reg, reader: None }))
        .collect();
    engine.run_batch(Some(&prelude), prelude.len(), PHASE_TASKS, GIVE_UP);
    if let Some(server) = spec.crash {
        store.crash_server(server);
    }

    // Warm-up, then the measured window, on one continuous schedule.
    let t0 = engine.now_ns() + tuning.warmup.as_nanos() as u64;
    let t1 = t0 + (seconds * 1e9) as u64;
    engine.set_window(t0, t1);
    engine.run_until(spec.pacing, t0);
    let at_t0 = Counters::read(&store.stats());
    pass.at_second.push(at_t0);
    let mut edge = t0;
    while edge < t1 {
        edge = (edge + 1_000_000_000).min(t1);
        engine.run_until(spec.pacing, edge);
        pass.at_second.push(Counters::read(&store.stats()));
    }
    let at_t1 = *pass.at_second.last().expect("the window has an end");
    pass.threads = crate::procfs::threads();
    pass.unfinished = engine.drain(GIVE_UP);
    pass.by_due = matches!(spec.pacing, Pacing::Open(_));
    pass.t0_ns = t0;
    pass.t1_ns = t1;
    pass.window = at_t1.since(&at_t0);

    // Tail: timed restart of the crashed server, then a few more ops
    // that make it replay its logs (replay is lazy, per register).
    if let Some(server) = spec.crash {
        let start = engine.now_ns();
        store.restart_server(server);
        let end = engine.now_ns();
        pass.restart_ms = (end - start) as f64 / 1e6;
        engine.spans.push("log.restart", -1, -1, start, end);
        engine.run_batch(None, spec.tail_ops, PHASE_TASKS, GIVE_UP);
        pass.unfinished += engine.drain(GIVE_UP);
    }
    pass.end = Counters::read(&store.stats());
    if let Pacing::Open(_) = spec.pacing {
        pass.offered = engine.samples.iter().filter(|s| s.measured).count() as u64;
    }

    // The peak is read before the checker runs: the checker clones the
    // history, which is the harness's memory, not the store's.
    pass.peak_rss_mb = engine.rss_at_mark.unwrap_or_else(crate::procfs::peak_rss_mb);
    let verify_start = engine.now_ns();
    let verdict = store.check_atomicity();
    let verify_end = engine.now_ns();
    engine.spans.push("checker.verify", -1, -1, verify_start, verify_end);
    pass.verify_s = (verify_end - verify_start) as f64 / 1e9;
    pass.ops_checked = store.history().ops.len() as u64;
    pass.violations = verdict.err().map_or(0, |v| v.0.len() as u64) + engine.fresh.violations();
    if traced {
        pass.trace = Some(store.trace());
    }

    let shutdown_start = engine.now_ns();
    let Engine { samples, mut spans, .. } = engine;
    tear_down(store, handles, dir);
    spans.push("net.shutdown", -1, -1, shutdown_start, epoch.elapsed().as_nanos() as u64);
    pass.samples = samples;
    pass.spans = spans;
    pass
}
