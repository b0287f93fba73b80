//! Differential harness for the two wait strategies of the shard
//! worker: **sleep-polling** (`Driver::Polled`, the portable fallback)
//! and the **epoll reactor** (`Driver::Reactor`, Linux) must be
//! observably interchangeable.
//!
//! Both run the same worker loop over the same sans-io `ClientSession`,
//! so for a deterministic (sequential-per-register) workload they must
//! produce **identical `OpOutcome` streams** — register, kind and value,
//! for all three protocol variants and ABD — each equal to the stream this file
//! derives from `value_for`, with identical checker verdicts; for a
//! concurrent workload, where wall-clock interleavings legitimately
//! differ, the per-register linearizability/regularity oracles must pass
//! under both. Fault tolerance must be strategy-independent too: a
//! crash + Byzantine run completes checker-clean under both. Every
//! store here runs over real loopback TCP sockets, as every store does.

use lucky_atomic::core::byz::ForgeValue;
use lucky_atomic::core::Setup;
use lucky_atomic::net::{Driver, NetConfig, NetStore, NetStoreBuilder};
use lucky_atomic::types::{OpKind, Params, RegisterId, Seq, TsVal, TwoRoundParams, Value};
use std::time::Duration;

const REGISTERS: usize = 4;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 3;

fn setups() -> Vec<Setup> {
    vec![
        Setup::Atomic(Params::new(2, 1, 1, 0).unwrap()),
        Setup::TwoRound(TwoRoundParams::new(2, 1, 1).unwrap()),
        Setup::Regular(Params::trading_reads(2, 1).unwrap()),
        Setup::Abd { t: 2 },
    ]
}

fn net_cfg(timer_millis: u64) -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(300),
        seed: 11,
        timer: Duration::from_millis(timer_millis),
    }
}

fn value_for(reg: RegisterId, round: u64) -> u64 {
    1 + reg.0 as u64 * 1_000 + round
}

/// The strategies that can watch a socket: epoll exists on Linux only.
fn tcp_drivers() -> &'static [Driver] {
    if cfg!(target_os = "linux") {
        &[Driver::Polled, Driver::Reactor]
    } else {
        &[Driver::Polled]
    }
}

fn builder(setup: Setup, driver: Driver, faulty: bool) -> NetStoreBuilder {
    let mut b = NetStore::builder(setup, net_cfg(8))
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(3)
        .driver(driver);
    if faulty {
        // One crashed server plus one value-forging Byzantine server:
        // within every variant's fault budget (t = 2, b = 1). ABD
        // tolerates no Byzantine server, so its second fault is a crash.
        b = b.crashed(0);
        b = match setup {
            Setup::Abd { .. } => b.crashed(1),
            _ => {
                b.byzantine(1, Box::new(ForgeValue::new(TsVal::new(Seq(77), Value::from_u64(666)))))
            }
        };
    }
    b
}

/// One deterministic outcome-stream entry: the fields that must match
/// across drivers exactly (wall-clock metrics like `elapsed` and the
/// fast/slow split legitimately vary between runs).
type Outcome = (RegisterId, OpKind, Option<u64>);

/// What the sequential workload must produce under any strategy: per
/// round, every register's write and then each reader reading it back.
fn expected_stream(rounds: u64) -> Vec<Outcome> {
    let mut stream = Vec::new();
    for round in 0..rounds {
        for reg in RegisterId::all(REGISTERS) {
            let v = Some(value_for(reg, round));
            stream.push((reg, OpKind::Write, v));
            stream.extend((0..READERS_PER_REGISTER).map(|_| (reg, OpKind::Read, v)));
        }
    }
    stream
}

/// The sequential workload: per round, every register writes then both
/// its readers read, each operation waited to completion before the
/// next. Values read are fully determined, so the stream is comparable
/// element for element.
fn run_sequential(setup: Setup, driver: Driver, faulty: bool) -> Vec<Outcome> {
    let mut store = builder(setup, driver, faulty).build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let mut stream = Vec::new();
    for round in 0..ROUNDS {
        for h in &handles {
            let v = value_for(h.id(), round);
            let out = h.write(Value::from_u64(v)).expect("write completes");
            assert_eq!(out.kind, OpKind::Write);
            stream.push((out.reg, out.kind, out.value.as_u64()));
            for j in 0..READERS_PER_REGISTER as u16 {
                let out = h.read(j).expect("read completes");
                assert_eq!(
                    out.value.as_u64(),
                    Some(v),
                    "sequential read returns the last written value ({setup:?}, {driver:?})"
                );
                stream.push((out.reg, out.kind, out.value.as_u64()));
            }
        }
    }
    match setup {
        Setup::Regular(_) => store.check_regularity().expect("regularity holds"),
        _ => store.check_atomicity().expect("atomicity holds"),
    }
    store.shutdown();
    stream
}

/// The concurrent workload: every register's write and reads submitted
/// before anything is waited on, so sessions genuinely overlap (on the
/// polled driver, several ops multiplex one worker thread). Values read
/// are timing-dependent; the oracle is the checker.
fn run_concurrent(setup: Setup, driver: Driver, faulty: bool) -> usize {
    let mut store = builder(setup, driver, faulty).build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let mut completed = 0;
    for round in 0..ROUNDS {
        let mut tickets = Vec::new();
        for h in &handles {
            tickets.push(h.invoke_write(Value::from_u64(value_for(h.id(), round))));
            for j in 0..READERS_PER_REGISTER as u16 {
                tickets.push(h.invoke_read(j));
            }
        }
        for t in tickets {
            t.wait().expect("concurrent operation completes");
            completed += 1;
        }
    }
    match setup {
        Setup::Regular(_) => store.check_regularity().expect("regularity holds"),
        _ => store.check_atomicity().expect("atomicity holds"),
    }
    store.shutdown();
    completed
}

#[test]
fn sequential_outcome_streams_are_identical_across_drivers() {
    let expected = expected_stream(ROUNDS);
    assert_eq!(expected.len(), (ROUNDS as usize) * REGISTERS * (1 + READERS_PER_REGISTER));
    for setup in setups() {
        for &driver in tcp_drivers() {
            assert_eq!(
                run_sequential(setup, driver, false),
                expected,
                "{driver:?} diverged on the deterministic workload ({setup:?})"
            );
        }
    }
}

#[test]
fn concurrent_workloads_stay_checker_clean_under_both_drivers() {
    // The concurrent workload under faults: a crashed server and a
    // value-forging Byzantine server while every round's operations
    // overlap (the fault-free twin is the next test but one).
    for setup in setups() {
        for &driver in tcp_drivers() {
            let completed = run_concurrent(setup, driver, true);
            assert_eq!(
                completed,
                (ROUNDS as usize) * REGISTERS * (1 + READERS_PER_REGISTER),
                "({setup:?}, {driver:?})"
            );
        }
    }
}

#[test]
fn crash_plus_byzantine_over_tcp_is_driver_independent() {
    // The acceptance run: a crashed server and a value-forging Byzantine
    // server over real sockets (two crashes for ABD), every setup, both strategies —
    // identical deterministic streams and clean checker verdicts.
    for setup in setups() {
        for &driver in tcp_drivers() {
            assert_eq!(
                run_sequential(setup, driver, true),
                expected_stream(ROUNDS),
                "{driver:?} diverged under faults over TCP ({setup:?})"
            );
        }
    }
}

#[test]
fn concurrent_tcp_workloads_stay_checker_clean_under_all_drivers() {
    for setup in setups() {
        for &driver in tcp_drivers() {
            let completed = run_concurrent(setup, driver, false);
            assert_eq!(
                completed,
                (ROUNDS as usize) * REGISTERS * (1 + READERS_PER_REGISTER),
                "({setup:?}, {driver:?})"
            );
        }
    }
}

/// One luck-pinned stream entry: outcome fields *plus* the round count
/// and fast/slow classification the tracer reports.
type LuckOutcome = (RegisterId, OpKind, Option<u64>, u32, bool);

/// Sequential workload with a timer generous enough (20ms) that no op
/// ever straddles the round-1 deadline: the rounds/fast classification
/// is then fully determined by the variant, so it must be identical
/// across drivers — not just the values read.
const LUCK_ROUNDS: u64 = 2;

fn run_luck_pinned(setup: Setup, driver: Driver) -> Vec<LuckOutcome> {
    let mut store = NetStore::builder(setup, net_cfg(20))
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(3)
        .driver(driver)
        .build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let mut stream = Vec::new();
    for round in 0..LUCK_ROUNDS {
        for h in &handles {
            let out = h.write(Value::from_u64(value_for(h.id(), round))).expect("write completes");
            stream.push((out.reg, out.kind, out.value.as_u64(), out.rounds, out.fast));
            for j in 0..READERS_PER_REGISTER as u16 {
                let out = h.read(j).expect("read completes");
                stream.push((out.reg, out.kind, out.value.as_u64(), out.rounds, out.fast));
            }
        }
    }
    store.shutdown();
    stream
}

#[test]
fn round_counts_and_luck_classification_are_identical_across_drivers() {
    for setup in setups() {
        // Synchrony without contention: every op resolves in the
        // variant's canonical round count.
        let expected: Vec<LuckOutcome> = expected_stream(LUCK_ROUNDS)
            .into_iter()
            .map(|(reg, kind, v)| match setup {
                Setup::TwoRound(_) if kind == OpKind::Write => (reg, kind, v, 2, false),
                Setup::Abd { .. } if kind == OpKind::Read => (reg, kind, v, 2, false),
                _ => (reg, kind, v, 1, true),
            })
            .collect();
        for &driver in tcp_drivers() {
            assert_eq!(
                run_luck_pinned(setup, driver),
                expected,
                "{driver:?} classified luck differently ({setup:?})"
            );
        }
    }
}

#[test]
fn per_op_traffic_attribution_is_real_under_every_driver() {
    // Every strategy records real per-op msgs/bytes in the history (the
    // append path used to hardcode zeros). An op needs at least one full round to its
    // quorum, so each record must attribute at least quorum-many
    // messages (sends + acks); exact totals legitimately differ between
    // drivers, because *when* a late ack is pumped decides which op (if
    // any) absorbs it.
    let setup = Setup::Atomic(Params::new(2, 1, 1, 0).unwrap());
    for &driver in tcp_drivers() {
        let mut store = builder(setup, driver, false).build();
        let handles: Vec<_> = RegisterId::all(REGISTERS)
            .map(|reg| store.register(reg).expect("fresh handle"))
            .collect();
        for h in &handles {
            h.write(Value::from_u64(h.id().0 as u64 + 1)).expect("write completes");
            h.read(0).expect("read completes");
        }
        let history = store.history();
        assert_eq!(history.ops.len(), REGISTERS * 2);
        for rec in &history.ops {
            // S = 2t + b + 1 = 6 here; one round is S sends plus at
            // least a quorum (S − t = 4) of acks back.
            assert!(
                rec.msgs >= 10,
                "{driver:?} attributes a full round to op {:?} (got {})",
                rec.id,
                rec.msgs
            );
            assert!(rec.bytes > 0, "{driver:?} attributes bytes to op {:?}", rec.id);
        }
        store.shutdown();
    }
}

#[test]
fn polled_driver_multiplexes_registers_on_one_worker() {
    // Force every session onto a single worker: concurrency must come
    // purely from the poll loop's multiplexing, not thread counts.
    let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
    let mut store = NetStore::builder(setup, net_cfg(4))
        .registers(REGISTERS)
        .shards(1)
        .driver(Driver::Polled)
        .build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    // Submit every register's write before waiting on any: with a
    // blocking one-job-at-a-time worker this would serialize; the polled
    // worker runs them concurrently and all complete.
    let tickets: Vec<_> =
        handles.iter().map(|h| h.invoke_write(Value::from_u64(100 + h.id().0 as u64))).collect();
    for t in tickets {
        t.wait().expect("multiplexed write completes");
    }
    for h in &handles {
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(100 + h.id().0 as u64));
    }
    store.check_atomicity().unwrap();
    store.shutdown();
}
