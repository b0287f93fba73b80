//! Differential harness for wire-message batching: batching must change
//! **nothing but the message count**.
//!
//! For all three protocol variants (atomic §3, two-round App. C, regular
//! App. D) on both runtimes:
//!
//! * the same seeded workload runs with batching disabled and enabled,
//!   and the resulting operation outcomes must be identical — on the
//!   deterministic simulator the *entire* `OpOutcome` (value, rounds,
//!   fast flag, latency, message counts) must match field for field; on
//!   the threaded runtime (where wall-clock timing is nondeterministic)
//!   the semantic fields (register, kind, value) must match and the
//!   per-register linearizability/regularity oracles must pass;
//! * with batching disabled the wire traffic is identical to the
//!   pre-batching runtime: every wire message carries exactly one
//!   protocol message and no `Batch` envelope is ever sent;
//! * batch-delivery *interleavings* — schedules in which a link's whole
//!   backlog arrives as one atomic batch — are exercised through
//!   `lucky_explore::random_walks`, which must find no atomicity
//!   violation with the batch-delivery choice enabled.

use lucky_atomic::core::{OpOutcome, ProtocolConfig, Setup, SimStore, StoreConfig};
use lucky_atomic::explore::{random_walks, ByzKind, Scenario};
use lucky_atomic::net::{NetConfig, NetStore};
use lucky_atomic::types::{
    BatchConfig, OpKind, Params, ProcessId, RegisterId, ServerId, TwoRoundParams, Value,
};
use std::time::Duration;

const REGISTERS: usize = 6;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 3;

fn setups() -> Vec<Setup> {
    vec![
        Setup::Atomic(Params::new(2, 1, 1, 0).unwrap()),
        Setup::TwoRound(TwoRoundParams::new(2, 1, 1).unwrap()),
        Setup::Regular(Params::trading_reads(2, 1).unwrap()),
    ]
}

fn value_for(reg: RegisterId, round: u64) -> u64 {
    1 + reg.0 as u64 * 1_000 + round
}

// ---------------------------------------------------------------------
// Simulator: field-for-field identical outcomes.
// ---------------------------------------------------------------------

/// The seeded workload: per round, every register's write and reads are
/// invoked before anything completes, so cross-register traffic genuinely
/// overlaps. Returns the outcomes in operation order.
fn run_sim(setup: Setup, seed: u64, batch: BatchConfig) -> (SimStore, Vec<OpOutcome>) {
    let mut store: SimStore = StoreConfig::synchronous(setup)
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .with_seed(seed)
        .with_batch(batch)
        .build_sim();
    let mut ops = Vec::new();
    for round in 0..ROUNDS {
        let mut wave = Vec::new();
        for reg in RegisterId::all(REGISTERS) {
            let v = value_for(reg, round);
            wave.push(store.register(reg).invoke_write(Value::from_u64(v)));
        }
        for reg in RegisterId::all(REGISTERS) {
            for j in 0..READERS_PER_REGISTER as u16 {
                wave.push(store.register(reg).invoke_read(j));
            }
        }
        store.run_until_all_complete(&wave).expect("failure-free workload completes");
        ops.extend(wave);
    }
    let outcomes = ops.iter().map(|&op| store.outcome(op)).collect();
    (store, outcomes)
}

/// On this failure-free workload the engines send at most one message per
/// destination per step, so no batch can form and the two runs must be
/// **bit-identical** — field for field including latency, message and
/// byte counts. This is the plumbing guard: enabling batching must not
/// perturb RNG draw order, scheduling or accounting when there is nothing
/// to coalesce. Runs where batches *do* form are covered by
/// `sim_gated_backlog_releases_as_batches_and_stays_atomic` below and the
/// explore-driven walks at the bottom of this file.
#[test]
fn sim_outcomes_are_identical_with_and_without_batching() {
    for setup in setups() {
        for seed in [7, 21] {
            let (store_off, off) = run_sim(setup, seed, BatchConfig::disabled());
            let (store_on, on) = run_sim(setup, seed, BatchConfig::enabled(16));
            // Field-for-field equality: id, register, kind, value, rounds,
            // fast flag, latency, message and byte counts all match.
            assert_eq!(off, on, "batching changed a sim outcome ({setup:?}, seed {seed})");
            // Checker verdicts agree too (both must pass).
            match setup {
                Setup::Regular(_) => {
                    store_off.check_regularity().unwrap();
                    store_on.check_regularity().unwrap();
                }
                _ => {
                    store_off.check_atomicity().unwrap();
                    store_on.check_atomicity().unwrap();
                }
            }
        }
    }
}

/// A sim run in which batches genuinely form: slow-path W rounds pile up
/// behind a gated link (PW + W2 + W3 on one channel), and releasing the
/// gate with batching enabled ships the backlog as one `Batch` event —
/// verified through the world's delivery trace — while the read still
/// returns the written value and the history stays atomic. Timing
/// differs between the modes (one sampled delay instead of three), so
/// the comparison here is semantic, not field-for-field.
#[test]
fn sim_gated_backlog_releases_as_batches_and_stays_atomic() {
    let params = Params::new(1, 0, 1, 0).unwrap(); // S = 3, quorum 2
    let run = |batch: BatchConfig| {
        let mut store: SimStore = StoreConfig::synchronous(params)
            .with_protocol(ProtocolConfig::slow_only(100))
            .with_seed(5)
            .with_batch(batch)
            .build_sim();
        store.world_mut().enable_trace();
        let slow = ProcessId::Server(ServerId(2));
        store.world_mut().hold(ProcessId::Writer, slow);
        // The slow write completes on the other two servers' quorum,
        // leaving its PW, W2 and W3 stranded on the gated link.
        let w = store.register(RegisterId(0)).write(Value::from_u64(7));
        assert!(!w.fast, "slow-only protocol runs the full W schedule");
        assert_eq!(store.world().held_count(ProcessId::Writer, slow), 3);
        store.world_mut().release(ProcessId::Writer, slow);
        store.run_until_idle(10_000);
        let r = store.register(RegisterId(0)).read(0);
        assert_eq!(r.value.as_u64(), Some(7));
        store.check_atomicity().unwrap();
        let batched_deliveries =
            store.world().trace().iter().filter(|e| e.label == "BATCH").count();
        batched_deliveries
    };
    assert_eq!(run(BatchConfig::disabled()), 0, "disabled: the backlog ships one by one");
    assert!(
        run(BatchConfig::enabled(16)) > 0,
        "enabled: the released backlog travels as a Batch event"
    );
}

// ---------------------------------------------------------------------
// Threaded runtime: identical semantic outcomes, reduced wire traffic.
// ---------------------------------------------------------------------

fn net_cfg() -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 3,
        timer: Duration::from_millis(5),
    }
}

/// `(reg, kind, value)` of one completed operation.
type SemanticOutcome = (RegisterId, OpKind, Option<u64>);

/// Sequential workload (each op completes before the next is submitted),
/// so the value every read returns is determined: the register's last
/// write. Returns the semantic outcome sequence and the router's
/// `(wire messages, parts, batches)` counters.
fn run_net(setup: Setup, batch: BatchConfig) -> (Vec<SemanticOutcome>, u64, u64, u64) {
    let mut store = NetStore::builder(setup, net_cfg())
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(3)
        .batch(batch)
        .build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).unwrap()).collect();
    let mut outcomes = Vec::new();
    for round in 0..ROUNDS {
        for h in &handles {
            let v = value_for(h.id(), round);
            let out = h.write(Value::from_u64(v)).expect("write completes");
            outcomes.push((out.reg, out.kind, out.value.as_u64()));
        }
        for h in &handles {
            for j in 0..READERS_PER_REGISTER as u16 {
                let out = h.read(j).expect("read completes");
                outcomes.push((out.reg, out.kind, out.value.as_u64()));
            }
        }
    }
    match setup {
        Setup::Regular(_) => store.check_regularity().unwrap(),
        _ => store.check_atomicity().unwrap(),
    }
    let stats = store.stats();
    store.shutdown();
    (outcomes, stats.messages, stats.parts, stats.batches_sent)
}

#[test]
fn net_outcomes_are_identical_with_and_without_batching() {
    for setup in setups() {
        let (off, off_msgs, off_parts, off_batches) = run_net(setup, BatchConfig::disabled());
        let (on, on_msgs, on_parts, _) =
            run_net(setup, BatchConfig::enabled(16).with_max_delay_micros(200));
        assert_eq!(off, on, "batching changed a net outcome ({setup:?})");
        // Disabled: the wire traffic is the pre-batching traffic — one
        // protocol message per wire message, no Batch envelope ever.
        assert_eq!(off_msgs, off_parts, "disabled batching must not coalesce ({setup:?})");
        assert_eq!(off_batches, 0, "disabled batching must send no batches ({setup:?})");
        // Enabled: coalescing can only reduce wire messages relative to
        // the protocol messages actually sent. (Exact protocol-message
        // counts are *not* compared across modes: the coalescing delay
        // can legitimately shift an op into an extra round.)
        assert!(on_msgs <= on_parts, "wire messages can never exceed protocol messages");
    }
}

#[test]
fn net_concurrent_workload_batches_reduce_wire_messages() {
    // Concurrent waves across registers: this is where coalescing pays.
    // The hard >= 2x bound is asserted by the CI smoke run
    // (`examples/batching_smoke.rs`); here we assert the direction with a
    // margin that is safe on a loaded CI machine.
    let setup = Setup::Atomic(Params::new(2, 1, 1, 0).unwrap());
    let run = |batch: BatchConfig| {
        let mut store = NetStore::builder(setup, net_cfg())
            .registers(REGISTERS)
            .readers_per_register(READERS_PER_REGISTER)
            .shards(3)
            .batch(batch)
            .build();
        let handles: Vec<_> =
            RegisterId::all(REGISTERS).map(|reg| store.register(reg).unwrap()).collect();
        let mut ops = 0u64;
        for round in 0..ROUNDS {
            let mut tickets = Vec::new();
            for h in &handles {
                tickets.push(h.invoke_write(Value::from_u64(value_for(h.id(), round))));
            }
            for h in &handles {
                for j in 0..READERS_PER_REGISTER as u16 {
                    tickets.push(h.invoke_read(j));
                }
            }
            for t in tickets {
                t.wait().expect("failure-free workload completes");
                ops += 1;
            }
        }
        store.check_atomicity().unwrap();
        let stats = store.stats();
        store.shutdown();
        (stats, ops)
    };
    let (off, off_ops) = run(BatchConfig::disabled());
    let (on, on_ops) = run(BatchConfig::enabled(16).with_max_delay_micros(300));
    assert_eq!(off_ops, on_ops);
    assert!(on.batches_sent > 0, "concurrent workload must actually form batches");
    let off_per_op = off.messages as f64 / off_ops as f64;
    let on_per_op = on.messages as f64 / on_ops as f64;
    assert!(
        on_per_op * 1.5 <= off_per_op,
        "expected >= 1.5x fewer wire messages per op, got {off_per_op:.1} -> {on_per_op:.1}"
    );
}

// ---------------------------------------------------------------------
// Schedule space: batch-delivery interleavings via lucky-explore.
// ---------------------------------------------------------------------

fn walk_budget(full: usize, debug: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        full
    }
}

#[test]
fn random_walks_with_batched_delivery_stay_atomic() {
    // Slow-path writes stack a W-round message behind the PW still in
    // flight to a slow server, so the scheduler's batch-delivery choice
    // has real backlogs to coalesce; two readers race the writes.
    let params = Params::new(1, 1, 0, 0).unwrap();
    let scenario = Scenario::new(params)
        .with_batching(true)
        .write(Value::from_u64(1))
        .write(Value::from_u64(2))
        .reads(0, 1)
        .reads(1, 1);
    let report = random_walks(&scenario, walk_budget(10_000, 1_500), 260, 9);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.completed_runs > 0, "batched schedules still complete the workload");
}

#[test]
fn random_walks_with_batched_delivery_and_byzantine_server_stay_atomic() {
    // The same walks with a split-brain server (the proof adversary of
    // Prop. 2) plus batch-delivery choices: coalescing must not open a
    // new equivocation window.
    let params = Params::new(1, 1, 0, 0).unwrap();
    let scenario = Scenario::new(params)
        .with_batching(true)
        .write(Value::from_u64(1))
        .reads(0, 1)
        .reads(1, 1)
        .byzantine(
            1,
            ByzKind::SplitBrain(vec![
                lucky_atomic::types::ProcessId::Writer,
                lucky_atomic::types::ProcessId::Reader(lucky_atomic::types::ReaderId(0)),
            ]),
        );
    let report = random_walks(&scenario, walk_budget(10_000, 1_500), 260, 10);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.completed_runs > 0);
}
