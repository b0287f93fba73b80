//! Register isolation: interleaved operations on `N` independent
//! registers of one store yield `N` independently linearizable histories.
//!
//! The property is checked on both runtimes (the deterministic `SimStore`
//! and the threaded `NetStore`), in all three protocol variants (atomic
//! §3, two-round App. C, regular App. D), and under the nastiest
//! tolerated fault mix: one crashed server plus one Byzantine server
//! forging the same fabricated pair into *every* register.
//!
//! "Independently linearizable" is decided by `lucky-checker`: the store
//! history is partitioned per register and each partition must satisfy
//! the per-register correctness conditions (atomicity, or regularity for
//! the App. D variant). Cross-register leaks surface as per-register
//! phantom values; ordering bugs as stale reads or new/old inversions.
//! On top of the oracle, the test asserts the read-domain property
//! directly: every read of register `x` returns `⊥` or a value written
//! to `x`.

use lucky_atomic::core::byz::{ForgeValue, MangleBatch};
use lucky_atomic::core::runtime::{RegisterMux, ServerCore};
use lucky_atomic::core::{OpOutcome, Setup, SimStore, StoreConfig};
use lucky_atomic::net::{NetConfig, NetStore};
use lucky_atomic::types::{
    BatchConfig, OpKind, Params, RegisterId, Seq, TsVal, TwoRoundParams, Value,
};
use std::collections::BTreeMap;
use std::time::Duration;

const REGISTERS: usize = 8;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 4;

/// Unique per-register value stream: register `x`'s round-`k` write.
fn value_for(reg: RegisterId, round: u64) -> u64 {
    1 + reg.0 as u64 * 1_000 + round
}

/// The forged pair the Byzantine server plants in every register.
fn forged_pair() -> TsVal {
    TsVal::new(Seq(5_000), Value::from_u64(666_666))
}

/// The three variant setups under test, with `t = 2, b = 1` resilience so
/// one crash plus one Byzantine server is within the fault budget.
fn setups() -> Vec<Setup> {
    vec![
        Setup::Atomic(Params::new(2, 1, 1, 0).unwrap()),
        Setup::TwoRound(TwoRoundParams::new(2, 1, 1).unwrap()),
        Setup::Regular(Params::trading_reads(2, 1).unwrap()),
    ]
}

/// Assert the read-domain property over a batch of outcomes: reads return
/// `⊥` or a value previously written to *their own* register.
fn assert_read_domain(outcomes: &[OpOutcome], written: &BTreeMap<RegisterId, Vec<u64>>) {
    for out in outcomes {
        if out.kind != OpKind::Read || out.value.is_bot() {
            continue;
        }
        let v = out.value.as_u64().expect("test values are u64");
        assert!(
            written[&out.reg].contains(&v),
            "register {} read {v}, which was never written there",
            out.reg
        );
    }
}

/// Which Byzantine behaviour the fault mix installs at server 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Adversary {
    /// Forges the same fabricated pair into every register.
    Forge,
    /// Honest state, mangled reply batches: replays, reorders and mixes
    /// registers inside one `Batch` envelope (the batching-layer
    /// adversary — only meaningful with batching enabled).
    Mangle,
}

impl Adversary {
    fn build(self, setup: Setup) -> Box<dyn ServerCore> {
        match self {
            Adversary::Forge => Box::new(ForgeValue::new(forged_pair())),
            Adversary::Mangle => Box::new(MangleBatch::new(RegisterMux::new(setup))),
        }
    }
}

fn run_sim_store(setup: Setup, seed: u64) {
    run_sim_store_with(setup, seed, BatchConfig::disabled(), Adversary::Forge);
}

fn run_sim_store_with(setup: Setup, seed: u64, batch: BatchConfig, adversary: Adversary) {
    let mut store: SimStore = StoreConfig::synchronous(setup)
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .with_seed(seed)
        .with_batch(batch)
        .build_sim();

    // Fault mix: one crashed server, one Byzantine server. Both answer
    // (or fail to answer) every register of the namespace.
    store.crash_server(0);
    store.install_byzantine(1, adversary.build(setup));

    let mut written: BTreeMap<RegisterId, Vec<u64>> = BTreeMap::new();
    let mut outcomes = Vec::new();
    for round in 0..ROUNDS {
        // Interleave: every register's write and reads are invoked before
        // anything completes, so operations on different registers are
        // genuinely concurrent in virtual time.
        let mut ops = Vec::new();
        for reg in RegisterId::all(REGISTERS) {
            let v = value_for(reg, round);
            written.entry(reg).or_default().push(v);
            ops.push(store.register(reg).invoke_write(Value::from_u64(v)));
        }
        for reg in RegisterId::all(REGISTERS) {
            for j in 0..READERS_PER_REGISTER as u16 {
                ops.push(store.register(reg).invoke_read(j));
            }
        }
        store.run_until_all_complete(&ops).expect("ops complete within the fault budget");
        outcomes.extend(ops.iter().map(|&op| store.outcome(op)));
    }

    assert_read_domain(&outcomes, &written);
    // The oracle: N independently linearizable (or regular) histories.
    let history = store.history();
    assert_eq!(history.registers().len(), REGISTERS, "every register saw traffic");
    match setup {
        Setup::Regular(_) => store.check_regularity().unwrap(),
        _ => store.check_atomicity().unwrap(),
    }
    // Each partition is non-trivial.
    for (reg, part) in history.partition_by_register() {
        assert_eq!(
            part.ops.len() as u64,
            ROUNDS * (1 + READERS_PER_REGISTER as u64),
            "register {reg} history size"
        );
    }
}

#[test]
fn sim_store_registers_are_independently_linearizable() {
    for setup in setups() {
        for seed in [7, 21] {
            run_sim_store(setup, seed);
        }
    }
}

/// The batching-layer adversary (`ByzKind::MangleBatch` in the explorer's
/// catalogue): a Byzantine server that replays stale acks, duplicates and
/// reorders fresh ones, and mixes registers inside one `Batch` envelope.
/// With batching enabled store-wide, every register must stay
/// independently linearizable (or regular) and the non-target registers
/// must keep completing operations.
#[test]
fn sim_store_survives_batch_mangling_byzantine_server() {
    for setup in setups() {
        for seed in [7, 21] {
            run_sim_store_with(setup, seed, BatchConfig::enabled(16), Adversary::Mangle);
        }
    }
}

fn run_net_store(setup: Setup) {
    run_net_store_with(setup, BatchConfig::disabled(), Adversary::Forge);
}

fn run_net_store_with(setup: Setup, batch: BatchConfig, adversary: Adversary) {
    let cfg = NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 3,
        timer: Duration::from_millis(5),
    };
    let mut store = NetStore::builder(setup, cfg)
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(4)
        .batch(batch)
        .crashed(0)
        .byzantine(1, adversary.build(setup))
        .build();

    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).unwrap()).collect();

    let mut written: BTreeMap<RegisterId, Vec<u64>> = BTreeMap::new();
    for round in 0..ROUNDS {
        // Interleave across registers: submit every write, then every
        // read, and only then wait — registers on different shard workers
        // run concurrently over the shared router and server cluster.
        let mut tickets = Vec::new();
        for h in &handles {
            let v = value_for(h.id(), round);
            written.entry(h.id()).or_default().push(v);
            tickets.push(h.invoke_write(Value::from_u64(v)));
        }
        for h in &handles {
            for j in 0..READERS_PER_REGISTER as u16 {
                tickets.push(h.invoke_read(j));
            }
        }
        for t in tickets {
            let out = t.wait().expect("ops complete within the fault budget");
            if out.kind == OpKind::Read && !out.value.is_bot() {
                let v = out.value.as_u64().unwrap();
                assert!(
                    written[&out.reg].contains(&v),
                    "register {} read {v}, which was never written there",
                    out.reg
                );
            }
        }
    }

    let history = store.history();
    assert_eq!(history.registers().len(), REGISTERS, "every register saw traffic");
    match setup {
        Setup::Regular(_) => store.check_regularity().unwrap(),
        _ => store.check_atomicity().unwrap(),
    }
    // Per-register traffic really flowed through the shared router.
    let stats = store.stats();
    for reg in RegisterId::all(REGISTERS) {
        assert!(stats.register(reg).messages > 0, "register {reg} routed no messages");
    }
    store.shutdown();
}

#[test]
fn net_store_registers_are_independently_linearizable() {
    for setup in setups() {
        run_net_store(setup);
    }
}

/// The threaded runtime under the same batch-mangling adversary, with
/// router coalescing and server ack re-batching enabled: per-register
/// linearizability holds and no register stalls.
#[test]
fn net_store_survives_batch_mangling_byzantine_server() {
    for setup in setups() {
        run_net_store_with(
            setup,
            BatchConfig::enabled(16).with_max_delay_micros(200),
            Adversary::Mangle,
        );
    }
}
