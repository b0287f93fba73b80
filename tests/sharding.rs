//! Sharding invariants: fault isolation between server groups, live
//! migration under concurrent traffic, and fresh state across
//! drop-then-recreate — on both the simulated and the threaded runtime.

use lucky_atomic::core::byz::ForgeValue;
use lucky_atomic::core::StoreConfig;
use lucky_atomic::net::NetConfig;
use lucky_atomic::shard::{GroupId, ShardNetStore, ShardSimStore};
use lucky_atomic::types::{Params, RegisterId, Seq, TsVal, Value};
use std::sync::Arc;
use std::time::Duration;

fn small() -> Params {
    Params::new(1, 0, 1, 0).unwrap() // S = 3, crash-only
}

fn byz_tolerant() -> Params {
    Params::new(2, 1, 1, 0).unwrap() // S = 6, one Byzantine server
}

fn fast_net() -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 11,
        timer: Duration::from_millis(5),
    }
}

/// One register per group, so every group sees traffic.
fn one_reg_per_group(store: &mut ShardSimStore, groups: usize) -> Vec<RegisterId> {
    let mut picked = Vec::new();
    let mut reg = 0u32;
    while picked.len() < groups {
        store.create_register(RegisterId(reg)).ok();
        if picked.iter().all(|r| store.group_of(*r) != store.group_of(RegisterId(reg))) {
            picked.push(RegisterId(reg));
        } else {
            store.drop_register(RegisterId(reg)).unwrap();
        }
        reg += 1;
    }
    picked
}

#[test]
fn faults_in_one_group_leave_the_others_untouched() {
    // Group 1 runs a Byzantine-tolerant quorum and absorbs a crash AND a
    // forged value; groups 0, 2, 3 keep lean crash-only quorums and must
    // stay byte-for-byte correct and fast.
    let cfg =
        StoreConfig::synchronous(small()).registers(8).groups(4).group_setup(1, byz_tolerant());
    let mut store = ShardSimStore::new(cfg);
    let regs = one_reg_per_group(&mut store, 4);

    // Fault load entirely inside group 1.
    let forged = TsVal::new(Seq(1_000), Value::from_u64(666_666));
    store.group_mut(GroupId(1)).install_byzantine(0, Box::new(ForgeValue::new(forged)));
    store.group_mut(GroupId(1)).crash_server(1);

    for (i, reg) in regs.iter().enumerate() {
        store.write(*reg, Value::from_u64(100 + i as u64)).unwrap();
        let r = store.read(*reg, 0).unwrap();
        assert_eq!(
            r.value.as_u64(),
            Some(100 + i as u64),
            "register {reg} (group {}) must read back its own write",
            store.group_of(*reg)
        );
        assert_ne!(r.value.as_u64(), Some(666_666), "the forged value must never escape");
    }
    store.check_atomicity().unwrap();

    // The faulted group's world saw its faults; the others saw zero
    // recoveries and zero extra servers' worth of traffic.
    for g in [0u16, 2, 3] {
        assert_eq!(
            store.group(GroupId(g)).history().ops.len(),
            2,
            "group {g} must have served exactly its own two ops"
        );
    }
}

#[test]
fn migration_mid_write_is_checker_clean_sim() {
    let cfg =
        StoreConfig::synchronous(small()).registers(16).groups(3).group_setup(2, byz_tolerant());
    let mut store = ShardSimStore::new(cfg);
    store.bulk_create(8).unwrap();

    let reg = RegisterId(5);
    store.write(reg, Value::from_u64(1)).unwrap();
    // A write is in flight when the migration starts: the drain phase
    // must wait it out, and the transfer must carry ITS value.
    store.invoke_write(reg, Value::from_u64(2)).unwrap();
    let from = store.group_of(reg);
    let to = GroupId((from.0 + 1) % 3);
    let report = store.migrate(reg, to).unwrap();
    assert_eq!(report.drained, 1, "the in-flight write must be drained");
    assert_eq!(report.carried.as_u64(), Some(2), "the drained write is the state that moves");
    assert_eq!(store.group_of(reg), to);

    // Post-migration traffic lands on the destination group.
    store.write(reg, Value::from_u64(3)).unwrap();
    assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(3));
    store.check_atomicity().unwrap();
}

#[test]
fn migration_under_live_traffic_is_checker_clean_net() {
    let cfg = StoreConfig::synchronous(small()).registers(16).groups(2);
    let store = Arc::new(ShardNetStore::builder(cfg, fast_net()).build());
    store.bulk_create(8).unwrap();

    let reg = RegisterId(3);
    let from = store.group_of(reg);
    let to = GroupId((from.0 + 1) % 2);

    // A writer hammers the register from another thread while the main
    // thread migrates it. Every op must either complete normally or land
    // on the destination group — none may be lost or reordered.
    let writer = {
        let store = store.clone();
        std::thread::spawn(move || {
            let mut done = 0u64;
            for i in 1..=40u64 {
                store.write(reg, Value::from_u64(i)).unwrap();
                done = i;
            }
            done
        })
    };
    // Let some writes land, then migrate mid-traffic.
    std::thread::sleep(Duration::from_millis(5));
    let report = store.migrate(reg, to).unwrap();
    let last = writer.join().unwrap();
    assert_eq!(last, 40);
    assert_eq!(store.group_of(reg), to);
    assert!(report.carried.as_u64().is_some(), "some prefix of writes crossed");

    // The final read sees the last write, through the new group.
    assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(40));
    store.check_atomicity().unwrap();
    let stats = store.stats();
    assert!(stats.per_group.len() == 2, "rollup must report both groups");
    assert!(
        stats.per_group[&to].ops > 0,
        "the destination group must have served post-migration ops"
    );
    store.shutdown();
}

#[test]
fn drop_then_recreate_yields_fresh_state() {
    // Sim runtime.
    let cfg = StoreConfig::synchronous(small()).registers(8).groups(2);
    let mut store = ShardSimStore::new(cfg.clone());
    let reg = RegisterId(0);
    store.create_register(reg).unwrap();
    store.write(reg, Value::from_u64(77)).unwrap();
    let old_binding = store.namespace().binding(reg).unwrap();
    store.drop_register(reg).unwrap();
    store.create_register(reg).unwrap();
    let r = store.read(reg, 0).unwrap();
    assert!(r.value.is_bot(), "a recreated register must start from ⊥, got {:?}", r.value);
    let new_binding = store.namespace().binding(reg).unwrap();
    assert_ne!(old_binding.backing, new_binding.backing, "backing slots are never reused");
    store.check_atomicity().unwrap();

    // Threaded runtime.
    let store = ShardNetStore::builder(cfg, fast_net()).build();
    store.create_register(reg).unwrap();
    store.write(reg, Value::from_u64(88)).unwrap();
    store.drop_register(reg).unwrap();
    store.create_register(reg).unwrap();
    let r = store.read(reg, 0).unwrap();
    assert!(r.value.is_bot(), "net: a recreated register must start from ⊥, got {:?}", r.value);
    store.check_atomicity().unwrap();
    store.shutdown();
}
