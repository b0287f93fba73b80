//! Sharding scale + live-migration smoke run (also wired into CI).
//!
//! Phase 1 (sim): four server groups with *different* quorum shapes —
//! group 3 tolerates a Byzantine server (S = 6), the rest run lean
//! crash-only quorums (S = 3) — exercise a migration mid-write and a
//! seed-driven differential walk (migrating store vs never-migrating
//! twin on the same schedule), checker-clean.
//!
//! Phase 2 (TCP, polled driver): **one million** registers are created
//! across the four groups in O(1) memory — the namespace is lazy, so
//! nothing materializes until touched — then a sample of them serves
//! real traffic over loopback TCP, one register live-migrates between
//! groups mid-traffic, and the per-group `NetStats` rollup prints the
//! breakdown. The atomicity checker partitions per group and per
//! backing register and must come back clean.
//!
//! ```sh
//! cargo run --release --example shard_smoke
//! ```

use lucky_atomic::core::StoreConfig;
use lucky_atomic::net::{Driver, NetConfig};
use lucky_atomic::shard::{differential_migration_walk, GroupId, ShardNetStore, ShardSimStore};
use lucky_atomic::types::{Params, RegisterId, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUPS: usize = 4;
const NAMESPACE: u32 = 1_000_000;
const SAMPLE: u32 = 24;

fn small() -> Params {
    Params::new(1, 0, 1, 0).expect("valid params") // S = 3
}

fn byz_tolerant() -> Params {
    Params::new(2, 1, 1, 0).expect("valid params") // S = 6
}

fn cfg() -> StoreConfig {
    StoreConfig::synchronous(small())
        .registers(64) // per-group materialize quota
        .groups(GROUPS)
        .group_setup(3, byz_tolerant())
        .with_trace(lucky_atomic::trace::TraceConfig::enabled())
}

fn net_cfg() -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 13,
        timer: Duration::from_millis(5),
    }
}

fn sim_phase() {
    println!("== sim: mixed quorum shapes + migration mid-write ==");
    let mut store = ShardSimStore::new(cfg());
    store.bulk_create(1_000).unwrap();
    for g in 0..GROUPS as u16 {
        println!("  {}: S = {} servers", GroupId(g), store.group(GroupId(g)).server_count());
    }

    let reg = RegisterId(42);
    store.write(reg, Value::from_u64(1)).unwrap();
    store.invoke_write(reg, Value::from_u64(2)).unwrap(); // in flight...
    let from = store.group_of(reg);
    let to = GroupId((from.0 + 1) % GROUPS as u16);
    let report = store.migrate(reg, to).unwrap(); // ...drained here
    println!("  {report}");
    assert_eq!(report.drained, 1);
    assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(2));
    store.check_atomicity().unwrap();
    println!("  atomicity: clean across {GROUPS} groups");

    let walk = differential_migration_walk(cfg(), 0xC0FFEE, 80);
    println!(
        "  differential walk: {} ops, {} migrations, {} reads all matching the \
         never-migrating twin",
        walk.ops,
        walk.migrations,
        walk.reads.len()
    );
}

fn net_phase() {
    println!("== tcp/polled: 1M-register namespace + live migration ==");
    let built = Instant::now();
    let store = Arc::new(
        ShardNetStore::builder(cfg(), net_cfg())
            .driver(Driver::Polled)
            .register_quota(NAMESPACE as usize + 8)
            .build(),
    );
    store.bulk_create(NAMESPACE).unwrap();
    println!(
        "  created {NAMESPACE} registers across {GROUPS} groups in {:?} \
         ({} materialized)",
        built.elapsed(),
        store.materialized()
    );
    assert_eq!(store.len(), NAMESPACE as usize);
    assert_eq!(store.materialized(), 0, "creation must stay lazy");

    // Traffic on a spread-out sample: registers hash across all groups.
    let stride = NAMESPACE / SAMPLE;
    let sample: Vec<RegisterId> = (0..SAMPLE).map(|i| RegisterId(i * stride)).collect();
    let t0 = Instant::now();
    for (i, reg) in sample.iter().enumerate() {
        store.write(*reg, Value::from_u64(1_000 + i as u64)).unwrap();
        let r = store.read(*reg, 0).unwrap();
        assert_eq!(r.value.as_u64(), Some(1_000 + i as u64));
    }
    println!(
        "  {} ops over TCP in {:?} ({} registers materialized)",
        sample.len() * 2,
        t0.elapsed(),
        store.materialized()
    );

    // Live migration under concurrent writes.
    let reg = sample[0];
    let to = GroupId((store.group_of(reg).0 + 1) % GROUPS as u16);
    let writer = {
        let store = store.clone();
        std::thread::spawn(move || {
            for i in 1..=20u64 {
                store.write(reg, Value::from_u64(i)).unwrap();
            }
        })
    };
    std::thread::sleep(Duration::from_millis(3));
    let report = store.migrate(reg, to).unwrap();
    writer.join().unwrap();
    println!("  {report}");
    assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(20));

    store.check_atomicity().unwrap();
    println!("  atomicity: clean across {GROUPS} groups");
    println!("  rollup:{}", store.stats());
    store.shutdown();
}

fn main() {
    sim_phase();
    net_phase();
    println!("shard smoke: OK");
}
