//! Crash-restart recovery smoke run (also wired into CI).
//!
//! For **all three protocol variants and the ABD baseline**, runs a durable multi-register
//! store through a mid-run server crash + restart on **both runtimes**:
//!
//! * the deterministic simulator ([`SimStore`]), where the restart
//!   schedule is scripted against virtual time;
//! * the threaded runtime over **real loopback TCP** ([`NetStore`]),
//!   where the crash severs the server's socket and the restart
//!   re-binds its listener on a fresh port.
//!
//! Each run forces the recovered server back into every quorum by then
//! crashing `t` *other* servers — with exactly `t` down, an operation
//! needs an ack from every remaining server, so the reads that follow
//! can only be correct if the restarted server replayed its
//! `lucky-log` state (everything it acked before the crash, persisted
//! *before* the ack left the node). Asserts checker-clean histories,
//! correct values, and a nonzero `recoveries` count on every setup.
//!
//! ```sh
//! cargo run --release --example recovery_smoke
//! ```

use lucky_atomic::core::{Setup, StoreConfig};
use lucky_atomic::log::TempDir;
use lucky_atomic::net::{NetConfig, NetStore};
use lucky_atomic::types::{Params, RegisterId, TwoRoundParams, Value};
use std::time::Duration;

const REGISTERS: usize = 2;

/// The three write rounds: before the crash, while the server is down,
/// and after the restart with the recovered server quorum-critical.
fn value(round: u64, reg: RegisterId) -> Value {
    Value::from_u64(round * 100 + reg.0 as u64)
}

fn variants() -> [(&'static str, Setup); 4] {
    [
        ("atomic (§3)", Setup::Atomic(Params::new(2, 1, 1, 0).expect("valid params"))),
        (
            "two-round (App. C)",
            Setup::TwoRound(TwoRoundParams::new(2, 1, 1).expect("valid params")),
        ),
        ("regular (App. D)", Setup::Regular(Params::trading_reads(2, 1).expect("valid params"))),
        ("ABD (baseline)", Setup::Abd { t: 2 }),
    ]
}

fn check(name: &str, setup: Setup, store_check: impl FnOnce() -> bool) {
    assert!(store_check(), "{name} ({setup:?}): history is checker-clean across the restart");
}

/// Scripted crash/restart on the simulator: deterministic, virtual-time.
fn run_sim(name: &str, setup: Setup) -> (u64, u64) {
    let dir = TempDir::new("recovery-smoke-sim");
    let mut store =
        StoreConfig::synchronous(setup).registers(REGISTERS).durable(dir.path()).build_sim();
    let n = store.server_count() as u16;

    for reg in RegisterId::all(REGISTERS) {
        store.register(reg).write(value(1, reg));
    }
    store.crash_server(0);
    for reg in RegisterId::all(REGISTERS) {
        store.register(reg).write(value(2, reg));
    }
    store.restart_server(0); // replays its log: everything it acked in round 1
    store.crash_server(n - 1);
    store.crash_server(n - 2); // t = 2 down: server 0 is now in every quorum
    for reg in RegisterId::all(REGISTERS) {
        store.register(reg).write(value(3, reg));
        let r = store.register(reg).read(0);
        assert_eq!(r.value, value(3, reg), "{name}: read through the recovered server");
    }

    check(name, setup, || match setup {
        Setup::Regular(_) => store.check_regularity().is_ok(),
        _ => store.check_atomicity().is_ok(),
    });
    let (recoveries, log_bytes) = (store.recoveries(), store.log_bytes());
    assert!(recoveries > 0, "{name}: the restarted server replayed at least one log");
    assert!(log_bytes > 0, "{name}: committed state was persisted");
    (recoveries, log_bytes)
}

/// The same schedule over real loopback sockets: the crash severs the
/// server's router sink, the restart re-binds its listener.
fn run_tcp(name: &str, setup: Setup) -> lucky_atomic::net::NetStats {
    let dir = TempDir::new("recovery-smoke-tcp");
    let cfg = NetConfig {
        min_latency: Duration::from_micros(100),
        max_latency: Duration::from_micros(400),
        seed: 11,
        timer: Duration::from_millis(8),
    };
    let mut store = NetStore::builder(setup, cfg).registers(REGISTERS).durable(dir.path()).build();
    let n = setup.server_count() as u16;
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();

    for h in &handles {
        h.write(value(1, h.id())).expect("round-1 write completes");
    }
    store.crash_server(0);
    for h in &handles {
        h.write(value(2, h.id())).expect("write completes with one server down");
    }
    store.restart_server(0);
    store.crash_server(n - 1);
    store.crash_server(n - 2);
    for h in &handles {
        h.write(value(3, h.id())).expect("write through the recovered server");
        let r = h.read(0).expect("read through the recovered server");
        assert_eq!(r.value, value(3, h.id()), "{name}: recovered server serves correct state");
    }

    check(name, setup, || match setup {
        Setup::Regular(_) => store.check_regularity().is_ok(),
        _ => store.check_atomicity().is_ok(),
    });
    let stats = store.stats();
    assert!(stats.recoveries > 0, "{name}: the restarted server replayed at least one log");
    assert!(stats.log_bytes > 0, "{name}: committed state was persisted");
    store.shutdown();
    stats
}

fn main() {
    println!(
        "recovery smoke: {REGISTERS} registers, durable servers, mid-run crash + restart of \
         server 0, then t more crashes so the recovered server is quorum-critical\n"
    );
    for (name, setup) in variants() {
        let (rec, bytes) = run_sim(name, setup);
        println!("{name:<20} sim: {rec} log replays / {bytes} log B");
        let stats = run_tcp(name, setup);
        println!("{name:<20} tcp: {stats}");
    }
    println!("\nall four setups checker-clean across crash-restart on both runtimes");
}
