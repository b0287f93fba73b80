//! What a store costs in threads, and what it costs to leave one idle.
//!
//! In the paper's model (§2.1) a server is one process that receives a
//! message and replies; a store of S servers, one router and one shard
//! worker is therefore S + 2 threads — a server reads its own socket, as
//! a worker does. This file is a single test so that nothing else shares
//! the process: every `lucky-store-*` thread in `/proc/self/task`
//! belongs to the store under test.
#![cfg(target_os = "linux")]

use lucky_atomic::net::{NetConfig, NetStore};
use lucky_atomic::types::{Params, RegisterId, Value};
use std::time::{Duration, Instant};

/// The task ids of this process's live `lucky-store-*` threads.
fn store_threads() -> Vec<String> {
    let mut tids = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let tid = task.expect("task entry").file_name().into_string().expect("numeric tid");
        // A thread may exit between the listing and the read.
        let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"));
        if comm.is_ok_and(|name| name.starts_with("lucky-store-")) {
            tids.push(tid);
        }
    }
    tids
}

/// Times those threads gave up the CPU of their own accord — every
/// blocking call that actually blocked, so every wakeup since.
fn voluntary_switches(tids: &[String]) -> u64 {
    tids.iter()
        .map(|tid| {
            let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
                .expect("a store thread outlives the idle window");
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("status reports voluntary_ctxt_switches");
            line.trim().parse::<u64>().expect("a count")
        })
        .sum()
}

#[test]
fn a_store_is_s_plus_two_threads_and_an_idle_one_sleeps() {
    assert!(store_threads().is_empty(), "no store yet");
    let cfg = NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 3,
        timer: Duration::from_millis(5),
    };
    // S = 2t + b + 1 = 3 servers, one register, so one shard worker —
    // built with no options, so on whatever the store picks by itself.
    let mut store = NetStore::builder(Params::new(1, 0, 1, 0).unwrap(), cfg).build();
    let h = store.register(RegisterId(0)).unwrap();
    // An op round-trips through every thread: all are up and named.
    h.write(Value::from_u64(1)).unwrap();
    assert_eq!(h.read(0).unwrap().value.as_u64(), Some(1));
    assert_eq!(store_threads().len(), 5, "3 servers + 1 router + 1 worker, nothing in between");
    // A restart replaces a server's socket, not its thread, and leaves
    // nothing of the old socket behind.
    store.crash_server(2);
    store.restart_server(2);
    for i in 2..=3 {
        h.write(Value::from_u64(i)).unwrap();
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(i));
    }
    assert_eq!(store_threads().len(), 5, "still 5 after a crash + restart");

    // Idle, every thread sleeps in the kernel until there is something
    // to do: no control-channel poll, no read timeout, no tick.
    // Let the tail (acks beyond the quorum) cross the sockets first.
    std::thread::sleep(Duration::from_millis(100));
    let tids = store_threads();
    assert_eq!(tids.len(), 5);
    let before = voluntary_switches(&tids);
    std::thread::sleep(Duration::from_millis(300));
    let woke = voluntary_switches(&tids) - before;
    assert!(woke < 10, "an idle store's threads woke {woke} times in 300 ms");
    // And it is not dead: the next operation completes normally.
    assert_eq!(h.read(0).unwrap().value.as_u64(), Some(3));
    store.check_atomicity().unwrap();

    store.shutdown();
    drop(h);
    drop(store);
    let deadline = Instant::now() + Duration::from_secs(1);
    while !store_threads().is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} store threads still alive 1 s after shutdown",
            store_threads().len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
