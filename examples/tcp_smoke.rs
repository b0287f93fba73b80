//! Loopback-TCP smoke run (also wired into CI).
//!
//! Runs a multi-register, batching-enabled workload for **all three
//! protocol variants** over `Transport::Tcp` — real `std::net` sockets
//! between the router and every server/shard-worker slot, every message
//! crossing the wire as a checksummed `lucky-wire` frame — under **both
//! wait strategies** of the shard worker (sleep-polling everywhere, the
//! epoll reactor on Linux), and asserts:
//!
//! * checker-clean outcomes (per-register atomicity, or regularity for
//!   the App. D variant);
//! * genuine multiplexing: all of a round's operations are submitted
//!   before any is waited on, on fewer workers than registers — each
//!   worker accepts the router's socket itself, reassembles frames with
//!   `lucky-wire`'s push-based `FrameDecoder`, and drives its sans-io
//!   `ClientSession`s from whatever bytes arrived;
//! * nonzero, internally consistent wire accounting: actual framed
//!   bytes (`wire_bytes`) strictly exceed the codec-exact payload
//!   accounting (`bytes`) by no more than bounded framing overhead;
//! * zero decode errors and zero drops on an honest run.
//!
//! Then one **high-concurrency burst** on the reactor: hundreds of
//! registers, a write and a read each, every operation submitted through
//! the **futures API** (`write_future` / `read_future` awaited on the
//! crate's std-only executor) before any is awaited, all multiplexed on
//! a single shard worker blocked in `epoll_wait`. It asserts that the
//! burst completes checker-clean, that every completed `OpRecord`
//! attributes nonzero wire messages and bytes, and that the worker
//! really ran on epoll (nonzero wakeup count on Linux; elsewhere it
//! degrades to sleep-polling instead of failing).
//!
//! ```sh
//! cargo run --release --example tcp_smoke
//! ```

use lucky_atomic::core::Setup;
use lucky_atomic::net::exec::run_all;
use lucky_atomic::net::{Driver, NetConfig, NetStats, NetStore, Transport};
use lucky_atomic::types::{BatchConfig, Params, RegisterId, TwoRoundParams, Value};
use std::time::{Duration, Instant};

const REGISTERS: usize = 4;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 5;
const SHARDS: usize = 2;
/// Registers of the futures burst: a write and a read in flight on each,
/// on one reactor thread.
const BURST_REGISTERS: usize = 800;

fn net_cfg() -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(100),
        max_latency: Duration::from_micros(400),
        seed: 7,
        timer: Duration::from_millis(8),
    }
}

fn run(setup: Setup, driver: Driver) -> (NetStats, u64) {
    let mut store = NetStore::builder(setup, net_cfg())
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(SHARDS)
        .batch(BatchConfig::enabled(16).with_max_delay_micros(1_000))
        .transport(Transport::Tcp)
        .driver(driver)
        .build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();

    let mut ops = 0u64;
    for round in 0..ROUNDS {
        // Submit the whole round before waiting on anything: with only
        // SHARDS < REGISTERS workers, completion requires the workers
        // to genuinely multiplex their sessions.
        let mut tickets = Vec::new();
        for h in &handles {
            let v = 1 + h.id().0 as u64 * 1_000 + round;
            tickets.push(h.invoke_write(Value::from_u64(v)));
        }
        for h in &handles {
            for j in 0..READERS_PER_REGISTER as u16 {
                tickets.push(h.invoke_read(j));
            }
        }
        for t in tickets {
            t.wait().expect("operation completes over loopback TCP");
            ops += 1;
        }
    }

    match setup {
        Setup::Regular(_) => store.check_regularity().expect("checker-clean (regular)"),
        _ => store.check_atomicity().expect("checker-clean (atomic)"),
    }
    let stats = store.stats();
    store.shutdown();
    (stats, ops)
}

/// The futures burst: every op of every register in flight at once on
/// one reactor worker.
fn burst() {
    let cfg = NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 17,
        // Generous timer => op deadline far above the burst's drain time.
        timer: Duration::from_millis(40),
    };
    let mut store = NetStore::builder(Params::new(1, 0, 1, 0).expect("valid params"), cfg)
        .registers(BURST_REGISTERS)
        .shards(1)
        .transport(Transport::Tcp)
        .driver(Driver::Reactor)
        .build();
    let handles: Vec<_> = RegisterId::all(BURST_REGISTERS)
        .map(|reg| store.register(reg).expect("fresh handle"))
        .collect();

    // One async task per register: write, then read it back. Every
    // future is built (and its op submitted) before anything is awaited.
    let start = Instant::now();
    let futs: Vec<_> = handles
        .iter()
        .map(|h| {
            let v = 1 + h.id().0 as u64;
            let write = h.write_future(Value::from_u64(v));
            let read = h.read_future(0);
            async move {
                write.await.expect("write completes");
                let out = read.await.expect("read completes");
                (v, out.value.as_u64())
            }
        })
        .collect();
    for (v, read) in run_all(futs) {
        // Write and read overlap, so the read saw the initial value or
        // the new one; the checker below is the real oracle.
        assert!(read.is_none() || read == Some(v), "read {read:?} after writing {v}");
    }
    let elapsed = start.elapsed();

    store.check_atomicity().expect("burst stays linearizable per register");
    let history = store.history();
    assert_eq!(history.ops.len(), 2 * BURST_REGISTERS);
    for rec in &history.ops {
        assert!(rec.msgs > 0 && rec.bytes > 0, "op {:?} attributes real traffic", rec.id);
    }
    let stats = store.stats();
    assert!(stats.wire_bytes > 0, "traffic crossed the sockets");
    assert_eq!(stats.decode_errors, 0, "honest frames all decode");
    assert_eq!(stats.io_errors, 0, "no socket degradation on the happy path");
    if cfg!(target_os = "linux") {
        assert!(stats.reactor_wakeups > 0, "the epoll reactor actually ran");
    }
    store.shutdown();
    println!(
        "\nburst: {} futures in flight on 1 reactor thread, {:.1} ms ({:.0} ops/s): {stats}",
        2 * BURST_REGISTERS,
        elapsed.as_secs_f64() * 1e3,
        (2 * BURST_REGISTERS) as f64 / elapsed.as_secs_f64(),
    );
}

fn main() {
    let setups: [(&str, Setup); 3] = [
        ("atomic (§3)", Setup::Atomic(Params::new(2, 1, 1, 0).expect("valid params"))),
        (
            "two-round (App. C)",
            Setup::TwoRound(TwoRoundParams::new(2, 1, 1).expect("valid params")),
        ),
        ("regular (App. D)", Setup::Regular(Params::trading_reads(2, 1).expect("valid params"))),
    ];
    let drivers: &[Driver] = if cfg!(target_os = "linux") {
        &[Driver::Polled, Driver::Reactor]
    } else {
        &[Driver::Polled]
    };
    println!(
        "tcp smoke: {REGISTERS} registers on {SHARDS} workers x ({ROUNDS} writes + {} reads) \
         over loopback TCP, batching max_msgs=16\n",
        ROUNDS * READERS_PER_REGISTER as u64
    );
    for &driver in drivers {
        for (name, setup) in setups {
            let (stats, ops) = run(setup, driver);
            assert_eq!(ops, ROUNDS * (REGISTERS as u64) * (1 + READERS_PER_REGISTER as u64));

            // The audit the exact `Message::wire_size` enables: actual
            // framed bytes bracket the payload accounting within bounded
            // per-frame + per-part overhead (derived from the lucky-wire
            // frame layout by `NetStats::max_framing_overhead`).
            assert!(stats.wire_bytes > stats.bytes, "{name}: framing adds overhead");
            let overhead_bound = stats.max_framing_overhead();
            assert!(
                stats.wire_bytes <= stats.bytes + overhead_bound,
                "{name}: framed {} vs payload {} exceeds the +{overhead_bound} overhead bound",
                stats.wire_bytes,
                stats.bytes
            );
            assert!(stats.wire_bytes > 0 && stats.bytes > 0, "{name}: nonzero wire traffic");
            assert_eq!(stats.decode_errors, 0, "{name}: honest frames all decode");
            assert_eq!(stats.dropped, 0, "{name}: nothing lost on an honest run");
            assert!(stats.msgs_per_batch() > 1.0, "{name}: batching engaged");

            println!("{:<8}{name:<20} {ops:>5} ops: {stats}", format!("{driver:?}"));
        }
    }
    burst();
    println!(
        "\nall three variants checker-clean over real sockets under every wait strategy; \
         byte audit within bounds; futures burst on epoll with real per-op accounting"
    );
}
