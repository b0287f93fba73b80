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
//! ```sh
//! cargo run --release --example tcp_smoke
//! ```

use lucky_atomic::core::Setup;
use lucky_atomic::net::{Driver, NetConfig, NetStats, NetStore, Transport};
use lucky_atomic::types::{BatchConfig, Params, RegisterId, TwoRoundParams, Value};
use std::time::Duration;

const REGISTERS: usize = 4;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 5;
const SHARDS: usize = 2;

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
    println!(
        "\nall three variants checker-clean over real sockets under every wait strategy; \
         byte audit within bounds"
    );
}
