//! Epoll-reactor TCP smoke run (also wired into CI).
//!
//! Runs a high-concurrency workload over `Transport::Tcp` with the
//! **reactor driver**: each shard worker blocks in `epoll_wait` on its
//! listener, accepted connections and an eventfd job-wake, with session
//! timers folded into the epoll timeout — no sleep-capped polling. The
//! client side uses the **futures API** (`write_future` / `read_future`
//! awaited on the crate's std-only executor), so one caller thread holds
//! every operation in flight at once. Asserts:
//!
//! * a large burst (hundreds of registers, write + read each, all
//!   submitted before any is awaited) completes on a single reactor
//!   thread, checker-clean;
//! * per-op accounting is real: every completed `OpRecord` attributes
//!   nonzero wire messages and bytes;
//! * the reactor actually runs on epoll (nonzero wakeup count on Linux)
//!   and degrades to sleep-polling elsewhere instead of failing.
//!
//! ```sh
//! cargo run --release --example reactor_smoke
//! ```

use lucky_atomic::net::exec::run_all;
use lucky_atomic::net::{Driver, NetConfig, NetStore, Transport};
use lucky_atomic::types::{Params, RegisterId, Value};
use std::time::{Duration, Instant};

const REGISTERS: usize = 800;
const SHARDS: usize = 1;

fn main() {
    let params = Params::new(1, 0, 1, 0).expect("valid params");
    let cfg = NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 17,
        // Generous timer => op deadline far above the burst's drain time.
        timer: Duration::from_millis(40),
    };
    let mut store = NetStore::builder(params, cfg)
        .registers(REGISTERS)
        .shards(SHARDS)
        .transport(Transport::Tcp)
        .driver(Driver::Reactor)
        .build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();

    println!(
        "reactor smoke: {REGISTERS} registers x (write + read) = {} ops in flight \
         on {SHARDS} reactor thread(s), futures API over loopback TCP\n",
        2 * REGISTERS
    );

    // One async task per register: write, then read it back. Every
    // future is built (and its write submitted) before anything is
    // awaited, so the whole burst is in flight at once.
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
    assert_eq!(history.ops.len(), 2 * REGISTERS);
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
        "{} ops in {:.1} ms ({:.0} ops/s): {stats}",
        2 * REGISTERS,
        elapsed.as_secs_f64() * 1e3,
        (2 * REGISTERS) as f64 / elapsed.as_secs_f64(),
    );
    println!("\nreactor checker-clean: futures burst on epoll, real per-op accounting");
}
