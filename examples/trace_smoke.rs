//! Tracing smoke run (also wired into CI): the luck-o-meter end to end.
//!
//! Three phases over the threaded TCP store, tracing enabled:
//!
//! 1. **Quiet run** — synchrony, no contention: asserts the fast path
//!    dominates (>90% lucky reads) and prints the trace rollup;
//! 2. **Forced fallback** — the fast-path predicates are disabled
//!    (`ProtocolConfig::slow_only`), the deterministic stand-in for the
//!    delay/contention regimes that organically push ops onto the slow
//!    path: asserts a nonzero slow-path count;
//! 3. **Forced timeout** — two of three servers crashed, no quorum can
//!    form: the op fails at its deadline and the flight recorder dumps
//!    the op's span events automatically. The dump is printed — the
//!    post-mortem you get for free when an op times out in production.
//!
//! ```sh
//! cargo run --release --example trace_smoke
//! ```

use lucky_atomic::net::{NetConfig, NetError, NetStore};
use lucky_atomic::trace::TraceConfig;
use lucky_atomic::types::{Params, RegisterId, Value};
use std::time::Duration;

fn cfg(latency: (u64, u64), timer_millis: u64) -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(latency.0),
        max_latency: Duration::from_micros(latency.1),
        seed: 3,
        timer: Duration::from_millis(timer_millis),
    }
}

fn quiet_run() {
    let params = Params::new(1, 0, 1, 0).expect("valid params");
    // Latency well inside the 10ms timer: the fast path governs.
    let mut store =
        NetStore::builder(params, cfg((50, 300), 10)).trace(TraceConfig::enabled()).build();
    let h = store.register(RegisterId(0)).expect("fresh handle");
    h.write(Value::from_u64(1)).expect("write completes");
    for _ in 0..20 {
        h.read(0).expect("read completes");
    }
    let report = store.trace();
    assert!(report.fast_reads > 0, "a quiet run has lucky reads");
    assert!(
        report.lucky_read_ratio() > 0.90,
        "synchrony without contention keeps >90% of reads lucky, got {:.1}%",
        100.0 * report.lucky_read_ratio()
    );
    assert_eq!(report.timeouts, 0, "nothing timed out on the quiet run");
    println!("--- phase 1: quiet run (fast path governs) ---\n{report}");
    drop(h);
    store.shutdown();
}

fn fallback_run() {
    let params = Params::new(1, 0, 1, 0).expect("valid params");
    // Over loopback an injected delay alone does not break luck — the
    // session still settles round 1 once quorum acks arrive, however
    // late — so force the fallback deterministically: `slow_only`
    // disables the fast-path predicates and every op pays the
    // multi-round slow path (atomicity is never at risk, only latency).
    let mut store = NetStore::builder(params, cfg((2_000, 4_000), 1))
        .protocol(lucky_atomic::core::ProtocolConfig::slow_only(100))
        .trace(TraceConfig::enabled())
        .build();
    let h = store.register(RegisterId(0)).expect("fresh handle");
    h.write(Value::from_u64(2)).expect("write completes");
    for _ in 0..5 {
        h.read(0).expect("read completes");
    }
    let report = store.trace();
    assert!(report.slow_ops() > 0, "the disabled fast path shows up as slow ops");
    assert_eq!(report.fast_reads, 0, "no read is lucky with the predicate off");
    println!("--- phase 2: forced fallback (slow path absorbs every op) ---\n{report}");
    drop(h);
    store.shutdown();
}

fn timeout_dump() {
    let params = Params::new(1, 0, 1, 0).expect("valid params");
    // S = 3 and quorums need 2: with two servers crashed the write can
    // never complete, and fails at its deadline (max(200×timer, 1s)).
    let mut store = NetStore::builder(params, cfg((50, 300), 5))
        .crashed(1)
        .crashed(2)
        .trace(TraceConfig::enabled())
        .build();
    let h = store.register(RegisterId(0)).expect("fresh handle");
    let err = h.write(Value::from_u64(3)).expect_err("no quorum can form");
    assert_eq!(err, NetError::TimedOut);
    let report = store.trace();
    assert_eq!(report.timeouts, 1);
    let dump = report.last_dump.as_deref().expect("the failure dumped the flight recorder");
    assert!(dump.contains("invoke WRITE"), "dump replays the op's span");
    println!("--- phase 3: forced timeout (automatic flight-recorder dump) ---\n{dump}");
    drop(h);
    store.shutdown();
}

fn main() {
    println!(
        "trace smoke: per-op spans, latency histograms and the luck-o-meter \
         over loopback TCP\n"
    );
    quiet_run();
    fallback_run();
    timeout_dump();
    println!("\ntrace smoke clean: lucky ops counted, fallback counted, timeout dumped");
}
