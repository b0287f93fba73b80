//! Quickstart: a robust atomic register with fast lucky operations.
//!
//! Deploys the paper's main algorithm (t = 2 failures, b = 1 Byzantine,
//! S = 2t + b + 1 = 6 servers) on the deterministic simulator, then walks
//! through the headline behaviours: one-round lucky operations, graceful
//! degradation under crashes, and the atomicity check.
//!
//! Run with: `cargo run --example quickstart`

use lucky_atomic::core::StoreConfig;
use lucky_atomic::types::{Params, RegisterId, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // fw + fr = t - b = 1: here fast writes survive one failure (fw = 1)
    // and fast reads are guaranteed only failure-free (fr = 0).
    let params = Params::new(2, 1, 1, 0)?;
    println!("deploying lucky atomic storage: {params}");

    let mut store = StoreConfig::synchronous(params).readers_per_register(2).build_sim();

    // A lucky write: synchronous network, no failures -> one round-trip.
    let w = store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    println!(
        "WRITE(v1): rounds={} fast={} latency={}µs msgs={}",
        w.rounds, w.fast, w.latency, w.msgs
    );
    assert!(w.fast);

    // A lucky read: one round-trip, no write-back.
    let r = store.register(RegisterId::DEFAULT).read(0);
    println!("READ() = {}: rounds={} fast={} latency={}µs", r.value, r.rounds, r.fast, r.latency);
    assert!(r.fast);
    assert_eq!(r.value.as_u64(), Some(1));

    // One crash is within fw: writes stay fast.
    store.crash_server(5);
    let w = store.register(RegisterId::DEFAULT).write(Value::from_u64(2));
    println!("WRITE(v2) with 1 crash: rounds={} fast={}", w.rounds, w.fast);
    assert!(w.fast);

    // A second crash exceeds fw: the write falls back to the slow path
    // (PW + two W rounds) but still completes — wait-freedom.
    store.crash_server(4);
    let w = store.register(RegisterId::DEFAULT).write(Value::from_u64(3));
    println!("WRITE(v3) with 2 crashes: rounds={} fast={}", w.rounds, w.fast);
    assert!(!w.fast);
    assert_eq!(w.rounds, 3);

    // Reads stay correct too. (They may even still be fast here: the slow
    // write's third round installed `vw` at every live server, so the
    // `fastvw` predicate holds — fr bounds the guarantee, not the luck.)
    let r = store.register(RegisterId::DEFAULT).read(1);
    println!("READ() with 2 crashes = {}: rounds={} fast={}", r.value, r.rounds, r.fast);
    assert_eq!(r.value.as_u64(), Some(3));

    // The whole history satisfies the four atomicity conditions of §2.2.
    store.check_atomicity()?;
    println!("history of {} operations is atomic ✓", store.history().ops.len());
    Ok(())
}
