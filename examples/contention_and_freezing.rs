//! Contention and the freezing mechanism.
//!
//! Two demonstrations on the simulator:
//!
//! 1. **Contention un-lucks reads**: a read overlapping a write loses its
//!    fast path but atomicity is preserved.
//! 2. **Freezing guarantees reader wait-freedom** (Theorem 2): a reader
//!    facing an endless write storm still terminates, because the writer
//!    freezes a value for it; with freezing disabled (ablation) the same
//!    read starves until the storm ends.
//!
//! Run with: `cargo run --example contention_and_freezing`

use lucky_atomic::core::{ProtocolConfig, StoreConfig};
use lucky_atomic::types::{Params, ReaderId, RegisterId, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(2, 1, 1, 0)?;

    // --- 1. Contention -------------------------------------------------
    let mut store = StoreConfig::synchronous(params).build_sim();
    store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    // Writer and reader overlap: the read is under contention -> unlucky.
    let w = store.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(2));
    let r = store.register(RegisterId::DEFAULT).invoke_read(0);
    store.run_until_complete(w)?;
    let read = store.run_until_complete(r)?;
    println!("contended READ returned {}: rounds={} fast={}", read.value, read.rounds, read.fast);
    store.check_atomicity()?;
    println!("atomicity holds under contention ✓\n");

    // --- 2. Freezing vs. starvation ------------------------------------
    //
    // The adversarial pattern behind Theorem 2's case (b): the reader's
    // READ messages reach each server at a different time (staggered
    // link delays), so each round samples the servers at *different write
    // epochs* — more than one write apart. Under a continuous write storm
    // no pair then ever reaches b+1 matching copies in a round's view,
    // and the only way the reader can terminate is the freezing
    // hand-shake. Disabling freezing (ablation) starves it.
    for freezing in [true, false] {
        let protocol = ProtocolConfig {
            freezing,
            max_read_rounds: Some(25),
            ..ProtocolConfig::for_sync_bound(100)
        };
        let mut cfg = StoreConfig::synchronous(params).with_protocol(protocol);
        // Stagger the reader -> server links by ~2.5 write periods each,
        // so no two sampled server states are ever from the same or
        // adjacent write epochs.
        use lucky_atomic::sim::Delay;
        use lucky_atomic::types::{ProcessId, ServerId};
        for i in 0..params.server_count() as u16 {
            cfg.net.set_link(
                ProcessId::Reader(ReaderId(0)),
                ProcessId::Server(ServerId(i)),
                Delay::Constant(100 + 1_300 * i as u64),
            );
        }
        let mut store = cfg.build_sim();
        // Crash two servers (the full crash budget t = 2): the read
        // quorum is now exactly the four staggered servers, so every
        // round's view mixes four non-adjacent epochs.
        store.crash_server(4);
        store.crash_server(5);

        // Closed-loop write storm concurrent with one read.
        let start = store.now() + 2_000;
        let read_op = store.register(RegisterId::DEFAULT).invoke_read_at(start, 0);
        let mut i = 0u64;
        while !store.is_complete(read_op) && i < 400 {
            i += 1;
            store.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        }
        store.run_until_idle(5_000_000);

        let rec = store.history().get(read_op).expect("read record").clone();
        if freezing {
            assert!(rec.is_complete(), "freezing must let the reader finish");
            println!(
                "freezing ON : READ completed in {} rounds after {} concurrent \
                 writes (value {}) — Theorem 2 ✓",
                rec.rounds,
                i,
                rec.result.clone().unwrap()
            );
            store.check_atomicity()?;
        } else {
            assert!(!rec.is_complete(), "ablation: the reader should starve");
            println!(
                "freezing OFF: READ starved: capped at 25 rounds under the storm ({} writes) — \
                 the mechanism is load-bearing ✓",
                i
            );
        }
    }
    Ok(())
}
