//! A replicated configuration store on the threaded runtime.
//!
//! The scenario the paper's introduction motivates: a control plane where
//! one operator (the writer) publishes configuration revisions and many
//! consumers (readers) poll them. Runs on `lucky-net` — real threads,
//! real channels, injected network latency — with t = 1, b = 1 (S = 4
//! servers, one of which is actively Byzantine).
//!
//! Run with: `cargo run --example replicated_config_store`

use lucky_atomic::core::byz::ForgeValue;
use lucky_atomic::net::{NetConfig, NetStore};
use lucky_atomic::types::{Params, RegisterId, Seq, TsVal, Value};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(1, 1, 0, 0)?;
    println!("config store on {params}: 4 server threads, 1 Byzantine");

    let cfg = NetConfig {
        min_latency: Duration::from_micros(100),
        max_latency: Duration::from_millis(1),
        seed: 42,
        timer: Duration::from_millis(8),
    };
    let mut store = NetStore::builder(params, cfg)
        .readers_per_register(2)
        // Server 2 tries to serve a forged configuration revision.
        .byzantine(2, Box::new(ForgeValue::new(TsVal::new(Seq(9), Value::from_u64(9999)))))
        .build();

    // One register: the publisher writes it, the pollers each drive one
    // of its two reader cores.
    let config = store.register(RegisterId(0))?;
    let poll = |reader: u16| {
        let mut last = 0u64;
        for _ in 0..20 {
            let got = config.read(reader).expect("read").value.as_u64().unwrap_or(0);
            assert!(got >= last, "revision went backwards: {got} < {last}");
            assert!(got != 9999, "forged revision observed!");
            last = got;
        }
        last
    };

    let (final_a, final_b) = std::thread::scope(|s| -> Result<_, Box<dyn std::error::Error>> {
        // Consumer threads poll concurrently with publishing.
        let consumer_a = s.spawn(|| poll(0));
        let consumer_b = s.spawn(|| poll(1));

        // Publish revisions 1..=10.
        for rev in 1..=10u64 {
            let out = config.write(Value::from_u64(rev))?;
            println!(
                "published revision {rev}: rounds={} fast={} in {:?}",
                out.rounds, out.fast, out.elapsed
            );
        }
        Ok((consumer_a.join().expect("consumer A"), consumer_b.join().expect("consumer B")))
    })?;
    println!("consumer A last saw revision {final_a}; consumer B last saw {final_b}");

    store.check_atomicity()?;
    let stats = store.stats();
    println!(
        "router carried {} messages ({} bytes), {} dropped",
        stats.messages, stats.bytes, stats.dropped
    );
    store.shutdown();
    println!("revisions never went backwards and the forgery never surfaced ✓");
    Ok(())
}
