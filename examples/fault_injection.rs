//! Fault injection: crash and Byzantine servers attacking the register.
//!
//! Sweeps every Byzantine behaviour in the catalogue against a cluster
//! with t = 2, b = 1 and shows that reads keep returning the correct
//! value while the fault budget is respected — and reports how each
//! attack degrades the fast path.
//!
//! Run with: `cargo run --example fault_injection`

use lucky_atomic::core::byz::{ForgeValue, InflateTs, Mute, RandomNoise, SplitBrain, StaleEcho};
use lucky_atomic::core::runtime::ServerCore;
use lucky_atomic::core::StoreConfig;
use lucky_atomic::types::{Params, ProcessId, RegisterId, Seq, TsVal, Value};

fn attack(name: &str, make: impl Fn() -> Box<dyn ServerCore>) {
    let params = Params::new(2, 1, 0, 1).unwrap(); // fast reads survive 1 failure
    let mut store = StoreConfig::synchronous(params).build_sim();
    // Server 3 is malicious (within the budget b = 1).
    store.install_byzantine(3, make());

    let mut fast_reads = 0;
    for i in 1..=10u64 {
        store.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(i), "attack {name} corrupted a read");
        if r.fast {
            fast_reads += 1;
        }
    }
    store.check_atomicity().expect("attack broke atomicity");
    println!("  {name:<12} 10/10 reads correct, {fast_reads}/10 fast — atomicity holds");
}

fn main() {
    println!("Byzantine attack sweep (t=2, b=1, S=6, one malicious server):");
    attack("forge-value", || Box::new(ForgeValue::new(TsVal::new(Seq(40), Value::from_u64(666)))));
    attack("inflate-ts", || Box::new(InflateTs::new(1_000)));
    attack("stale-echo", || Box::new(StaleEcho::new()));
    attack("mute", || Box::new(Mute::new()));
    attack("random-noise", || Box::new(RandomNoise::new(7, 128)));
    attack("split-brain", || {
        Box::new(SplitBrain::new([ProcessId::Writer])) // lies to all readers
    });

    // Crashes on top of the malicious server: the full budget t = 2,
    // of which b = 1 malicious.
    println!("\nfull fault budget (1 Byzantine + 1 crash):");
    let params = Params::new(2, 1, 0, 1).unwrap();
    let mut store = StoreConfig::synchronous(params).build_sim();
    store.install_byzantine(0, Box::new(InflateTs::new(500)));
    store.crash_server(1);
    for i in 1..=5u64 {
        store.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(i));
    }
    store.check_atomicity().expect("atomicity");
    println!("  5/5 reads correct under 1 Byzantine + 1 crash — atomicity holds");
}
