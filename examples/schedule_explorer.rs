//! Model-check a tiny deployment, then watch a violating schedule appear
//! the moment the paper's bound is crossed.
//!
//! Demonstrates `lucky-explore` (bounded exhaustive schedule exploration +
//! randomized schedule walks) and the simulator's message tracing.
//!
//! Run with: `cargo run --release --example schedule_explorer`

use lucky_atomic::core::ProtocolConfig;
use lucky_atomic::explore::{explore, random_walks, ByzKind, ExploreConfig, Scenario};
use lucky_atomic::types::{Params, ProcessId, ReaderId, RegisterId, Value};

fn main() {
    // --- 1. Exhaustive: every schedule of write ∥ read on S = 3 --------
    let params = Params::new(1, 0, 1, 0).unwrap(); // crash-only, S = 3
    let scenario = Scenario::new(params).write(Value::from_u64(1)).reads(0, 1);
    println!("exhaustively exploring write ∥ read over S = 3 …");
    let report = explore(&scenario, &ExploreConfig::default());
    println!(
        "  {} distinct states, {} transitions, coverage: {} — violations: {}",
        report.states,
        report.transitions,
        if report.truncated { "bounded" } else { "exhaustive" },
        report.violations.len()
    );
    assert!(report.violations.is_empty());

    // --- 2. Beyond the bound: the machine finds the counterexample -----
    // t = 1, b = 1 forces fw = fr = 0 (Proposition 2). Pretend fw = 1
    // works, give the adversary the proof's split-brain server, and let
    // random schedule walks hunt.
    let params = Params::new_unchecked(1, 1, 1, 0);
    let protocol = ProtocolConfig {
        fastpw_override: Some(params.naive_fastpw_threshold()),
        ..ProtocolConfig::default()
    };
    let scenario = Scenario::new(params)
        .with_protocol(protocol)
        .write(Value::from_u64(1))
        .reads(0, 1)
        .reads(1, 1)
        .byzantine(1, ByzKind::SplitBrain(vec![ProcessId::Writer, ProcessId::Reader(ReaderId(0))]));
    println!("\nhunting a violating schedule for fw = 1 > t − b = 0 …");
    let report = random_walks(&scenario, 50_000, 200, 42);
    let trace = report.violations.first().expect("Proposition 2 says this must exist");
    println!("  found after {} walks; the schedule's observable events:", report.states);
    for ev in &trace.events {
        println!("    {ev}");
    }
    println!("  checker says:");
    for v in &trace.violations {
        println!("    - {v}");
    }

    // --- 3. Message tracing on the simulator ---------------------------
    use lucky_atomic::core::StoreConfig;
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = StoreConfig::synchronous(params).build_sim();
    store.world_mut().enable_trace();
    store.register(RegisterId::DEFAULT).write(Value::from_u64(7));
    store.register(RegisterId::DEFAULT).read(0);
    println!("\nmessage trace of one fast write + one fast read (S = 3):");
    for entry in store.world().trace() {
        println!("  {entry}");
    }
    println!(
        "\n{} messages total — 2 round-trips of S messages each, exactly the \
         paper's fast-path complexity ✓",
        store.world().trace().len()
    );
}
