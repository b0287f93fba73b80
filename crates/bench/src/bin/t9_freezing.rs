//! **T9** — Theorem 2 / §3.1: the freezing mechanism is what makes
//! READs wait-free under unbounded concurrent WRITEs. Ablation table:
//! with freezing the starving reader terminates in a few rounds; without
//! it, it exhausts any round budget.

use lucky_bench::{mean, print_table};
use lucky_core::{ProtocolConfig, SimStore, StoreConfig};
use lucky_sim::Delay;
use lucky_types::{OpId, Params, ProcessId, ReaderId, RegisterId, ServerId, Value};

fn storm(freezing: bool, cap: u32, seed: u64) -> (SimStore, OpId, u64) {
    let params = Params::new(2, 1, 1, 0).unwrap();
    let protocol = ProtocolConfig {
        freezing,
        max_read_rounds: Some(cap),
        ..ProtocolConfig::for_sync_bound(100)
    };
    let mut cfg = StoreConfig::synchronous(params).with_protocol(protocol).with_seed(seed);
    // Staggered sampling: each round sees four non-adjacent write epochs.
    for i in 0..params.server_count() as u16 {
        cfg.net.set_link(
            ProcessId::Reader(ReaderId(0)),
            ProcessId::Server(ServerId(i)),
            Delay::Constant(100 + 1_300 * i as u64),
        );
    }
    let mut c = cfg.build_sim();
    c.crash_server(4);
    c.crash_server(5);
    let start = c.now() + 2_000;
    let read_op = c.register(RegisterId::DEFAULT).invoke_read_at(start, 0);
    let mut writes = 0u64;
    while !c.is_complete(read_op) && writes < 500 {
        writes += 1;
        c.register(RegisterId::DEFAULT).write(Value::from_u64(writes));
    }
    c.run_until_idle(5_000_000);
    (c, read_op, writes)
}

fn main() {
    println!("# T9 — freezing ablation: reader wait-freedom under a write storm (Thm 2)");
    let mut rows = Vec::new();
    for freezing in [true, false] {
        const REPS: u64 = 8;
        let mut completed = 0usize;
        let mut rounds = Vec::new();
        let mut lat = Vec::new();
        let mut storms = Vec::new();
        for seed in 0..REPS {
            let (c, read_op, writes) = storm(freezing, 40, seed);
            let rec = c.history().get(read_op).unwrap();
            storms.push(writes);
            if rec.is_complete() {
                completed += 1;
                rounds.push(rec.rounds as u64);
                lat.push(rec.latency().unwrap());
                c.check_atomicity().expect("atomicity");
            }
        }
        rows.push(vec![
            if freezing { "freezing ON".into() } else { "freezing OFF".into() },
            format!("{completed}/{REPS}"),
            if rounds.is_empty() { "-".into() } else { format!("{:.1}", mean(&rounds)) },
            if lat.is_empty() { "-".into() } else { format!("{:.0}", mean(&lat)) },
            format!("{:.0}", mean(&storms)),
        ]);
    }
    print_table(
        "t=2, b=1 (S=6), 2 crashed, staggered sampling, closed-loop write storm, \
         40-round cap",
        &["config", "reads completed", "read rounds", "read latency µs", "writes during storm"],
        &rows,
    );
    println!(
        "\nReading guide: with freezing the writer detects the starving reader \
         (b + 1 = 2 servers report its timestamp on PW acks), freezes the current \
         value for it, and the reader returns it via safeFrozen after a handful of \
         rounds. Without freezing no pair ever collects b + 1 matching copies in \
         any round's view and the read never completes — Theorem 2's mechanism is \
         load-bearing, not an optimization."
    );
}
