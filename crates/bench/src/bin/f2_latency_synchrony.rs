//! **F2** — luck vs synchrony: fast fraction and latency as network
//! delays grow past the bound the clients' timers assume (δ = 100µs).
//!
//! Expected shape: while the maximum delay stays ≤ δ every operation is
//! synchronous, hence lucky, hence fast. As delays exceed δ, acks miss
//! the round-1 evaluation ever more often; the fast fraction falls and
//! the slow-path rounds take over — the exact sense in which the
//! algorithm is "optimized for the common, not that bad conditions" (§1).

use lucky_bench::{mean, print_table};
use lucky_core::StoreConfig;
use lucky_sim::NetworkModel;
use lucky_types::{Params, RegisterId, Value};

fn main() {
    println!("# F2 — luck vs network delay spread (timer fixed at 2δ, δ = 100µs)");
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut rows = Vec::new();
    for max_delay in [100u64, 150, 200, 400, 800, 2_000, 10_000] {
        const OPS: u64 = 100;
        let mut wr_fast = 0usize;
        let mut rd_fast = 0usize;
        let mut wr_lat = Vec::new();
        let mut rd_lat = Vec::new();
        for seed in 0..4u64 {
            let mut c = StoreConfig::synchronous(params)
                .with_net(NetworkModel::uniform(50, max_delay))
                .with_seed(seed)
                .build_sim();
            for i in 1..=OPS / 4 {
                let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(seed * 1_000 + i));
                wr_fast += w.fast as usize;
                wr_lat.push(w.latency);
                let r = c.register(RegisterId::DEFAULT).read(0);
                rd_fast += r.fast as usize;
                rd_lat.push(r.latency);
            }
            c.check_atomicity().expect("atomicity");
        }
        rows.push(vec![
            format!("{max_delay}"),
            if max_delay <= 100 { "sync".into() } else { format!("{}δ", max_delay / 100) },
            format!("{:.0}%", 100.0 * wr_fast as f64 / OPS as f64),
            format!("{:.0}", mean(&wr_lat)),
            format!("{:.0}%", 100.0 * rd_fast as f64 / OPS as f64),
            format!("{:.0}", mean(&rd_lat)),
        ]);
    }
    print_table(
        "t=2, b=1 (S=6), sequential contention-free ops, uniform(50, max) delays",
        &["max delay µs", "regime", "writes fast", "wr µs", "reads fast", "rd µs"],
        &rows,
    );
    println!(
        "\nReading guide: the crossover sits where the slowest of the acks needed \
         for the fast quorum no longer beats the 2δ timer. Note reads degrade more \
         gracefully than writes: a slow write's vw trail keeps fastvw alive for \
         later reads even when some acks are late."
    );
}
