//! **F4** — reader scalability (§6 vs. \[11\]): the lucky algorithm
//! supports *any* number of readers at `S = 2t + b + 1` servers, whereas
//! implementations whose every operation is fast (Dutta et al. \[11\])
//! need `S ≥ (R + 2)t + (R + 1)b + 1` — servers growing linearly with the
//! reader count.
//!
//! Two tables: (1) the analytic server-count comparison; (2) measured
//! behaviour of this implementation as readers multiply: per-reader fast
//! rates stay at 100% and atomicity holds, at constant S.

use lucky_bench::{mean, pct, print_table};
use lucky_core::StoreConfig;
use lucky_types::{Params, RegisterId, Value};

fn main() {
    println!("# F4 — supporting many readers at constant S");

    // Analytic comparison (t = 2, b = 1).
    let (t, b) = (2usize, 1usize);
    let mut rows = Vec::new();
    for readers in [1usize, 2, 4, 8, 16, 32] {
        let lucky = 2 * t + b + 1;
        let always_fast = (readers + 2) * t + (readers + 1) * b + 1;
        rows.push(vec![
            readers.to_string(),
            lucky.to_string(),
            always_fast.to_string(),
            format!("{:.1}×", always_fast as f64 / lucky as f64),
        ]);
    }
    print_table(
        &format!(
            "servers required to support R readers (t={t}, b={b}): lucky \
             (fast only when lucky) vs always-fast ([11])"
        ),
        &["readers R", "lucky S = 2t+b+1", "always-fast S", "ratio"],
        &rows,
    );

    // Measured: R readers all reading after each write.
    let params = Params::new(t, b, 1, 0).unwrap();
    let mut rows = Vec::new();
    for readers in [1usize, 2, 4, 8, 16] {
        let mut c = StoreConfig::synchronous(params).readers_per_register(readers).build_sim();
        let mut fast = 0usize;
        let mut total = 0usize;
        let mut lat = Vec::new();
        for i in 1..=10u64 {
            c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
            for r in 0..readers {
                let out = c.register(RegisterId::DEFAULT).read(r as u16);
                assert_eq!(out.value.as_u64(), Some(i));
                fast += out.fast as usize;
                total += 1;
                lat.push(out.latency);
            }
        }
        c.check_atomicity().expect("atomicity");
        rows.push(vec![
            readers.to_string(),
            c.server_count().to_string(),
            pct(fast, total),
            format!("{:.0}", mean(&lat)),
        ]);
    }
    print_table(
        "measured: 10 writes, every reader reads after each (synchronous, failure-free)",
        &["readers R", "S", "reads fast", "mean rd µs"],
        &rows,
    );
    println!(
        "\nReading guide: the freezing bookkeeping is the only per-reader state \
         (one watermark at the writer, one slot per server), so reader count \
         affects neither the server count nor the fast path — in exchange, reads \
         are fast only when *lucky*, which is exactly the trade the paper draws \
         against [11]'s always-fast-but-reader-bounded design."
    );
}
