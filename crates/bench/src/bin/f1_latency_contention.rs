//! **F1** — fast-path survival under contention: fraction of fast reads
//! and mean read latency as the write duty cycle grows (the "best case is
//! the common case" premise of §1, quantified).
//!
//! Expected shape: at duty 0 every read is fast; the fast fraction decays
//! roughly linearly with the probability of overlapping a write, and
//! latency grows with the slow-path (write-back) share.

use lucky_bench::{mean, print_table};
use lucky_core::StoreConfig;
use lucky_trace::Histogram;
use lucky_types::{Params, RegisterId, Time, Value};

fn main() {
    println!("# F1 — read luck vs write contention");
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut rows = Vec::new();
    // One read every 2ms; the writer is busy a fraction `duty` of the
    // time with back-to-back writes (each ~300µs including think time).
    for duty_pct in [0u64, 10, 25, 50, 75, 100] {
        const READS: usize = 200;
        let mut fast = 0usize;
        let mut lats = Vec::new();
        let hist = Histogram::new();
        let mut rounds = Vec::new();
        let mut c = StoreConfig::synchronous(params).with_seed(duty_pct).build_sim();
        let mut next_val = 1u64;
        // Pre-schedule the write storm: within every 5ms slot, writes
        // occupy the first `duty_pct`% (one write every 300µs).
        let period = 5_000u64;
        let write_len = 300u64;
        for slot in 0..READS as u64 {
            let slot_start = Time(slot * period);
            let busy = period * duty_pct / 100;
            let mut offset = 0u64;
            while offset + write_len <= busy {
                c.register(RegisterId::DEFAULT).invoke_write_at(
                    Time(slot_start.micros() + offset + 1),
                    Value::from_u64(next_val),
                );
                next_val += 1;
                offset += write_len;
            }
        }
        // One read per slot, its phase swept across the slot so reads
        // sample every alignment relative to write propagation.
        let mut read_ops = Vec::new();
        for slot in 0..READS as u64 {
            let phase = (slot.wrapping_mul(769)) % (period - 1_500);
            read_ops.push(
                c.register(RegisterId::DEFAULT).invoke_read_at(Time(slot * period + phase), 0),
            );
        }
        c.run_until_idle(50_000_000);
        for op in read_ops {
            let rec = c.history().get(op).expect("read record");
            if let Some(l) = rec.latency() {
                lats.push(l);
                hist.record(l);
                rounds.push(rec.rounds as u64);
                fast += rec.fast as usize;
            }
        }
        c.check_atomicity().expect("atomicity");
        rows.push(vec![
            format!("{duty_pct}%"),
            format!("{:.0}%", 100.0 * fast as f64 / READS as f64),
            format!("{:.2}", mean(&rounds)),
            format!("{:.0}", mean(&lats)),
            // The histogram's nearest-rank p99 returns the enclosing
            // log2 bucket's ceiling, so "p99 ≤ X" holds exactly.
            format!("{}", hist.snapshot().p99()),
        ]);
    }
    print_table(
        "t=2, b=1 (S=6), 200 reads (one per 5ms slot, phase swept) vs writer duty cycle",
        &["write duty", "reads fast", "mean rd rounds", "mean rd µs", "p99 rd µs ≤"],
        &rows,
    );
    println!(
        "\nReading guide: contention-free reads are all fast (one round); as the \
         writer's duty cycle grows, more reads overlap a write, lose their luck \
         and pay the multi-round slow path — the gentle degradation the paper \
         promises (atomicity is never at risk; only latency)."
    );
}
