//! **T4** — Proposition 3 / Theorem 5 (Appendix A), *trading (few)
//! reads*: with `fw = t − b`, `fr = t`, at most one slow READ per
//! sequence of consecutive lucky READs, for any number of failures up to
//! `t` and any sequence length.

use lucky_bench::{pct, print_table};
use lucky_core::StoreConfig;
use lucky_types::{Params, ProcessId, RegisterId, ServerId, Value};

fn main() {
    println!("# T4 — trading (few) reads: fw = t − b, fr = t (Prop. 3 / Thm 5)");
    for (t, b) in [(2usize, 1usize), (3, 1), (3, 2)] {
        let params = Params::trading_reads(t, b).unwrap();
        let mut rows = Vec::new();
        for crashes in 0..=t {
            for n in [1usize, 2, 4, 8, 32] {
                let mut max_slow = 0usize;
                let mut total_slow = 0usize;
                let mut first_fast = 0usize;
                const REPS: usize = 10;
                for seed in 0..REPS as u64 {
                    let mut c = StoreConfig::synchronous(params).with_seed(seed).build_sim();
                    // Worst case: one server misses the fast write, then
                    // `crashes` holders fail.
                    if crashes > 0 {
                        c.world_mut().hold(
                            ProcessId::Writer,
                            ProcessId::Server(ServerId((params.server_count() - 1) as u16)),
                        );
                    }
                    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                    for i in 0..crashes {
                        c.crash_server(i as u16);
                    }
                    let mut slow = 0usize;
                    for k in 0..n {
                        let r = c.register(RegisterId::DEFAULT).read(0);
                        if !r.fast {
                            slow += 1;
                        } else if k == 0 {
                            first_fast += 1;
                        }
                    }
                    max_slow = max_slow.max(slow);
                    total_slow += slow;
                    c.check_atomicity().expect("atomicity");
                }
                rows.push(vec![
                    crashes.to_string(),
                    n.to_string(),
                    max_slow.to_string(),
                    format!("{:.2}", total_slow as f64 / REPS as f64),
                    pct(first_fast, REPS),
                    if max_slow <= 1 { "✓ ≤ 1".into() } else { "✗".into() },
                ]);
            }
        }
        print_table(
            &format!(
                "t={t}, b={b} (S={}, fw={}, fr={}): slow reads per consecutive sequence",
                params.server_count(),
                params.fw(),
                params.fr()
            ),
            &["crashes", "seq len", "max slow", "mean slow", "first read fast", "Thm 5"],
            &rows,
        );
    }
    println!(
        "\nReading guide: the one permitted slow read appears only under the \
         worst-case pattern (a fast write that used its full fw = t − b miss budget \
         followed by crashes of holders); it 'finishes the fast write' by writing \
         the value back, after which every further lucky read in the sequence is \
         fast — despite up to fr = t failures, which Proposition 2 shows is \
         unreachable if *every* lucky read had to be fast."
    );
}
