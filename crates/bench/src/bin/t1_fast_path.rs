//! **T1** — Proposition 1 / Theorems 3–4: round-trips and fast rates of
//! lucky operations versus actual crash failures, for every threshold
//! split `fw + fr = t − b`.
//!
//! Two failure patterns per row:
//!
//! * *benign*: servers crash before the WRITE (so a failed fast path
//!   degrades into a slow write, which re-arms fast reads via `vw`);
//! * *worst-case*: the fast WRITE uses its full miss budget (`fw` PW
//!   messages stay in transit) and then `crashes` of the *holders* fail —
//!   the exact adversary of Theorem 4's guarantee boundary.
//!
//! Expected shape: writes are 1 round iff `crashes ≤ fw`, else 3; under
//! the worst-case pattern reads are 1 round iff `crashes ≤ fr`, else 4.

use lucky_bench::{mean, print_table};
use lucky_core::StoreConfig;
use lucky_types::{Params, ProcessId, RegisterId, ServerId, Value};

const REPS: usize = 20;

/// Writes with `crashes` pre-existing failures: rounds and fast rate.
fn write_side(params: Params, crashes: usize) -> (f64, f64) {
    let mut rounds = Vec::new();
    let mut fast = 0;
    for seed in 0..REPS as u64 {
        let mut c = StoreConfig::synchronous(params).with_seed(seed).build_sim();
        for i in 0..crashes {
            c.crash_server(i as u16);
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        rounds.push(w.rounds as u64);
        fast += w.fast as usize;
        c.check_atomicity().expect("atomicity");
    }
    (mean(&rounds), 100.0 * fast as f64 / REPS as f64)
}

/// Reads after a write, with `crashes` failures; `worst_case` makes the
/// write miss exactly `fw` servers first and then crashes holders.
fn read_side(params: Params, crashes: usize, worst_case: bool) -> (f64, f64) {
    let mut rounds = Vec::new();
    let mut fast = 0;
    for seed in 0..REPS as u64 {
        let mut c = StoreConfig::synchronous(params).with_seed(seed).build_sim();
        if worst_case {
            // The fast write misses its full budget of fw servers (PW in
            // transit), then `crashes` holders fail.
            for i in 0..params.fw() {
                let id = (params.server_count() - 1 - i) as u16;
                c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(id)));
            }
            c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
        } else {
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        }
        let r = c.register(RegisterId::DEFAULT).read(0);
        rounds.push(r.rounds as u64);
        fast += r.fast as usize;
        c.check_atomicity().expect("atomicity");
    }
    (mean(&rounds), 100.0 * fast as f64 / REPS as f64)
}

fn main() {
    println!("# T1 — fast lucky operations vs. actual failures (Prop. 1, Thms 3–4)");
    for (t, b) in [(1usize, 0usize), (2, 1), (3, 1), (3, 2)] {
        let mut rows = Vec::new();
        for fw in 0..=(t - b) {
            let fr = t - b - fw;
            let params = Params::new(t, b, fw, fr).unwrap();
            for crashes in 0..=t {
                let (wr, wf) = write_side(params, crashes);
                let (rr, rf) = read_side(params, crashes, false);
                let (arr, arf) = read_side(params, crashes, true);
                rows.push(vec![
                    format!("fw={fw} fr={fr}"),
                    crashes.to_string(),
                    format!("{wr:.1}"),
                    format!("{wf:.0}%"),
                    format!("{rr:.1}"),
                    format!("{rf:.0}%"),
                    format!("{arr:.1}"),
                    format!("{arf:.0}%"),
                    if crashes <= fw { "≤fw".into() } else { ">fw".into() },
                    if crashes <= fr { "≤fr".into() } else { ">fr".into() },
                ]);
            }
        }
        print_table(
            &format!("t={t}, b={b} (S={}): rounds & fast-rate vs crashes", 2 * t + b + 1),
            &[
                "split",
                "crashes",
                "wr rounds",
                "wr fast",
                "rd rounds",
                "rd fast",
                "rd rounds (worst)",
                "rd fast (worst)",
                "write guar.",
                "read guar.",
            ],
            &rows,
        );
    }
    println!(
        "\nReading guide: 'wr fast' is 100% iff crashes ≤ fw (Thm 3; slow writes are \
         exactly 3 rounds). Under the worst-case pattern 'rd fast (worst)' is 100% \
         iff crashes ≤ fr (Thm 4) and 0% beyond (slow reads are 4 rounds: 1 + the \
         3-round write-back); the benign pattern shows reads may stay lucky longer — \
         fr bounds the guarantee, not the luck."
    );
}
