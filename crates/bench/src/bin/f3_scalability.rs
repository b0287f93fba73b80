//! **F3** — resilience scaling: per-operation latency, messages and
//! bytes as the fault budget `t` (and with it `S = 2t + b + 1`) grows,
//! for all three variants plus the ABD baseline, each a `Setup` of one
//! simulated store.
//!
//! Expected shape: rounds stay constant (the whole point of quorum
//! protocols); messages scale linearly in `S`; lucky latency is flat —
//! one round-trip for a WRITE (it returns on its deciding ack), one
//! round-1 timer for a READ.

use lucky_bench::{mean, print_table};
use lucky_core::{Setup, StoreConfig};
use lucky_types::{Params, RegisterId, TwoRoundParams, Value};

const OPS: u64 = 30;

fn row(system: String, setup: Setup) -> Vec<String> {
    let mut c = StoreConfig::synchronous(setup).build_sim();
    let (mut wl, mut wm, mut wb, mut rl, mut rm) = (vec![], vec![], vec![], vec![], vec![]);
    for i in 1..=OPS {
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        wl.push(w.latency);
        wm.push(w.msgs);
        wb.push(w.bytes);
        let r = c.register(RegisterId::DEFAULT).read(0);
        rl.push(r.latency);
        rm.push(r.msgs);
    }
    c.check_atomicity().expect("atomicity");
    vec![
        system,
        setup.server_count().to_string(),
        format!("{:.0}", mean(&wl)),
        format!("{:.0}", mean(&wm)),
        format!("{:.0}", mean(&wb)),
        format!("{:.0}", mean(&rl)),
        format!("{:.0}", mean(&rm)),
    ]
}

fn main() {
    println!("# F3 — scaling with the fault budget (failure-free synchronous runs)");
    let mut rows = Vec::new();
    for t in [1usize, 2, 4, 6, 8] {
        let b = (t / 2).max(if t == 1 { 0 } else { 1 });
        let lucky = Params::new(t, b, t - b, 0).unwrap();
        rows.push(row(format!("lucky t={t} b={b}"), lucky.into()));
        let fr = (t - b).min(b).max(1).min(t);
        let two_round = TwoRoundParams::new(t, b, fr).unwrap();
        rows.push(row(format!("two-round t={t} b={b} fr={fr}"), two_round.into()));
        rows.push(row(format!("ABD t={t} (b=0)"), Setup::Abd { t }));
    }
    print_table(
        "latency (µs), messages & bytes per op vs t (payload: 8-byte values)",
        &["system", "S", "wr µs", "wr msgs", "wr bytes", "rd µs", "rd msgs"],
        &rows,
    );
    println!(
        "\nReading guide: rounds per op are independent of t across all systems — \
         latency stays flat while message count grows linearly with S. The lucky \
         algorithm pays 2t + b + 1 servers (vs ABD's 2t + 1) and, on reads, the \
         fixed 2δ timer for Byzantine tolerance plus one-round reads; the two-round variant \
         pays min(b, fr) extra servers to flatten write latency at two rounds."
    );
}
