//! **T6** — Propositions 5–6 (Appendix C, Figs 5–8): two-round WRITEs
//! plus fast lucky READs despite `fr` failures exist **iff**
//! `S ≥ 2t + b + min(b, fr) + 1`.
//!
//! Part 1 measures the Figs 6–8 algorithm at the exact server count;
//! part 2 scripts the Fig. 5 run at one server fewer and shows the
//! checker catching the violation, while the same schedule at full `S`
//! stays atomic.

use lucky_bench::{mean, print_table};
use lucky_core::byz::SplitBrain;
use lucky_core::StoreConfig;
use lucky_types::{ProcessId, ReaderId, RegisterId, ServerId, Time, TwoRoundParams, Value};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

fn algorithm_table() {
    let mut rows = Vec::new();
    for (t, b, fr) in [(1usize, 1usize, 1usize), (2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1)] {
        let params = TwoRoundParams::new(t, b, fr).unwrap();
        for crashes in 0..=fr {
            const REPS: usize = 10;
            let mut wr_rounds = Vec::new();
            let mut rd_fast = 0usize;
            for seed in 0..REPS as u64 {
                let mut c = StoreConfig::synchronous(params).with_seed(seed).build_sim();
                let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                wr_rounds.push(w.rounds as u64);
                for i in 0..crashes {
                    c.crash_server(i as u16);
                }
                let r = c.register(RegisterId::DEFAULT).read(0);
                rd_fast += r.fast as usize;
                c.check_atomicity().expect("atomicity");
            }
            rows.push(vec![
                format!("t={t} b={b} fr={fr}"),
                params.server_count().to_string(),
                crashes.to_string(),
                format!("{:.1}", mean(&wr_rounds)),
                lucky_bench::pct(rd_fast, REPS),
            ]);
        }
    }
    print_table(
        "Figs 6–8 algorithm at S = 2t + b + min(b, fr) + 1",
        &["config", "S", "crashes", "write rounds", "lucky reads fast"],
        &rows,
    );
}

/// Fig. 5 `run4` analogue (t = 1, b = 1, fr = 1). With `short = true`,
/// one server fewer than the Appendix C bound. Returns (rd1 value,
/// rd2 value, atomic?).
fn fig5(short: bool) -> (Option<u64>, Option<u64>, bool) {
    let params = if short {
        TwoRoundParams::with_shortfall(1, 1, 1, 1)
    } else {
        TwoRoundParams::new(1, 1, 1).unwrap()
    };
    let mut c = StoreConfig::synchronous(params).readers_per_register(2).build_sim();
    c.install_byzantine(
        2,
        Box::new(SplitBrain::new([ProcessId::Writer, ProcessId::Reader(ReaderId(0))])),
    );
    c.world_mut().hold(ProcessId::Writer, server(0));
    let _wr1 = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(1));
    c.run_until(Time(150));
    c.world_mut().hold(ProcessId::Writer, server(3));
    c.run_until(Time(1_000));
    c.crash_writer_at(RegisterId::DEFAULT, Time(1_001));
    c.run_until(Time(2_000));

    c.world_mut().hold(ProcessId::Reader(ReaderId(0)), server(3));
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read(0);
    let _ = c.run_until_complete(rd1);

    c.world_mut().hold(server(1), ProcessId::Reader(ReaderId(1)));
    let rd2 = c.register(RegisterId::DEFAULT).invoke_read(1);
    let _ = c.run_until_complete(rd2);

    let v = |op| {
        c.history()
            .get(op)
            .and_then(|r: &lucky_types::OpRecord| r.result.clone())
            .map(|x| x.as_u64().unwrap_or(0))
    };
    (v(rd1), v(rd2), c.check_atomicity().is_ok())
}

fn main() {
    println!("# T6 — two-round writes & the S ≥ 2t + b + min(b, fr) + 1 bound (Props 5–6)");
    algorithm_table();

    let mut rows = Vec::new();
    for short in [false, true] {
        let (v1, v2, atomic) = fig5(short);
        let s = if short { 4 } else { 5 };
        rows.push(vec![
            format!("S = {s}{}", if short { " (one short)" } else { " (full)" }),
            v1.map(|v| if v == 0 { "⊥".into() } else { format!("v{v}") }).unwrap_or("-".into()),
            v2.map(|v| if v == 0 { "⊥".into() } else { format!("v{v}") }).unwrap_or("-".into()),
            if atomic { "atomic ✓".into() } else { "VIOLATION".into() },
        ]);
    }
    print_table(
        "Fig. 5 adversarial schedule (t=1, b=1, fr=1; bound says S ≥ 5)",
        &["deployment", "rd1", "rd2", "checker"],
        &rows,
    );
    println!(
        "\nReading guide: at full S the extra server gives the second reader a \
         second honest voucher for v1 and the schedule is harmless; one server \
         short, rd1 returns v1 fast while rd2 — facing one forged and one blank \
         view — returns ⊥: the new/old inversion of the Proposition 5 proof. \
         Writes are always exactly 2 rounds and lucky reads stay fast despite fr \
         failures, per Proposition 6."
    );
}
