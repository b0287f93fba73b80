//! **T7** — Proposition 7 (Appendix D): the regular variant's fast
//! rates (`fw = t − b`, `fr = t`) and its malicious-reader tolerance,
//! with the atomic variant as the vulnerable control.

use lucky_bench::{pct, print_table};
use lucky_core::{Setup, SimStore, StoreConfig};
use lucky_types::{
    Message, Params, ProcessId, ReadSeq, ReaderId, RegisterId, Seq, ServerId, Tag, TsVal, Value,
    WriteMsg,
};

fn fast_rate_table() {
    let mut rows = Vec::new();
    for (t, b) in [(2usize, 1usize), (3, 1), (3, 2)] {
        let params = Params::trading_reads(t, b).unwrap();
        for crashes in 0..=t {
            const REPS: usize = 10;
            let mut wr_fast = 0usize;
            let mut rd_fast = 0usize;
            for seed in 0..REPS as u64 {
                // Write side: all crashes in place before the write.
                let mut c =
                    StoreConfig::synchronous(Setup::Regular(params)).with_seed(seed).build_sim();
                for i in 0..crashes {
                    c.crash_server(i as u16);
                }
                let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                wr_fast += w.fast as usize;
                c.check_regularity().expect("regularity");
                // Read side: the write completes first, then the crashes.
                let mut c =
                    StoreConfig::synchronous(Setup::Regular(params)).with_seed(seed).build_sim();
                c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                for i in 0..crashes {
                    c.crash_server(i as u16);
                }
                let r = c.register(RegisterId::DEFAULT).read(0);
                rd_fast += r.fast as usize;
                c.check_regularity().expect("regularity");
            }
            rows.push(vec![
                format!("t={t} b={b}"),
                crashes.to_string(),
                pct(wr_fast, REPS),
                pct(rd_fast, REPS),
                if crashes <= t - b { "≤ t−b".into() } else { "> t−b".into() },
            ]);
        }
    }
    print_table(
        "regular variant fast rates vs crashes (fw = t − b, fr = t)",
        &["config", "crashes", "writes fast", "reads fast", "write guar."],
        &rows,
    );
}

/// A malicious reader write-back flood (§5 "Tolerating malicious
/// readers"): forged pair injected as WB rounds 1–3 to every server.
fn poison(c: &mut SimStore) {
    let forged = TsVal::new(Seq(40), Value::from_u64(666));
    for round in 1..=3u8 {
        for i in 0..c.server_count() as u16 {
            c.world_mut().send_as(
                ProcessId::Reader(ReaderId(9)),
                ProcessId::Server(ServerId(i)),
                Message::Write(WriteMsg {
                    reg: RegisterId::DEFAULT,
                    round,
                    tag: Tag::WriteBack(ReadSeq(1)),
                    c: forged.clone(),
                    frozen: vec![],
                }),
            );
        }
    }
    c.run_for(1_000);
}

fn malicious_reader_table() {
    let mut rows = Vec::new();

    // Control: the atomic variant trusts write-backs.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    poison(&mut c);
    let r = c.register(RegisterId::DEFAULT).read(0);
    rows.push(vec![
        "atomic (§3)".into(),
        format!("{}", r.value),
        if c.check_atomicity().is_ok() { "atomic ✓".into() } else { "VIOLATION".into() },
    ]);

    // The regular variant ignores reader write-backs.
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    poison(&mut c);
    let r = c.register(RegisterId::DEFAULT).read(0);
    rows.push(vec![
        "regular (App. D)".into(),
        format!("{}", r.value),
        if c.check_regularity().is_ok() { "regular ✓".into() } else { "VIOLATION".into() },
    ]);

    print_table(
        "malicious reader writes back a forged ⟨40, v666⟩ after WRITE(v1)",
        &["variant", "honest read returns", "checker"],
        &rows,
    );
}

fn main() {
    println!("# T7 — the regular variant (Prop. 7): fast rates & malicious readers");
    fast_rate_table();
    malicious_reader_table();
    println!(
        "\nReading guide: the regular variant keeps writes fast through t − b \
         crashes and reads fast through the full t — thresholds Proposition 2 \
         forbids for atomic semantics — and shrugs off the forged write-back that \
         corrupts the atomic variant. The price: regularity (new/old inversions \
         between overlapping reads are permitted)."
    );
}
