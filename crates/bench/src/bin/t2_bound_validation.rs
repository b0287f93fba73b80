//! **T2** — Proposition 2 / Fig. 4: the tight bound `fw + fr ≤ t − b`.
//!
//! Reconstructs the proof's run `r4` as an executable schedule and
//! sweeps threshold configurations on both sides of the bound: within it
//! the history is atomic; beyond it (with the naive `S − fw − fr`
//! fast-read threshold any such algorithm must accept) the checker
//! reports a new/old inversion.

use lucky_bench::print_table;
use lucky_core::byz::SplitBrain;
use lucky_core::{ProtocolConfig, StoreConfig};
use lucky_types::{Params, ProcessId, ReaderId, RegisterId, ServerId, Time, Value};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

/// The Fig. 4 schedule for t = 2, b = 1 (S = 6). Blocks: B1 = {s0}
/// (stays honest here; its pre-write is real), B2 = {s1} (split-brain),
/// T1 = {s2, s3} (delayed to reader2), Fr = {s4}, Fw = {s5} (both miss
/// the write). Returns (rd1 fast?, rd1 value, rd2 value, atomic?).
fn fig4(params: Params, naive: bool) -> (bool, Option<u64>, Option<u64>, bool) {
    let protocol = ProtocolConfig {
        fastpw_override: naive.then(|| params.naive_fastpw_threshold()),
        ..ProtocolConfig::for_sync_bound(100)
    };
    let mut c = StoreConfig::synchronous(params)
        .with_protocol(protocol)
        .readers_per_register(2)
        .build_sim();
    c.install_byzantine(
        1,
        Box::new(SplitBrain::new([ProcessId::Writer, ProcessId::Reader(ReaderId(0))])),
    );
    c.world_mut().hold(ProcessId::Writer, server(4));
    c.world_mut().hold(ProcessId::Writer, server(5));
    let _wr1 = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(1));
    c.crash_writer_at(RegisterId::DEFAULT, Time(150));
    c.run_until(Time(1_000));

    c.world_mut().hold(ProcessId::Reader(ReaderId(0)), server(4));
    c.world_mut().hold(server(4), ProcessId::Reader(ReaderId(0)));
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read(0);
    c.run_until(Time(3_000));

    c.world_mut().hold(server(2), ProcessId::Reader(ReaderId(1)));
    c.world_mut().hold(server(3), ProcessId::Reader(ReaderId(1)));
    let rd2 = c.register(RegisterId::DEFAULT).invoke_read(1);
    let _ = c.run_until_complete(rd2);

    let rd1_rec = c.history().get(rd1).cloned();
    let rd2_rec = c.history().get(rd2).cloned();
    let rd1_fast = rd1_rec.as_ref().map(|r| r.fast).unwrap_or(false);
    let v1 = rd1_rec.and_then(|r| r.result).and_then(|v| v.as_u64());
    let v2 = rd2_rec.and_then(|r| r.result.map(|v| v.as_u64().unwrap_or(0)));
    let atomic = c.check_atomicity().is_ok();
    (rd1_fast, v1, v2, atomic)
}

fn main() {
    println!("# T2 — tightness of fw + fr ≤ t − b (Prop. 2, Fig. 4 schedule)");
    let mut rows = Vec::new();
    let t = 2;
    let b = 1;
    for (fw, fr) in [(0usize, 0usize), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)] {
        if fw > t || fr > t {
            continue;
        }
        let params = Params::new_unchecked(t, b, fw, fr);
        let beyond = !params.within_tight_bound();
        // Beyond the bound the hypothetical algorithm must accept the
        // naive threshold; within it we run the paper's constants.
        let (rd1_fast, v1, v2, atomic) = fig4(params, beyond);
        rows.push(vec![
            format!("fw={fw} fr={fr}"),
            if beyond { "beyond".into() } else { "within".into() },
            if beyond {
                format!("{} (naive)", params.naive_fastpw_threshold())
            } else {
                format!("{}", params.fastpw_threshold())
            },
            format!("{rd1_fast}"),
            v1.map(|v| format!("v{v}")).unwrap_or("-".into()),
            v2.map(|v| if v == 0 { "⊥".into() } else { format!("v{v}") }).unwrap_or("-".into()),
            if atomic { "atomic ✓".into() } else { "VIOLATION".into() },
        ]);
    }
    print_table(
        "t=2, b=1 (S=6), Fig. 4 adversarial schedule vs threshold configuration",
        &["split", "bound", "fastpw thr", "rd1 fast", "rd1", "rd2", "checker"],
        &rows,
    );
    println!(
        "\nReading guide: within the bound the schedule is harmless (rd1 cannot \
         decide fast on S − fw − fr < 2b + t + 1 confirmations; its write-back \
         propagates v1 to rd2). Beyond the bound rd1 returns v1 fast and rd2 — \
         unable to distinguish the runs r4/r5 of the proof — returns ⊥: a new/old \
         inversion, exactly the contradiction of Proposition 2."
    );
}
