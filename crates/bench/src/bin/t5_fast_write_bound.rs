//! **T5** — Proposition 4 (Appendix B): no optimally-resilient *safe*
//! storage has fast lucky WRITEs despite more than `t − b` failures.
//!
//! Executable analogue of the proof's runs: a fast write that accepts
//! `S − fw` acks with `fw > t − b` completes while reaching too few
//! honest servers; an equivocating server plus delayed links then make a
//! contention-free read miss it entirely — a safeness violation. The same
//! schedule with `fw = t − b` merely slows the operations down.

use lucky_bench::print_table;
use lucky_core::byz::SplitBrain;
use lucky_core::StoreConfig;
use lucky_types::{Params, ProcessId, ReaderId, RegisterId, ServerId, Time, Value};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

/// Appendix B schedule for t = 2, b = 1 (S = 6): B1 = {s0} honest,
/// B2 = {s1} split-brain (faithful to the writer only), T1 = {s2, s3}
/// delayed to the reader, Fw = {s4, s5} never reached by the writer.
/// Returns (write fast?, write rounds, read value, safe?).
fn appendix_b(fw: usize) -> (bool, u32, Option<u64>, bool) {
    let params = Params::new_unchecked(2, 1, fw, 0);
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.install_byzantine(1, Box::new(SplitBrain::new([ProcessId::Writer])));
    c.world_mut().hold(ProcessId::Writer, server(4));
    c.world_mut().hold(ProcessId::Writer, server(5));

    let w = c.register(RegisterId::DEFAULT).try_write(Value::from_u64(1));
    let (fast, rounds) = match &w {
        Ok(o) => (o.fast, o.rounds),
        Err(_) => (false, 0),
    };

    c.world_mut().hold(server(2), ProcessId::Reader(ReaderId(0)));
    c.world_mut().hold(server(3), ProcessId::Reader(ReaderId(0)));
    let rd = c.register(RegisterId::DEFAULT).invoke_read(0);
    // Give the read 5ms; if it (correctly) refuses to decide without T1,
    // release the delayed links — mirroring "delayed until after t3".
    c.run_until(Time(c.now().micros() + 5_000));
    if !c.is_complete(rd) {
        c.world_mut().release(server(2), ProcessId::Reader(ReaderId(0)));
        c.world_mut().release(server(3), ProcessId::Reader(ReaderId(0)));
    }
    let out = c.run_until_complete(rd).expect("read completes");
    let safe = c.check_safeness().is_ok();
    (fast, rounds, out.value.as_u64().or(Some(0)), safe)
}

fn main() {
    println!("# T5 — fast lucky writes beyond fw = t − b break safeness (Prop. 4)");
    let mut rows = Vec::new();
    for fw in [1usize, 2] {
        let (fast, rounds, val, safe) = appendix_b(fw);
        rows.push(vec![
            format!("fw={fw}"),
            if fw <= 1 { "= t − b".into() } else { "> t − b".into() },
            format!("{fast}"),
            rounds.to_string(),
            val.map(|v| if v == 0 { "⊥".into() } else { format!("v{v}") }).unwrap_or("-".into()),
            if safe { "safe ✓".into() } else { "VIOLATION".into() },
        ]);
    }
    print_table(
        "t=2, b=1 (S=6), Appendix B adversarial schedule",
        &["config", "vs bound", "write fast", "write rounds", "read", "checker"],
        &rows,
    );
    println!(
        "\nReading guide: with fw = t − b the writer needs S − fw = 5 acks, cannot \
         get them (two PW messages in transit), and falls back to the 3-round slow \
         path whose W rounds anchor the value at a full quorum — the read returns \
         v1. With fw = 2 > t − b, 4 acks complete the write in one round, but only \
         one honest responder of the read's quorum ever saw it: the read returns ⊥ \
         although the write completed — violating even safeness, the weakest \
         storage semantics."
    );
}
