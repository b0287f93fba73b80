//! **T8** — Theorem 13 (Appendix E), *contending with the ghost*: after
//! the writer crashes mid-WRITE, each reader suffers at most **three**
//! slow synchronous READs before returning to fast operation.

use lucky_bench::print_table;
use lucky_core::{SimStore, StoreConfig};
use lucky_types::{Params, ProcessId, RegisterId, ServerId, Time, Value};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

/// Crash the writer mid-write. `phase` selects where: 0 = during PW
/// (delivered to `reach` servers), 1 = during W round 2 (delivered to the
/// non-held servers), 2 = during W round 3.
fn ghost(params: Params, phase: u8, reach: usize, seed: u64) -> SimStore {
    let mut c =
        StoreConfig::synchronous(params).with_seed(seed).readers_per_register(2).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    match phase {
        0 => {
            for i in reach..params.server_count() {
                c.world_mut().hold(ProcessId::Writer, server(i as u16));
            }
            let _ghost = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(2));
            let at = c.now() + 5;
            c.crash_writer_at(RegisterId::DEFAULT, Time(at.micros()));
        }
        _ => {
            // Deny the fast path (hold two PW links) so the W phase runs;
            // crash after round 2 (~+260µs) or round 3 (~+460µs) went out.
            c.world_mut().hold(ProcessId::Writer, server(4));
            c.world_mut().hold(ProcessId::Writer, server(5));
            let _ghost = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(2));
            let offset = if phase == 1 { 260 } else { 460 };
            let at = c.now() + offset;
            c.crash_writer_at(RegisterId::DEFAULT, Time(at.micros()));
        }
    }
    c.run_for(2_000);
    c
}

fn main() {
    println!("# T8 — the ghost writer: slow reads after a writer crash (Thm 13)");
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut rows = Vec::new();
    let scenarios: Vec<(String, u8, usize)> = (0..=params.server_count())
        .map(|reach| (format!("PW reached {reach}/6"), 0u8, reach))
        .chain([
            ("crash during W round 2".to_string(), 1u8, 0),
            ("crash during W round 3".to_string(), 2u8, 0),
        ])
        .collect();
    for (label, phase, reach) in scenarios {
        let mut max_slow = 0usize;
        let mut resumed_fast = true;
        const READS: usize = 8;
        const REPS: usize = 8;
        for seed in 0..REPS as u64 {
            let mut c = ghost(params, phase, reach, seed);
            let mut slow = 0usize;
            let mut last_fast = false;
            for _ in 0..READS {
                let r = c.register(RegisterId::DEFAULT).read(0);
                if !r.fast {
                    slow += 1;
                }
                last_fast = r.fast;
            }
            max_slow = max_slow.max(slow);
            resumed_fast &= last_fast;
            c.check_atomicity().expect("atomicity");
        }
        rows.push(vec![
            label,
            format!("{max_slow}"),
            if max_slow <= 3 { "✓ ≤ 3".into() } else { "✗".into() },
            format!("{resumed_fast}"),
        ]);
    }
    print_table(
        &format!("t=2, b=1 (S=6), {} reads per reader after the crash", 8),
        &["writer crash scenario", "max slow reads", "Thm 13", "fast again at the end"],
        &rows,
    );
    println!(
        "\nReading guide: a reader needs at most one slow read to resolve the \
         ghost value (its write-back finishes or discards the orphaned write) and \
         is fast from then on — well within Theorem 13's bound of three. The bound \
         covers adversarial delay patterns our synchronous runs do not produce; \
         the shape to check is 'small constant, then fast forever'."
    );
}
