//! Golden paper tables: every deterministic, simulator-only experiment
//! binary must print exactly what `golden/<bin>.txt` records.
//!
//! The tables (`t1`–`t9`, `f1`–`f4`) are the reproduction's claims — a
//! refactor of the simulator, the store facade or a protocol core that
//! changes one digit of them changes a result, and this test says which
//! line moved. Every bin runs on virtual time with fixed seeds, so its
//! output is byte-for-byte reproducible in debug and release alike.
//!
//! `t10_exhaustive` is left out: it runs only the schedule explorer (no
//! store or simulator facade code), and its full scopes take about 78 s
//! in release — `cargo test --release -p lucky-explore` already pins what
//! it reports.
//!
//! There is deliberately no switch that rewrites the golden files. When a
//! table is *meant* to change, regenerate it by hand and review the diff:
//!
//! ```text
//! cargo run --release -p lucky-bench --bin t1_fast_path > crates/bench/golden/t1_fast_path.txt
//! ```

use std::process::Command;

/// Run `exe` and compare its stdout with the golden file of `bin`.
fn assert_prints_golden(bin: &str, exe: &str) {
    let out = Command::new(exe).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden_path = format!("{}/golden/{bin}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read(&golden_path).unwrap_or_else(|e| panic!("read {golden_path}: {e}"));
    if out.stdout == golden {
        return;
    }
    let got = String::from_utf8_lossy(&out.stdout);
    let want = String::from_utf8_lossy(&golden);
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (None, None) => break,
            (g, w) => panic!(
                "{bin} differs from {golden_path} at line {line}:\n  golden: {}\n  actual: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
    panic!("{bin} differs from {golden_path} only in line endings");
}

macro_rules! golden_tables {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_prints_golden(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

golden_tables!(
    t1_fast_path,
    t2_bound_validation,
    t3_comparison,
    t4_trading_reads,
    t5_fast_write_bound,
    t6_tworound,
    t7_regular,
    t8_ghost,
    t9_freezing,
    f1_latency_contention,
    f2_latency_synchrony,
    f3_scalability,
    f4_reader_scaling,
);
