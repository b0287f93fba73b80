//! # lucky-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! reproduction: the repository README lists them, and each binary's
//! module doc names the paper result it reproduces.
//!
//! Each experiment is a binary under `src/bin/` printing a markdown
//! table; run them all with
//!
//! ```text
//! for b in t1_fast_path t2_bound_validation t3_comparison t4_trading_reads \
//!          t5_fast_write_bound t6_tworound t7_regular t8_ghost t9_freezing \
//!          t10_exhaustive f1_latency_contention f2_latency_synchrony \
//!          f3_scalability f4_reader_scaling; do
//!     cargo run --release -p lucky-bench --bin $b
//! done
//! ```
//!
//! Every binary but `t10_exhaustive` runs on virtual time with fixed
//! seeds; `tests/paper_tables.rs` holds their output byte for byte
//! against the recorded tables in `golden/`. Criterion micro-benchmarks
//! live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Print a markdown table: header row, separator, then rows.
pub fn print_table<H: Display>(title: &str, headers: &[H], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut widths: Vec<usize> = head.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    println!("{}", fmt_row(&head));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Mean of a slice of u64 values as f64 (0.0 for empty input).
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// p-th percentile (0–100) by nearest-rank. The algorithm lives in
/// [`lucky_trace::nearest_rank`] (the tracing crate pins it with tests);
/// this re-export keeps the historical bench call sites working.
pub fn percentile(xs: &[u64], p: usize) -> u64 {
    lucky_trace::nearest_rank(xs, p)
}

/// Fraction of `hits` in `total` as a percentage string.
pub fn pct(hits: usize, total: usize) -> String {
    if total == 0 {
        return "-".into();
    }
    format!("{:.0}%", 100.0 * hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentile() {
        assert_eq!(mean(&[1, 2, 3]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[5, 1, 9, 3], 50), 3);
        assert_eq!(percentile(&[5, 1, 9, 3], 100), 9);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1, 2), "50%");
        assert_eq!(pct(0, 0), "-");
    }
}
