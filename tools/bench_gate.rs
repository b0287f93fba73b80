//! The benchmark regression gate: diff a fresh `BENCH_*.json` snapshot
//! (written by the criterion shim when `BENCH_JSON` is set) against the
//! committed baseline and **fail** when a median regresses past the
//! noise threshold.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [<baseline> <fresh> ...]
//! ```
//!
//! For each label present in the baseline, a regression is declared
//! when
//!
//! ```text
//! fresh.median − base.median > max(0.5·base.median,
//!                                  4·(base.stddev + fresh.stddev),
//!                                  25 ns)
//! ```
//!
//! — i.e. the slowdown must exceed *both* a 50% relative bound and a
//! 4-sigma combined-noise bound, and sub-25 ns absolute jitter never
//! fails the gate. Shared-CI runners are noisy; this threshold is
//! deliberately loose enough that only a genuine algorithmic regression
//! (the kind this gate exists to catch: an accidental O(n²) or a
//! per-value copy reintroduced above the 1 KiB threshold under which
//! the receive path copies values on purpose) trips it.
//!
//! A label present in the baseline but **absent** from the fresh run
//! also fails: silently dropping a benchmark would otherwise disarm the
//! gate for that path. Fresh labels with no baseline are reported but
//! pass — they are new coverage, to be committed with the next
//! snapshot refresh.
//!
//! The parser handles exactly the JSON the shim emits (one object per
//! benchmark, known keys); it is not a general JSON reader and rejects
//! anything it does not recognize rather than guessing.

use std::process::ExitCode;

/// One benchmark's snapshot row.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    label: String,
    median_ns: f64,
    stddev_ns: f64,
}

/// Extract the string value of `"key": "…"` from one object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    // The shim escapes `"` as `\"`, so scan for the first unescaped quote.
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extract the numeric value of `"key": n` from one object body.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse a snapshot document into rows, in file order.
fn parse_snapshot(text: &str, path: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    // Each benchmark object lives between a `{ "label"` and its `}`;
    // split on the label key so nested braces can't confuse us (the
    // shim never emits any, but fail loudly if the format drifts).
    for chunk in text.split("{ \"label\"").skip(1) {
        let obj = format!("{{ \"label\"{chunk}");
        let label = str_field(&obj, "label")
            .ok_or_else(|| format!("{path}: object without a label: {obj}"))?;
        let median_ns = num_field(&obj, "median_ns")
            .ok_or_else(|| format!("{path}: '{label}' has no median_ns"))?;
        let stddev_ns = num_field(&obj, "stddev_ns")
            .ok_or_else(|| format!("{path}: '{label}' has no stddev_ns"))?;
        if !(median_ns.is_finite() && stddev_ns.is_finite()) {
            return Err(format!("{path}: '{label}' has non-finite statistics"));
        }
        rows.push(Row { label, median_ns, stddev_ns });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no benchmark rows found"));
    }
    Ok(rows)
}

/// The slowdown a fresh median may show over the baseline before the
/// gate fails — the larger of a 50% relative bound, a 4-sigma
/// combined-noise bound, and a 25 ns absolute jitter floor.
fn allowance(base: &Row, fresh: &Row) -> f64 {
    (0.5 * base.median_ns).max(4.0 * (base.stddev_ns + fresh.stddev_ns)).max(25.0)
}

/// Compare one baseline/fresh pair; returns the failure messages.
fn compare(base: &[Row], fresh: &[Row], name: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for b in base {
        let Some(f) = fresh.iter().find(|f| f.label == b.label) else {
            failures.push(format!(
                "{name}: '{}' is in the committed snapshot but missing from the fresh run \
                 (renamed or dropped? refresh the snapshot deliberately)",
                b.label
            ));
            continue;
        };
        let delta = f.median_ns - b.median_ns;
        let allowed = allowance(b, f);
        let verdict = if delta > allowed { "REGRESSED" } else { "ok" };
        println!(
            "{verdict:>9}  {:<45} {:>12.1} ns -> {:>12.1} ns  (Δ {:>+10.1} ns, allowed {:>10.1})",
            b.label, b.median_ns, f.median_ns, delta, allowed
        );
        if delta > allowed {
            failures.push(format!(
                "{name}: '{}' regressed: {:.1} ns -> {:.1} ns (Δ +{:.1} ns exceeds {:.1} ns)",
                b.label, b.median_ns, f.median_ns, delta, allowed
            ));
        }
    }
    for f in fresh {
        if !base.iter().any(|b| b.label == f.label) {
            println!(
                "      new  {:<45} {:>12.1} ns  (no baseline; commit a refreshed snapshot)",
                f.label, f.median_ns
            );
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json> [<baseline> <fresh> ...]");
        return ExitCode::FAILURE;
    }
    let mut failures = Vec::new();
    for pair in args.chunks(2) {
        let (base_path, fresh_path) = (&pair[0], &pair[1]);
        println!("== {base_path} vs {fresh_path}");
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
        let parsed = read(base_path)
            .and_then(|t| parse_snapshot(&t, base_path))
            .and_then(|b| Ok((b, read(fresh_path).and_then(|t| parse_snapshot(&t, fresh_path))?)));
        match parsed {
            Ok((base, fresh)) => failures.extend(compare(&base, &fresh, base_path)),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        println!("bench gate: all medians within the noise allowance");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, f64, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(l, m, s)| {
                format!(
                    "    {{ \"label\": \"{l}\", \"median_ns\": {m:.3}, \"stddev_ns\": {s:.3}, \
                     \"mean_ns\": {m:.3}, \"min_ns\": 0.000, \"max_ns\": 9.000, \"samples\": 100 }}"
                )
            })
            .collect();
        format!("{{\n  \"benchmarks\": [\n{}\n  ]\n}}\n", body.join(",\n"))
    }

    #[test]
    fn parses_the_shim_snapshot_format() {
        let rows = parse_snapshot(&doc(&[("a/b", 100.0, 2.0), ("c", 5.5, 0.1)]), "t").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], Row { label: "a/b".into(), median_ns: 100.0, stddev_ns: 2.0 });
        assert_eq!(rows[1].label, "c");
        assert!((rows[1].median_ns - 5.5).abs() < 1e-9);
    }

    #[test]
    fn escaped_labels_roundtrip() {
        let text = r#"{ "label": "odd\"name", "median_ns": 1.000, "stddev_ns": 0.000 }"#;
        let rows = parse_snapshot(text, "t").unwrap();
        assert_eq!(rows[0].label, "odd\"name");
    }

    #[test]
    fn empty_or_malformed_snapshots_are_errors() {
        assert!(parse_snapshot("{}", "t").is_err());
        assert!(parse_snapshot("{ \"label\": \"x\" }", "t").is_err());
    }

    #[test]
    fn within_allowance_passes() {
        let base = parse_snapshot(&doc(&[("k", 1000.0, 10.0)]), "b").unwrap();
        // +50% exactly is allowed; the 4-sigma and 25 ns floors widen it.
        let fresh = parse_snapshot(&doc(&[("k", 1500.0, 10.0)]), "f").unwrap();
        assert!(compare(&base, &fresh, "b").is_empty());
    }

    #[test]
    fn real_regressions_fail() {
        let base = parse_snapshot(&doc(&[("k", 1000.0, 5.0)]), "b").unwrap();
        let fresh = parse_snapshot(&doc(&[("k", 2000.0, 5.0)]), "f").unwrap();
        assert_eq!(compare(&base, &fresh, "b").len(), 1);
    }

    #[test]
    fn tiny_absolute_jitter_never_fails() {
        // 3 ns -> 20 ns is a 6.7x slowdown but under the 25 ns floor.
        let base = parse_snapshot(&doc(&[("k", 3.0, 0.1)]), "b").unwrap();
        let fresh = parse_snapshot(&doc(&[("k", 20.0, 0.1)]), "f").unwrap();
        assert!(compare(&base, &fresh, "b").is_empty());
    }

    #[test]
    fn dropped_benchmarks_fail_the_gate() {
        let base = parse_snapshot(&doc(&[("kept", 10.0, 1.0), ("gone", 10.0, 1.0)]), "b").unwrap();
        let fresh = parse_snapshot(&doc(&[("kept", 10.0, 1.0)]), "f").unwrap();
        let failures = compare(&base, &fresh, "b");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("gone"));
    }

    #[test]
    fn new_benchmarks_pass_without_a_baseline() {
        let base = parse_snapshot(&doc(&[("old", 10.0, 1.0)]), "b").unwrap();
        let fresh =
            parse_snapshot(&doc(&[("old", 10.0, 1.0), ("brand_new", 99.0, 1.0)]), "f").unwrap();
        assert!(compare(&base, &fresh, "b").is_empty());
    }
}
