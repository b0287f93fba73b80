//! `lucky-load` — the repo's end-to-end benchmark.
//!
//! Two ways in (both through `benchmark/run.sh`, which builds first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints, as the last line of stdout, one JSON
//!   object `{correct, attempted, failed, metrics}` — the end-to-end
//!   metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//!   This is the form `BENCHMARK.json`'s command takes.
//! * without `--workload`, every workload runs in a child process of
//!   its own (so peak RSS, CPU and thread counts are per workload),
//!   untraced then traced; every metric is printed as
//!   `workload metric value unit` and collected in `out/results.json`.
//!
//! Exit code 0 iff every run was correct: checker-clean, freshness
//! oracle clean, no failed op, no transport error.

mod engine;
mod metrics;
mod netload;
mod pass;
mod procfs;
mod replay;
mod schedule;
mod shardload;
mod simload;
mod spans;
mod stats;
mod workloads;

use metrics::{Family, Metric};
use pass::Pass;
use replay::{ReplayResult, ReplaySpec};
use schedule::{Keys, OpGen};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Shape, Tuning, Workload};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// `--repeat N`: N untraced runs per workload, then the spread table.
    repeat: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        repeat: 0,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        args.seconds = if args.quick { 0.6 } else { 10.0 };
    }
    Ok(args)
}

/// Everything one run of one workload reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Every metric, for the human lines and the results file. The
    /// contract's JSON line carries all of a trace run's, and of an
    /// untraced run's the ones `BENCHMARK.json` bounds.
    all: Vec<Metric>,
    per_second: Vec<u64>,
    /// Per-1-s-window series for the results file (µs).
    series: Vec<(String, Vec<f64>)>,
    notes: Vec<String>,
}

fn family(shape: &Shape) -> Family {
    match shape {
        Shape::Net(_) => Family::Net,
        Shape::Sharded => Family::Sharded,
        Shape::Sim => Family::Sim,
    }
}

fn live_pass(w: &Workload, seed: u64, seconds: f64, traced: bool, t: &Tuning, out: &Path) -> Pass {
    match &w.shape {
        Shape::Net(spec) => netload::run(spec, seed, seconds, traced, t, out),
        Shape::Sharded => shardload::run(seed, seconds, traced, t),
        Shape::Sim => simload::run(seed, seconds, traced, t),
    }
}

/// A pass is correct iff nothing failed, nothing violated atomicity or
/// freshness, and the transport saw no decode or I/O error.
fn pass_correct(pass: &Pass, notes: &mut Vec<String>, label: &str) -> bool {
    let w = metrics::window(pass);
    let mut ok = true;
    let mut check = |cond: bool, what: String| {
        if !cond {
            notes.push(format!("{label}: {what}"));
            ok = false;
        }
    };
    check(w.failed == 0, format!("{} ops failed or never finished", w.failed));
    check(
        pass.unfinished == 0,
        format!("{} ops unfinished at the drain deadline", pass.unfinished),
    );
    check(pass.violations == 0, format!("{} checker/freshness violations", pass.violations));
    check(w.completed > 0, "no op completed in the measured window".to_string());
    check(
        pass.end.decode_errors == 0 && pass.end.io_errors == 0,
        format!("{} decode errors, {} io errors", pass.end.decode_errors, pass.end.io_errors),
    );
    ok
}

fn run_untraced(w: &Workload, args: &Args, tuning: &Tuning) -> Report {
    let pass = live_pass(w, args.seed, args.seconds, false, tuning, &args.out);
    let mut notes = Vec::new();
    let correct = pass_correct(&pass, &mut notes, "untraced");
    let win = metrics::window(&pass);
    let all = metrics::end_to_end(&pass, family(&w.shape) == Family::Sim);
    notes.push(format!(
        "window {:.2} s, {} ops checked in {:.2} s, {} threads",
        pass.window_s(),
        pass.ops_checked,
        pass.verify_s,
        pass.threads
    ));
    let mut series = Vec::new();
    for (kind, lat) in [("read", &win.reads), ("write", &win.writes)] {
        for p in [50.0, 90.0, 99.0] {
            let us = lat.per_window(p).iter().map(|ns| ns / 1e3).collect();
            series.push((format!("{kind}_p{p}_us_per_window"), us));
        }
    }
    Report {
        correct,
        attempted: win.attempted.max(1),
        failed: win.failed,
        all,
        per_second: win.per_second,
        series,
        notes,
    }
}

fn replay_for(w: &Workload, args: &Args, tuning: &Tuning) -> (ReplayResult, usize) {
    let timer = workloads::TIMER.as_micros() as u64;
    let ops = tuning.replay_ops;
    match &w.shape {
        Shape::Net(spec) => {
            let dir = spec.durable.then(|| {
                let dir = args.out.join(format!("replay-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                dir
            });
            let rspec = ReplaySpec {
                params: spec.params,
                timer_micros: timer,
                readers: workloads::READERS,
                prelude_registers: workloads::REGISTERS as u32,
                prelude_rounds: spec.prelude_rounds,
                crash: spec.crash,
                crash_midway: None,
                forger: None,
                wire: true,
                durable_dir: dir.clone(),
                ops,
            };
            let gen = OpGen::new(
                args.seed,
                Keys::Uniform(workloads::REGISTERS as u32),
                spec.read_permille,
                workloads::READERS,
            );
            let result = replay::run(&rspec, gen, workloads::REGISTERS);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            (result, ops)
        }
        Shape::Sharded => {
            // One group's worth of layers: every group runs the same
            // code, so per-op costs do not depend on which one serves.
            let keys = Keys::zipf(shardload::NAMESPACE, shardload::ZIPF_THETA);
            let ops = ops.min(shardload::SCHEDULE_PERIOD / shardload::client_threads());
            let rspec = ReplaySpec {
                params: shardload::params(),
                timer_micros: timer,
                readers: 1,
                prelude_registers: 0,
                prelude_rounds: 0,
                crash: None,
                crash_midway: None,
                forger: None,
                wire: true,
                durable_dir: None,
                ops,
            };
            let gen =
                OpGen::new(shardload::thread_seed(args.seed, 0), keys, shardload::READ_PERMILLE, 1);
            (replay::run(&rspec, gen, shardload::NAMESPACE as usize), ops)
        }
        Shape::Sim => {
            let rspec = ReplaySpec {
                params: simload::params(),
                timer_micros: 2 * lucky_core::SYNC_BOUND_MICROS + 1,
                readers: simload::READERS,
                prelude_registers: 0,
                prelude_rounds: 0,
                crash: None,
                crash_midway: Some(simload::CRASHED),
                forger: Some(simload::FORGER),
                wire: false,
                durable_dir: None,
                ops,
            };
            let gen = OpGen::new(
                args.seed,
                Keys::Uniform(simload::REGISTERS as u32),
                simload::READ_PERMILLE,
                simload::READERS,
            );
            (replay::run(&rspec, gen, simload::REGISTERS), ops)
        }
    }
}

/// Share of the first `n` schedule ops on which the live (traced) run
/// and the replay agree on `(rounds, fast)`.
fn verdict_agreement(traced: &Pass, replay: &ReplayResult, n: usize) -> (f64, usize) {
    let n = n.min(replay.verdicts.len());
    // The simulator repeats its pass, so an index can recur; once each.
    let mut seen = vec![false; n];
    let mut compared = 0usize;
    let mut agree = 0usize;
    for s in traced.samples.iter().filter(|s| s.ok && (s.idx as usize) < n) {
        if std::mem::replace(&mut seen[s.idx as usize], true) {
            continue;
        }
        compared += 1;
        agree += usize::from(replay.verdicts[s.idx as usize] == (s.rounds, s.fast));
    }
    (if compared == 0 { 1.0 } else { agree as f64 / compared as f64 }, compared)
}

fn run_traced(w: &Workload, args: &Args, tuning: &Tuning) -> Report {
    // Windows ÷ 3, once with the store's tracing off and once with it
    // on: the difference is the tracing overhead. End-to-end numbers
    // never come from here.
    let seconds = args.seconds / 3.0;
    let short = Tuning { setup_reps: 1, ..*tuning };
    let plain = live_pass(w, args.seed, seconds, false, &short, &args.out);
    let mut traced = live_pass(w, args.seed, seconds, true, &short, &args.out);
    let (replay, replayed) = replay_for(w, args, tuning);

    let mut notes = Vec::new();
    let mut correct = pass_correct(&plain, &mut notes, "trace run, tracing off");
    correct &= pass_correct(&traced, &mut notes, "trace run, tracing on");
    let fam = family(&w.shape);
    let (agreement, compared) = verdict_agreement(&traced, &replay, replayed);
    notes.push(format!(
        "layer replay: {replayed} ops in {:.2} s; live and replay agree on (rounds, fast) for \
         {:.4} of {compared} ops",
        replay.wall_s, agreement
    ));
    // Under saturation and in the contended simulator run, ops collide
    // by design and lose their luck at timing's whim; elsewhere the
    // replay must reproduce the live verdicts.
    let asserted = matches!(w.name, "steady_read_mostly" | "degraded_durable" | "sharded_zipf");
    if asserted && agreement < 0.9 {
        notes.push(format!("replay verdict agreement {agreement:.4} below 0.9"));
        correct = false;
    }
    if w.name == "degraded_durable" && plain.end.recoveries == 0 {
        notes.push("restart replayed no log (log.recoveries == 0)".to_string());
        correct = false;
    }

    let group_of_ns = if fam == Family::Sharded { shardload::group_of_ns(args.seed) } else { 0.0 };
    let all = metrics::per_layer(fam, &plain, &traced, &replay, group_of_ns);
    let win = metrics::window(&plain);

    // The span file: live spans of the traced pass, then the replay's.
    let mut spans = std::mem::take(&mut traced.spans);
    spans.absorb(replay.spans);
    let path = args.out.join(format!("trace-{}.json", w.name));
    if let Err(e) = std::fs::write(&path, spans.to_json(w.name, args.seed)) {
        notes.push(format!("could not write {}: {e}", path.display()));
        correct = false;
    }
    for (name, r) in spans.rollup() {
        notes.push(format!(
            "span {name}: n={} total={} ns self={} ns",
            r.count, r.total_ns, r.self_ns
        ));
    }
    for (name, r) in &replay.calls {
        notes.push(format!("replay {name}: n={} self={} ns", r.count, r.self_ns));
    }
    if let Some(report) = &traced.trace {
        notes.push(format!(
            "store TraceReport: persist p50 <= {} us p99 <= {} us over {} records",
            report.persist_latency.p50(),
            report.persist_latency.p99(),
            report.persist_latency.count()
        ));
    }

    Report {
        correct,
        attempted: win.attempted.max(1),
        failed: win.failed,
        all,
        per_second: win.per_second,
        series: Vec::new(),
        notes,
    }
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"", m.name, m.value, m.unit);
        if with_n && m.n > 0 {
            let _ = write!(out, ", \"n\": {}", m.n);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let tuning = if args.quick { Tuning::quick() } else { Tuning::full() };
    let Some(w) = workloads::by_name(name, &tuning) else {
        eprintln!("unknown workload {name}; the workloads are {:?}", workloads::NAMES);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let report =
        if args.trace { run_traced(&w, args, &tuning) } else { run_untraced(&w, args, &tuning) };

    for m in &report.all {
        let n = if m.n > 0 { format!(" n={}", m.n) } else { String::new() };
        println!("{name} {} {} {}{n}", m.name, m.value, m.unit);
    }
    let tput: Vec<String> = report.per_second.iter().map(u64::to_string).collect();
    println!("# {name} ops completed per 1-s window: [{}]", tput.join(", "));
    for note in &report.notes {
        println!("# {name} {note}");
    }
    let kind = if args.trace { "layers" } else { "e2e" };
    let mut series = String::new();
    for (key, values) in &report.series {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        let _ = write!(series, "\"{key}\": [{}], ", values.join(", "));
    }
    let fragment = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"ops_per_1s_window\": [{}], {series}\"metrics\": {}}}\n",
        args.seed,
        args.seconds,
        report.correct,
        report.attempted,
        report.failed,
        tput.join(", "),
        metrics_json(&report.all, true)
    );
    let _ = std::fs::write(args.out.join(format!("{name}.{kind}.json")), fragment);
    let bounded = |m: &&Metric| args.trace || metrics::END_TO_END.iter().any(|e| e.0 == m.name);
    let contract: Vec<Metric> = report.all.iter().filter(bounded).cloned().collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&contract, false)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in its own child process, untraced then
/// traced, and collect the fragments into `out/results.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut fragments = Vec::new();
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let mut cmd = child(&exe, name, args.seed, trace, args);
            // The child's stdout is ours: its metric lines are the report.
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("{name} --trace {trace}: {status}");
                    all_correct = false;
                }
                Err(e) => {
                    eprintln!("{name} --trace {trace}: could not start: {e}");
                    all_correct = false;
                }
            }
            let kind = if trace == "1" { "layers" } else { "e2e" };
            if let Ok(fragment) =
                std::fs::read_to_string(args.out.join(format!("{name}.{kind}.json")))
            {
                fragments.push(fragment.trim_end().to_string());
            }
        }
    }
    let results = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"quick\": {}, \"correct\": {}, \"runs\": [\n{}\n]}}\n",
        args.seed,
        args.seconds,
        args.quick,
        all_correct,
        fragments.join(",\n")
    );
    let path = args.out.join("results.json");
    if let Err(e) = std::fs::write(&path, results) {
        eprintln!("cannot write {}: {e}", path.display());
        all_correct = false;
    }
    println!("# results: {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child(exe: &Path, name: &str, seed: u64, trace: &str, args: &Args) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
        .arg("--out")
        .arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    cmd
}

/// `repeat.sh`: `n` untraced runs of every workload (seeds `seed ..
/// seed + n`), then min / median / max and the interquartile spread as
/// a share of the median — the quantity the bound in `BENCHMARK.json`
/// is compared against — per workload × end-to-end metric.
fn run_repeat(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot find my own executable");
        return ExitCode::from(2);
    };
    let mut all_correct = true;
    println!("workload metric min median max spread bound spread/bound");
    for name in workloads::NAMES {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        for k in 0..args.repeat {
            let run = child(&exe, name, args.seed + k as u64, "0", args).output();
            let Ok(run) = run else {
                eprintln!("{name}: could not start a run");
                all_correct = false;
                continue;
            };
            all_correct &= run.status.success();
            for line in String::from_utf8_lossy(&run.stdout).lines() {
                let mut f = line.split_whitespace();
                if f.next() != Some(name) {
                    continue;
                }
                let (Some(metric), Some(value)) = (f.next(), f.next()) else { continue };
                if let Some(i) = metrics::END_TO_END.iter().position(|m| m.0 == metric) {
                    values[i].extend(value.parse::<f64>());
                }
            }
        }
        for ((metric, _, bound), xs) in metrics::END_TO_END.iter().zip(&mut values) {
            let Some((q1, median, q3)) = stats::quartiles(xs) else { continue };
            let spread = if median == 0.0 { 0.0 } else { (q3 - q1) / median };
            let verdict = if spread > *bound { "  DOES NOT REPEAT WITHIN ITS BOUND" } else { "" };
            println!(
                "{name} {metric} {} {median} {} {spread:.4} {bound} {:.2}{verdict}",
                xs[0],
                xs[xs.len() - 1],
                spread / bound
            );
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lucky-load: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None if args.repeat > 0 => run_repeat(&args),
        None => run_all(&args),
    }
}
