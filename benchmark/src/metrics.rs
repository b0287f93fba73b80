//! Metric names, units and arithmetic. The names are the contract:
//! `BENCHMARK.json` lists them and a test below holds the two together.

use crate::pass::Pass;
use crate::replay::ReplayResult;
use crate::stats::{last_third_over_first_third, mean, percentile, quantile, Latencies, GOOD_SIDE};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile (0: not a sampled figure).
    pub n: usize,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, n: 0 }
}

fn mn(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric { n, ..m(name, value, unit) }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics `BENCHMARK.json` bounds — defined, non-zero
/// and repeatable on all six workloads — with the bound of each: the
/// share of the parent's median by which it may worsen. Every
/// `--trace 0` run reports exactly these. The other five of the issue's
/// sixteen (`read_p99_us`, `write_p99_us`, `fail_ratio`,
/// `cpu_us_per_op`, `disk_bytes_per_write`) are computed and printed
/// too, and reach `BENCHMARK.json` as `load.`-prefixed diagnostics; the
/// README says why.
pub const END_TO_END: [(&str, &str, f64); 11] = [
    ("setup_s", "s", 0.25),
    ("ops_per_s", "1/s", 0.25),
    ("read_p50_us", "us", 0.25),
    ("read_p90_us", "us", 0.25),
    ("write_p50_us", "us", 0.25),
    ("write_p90_us", "us", 0.25),
    ("fast_ratio", "ratio", 0.05),
    ("rounds_per_op", "rounds/op", 0.03),
    ("msgs_per_op", "msgs/op", 0.03),
    ("wire_bytes_per_op", "B/op", 0.1),
    ("peak_rss_mb", "MiB", 0.25),
];

/// Summary of a pass's measured window, shared by both metric families.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Ops whose completion fell inside the window (for an open loop
    /// this differs from `completed`, which goes by due time): the
    /// throughput the store actually achieved.
    pub finished_in_window: u64,
    pub reads: Latencies,
    pub writes: Latencies,
    pub writes_completed: u64,
    pub fast: u64,
    pub rounds: u64,
    pub sim_msgs: u64,
    pub sim_bytes: u64,
    /// Ops that completed in each whole second of the window.
    pub per_second: Vec<u64>,
}

/// Quantile `q` over the window's whole seconds of `f(second)`; `whole`
/// when the window is shorter than a second (`--quick`).
fn over_seconds(seconds: usize, q: f64, f: impl Fn(usize) -> f64, whole: f64) -> f64 {
    if seconds == 0 {
        return whole;
    }
    quantile(&mut (0..seconds).map(f).collect::<Vec<f64>>(), q)
}

pub fn window(pass: &Pass) -> Window {
    let seconds = (pass.window_s().ceil() as usize).max(1);
    let whole_seconds = pass.window_s().floor() as usize;
    let mut w = Window { per_second: vec![0; whole_seconds], ..Window::default() };
    for s in &pass.samples {
        // A failure anywhere in the pass — prelude, warm-up, tail — is
        // abnormal on these workloads and counts against the run.
        if !s.ok {
            w.failed += 1;
            w.attempted += 1;
            continue;
        }
        if s.done_ns >= pass.t0_ns && s.done_ns < pass.t1_ns {
            w.finished_in_window += 1;
            let second = ((s.done_ns - pass.t0_ns) / 1_000_000_000) as usize;
            if let Some(n) = w.per_second.get_mut(second) {
                *n += 1;
            }
        }
        if !s.measured {
            continue;
        }
        w.attempted += 1;
        w.completed += 1;
        w.fast += u64::from(s.fast);
        w.rounds += u64::from(s.rounds);
        w.sim_msgs += s.msgs;
        w.sim_bytes += s.bytes;
        w.writes_completed += u64::from(s.write);
        let at = if pass.by_due { s.due_ns } else { s.done_ns };
        let second = (at.saturating_sub(pass.t0_ns) / 1_000_000_000) as usize;
        let second = second.min(seconds - 1);
        if s.timed {
            // Nanosecond readings, reported in µs with their fraction.
            let lat = s.latency_ns();
            if s.write {
                w.writes.push(second as u32, lat);
            } else {
                w.reads.push(second as u32, lat);
            }
        }
    }
    w
}

/// All sixteen end-to-end metrics of the issue, from an untraced pass.
/// `sim` selects the simulator's per-op traffic (outcome `msgs`/`bytes`)
/// over the router's counters.
pub fn end_to_end(pass: &Pass, sim: bool) -> Vec<Metric> {
    let w = window(pass);
    let ops = w.completed as f64;
    let (r, wr) = (w.reads.summary(), w.writes.summary());
    let (msgs, bytes) = if sim {
        (w.sim_msgs as f64, w.sim_bytes as f64)
    } else {
        (pass.window.messages as f64, pass.window.wire_bytes as f64)
    };
    let mut setup = pass.setup_s.clone();
    // Throughput and CPU per op are good-side deciles over the
    // window's seconds (see `stats::GOOD_SIDE`) — except an open
    // loop's throughput: there the schedule, not the store, sets the
    // rate, so the plain mean is the honest reading.
    let seconds = w.per_second.len().min(pass.at_second.len().saturating_sub(1));
    let mean_rate = ratio(w.finished_in_window as f64, pass.window_s());
    let ops_per_s = if pass.by_due {
        mean_rate
    } else {
        over_seconds(seconds, 1.0 - GOOD_SIDE, |k| w.per_second[k] as f64, mean_rate)
    };
    let cpu_us_per_op = over_seconds(
        seconds,
        GOOD_SIDE,
        |k| ratio(pass.at_second[k + 1].cpu_us - pass.at_second[k].cpu_us, w.per_second[k] as f64),
        ratio(pass.window.cpu_us, w.finished_in_window as f64),
    );
    vec![
        mn("setup_s", quantile(&mut setup, 0.5), "s", pass.setup_s.len()),
        m("ops_per_s", ops_per_s, "1/s"),
        mn("read_p50_us", r.p50 / 1e3, "us", r.samples),
        mn("read_p90_us", r.p90 / 1e3, "us", r.samples),
        mn("read_p99_us", r.p99 / 1e3, "us", r.samples),
        mn("write_p50_us", wr.p50 / 1e3, "us", wr.samples),
        mn("write_p90_us", wr.p90 / 1e3, "us", wr.samples),
        mn("write_p99_us", wr.p99 / 1e3, "us", wr.samples),
        m("fast_ratio", ratio(w.fast as f64, ops), "ratio"),
        m("rounds_per_op", ratio(w.rounds as f64, ops), "rounds/op"),
        m("fail_ratio", ratio(w.failed as f64, w.attempted as f64), "ratio"),
        m("cpu_us_per_op", cpu_us_per_op, "us/op"),
        m("msgs_per_op", ratio(msgs, ops), "msgs/op"),
        m("wire_bytes_per_op", ratio(bytes, ops), "B/op"),
        m(
            "disk_bytes_per_write",
            ratio(pass.window.log_bytes as f64, w.writes_completed as f64),
            "B/write",
        ),
        m("peak_rss_mb", pass.peak_rss_mb, "MiB"),
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("core.timer_wait_us_per_op", "us/op"),
    ("core.session_ns_per_op", "ns/op"),
    ("core.server_handle_ns_per_msg", "ns/msg"),
    ("core.fast_reads", "count"),
    ("core.slow_reads", "count"),
    ("core.fast_writes", "count"),
    ("core.slow_writes", "count"),
    ("core.ops_rounds_1", "count"),
    ("core.ops_rounds_2", "count"),
    ("core.ops_rounds_3plus", "count"),
    ("wire.encode_ns_per_msg", "ns/msg"),
    ("wire.decode_ns_per_msg", "ns/msg"),
    ("wire.frame_ns_per_frame", "ns/frame"),
    ("wire.bytes_per_msg", "B/msg"),
    ("wire.framing_overhead_ratio", "ratio"),
    ("net.overhead_above_timer_us", "us"),
    ("net.unattributed_us_per_op", "us/op"),
    ("net.submit_us_p50", "us"),
    ("net.queue_wait_us_p50", "us"),
    ("net.wire_msgs", "count"),
    ("net.parts", "count"),
    ("net.parts_per_wire_msg", "parts/msg"),
    ("net.batches_sent", "count"),
    ("net.reactor_wakeups_per_op", "wakeups/op"),
    ("net.frame_allocs", "count"),
    ("net.dropped", "count"),
    ("net.decode_errors", "count"),
    ("net.io_errors", "count"),
    ("net.threads", "count"),
    ("log.persist_ns_per_record", "ns/record"),
    ("log.bytes_per_record", "B/record"),
    ("log.persist_p50_us", "us"),
    ("log.persist_p99_us", "us"),
    ("log.recovery_ms", "ms"),
    ("log.recoveries", "count"),
    ("shard.group_of_ns", "ns"),
    ("shard.first_touch_us_p50", "us"),
    ("shard.materialized", "count"),
    ("shard.group_ops_max_over_mean", "ratio"),
    ("shard.threads", "count"),
    ("sim.wall_ns_per_op", "ns/op"),
    ("sim.virt_read_p50_us", "us"),
    ("sim.virt_write_p50_us", "us"),
    ("sim.msgs_per_op", "msgs/op"),
    ("checker.verify_s", "s"),
    ("checker.ops_checked", "count"),
    ("checker.violations", "count"),
    ("trace.latency_overhead_ratio", "ratio"),
    ("trace.cpu_overhead_us_per_op", "us/op"),
    ("load.gen_lag_p99_us", "us"),
    ("load.offered_ops", "count"),
    ("load.tput_last_third_over_first_third", "ratio"),
    ("load.read_p99_us", "us"),
    ("load.write_p99_us", "us"),
    ("load.fail_ratio", "ratio"),
    ("load.cpu_us_per_op", "us/op"),
    ("load.disk_bytes_per_write", "B/write"),
];

/// Which families a workload's shape exercises; the rest report 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    Net,
    Sharded,
    Sim,
}

fn sorted_ns(xs: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = xs.collect();
    v.sort_unstable();
    v
}

/// Per-layer metrics from the trace run's two live passes (`plain`:
/// tracing off, `traced`: tracing on, same shortened window) and the
/// layer replay.
pub fn per_layer(
    family: Family,
    plain: &Pass,
    traced: &Pass,
    replay: &ReplayResult,
    group_of_ns: f64,
) -> Vec<Metric> {
    let pw = window(plain);
    let plain_e2e = end_to_end(plain, family == Family::Sim);
    let traced_e2e = end_to_end(traced, family == Family::Sim);
    let get =
        |ms: &[Metric], name: &str| ms.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let net = family != Family::Sim;
    let report = traced.trace.as_ref();
    let luck = |f: fn(&lucky_trace::TraceReport) -> u64| report.map_or(0.0, |r| f(r) as f64);
    let rounds_n = |pred: fn(u32) -> bool| {
        traced.samples.iter().filter(|s| s.measured && s.ok && pred(s.rounds)).count() as f64
    };

    // Latency above the protocol's mandatory timer wait, per kind and
    // weighted by the mix: what the `2 × timer` reading of the old
    // `net_driver_write_read_pair_tcp` row hid.
    let (reads, writes) = (pw.reads.len() as f64, pw.writes.len() as f64);
    let timer_read = ratio(replay.timer_wait_read_us as f64, replay.reads as f64);
    let timer_write = ratio(replay.timer_wait_write_us as f64, replay.writes as f64);
    let overhead = if net {
        ratio(
            (get(&plain_e2e, "read_p50_us") - timer_read) * reads
                + (get(&plain_e2e, "write_p50_us") - timer_write) * writes,
            reads + writes,
        )
    } else {
        0.0
    };

    let submit = sorted_ns(plain.measured().map(|s| s.submitted_ns - s.submit_ns));
    let queue_wait = sorted_ns(
        plain
            .measured()
            .filter(|s| s.ok)
            .map(|s| s.latency_ns().saturating_sub(s.store_elapsed_ns)),
    );
    let gen_lag = sorted_ns(plain.measured().map(|s| s.issued_ns.saturating_sub(s.due_ns)));
    let first_touch =
        sorted_ns(plain.samples.iter().filter(|s| s.first_touch && s.ok).map(|s| s.latency_ns()));
    let persist_ns = sorted_ns(replay.persists.iter().map(|p| p.0));
    let persist_bytes: u64 = replay.persists.iter().map(|p| p.1).sum();
    let win = &plain.window;
    let ops = pw.completed as f64;
    let group_mean = mean(&plain.group_ops);
    let group_max = plain.group_ops.iter().copied().max().unwrap_or(0) as f64;
    let sharded = family == Family::Sharded;
    let sim = family == Family::Sim;
    let us = |ns: f64| ns / 1e3;

    // Named here, unit from `PER_LAYER`: a metric added to one list and
    // not the other fails loudly instead of shifting every label by one.
    let values: Vec<(&str, f64)> = vec![
        ("core.timer_wait_us_per_op", replay.timer_wait_us_per_op()),
        ("core.session_ns_per_op", replay.session_ns_per_op()),
        ("core.server_handle_ns_per_msg", replay.server_handle_ns_per_msg()),
        ("core.fast_reads", luck(|r| r.fast_reads)),
        ("core.slow_reads", luck(|r| r.slow_reads)),
        ("core.fast_writes", luck(|r| r.fast_writes)),
        ("core.slow_writes", luck(|r| r.slow_writes)),
        ("core.ops_rounds_1", rounds_n(|r| r == 1)),
        ("core.ops_rounds_2", rounds_n(|r| r == 2)),
        ("core.ops_rounds_3plus", rounds_n(|r| r >= 3)),
        ("wire.encode_ns_per_msg", replay.per_hop("wire.encode")),
        ("wire.decode_ns_per_msg", replay.per_hop("wire.decode")),
        (
            "wire.frame_ns_per_frame",
            replay.per_hop("wire.frame.encode") + replay.per_hop("wire.frame.decode"),
        ),
        ("wire.bytes_per_msg", ratio(win.wire_bytes as f64, win.messages as f64)),
        (
            "wire.framing_overhead_ratio",
            if win.wire_bytes > 0 {
                1.0 - ratio(win.bytes as f64, win.wire_bytes as f64)
            } else {
                0.0
            },
        ),
        ("net.overhead_above_timer_us", overhead),
        ("net.unattributed_us_per_op", if net { overhead - replay.total_us_per_op() } else { 0.0 }),
        ("net.submit_us_p50", if net { us(percentile(&submit, 50.0)) } else { 0.0 }),
        ("net.queue_wait_us_p50", if net { us(percentile(&queue_wait, 50.0)) } else { 0.0 }),
        ("net.wire_msgs", win.messages as f64),
        ("net.parts", win.parts as f64),
        ("net.parts_per_wire_msg", ratio(win.parts as f64, win.messages as f64)),
        ("net.batches_sent", win.batches_sent as f64),
        ("net.reactor_wakeups_per_op", ratio(win.reactor_wakeups as f64, ops)),
        ("net.frame_allocs", win.frame_allocs as f64),
        ("net.dropped", plain.end.dropped as f64),
        ("net.decode_errors", plain.end.decode_errors as f64),
        ("net.io_errors", plain.end.io_errors as f64),
        ("net.threads", if net { plain.threads } else { 0.0 }),
        (
            "log.persist_ns_per_record",
            ratio(persist_ns.iter().sum::<u64>() as f64, persist_ns.len() as f64),
        ),
        ("log.bytes_per_record", ratio(persist_bytes as f64, persist_ns.len() as f64)),
        ("log.persist_p50_us", us(percentile(&persist_ns, 50.0))),
        ("log.persist_p99_us", us(percentile(&persist_ns, 99.0))),
        ("log.recovery_ms", plain.restart_ms),
        ("log.recoveries", plain.end.recoveries as f64),
        ("shard.group_of_ns", if sharded { group_of_ns } else { 0.0 }),
        ("shard.first_touch_us_p50", us(percentile(&first_touch, 50.0))),
        ("shard.materialized", plain.materialized as f64),
        ("shard.group_ops_max_over_mean", if sharded { ratio(group_max, group_mean) } else { 0.0 }),
        ("shard.threads", if sharded { plain.threads } else { 0.0 }),
        ("sim.wall_ns_per_op", plain.sim_wall_ns_per_op),
        ("sim.virt_read_p50_us", percentile(&sorted_ns(plain.virt_read_us.iter().copied()), 50.0)),
        (
            "sim.virt_write_p50_us",
            percentile(&sorted_ns(plain.virt_write_us.iter().copied()), 50.0),
        ),
        ("sim.msgs_per_op", if sim { get(&plain_e2e, "msgs_per_op") } else { 0.0 }),
        ("checker.verify_s", plain.verify_s),
        ("checker.ops_checked", plain.ops_checked as f64),
        ("checker.violations", (plain.violations + traced.violations) as f64),
        (
            "trace.latency_overhead_ratio",
            ratio(
                (get(&traced_e2e, "read_p50_us") - get(&plain_e2e, "read_p50_us")) * reads
                    + (get(&traced_e2e, "write_p50_us") - get(&plain_e2e, "write_p50_us")) * writes,
                get(&plain_e2e, "read_p50_us") * reads + get(&plain_e2e, "write_p50_us") * writes,
            ),
        ),
        (
            "trace.cpu_overhead_us_per_op",
            get(&traced_e2e, "cpu_us_per_op") - get(&plain_e2e, "cpu_us_per_op"),
        ),
        ("load.gen_lag_p99_us", if plain.by_due { us(percentile(&gen_lag, 99.0)) } else { 0.0 }),
        ("load.offered_ops", plain.offered as f64),
        ("load.tput_last_third_over_first_third", last_third_over_first_third(&pw.per_second)),
        ("load.read_p99_us", get(&plain_e2e, "read_p99_us")),
        ("load.write_p99_us", get(&plain_e2e, "write_p99_us")),
        ("load.fail_ratio", get(&plain_e2e, "fail_ratio")),
        ("load.cpu_us_per_op", get(&plain_e2e, "cpu_us_per_op")),
        ("load.disk_bytes_per_write", get(&plain_e2e, "disk_bytes_per_write")),
    ];
    assert!(values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|l| l.0)), "PER_LAYER order");
    PER_LAYER.iter().zip(values).map(|((name, unit), (_, v))| m(name, v, unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (at the repo root, one level above this package)
    /// must name exactly the metrics and workloads the harness reports.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squashed: String = json.split_whitespace().collect();
        for (name, unit, bound) in END_TO_END {
            let needle = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{}\",\"bound\":{bound}}}",
                if matches!(name, "ops_per_s" | "fast_ratio") { "higher" } else { "lower" }
            );
            assert!(squashed.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for (name, unit) in PER_LAYER {
            let needle = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squashed.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for name in crate::workloads::NAMES {
            assert!(squashed.contains(&format!("{{\"name\":\"{name}\",\"why\":")), "{name}");
        }
        let listed = squashed.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "no metric beyond the harness's");
    }

    #[test]
    fn every_contract_metric_is_computed() {
        let e2e = end_to_end(&Pass::default(), false);
        for (name, unit, _) in END_TO_END {
            assert!(e2e.iter().any(|x| x.name == name && x.unit == unit), "{name}");
        }
        // The five end-to-end metrics `BENCHMARK.json` cannot bound (see
        // the README) are still computed under their own names.
        let unbounded =
            ["read_p99_us", "write_p99_us", "fail_ratio", "cpu_us_per_op", "disk_bytes_per_write"];
        for name in unbounded {
            assert!(e2e.iter().any(|x| x.name == name), "{name}");
        }
    }
}
