//! Acceptance tests for `lucky-trace` wired through the threaded store:
//! the luck-o-meter on a quiet run, the slow-path counter under an
//! induced fallback, and the flight-recorder dump on a forced timeout.

use lucky_atomic::net::{NetConfig, NetError, NetStore, Transport};
use lucky_atomic::trace::TraceConfig;
use lucky_atomic::types::{Params, RegisterId, Value};
use std::time::Duration;

/// A quiet latency band well inside the round-1 timer: every op's acks
/// arrive long before the timer, so the fast path governs.
fn quiet_cfg() -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(300),
        seed: 7,
        timer: Duration::from_millis(10),
    }
}

#[test]
fn quiet_tcp_run_reports_over_ninety_percent_lucky_reads() {
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = NetStore::builder(params, quiet_cfg())
        .transport(Transport::Tcp)
        .trace(TraceConfig::enabled())
        .build();
    let h = store.register(RegisterId(0)).unwrap();
    h.write(Value::from_u64(1)).unwrap();
    for _ in 0..20 {
        h.read(0).unwrap();
    }
    let report = store.trace();
    assert_eq!(report.fast_reads + report.slow_reads, 20, "every read was classified");
    assert!(
        report.lucky_read_ratio() > 0.90,
        "synchrony without contention keeps reads on the fast path: {}/{} lucky",
        report.fast_reads,
        report.fast_reads + report.slow_reads,
    );
    assert_eq!(report.read_latency.count(), 20, "every read latency was recorded");
    assert!(report.read_latency.p50() > 0);
    assert_eq!(report.timeouts, 0);
    // The write was RTT-bound: it settled on its deciding ack, ~0.5 ms
    // in, with the 10 ms round-1 timer still pending.
    assert_eq!((report.fast_writes, report.writes_before_timer), (1, 1));
    // The rollup renders both ways without panicking.
    assert!(report.render_text().contains("lucky"));
    assert!(report.render_text().contains("fast writes: 1 (1 before the timer)"));
    assert!(report.to_json().contains("\"fast_reads\""));
    assert!(report.to_json().contains("\"writes_before_timer\":1"));
    drop(h);
    store.shutdown();
}

#[test]
fn induced_slow_path_shows_up_as_unlucky_ops() {
    // Disable the fast paths: every operation is forced onto the
    // slow (multi-round) path, the deterministic stand-in for a run
    // where contention spoils the luck.
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = NetStore::builder(params, quiet_cfg())
        .protocol(lucky_atomic::core::ProtocolConfig::slow_only(100))
        .trace(TraceConfig::enabled())
        .build();
    let h = store.register(RegisterId(0)).unwrap();
    h.write(Value::from_u64(9)).unwrap();
    for _ in 0..5 {
        h.read(0).unwrap();
    }
    let report = store.trace();
    assert!(report.slow_reads > 0, "the fallback was taken and counted");
    assert_eq!(report.fast_reads, 0, "no read could be lucky with the fast path off");
    assert!(report.lucky_read_ratio() < 0.5);
    assert!(report.slow_ops() > 0);
    // A slow write is never counted as having beaten its timer, even
    // when all S acks started its W rounds before the timer fired.
    assert_eq!((report.fast_writes, report.slow_writes), (0, 1));
    assert_eq!(report.writes_before_timer, 0);
    drop(h);
    store.shutdown();
}

#[test]
fn forced_timeout_dumps_the_flight_recorder_with_the_spans() {
    // S = 3, quorums need 2 servers: with two crashed, no op can ever
    // gather a quorum, so the write runs into its deadline.
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut cfg = quiet_cfg();
    cfg.timer = Duration::from_millis(5); // op deadline = max(200×timer, 1s) = 1s
    let mut store =
        NetStore::builder(params, cfg).crashed(1).crashed(2).trace(TraceConfig::enabled()).build();
    let h = store.register(RegisterId(0)).unwrap();
    let err = h.write(Value::from_u64(1)).unwrap_err();
    assert_eq!(err, NetError::TimedOut);
    let report = store.trace();
    assert_eq!(report.timeouts, 1, "the deadline failure was classified as a timeout");
    assert!(report.dumps > 0, "the failure triggered an automatic dump");
    let dump = report.last_dump.expect("the dump was retained");
    assert!(dump.contains("flight recorder dump"), "dump has its header:\n{dump}");
    assert!(dump.contains("invoke WRITE"), "dump replays the op's invoke mark:\n{dump}");
    assert!(dump.contains("FAILED"), "dump records the failure event:\n{dump}");
    assert!(dump.contains("deadline exceeded"), "dump names the reason:\n{dump}");
    drop(h);
    store.shutdown();
}
