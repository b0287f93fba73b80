//! Op-deadline semantics, end to end.
//!
//! The per-operation deadline is a **session** concern (configured once,
//! enforced inside the sans-io `ClientSession`), so the same behaviour
//! must surface on every runtime:
//!
//! * threaded runtime, whichever wait strategy the store derives or is
//!   given: an operation that cannot assemble a quorum (majority
//!   crashed) fails with [`NetError::TimedOut`] — and tickets are
//!   pollable while the doomed operation is still pending;
//! * simulator: the session abandons the operation at **exactly** the
//!   configured deadline tick, surfacing as
//!   [`RunError::OpFailed`] with the precise virtual instant.

use lucky_atomic::net::{Driver, NetConfig, NetError, NetStore};
use lucky_atomic::sim::RunError;
use lucky_atomic::types::{Params, ProcessId, RegisterId, Value};
use std::time::Duration;

/// S = 3, t = 1 crash-only: crashing two servers makes every quorum
/// unreachable, so operations can only end at the deadline.
fn params() -> Params {
    Params::new(1, 0, 1, 0).unwrap()
}

/// A short timer so the derived op deadline is its floor (1s), keeping
/// the stalled runs bounded in CI.
fn stall_cfg() -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 1,
        timer: Duration::from_millis(1),
    }
}

#[test]
fn derived_strategy_times_out_without_a_quorum() {
    let mut store = NetStore::builder(params(), stall_cfg()).crashed(0).crashed(1).build();
    let h = store.register(RegisterId(0)).unwrap();
    assert_eq!(h.write(Value::from_u64(1)).unwrap_err(), NetError::TimedOut);
    // The failed operation is recorded as incomplete, not completed.
    let history = store.history();
    assert_eq!(history.ops.len(), 1);
    assert!(history.ops[0].completed_at.is_none());
    store.shutdown();
}

#[test]
fn polled_driver_times_out_without_a_quorum_over_tcp() {
    let mut store = NetStore::builder(params(), stall_cfg())
        .driver(Driver::Polled)
        .crashed(0)
        .crashed(1)
        .build();
    let h = store.register(RegisterId(0)).unwrap();
    // Poll the doomed ticket while it is still pending: `is_done` and
    // `wait_for` report in-flight without consuming the outcome.
    let mut ticket = h.invoke_write(Value::from_u64(1));
    assert!(!ticket.is_done(), "operation still in flight");
    assert_eq!(ticket.wait_for(Duration::from_millis(10)).unwrap(), None, "still in flight");
    assert_eq!(ticket.wait().unwrap_err(), NetError::TimedOut);
    let history = store.history();
    assert_eq!(history.ops.len(), 1);
    assert!(history.ops[0].completed_at.is_none());
    store.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn reactor_driver_times_out_without_a_quorum() {
    let mut store = NetStore::builder(params(), stall_cfg())
        .driver(Driver::Reactor)
        .crashed(0)
        .crashed(1)
        .build();
    let h = store.register(RegisterId(0)).unwrap();
    assert_eq!(h.write(Value::from_u64(1)).unwrap_err(), NetError::TimedOut);
    let history = store.history();
    assert_eq!(history.ops.len(), 1);
    assert!(history.ops[0].completed_at.is_none());
    store.shutdown();
}

/// `derived_strategy_times_out_without_a_quorum` on a 5,000-register
/// store: one worker hosts every session, and the one operation in
/// flight — a write on the last register — holds the only live entry of
/// its timer heap. It must still fail `TimedOut` at its deadline, not
/// before and not never.
#[test]
fn a_lone_deadline_fires_among_5000_idle_registers() {
    const REGISTERS: usize = 5_000;
    let cfg = stall_cfg();
    let deadline = cfg.op_deadline();
    let mut store = NetStore::builder(params(), cfg)
        .registers(REGISTERS)
        .shards(1)
        .crashed(0)
        .crashed(1)
        .build();
    let h = store.register(RegisterId(REGISTERS as u32 - 1)).unwrap();
    let start = std::time::Instant::now();
    let mut ticket = h.invoke_write(Value::from_u64(1));
    assert_eq!(ticket.wait_for(2 * deadline).unwrap_err(), NetError::TimedOut);
    assert!(start.elapsed() >= deadline, "failed before its deadline, at {:?}", start.elapsed());
    let history = store.history();
    assert_eq!(history.ops.len(), 1);
    assert!(history.ops[0].completed_at.is_none());
    store.shutdown();
}

#[test]
fn deadline_failures_are_never_reported_as_driver_busy() {
    // The polled driver used to fold `SessionError::Busy` (a driver
    // invariant violation — two ops begun on one session) into
    // `NetError::TimedOut` (a protocol deadline). The two are distinct
    // errors now, each with its own identity and message; a genuine
    // deadline failure must surface as `TimedOut` under every driver
    // (the surrounding tests drive that path per driver), and `Busy`
    // stays unrepresentable through the public API because every driver
    // serializes operations per session before calling `begin`.
    assert_ne!(NetError::TimedOut, NetError::DriverBusy);
    assert_eq!(NetError::TimedOut.to_string(), "operation did not complete within the deadline");
    assert_eq!(
        NetError::DriverBusy.to_string(),
        "driver invariant violation: an operation was already in flight"
    );
    // Queued ops on one session are fine (serialized, never Busy): three
    // writes queued on one handle all complete, each within a few round
    // timers — an op that settles must start its successor in the same
    // pass, or an epoll worker (no timer armed yet, nothing else to wake
    // it) sits on the queue until the op deadline, a second away.
    let cfg = NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 3,
        timer: Duration::from_millis(5),
    };
    let drivers: &[Driver] = if cfg!(target_os = "linux") {
        &[Driver::Polled, Driver::Reactor]
    } else {
        &[Driver::Polled]
    };
    for &driver in drivers {
        let mut store = NetStore::builder(params(), cfg.clone()).driver(driver).build();
        let h = store.register(RegisterId(0)).unwrap();
        let tickets: Vec<_> = (1..=3).map(|i| h.invoke_write(Value::from_u64(i))).collect();
        for (queued, mut t) in tickets.into_iter().enumerate() {
            let within = 20 * cfg.timer * (queued as u32 + 1);
            let out = t
                .wait_for(within)
                .unwrap_or_else(|e| panic!("queued write completes under {driver:?}: {e}"));
            assert!(
                out.is_some(),
                "queued write {queued} still pending after {within:?} under {driver:?}"
            );
        }
        store.shutdown();
    }
}

#[test]
fn ticket_polling_observes_a_completed_op_without_blocking() {
    // Failure-free store: submit, then poll until done.
    let cfg = NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 2,
        timer: Duration::from_millis(5),
    };
    let mut store = NetStore::builder(params(), cfg).build();
    let h = store.register(RegisterId(0)).unwrap();
    let mut ticket = h.invoke_write(Value::from_u64(9));
    let mut outcome = None;
    for _ in 0..1_000 {
        match ticket.wait_for(Duration::from_millis(10)).unwrap() {
            Some(out) => {
                outcome = Some(out);
                break;
            }
            None => continue,
        }
    }
    let out = outcome.expect("write completes well within the polling budget");
    assert_eq!(out.value.as_u64(), Some(9));
    assert!(ticket.is_done(), "settled tickets stay observable");
    // `wait` after polling returns the cached result instead of hanging.
    assert_eq!(ticket.wait().unwrap().value.as_u64(), Some(9));
    store.shutdown();
}

#[test]
fn sim_session_fails_at_the_exact_deadline_tick() {
    const DEADLINE: u64 = 5_000;
    let mut store = lucky_atomic::core::StoreConfig::synchronous(params())
        .with_op_deadline(DEADLINE)
        .build_sim();
    // Hold every link out of the writer: the PW round never reaches any
    // server, so only the deadline can end the operation.
    store.world_mut().hold_all_from(ProcessId::Writer);
    let op = store.register(RegisterId(0)).invoke_write(Value::from_u64(1));
    let invoked_at = store.history().ops[0].invoked_at;
    let err = store.run_until_complete(op).unwrap_err();
    match err {
        RunError::OpFailed { op: failed, at } => {
            assert_eq!(failed, op);
            assert_eq!(at, invoked_at + DEADLINE, "failure lands exactly at the deadline tick");
        }
        other => panic!("expected OpFailed, got {other:?}"),
    }
    assert_eq!(store.world().op_failed(op), Some(invoked_at + DEADLINE));
    // The abandoned operation never completes and the history stays
    // checker-clean (it is a pending op, not a bogus completion).
    assert!(store.history().ops[0].completed_at.is_none());
    store.check_atomicity().unwrap();
}

#[test]
fn sim_majority_crash_also_fails_at_the_deadline() {
    const DEADLINE: u64 = 7_500;
    let mut store = lucky_atomic::core::StoreConfig::synchronous(params())
        .with_op_deadline(DEADLINE)
        .build_sim();
    store.crash_server(0);
    store.crash_server(1);
    let op = store.register(RegisterId(0)).invoke_write(Value::from_u64(2));
    let invoked_at = store.history().ops[0].invoked_at;
    match store.run_until_complete(op).unwrap_err() {
        RunError::OpFailed { at, .. } => assert_eq!(at, invoked_at + DEADLINE),
        other => panic!("expected OpFailed, got {other:?}"),
    }
}

#[test]
fn sim_late_quorum_after_a_deadline_failure_is_discarded() {
    // The operation fails at the deadline, *then* the held PW round is
    // released and the quorum's acks complete the abandoned core: the
    // session must discard that late completion (the client already
    // observed the failure) and the run must not panic.
    const DEADLINE: u64 = 5_000;
    let mut store = lucky_atomic::core::StoreConfig::synchronous(params())
        .with_op_deadline(DEADLINE)
        .build_sim();
    store.world_mut().hold_all_from(ProcessId::Writer);
    let op = store.register(RegisterId(0)).invoke_write(Value::from_u64(1));
    assert!(matches!(store.run_until_complete(op).unwrap_err(), RunError::OpFailed { .. }));
    store.world_mut().release_all_from(ProcessId::Writer);
    store.run_until_idle(100_000);
    assert!(store.history().ops[0].completed_at.is_none(), "the failed op never completes");
    store.check_atomicity().unwrap();
}

#[test]
fn sim_without_a_deadline_still_stalls_as_before() {
    // No configured deadline: the pre-session behaviour (queue drains,
    // RunError::Stalled) is preserved.
    let mut store = lucky_atomic::core::StoreConfig::synchronous(params()).build_sim();
    store.world_mut().hold_all_from(ProcessId::Writer);
    let op = store.register(RegisterId(0)).invoke_write(Value::from_u64(1));
    assert!(matches!(store.run_until_complete(op).unwrap_err(), RunError::Stalled { .. }));
}
