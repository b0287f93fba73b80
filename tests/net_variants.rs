//! All three protocol variants, and the ABD baseline, on the threaded
//! `lucky-net` runtime.
//!
//! Until the round-engine refactor the threaded runtime could only run
//! the atomic algorithm; these tests pin down that the two-round
//! (App. C) and regular (App. D) variants now run on real threads too,
//! selected through the same [`Setup`] enum the simulator uses — each on
//! a one-register `NetStore`, the paper's single register.
//!
//! Wall-clock timing on a loaded CI machine is not deterministic, so the
//! assertions stick to structural facts: values read, round counts that
//! hold in every schedule, and liveness within the failure budget.

use lucky_atomic::core::Setup;
use lucky_atomic::net::{NetConfig, NetStore};
use lucky_atomic::types::{Params, RegisterId, TwoRoundParams, Value};
use std::time::Duration;

fn fast_cfg() -> NetConfig {
    let mut cfg = NetConfig::for_latency(Duration::from_micros(50), Duration::from_micros(500));
    cfg.seed = 1;
    cfg
}

#[test]
fn atomic_variant_via_setup_enum() {
    let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
    let mut store = NetStore::builder(setup, fast_cfg()).build();
    let h = store.register(RegisterId(0)).unwrap();
    h.write(Value::from_u64(7)).unwrap();
    let r = h.read(0).unwrap();
    assert_eq!(r.value.as_u64(), Some(7));
    store.shutdown();
}

#[test]
fn two_round_variant_runs_on_threads() {
    // t = 1, b = 0, fr = 1 → S = 3, quorum 2.
    let params = TwoRoundParams::new(1, 0, 1).unwrap();
    let mut store = NetStore::builder(params, fast_cfg()).build();
    let h = store.register(RegisterId(0)).unwrap();
    for i in 1..=5u64 {
        let w = h.write(Value::from_u64(i)).unwrap();
        // Structural invariant of App. C: every WRITE takes exactly two
        // rounds and is never fast, on any schedule.
        assert_eq!((w.rounds, w.fast), (2, false));
        let r = h.read(0).unwrap();
        assert_eq!(r.value.as_u64(), Some(i));
    }
    assert!(store.stats().messages > 0);
    store.shutdown();
}

#[test]
fn two_round_variant_survives_crash_within_t() {
    let params = TwoRoundParams::new(1, 0, 1).unwrap();
    let mut store = NetStore::builder(params, fast_cfg()).crashed(0).build();
    let h = store.register(RegisterId(0)).unwrap();
    let w = h.write(Value::from_u64(3)).unwrap();
    assert_eq!(w.rounds, 2);
    let r = h.read(0).unwrap();
    assert_eq!(r.value.as_u64(), Some(3));
    store.shutdown();
}

#[test]
fn regular_variant_runs_on_threads() {
    // Appendix D thresholds: t = 1, b = 0 → fw = 1, fr = 1, S = 3.
    let params = Params::trading_reads(1, 0).unwrap();
    let mut store =
        NetStore::builder(Setup::Regular(params), fast_cfg()).readers_per_register(2).build();
    let h = store.register(RegisterId(0)).unwrap();
    for i in 1..=5u64 {
        h.write(Value::from_u64(i)).unwrap();
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(i));
        assert_eq!(h.read(1).unwrap().value.as_u64(), Some(i));
    }
    store.shutdown();
}

#[test]
fn regular_variant_reads_despite_fr_crash() {
    let params = Params::trading_reads(1, 0).unwrap();
    let mut store = NetStore::builder(Setup::Regular(params), fast_cfg()).crashed(2).build();
    let h = store.register(RegisterId(0)).unwrap();
    h.write(Value::from_u64(9)).unwrap();
    // fr = t = 1: one crash leaves the READ live (and, in a synchronous
    // schedule, fast — not asserted here, wall clocks are not synchrony).
    let r = h.read(0).unwrap();
    assert_eq!(r.value.as_u64(), Some(9));
    store.shutdown();
}

#[test]
fn abd_runs_on_tcp_with_t_servers_crashed() {
    // t = 2 → S = 5; with two servers down every quorum is the other
    // three. ABD's round counts hold on every schedule: a WRITE is one
    // round trip, a READ always two (query, then write-back).
    let mut store = NetStore::builder(Setup::Abd { t: 2 }, fast_cfg())
        .readers_per_register(2)
        .crashed(0)
        .crashed(3)
        .build();
    let h = store.register(RegisterId(0)).unwrap();
    for i in 1..=5u64 {
        let w = h.write(Value::from_u64(i)).unwrap();
        assert_eq!(w.rounds, 1, "ABD writes are one round");
        for j in 0..2 {
            let r = h.read(j).unwrap();
            assert_eq!(r.rounds, 2, "ABD reads are two rounds");
            assert_eq!(r.value.as_u64(), Some(i));
        }
    }
    store.check_atomicity().unwrap();
    store.shutdown();
}

#[test]
fn setup_conversions_pick_the_expected_variant() {
    assert!(matches!(Setup::from(Params::new(1, 0, 1, 0).unwrap()), Setup::Atomic(_)));
    assert!(matches!(Setup::from(TwoRoundParams::new(1, 0, 1).unwrap()), Setup::TwoRound(_)));
}
