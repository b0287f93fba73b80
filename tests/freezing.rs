//! Theorem 2 (wait-freedom) and the freezing mechanism (§3.1).
//!
//! The hard case is a READ concurrent with an unbounded stream of WRITEs:
//! without help, server registers are overwritten faster than the reader
//! can confirm any value at `b + 1` servers. Freezing — readers signal
//! their timestamp, servers piggyback it on PW acks, the writer freezes a
//! value per READ — guarantees termination. These tests reproduce the
//! starvation pattern, verify freezing defeats it, and check the
//! mechanism's bookkeeping end to end.

use lucky_atomic::core::{ProtocolConfig, Setup, SimStore, StoreConfig};
use lucky_atomic::sim::Delay;
use lucky_atomic::types::{OpId, Params, ProcessId, ReaderId, RegisterId, ServerId, Value};

/// The atomic storm setup: t = 2, b = 1, fw = 1, fr = 0 (S = 6).
fn atomic() -> Setup {
    Setup::Atomic(Params::new(2, 1, 1, 0).unwrap())
}

/// Build the adversarial storm cluster: reader → server links staggered
/// so every round samples non-adjacent write epochs; two servers crashed
/// so the staggered four are exactly the quorum (any `t = 2`, `S = 6`
/// setup).
fn storm_cluster(setup: Setup, freezing: bool, cap: u32, seed: u64) -> SimStore {
    let protocol = ProtocolConfig {
        freezing,
        max_read_rounds: Some(cap),
        ..ProtocolConfig::for_sync_bound(100)
    };
    let mut cfg = StoreConfig::synchronous(setup).with_protocol(protocol).with_seed(seed);
    for i in 0..setup.server_count() as u16 {
        cfg.net.set_link(
            ProcessId::Reader(ReaderId(0)),
            ProcessId::Server(ServerId(i)),
            Delay::Constant(100 + 1_300 * i as u64),
        );
    }
    let mut c = cfg.build_sim();
    c.crash_server(4);
    c.crash_server(5);
    c
}

/// Drive the storm: closed-loop writes until the read completes or
/// `max_writes` writes have run.
fn run_storm(c: &mut SimStore, max_writes: u64) -> (OpId, u64) {
    run_storm_from(c, max_writes, 0)
}

/// Like [`run_storm`] but writing values `base+1, base+2, …` so repeated
/// storms on one cluster keep written values distinct.
fn run_storm_from(c: &mut SimStore, max_writes: u64, base: u64) -> (OpId, u64) {
    let start = c.now() + 2_000;
    let read_op = c.register(RegisterId::DEFAULT).invoke_read_at(start, 0);
    let mut writes = 0;
    while !c.is_complete(read_op) && writes < max_writes {
        writes += 1;
        c.register(RegisterId::DEFAULT).write(Value::from_u64(base + writes));
    }
    c.run_until_idle(5_000_000);
    (read_op, writes)
}

/// Theorem 2 against `setup`: for every seed the storm's read completes
/// within 400 closed-loop writes, and the history keeps the setup's
/// semantics (regular for App. D, atomic otherwise).
fn read_terminates_under_unbounded_writes(setup: Setup) {
    for seed in [1u64, 7, 23] {
        let mut c = storm_cluster(setup, true, 60, seed);
        let (read_op, writes) = run_storm(&mut c, 400);
        let rec = c.history().get(read_op).unwrap();
        assert!(
            rec.is_complete(),
            "{setup:?} seed {seed}: freezing must terminate the read (ran {writes} writes)"
        );
        match setup {
            Setup::Regular(_) => c.check_regularity().unwrap(),
            _ => c.check_atomicity().unwrap(),
        }
    }
}

#[test]
fn theorem2_read_terminates_under_unbounded_writes() {
    read_terminates_under_unbounded_writes(atomic());
}

#[test]
fn regular_read_terminates_under_unbounded_writes() {
    // App. D keeps the freezing hand-shake (frozen entries on the next
    // PW), so the regular READ is wait-free under the same storm.
    read_terminates_under_unbounded_writes(Setup::Regular(Params::trading_reads(2, 1).unwrap()));
}

#[test]
fn ablation_without_freezing_the_read_starves() {
    let mut c = storm_cluster(atomic(), false, 25, 1);
    let (read_op, writes) = run_storm(&mut c, 400);
    let rec = c.history().get(read_op).unwrap();
    assert!(!rec.is_complete(), "without freezing the read must starve ({writes} writes ran)");
}

#[test]
fn frozen_value_satisfies_atomicity() {
    // The value returned via safeFrozen comes from a WRITE concurrent
    // with the READ (Lemma 4) — the checker accepts it and subsequent
    // reads never regress below it.
    let mut c = storm_cluster(atomic(), true, 60, 3);
    let (read_op, writes) = run_storm(&mut c, 400);
    let frozen_read = c.outcome(read_op);
    let returned = frozen_read.value.as_u64().expect("a real value");
    assert!(returned >= 1 && returned <= writes);
    // Subsequent reads (quiet system now) must not return anything older.
    let next = c.register(RegisterId::DEFAULT).read(0);
    assert!(next.value.as_u64().unwrap() >= returned);
    c.check_atomicity().unwrap();
}

#[test]
fn writer_freezes_at_most_one_value_per_read() {
    // Bookkeeping check via the cores directly: covered in unit tests —
    // here we verify the observable consequence: under repeated storms
    // every read terminates with exactly one value and atomicity holds
    // across multiple slow reads of the same reader.
    let mut c = storm_cluster(atomic(), true, 60, 5);
    for storm in 0..3u64 {
        let (read_op, _) = run_storm_from(&mut c, 300, storm * 1_000);
        assert!(c.history().get(read_op).unwrap().is_complete());
    }
    c.check_atomicity().unwrap();
}

#[test]
fn sequential_reads_between_writes_never_need_freezing() {
    // Without contention the freezing machinery stays dormant: reads are
    // fast and no frozen slot is ever consulted (observable as rounds=1).
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    for i in 1..=20u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.fast);
    }
    c.check_atomicity().unwrap();
}

#[test]
fn two_concurrent_slow_readers_both_terminate() {
    // Freezing is per-reader: two starving readers each get their own
    // frozen slot and both terminate.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let protocol =
        ProtocolConfig { max_read_rounds: Some(80), ..ProtocolConfig::for_sync_bound(100) };
    let mut cfg = StoreConfig::synchronous(params).with_protocol(protocol);
    for r in 0..2u16 {
        for i in 0..params.server_count() as u16 {
            cfg.net.set_link(
                ProcessId::Reader(ReaderId(r)),
                ProcessId::Server(ServerId(i)),
                Delay::Constant(100 + 1_300 * ((i + r) % 6) as u64),
            );
        }
    }
    let mut c = cfg.readers_per_register(2).build_sim();
    c.crash_server(4);
    c.crash_server(5);
    let now = c.now();
    let rd0 = c.register(RegisterId::DEFAULT).invoke_read_at(now + 2_000, 0);
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read_at(now + 2_500, 1);
    let mut writes = 0u64;
    while (!c.is_complete(rd0) || !c.is_complete(rd1)) && writes < 600 {
        writes += 1;
        c.register(RegisterId::DEFAULT).write(Value::from_u64(writes));
    }
    c.run_until_idle(8_000_000);
    assert!(c.history().get(rd0).unwrap().is_complete(), "reader 0 terminated");
    assert!(c.history().get(rd1).unwrap().is_complete(), "reader 1 terminated");
    c.check_atomicity().unwrap();
}

/// A starving READ whose only `b + 1` reporters are (or are not) the
/// servers whose PW acks lag behind the writer's early settle.
///
/// S = 8 (t = 3, b = 1, fw = 2): quorum 5, a WRITE settles fast on its
/// 6th ack. The reader's messages are released to one server at a time
/// with two WRITEs in between, so every view it holds is from a
/// different write epoch, no pair is ever vouched for by `b + 1`
/// servers, and only a frozen value can end the READ. Servers 6 and 7
/// are slow towards the writer throughout, so every WRITE settles on the
/// acks of servers 0–5 — except, with `reports_lag`, the first WRITE
/// after servers 0 and 1 learnt of the READ, which settles on 2–7
/// instead: the only two `newread` reports arrive after the writer
/// moved on.
///
/// Returns the READ's outcome and the value of that first WRITE.
fn starving_read_with_two_reporters(
    reports_lag: bool,
) -> (lucky_atomic::core::OpOutcome, u64, SimStore) {
    let params = Params::new(3, 1, 2, 0).unwrap();
    let cfg = StoreConfig::synchronous(params);
    let timer = cfg.protocol.timer_micros;
    let mut c = cfg.build_sim();
    let reader = ProcessId::Reader(ReaderId(0));
    let server = |i: u16| ProcessId::Server(ServerId(i));
    let mut written = 0u64;
    let mut write = |c: &mut SimStore| {
        written += 1;
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(written));
        assert!(w.fast && w.latency < timer, "write {written} settles on its 6th ack");
        written
    };
    // Hand the reader's pending message to server `i` alone and let the
    // reply come back; everything it sends afterwards is held again.
    let deliver = |c: &mut SimStore, i: u16| {
        c.world_mut().release(reader, server(i));
        c.world_mut().hold(reader, server(i));
        c.run_for(300);
    };
    for i in 0..8 {
        c.world_mut().hold(reader, server(i));
    }
    for i in [6, 7] {
        c.world_mut().hold(server(i), ProcessId::Writer);
    }
    write(&mut c);
    let read = c.register(RegisterId::DEFAULT).invoke_read(0);
    c.run_for(300); // past the round-1 timer

    // Round 1: five views from five epochs, no candidate. (A round-1
    // READ leaves no trace at the servers.)
    for i in 0..5 {
        deliver(&mut c, i);
        write(&mut c);
        write(&mut c);
    }
    // Round 2 reaches server 0, then — two WRITEs later — server 1: from
    // here on exactly b + 1 servers report the READ on every PW ack.
    deliver(&mut c, 0);
    write(&mut c);
    write(&mut c);
    deliver(&mut c, 1);

    if reports_lag {
        for i in [6, 7] {
            c.world_mut().release(server(i), ProcessId::Writer);
        }
        for i in [0, 1] {
            c.world_mut().hold(server(i), ProcessId::Writer);
        }
    }
    let first_after_reports = write(&mut c);
    if reports_lag {
        // The two reports arrive now, after the WRITE returned: dropped.
        for i in [0, 1] {
            c.world_mut().release(server(i), ProcessId::Writer);
        }
        for i in [6, 7] {
            c.world_mut().hold(server(i), ProcessId::Writer);
        }
        c.run_for(300);
    }

    // The rest of round 2, same staggering.
    for i in 2..5 {
        write(&mut c);
        write(&mut c);
        deliver(&mut c, i);
    }
    assert!(!c.is_complete(read), "the write-back is still held");
    c.world_mut().release_all_from(reader);
    let outcome = c.run_until_complete(read).expect("the frozen value ends the READ");
    (outcome, first_after_reports, c)
}

#[test]
fn reports_that_miss_an_early_settled_write_ride_the_next_one() {
    // Control: the reporters' acks are among the S − fw the writer
    // settles on. That WRITE freezes its own value for the READ, the
    // next one ships it, and the READ's next round returns it.
    let (on_time, k, c) = starving_read_with_two_reporters(false);
    assert_eq!(on_time.value.as_u64(), Some(k), "frozen by the first WRITE that saw the reports");
    assert_eq!((on_time.rounds, on_time.fast), (2 + 3, false), "round 2, then the write-back");
    c.check_atomicity().unwrap();

    // The reporters are the `fw` laggards of that WRITE: it returns on
    // the other S − fw acks and freezes nothing. Nothing is lost — the
    // servers report the READ again on the next PW ack, *that* WRITE
    // freezes, and the READ ends in the same round, one WRITE later.
    let (lagged, k, c) = starving_read_with_two_reporters(true);
    assert_eq!(lagged.value.as_u64(), Some(k + 1), "frozen exactly one WRITE later");
    assert_eq!((lagged.rounds, lagged.fast), (on_time.rounds, false), "same round bound");
    c.check_atomicity().unwrap();
}
