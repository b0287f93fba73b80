//! Propositions 5 and 6 (Appendix C): two-round WRITEs plus fast lucky
//! READs despite `fr` failures exist **iff** `S ≥ 2t + b + min(b, fr) + 1`.
//!
//! The positive direction exercises the Figs 6–8 algorithm at the exact
//! server count; the negative direction scripts the Fig. 5 run (`run4`)
//! at one server fewer and shows the checker catching the violation.

use lucky_atomic::checker::Violation;
use lucky_atomic::core::byz::{ForgeState, SplitBrain};
use lucky_atomic::core::StoreConfig;
use lucky_atomic::types::{
    ProcessId, ReaderId, RegisterId, Seq, ServerId, Time, TsVal, TwoRoundParams, Value,
};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

#[test]
fn every_write_takes_exactly_two_rounds() {
    for (t, b, fr) in [(1usize, 0usize, 1usize), (1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2)] {
        let params = TwoRoundParams::new(t, b, fr).unwrap();
        let mut c = StoreConfig::synchronous(params).build_sim();
        for i in 1..=5u64 {
            let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
            assert_eq!(
                (w.rounds, w.fast),
                (2, false),
                "t={t} b={b} fr={fr}: writes are always exactly two rounds"
            );
        }
        c.check_atomicity().unwrap();
    }
}

#[test]
fn writes_stay_two_rounds_under_t_crashes() {
    let params = TwoRoundParams::new(2, 1, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.crash_server(0);
    c.crash_server(1);
    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert_eq!(w.rounds, 2, "crashes never add write rounds in this variant");
    c.check_atomicity().unwrap();
}

#[test]
fn proposition6_lucky_reads_fast_despite_fr_failures() {
    for (t, b, fr) in [(1usize, 1usize, 1usize), (2, 1, 1), (2, 1, 2), (2, 2, 1)] {
        let params = TwoRoundParams::new(t, b, fr).unwrap();
        for crashes in 0..=fr {
            let mut c = StoreConfig::synchronous(params).build_sim();
            c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            let r = c.register(RegisterId::DEFAULT).read(0);
            assert!(r.fast, "t={t} b={b} fr={fr} crashes={crashes}: lucky read must be fast");
            assert_eq!(r.value.as_u64(), Some(1));
            c.check_atomicity().unwrap();
        }
    }
}

#[test]
fn slow_reads_write_back_in_two_rounds() {
    let params = TwoRoundParams::new(2, 1, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    // Two servers miss the write entirely; crash two holders: only three
    // `w` copies remain, below the fast threshold S − t − fr = 4, so the
    // read goes slow.
    c.world_mut().hold(ProcessId::Writer, server(5));
    c.world_mut().hold(ProcessId::Writer, server(6));
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    c.crash_server(0);
    c.crash_server(1);
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert!(!r.fast);
    assert_eq!(r.rounds, 3, "1 read round + 2 write-back rounds");
    assert_eq!(r.value.as_u64(), Some(1));
    c.check_atomicity().unwrap();
}

/// Fig. 5 `run4` analogue at `S − 1` servers: t = 1, b = 1, fr = 1 gives
/// full `S = 5`; with the shortfall we deploy 4. Blocks: `T1 = {s0}`,
/// `T2 = {s1}`, `B = {s2}` (malicious), `FB = {s3}` (malicious in run5 /
/// crash-equivalent in run2).
#[test]
fn proposition5_one_server_short_violates_atomicity() {
    let params = TwoRoundParams::with_shortfall(1, 1, 1, 1);
    assert_eq!(params.server_count(), 4);
    let mut c = StoreConfig::synchronous(params).readers_per_register(2).build_sim();

    // B = s2 is malicious: faithful to the writer and reader1, amnesiac
    // (forged initial state) towards reader2 — the "forges its state at
    // t2 to σ0" step of run4.
    c.install_byzantine(
        2,
        Box::new(SplitBrain::new([ProcessId::Writer, ProcessId::Reader(ReaderId(0))])),
    );

    // wr1: the writer's messages to T1 = s0 stay in transit; its round-2
    // message to FB = s3 is also lost (the writer crashes mid round 2,
    // having reached only B and T2) — run′′2's message pattern.
    c.world_mut().hold(ProcessId::Writer, server(0));
    let _wr1 = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(1));
    // PW goes out at ~1µs and reaches s1, s2, s3 (quorum 3 = S − t);
    // round 2 goes out at ~+200µs; gate s3 just before so round 2 reaches
    // only s1, s2; the writer then crashes waiting for the third ack.
    c.run_until(Time(150));
    c.world_mut().hold(ProcessId::Writer, server(3));
    c.run_until(Time(1_000));
    c.crash_writer_at(RegisterId::DEFAULT, Time(1_001));
    c.run_until(Time(2_000));

    // rd1 by reader1: its messages to FB = s3 stay in transit; view =
    // T1 (blank), B (w = v1), T2 (w = v1) → fast(v1) holds (S−t−fr = 2).
    c.world_mut().hold(ProcessId::Reader(ReaderId(0)), server(3));
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read(0);
    c.run_until_complete(rd1).expect("rd1 completes fast");
    let rd1_val = c.outcome(rd1).value.clone();
    assert_eq!(rd1_val.as_u64(), Some(1), "rd1 returns the written value fast");

    // rd2 by reader2: T2's replies delayed past the experiment; quorum =
    // T1 (blank), B (forged blank), FB (pw = v1 only). No pair reaches
    // b + 1 = 2 vouchers for v1 and ⊥ is safe+highCand → rd2 returns ⊥.
    c.world_mut().hold(server(1), ProcessId::Reader(ReaderId(1)));
    let rd2 = c.register(RegisterId::DEFAULT).invoke_read(1);
    c.run_until_complete(rd2).expect("rd2 completes");

    let err = c.check_atomicity().expect_err("one server short must break atomicity");
    assert!(
        err.0.iter().any(|v| matches!(
            v,
            Violation::InRegister { reg: RegisterId::DEFAULT, violation }
                if matches!(**violation, Violation::NewOldInversion { .. })
        )),
        "expected a new/old inversion, got: {err}"
    );
}

/// The same adversarial schedule at the full Appendix C server count
/// stays atomic: the extra server gives rd2 a second voucher for `v1`.
#[test]
fn proposition5_full_server_count_survives_the_same_attack() {
    let params = TwoRoundParams::new(1, 1, 1).unwrap();
    assert_eq!(params.server_count(), 5);
    let mut c = StoreConfig::synchronous(params).readers_per_register(2).build_sim();
    c.install_byzantine(
        2,
        Box::new(SplitBrain::new([ProcessId::Writer, ProcessId::Reader(ReaderId(0))])),
    );
    // Same pattern: T1 = s0 never hears the writer; s3 misses round 2.
    // The extra server s4 participates honestly.
    c.world_mut().hold(ProcessId::Writer, server(0));
    let _wr1 = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(1));
    c.run_until(Time(150));
    c.world_mut().hold(ProcessId::Writer, server(3));
    c.run_until(Time(1_000));
    c.crash_writer_at(RegisterId::DEFAULT, Time(1_001));
    c.run_until(Time(2_000));

    c.world_mut().hold(ProcessId::Reader(ReaderId(0)), server(3));
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read(0);
    c.run_until_complete(rd1).expect("rd1 completes");

    c.world_mut().hold(server(1), ProcessId::Reader(ReaderId(1)));
    let rd2 = c.register(RegisterId::DEFAULT).invoke_read(1);
    c.run_until_complete(rd2).expect("rd2 completes");
    c.check_atomicity().expect("full S: the same schedule stays atomic");
}

#[test]
fn forged_prewrite_alone_cannot_fool_a_reader() {
    // A single malicious server forging a pre-written pair (the σ1 trick)
    // cannot reach the b + 1 = 2 safe threshold at full S.
    let params = TwoRoundParams::new(1, 1, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.install_byzantine(
        0,
        Box::new(ForgeState::prewritten(TsVal::new(Seq(1), Value::from_u64(666)))),
    );
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert!(r.value.is_bot(), "the forged value must not be returned");
    c.check_atomicity().unwrap();
}

#[test]
fn freezing_works_in_the_two_round_variant_too() {
    // Reader under a write storm with staggered sampling: terminates via
    // the frozen slot carried on the W message (Fig. 6 line 9).
    use lucky_atomic::core::ProtocolConfig;
    use lucky_atomic::sim::Delay;
    let params = TwoRoundParams::new(2, 1, 1).unwrap();
    let protocol =
        ProtocolConfig { max_read_rounds: Some(40), ..ProtocolConfig::for_sync_bound(100) };
    let mut cfg = StoreConfig::synchronous(params).with_protocol(protocol);
    for i in 0..params.server_count() as u16 {
        cfg.net.set_link(
            ProcessId::Reader(ReaderId(0)),
            server(i),
            Delay::Constant(100 + 1_100 * i as u64),
        );
    }
    let mut c = cfg.build_sim();
    c.crash_server(5);
    c.crash_server(6);
    let start = Time(c.now().micros() + 1_000);
    let read_op = c.register(RegisterId::DEFAULT).invoke_read_at(start, 0);
    let mut i = 0u64;
    while !c.is_complete(read_op) && i < 300 {
        i += 1;
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
    }
    c.run_until_idle(5_000_000);
    assert!(
        c.history().get(read_op).unwrap().is_complete(),
        "freezing lets the read finish under the storm"
    );
    c.check_atomicity().unwrap();
}
