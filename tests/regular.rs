//! Proposition 7 (Appendix D): the regular variant gives fast lucky
//! WRITEs despite `t − b` failures, fast lucky READs despite `t`
//! failures, and tolerates arbitrarily malicious readers — at the price
//! of regularity instead of atomicity.

use lucky_atomic::checker::Violation;
use lucky_atomic::core::{Setup, SimStore, StoreConfig};
use lucky_atomic::types::{
    Message, Params, ProcessId, ReadSeq, ReaderId, RegisterId, Seq, ServerId, Tag, TsVal, Value,
    WriteMsg,
};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

#[test]
fn fast_writes_despite_t_minus_b_crashes() {
    for (t, b) in [(1usize, 0usize), (2, 1), (3, 1), (3, 2)] {
        let params = Params::trading_reads(t, b).unwrap();
        let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
        for i in 0..(t - b) {
            c.crash_server(i as u16);
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(w.fast, "t={t} b={b}: regular write fast despite t-b crashes");
        c.check_regularity().unwrap();
    }
}

#[test]
fn fast_reads_despite_t_crashes() {
    for (t, b) in [(1usize, 0usize), (2, 1), (3, 1)] {
        let params = Params::trading_reads(t, b).unwrap();
        for crashes in 0..=t {
            let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
            let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            assert!(w.fast);
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            let r = c.register(RegisterId::DEFAULT).read(0);
            assert!(
                r.fast,
                "t={t} b={b} crashes={crashes}: regular lucky reads are fast up to fr = t"
            );
            assert_eq!(r.value.as_u64(), Some(1));
            c.check_regularity().unwrap();
        }
    }
}

#[test]
fn slow_writes_take_two_rounds() {
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
    // Crash beyond fw = t − b = 1: slow path, but only one W round.
    c.crash_server(0);
    c.crash_server(1);
    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert_eq!((w.rounds, w.fast), (2, false));
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert_eq!(r.value.as_u64(), Some(1));
    c.check_regularity().unwrap();
}

/// A malicious reader floods the servers with a forged write-back
/// (value never written by the writer, high timestamp). §5 shows this
/// corrupts the atomic variant; Appendix D's variant ignores reader
/// write-backs, so honest readers are unharmed.
fn poison_with_forged_writeback(c: &mut SimStore) {
    let forged = TsVal::new(Seq(40), Value::from_u64(666));
    let evil_reader = ProcessId::Reader(ReaderId(9)); // not a real process
    for round in 1..=3u8 {
        for i in 0..c.server_count() as u16 {
            c.world_mut().send_as(
                evil_reader,
                server(i),
                Message::Write(WriteMsg {
                    reg: RegisterId::DEFAULT,
                    round,
                    tag: Tag::WriteBack(ReadSeq(1)),
                    c: forged.clone(),
                    frozen: vec![],
                }),
            );
        }
    }
    c.run_for(1_000);
}

#[test]
fn malicious_reader_corrupts_the_atomic_variant() {
    // Control experiment: the §3 algorithm trusts reader write-backs, so
    // a malicious reader can plant a phantom value (the problem §5 states
    // has no known optimally-resilient fix without authentication).
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    poison_with_forged_writeback(&mut c);
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert_eq!(r.value.as_u64(), Some(666), "the forged value wins");
    let err = c.check_atomicity().expect_err("atomicity must be violated");
    assert!(err.0.iter().any(|v| matches!(
        v,
        Violation::InRegister { reg: RegisterId::DEFAULT, violation }
            if matches!(**violation, Violation::PhantomValue { .. })
    )));
}

#[test]
fn malicious_reader_is_harmless_in_the_regular_variant() {
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    poison_with_forged_writeback(&mut c);
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert_eq!(r.value.as_u64(), Some(1), "forged write-backs are ignored");
    for i in 2..=6u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        poison_with_forged_writeback(&mut c);
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(i));
    }
    c.check_regularity().unwrap();
}

#[test]
fn regularity_allows_new_old_inversion_but_never_phantoms() {
    // Without write-backs, two readers may disagree transiently under
    // contention (new/old inversion) — permitted by regularity — but
    // every returned value is genuinely written and never older than the
    // last complete write.
    let params = Params::trading_reads(2, 1).unwrap();
    for seed in 0..20u64 {
        let mut c = StoreConfig::synchronous(Setup::Regular(params))
            .with_seed(seed)
            .readers_per_register(2)
            .build_sim();
        c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        for i in 2..=8u64 {
            let w = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(i));
            let r0 = c.register(RegisterId::DEFAULT).invoke_read(0);
            let r1 = c.register(RegisterId::DEFAULT).invoke_read(1);
            c.world_mut().run_until_all_complete(&[w, r0, r1]).unwrap();
        }
        c.check_regularity().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn byzantine_servers_still_handled() {
    use lucky_atomic::core::byz::{ForgeValue, InflateTs};
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
    c.install_byzantine(2, Box::new(ForgeValue::new(TsVal::new(Seq(30), Value::from_u64(333)))));
    for i in 1..=5u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        assert_eq!(c.register(RegisterId::DEFAULT).read(0).value.as_u64(), Some(i));
    }
    let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
    c.install_byzantine(5, Box::new(InflateTs::new(100)));
    for i in 1..=5u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        assert_eq!(c.register(RegisterId::DEFAULT).read(0).value.as_u64(), Some(i));
    }
}

#[test]
fn regular_reads_never_send_writebacks() {
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(Setup::Regular(params)).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    // Slow-ish conditions: crash t servers.
    c.crash_server(0);
    c.crash_server(1);
    let r = c.register(RegisterId::DEFAULT).read(0);
    // Message budget: one round = S sends + alive replies. Even a slow
    // read only adds READ rounds, never W messages.
    let s = c.server_count() as u64;
    assert!(r.msgs <= r.rounds as u64 * (2 * s), "no write-back traffic");
    c.check_regularity().unwrap();
}
