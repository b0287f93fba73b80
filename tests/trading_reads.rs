//! Proposition 3 / Theorem 5 (Appendix A), *trading (few) reads*: with
//! `fw = t − b` and `fr = t`, the unchanged algorithm guarantees at most
//! **one** slow READ in any sequence of consecutive lucky READs —
//! regardless of how many (≤ t) servers fail.

use lucky_atomic::core::{SimStore, StoreConfig};
use lucky_atomic::types::{Params, ProcessId, RegisterId, ServerId, Value};

/// Run `n` consecutive lucky reads (no concurrent writes) and count the
/// slow ones.
fn slow_in_sequence(c: &mut SimStore, reader: u16, n: usize) -> usize {
    (0..n).filter(|_| !c.register(RegisterId::DEFAULT).read(reader).fast).count()
}

#[test]
fn theorem5_at_most_one_slow_read_per_sequence() {
    for (t, b) in [(1usize, 0usize), (2, 1), (3, 1), (3, 2)] {
        let params = Params::trading_reads(t, b).unwrap();
        // Sweep every crash count up to fr = t and both write luck modes.
        for crashes in 0..=t {
            for seq_len in [1usize, 2, 4, 16] {
                let mut c = StoreConfig::synchronous(params).build_sim();
                let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                assert!(w.fast, "t={t} b={b}: failure-free write is fast");
                for i in 0..crashes {
                    c.crash_server(i as u16);
                }
                let slow = slow_in_sequence(&mut c, 0, seq_len);
                assert!(
                    slow <= 1,
                    "t={t} b={b} crashes={crashes} n={seq_len}: {slow} slow reads \
                     exceed Theorem 5's bound of one"
                );
                c.check_atomicity().unwrap();
            }
        }
    }
}

#[test]
fn theorem5_worst_case_needs_the_one_slow_read() {
    // The bound is tight: with fw = t − b, a fast write reaches only
    // S − fw servers; crash t of the holders and the first lucky read
    // cannot assemble 2b + t + 1 matching pw copies — it must go slow
    // (it "finishes the fast write", App. A.1). The second read is fast.
    let (t, b) = (2usize, 1usize);
    let params = Params::trading_reads(t, b).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    // One server misses the write (PW in transit).
    c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(5)));
    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert!(w.fast, "S - fw = 5 acks suffice for the fast write");
    // Crash two holders (fr = t = 2 tolerated for reads).
    c.crash_server(0);
    c.crash_server(1);
    let first = c.register(RegisterId::DEFAULT).read(0);
    assert!(!first.fast, "first read must finish the fast write (slow)");
    assert_eq!(first.value.as_u64(), Some(1));
    let second = c.register(RegisterId::DEFAULT).read(0);
    assert!(second.fast, "second consecutive lucky read is fast");
    let third = c.register(RegisterId::DEFAULT).read(0);
    assert!(third.fast);
    c.check_atomicity().unwrap();
}

#[test]
fn fast_writes_despite_t_minus_b_failures() {
    for (t, b) in [(2usize, 1usize), (3, 1), (4, 2)] {
        let params = Params::trading_reads(t, b).unwrap();
        let mut c = StoreConfig::synchronous(params).build_sim();
        for i in 0..(t - b) {
            c.crash_server(i as u16);
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(w.fast, "t={t} b={b}: write fast despite t-b = {} crashes", t - b);
        c.check_atomicity().unwrap();
    }
}

#[test]
fn sequences_interrupted_by_writes_reset_the_budget() {
    // Definition 2: a sequence is *consecutive* only without intervening
    // WRITEs. Each write may cost the next sequence one slow read again —
    // but never more than one.
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    // The first write misses one server, then two holders crash: the
    // classic one-slow-read pattern.
    c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(5)));
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    c.world_mut().release_all_from(ProcessId::Writer);
    c.crash_server(0);
    c.crash_server(1);
    for round in 2..=5u64 {
        let slow = slow_in_sequence(&mut c, 0, 4);
        assert!(slow <= 1, "round {round}: {slow} slow in sequence");
        // A new write starts a new sequence; with two crashes it runs
        // slow (quorum 4 < S − fw) but completes, and the budget resets.
        c.register(RegisterId::DEFAULT).write(Value::from_u64(round));
    }
    c.check_atomicity().unwrap();
}

#[test]
fn reads_remain_correct_with_byzantine_plus_crashes_at_fr_equals_t() {
    use lucky_atomic::core::byz::ForgeValue;
    use lucky_atomic::types::{Seq, TsVal};
    let params = Params::trading_reads(2, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.install_byzantine(3, Box::new(ForgeValue::new(TsVal::new(Seq(88), Value::from_u64(888)))));
    c.crash_server(4); // 1 Byzantine + 1 crash = t
    for i in 1..=8u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(i));
    }
    c.check_atomicity().unwrap();
}
