//! §5 "Trading writes": sacrificing the fast write path entirely (remove
//! Fig. 1 line 8) buys fast lucky READs despite the failure of `fr = t`
//! servers — the dual of Appendix A's trade.

use lucky_atomic::core::{ProtocolConfig, SimStore, StoreConfig};
use lucky_atomic::types::{Params, ProcessId, RegisterId, ServerId, Value};

fn slow_writes_cluster(t: usize, b: usize) -> SimStore {
    // fw is irrelevant once the fast path is off; keep fr = t - b for the
    // Params constructor and disable fast writes in the protocol config.
    let params = Params::new(t, b, 0, t - b).unwrap();
    let protocol = ProtocolConfig { fast_writes: false, ..ProtocolConfig::for_sync_bound(100) };
    StoreConfig::synchronous(params).with_protocol(protocol).build_sim()
}

#[test]
fn every_lucky_read_fast_despite_t_failures() {
    for (t, b) in [(1usize, 0usize), (2, 1), (3, 1), (2, 2)] {
        for crashes in 0..=t {
            let mut c = slow_writes_cluster(t, b);
            let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            assert_eq!((w.rounds, w.fast), (3, false), "writes are always slow");
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            let r = c.register(RegisterId::DEFAULT).read(0);
            assert!(
                r.fast,
                "t={t} b={b} crashes={crashes}: with slow writes, every lucky \
                 read is fast up to fr = t failures"
            );
            assert_eq!(r.value.as_u64(), Some(1));
            c.check_atomicity().unwrap();
        }
    }
}

#[test]
fn reads_stay_fast_even_under_worst_case_crash_patterns() {
    // The slow write anchors vw at S − t servers; any t crashes leave
    // b + 1 correct vw holders in every quorum — fastvw always holds.
    let (t, b) = (2usize, 1usize);
    let mut c = slow_writes_cluster(t, b);
    // One server misses the write entirely (messages in transit).
    c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(5)));
    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert!(!w.fast);
    // Crash two *holders* — the pattern that breaks fast reads when
    // writes are fast (T1) — yet the read stays fast here.
    c.crash_server(0);
    c.crash_server(1);
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert!(r.fast, "worst-case crash pattern cannot un-luck reads");
    assert_eq!(r.value.as_u64(), Some(1));
    c.check_atomicity().unwrap();
}

#[test]
fn trade_is_real_writes_never_fast() {
    let mut c = slow_writes_cluster(2, 1);
    for i in 1..=10u64 {
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        assert!(!w.fast);
        assert_eq!(w.rounds, 3);
    }
    c.check_atomicity().unwrap();
}

#[test]
fn byzantine_server_does_not_spoil_the_trade() {
    use lucky_atomic::core::byz::InflateTs;
    let params = Params::new(2, 1, 0, 1).unwrap();
    let protocol = ProtocolConfig { fast_writes: false, ..ProtocolConfig::for_sync_bound(100) };
    let mut c = StoreConfig::synchronous(params).with_protocol(protocol).build_sim();
    c.install_byzantine(3, Box::new(InflateTs::new(50)));
    c.crash_server(4); // full budget: 1 Byzantine + 1 crash = t
    for i in 1..=6u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(i));
        assert!(r.fast, "lucky reads stay fast at the full fault budget");
    }
    c.check_atomicity().unwrap();
}
