//! Baseline sanity: the ABD register (crash-only) against which the
//! benchmark tables compare, and the structural comparison facts the
//! paper's introduction cites (ABD reads always pay two rounds; lucky
//! reads pay one).

use lucky_atomic::core::{Setup, SimStore, StoreConfig};
use lucky_atomic::types::{Params, RegisterId, Value};
use proptest::prelude::*;

/// An ABD store with `readers` readers on the paper's one register.
fn abd(cfg: StoreConfig, readers: usize) -> SimStore {
    cfg.readers_per_register(readers).build_sim()
}

#[test]
fn abd_round_counts_are_constant() {
    for t in 1..=4usize {
        let mut c = abd(StoreConfig::synchronous(Setup::Abd { t }), 1);
        for i in 1..=5u64 {
            let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
            assert_eq!(w.rounds, 1, "ABD writes are one round at t={t}");
            let r = c.register(RegisterId::DEFAULT).read(0);
            assert_eq!(r.rounds, 2, "ABD reads are two rounds at t={t}");
            assert_eq!(r.value.as_u64(), Some(i));
        }
        c.check_atomicity().unwrap();
    }
}

#[test]
fn lucky_reads_beat_abd_reads_in_rounds_and_latency() {
    // Same synchronous network, same t: the lucky read takes one round,
    // ABD's takes two — and wall-clock (virtual) latency reflects it,
    // modulo the lucky round-1 timer which waits out the synchrony bound.
    let t = 2;
    let params = Params::new(t, 0, 1, 1).unwrap();
    let mut lucky = StoreConfig::synchronous(params).build_sim();
    let mut abd = abd(StoreConfig::synchronous(Setup::Abd { t }), 1);
    lucky.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    abd.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    let lr = lucky.register(RegisterId::DEFAULT).read(0);
    let ar = abd.register(RegisterId::DEFAULT).read(0);
    assert_eq!(lr.rounds, 1);
    assert_eq!(ar.rounds, 2);
    assert_eq!(lr.value.as_u64(), ar.value.as_u64());
}

#[test]
fn abd_handles_partial_writes_via_reader_writeback() {
    use lucky_atomic::types::{ProcessId, ServerId};
    let mut c = abd(StoreConfig::synchronous(Setup::Abd { t: 2 }), 2);
    // The writer reaches only a bare majority.
    c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(0)));
    c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(1)));
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    // Crash two of the three holders *after* a first read has written the
    // value back to a majority — the value must survive.
    let r1 = c.register(RegisterId::DEFAULT).read(0);
    assert_eq!(r1.value.as_u64(), Some(1));
    c.crash_server(2);
    c.crash_server(3);
    let r2 = c.register(RegisterId::DEFAULT).read(1);
    assert_eq!(r2.value.as_u64(), Some(1), "write-back preserved the value");
    c.check_atomicity().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// ABD stays atomic under random asynchrony, crashes and interleaved
    /// reads — the reference implementation for the checker itself.
    #[test]
    fn abd_atomic_under_random_schedules(
        t in 1usize..4,
        seed in 0u64..10_000,
        crashes in 0usize..3,
        ops in proptest::collection::vec((0u8..3, 0u16..2), 1..20),
    ) {
        let mut c = abd(StoreConfig::asynchronous(Setup::Abd { t }).with_seed(seed), 2);
        for i in 0..crashes.min(t) {
            c.crash_server(i as u16);
        }
        let mut next = 1u64;
        for (kind, r) in ops {
            match kind {
                0 => {
                    let op = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(next));
                    next += 1;
                    c.run_until_complete(op).unwrap();
                }
                1 => {
                    let op = c.register(RegisterId::DEFAULT).invoke_read(r);
                    c.run_until_complete(op).unwrap();
                }
                _ => {
                    let w = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(next));
                    next += 1;
                    let rd = c.register(RegisterId::DEFAULT).invoke_read(r);
                    c.run_until_all_complete(&[w, rd]).unwrap();
                }
            }
        }
        c.check_atomicity().map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}
