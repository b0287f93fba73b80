//! Theorem 13 (Appendix E), "contending with the ghost": if the writer
//! crashes during an incomplete WRITE, every reader has at most **three**
//! slow synchronous READs before returning to fast operation.

use lucky_atomic::core::{SimStore, StoreConfig};
use lucky_atomic::types::{Params, ProcessId, RegisterId, ServerId, Time, Value};

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

/// Crash the writer mid-WRITE such that the PW message reaches only
/// `pw_reach` servers (the rest stay in transit), after a previous fully
/// completed write of `v1`. Returns the cluster, ready for reads.
fn ghost_cluster(params: Params, pw_reach: usize, seed: u64) -> SimStore {
    let mut c =
        StoreConfig::synchronous(params).with_seed(seed).readers_per_register(2).build_sim();
    // A complete first write so the register is non-empty.
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    // The ghost write: PW reaches only the first `pw_reach` servers.
    for i in pw_reach..params.server_count() {
        c.world_mut().hold(ProcessId::Writer, server(i as u16));
    }
    let _ghost = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(2));
    // Crash after the PW sends (5µs in) but before anything else.
    let crash_at = c.now() + 5;
    c.crash_writer_at(RegisterId::DEFAULT, Time(crash_at.micros()));
    c.run_for(2_000);
    c
}

fn count_slow_reads(c: &mut SimStore, reader: u16, n: usize) -> usize {
    let mut slow = 0;
    for _ in 0..n {
        let r = c.register(RegisterId::DEFAULT).read(reader);
        if !r.fast {
            slow += 1;
        }
    }
    slow
}

#[test]
fn at_most_three_slow_reads_after_pw_phase_crash() {
    let params = Params::new(2, 1, 1, 0).unwrap();
    for pw_reach in 0..=params.server_count() {
        let mut c = ghost_cluster(params, pw_reach, 7);
        let slow = count_slow_reads(&mut c, 0, 8);
        assert!(slow <= 3, "pw_reach={pw_reach}: {slow} slow reads exceed Theorem 13's bound of 3");
        c.check_atomicity().unwrap();
    }
}

#[test]
fn bound_holds_per_reader_not_globally() {
    // Each reader independently gets at most 3 slow reads.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = ghost_cluster(params, 3, 9);
    let slow0 = count_slow_reads(&mut c, 0, 6);
    let slow1 = count_slow_reads(&mut c, 1, 6);
    assert!(slow0 <= 3, "reader 0: {slow0} slow reads");
    assert!(slow1 <= 3, "reader 1: {slow1} slow reads");
    c.check_atomicity().unwrap();
}

#[test]
fn crash_during_w_phase_also_recovers() {
    // The writer goes slow (a held PW denies it the fast quorum), sends
    // W round 2, and crashes before round 3.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).readers_per_register(2).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    // Hold two PW links: only 4 acks (= quorum < S − fw), slow path.
    c.world_mut().hold(ProcessId::Writer, server(4));
    c.world_mut().hold(ProcessId::Writer, server(5));
    let _ghost = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(2));
    // Timer expires at +201; W round 2 goes out then. Crash at +260:
    // round 2 delivered to the un-held servers, round 3 never sent.
    let crash_at = c.now() + 260;
    c.crash_writer_at(RegisterId::DEFAULT, Time(crash_at.micros()));
    c.run_for(2_000);

    let slow = count_slow_reads(&mut c, 0, 8);
    assert!(slow <= 3, "{slow} slow reads after W-phase crash");
    // The ghost value v2 was written back by some slow read (it reached
    // pw at a quorum): later reads must all see v2, not v1.
    let r = c.register(RegisterId::DEFAULT).read(1);
    assert_eq!(r.value.as_u64(), Some(2));
    c.check_atomicity().unwrap();
}

#[test]
fn ghost_value_read_consistently_across_readers() {
    // Whatever a first reader rules (adopt or discard the ghost value),
    // all subsequent reads agree — no new/old inversion.
    let params = Params::new(2, 1, 1, 0).unwrap();
    for pw_reach in [1, 2, 3, 4, 5] {
        let mut c = ghost_cluster(params, pw_reach, 11);
        let first = c.register(RegisterId::DEFAULT).read(0).value;
        for k in 0..4 {
            let again = c.register(RegisterId::DEFAULT).read((k % 2) as u16).value;
            assert_eq!(again, first, "pw_reach={pw_reach}");
        }
        c.check_atomicity().unwrap();
    }
}

#[test]
fn fast_operation_resumes_after_recovery() {
    // Once a slow read has written the ghost's resolution back, every
    // later synchronous read is fast again — the system self-heals.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = ghost_cluster(params, 4, 13);
    let _ = c.register(RegisterId::DEFAULT).read(0); // possibly slow
    for _ in 0..5 {
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.fast, "reads must be fast again after recovery");
    }
    c.check_atomicity().unwrap();
}
