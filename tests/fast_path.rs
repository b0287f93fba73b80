//! Theorems 3 and 4 (§3.4): lucky operations are fast up to their
//! thresholds, and the thresholds trade off exactly as `fw + fr = t − b`.

use lucky_atomic::core::StoreConfig;
use lucky_atomic::types::{Params, ProcessId, RegisterId, Seq, ServerId, TsVal, Value};

/// Every (t, b, fw, fr) configuration on the tight bound used across the
/// fast-path tests.
fn bound_configs() -> Vec<Params> {
    let mut out = Vec::new();
    for (t, b) in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)] {
        for fw in 0..=(t - b) {
            let fr = t - b - fw;
            out.push(Params::new(t, b, fw, fr).unwrap());
        }
    }
    out
}

#[test]
fn theorem3_lucky_writes_fast_up_to_fw_crashes() {
    for params in bound_configs() {
        for crashes in 0..=params.fw() {
            let mut c = StoreConfig::synchronous(params).build_sim();
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            assert!(
                w.fast && w.rounds == 1,
                "{params}: lucky write must be fast with {crashes} ≤ fw crashes"
            );
            c.check_atomicity().unwrap();
        }
    }
}

#[test]
fn theorem3_lucky_writes_complete_slow_beyond_fw() {
    for params in bound_configs() {
        if params.fw() == params.t() {
            continue; // cannot exceed fw within the fault budget
        }
        let crashes = params.fw() + 1;
        let mut c = StoreConfig::synchronous(params).build_sim();
        for i in 0..crashes {
            c.crash_server(i as u16);
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(
            !w.fast && w.rounds == 3,
            "{params}: write with {crashes} > fw crashes must use the 3-round slow path"
        );
        c.check_atomicity().unwrap();
    }
}

#[test]
fn theorem4_lucky_reads_fast_up_to_fr_crashes() {
    for params in bound_configs() {
        for crashes in 0..=params.fr() {
            // After a fast write...
            let mut c = StoreConfig::synchronous(params).build_sim();
            let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
            assert!(w.fast);
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            let r = c.register(RegisterId::DEFAULT).read(0);
            assert!(
                r.fast && r.rounds == 1,
                "{params}: lucky read must be fast with {crashes} ≤ fr crashes"
            );
            assert_eq!(r.value.as_u64(), Some(1));
            c.check_atomicity().unwrap();
        }
    }
}

#[test]
fn theorem4_lucky_reads_fast_after_slow_writes_too() {
    // The fastvw path: a slow (3-round) write leaves vw at S − t servers;
    // a lucky read confirms it at b + 1 of them.
    for params in bound_configs() {
        let mut c = StoreConfig::synchronous(params).build_sim();
        // Force the slow write path by holding one PW message per missing
        // fast ack.
        let missing = params.fw() + 1;
        if missing > params.t() {
            continue;
        }
        for i in 0..missing {
            c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(i as u16)));
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(!w.fast, "{params}: write was meant to go slow");
        // Release: the system is now failure-free and quiet.
        c.world_mut().release_all_from(ProcessId::Writer);
        c.run_for(1_000);
        for crashes in 0..=params.fr() {
            for i in 0..crashes {
                c.crash_server(i as u16);
            }
            let r = c.register(RegisterId::DEFAULT).read(0);
            assert!(r.fast, "{params}: lucky read after slow write, {crashes} ≤ fr crashes");
            assert_eq!(r.value.as_u64(), Some(1));
        }
        c.check_atomicity().unwrap();
    }
}

#[test]
fn early_settled_write_keeps_the_next_read_lucky_in_the_worst_case() {
    // The WRITE returns on its (S − fw)-th PW ack instead of waiting the
    // timer out, so up to `fw` *correct* servers may not hold `pw` yet
    // when it returns — the case the timer used to hide in synchronous
    // runs. `fastpw = S − fw − fr` was sized for exactly this: the next
    // lucky READ stays fast even if `fr` of the servers that did ack
    // fail and the READ reaches every laggard before its PW does.
    for params in bound_configs() {
        let s = params.server_count() as u16;
        let (fw, fr) = (params.fw() as u16, params.fr() as u16);
        let server = |i: u16| ProcessId::Server(ServerId(i));
        let cfg = StoreConfig::synchronous(params);
        let timer = cfg.protocol.timer_micros;
        let mut c = cfg.build_sim();
        // An older value everywhere, so a laggard answers with something
        // the reader could wrongly prefer.
        assert!(c.register(RegisterId::DEFAULT).write(Value::from_u64(1)).fast);
        c.run_for(1_000);

        // The PW to exactly `fw` correct servers stays in transit.
        for i in (s - fw)..s {
            c.world_mut().hold(ProcessId::Writer, server(i));
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(2));
        assert!(w.fast && w.rounds == 1, "{params}: {fw} laggards must not unluck the write");
        assert!(
            w.latency < timer,
            "{params}: settled on the (S − fw)-th ack after {} µs, not at the {timer} µs timer",
            w.latency
        );
        assert_eq!(w.msgs, u64::from(2 * s - fw), "{params}: S sends + exactly S − fw acks");
        for i in (s - fw)..s {
            assert_eq!(c.world().held_count(ProcessId::Writer, server(i)), 1);
        }

        // After the return, `fr` of the servers that acked fail: crashes,
        // and with b > 0 one of them turns into a forger that lies to
        // readers from now on.
        let forger = u16::from(params.b() > 0 && fr > 0);
        if forger == 1 {
            c.install_forge_value(0, TsVal::new(Seq(99), Value::from_u64(666)));
        }
        for i in forger..fr {
            c.crash_server(i);
        }

        // A READ invoked after that return reaches the laggards before
        // their PW does: still one round, still the written value.
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(
            r.fast && r.rounds == 1,
            "{params}: lucky read after an early-settled write, {fw} laggards + {fr} failures"
        );
        assert_eq!(r.value.as_u64(), Some(2), "{params}");

        c.world_mut().release_all_from(ProcessId::Writer);
        c.run_for(1_000);
        c.check_atomicity().unwrap();
    }
}

#[test]
fn one_laggard_too_many_keeps_luck_in_doubt_until_the_timer() {
    // S − fw − 1 acks never decide Fig. 1 line 8: the write waits its
    // timer out and then goes slow, exactly as the paper's writer does.
    for params in bound_configs() {
        if params.fw() == params.t() {
            continue; // fw + 1 laggards would starve the quorum
        }
        let cfg = StoreConfig::synchronous(params);
        let timer = cfg.protocol.timer_micros;
        let mut c = cfg.build_sim();
        for i in 0..=params.fw() as u16 {
            c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(i)));
        }
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(!w.fast && w.rounds == 3, "{params}: fw + 1 laggards force the slow path");
        assert!(w.latency >= timer, "{params}: no decision before the timer ({} µs)", w.latency);
        c.world_mut().release_all_from(ProcessId::Writer);
        c.run_for(1_000);
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(1));
        c.check_atomicity().unwrap();
    }
}

#[test]
fn reads_under_contention_are_not_guaranteed_fast_but_stay_atomic() {
    let params = Params::new(2, 1, 0, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).readers_per_register(2).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    for i in 2..=20u64 {
        let w = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(i));
        let r = c.register(RegisterId::DEFAULT).invoke_read((i % 2) as u16);
        c.world_mut().run_until_all_complete(&[w, r]).unwrap();
    }
    c.check_atomicity().unwrap();
}

#[test]
fn asynchrony_unlucks_operations_but_preserves_atomicity() {
    for seed in 0..20 {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut c =
            StoreConfig::asynchronous(params).with_seed(seed).readers_per_register(2).build_sim();
        for i in 1..=10u64 {
            c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
            let r = c.register(RegisterId::DEFAULT).read((i % 2) as u16);
            assert_eq!(r.value.as_u64(), Some(i), "seed {seed}");
        }
        c.check_atomicity().unwrap();
    }
}

#[test]
fn fast_write_stores_at_s_minus_fw_and_fast_read_leaves_no_trace() {
    // §3.1: "a fast READ rd must itself leave behind enough information"
    // — i.e. it sends nothing after round 1. We verify via message count:
    // a fast read exchanges exactly 2S messages (S requests + S replies).
    let params = Params::new(2, 1, 0, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert!(r.fast);
    assert_eq!(r.msgs, 2 * params.server_count() as u64);
}

#[test]
fn slow_write_message_complexity_is_three_rounds() {
    let params = Params::new(2, 1, 0, 1).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.crash_server(0); // fw = 0: any crash forces the slow path
    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert!(!w.fast);
    // 3 rounds × S sends; replies from the 5 alive servers, except the
    // final round's last ack, which lands after the write completed at
    // quorum and is no longer attributed to the operation.
    let s = params.server_count() as u64;
    let quorum = (params.server_count() - params.t()) as u64;
    assert_eq!(w.msgs, 3 * s + 2 * (s - 1) + quorum);
}

#[test]
fn values_survive_sequences_of_mixed_luck() {
    // Alternate lucky and unlucky phases; the register never loses data.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    for i in 1..=30u64 {
        if i % 3 == 0 {
            // Unlucky phase: gate a couple of PW links for this write.
            c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(0)));
            c.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(1)));
        }
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        c.world_mut().release_all_from(ProcessId::Writer);
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(i));
    }
    c.check_atomicity().unwrap();
}
