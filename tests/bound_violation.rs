//! Executable reconstructions of the paper's impossibility proofs.
//!
//! * Proposition 2 (§4, Fig. 4): no optimally-resilient atomic storage has
//!   every lucky write fast despite `fw` failures *and* every lucky read
//!   fast despite `fr` failures when `fw + fr > t − b`. We instantiate the
//!   *naive generalization* of the paper's own algorithm (accepting
//!   `S − fw − fr` fast-read confirmations, which any such algorithm must)
//!   and script the adversarial schedule of runs r1–r5: the checker
//!   catches a new/old inversion. The **same schedule** against the
//!   correctly-configured algorithm stays atomic.
//!
//! * Proposition 4 (App. B): no optimally-resilient *safe* storage has
//!   fast lucky writes despite `fw > t − b` failures. Scripted analogue
//!   with a split-brain server: the checker catches a stale read.
//!
//! Block layout for t = 2, b = 1 (S = 6), matching the proof's sets:
//! `B1 = {s0}` (malicious), `B2 = {s1}` (malicious), `T1 = {s2, s3}`,
//! `Fr = {s4}`, `Fw = {s5}`.

use lucky_atomic::checker::Violation;
use lucky_atomic::core::byz::SplitBrain;
use lucky_atomic::core::{ProtocolConfig, StoreConfig};
use lucky_atomic::types::{Params, ProcessId, ReaderId, RegisterId, ServerId, Time, Value};

#[allow(dead_code)] // named for symmetry with the proof's block layout
const B1: u16 = 0;
const B2: u16 = 1;
const T1A: u16 = 2;
const T1B: u16 = 3;
const FR: u16 = 4;
const FW: u16 = 5;

fn server(i: u16) -> ProcessId {
    ProcessId::Server(ServerId(i))
}

/// Script the Fig. 4 schedule (the run `r4` that the proof shows must
/// violate atomicity) against a cluster configured with the given
/// parameters and (optionally) the naive fast-read threshold. Returns the
/// atomicity check result.
fn run_fig4_schedule(
    params: Params,
    naive_fastpw: Option<usize>,
) -> Result<(), lucky_atomic::checker::Violations> {
    let protocol =
        ProtocolConfig { fastpw_override: naive_fastpw, ..ProtocolConfig::for_sync_bound(100) };
    let mut c = StoreConfig::synchronous(params)
        .with_protocol(protocol)
        .readers_per_register(2)
        .build_sim();

    // B2 equivocates: faithful to the writer and reader1 (r0); towards
    // reader2 (r1) it pretends it never heard from them.
    c.install_byzantine(
        B2,
        Box::new(SplitBrain::new([ProcessId::Writer, ProcessId::Reader(ReaderId(0))])),
    );

    // wr1: the writer's PW reaches B1, B2 and T1 only; the messages to Fr
    // and Fw stay in transit forever, and the writer crashes before its W
    // phase (it received only 4 = S − t acks, timer at 201µs, so it would
    // move to the W phase at 201µs — crash it at 150µs, after the PW
    // sends, before any further step).
    c.world_mut().hold(ProcessId::Writer, server(FR));
    c.world_mut().hold(ProcessId::Writer, server(FW));
    let _wr1 = c.register(RegisterId::DEFAULT).invoke_write(Value::from_u64(1));
    c.crash_writer_at(RegisterId::DEFAULT, Time(150));
    c.run_until(Time(1_000));

    // rd1 by reader1 (r0): lucky; its messages to Fr stay in transit
    // (both directions), so its round-1 view is B1, B2, T1×2 (all holding
    // ⟨1, v1⟩) plus Fw (initial).
    c.world_mut().hold(ProcessId::Reader(ReaderId(0)), server(FR));
    c.world_mut().hold(server(FR), ProcessId::Reader(ReaderId(0)));
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read(0);
    c.run_until(Time(3_000));

    // rd2 by reader2 (r1): T1's replies to it are delayed past the end of
    // the experiment, so its quorum is B1 (honest, pre-wrote v1),
    // B2 (equivocating: blank), Fr and Fw (honest, never saw the write).
    c.world_mut().hold(server(T1A), ProcessId::Reader(ReaderId(1)));
    c.world_mut().hold(server(T1B), ProcessId::Reader(ReaderId(1)));
    let rd2 = c.register(RegisterId::DEFAULT).invoke_read(1);
    c.run_until_complete(rd2).expect("rd2 must complete");

    // rd1 must have completed too (fast, before rd2 started).
    assert!(c.is_complete(rd1), "rd1 should have completed fast at t≈201µs");
    c.check_atomicity()
}

#[test]
fn proposition2_naive_thresholds_beyond_bound_violate_atomicity() {
    // t = 2, b = 1: the bound is fw + fr ≤ 1. Inflate to fw = 1, fr = 1.
    let params = Params::new_unchecked(2, 1, 1, 1);
    assert!(!params.within_tight_bound());
    let naive = params.naive_fastpw_threshold(); // S − fw − fr = 4 < 2b+t+1
    let err = run_fig4_schedule(params, Some(naive))
        .expect_err("the Fig. 4 schedule must violate atomicity beyond the bound");
    // rd1 returned v1 (fast, from 4 = S−fw−fr confirmations); rd2 then
    // returned ⊥: a new/old inversion — condition (4) of §2.2.
    assert!(
        err.0.iter().any(|v| matches!(
            v,
            Violation::InRegister { reg: RegisterId::DEFAULT, violation }
                if matches!(**violation, Violation::NewOldInversion { .. })
        )),
        "expected a new/old inversion, got: {err}"
    );
}

#[test]
fn proposition2_same_schedule_is_atomic_within_the_bound() {
    // The identical adversarial schedule against the correctly-configured
    // algorithm (fw = 1, fr = 0; fastpw = 2b + t + 1 = 5): rd1 cannot
    // decide fast from 4 confirmations, writes back, and rd2 sees the
    // written-back value. Atomicity holds.
    let params = Params::new(2, 1, 1, 0).unwrap();
    run_fig4_schedule(params, None).expect("the paper's thresholds must stay atomic");
}

#[test]
fn proposition2_bound_is_exactly_the_naive_threshold_crossover() {
    // Directly characterize the crossover: within the bound the naive
    // formula is ≥ the paper constant (safe); beyond it, strictly below.
    for (t, b) in [(1usize, 0usize), (2, 1), (3, 1), (3, 2), (4, 1)] {
        for fw in 0..=t {
            for fr in 0..=(t - fw.min(t)) {
                let p = Params::new_unchecked(t, b, fw, fr.min(t));
                if p.within_tight_bound() {
                    assert!(p.naive_fastpw_threshold() >= p.fastpw_threshold());
                } else {
                    assert!(p.naive_fastpw_threshold() < p.fastpw_threshold());
                }
            }
        }
    }
}

/// Appendix B (Proposition 4): with `fw > t − b`, a *complete* fast lucky
/// write can be made invisible to a later contention-free read — a
/// safeness violation. Schedule: the r3-analogue.
#[test]
fn proposition4_fast_writes_beyond_t_minus_b_violate_safeness() {
    // Inflate fw to 2 > t − b = 1 (fr = 0). The writer then accepts
    // S − fw = 4 PW acks for a fast write.
    let params = Params::new_unchecked(2, 1, 2, 0);
    let mut c = StoreConfig::synchronous(params).build_sim();

    // B2 equivocates: faithful to the writer, blank towards readers.
    c.install_byzantine(B2, Box::new(SplitBrain::new([ProcessId::Writer])));

    // Fw = {s4, s5} never hear from the writer (messages in transit).
    c.world_mut().hold(ProcessId::Writer, server(FR));
    c.world_mut().hold(ProcessId::Writer, server(FW));

    // wr1 completes FAST with acks from B1, B2, T1×2 (4 = S − fw).
    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert!(w.fast, "inflated fw lets the write complete in one round");

    // The read: T1's replies delayed past the experiment; quorum = B1
    // (honest, has v1), B2 (lies: blank), s4, s5 (honest, never saw v1).
    c.world_mut().hold(server(T1A), ProcessId::Reader(ReaderId(0)));
    c.world_mut().hold(server(T1B), ProcessId::Reader(ReaderId(0)));
    let r = c.register(RegisterId::DEFAULT).read(0);
    assert!(r.value.is_bot(), "the completed write is invisible: read returned ⊥");

    // Safeness (and a fortiori atomicity) is violated: the read is
    // contention-free and succeeds a complete write.
    let err = c.check_safeness().expect_err("safeness must be violated");
    assert!(
        err.0.iter().any(|v| matches!(
            v,
            Violation::InRegister { reg: RegisterId::DEFAULT, violation }
                if matches!(**violation, Violation::StaleRead { .. })
        )),
        "expected a stale read, got: {err}"
    );
}

/// The same Appendix B schedule with the paper's `fw = t − b`: the write
/// cannot complete fast on 4 acks (needs `S − fw = 5`), goes slow, and
/// the read — although slow (its first round is inconclusive) — returns
/// the correct value once `T1`'s replies are finally released.
#[test]
fn proposition4_same_schedule_is_safe_within_the_bound() {
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    c.install_byzantine(B2, Box::new(SplitBrain::new([ProcessId::Writer])));
    c.world_mut().hold(ProcessId::Writer, server(FR));
    c.world_mut().hold(ProcessId::Writer, server(FW));

    let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(1));
    assert!(!w.fast, "4 acks < S − fw = 5: the write must go slow");
    assert_eq!(w.rounds, 3);

    // Delay T1 to the reader initially; release after 5ms.
    c.world_mut().hold(server(T1A), ProcessId::Reader(ReaderId(0)));
    c.world_mut().hold(server(T1B), ProcessId::Reader(ReaderId(0)));
    let rd = c.register(RegisterId::DEFAULT).invoke_read(0);
    c.run_until(Time(c.now().micros() + 5_000));
    assert!(!c.is_complete(rd), "without T1 the read cannot decide safely");
    c.world_mut().release(server(T1A), ProcessId::Reader(ReaderId(0)));
    c.world_mut().release(server(T1B), ProcessId::Reader(ReaderId(0)));
    let r = c.run_until_complete(rd).expect("read completes once T1 answers");
    assert_eq!(r.value.as_u64(), Some(1));
    c.check_atomicity().unwrap();
    c.check_safeness().unwrap();
}

/// Randomized adversarial search on both sides of the bound: across many
/// seeds, Byzantine forgers + crash patterns + asynchrony never break the
/// correctly-configured algorithm.
#[test]
fn randomized_adversary_never_breaks_correct_configs() {
    use lucky_atomic::core::byz::{ForgeValue, InflateTs, RandomNoise};
    use lucky_atomic::types::{Seq, TsVal};
    for seed in 0..30u64 {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let mut c =
            StoreConfig::asynchronous(params).with_seed(seed).readers_per_register(2).build_sim();
        match seed % 3 {
            0 => c.install_byzantine(
                (seed % 6) as u16,
                Box::new(ForgeValue::new(TsVal::new(Seq(77), Value::from_u64(777)))),
            ),
            1 => c.install_byzantine((seed % 6) as u16, Box::new(InflateTs::new(seed))),
            _ => c.install_byzantine((seed % 6) as u16, Box::new(RandomNoise::new(seed, 200))),
        }
        // One crash on top (within t = 2 together with the Byzantine).
        c.crash_server(((seed + 1) % 6) as u16);
        for i in 1..=6u64 {
            c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
            c.register(RegisterId::DEFAULT).read((i % 2) as u16);
        }
        c.check_atomicity().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
