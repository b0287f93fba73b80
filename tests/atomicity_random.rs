//! Property-based adversarial testing: random workloads, network delays,
//! crash patterns and Byzantine behaviours never break the checkers'
//! invariants for correctly-configured clusters.

use lucky_atomic::core::byz::{ForgeValue, InflateTs, Mute, RandomNoise, StaleEcho};
use lucky_atomic::core::runtime::ServerCore;
use lucky_atomic::core::{Setup, SimStore, StoreConfig};
use lucky_atomic::sim::NetworkModel;
use lucky_atomic::types::{Params, RegisterId, Seq, TsVal, TwoRoundParams, Value};
use proptest::prelude::*;

/// A randomly chosen protocol action in a workload script.
#[derive(Clone, Debug)]
enum Step {
    Write,
    Read(u16),
    /// Overlapping write + read (contention).
    Contend(u16),
    /// Let time pass.
    Quiesce,
}

fn step_strategy(readers: u16) -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::Write),
        3 => (0..readers).prop_map(Step::Read),
        2 => (0..readers).prop_map(Step::Contend),
        1 => Just(Step::Quiesce),
    ]
}

/// Valid atomic parameter sets on the tight bound.
fn params_strategy() -> impl Strategy<Value = Params> {
    prop_oneof![
        Just(Params::new(1, 0, 1, 0).unwrap()),
        Just(Params::new(1, 0, 0, 1).unwrap()),
        Just(Params::new(1, 1, 0, 0).unwrap()),
        Just(Params::new(2, 1, 1, 0).unwrap()),
        Just(Params::new(2, 1, 0, 1).unwrap()),
        Just(Params::new(2, 0, 1, 1).unwrap()),
    ]
}

fn byz_strategy(seed: u64) -> impl Strategy<Value = Option<u8>> {
    // None = no Byzantine server; Some(k) = behaviour k.
    prop_oneof![
        2 => Just(None),
        1 => (0u8..5).prop_map(Some),
    ]
    .prop_map(move |x| {
        let _ = seed;
        x
    })
}

fn make_byz(kind: u8, seed: u64) -> Box<dyn ServerCore> {
    match kind {
        0 => Box::new(ForgeValue::new(TsVal::new(Seq(60), Value::from_u64(606)))),
        1 => Box::new(InflateTs::new(seed)),
        2 => Box::new(StaleEcho::new()),
        3 => Box::new(Mute::new()),
        _ => Box::new(RandomNoise::new(seed, 180)),
    }
}

fn run_script(
    params: Params,
    seed: u64,
    net_max: u64,
    crashes: usize,
    byz: Option<u8>,
    script: &[Step],
) -> SimStore {
    let readers = 2;
    let mut c = StoreConfig::synchronous(params)
        .with_seed(seed)
        .with_net(NetworkModel::uniform(50, net_max.max(51)))
        .readers_per_register(readers)
        .build_sim();
    let mut budget = params.t();
    if let Some(kind) = byz {
        if params.b() > 0 && budget > 0 {
            c.install_byzantine(0, make_byz(kind, seed));
            budget -= 1;
        }
    }
    for i in 0..crashes.min(budget) {
        c.crash_server((params.server_count() - 1 - i) as u16);
    }
    let mut next_val = 1u64;
    for step in script {
        match step {
            Step::Write => {
                let v = Value::from_u64(next_val);
                next_val += 1;
                c.register(RegisterId::DEFAULT)
                    .try_write(v)
                    .expect("write must complete (wait-freedom)");
            }
            Step::Read(r) => {
                c.register(RegisterId::DEFAULT)
                    .try_read(r % 2)
                    .expect("read must complete (wait-freedom)");
            }
            Step::Contend(r) => {
                let v = Value::from_u64(next_val);
                next_val += 1;
                let w = c.register(RegisterId::DEFAULT).invoke_write(v);
                let rd = c.register(RegisterId::DEFAULT).invoke_read(r % 2);
                c.world_mut()
                    .run_until_all_complete(&[w, rd])
                    .expect("contended ops must complete");
            }
            Step::Quiesce => c.run_for(5_000),
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The headline safety property: any workload, any within-budget fault
    /// pattern, any synchrony level — the history is atomic.
    #[test]
    fn atomicity_holds_under_random_adversaries(
        params in params_strategy(),
        seed in 0u64..10_000,
        net_max in prop_oneof![Just(100u64), Just(500), Just(5_000)],
        crashes in 0usize..3,
        byz in byz_strategy(1),
        script in proptest::collection::vec(step_strategy(2), 1..25),
    ) {
        let c = run_script(params, seed, net_max, crashes, byz, &script);
        c.check_atomicity().map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Failure-free synchronous runs additionally have every operation
    /// fast (Theorems 3 and 4 in their strongest form).
    #[test]
    fn failure_free_synchronous_sequential_ops_are_fast(
        params in params_strategy(),
        seed in 0u64..10_000,
        ops in 1usize..12,
    ) {
        let mut c = StoreConfig::synchronous(params).with_seed(seed).build_sim();
        for i in 0..ops {
            let v = Value::from_u64(i as u64 + 1);
            let w = c.register(RegisterId::DEFAULT).try_write(v).unwrap();
            prop_assert!(w.fast, "{params}: write {i} not fast");
            let r = c.register(RegisterId::DEFAULT).try_read(0).unwrap();
            prop_assert!(r.fast, "{params}: read {i} not fast");
            prop_assert_eq!(r.value.as_u64(), Some(i as u64 + 1));
        }
        c.check_atomicity().map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// The two-round variant under the same random adversaries.
    #[test]
    fn two_round_variant_is_atomic_under_random_adversaries(
        seed in 0u64..10_000,
        net_max in prop_oneof![Just(100u64), Just(2_000)],
        crashes in 0usize..3,
        script in proptest::collection::vec(step_strategy(2), 1..20),
    ) {
        let params = TwoRoundParams::new(2, 1, 1).unwrap();
        let mut c = StoreConfig::synchronous(params)
            .with_seed(seed)
            .with_net(NetworkModel::uniform(50, net_max))
            .readers_per_register(2)
            .build_sim();
        for i in 0..crashes.min(params.t()) {
            c.crash_server((params.server_count() - 1 - i) as u16);
        }
        let mut next_val = 1u64;
        for step in &script {
            match step {
                Step::Write | Step::Contend(_) => {
                    let v = Value::from_u64(next_val);
                    next_val += 1;
                    if let Step::Contend(r) = step {
                        let w = c.register(RegisterId::DEFAULT).invoke_write(v);
                        let rd = c.register(RegisterId::DEFAULT).invoke_read(r % 2);
                        c.world_mut().run_until_all_complete(&[w, rd]).unwrap();
                    } else {
                        c.register(RegisterId::DEFAULT).try_write(v).unwrap();
                    }
                }
                Step::Read(r) => { c.register(RegisterId::DEFAULT).try_read(r % 2).unwrap(); }
                Step::Quiesce => c.run_for(5_000),
            }
        }
        c.check_atomicity().map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// The regular variant: regularity holds (atomicity may not).
    #[test]
    fn regular_variant_is_regular_under_random_adversaries(
        seed in 0u64..10_000,
        crashes in 0usize..3,
        byz in byz_strategy(2),
        script in proptest::collection::vec(step_strategy(2), 1..20),
    ) {
        let params = Params::trading_reads(2, 1).unwrap();
        let mut c = StoreConfig::synchronous(Setup::Regular(params))
            .with_seed(seed)
            .readers_per_register(2)
            .build_sim();
        let mut budget = params.t();
        if let Some(kind) = byz {
            c.install_byzantine(0, make_byz(kind, seed));
            budget -= 1;
        }
        for i in 0..crashes.min(budget) {
            c.crash_server((params.server_count() - 1 - i) as u16);
        }
        let mut next_val = 1u64;
        for step in &script {
            match step {
                Step::Write => {
                    let v = Value::from_u64(next_val);
                    next_val += 1;
                    c.register(RegisterId::DEFAULT).try_write(v).unwrap();
                }
                Step::Read(r) => { c.register(RegisterId::DEFAULT).try_read(r % 2).unwrap(); }
                Step::Contend(r) => {
                    let v = Value::from_u64(next_val);
                    next_val += 1;
                    let w = c.register(RegisterId::DEFAULT).invoke_write(v);
                    let rd = c.register(RegisterId::DEFAULT).invoke_read(r % 2);
                    c.world_mut().run_until_all_complete(&[w, rd]).unwrap();
                }
                Step::Quiesce => c.run_for(5_000),
            }
        }
        c.check_regularity().map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Determinism: identical seeds and scripts yield identical histories.
    #[test]
    fn runs_are_deterministic(
        seed in 0u64..1_000,
        script in proptest::collection::vec(step_strategy(2), 1..10),
    ) {
        let params = Params::new(2, 1, 1, 0).unwrap();
        let h1 = run_script(params, seed, 3_000, 1, Some(4), &script)
            .history().clone();
        let h2 = run_script(params, seed, 3_000, 1, Some(4), &script)
            .history().clone();
        prop_assert_eq!(h1, h2);
    }
}
