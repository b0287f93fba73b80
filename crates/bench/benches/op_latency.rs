//! Criterion micro-benchmarks: wall-clock cost of driving one simulated
//! operation to completion, per protocol variant and baseline.
//!
//! These measure the *implementation* (simulator + protocol state
//! machines), complementing the virtual-time tables: they answer "how
//! expensive is it to simulate/execute an operation", which bounds the
//! experiment throughput of the whole harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lucky_baselines::abd::{AbdCluster, AbdConfig};
use lucky_core::{ProtocolConfig, Setup, StoreConfig};
use lucky_net::{Driver, NetConfig, NetStore};
use lucky_types::{Params, ReaderId, RegisterId, TwoRoundParams, Value};
use std::time::Duration;

fn bench_lucky_ops(c: &mut Criterion) {
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut group = c.benchmark_group("lucky_atomic");

    group.bench_function("fast_write", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous(params).build_sim(),
            |store| store.register(RegisterId::DEFAULT).write(Value::from_u64(1)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("fast_read", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store = StoreConfig::synchronous(params).build_sim();
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store
            },
            |store| store.register(RegisterId::DEFAULT).read(0),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("slow_write", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store = StoreConfig::synchronous(params)
                    .with_protocol(ProtocolConfig::slow_only(100))
                    .build_sim();
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store
            },
            |store| store.register(RegisterId::DEFAULT).write(Value::from_u64(2)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("slow_read_with_writeback", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store = StoreConfig::synchronous(params)
                    .with_protocol(ProtocolConfig::slow_only(100))
                    .build_sim();
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store
            },
            |store| store.register(RegisterId::DEFAULT).read(0),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants_write_read_pair");

    let params = Params::new(2, 1, 1, 0).unwrap();
    group.bench_function("atomic", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous(params).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
            },
            BatchSize::SmallInput,
        );
    });

    let trp = TwoRoundParams::new(2, 1, 1).unwrap();
    group.bench_function("two_round", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous(trp).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
            },
            BatchSize::SmallInput,
        );
    });

    let reg = Params::trading_reads(2, 1).unwrap();
    group.bench_function("regular", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous(Setup::Regular(reg)).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("abd", |bencher| {
        bencher.iter_batched_ref(
            || AbdCluster::new(AbdConfig::synchronous(2), 1),
            |cluster| {
                cluster.write(Value::from_u64(1));
                cluster.read(ReaderId(0))
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// One lucky WRITE and one lucky READ over real TCP sockets, per wait
/// strategy of the real-time runtime's shard worker (sleep-capped
/// polling vs epoll reactor; same loop, same sans-io `ClientSession`).
/// The two rows price different waits: a fast WRITE returns on its
/// deciding PW ack, so it costs the injected latency band (2 × 50–200 µs)
/// plus the loopback round trip; a fast READ still waits its round-1
/// timer out, so it costs the 2 ms timer plus everything else. The third
/// group holds one WRITE ticket per register in flight on 64 registers
/// and waits for all of them: 384 frames that reach the router in a few
/// bursts, so the row prices a frame that shares its socket write (and
/// its receiver's wake-up) with its neighbours. Writes only — they are
/// round-trip-bound, reads would measure the timer.
fn bench_net_drivers(c: &mut Criterion) {
    let params = Params::new(1, 0, 1, 0).unwrap();
    let cfg = || NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 3,
        timer: Duration::from_millis(2),
    };
    let mut drivers = vec![("polled", Driver::Polled)];
    if cfg!(target_os = "linux") {
        // Elsewhere Reactor degrades to sleep-polling; benching the
        // fallback under the reactor label would just mislead the gate.
        drivers.push(("reactor", Driver::Reactor));
    }
    let store = |driver, registers: usize| {
        let mut store =
            NetStore::builder(params, cfg()).registers(registers).driver(driver).build();
        let handles: Vec<_> = RegisterId::all(registers)
            .map(|reg| store.register(reg).expect("fresh handle"))
            .collect();
        (store, handles)
    };
    let mut group = c.benchmark_group("net_fast_write_tcp");
    for &(name, driver) in &drivers {
        group.bench_function(name, |bencher| {
            bencher.iter_batched_ref(
                || store(driver, 1),
                |(_store, handles)| handles[0].write(Value::from_u64(1)).expect("write completes"),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
    let mut group = c.benchmark_group("net_fast_read_tcp");
    for &(name, driver) in &drivers {
        group.bench_function(name, |bencher| {
            bencher.iter_batched_ref(
                || {
                    let (store, handles) = store(driver, 1);
                    handles[0].write(Value::from_u64(1)).expect("write completes");
                    (store, handles)
                },
                |(_store, handles)| handles[0].read(0).expect("read completes"),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
    let mut group = c.benchmark_group("net_pipelined_writes_tcp");
    for &(name, driver) in &drivers {
        group.bench_function(name, |bencher| {
            bencher.iter_batched_ref(
                || store(driver, 64),
                |(_store, handles)| {
                    let tickets: Vec<_> =
                        handles.iter().map(|h| h.invoke_write(Value::from_u64(1))).collect();
                    for ticket in tickets {
                        ticket.wait().expect("write completes");
                    }
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lucky_ops, bench_variants, bench_net_drivers);
criterion_main!(benches);
