//! Criterion micro-benchmarks: wall-clock cost of driving one simulated
//! operation to completion, per protocol variant and the ABD baseline,
//! and of one operation over the TCP runtime.
//!
//! These measure the *implementation* (simulator + protocol state
//! machines), complementing the virtual-time tables: they answer "how
//! expensive is it to simulate/execute an operation", which bounds the
//! experiment throughput of the whole harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lucky_core::{ProtocolConfig, Setup, StoreConfig};
use lucky_net::{Driver, NetConfig, NetStore};
use lucky_types::{Params, RegisterId, TwoRoundParams, Value};
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
            || StoreConfig::synchronous(Setup::Abd { t: 2 }).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
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
    let lucky = Setup::from(Params::new(1, 0, 1, 0).unwrap());
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
    let store = |setup: Setup, driver, registers: usize| {
        let mut store = NetStore::builder(setup, cfg()).registers(registers).driver(driver).build();
        let handles: Vec<_> = RegisterId::all(registers)
            .map(|reg| store.register(reg).expect("fresh handle"))
            .collect();
        (store, handles)
    };
    let mut group = c.benchmark_group("net_fast_write_tcp");
    for &(name, driver) in &drivers {
        group.bench_function(name, |bencher| {
            bencher.iter_batched_ref(
                || store(lucky, driver, 1),
                |(_store, handles)| handles[0].write(Value::from_u64(1)).expect("write completes"),
                BatchSize::LargeInput,
            );
        });
    }
    if cfg!(target_os = "linux") {
        // Back-to-back writes on register 0 while 4,999 registers sit
        // idle beside it. A worker's pass costs its ready and due
        // sessions, not all of them, so this row reads as `reactor`
        // does. One store serves every sample: building 5,000 registers'
        // sessions per sample would eat the measuring budget.
        let (_store, handles) = store(lucky, Driver::Reactor, 5_000);
        group.bench_function("reactor_5000_idle", |bencher| {
            bencher.iter(|| handles[0].write(Value::from_u64(1)).expect("write completes"));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("net_fast_read_tcp");
    for &(name, driver) in &drivers {
        group.bench_function(name, |bencher| {
            bencher.iter_batched_ref(
                || {
                    let (store, handles) = store(lucky, driver, 1);
                    handles[0].write(Value::from_u64(1)).expect("write completes");
                    (store, handles)
                },
                |(_store, handles)| handles[0].read(0).expect("read completes"),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
    if cfg!(target_os = "linux") {
        // The paper's comparison on the sockets the store ships: ABD over
        // the same S = 3 and the same network, on the reactor. Its WRITE
        // is one round trip like the lucky one; its READ is two round
        // trips and never waits for a timer.
        let abd = Setup::Abd { t: 1 };
        let mut group = c.benchmark_group("net_abd_write_tcp");
        group.bench_function("reactor", |bencher| {
            bencher.iter_batched_ref(
                || store(abd, Driver::Reactor, 1),
                |(_store, handles)| handles[0].write(Value::from_u64(1)).expect("write completes"),
                BatchSize::LargeInput,
            );
        });
        group.finish();
        let mut group = c.benchmark_group("net_abd_read_tcp");
        group.bench_function("reactor", |bencher| {
            bencher.iter_batched_ref(
                || {
                    let (store, handles) = store(abd, Driver::Reactor, 1);
                    handles[0].write(Value::from_u64(1)).expect("write completes");
                    (store, handles)
                },
                |(_store, handles)| handles[0].read(0).expect("read completes"),
                BatchSize::LargeInput,
            );
        });
        group.finish();
    }
    let mut group = c.benchmark_group("net_pipelined_writes_tcp");
    for &(name, driver) in &drivers {
        group.bench_function(name, |bencher| {
            bencher.iter_batched_ref(
                || store(lucky, driver, 64),
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
