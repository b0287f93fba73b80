//! Criterion micro-benchmarks for the tracing hot path. The contract
//! the gate enforces: with `TraceConfig::disabled()` a settle record is
//! a single relaxed atomic load and return — effectively free — so the
//! runtimes can keep the tracer call sites unconditional. The enabled
//! rows price what a run actually pays when the luck-o-meter is on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lucky_trace::{Actor, Histogram, OpSpan, TraceConfig, Tracer};

fn settled_span() -> OpSpan {
    let mut span = OpSpan::begin(10);
    span.note_send_batch(11);
    span.note_send_batch(250);
    span.settle(420, true);
    span
}

fn bench_tracer(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");

    // The row the bench gate watches: tracing off must stay ~free.
    let off = Tracer::new(TraceConfig::disabled());
    let span = settled_span();
    group.bench_function("disabled_record_settle", |b| {
        b.iter(|| {
            off.record_settle(
                black_box(Actor::Reader { reg: 0, id: 1 }),
                false,
                black_box(1),
                true,
                black_box(410),
                &span,
            );
        });
    });

    // Enabled: luck counters + histogram + span replay into the
    // bounded recorder (steady state, so the ring is always full).
    let on = Tracer::new(TraceConfig::enabled());
    group.bench_function("enabled_record_settle", |b| {
        b.iter(|| {
            on.record_settle(
                black_box(Actor::Reader { reg: 0, id: 1 }),
                false,
                black_box(1),
                true,
                black_box(410),
                &span,
            );
        });
    });

    // The per-op latency sink on its own: one log2 bucketing + one
    // relaxed fetch_add.
    let hist = Histogram::new();
    let mut v = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        });
    });

    // The span bookkeeping every op pays even before the tracer sees
    // it: begin, two send batches, settle.
    group.bench_function("span_lifecycle", |b| {
        b.iter(|| black_box(settled_span()));
    });

    group.finish();
}

criterion_group!(benches, bench_tracer);
criterion_main!(benches);
