//! Criterion micro-benchmarks for the simulator substrate and wire
//! accounting: event throughput, message size computation, and the cost
//! of serving batched requests through the register mux.

use criterion::{criterion_group, criterion_main, Criterion};
use lucky_core::runtime::ServerCore;
use lucky_core::Setup;
use lucky_sim::{Automaton, Effects, NetworkModel, World};
use lucky_types::{
    BatchConfig, FrozenSlot, Message, Op, Params, ProcessId, PwMsg, ReadAckMsg, ReadMsg, ReadSeq,
    ReaderId, RegisterId, Seq, ServerId, Time, TsVal, Value,
};

/// Ping-pong pair used to measure raw event-loop throughput: Pong echoes
/// every message, Ping counts the READ timestamp down until zero.
struct Pong;
impl Automaton for Pong {
    fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
        eff.send(from, msg);
    }
}

fn countdown(n: u64) -> Message {
    Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(n), rnd: 1 })
}

struct Ping {
    peer: ProcessId,
}
impl Automaton for Ping {
    fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
        eff.send(self.peer, countdown(10_000));
    }
    fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
        match msg {
            Message::Read(m) if m.tsr.0 > 0 => eff.send(from, countdown(m.tsr.0 - 1)),
            _ => eff.complete(None, 1, true),
        }
    }
}

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("sim/ping_pong_10k_read_events", |b| {
        b.iter(|| {
            let mut w = World::new(NetworkModel::constant(10), 1);
            let server = ProcessId::Server(ServerId(0));
            w.add_process(server, Box::new(Pong));
            w.add_process(ProcessId::Writer, Box::new(Ping { peer: server }));
            let op = w.invoke(ProcessId::Writer, Op::Read);
            w.run_until_complete(op).expect("ping-pong completes");
            w.steps()
        });
    });
}

fn bench_wire_size(c: &mut Criterion) {
    let pw = Message::Pw(PwMsg {
        reg: RegisterId::DEFAULT,
        ts: Seq(42),
        pw: TsVal::new(Seq(42), Value::from_u64(42)),
        w: TsVal::new(Seq(41), Value::from_u64(41)),
        frozen: vec![],
    });
    let ack = Message::ReadAck(ReadAckMsg {
        reg: RegisterId::DEFAULT,
        tsr: ReadSeq(7),
        rnd: 2,
        pw: TsVal::new(Seq(42), Value::from_u64(42)),
        w: TsVal::new(Seq(41), Value::from_u64(41)),
        vw: Some(TsVal::new(Seq(40), Value::from_u64(40))),
        frozen: FrozenSlot::initial(),
    });
    c.bench_function("wire/pw_size", |b| b.iter(|| pw.wire_size()));
    c.bench_function("wire/read_ack_size", |b| b.iter(|| ack.wire_size()));
}

/// Serving 16 cross-register READs through a `RegisterMux`, arriving as
/// batches of 1 (unbatched), 4 and 16 parts: per-request dispatch cost is
/// identical, so the delta is pure envelope overhead — the amortization
/// the batching layer banks on.
fn bench_batched_mux(c: &mut Criterion) {
    const REQUESTS: u32 = 16;
    for batch_size in [1u32, 4, 16] {
        let name = format!("sim/mux_16_reads_batch_{batch_size}");
        c.bench_function(&name, |b| {
            let setup = Setup::Atomic(Params::new(2, 1, 1, 0).expect("valid params"));
            let reader = ProcessId::Reader(ReaderId(0));
            // The request stream: 16 READs over 16 registers, chunked
            // into `batch_size`-part wire messages.
            let wire: Vec<Message> = (0..REQUESTS / batch_size)
                .map(|chunk| {
                    Message::batch(
                        (0..batch_size)
                            .map(|i| {
                                Message::Read(ReadMsg {
                                    reg: RegisterId(chunk * batch_size + i),
                                    tsr: ReadSeq(1),
                                    rnd: 1,
                                })
                            })
                            .collect(),
                    )
                })
                .collect();
            b.iter(|| {
                let mut mux = setup.make_server_mux_batched(BatchConfig::enabled(16));
                let mut acks = 0usize;
                for msg in &wire {
                    let mut eff = Effects::new();
                    mux.deliver(reader, msg.clone(), &mut eff);
                    let (sends, _, _) = eff.into_parts();
                    acks += sends.iter().map(|(_, m)| m.part_count()).sum::<usize>();
                }
                assert_eq!(acks, REQUESTS as usize);
                acks
            });
        });
    }
}

criterion_group!(benches, bench_event_loop, bench_wire_size, bench_batched_mux);
criterion_main!(benches);
