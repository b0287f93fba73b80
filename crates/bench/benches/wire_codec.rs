//! Criterion micro-benchmarks for the `lucky-wire` codec: encode and
//! decode cost per message for the protocol's hot wire kinds, single
//! messages vs. batch envelopes of {1, 4, 16} parts.
//!
//! Alongside each timing the bench prints the **bytes per message**
//! the codec actually produces (envelope amortization included), so
//! the perf trajectory tracks both ns/msg and bytes/msg. Divide a
//! batch case's ns/iter by its part count for the per-message cost —
//! the iteration encodes or decodes the whole envelope.
//!
//! `wire/decode_read_ack_shared` times a READ_ACK the way the receive
//! path decodes it: through `FrameDecoder` and `decode_packet`.
//!
//! Two sweeps track the receive path's two optimizations across value
//! sizes from a tag byte to 64 KiB:
//!
//! * `wire/decode_packet_b16_v*` — the packet decode on the receive
//!   path: a 16-part packet of writes. Values of 1 KiB and more are
//!   sliced out of the shared frame payload, never copied, so from
//!   `v4096` up the per-iteration cost should be flat in value size
//!   (the bytes are only CRC'd, not moved). Smaller values are copied
//!   into buffers of their own, so a retained one does not pin the
//!   frame; `v8`–`v512` pay one small allocation per value for that.
//! * `wire/crc32_*` vs `wire/crc32_bytewise_*` — the slice-by-8
//!   checksum against the one-table-lookup-per-byte classic, same
//!   buffers.

use criterion::{criterion_group, criterion_main, Criterion};
use lucky_types::{
    FrozenSlot, Message, ProcessId, PwMsg, ReadAckMsg, ReadMsg, ReadSeq, ReaderId, RegisterId, Seq,
    ServerId, Tag, TsVal, Value, WriteMsg,
};
use lucky_wire::{
    crc32, crc32_bytewise, decode_message, decode_packet, encode_message, encode_packet,
    FrameDecoder, PacketPart,
};

/// A writer's PW round message — the write path's hot encode.
fn pw_msg() -> Message {
    Message::Pw(PwMsg {
        reg: RegisterId(3),
        ts: Seq(42),
        pw: TsVal::new(Seq(42), Value::from_u64(42)),
        w: TsVal::new(Seq(41), Value::from_u64(41)),
        frozen: vec![],
    })
}

/// A server's READ_ACK — the read path's hot decode (largest leaf).
fn read_ack_msg() -> Message {
    Message::ReadAck(ReadAckMsg {
        reg: RegisterId(3),
        tsr: ReadSeq(7),
        rnd: 2,
        pw: TsVal::new(Seq(42), Value::from_u64(42)),
        w: TsVal::new(Seq(41), Value::from_u64(41)),
        vw: Some(TsVal::new(Seq(40), Value::from_u64(40))),
        frozen: FrozenSlot::initial(),
    })
}

/// A `batch_size`-part batch of cross-register READs — what the router
/// actually coalesces onto one socket-slot.
fn read_batch(batch_size: u32) -> Message {
    Message::batch(
        (0..batch_size)
            .map(|i| Message::Read(ReadMsg { reg: RegisterId(i), tsr: ReadSeq(1), rnd: 1 }))
            .collect(),
    )
}

fn bench_case(c: &mut Criterion, name: &str, msg: &Message) {
    let encoded = encode_message(msg);
    let parts = msg.part_count().max(1);
    println!(
        "wire_codec/{name}: {} bytes/envelope, {:.1} bytes/msg ({} parts)",
        encoded.len(),
        encoded.len() as f64 / parts as f64,
        parts
    );
    c.bench_function(format!("wire/encode_{name}"), |b| b.iter(|| encode_message(msg)));
    c.bench_function(format!("wire/decode_{name}"), |b| {
        b.iter(|| decode_message(&encoded).expect("valid bytes"))
    });
}

fn bench_singles(c: &mut Criterion) {
    bench_case(c, "pw", &pw_msg());
    bench_case(c, "read_ack", &read_ack_msg());
    bench_read_ack_received(c);
}

/// `wire/decode_read_ack_shared`: the READ_ACK as a shard worker
/// receives it — one framed packet fed to a long-lived `FrameDecoder`,
/// then `decode_packet` on the shared payload. Unlike `decode_read_ack`
/// (the copying `decode_message` over bare payload bytes) this
/// includes the freeze, the CRC and the packet envelope.
fn bench_read_ack_received(c: &mut Criterion) {
    let frame = encode_packet(&[(
        ProcessId::Server(ServerId(0)),
        ProcessId::Reader(ReaderId(0)),
        read_ack_msg(),
    )]);
    let mut dec = FrameDecoder::new();
    c.bench_function("wire/decode_read_ack_shared", |b| {
        b.iter(|| {
            dec.feed(&frame);
            let payload = dec.next_frame().expect("clean frame").expect("complete frame");
            decode_packet(&payload).expect("valid packet")
        })
    });
}

fn bench_batches(c: &mut Criterion) {
    for batch_size in [1u32, 4, 16] {
        bench_case(c, &format!("read_batch_{batch_size}"), &read_batch(batch_size));
    }
}

/// Value payload sizes swept by the packet-decode and checksum benches:
/// tag-sized, cache-line-ish, and up through a 64 KiB blob.
const VALUE_SIZES: [usize; 5] = [8, 64, 512, 4096, 65536];

/// A `parts`-part packet of writes carrying `value_bytes`-byte values —
/// the shape the router's socket batching actually produces on the
/// write path, and, from 1 KiB values up, the case the zero-copy decode
/// exists for.
fn write_packet(parts: u64, value_bytes: usize) -> Vec<PacketPart> {
    (0..parts)
        .map(|i| {
            let val = Value::from_bytes(vec![i as u8; value_bytes]);
            let msg = Message::Write(WriteMsg {
                reg: RegisterId(i as u32),
                round: 1,
                tag: Tag::Write(Seq(i + 1)),
                c: TsVal::new(Seq(i + 1), val),
                frozen: vec![],
            });
            (ProcessId::Writer, ProcessId::Server(ServerId(i as u16)), msg)
        })
        .collect()
}

fn bench_zero_copy_packet_decode(c: &mut Criterion) {
    for size in VALUE_SIZES {
        // 16 parts, except where that would overflow the 1 MiB frame
        // cap (16 × 64 KiB): the top size runs with 8 parts.
        let parts: u64 = if size >= 65536 { 8 } else { 16 };
        // `encode_packet` emits a complete frame; reassemble it through
        // the decoder exactly as the transport's read loop does, so the
        // benched payload is the same shared buffer production slices.
        let frame = encode_packet(&write_packet(parts, size));
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let payload = dec.next_frame().expect("clean frame").expect("complete frame");
        c.bench_function(format!("wire/decode_packet_b{parts}_v{size}"), |b| {
            b.iter(|| decode_packet(&payload).expect("valid packet"))
        });
    }
}

fn bench_checksums(c: &mut Criterion) {
    for size in VALUE_SIZES {
        let buf: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        c.bench_function(format!("wire/crc32_{size}"), |b| b.iter(|| crc32(&buf)));
        c.bench_function(format!("wire/crc32_bytewise_{size}"), |b| {
            b.iter(|| crc32_bytewise(&buf))
        });
    }
}

criterion_group!(
    benches,
    bench_singles,
    bench_batches,
    bench_zero_copy_packet_decode,
    bench_checksums
);
criterion_main!(benches);
