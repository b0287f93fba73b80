//! Encoding of the [`Message`] enum and the transport packet envelope.
//!
//! Honest senders never nest `Batch` envelopes ([`Message::batch`]
//! flattens on construction), but a Byzantine peer can hand-craft frames
//! that do — so both directions here walk explicit worklists instead of
//! recursing, and decoding spends a shared **flattened-part budget**
//! ([`MAX_PARTS`], the batching layer's counting rule: protocol
//! messages, not envelopes) plus a nesting-depth cap
//! ([`MAX_BATCH_DEPTH`]) before it allocates anything on a hostile
//! prefix's say-so.

use crate::codec::{
    decode_list, encode_list, Decode, DecodeError, Encode, Reader, Writer, FROZEN_UPDATE_MIN_BYTES,
    NEW_READ_MIN_BYTES,
};
use crate::frame::{decode_frame, encode_frame, encode_frame_into};
use bytes::Bytes;
use lucky_types::{
    FrozenSlot, Message, ProcessId, PwAckMsg, PwMsg, ReadAckMsg, ReadMsg, ReadSeq, RegisterId, Seq,
    Tag, TsVal, WriteAckMsg, WriteMsg,
};

/// Most flattened protocol messages one frame (or one decoded
/// [`Message`]) may carry. Mirrors the batching layer's `max_msgs`
/// counting rule — flattened parts, never envelopes — as a hard codec
/// ceiling no [`BatchConfig`](lucky_types::BatchConfig) can exceed.
pub const MAX_PARTS: usize = 4096;

/// Deepest `Batch`-in-`Batch` nesting the decoder accepts. Honest
/// traffic never nests (batches flatten on construction); the cap
/// bounds the decoder's explicit stack against hand-crafted frames.
pub const MAX_BATCH_DEPTH: usize = 64;

/// Fewest bytes any encoded [`Message`] occupies (an empty batch:
/// tag + zero count).
const MESSAGE_MIN_BYTES: usize = 2;

/// Fewest bytes one packet part occupies (two 1-byte process ids plus a
/// minimal message).
const PACKET_PART_MIN_BYTES: usize = 2 + MESSAGE_MIN_BYTES;

const TAG_PW: u8 = 0;
const TAG_PW_ACK: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_WRITE_ACK: u8 = 3;
const TAG_READ: u8 = 4;
const TAG_READ_ACK: u8 = 5;
const TAG_BATCH: u8 = 6;

fn encode_leaf(m: &Message, w: &mut Writer) {
    match m {
        Message::Pw(m) => {
            w.u8(TAG_PW);
            m.reg.encode(w);
            m.ts.encode(w);
            m.pw.encode(w);
            m.w.encode(w);
            encode_list(w, &m.frozen);
        }
        Message::PwAck(m) => {
            w.u8(TAG_PW_ACK);
            m.reg.encode(w);
            m.ts.encode(w);
            encode_list(w, &m.newread);
        }
        Message::Write(m) => {
            w.u8(TAG_WRITE);
            m.reg.encode(w);
            w.u8(m.round);
            m.tag.encode(w);
            m.c.encode(w);
            encode_list(w, &m.frozen);
        }
        Message::WriteAck(m) => {
            w.u8(TAG_WRITE_ACK);
            m.reg.encode(w);
            w.u8(m.round);
            m.tag.encode(w);
        }
        Message::Read(m) => {
            w.u8(TAG_READ);
            m.reg.encode(w);
            m.tsr.encode(w);
            w.varint(m.rnd as u64);
        }
        Message::ReadAck(m) => {
            w.u8(TAG_READ_ACK);
            m.reg.encode(w);
            m.tsr.encode(w);
            w.varint(m.rnd as u64);
            m.pw.encode(w);
            m.w.encode(w);
            m.vw.encode(w);
            m.frozen.encode(w);
        }
        Message::Batch(_) => unreachable!("batches are handled by the worklist"),
    }
}

fn decode_rnd(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    let x = r.varint()?;
    u32::try_from(x).map_err(|_| DecodeError::LengthOverflow(x))
}

fn decode_leaf(tag: u8, r: &mut Reader<'_>) -> Result<Message, DecodeError> {
    match tag {
        TAG_PW => Ok(Message::Pw(PwMsg {
            reg: RegisterId::decode(r)?,
            ts: Seq::decode(r)?,
            pw: TsVal::decode(r)?,
            w: TsVal::decode(r)?,
            frozen: decode_list(r, FROZEN_UPDATE_MIN_BYTES)?,
        })),
        TAG_PW_ACK => Ok(Message::PwAck(PwAckMsg {
            reg: RegisterId::decode(r)?,
            ts: Seq::decode(r)?,
            newread: decode_list(r, NEW_READ_MIN_BYTES)?,
        })),
        TAG_WRITE => Ok(Message::Write(WriteMsg {
            reg: RegisterId::decode(r)?,
            round: r.u8()?,
            tag: Tag::decode(r)?,
            c: TsVal::decode(r)?,
            frozen: decode_list(r, FROZEN_UPDATE_MIN_BYTES)?,
        })),
        TAG_WRITE_ACK => Ok(Message::WriteAck(WriteAckMsg {
            reg: RegisterId::decode(r)?,
            round: r.u8()?,
            tag: Tag::decode(r)?,
        })),
        TAG_READ => Ok(Message::Read(ReadMsg {
            reg: RegisterId::decode(r)?,
            tsr: ReadSeq::decode(r)?,
            rnd: decode_rnd(r)?,
        })),
        TAG_READ_ACK => Ok(Message::ReadAck(ReadAckMsg {
            reg: RegisterId::decode(r)?,
            tsr: ReadSeq::decode(r)?,
            rnd: decode_rnd(r)?,
            pw: TsVal::decode(r)?,
            w: TsVal::decode(r)?,
            vw: Option::<TsVal>::decode(r)?,
            frozen: FrozenSlot::decode(r)?,
        })),
        tag => Err(DecodeError::BadTag { what: "Message", tag }),
    }
}

/// The shared flattened-part allowance one frame may spend.
struct PartBudget {
    used: usize,
}

impl PartBudget {
    fn new() -> PartBudget {
        PartBudget { used: 0 }
    }

    fn take(&mut self) -> Result<(), DecodeError> {
        self.used += 1;
        if self.used > MAX_PARTS {
            return Err(DecodeError::TooManyParts(self.used));
        }
        Ok(())
    }
}

impl Encode for Message {
    /// Iterative: hostile-depth batches cost heap, never call stack.
    fn encode(&self, w: &mut Writer) {
        let mut work: Vec<&Message> = vec![self];
        while let Some(m) = work.pop() {
            match m {
                Message::Batch(parts) => {
                    w.u8(TAG_BATCH);
                    w.varint(parts.len() as u64);
                    // Reversed push keeps wire order = part order.
                    work.extend(parts.iter().rev());
                }
                leaf => encode_leaf(leaf, w),
            }
        }
    }
}

/// Decode one message, spending leaves from `budget`. Iterative: an
/// explicit stack of partially-filled batch envelopes replaces the call
/// stack, and the stack's height is capped at [`MAX_BATCH_DEPTH`].
fn decode_message_budget(
    r: &mut Reader<'_>,
    budget: &mut PartBudget,
) -> Result<Message, DecodeError> {
    // (parts still expected, parts decoded so far) per open envelope.
    let mut stack: Vec<(usize, Vec<Message>)> = Vec::new();
    loop {
        let tag = r.u8()?;
        let mut value = if tag == TAG_BATCH {
            if stack.len() >= MAX_BATCH_DEPTH {
                return Err(DecodeError::TooDeep(stack.len() + 1));
            }
            let n = r.list_len(MESSAGE_MIN_BYTES)?;
            if n > MAX_PARTS {
                return Err(DecodeError::TooManyParts(n));
            }
            if n > 0 {
                stack.push((n, Vec::with_capacity(n)));
                continue;
            }
            Message::Batch(Vec::new())
        } else {
            budget.take()?;
            decode_leaf(tag, r)?
        };
        // Fold the completed value into its parent envelope(s).
        loop {
            match stack.last_mut() {
                None => return Ok(value),
                Some((remaining, parts)) => {
                    parts.push(value);
                    *remaining -= 1;
                    if *remaining > 0 {
                        break; // next sibling part
                    }
                    let (_, parts) = stack.pop().expect("envelope just inspected");
                    value = Message::Batch(parts);
                }
            }
        }
    }
}

impl Decode for Message {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        decode_message_budget(r, &mut PartBudget::new())
    }
}

/// Encode one message as bare payload bytes (no framing).
///
/// The buffer length always equals
/// [`Message::wire_size`](lucky_types::Message::wire_size) — the size
/// contract the byte accounting in both runtimes relies on.
pub fn encode_message(m: &Message) -> Vec<u8> {
    let mut w = Writer::with_capacity(m.wire_size());
    m.encode(&mut w);
    w.into_bytes()
}

/// Decode one message from bare payload bytes, requiring exact
/// consumption. Value payloads are copied; prefer
/// [`decode_message_shared`] when the input is already an owned
/// [`Bytes`] buffer.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input.
pub fn decode_message(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader::new(bytes);
    let m = Message::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(m)
}

/// Decode one message from a shared payload buffer, requiring exact
/// consumption. **Zero-copy for large values**: every `Value` of 1 KiB
/// or more in the result is a subrange view of `payload`'s allocation;
/// shorter values are copied into their own, so retaining one does not
/// keep `payload` alive.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input.
pub fn decode_message_shared(payload: &Bytes) -> Result<Message, DecodeError> {
    let mut r = Reader::shared(payload);
    let m = Message::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(m)
}

/// Encode one message as a complete checksummed frame.
pub fn frame_message(m: &Message) -> Vec<u8> {
    encode_frame(&encode_message(m))
}

/// Decode a buffer holding exactly one framed message.
///
/// # Errors
///
/// Any [`DecodeError`] from the frame header, checksum or payload.
pub fn unframe_message(bytes: &[u8]) -> Result<Message, DecodeError> {
    decode_message(decode_frame(bytes)?)
}

/// One part of a transport packet: sender, recipient, payload. The
/// recipient rides in the frame because a socket belongs to a *slot* (a
/// server, or the shard worker hosting several client cores), not to a
/// single process; the sender rides along because the paper's channel
/// model authenticates senders, and the wire must carry what the
/// channel used to imply.
pub type PacketPart = (ProcessId, ProcessId, Message);

/// Encode a complete transport frame carrying `parts` — the router's
/// per-destination socket-slot batch as it actually crosses the wire.
///
/// # Panics
///
/// Panics if the encoded payload exceeds
/// [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES) or `parts` flattens to
/// more than [`MAX_PARTS`] protocol messages — honest senders bound
/// both (`BatchConfig::max_msgs` is far below the cap), so either is a
/// local logic error, not a peer's misbehaviour.
pub fn encode_packet(parts: &[PacketPart]) -> Vec<u8> {
    let mut out = Vec::new();
    PacketEncoder::new().encode_into(parts, &mut out);
    out
}

/// A reusable packet encoder: encodes frames byte-identical to
/// [`encode_packet`] while recycling both its internal payload scratch
/// and the caller's output buffer, so a steady-state sender (the
/// router's TCP hot path) allocates **nothing** per frame once its
/// buffers have grown to the working-set size.
#[derive(Debug, Default)]
pub struct PacketEncoder {
    /// Payload scratch: the packet body is staged here before framing,
    /// its allocation kept across encodes.
    payload: Vec<u8>,
}

impl PacketEncoder {
    /// An encoder with empty (growable) scratch.
    pub fn new() -> PacketEncoder {
        PacketEncoder::default()
    }

    /// Encode a complete transport frame carrying `parts` into `out`
    /// (cleared first, capacity reused). Byte-identical to
    /// [`encode_packet`].
    ///
    /// # Panics
    ///
    /// As [`encode_packet`]: oversize payloads or part counts are local
    /// logic errors.
    pub fn encode_into(&mut self, parts: &[PacketPart], out: &mut Vec<u8>) {
        let flat: usize = parts.iter().map(|(_, _, m)| m.part_count()).sum();
        assert!(flat <= MAX_PARTS, "{flat} flattened parts exceed the frame cap {MAX_PARTS}");
        let mut w = Writer::from_buf(std::mem::take(&mut self.payload));
        w.varint(parts.len() as u64);
        for (from, to, msg) in parts {
            from.encode(&mut w);
            to.encode(&mut w);
            msg.encode(&mut w);
        }
        let payload = w.into_bytes();
        encode_frame_into(&payload, out);
        // Keep the grown scratch for the next encode.
        self.payload = payload;
    }
}

/// Decode a verified frame *payload* (as handed out by
/// [`FrameDecoder`](crate::FrameDecoder)) into its packet parts,
/// requiring exact consumption. The [`MAX_PARTS`] budget is shared by
/// the whole packet: a frame cannot smuggle more flattened protocol
/// messages by splitting them across envelope entries.
///
/// **Zero-copy large values**: the payload arrives as one shared
/// [`Bytes`] buffer and every `Value` of 1 KiB or more in the decoded
/// parts is a subrange view of it — a delivered batch of N such values
/// costs one payload allocation, not N + 1. Shorter values are copied
/// out, so a retained small value holds its own bytes and not the
/// buffer it arrived in.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input.
pub fn decode_packet(payload: &Bytes) -> Result<Vec<PacketPart>, DecodeError> {
    let mut r = Reader::shared(payload);
    let n = r.list_len(PACKET_PART_MIN_BYTES)?;
    if n > MAX_PARTS {
        return Err(DecodeError::TooManyParts(n));
    }
    let mut budget = PartBudget::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let from = ProcessId::decode(&mut r)?;
        let to = ProcessId::decode(&mut r)?;
        let msg = decode_message_budget(&mut r, &mut budget)?;
        out.push((from, to, msg));
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MIN_SHARED_VALUE_BYTES;
    use lucky_types::{ReaderId, Value};

    fn read(reg: u32, tsr: u64) -> Message {
        Message::Read(ReadMsg { reg: RegisterId(reg), tsr: ReadSeq(tsr), rnd: 1 })
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Pw(PwMsg {
                reg: RegisterId(3),
                ts: Seq(9),
                pw: TsVal::new(Seq(9), Value::from_u64(90)),
                w: TsVal::new(Seq(8), Value::from_u64(80)),
                frozen: vec![lucky_types::FrozenUpdate {
                    reader: ReaderId(1),
                    pw: TsVal::new(Seq(7), Value::from_u64(70)),
                    tsr: ReadSeq(2),
                }],
            }),
            Message::PwAck(PwAckMsg {
                reg: RegisterId(3),
                ts: Seq(9),
                newread: vec![lucky_types::NewRead { reader: ReaderId(0), tsr: ReadSeq(5) }],
            }),
            Message::Write(WriteMsg {
                reg: RegisterId(0),
                round: 2,
                tag: Tag::Write(Seq(9)),
                c: TsVal::new(Seq(9), Value::from_u64(90)),
                frozen: vec![],
            }),
            Message::WriteAck(WriteAckMsg {
                reg: RegisterId(0),
                round: 3,
                tag: Tag::WriteBack(ReadSeq(4)),
            }),
            read(1, 2),
            Message::ReadAck(ReadAckMsg {
                reg: RegisterId(1),
                tsr: ReadSeq(2),
                rnd: 3,
                pw: TsVal::new(Seq(9), Value::from_u64(90)),
                w: TsVal::new(Seq(8), Value::from_u64(80)),
                vw: Some(TsVal::new(Seq(7), Value::from_u64(70))),
                frozen: FrozenSlot::initial(),
            }),
            Message::batch(vec![read(0, 1), read(1, 2), read(2, 3)]),
            Message::Batch(Vec::new()),
        ]
    }

    #[test]
    fn every_variant_roundtrips_and_matches_wire_size() {
        for m in sample_messages() {
            let bytes = encode_message(&m);
            assert_eq!(bytes.len(), m.wire_size(), "size contract for {}", m.kind());
            assert_eq!(decode_message(&bytes).expect("roundtrip"), m, "{}", m.kind());
        }
    }

    #[test]
    fn framed_roundtrip() {
        for m in sample_messages() {
            assert_eq!(unframe_message(&frame_message(&m)).expect("framed roundtrip"), m);
        }
    }

    #[test]
    fn hostile_nesting_decodes_iteratively_within_the_depth_cap() {
        // Hand-craft nesting (the public constructor flattens): depth 63
        // decodes fine — and proves decode does not recurse per level.
        let mut w = Writer::new();
        for _ in 0..MAX_BATCH_DEPTH - 1 {
            w.u8(TAG_BATCH);
            w.varint(1);
        }
        read(0, 1).encode(&mut w);
        let m = decode_message(&w.into_bytes()).expect("within the cap");
        assert_eq!(m.part_count(), 1);
        assert_eq!(m.clone().flatten(), vec![read(0, 1)]);
    }

    #[test]
    fn nesting_past_the_cap_is_rejected() {
        let mut w = Writer::new();
        for _ in 0..MAX_BATCH_DEPTH + 1 {
            w.u8(TAG_BATCH);
            w.varint(1);
        }
        read(0, 1).encode(&mut w);
        assert!(matches!(decode_message(&w.into_bytes()), Err(DecodeError::TooDeep(_))));
    }

    #[test]
    fn part_budget_rejects_hostile_wide_batches() {
        // A batch announcing MAX_PARTS+1 parts dies on the announcement.
        let mut w = Writer::new();
        w.u8(TAG_BATCH);
        w.varint(MAX_PARTS as u64 + 1);
        for _ in 0..MAX_PARTS + 1 {
            read(0, 1).encode(&mut w);
        }
        assert!(matches!(decode_message(&w.into_bytes()), Err(DecodeError::TooManyParts(_))));
    }

    #[test]
    fn packet_budget_is_shared_across_entries() {
        // Two entries of MAX_PARTS/2 + 1 parts each: each alone is fine,
        // together they bust the shared frame budget.
        let half: Vec<Message> = (0..MAX_PARTS / 2 + 1).map(|i| read(i as u32, 1)).collect();
        let from = ProcessId::Writer;
        let to = ProcessId::Server(lucky_types::ServerId(0));
        let parts =
            vec![(from, to, Message::Batch(half.clone())), (from, to, Message::Batch(half))];
        let mut w = Writer::new();
        w.varint(parts.len() as u64);
        for (from, to, msg) in &parts {
            from.encode(&mut w);
            to.encode(&mut w);
            msg.encode(&mut w);
        }
        assert!(matches!(
            decode_packet(&Bytes::from(w.into_bytes())),
            Err(DecodeError::TooManyParts(_))
        ));
    }

    #[test]
    fn packet_roundtrip_preserves_parts_and_identities() {
        let from = ProcessId::Server(lucky_types::ServerId(2));
        let parts: Vec<PacketPart> = vec![
            (from, ProcessId::Writer, Message::batch(vec![read(0, 1), read(1, 1)])),
            (from, ProcessId::Reader(ReaderId(3)), read(2, 2)),
        ];
        let frame = encode_packet(&parts);
        let payload = Bytes::copy_from_slice(decode_frame(&frame).expect("valid frame"));
        assert_eq!(decode_packet(&payload).expect("roundtrip"), parts);
    }

    /// The recycled encoder produces byte-identical frames and, once its
    /// buffers have grown, re-encoding never reallocates them.
    #[test]
    fn packet_encoder_matches_encode_packet_and_reuses_buffers() {
        let from = ProcessId::Server(lucky_types::ServerId(1));
        let packets: Vec<Vec<PacketPart>> = (0..8u32)
            .map(|i| {
                vec![
                    (from, ProcessId::Writer, Message::batch(vec![read(i, 1), read(i + 1, 2)])),
                    (from, ProcessId::Reader(ReaderId(0)), read(i, 3)),
                ]
            })
            .collect();
        let mut enc = PacketEncoder::new();
        let mut out = Vec::new();
        // Warm the buffers on the largest packet, then pin: identical
        // bytes AND a stable backing allocation on every re-encode.
        enc.encode_into(&packets[0], &mut out);
        let (cap, ptr) = (out.capacity(), out.as_ptr());
        for parts in &packets {
            enc.encode_into(parts, &mut out);
            assert_eq!(out, encode_packet(parts), "recycled path is byte-identical");
            assert_eq!((out.capacity(), out.as_ptr()), (cap, ptr), "no realloc after warm-up");
        }
    }

    /// `n` write parts to server 0, each carrying a `value_len`-byte
    /// value, framed and reassembled exactly as the receive path does:
    /// the payload comes out of a `FrameDecoder` as one shared buffer.
    fn received_writes(n: u32, value_len: usize) -> (Vec<PacketPart>, Bytes) {
        let parts: Vec<PacketPart> = (0..n)
            .map(|i| {
                (
                    ProcessId::Writer,
                    ProcessId::Server(lucky_types::ServerId(0)),
                    Message::Write(WriteMsg {
                        reg: RegisterId(i),
                        round: 2,
                        tag: Tag::Write(Seq(i as u64)),
                        c: TsVal::new(Seq(i as u64), Value::from_bytes(vec![i as u8; value_len])),
                        frozen: vec![],
                    }),
                )
            })
            .collect();
        let mut dec = crate::frame::FrameDecoder::new();
        dec.feed(&encode_packet(&parts));
        let payload = dec.next_frame().expect("clean").expect("complete");
        (parts, payload)
    }

    /// The value bytes of every write in `msgs`, in order.
    fn write_values<'a>(msgs: impl IntoIterator<Item = &'a Message>) -> Vec<Bytes> {
        msgs.into_iter()
            .map(|msg| {
                let Message::Write(m) = msg else { panic!("write part expected") };
                let Value::Data(bytes) = &m.c.val else { panic!("data value expected") };
                bytes.clone()
            })
            .collect()
    }

    /// The zero-copy contract for large values: decoding a batch of N
    /// data values of at least `MIN_SHARED_VALUE_BYTES` out of a
    /// received frame performs exactly **one** payload allocation —
    /// every decoded value aliases the frame payload's allocation
    /// (asserted by pointer identity), so no per-value buffer exists.
    #[test]
    fn batch_decode_allocates_once_for_the_frame_payload() {
        let n = 16;
        let (parts, payload) = received_writes(n, 2 * MIN_SHARED_VALUE_BYTES);
        let decoded = decode_packet(&payload).expect("roundtrip");
        assert_eq!(decoded, parts);
        let values = write_values(decoded.iter().map(|(_, _, m)| m));
        assert_eq!(values.len(), n as usize);
        for bytes in &values {
            assert!(
                bytes.shares_allocation(&payload),
                "decoded value copied instead of slicing the frame payload"
            );
        }
        // The same holds through the single-message shared decode.
        let batch = Message::batch(parts.into_iter().map(|(_, _, m)| m).collect::<Vec<_>>());
        let payload = Bytes::from(encode_message(&batch));
        let Message::Batch(decoded) = decode_message_shared(&payload).expect("decodes") else {
            panic!("batch expected")
        };
        for bytes in write_values(&decoded) {
            assert!(bytes.shares_allocation(&payload));
        }
    }

    /// The below-threshold twin: small values are copied out at decode,
    /// so a retained 64 B value owns 64 B and does not keep the frame
    /// payload (and the read chunk it was sliced from) alive.
    #[test]
    fn small_values_are_copied_out_of_the_frame_payload() {
        let n = 16;
        let (parts, payload) = received_writes(n, 64);
        let decoded = decode_packet(&payload).expect("roundtrip");
        assert_eq!(decoded, parts);
        let values = write_values(decoded.iter().map(|(_, _, m)| m));
        assert_eq!(values.len(), n as usize);
        for (i, bytes) in values.iter().enumerate() {
            assert!(!bytes.shares_allocation(&payload), "value {i} pins the frame payload");
            for other in &values[i + 1..] {
                assert!(!bytes.shares_allocation(other), "values share one buffer");
            }
        }
    }

    /// The copy-or-window boundary, through both shared decoders: one
    /// byte under the threshold is copied, the threshold itself is a
    /// window.
    #[test]
    fn value_window_threshold_is_exact() {
        for (len, windowed) in [(MIN_SHARED_VALUE_BYTES - 1, false), (MIN_SHARED_VALUE_BYTES, true)]
        {
            let (parts, payload) = received_writes(1, len);
            let decoded = decode_packet(&payload).expect("roundtrip");
            let [bytes] = &write_values(decoded.iter().map(|(_, _, m)| m))[..] else {
                panic!("one value expected")
            };
            assert_eq!(bytes.len(), len);
            assert_eq!(bytes.shares_allocation(&payload), windowed, "decode_packet, {len} B");

            let payload = Bytes::from(encode_message(&parts[0].2));
            let msg = decode_message_shared(&payload).expect("decodes");
            let [bytes] = &write_values([&msg])[..] else { panic!("one value expected") };
            assert_eq!(
                bytes.shares_allocation(&payload),
                windowed,
                "decode_message_shared, {len} B"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_message(&read(0, 1));
        bytes.push(0);
        assert!(matches!(decode_message(&bytes), Err(DecodeError::TrailingBytes(1))));
    }

    #[test]
    fn truncations_never_decode() {
        let bytes = encode_message(&Message::batch(vec![read(0, 1), read(1, 2)]));
        for cut in 0..bytes.len() {
            assert!(decode_message(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }
}
