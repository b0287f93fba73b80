//! # lucky-wire
//!
//! The **real binary wire codec** of the `lucky-atomic` workspace: a
//! hand-rolled, dependency-free encoding of the full [`Message`](lucky_types::Message) surface,
//! plus the length-prefixed, checksummed framing the TCP transport in
//! `lucky-net` ships those encodings in.
//!
//! Until this crate existed every runtime moved messages through
//! in-process channels — nothing ever exercised the byte level a
//! Byzantine peer actually controls. `lucky-wire` closes that gap with
//! three layers:
//!
//! 1. **Codec** ([`Encode`]/[`Decode`]): varint-encoded integers,
//!    length-prefixed [`Value`](lucky_types::Value) payload bytes, one
//!    tag byte per enum. Encoding is infallible; decoding returns a
//!    typed [`DecodeError`] and **never panics**, whatever the input.
//! 2. **Framing** ([`encode_frame`], [`FrameDecoder`]): a 4-byte prelude
//!    (2-byte magic, version, flags) followed by a little-endian `u32`
//!    payload length and a CRC-32 checksum of the payload.
//!    [`FrameDecoder`] reassembles frames from arbitrary partial reads,
//!    exactly as a TCP stream delivers them.
//! 3. **Packets** ([`encode_packet`]/[`decode_packet`]): the transport
//!    envelope — a list of `(from, to, message)` parts sharing one
//!    frame, which is how `lucky-net`'s router stages its per-socket
//!    batches as real frames.
//!
//! ## Hostile-input discipline
//!
//! A malicious server owns every byte it sends, so the decoder treats
//! its input as adversarial:
//!
//! * **No recursion.** [`Message::Batch`](lucky_types::Message::Batch) nests in the type, and a
//!   hostile frame can nest `Batch` tags arbitrarily deep; both encode
//!   and decode walk an explicit worklist, so nesting depth can never
//!   overflow the call stack (and is additionally capped at
//!   [`MAX_BATCH_DEPTH`]).
//! * **Hard caps before allocation.** Frame payloads are capped at
//!   [`MAX_FRAME_BYTES`]; the flattened protocol messages in one frame
//!   at [`MAX_PARTS`] (the same *flattened, not envelopes* counting rule
//!   the batching layer enforces); every length prefix is validated
//!   against the bytes actually remaining before a single element is
//!   allocated.
//! * **Exact consumption.** [`decode_message`] and [`decode_packet`]
//!   reject trailing bytes, so a frame means exactly one thing or
//!   nothing.
//!
//! ## Size contract
//!
//! [`Message::wire_size`](lucky_types::Message::wire_size) in
//! `lucky-types` computes **exactly** the byte length this codec
//! produces for the message payload (framing excluded) — the router's
//! byte accounting is therefore true on-the-wire payload bytes, and the
//! property tests here pin the two crates together
//! (`encode_message(m).len() == m.wire_size()`).
//!
//! ```
//! use lucky_types::{Message, ReadMsg, ReadSeq, RegisterId};
//! use lucky_wire::{decode_message, encode_message};
//!
//! let m = Message::Read(ReadMsg { reg: RegisterId(7), tsr: ReadSeq(3), rnd: 1 });
//! let bytes = encode_message(&m);
//! assert_eq!(bytes.len(), m.wire_size());
//! assert_eq!(decode_message(&bytes).unwrap(), m);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod codec;
mod crc;
mod frame;
pub mod fuzz;
mod msg;
mod varint;

pub use codec::{Decode, DecodeError, Encode, Reader, Writer};
pub use crc::{crc32, crc32_bytewise};
pub use frame::{
    decode_frame, encode_frame, encode_frame_into, FrameDecoder, FRAME_HEADER_BYTES, MAGIC,
    MAX_FRAME_BYTES, VERSION,
};
pub use msg::{
    decode_message, decode_message_shared, decode_packet, encode_message, encode_packet,
    frame_message, unframe_message, PacketEncoder, PacketPart, MAX_BATCH_DEPTH, MAX_PARTS,
};
