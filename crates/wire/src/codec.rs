//! The codec substrate: byte cursors, the [`Encode`]/[`Decode`] traits,
//! and their implementations for every component type of the message
//! surface.
//!
//! Encoding is infallible and appends to a [`Writer`]; decoding reads
//! from a bounds-checked [`Reader`] and fails with a typed
//! [`DecodeError`] — never a panic — on any malformed input. Composite
//! rules (length-prefixed lists, option tags) validate their prefixes
//! against the bytes actually remaining *before* allocating, so a
//! hostile length prefix cannot reserve unbounded memory.

use crate::varint::{read_varint, write_varint};
use bytes::Bytes;
use lucky_types::{
    FrozenSlot, FrozenUpdate, NewRead, ProcessId, ReadSeq, ReaderId, RegisterId, Seq, ServerId,
    Tag, TsVal, Value,
};
use std::fmt;

/// Why a buffer failed to decode. Every variant is a clean rejection:
/// the decoder holds no partial state and has allocated at most
/// input-proportional memory when it returns one of these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// A frame did not start with [`MAGIC`](crate::MAGIC).
    BadMagic([u8; 2]),
    /// A frame advertised a codec version this build does not speak.
    BadVersion(u8),
    /// A frame carried reserved flag bits this build does not know.
    BadFlags(u8),
    /// The frame checksum did not match the payload.
    BadChecksum {
        /// Checksum the frame header advertised.
        expected: u32,
        /// Checksum computed over the received payload.
        got: u32,
    },
    /// A frame advertised a payload longer than
    /// [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES).
    FrameTooLarge(usize),
    /// A varint ran past ten bytes or overflowed 64 bits.
    VarintOverflow,
    /// An enum tag byte named no known variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix promised more elements or bytes than remain in
    /// the input.
    LengthOverflow(u64),
    /// A frame carried more flattened protocol messages than
    /// [`MAX_PARTS`](crate::MAX_PARTS) permits.
    TooManyParts(usize),
    /// `Batch` envelopes nested deeper than
    /// [`MAX_BATCH_DEPTH`](crate::MAX_BATCH_DEPTH).
    TooDeep(usize),
    /// The value decoded cleanly but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated mid-value"),
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadFlags(x) => write!(f, "unknown frame flags {x:#04x}"),
            DecodeError::BadChecksum { expected, got } => {
                write!(f, "frame checksum mismatch: header {expected:#010x}, payload {got:#010x}")
            }
            DecodeError::FrameTooLarge(n) => write!(f, "frame payload of {n} bytes exceeds cap"),
            DecodeError::VarintOverflow => write!(f, "varint longer than a u64"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            DecodeError::LengthOverflow(n) => {
                write!(f, "length prefix {n} exceeds the remaining input")
            }
            DecodeError::TooManyParts(n) => write!(f, "{n} flattened parts exceed the cap"),
            DecodeError::TooDeep(n) => write!(f, "batch nesting depth {n} exceeds the cap"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// A writer whose buffer pre-reserves `cap` bytes.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// A writer over a recycled buffer: clears `buf` and appends into
    /// its existing allocation. The steady-state path behind
    /// [`PacketEncoder`](crate::PacketEncoder) — encoding reuses the
    /// capacity a previous encode grew.
    pub fn from_buf(mut buf: Vec<u8>) -> Writer {
        buf.clear();
        Writer { buf }
    }

    /// Append one raw byte.
    pub fn u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append the varint encoding of `x`.
    pub fn varint(&mut self, x: u64) {
        write_varint(self, x);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Shortest value payload a [`Reader::shared`] cursor hands out as a
/// window into its backing buffer; anything shorter is copied into an
/// allocation of its own. A window keeps the whole backing buffer alive
/// — on the receive path, the read chunk the frame arrived in — so a
/// retained 64 B value would otherwise pin kilobytes. Above the
/// threshold the copy would cost more than the pinning it avoids.
pub(crate) const MIN_SHARED_VALUE_BYTES: usize = 1024;

/// A bounds-checked read cursor over an input buffer.
///
/// A cursor built with [`Reader::shared`] additionally carries the
/// [`Bytes`] handle backing the buffer, which lets large
/// variable-length payloads ([`Value`] data of 1 KiB and more) decode
/// as **zero-copy slices** of the input, sharing the frame payload's
/// allocation. Shorter payloads are copied, so a retained small value
/// does not keep the whole input alive.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When present, `buf` is exactly `&backing[..]` (the constructor's
    /// invariant), so `backing.slice(pos..pos + n)` is the zero-copy
    /// form of `buf[pos..pos + n]`.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`. Value payloads decode by
    /// copying; use [`Reader::shared`] on the receive path to make them
    /// zero-copy.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, backing: None }
    }

    /// A cursor over a shared payload buffer: variable-length byte
    /// payloads of 1 KiB and more decode as slices of `payload`'s
    /// allocation, not copies; shorter ones are copied out (see
    /// [`Reader::payload_bytes`]).
    pub fn shared(payload: &'a Bytes) -> Reader<'a> {
        Reader { buf: payload, pos: 0, backing: Some(payload) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let byte = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Read `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read `n` raw bytes as an owned [`Bytes`] payload. On a
    /// [`Reader::shared`] cursor, `n` of 1 KiB or more is **zero-copy**:
    /// the result is a subrange view of the backing allocation. Shorter
    /// payloads, and every payload on a plain cursor, are copied
    /// exactly like [`Bytes::copy_from_slice`], so a small result never
    /// keeps the backing allocation alive.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn payload_bytes(&mut self, n: usize) -> Result<Bytes, DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let start = self.pos;
        self.pos += n;
        Ok(match self.backing {
            Some(backing) if n >= MIN_SHARED_VALUE_BYTES => backing.slice(start..start + n),
            _ => Bytes::copy_from_slice(&self.buf[start..start + n]),
        })
    }

    /// Read one varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] or [`DecodeError::VarintOverflow`].
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        read_varint(self)
    }

    /// Read a list-length prefix whose elements each occupy at least
    /// `min_elem_bytes`, rejecting any count the remaining input cannot
    /// possibly satisfy — the guard that makes `Vec::with_capacity` on
    /// the result safe against hostile prefixes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthOverflow`] for impossible counts, plus the
    /// varint errors.
    pub fn list_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        let need =
            n.checked_mul(min_elem_bytes.max(1) as u64).ok_or(DecodeError::LengthOverflow(n))?;
        if need > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow(n));
        }
        Ok(n as usize)
    }
}

/// Types with a canonical binary wire encoding.
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// Types decodable from the canonical binary wire encoding.
pub trait Decode: Sized {
    /// Decode one value from the cursor.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] on any malformed input; implementations never
    /// panic and never allocate more than input-proportional memory.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

// ---- scalar newtypes -------------------------------------------------

macro_rules! impl_varint_newtype {
    ($ty:ty, $inner:ty) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.varint(self.0 as u64);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let x = r.varint()?;
                let inner = <$inner>::try_from(x).map_err(|_| DecodeError::LengthOverflow(x))?;
                Ok(Self(inner))
            }
        }
    };
}

impl_varint_newtype!(Seq, u64);
impl_varint_newtype!(ReadSeq, u64);
impl_varint_newtype!(RegisterId, u32);
impl_varint_newtype!(ServerId, u16);
impl_varint_newtype!(ReaderId, u16);

// ---- values and pairs ------------------------------------------------

/// `Value` tag byte: the initial `⊥`.
const VALUE_BOT: u8 = 0;
/// `Value` tag byte: length-prefixed application data.
const VALUE_DATA: u8 = 1;

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Bot => w.u8(VALUE_BOT),
            Value::Data(b) => {
                w.u8(VALUE_DATA);
                w.varint(b.len() as u64);
                w.bytes(b.as_ref());
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            VALUE_BOT => Ok(Value::Bot),
            VALUE_DATA => {
                let len = r.list_len(1)?;
                // On a shared cursor a large value aliases the frame
                // payload; a small one gets its own buffer.
                Ok(Value::Data(r.payload_bytes(len)?))
            }
            tag => Err(DecodeError::BadTag { what: "Value", tag }),
        }
    }
}

impl Encode for TsVal {
    fn encode(&self, w: &mut Writer) {
        self.ts.encode(w);
        self.val.encode(w);
    }
}

impl Decode for TsVal {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TsVal { ts: Seq::decode(r)?, val: Value::decode(r)? })
    }
}

impl Encode for Option<TsVal> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(pair) => {
                w.u8(1);
                pair.encode(w);
            }
        }
    }
}

impl Decode for Option<TsVal> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(TsVal::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "Option<TsVal>", tag }),
        }
    }
}

// ---- protocol sub-structures -----------------------------------------

impl Encode for Tag {
    fn encode(&self, w: &mut Writer) {
        match self {
            Tag::Write(ts) => {
                w.u8(0);
                ts.encode(w);
            }
            Tag::WriteBack(tsr) => {
                w.u8(1);
                tsr.encode(w);
            }
        }
    }
}

impl Decode for Tag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Tag::Write(Seq::decode(r)?)),
            1 => Ok(Tag::WriteBack(ReadSeq::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "Tag", tag }),
        }
    }
}

impl Encode for FrozenUpdate {
    fn encode(&self, w: &mut Writer) {
        self.reader.encode(w);
        self.pw.encode(w);
        self.tsr.encode(w);
    }
}

impl Decode for FrozenUpdate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FrozenUpdate {
            reader: ReaderId::decode(r)?,
            pw: TsVal::decode(r)?,
            tsr: ReadSeq::decode(r)?,
        })
    }
}

/// Fewest bytes one encoded [`FrozenUpdate`] can occupy (reader + the
/// two-byte minimal `TsVal` + tsr) — the list-length guard bound.
pub(crate) const FROZEN_UPDATE_MIN_BYTES: usize = 4;

impl Encode for FrozenSlot {
    fn encode(&self, w: &mut Writer) {
        self.pw.encode(w);
        self.tsr.encode(w);
    }
}

impl Decode for FrozenSlot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FrozenSlot { pw: TsVal::decode(r)?, tsr: ReadSeq::decode(r)? })
    }
}

impl Encode for NewRead {
    fn encode(&self, w: &mut Writer) {
        self.reader.encode(w);
        self.tsr.encode(w);
    }
}

impl Decode for NewRead {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NewRead { reader: ReaderId::decode(r)?, tsr: ReadSeq::decode(r)? })
    }
}

/// Fewest bytes one encoded [`NewRead`] can occupy.
pub(crate) const NEW_READ_MIN_BYTES: usize = 2;

// ---- process identities ----------------------------------------------

impl Encode for ProcessId {
    fn encode(&self, w: &mut Writer) {
        match self {
            ProcessId::Writer => w.u8(0),
            ProcessId::Reader(r) => {
                w.u8(1);
                r.encode(w);
            }
            ProcessId::Server(s) => {
                w.u8(2);
                s.encode(w);
            }
            ProcessId::WriterOf(reg) => {
                w.u8(3);
                reg.encode(w);
            }
        }
    }
}

impl Decode for ProcessId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(ProcessId::Writer),
            1 => Ok(ProcessId::Reader(ReaderId::decode(r)?)),
            2 => Ok(ProcessId::Server(ServerId::decode(r)?)),
            // Canonicalize on the way in: `WriterOf(DEFAULT)` and
            // `Writer` are one logical process, and only the canonical
            // spelling may enter the system (`ProcessId::writer`'s
            // invariant).
            3 => Ok(ProcessId::writer(RegisterId::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "ProcessId", tag }),
        }
    }
}

/// Encode a length-prefixed list.
pub(crate) fn encode_list<T: Encode>(w: &mut Writer, items: &[T]) {
    w.varint(items.len() as u64);
    for item in items {
        item.encode(w);
    }
}

/// Decode a length-prefixed list whose elements occupy at least
/// `min_elem_bytes` each.
pub(crate) fn decode_list<T: Decode>(
    r: &mut Reader<'_>,
    min_elem_bytes: usize,
) -> Result<Vec<T>, DecodeError> {
    let n = r.list_len(min_elem_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).expect("decodes"), value);
        assert_eq!(r.remaining(), 0, "exact consumption");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Seq(u64::MAX));
        roundtrip(ReadSeq(0));
        roundtrip(RegisterId(u32::MAX));
        roundtrip(ServerId(u16::MAX));
        roundtrip(ReaderId(3));
    }

    #[test]
    fn values_and_pairs_roundtrip() {
        roundtrip(Value::Bot);
        roundtrip(Value::from_u64(42));
        roundtrip(Value::from_bytes(vec![0u8; 300]));
        roundtrip(TsVal::initial());
        roundtrip(TsVal::new(Seq(7), Value::from_u64(9)));
        roundtrip(Some(TsVal::new(Seq(1), Value::from_u64(2))));
        roundtrip(None::<TsVal>);
    }

    #[test]
    fn tags_and_slots_roundtrip() {
        roundtrip(Tag::Write(Seq(5)));
        roundtrip(Tag::WriteBack(ReadSeq(6)));
        roundtrip(FrozenSlot::initial());
        roundtrip(FrozenUpdate {
            reader: ReaderId(1),
            pw: TsVal::new(Seq(2), Value::from_u64(3)),
            tsr: ReadSeq(4),
        });
        roundtrip(NewRead { reader: ReaderId(9), tsr: ReadSeq(10) });
    }

    #[test]
    fn process_ids_roundtrip_canonically() {
        roundtrip(ProcessId::Writer);
        roundtrip(ProcessId::Reader(ReaderId(4)));
        roundtrip(ProcessId::Server(ServerId(2)));
        roundtrip(ProcessId::writer(RegisterId(8)));
        // The non-canonical spelling decodes to the canonical one.
        let mut w = Writer::new();
        w.u8(3);
        RegisterId::DEFAULT.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(ProcessId::decode(&mut Reader::new(&bytes)).unwrap(), ProcessId::Writer);
    }

    #[test]
    fn scalar_range_overflow_is_rejected() {
        // A server id above u16::MAX decodes as an error, not a wrap.
        let mut w = Writer::new();
        w.varint(u16::MAX as u64 + 1);
        let bytes = w.into_bytes();
        assert!(matches!(
            ServerId::decode(&mut Reader::new(&bytes)),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn hostile_value_length_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.u8(VALUE_DATA);
        w.varint(u64::MAX); // promises 16 EiB of payload
        let bytes = w.into_bytes();
        assert!(matches!(
            Value::decode(&mut Reader::new(&bytes)),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            Value::decode(&mut Reader::new(&[9])),
            Err(DecodeError::BadTag { what: "Value", .. })
        ));
        assert!(matches!(
            Tag::decode(&mut Reader::new(&[7, 0])),
            Err(DecodeError::BadTag { what: "Tag", .. })
        ));
        assert!(matches!(
            ProcessId::decode(&mut Reader::new(&[200])),
            Err(DecodeError::BadTag { what: "ProcessId", .. })
        ));
    }
}
