//! Frame layout and stream reassembly.
//!
//! Every wire message travels as one frame:
//!
//! ```text
//!  offset 0         2         3         4               8              12
//!         +---------+---------+---------+---------------+---------------+=========+
//!         | magic   | version | flags   | payload len   | CRC-32 of     | payload |
//!         | "LW"    | 0x01    | 0x00    | u32 LE        | payload, LE   | bytes   |
//!         +---------+---------+---------+---------------+---------------+=========+
//! ```
//!
//! The 4-byte prelude (magic + version + flags) rejects foreign or
//! version-skewed peers before a single payload byte is trusted; the
//! length field is validated against [`MAX_FRAME_BYTES`] before any
//! buffering decision; the checksum is verified before the payload is
//! handed to the codec. [`FrameDecoder`] owns the reassembly buffer a
//! TCP reader needs: feed it whatever `read()` returned — half a
//! header, three frames and a tail, one byte — and take the complete
//! verified payloads as they form.

use crate::codec::DecodeError;
use crate::crc::crc32;
use bytes::Bytes;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"LW";

/// The codec version this build speaks. A frame with any other version
/// is rejected with [`DecodeError::BadVersion`] — version skew is an
/// explicit error, never a silent misparse.
pub const VERSION: u8 = 1;

/// Bytes of header before the payload: magic (2), version (1), flags
/// (1), payload length (4), checksum (4).
pub const FRAME_HEADER_BYTES: usize = 12;

/// Hard cap on one frame's payload length. A hostile length prefix past
/// this is rejected from the 12 header bytes alone — the decoder never
/// buffers toward an impossible frame.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Wrap `payload` in a complete frame (header + checksum + payload).
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — the sending side
/// bounds its batches well below the cap, so oversize is a local logic
/// error, not an I/O condition.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    encode_frame_into(payload, &mut out);
    out
}

/// [`encode_frame`] into a caller-supplied buffer: `out` is cleared and
/// receives the complete frame, reusing whatever capacity it already
/// holds. The allocation-free half of the recycled encode path
/// ([`PacketEncoder`](crate::PacketEncoder)).
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`], as
/// [`encode_frame`] does.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})",
        payload.len()
    );
    out.clear();
    out.reserve(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(0); // flags, reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Validate the 12 header bytes and return the advertised payload
/// length.
fn parse_header(header: &[u8]) -> Result<usize, DecodeError> {
    debug_assert_eq!(header.len(), FRAME_HEADER_BYTES);
    if header[0..2] != MAGIC {
        return Err(DecodeError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(DecodeError::BadVersion(header[2]));
    }
    if header[3] != 0 {
        return Err(DecodeError::BadFlags(header[3]));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(DecodeError::FrameTooLarge(len));
    }
    Ok(len)
}

/// Verify the checksum over `payload` against the header.
fn check_crc(header: &[u8], payload: &[u8]) -> Result<(), DecodeError> {
    let expected = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let got = crc32(payload);
    if got != expected {
        return Err(DecodeError::BadChecksum { expected, got });
    }
    Ok(())
}

/// Decode a buffer holding exactly one frame, returning its verified
/// payload.
///
/// # Errors
///
/// Any header/checksum [`DecodeError`];
/// [`DecodeError::TrailingBytes`] if the buffer continues past the
/// frame, [`DecodeError::Truncated`] if it ends early.
pub fn decode_frame(buf: &[u8]) -> Result<&[u8], DecodeError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let (header, rest) = buf.split_at(FRAME_HEADER_BYTES);
    let len = parse_header(header)?;
    if rest.len() < len {
        return Err(DecodeError::Truncated);
    }
    if rest.len() > len {
        return Err(DecodeError::TrailingBytes(rest.len() - len));
    }
    check_crc(header, rest)?;
    Ok(rest)
}

/// Incremental frame reassembly for a byte stream.
///
/// Feed it every chunk a socket read returns, in order; poll
/// [`FrameDecoder::next_frame`] for complete, checksum-verified
/// payloads. Partial frames stay buffered (bounded by
/// [`MAX_FRAME_BYTES`] plus one header — an impossible length prefix is
/// rejected before the decoder ever buffers toward it).
///
/// Payloads come back as **windows into the reassembly allocation**:
/// bytes accumulate in a staging `Vec`, and once at least one complete
/// frame has formed, the staged region is copied into one shared
/// [`Bytes`] allocation (the freeze) from which every frame it holds is
/// sliced zero-copy. A read that delivered several frames pays for one
/// freeze, not one copy per frame (asserted by the shares-allocation
/// test below), and the staging `Vec` keeps its capacity for the next
/// read.
///
/// A stream that produced an error cannot be resynchronized — framing
/// carries no self-delimiting marker robust to corruption — so callers
/// must drop the connection on the first `Err`, which is exactly what
/// `lucky-net`'s transport does.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes fed but not yet frozen into a shared allocation.
    staging: Vec<u8>,
    /// The frozen shared allocation frames are currently sliced from.
    frozen: Bytes,
    /// Consume offset within `frozen`; bytes before it belong to
    /// already-returned frames (whose windows keep the `Arc` alive).
    pos: usize,
}

impl FrameDecoder {
    /// A decoder with an empty reassembly buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder { staging: Vec::new(), frozen: Bytes::new(), pos: 0 }
    }

    /// Append freshly-read stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.staging.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed by a frame.
    pub fn buffered(&self) -> usize {
        (self.frozen.len() - self.pos) + self.staging.len()
    }

    /// Extract the next complete frame's verified payload, if the
    /// buffer holds one. `Ok(None)` means "feed me more bytes".
    ///
    /// The payload is a zero-copy window into the decoder's frozen
    /// reassembly allocation (shared with every other frame from the
    /// same freeze). Decoding the packet with a
    /// [`Reader::shared`](crate::Reader::shared) cursor then slices
    /// values of 1 KiB and more out of the same buffer and copies
    /// shorter ones, so the freeze lives only as long as the packet
    /// and its large values.
    ///
    /// # Errors
    ///
    /// Any header/checksum [`DecodeError`]. The decoder is not
    /// resynchronizable after an error; drop the stream.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, DecodeError> {
        loop {
            // Serve from the frozen region while it holds a full frame.
            let rem = self.frozen.len() - self.pos;
            if rem >= FRAME_HEADER_BYTES {
                let header = &self.frozen[self.pos..self.pos + FRAME_HEADER_BYTES];
                let len = parse_header(header)?;
                if rem >= FRAME_HEADER_BYTES + len {
                    let start = self.pos + FRAME_HEADER_BYTES;
                    check_crc(&self.frozen[self.pos..start], &self.frozen[start..start + len])?;
                    self.pos = start + len;
                    return Ok(Some(self.frozen.slice(start..start + len)));
                }
            }
            // The frozen region is exhausted (at most a partial frame
            // left): reclaim its tail into staging and see whether the
            // staged bytes complete a frame.
            if self.staging.is_empty() {
                return Ok(None);
            }
            if self.pos < self.frozen.len() {
                self.staging.splice(0..0, self.frozen[self.pos..].iter().copied());
            }
            self.frozen = Bytes::new();
            self.pos = 0;
            if self.staging.len() >= FRAME_HEADER_BYTES {
                let len = parse_header(&self.staging[..FRAME_HEADER_BYTES])?;
                if self.staging.len() >= FRAME_HEADER_BYTES + len {
                    // At least one complete frame: freeze the whole
                    // staged region into one shared allocation and
                    // slice from it (loop back to the fast path). The
                    // freeze copies either way, so staging keeps its
                    // capacity for the next feed.
                    self.frozen = Bytes::copy_from_slice(&self.staging);
                    self.staging.clear();
                    continue;
                }
            }
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello wire".to_vec();
        let frame = encode_frame(&payload);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
        assert_eq!(decode_frame(&frame).expect("valid frame"), &payload[..]);
    }

    #[test]
    fn empty_payload_frames() {
        let frame = encode_frame(&[]);
        assert_eq!(decode_frame(&frame).expect("valid"), &[] as &[u8]);
    }

    #[test]
    fn bad_magic_version_flags_are_rejected() {
        let mut frame = encode_frame(b"x");
        frame[0] = b'X';
        assert!(matches!(decode_frame(&frame), Err(DecodeError::BadMagic(_))));
        let mut frame = encode_frame(b"x");
        frame[2] = VERSION + 1;
        assert!(matches!(decode_frame(&frame), Err(DecodeError::BadVersion(_))));
        let mut frame = encode_frame(b"x");
        frame[3] = 0x80;
        assert!(matches!(decode_frame(&frame), Err(DecodeError::BadFlags(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_from_the_header_alone() {
        let mut frame = encode_frame(b"x");
        frame[4..8].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(DecodeError::FrameTooLarge(_))));
        // The incremental decoder rejects it too, without buffering.
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(matches!(dec.next_frame(), Err(DecodeError::FrameTooLarge(_))));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut frame = encode_frame(b"payload under test");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(decode_frame(&frame), Err(DecodeError::BadChecksum { .. })));
    }

    #[test]
    fn reassembles_from_single_byte_feeds() {
        let a = encode_frame(b"first");
        let b = encode_frame(b"second frame, longer");
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &byte in &stream {
            dec.feed(&[byte]);
            while let Some(p) = dec.next_frame().expect("clean stream") {
                got.push(p.as_ref().to_vec());
            }
        }
        assert_eq!(got, vec![b"first".to_vec(), b"second frame, longer".to_vec()]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn reassembles_across_arbitrary_chunk_boundaries() {
        let frames: Vec<Vec<u8>> =
            (0..5).map(|i| encode_frame(format!("frame #{i}").as_bytes())).collect();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        for chunk in [1usize, 2, 3, 7, 11, 64] {
            let mut dec = FrameDecoder::new();
            let mut got = 0;
            for piece in stream.chunks(chunk) {
                dec.feed(piece);
                while let Some(p) = dec.next_frame().expect("clean stream") {
                    assert_eq!(p.as_ref(), format!("frame #{got}").as_bytes());
                    got += 1;
                }
            }
            assert_eq!(got, frames.len(), "chunk size {chunk}");
        }
    }

    #[test]
    fn payload_windows_share_the_reassembly_allocation() {
        // The zero-copy pin: one read delivering several frames makes
        // ONE allocation; every payload is a window into it. A copying
        // decoder cannot pass this test.
        let stream: Vec<u8> =
            [&b"alpha"[..], b"beta", b"gamma"].iter().flat_map(|p| encode_frame(p)).collect();
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let first = dec.next_frame().unwrap().expect("frame 1");
        let second = dec.next_frame().unwrap().expect("frame 2");
        let third = dec.next_frame().unwrap().expect("frame 3");
        assert_eq!(
            (first.as_ref(), second.as_ref(), third.as_ref()),
            (&b"alpha"[..], &b"beta"[..], &b"gamma"[..])
        );
        assert!(
            first.shares_allocation(&second) && second.shares_allocation(&third),
            "payloads must be windows into one shared reassembly allocation"
        );
        // Windows stay valid after the decoder moves on to new bytes.
        dec.feed(&encode_frame(b"later"));
        let later = dec.next_frame().unwrap().expect("frame 4");
        assert_eq!(first.as_ref(), b"alpha");
        assert!(!later.shares_allocation(&first), "a new freeze is a new allocation");
    }

    #[test]
    fn truncated_tail_waits_instead_of_erroring() {
        let frame = encode_frame(b"held back");
        let mut dec = FrameDecoder::new();
        dec.feed(&frame[..frame.len() - 1]);
        assert!(matches!(dec.next_frame(), Ok(None)));
        dec.feed(&frame[frame.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"held back");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_BYTES")]
    fn encoder_rejects_oversize_payloads() {
        let _ = encode_frame(&vec![0u8; MAX_FRAME_BYTES + 1]);
    }
}
