//! The frame-corruption catalogue of the codec-level adversary.
//!
//! `lucky_core::byz::WireFuzz` is the one adversary that attacks frames,
//! and this function is its attack: the sim and TCP runtimes install
//! it, and `lucky-explore`'s `ByzKind::WireFuzz` explores the same core.
//! Its draws come from a SplitMix counter mix of (seed, reply counter,
//! draw index) rather than an RNG, so equal adversary states corrupt
//! identically and the explorer can hash them. A new corruption mode
//! lands in the cycle once and reaches every harness.
//!
//! The cycle has [`FUZZ_MODES`] arms, selected by `step % FUZZ_MODES`:
//!
//! | arm | attack                              | must still decode? |
//! |-----|-------------------------------------|--------------------|
//! | 0   | none (pass through intact)          | yes                |
//! | 1   | one bit flipped anywhere            | no                 |
//! | 2   | truncated to a strict prefix        | no                 |
//! | 3   | oversized length prefix             | no                 |
//! | 4   | version skew or magic smash         | no                 |
//! | 5   | checksum-valid semantic mangle      | yes                |
//!
//! Arm 5 re-frames the reply as a perfectly valid batch whose *content*
//! is hostile (first part duplicated, parts reversed) — the frame that
//! gets past the codec and attacks the protocol defenses behind it.

use crate::frame::{MAX_FRAME_BYTES, VERSION};
use crate::msg::frame_message;
use lucky_types::Message;

/// Number of arms in the corruption cycle.
pub const FUZZ_MODES: u64 = 6;

/// Apply the `step`-th corruption of the shared cycle to `frame` (the
/// framed encoding of `reply`). `draw` supplies the attack's
/// "randomness" as draws from `0..bound`; `WireFuzz` answers them with
/// a pure counter mix of its seed, `step` and the draw's index, so the
/// corruption is a function of the adversary's state alone.
///
/// Returns the attacked bytes and whether they **must** still decode:
/// `true` arms produce checksum-valid frames (intact or semantically
/// mangled), `false` arms produce damage the decoder is required to
/// reject — an adversary should assert exactly that, turning every
/// fuzzed reply into a codec soundness check.
pub fn fuzz_frame(
    reply: &Message,
    frame: Vec<u8>,
    step: u64,
    draw: &mut dyn FnMut(u64) -> u64,
) -> (Vec<u8>, bool) {
    match step % FUZZ_MODES {
        // Pass through intact: keeps the protocol live and proves the
        // honest path round-trips.
        0 => (frame, true),
        // Bit flip anywhere: header fields fail their checks, payload
        // bits fail the CRC.
        1 => {
            let mut bytes = frame;
            let pos = draw(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << draw(8);
            (bytes, false)
        }
        // Truncation: any strict prefix, down to nothing.
        2 => {
            let mut bytes = frame;
            let keep = draw(bytes.len() as u64) as usize;
            bytes.truncate(keep);
            (bytes, false)
        }
        // Oversized length prefix: promises more than the cap.
        3 => {
            let mut bytes = frame;
            let huge = MAX_FRAME_BYTES as u32 + 1 + draw(1024) as u32;
            bytes[4..8].copy_from_slice(&huge.to_le_bytes());
            (bytes, false)
        }
        // Version skew or magic smash.
        4 => {
            let mut bytes = frame;
            if draw(2) == 0 {
                bytes[2] = VERSION.wrapping_add(1 + draw(254) as u8);
            } else {
                bytes[0] ^= 0xFF;
            }
            (bytes, false)
        }
        // Checksum-valid but semantically mangled: a perfectly
        // well-formed frame whose *content* is hostile.
        _ => {
            let parts = reply.clone().flatten();
            let mut mangled: Vec<Message> = Vec::with_capacity(parts.len() + 1);
            if let Some(first) = parts.first() {
                mangled.push(first.clone());
            }
            mangled.extend(parts.into_iter().rev());
            (frame_message(&Message::batch(mangled)), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::unframe_message;
    use lucky_types::{ReadMsg, ReadSeq, RegisterId};

    fn reply() -> Message {
        Message::Read(ReadMsg { reg: RegisterId(1), tsr: ReadSeq(2), rnd: 1 })
    }

    #[test]
    fn every_arm_keeps_its_decode_promise() {
        // Sweep many draw streams through every arm: `must_decode`
        // frames decode, the rest are always rejected.
        for seed in 0..50u64 {
            for step in 0..FUZZ_MODES * 2 {
                let mut state = seed;
                let mut draw = |bound: u64| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(step | 1);
                    (state >> 16) % bound
                };
                let m = reply();
                let (bytes, must_decode) = fuzz_frame(&m, frame_message(&m), step, &mut draw);
                assert_eq!(
                    unframe_message(&bytes).is_ok(),
                    must_decode,
                    "arm {} seed {seed}",
                    step % FUZZ_MODES
                );
            }
        }
    }

    #[test]
    fn mangle_arm_is_valid_and_hostile() {
        let m = reply();
        let mut draw = |bound: u64| bound - 1;
        let (bytes, must_decode) = fuzz_frame(&m, frame_message(&m), FUZZ_MODES - 1, &mut draw);
        assert!(must_decode);
        let decoded = unframe_message(&bytes).expect("checksum-valid mangle");
        assert!(decoded.part_count() >= 2, "duplicated + reversed: {decoded:?}");
    }
}
