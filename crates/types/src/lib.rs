//! # lucky-types
//!
//! Core vocabulary shared by every crate in the `lucky-atomic` workspace:
//! process identities, logical timestamps, register values, the wire
//! messages of the protocols in *Lucky Read/Write Access to Robust Atomic
//! Storage* (Guerraoui, Levy, Vukolić; DSN 2006), and the resilience
//! parameters with every derived quorum threshold.
//!
//! The types here are deliberately free of any I/O or simulation concern so
//! that the protocol cores in `lucky-core` stay *sans-io*: they consume and
//! produce these values and nothing else.
//!
//! ```
//! use lucky_types::{Params, Value, TsVal, Seq};
//!
//! # fn main() -> Result<(), lucky_types::ParamsError> {
//! // t = 2 failures, b = 1 Byzantine, fast writes survive fw = 1 failure,
//! // fast reads survive fr = 0 failures (fw + fr = t - b).
//! let params = Params::new(2, 1, 1, 0)?;
//! assert_eq!(params.server_count(), 6); // 2t + b + 1
//! assert_eq!(params.quorum(), 4);       // S - t
//!
//! let pair = TsVal::new(Seq(1), Value::from_u64(7));
//! assert!(pair > TsVal::initial());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod batch;
mod history;
mod id;
mod msg;
mod params;
mod placement;
mod time;
mod value;

pub use batch::BatchConfig;
pub use history::{History, Op, OpId, OpKind, OpRecord};
pub use id::{ProcessId, ReaderId, RegisterId, ServerId};
pub use msg::{
    FrozenSlot, FrozenUpdate, Message, NewRead, PwAckMsg, PwMsg, ReadAckMsg, ReadMsg, Tag,
    WriteAckMsg, WriteMsg,
};
pub use params::{Params, ParamsError, TwoRoundParams};
pub use placement::{GroupId, Placement};
pub use time::Time;
pub use value::{varint_len, ReadSeq, Seq, TsVal, Value};

/// SplitMix64's finalizer: a full-avalanche `u64` mix with zero
/// dependencies. The placement ring hashes with it (every node that
/// routes must hash identically) and the `WireFuzz` adversary draws
/// from it (equal states corrupt identically).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_output_is_pinned() {
        // Placement and wire-fuzz corruption both depend on these exact
        // values; a change here reroutes registers and reshuffles fuzz.
        assert_eq!(super::splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(super::splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(super::splitmix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }
}
